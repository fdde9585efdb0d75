"""Walk recurrence, conjugate gradient, and the dense reference solver."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import katzbounds
from katzbounds import (ConvergenceError, Criterion, Graph,
                        MethodNotApplicableError, ParameterError, cg_katz,
                        dense_oracle, foster, generate, init, iterate_once,
                        run)

import builders


# ---- dense oracle ----

def test_oracle_complete_graph_closed_form():
    # K_n at admissible alpha: katz = delta / (1 - delta), delta = alpha(n-1)
    for n in (3, 5, 9):
        g = builders.complete(n)
        alpha = 0.5 / (n - 1)
        expect = 0.5 / (1 - 0.5)
        np.testing.assert_allclose(dense_oracle(g, alpha=alpha).values,
                                   expect, rtol=1e-13)


def test_oracle_star_closed_form():
    # S_3 hub 15/13, leaves 7/13 at alpha = 1/4 (solved by hand)
    g = builders.star(4)
    sv = dense_oracle(g, alpha=0.25)
    np.testing.assert_allclose(sv.values, [15 / 13, 7 / 13, 7 / 13, 7 / 13],
                               rtol=1e-14)
    assert sv.method == "dense"


def test_oracle_directed_dag():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    np.testing.assert_allclose(dense_oracle(g, alpha=0.5).values,
                               [0.75, 0.5, 0.0], atol=1e-15)


def test_oracle_size_limit():
    g = Graph.from_edges(2001, [])
    with pytest.raises(ParameterError):
        dense_oracle(g)


def test_oracle_ranking_ties_by_id():
    g = builders.cycle(4)
    assert list(dense_oracle(g, alpha=0.2).ranking()) == [0, 1, 2, 3]


# ---- foster recurrence ----

def test_foster_matches_oracle():
    for seed in range(5):
        g = builders.er_graph(40, 0.1, seed=seed)
        alpha = 0.5 / max(g.max_out_degree(), 1)
        sv = foster(g, alpha=alpha, tol=1e-13)
        np.testing.assert_allclose(sv.values,
                                   dense_oracle(g, alpha=alpha).values,
                                   rtol=1e-10, atol=1e-12)
        assert sv.residual < 1e-13


def test_foster_equals_engine_partial_sums():
    # the shifted iterate after r rounds is exactly the truncated walk sum
    g = builders.grid(5, 6)
    st = init(g, Criterion.score(1e-9), alpha=0.15, undirected=True)
    for r in range(1, 9):
        iterate_once(st, g)
        with pytest.raises(ConvergenceError) as exc:
            foster(g, alpha=0.15, tol=1e-300, max_iter=r)
        partial = exc.value.partial.values
        assert np.max(np.abs(partial - st.katz)) < 1e-14


def test_foster_iteration_count_reported():
    g = builders.star(6)
    sv = foster(g, alpha=0.1, tol=1e-10)
    assert sv.iterations >= 1
    assert sv.method == "foster"


def test_foster_rejects_bad_parameters():
    g = builders.star(6)
    with pytest.raises(ParameterError):
        foster(g, alpha=0.5)  # 1/deg_max = 0.2
    with pytest.raises(ParameterError):
        foster(g, tol=0.0)
    with pytest.raises(ParameterError):
        foster(g, max_iter=0)


def test_foster_edgeless_converges_immediately():
    g = Graph.from_edges(3, [])
    sv = foster(g, tol=1e-9)
    np.testing.assert_array_equal(sv.values, 0.0)
    assert sv.iterations == 1


# ---- conjugate gradient ----

def test_cg_matches_oracle_tight():
    for seed in range(5):
        g = builders.er_graph(60, 0.08, seed=seed)
        alpha = 0.5 / max(g.max_out_degree(), 1)
        sv = cg_katz(g, alpha=alpha, residual_tol=1e-15)
        np.testing.assert_allclose(sv.values,
                                   dense_oracle(g, alpha=alpha).values,
                                   rtol=1e-8, atol=1e-10)


def test_cg_requires_symmetry():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(MethodNotApplicableError):
        cg_katz(g, alpha=0.3)


def generated(model: str, n: int, seed: int = 0) -> Graph:
    return Graph.from_edges(n, generate(model, n, seed=seed), undirected=True)


def test_cg_loose_tolerance_preserves_clear_ranking():
    g = builders.star(50)
    tight = cg_katz(g, residual_tol=1e-15)
    loose = cg_katz(g, residual_tol=1e-4)
    assert loose.iterations <= tight.iterations
    assert tight.ranking()[0] == loose.ranking()[0] == 0
    # rounds at residual_tol 1e-15, 1e-12 and 1e-4
    for g, rounds in ((generated("rmat", 4096, seed=1), [8, 7, 3]),
                      (generated("grid", 4096), [52, 43, 17])):
        assert [cg_katz(g, residual_tol=tol).iterations
                for tol in (1e-15, 1e-12, 1e-4)] == rounds


def test_cg_convergence_error_carries_partial():
    g = builders.grid(8, 8)
    with pytest.raises(ConvergenceError) as exc:
        cg_katz(g, alpha=0.2, residual_tol=1e-15, max_iter=2)
    assert exc.value.partial is not None
    assert len(exc.value.partial.values) == 64
    # max_iter rounds may run, and the residual after the last is tested
    g = generated("rmat", 4096, seed=1)
    assert cg_katz(g, residual_tol=1e-15, max_iter=8).iterations == 8
    with pytest.raises(ConvergenceError) as exc:
        cg_katz(g, residual_tol=1e-15, max_iter=7)
    assert exc.value.iterations == exc.value.partial.iterations == 7


@pytest.mark.parametrize("module", ["scipy.sparse.linalg",
                                    "concurrent.futures.thread"])
def test_import_leaves_the_solver_module_unloaded(module):
    # cg_katz imports scipy's solvers itself; loaded at import, they cost
    # every program about 10 MB of resident memory. The engine runs on
    # one thread; only the edge-list loader imports a thread pool.
    code = f"import sys, katzbounds; print({module!r} in sys.modules)"
    src = str(Path(katzbounds.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             [src, os.environ.get("PYTHONPATH", "")])})
    assert out.stdout == "False\n"


def test_cg_edgeless():
    g = Graph.from_edges(4, [])
    sv = cg_katz(g)
    np.testing.assert_array_equal(sv.values, 0.0)


# ---- cross-method agreement ----

def test_three_routes_agree():
    g = builders.grid(7, 7)
    alpha = 0.2
    st = init(g, Criterion.score(1e-12), alpha=alpha, undirected=True)
    run(st, g)
    exact = dense_oracle(g, alpha=alpha).values
    fos = foster(g, alpha=alpha, tol=1e-13).values
    cgv = cg_katz(g, alpha=alpha).values
    np.testing.assert_allclose(st.katz, exact, rtol=1e-10)
    np.testing.assert_allclose(fos, exact, rtol=1e-10)
    np.testing.assert_allclose(cgv, exact, rtol=1e-8)

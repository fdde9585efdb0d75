"""Bounded engine: frozen small-case values, criteria, invariants."""
from __future__ import annotations

import math

import numpy as np
import pytest

from katzbounds import (ConvergenceError, Criterion, EdgeBatch, Graph,
                        KatzState, ParameterError, StateError,
                        check_converged, default_alpha, dense_oracle,
                        generate, init, iterate_once, ranking_result, run,
                        tail_gamma, update_batch, validate_alpha)
from katzbounds import engine
from katzbounds.engine import descending_order

import builders


# ---- parameter plumbing ----

def test_default_alpha_from_max_degree():
    assert default_alpha(builders.star(5)) == 1.0 / 5.0
    assert default_alpha(builders.path(4)) == 1.0 / 3.0


def test_default_alpha_edgeless():
    g = Graph.from_edges(3, [])
    assert default_alpha(g) == 0.5


@pytest.mark.parametrize("alpha", [0.0, -0.1, 0.25, 0.3, float("nan"),
                                   float("inf")])
def test_validate_alpha_rejects(alpha):
    with pytest.raises(ParameterError):
        validate_alpha(alpha, 4)


def test_validate_alpha_accepts_open_interval():
    validate_alpha(0.2499999, 4)
    validate_alpha(1e-9, 4)
    validate_alpha(0.999, 0)
    with pytest.raises(ParameterError):
        validate_alpha(1.0, 0)


def test_tail_gamma_values():
    # gamma = d / (1 - alpha d)
    assert tail_gamma(0.25, 3) == 3 / (1 - 0.75)
    assert tail_gamma(0.5, 0) == 0.0


def test_criterion_validation():
    with pytest.raises(ParameterError):
        Criterion.ranking(0.0)
    with pytest.raises(ParameterError):
        Criterion.top_k(0, 1e-6)
    with pytest.raises(ParameterError):
        Criterion.pair(2, 2, 1e-6)
    with pytest.raises(ParameterError):
        Criterion("nonsense")


def test_init_rejects_bad_shapes():
    g = builders.path(4)
    with pytest.raises(ParameterError):
        init(g, Criterion.top_k(5, 1e-6))
    with pytest.raises(ParameterError):
        init(g, Criterion.pair(0, 7))
    # undirected flag demands a symmetric arc set
    gd = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(ParameterError):
        init(gd, Criterion.ranking(1e-6), undirected=True)


def test_init_has_no_threads_keyword():
    # the engine is single-threaded: a thread count is a caller's error
    with pytest.raises(TypeError):
        init(builders.path(4), Criterion.ranking(1e-6), threads=1)


# ---- frozen values, derived by hand and checked against the dense oracle ----

def test_triangle_first_level_exact():
    # K_3 at alpha = 1/3: every node has two walks of length 1, so the
    # attenuated level-1 mass is 2/3 per node and katz_1 = 2/3.
    # gamma = 2 / (1 - 2/3) = 6; upper_1 = 2/3 + (1/3)(2/3)(6) = 2 exactly,
    # and the true value is delta/(1-delta) = 2, so the bound is sharp.
    # lower_1 = katz_1 + alpha * w_1 = 2/3 + 2/9 = 8/9.
    g = builders.complete(3)
    st = init(g, Criterion.score(1e-6), alpha=1 / 3, undirected=True)
    iterate_once(st, g)
    assert st.r == 1
    np.testing.assert_allclose(st.levels[1], 2 / 3, rtol=0, atol=0)
    np.testing.assert_allclose(st.katz, 2 / 3, rtol=0, atol=0)
    np.testing.assert_allclose(st.lower, 8 / 9, rtol=1e-15)
    # equality holds in real arithmetic; the gamma division costs one ulp
    np.testing.assert_allclose(st.upper, 2.0, rtol=0, atol=5e-16)


def test_k4_upper_is_exact_katz():
    # K_4 at alpha = 1/4: delta = 3/4, exact katz = 3 for every node.
    # gamma = 3 / (1 - 3/4) = 12, upper_1 = 3/4 + (1/4)(3/4)(12) = 3.
    # Score gap after one round: 3 - (3/4 + 3/16) = 2.0625.
    g = builders.complete(4)
    st = init(g, Criterion.score(1e-6), alpha=0.25, undirected=True)
    iterate_once(st, g)
    np.testing.assert_array_equal(st.upper, 3.0)
    assert st.gap() == 2.0625


def test_star_converged_values():
    # S_3 at alpha = 1/4, hub 0: solving (I - aA)z = 1 gives
    # z_hub = 28/13, z_leaf = 20/13, so katz = aAz is 15/13 at the hub
    # and 7/13 at each leaf.
    g = builders.star(4)
    st = init(g, Criterion.score(1e-12), alpha=0.25, undirected=True)
    run(st, g)
    np.testing.assert_allclose(st.katz, [15 / 13, 7 / 13, 7 / 13, 7 / 13],
                               rtol=1e-11)
    assert np.all(st.lower <= np.array([15 / 13, 7 / 13, 7 / 13, 7 / 13]) + 1e-15)
    assert np.all(st.upper >= np.array([15 / 13, 7 / 13, 7 / 13, 7 / 13]) - 1e-15)


def test_directed_path_terminates():
    # 0 -> 1 -> 2 at alpha = 1/2: katz = (1/2 + 1/4, 1/2, 0). Levels die
    # after two rounds, so bounds collapse onto the exact values.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    st = init(g, Criterion.score(1e-9), alpha=0.5)
    run(st, g)
    np.testing.assert_allclose(st.katz, [0.75, 0.5, 0.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(st.lower, st.katz, rtol=0, atol=0)
    np.testing.assert_allclose(st.upper, st.katz, rtol=0, atol=1e-12)


def test_edgeless_graph_all_zero():
    g = Graph.from_edges(4, [])
    st = init(g, Criterion.ranking(1e-6))
    res = run(st, g)
    assert res.iterations_used == 1
    np.testing.assert_array_equal(st.katz, 0.0)
    np.testing.assert_array_equal(st.upper, 0.0)
    assert list(res.order) == [0, 1, 2, 3]


# ---- invariants ----

def test_bounds_bracket_oracle_on_random_graphs():
    for seed in range(8):
        g = builders.er_graph(30, 0.15, seed=seed)
        alpha = default_alpha(g)
        exact = dense_oracle(g, alpha=alpha).values
        st = init(g, Criterion.score(1e-9), alpha=alpha, undirected=True)
        for _ in range(12):
            iterate_once(st, g)
            slack = 1e-12 * (1.0 + np.abs(exact))
            assert np.all(st.lower <= exact + slack)
            assert np.all(st.upper >= exact - slack)


def test_bounds_monotone_per_iteration():
    g = builders.grid(6, 6)
    st = init(g, Criterion.score(1e-9), undirected=True)
    prev_lower = st.lower.copy()
    prev_upper = st.upper.copy()
    for _ in range(15):
        iterate_once(st, g)
        assert np.all(st.lower >= prev_lower - 1e-15)
        assert np.all(st.upper <= prev_upper + 1e-15)
        prev_lower = st.lower.copy()
        prev_upper = st.upper.copy()


def test_two_step_tail_is_sound_and_no_looser():
    # Directed graphs too, which gate 1 leaves out: over levels 1..20,
    # lower <= exact <= upper, the upper bound never above the
    # single-step one, and never rising from one level to the next.
    rng = np.random.default_rng(13)
    graphs = [(builders.er_graph(int(rng.integers(15, 60)),
                                 float(rng.uniform(0.04, 0.2)),
                                 seed=700 + i, undirected=undirected),
               undirected)
              for i in range(12) for undirected in (True, False)]
    graphs += [(builders.star(30), True), (builders.path(40), True),
               (builders.grid(6, 7), True)]
    for g, undirected in graphs:
        alpha = float(rng.uniform(0.3, 0.99)) / max(g.max_out_degree(), 1)
        exact = dense_oracle(g, alpha=alpha).values
        slack = 1e-12 * (1.0 + np.abs(exact))
        st = init(g, Criterion.score(1e-12), alpha=alpha,
                  undirected=undirected)
        prev_upper = None
        for _ in range(20):
            iterate_once(st, g)
            single_step = st.katz + st.alpha * st.levels[st.r] * st.gamma
            assert np.all(st.lower <= exact + slack)
            assert np.all(st.upper >= exact - slack)
            assert np.all(st.upper <= single_step)
            if prev_upper is not None:
                assert np.all(st.upper <= prev_upper + 1e-15), st.r
            prev_upper = st.upper.copy()


def test_directed_lower_is_partial_sum():
    g = builders.er_graph(20, 0.1, seed=3, undirected=False)
    st = init(g, Criterion.score(1e-9))
    iterate_once(st, g)
    iterate_once(st, g)
    np.testing.assert_array_equal(st.lower, st.katz)


def test_undirected_lower_adds_tail_step():
    g = builders.cycle(6)
    st = init(g, Criterion.score(1e-9), undirected=True)
    iterate_once(st, g)
    np.testing.assert_allclose(st.lower,
                               st.katz + st.alpha * st.levels[1],
                               rtol=0, atol=0)


def test_state_rejects_stale_graph():
    g = builders.path(4)
    st = init(g, Criterion.ranking(1e-6))
    g.apply_batch(EdgeBatch(insertions=[(0, 2)]))
    with pytest.raises(StateError):
        iterate_once(st, g)


def test_check_converged_needs_an_iteration():
    g = builders.path(4)
    st = init(g, Criterion.ranking(1e-6))
    with pytest.raises(StateError):
        check_converged(st)


# ---- criteria behavior ----

def test_score_criterion_gap_below_epsilon():
    g = builders.grid(5, 5)
    st = init(g, Criterion.score(1e-7), undirected=True)
    run(st, g)
    assert st.gap() < 1e-7


def test_pair_criterion_stops_early():
    # hub versus leaf separates after very few rounds
    g = builders.star(30)
    st_pair = init(g, Criterion.pair(0, 7, 1e-6), undirected=True)
    run(st_pair, g)
    st_full = init(g, Criterion.ranking(1e-6), undirected=True)
    run(st_full, g)
    assert st_pair.r <= st_full.r
    assert check_converged(st_pair)


def test_pair_direction_picks_larger_lower():
    g = builders.star(6)
    st = init(g, Criterion.pair(3, 0, 1e-6), undirected=True)
    run(st, g)
    # hub 0 wins even though it was passed second
    assert st.lower[0] > st.upper[3] - 1e-6


def test_topk_deactivation_shrinks_monotonically():
    g = builders.er_graph(60, 0.1, seed=21)
    st = init(g, Criterion.top_k(5, 1e-8), undirected=True)
    prev = st.active.size
    for _ in range(st.max_iterations):
        iterate_once(st, g)
        done = check_converged(st)
        assert st.active.size <= prev
        prev = st.active.size
        if done:
            break
    assert check_converged(st)
    assert st.active.size <= 60


def test_topk_agrees_with_full_ranking_prefix():
    g = builders.er_graph(50, 0.12, seed=4)
    st_k = init(g, Criterion.top_k(8, 1e-9), undirected=True)
    res_k = run(st_k, g)
    st_r = init(g, Criterion.ranking(1e-9), undirected=True)
    res_r = run(st_r, g)
    exact = dense_oracle(g, alpha=st_r.alpha).values
    order = np.lexsort((np.arange(50), -exact))
    # prefix agreement holds wherever the oracle gap exceeds epsilon
    for i, (a, b) in enumerate(zip(res_k.top(8), order[:8])):
        if a != b:
            assert abs(exact[a] - exact[b]) < 1e-9
    for a, b in zip(res_r.order, order):
        if a != b:
            assert abs(exact[a] - exact[b]) < 1e-9


def test_ranking_result_is_frozen_and_sorted():
    g = builders.star(7)
    res = run(init(g, Criterion.ranking(1e-6), undirected=True), g)
    assert res.order[0] == 0
    lowers = res.lower[res.order]
    assert np.all(np.diff(lowers) <= 0)
    with pytest.raises(ValueError):
        res.lower[0] = 99.0


def test_ranking_ties_break_by_node_id():
    g = builders.cycle(5)
    res = run(init(g, Criterion.ranking(1e-6), undirected=True), g)
    assert list(res.order) == [0, 1, 2, 3, 4]


def test_ranking_result_reorders_ties_in_a_full_active_set():
    # A topk check that drops nobody leaves the survivors behind the
    # prefix, not in the full order; tied leaves must still come out by id.
    g = builders.star(6)
    st = init(g, Criterion.top_k(1), undirected=True)
    iterate_once(st, g)
    st.active = np.array([0, 5, 4, 3, 2, 1])
    assert ranking_result(st).order.tolist() == [0, 1, 2, 3, 4, 5]
    st.active = np.array([0, 1, 2, 3, 4, 5])
    order = ranking_result(st).order
    assert order.tolist() == [0, 1, 2, 3, 4, 5]
    assert order is not st.active and not order.flags.writeable


def test_convergence_error_at_cap():
    g = builders.complete(6)
    st = init(g, Criterion.score(1e-10), undirected=True, max_iterations=2)
    with pytest.raises(ConvergenceError) as exc:
        run(st, g)
    assert exc.value.iterations == 2
    assert exc.value.gap > 1e-10


def test_default_iteration_cap_scales_with_epsilon():
    g = builders.complete(4)
    st_loose = init(g, Criterion.score(1e-2), undirected=True)
    st_tight = init(g, Criterion.score(1e-12), undirected=True)
    assert st_tight.max_iterations > st_loose.max_iterations
    rho = st_loose.alpha * 3
    expected = 10 * math.ceil(math.log(1e2) / math.log(1 / rho))
    assert st_loose.max_iterations == max(1, expected)


def test_pair_check_passes_ties_once_tight():
    # the pair test asks lower(w) > upper(x) - eps, so two leaves of equal
    # value converge, named in either order, once their bounds are tight
    g = builders.star(4)
    for u, v in ((1, 2), (2, 1)):
        st = init(g, Criterion.pair(u, v, 1e-6), undirected=True)
        run(st, g)
        assert check_converged(st)
        assert st.lower[1] == st.lower[2] and st.upper[1] == st.upper[2]
        assert st.lower[1] > st.upper[2] - 1e-6
    # w is the hub either way: a leaf never clears the hub
    for u, v in ((0, 1), (1, 0)):
        st = init(g, Criterion.pair(u, v, 1e-6), undirected=True)
        run(st, g)
        assert check_converged(st)
        assert not st.lower[1] > st.upper[0] - 1e-6


def test_pair_check_is_strict_at_the_boundary():
    # directed two-arc path at alpha = 1/2 terminates, so after three
    # levels every bound is an exact binary fraction: katz = (3/4, 1/2, 0)
    # with lower = upper, and lower[0] clears upper[1] - 1/4 = 1/4.
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    for u, v in ((0, 1), (1, 0)):
        st = init(g, Criterion.pair(u, v, 0.25), alpha=0.5)
        for _ in range(3):
            iterate_once(st, g)
        np.testing.assert_array_equal(st.lower, [0.75, 0.5, 0.0])
        np.testing.assert_array_equal(st.upper, [0.75, 0.5, 0.0])
        assert check_converged(st)
        # at upper[1] = 1, 3/4 > 1 - 1/4 must fail: strictly
        st.upper[1] = 1.0
        assert not check_converged(st)
        st.upper[1] = np.nextafter(1.0, 0.0)  # 1 - 2^-53, exact minus 1/4
        assert check_converged(st)


@pytest.mark.parametrize("undirected", [True, False])
def test_refresh_bounds_matches_allocating_formula(undirected):
    g = rmat_graph(undirected)
    st = init(g, Criterion.score(1e-9), undirected=undirected)
    lower, upper = st.lower, st.upper
    for _ in range(6):
        iterate_once(st, g)
        tail = st.alpha * st.levels[st.r]
        expected_lower = st.katz + tail if undirected else st.katz.copy()
        expected_upper = st.katz + tail * st.gamma
        if st.r >= 2:
            q = st.levels[2].max()
            assert q < 1.0
            two_step = q / (1.0 - q) * (st.levels[st.r - 1] + st.levels[st.r])
            expected_upper = np.minimum(expected_upper, st.katz + two_step)
        np.testing.assert_array_equal(st.lower, expected_lower)
        np.testing.assert_array_equal(st.upper, expected_upper)
        # written in place, never aliasing the partial sums or a level
        assert st.lower is lower and st.upper is upper
        for arr in [st.katz] + st.levels:
            assert not np.shares_memory(arr, lower)
            assert not np.shares_memory(arr, upper)


def test_two_step_tail_level_counts():
    # The two-step tail certifies these in fewer levels than the
    # single-step tail alone, which needed 9, 8 and 10 on rmat 4096 and
    # 8 for the ranking on rmat 2^16.
    g = Graph.from_edges(4096, generate("rmat", 4096, seed=1),
                         undirected=True)
    counts = [run(init(g, crit, undirected=True), g).iterations_used
              for crit in (Criterion.ranking(), Criterion.top_k(25),
                           Criterion.score())]
    assert counts == [6, 5, 7]
    g = Graph.from_edges(65536, generate("rmat", 65536, seed=42),
                         undirected=True)
    res = run(init(g, Criterion.ranking(1e-6), undirected=True), g)
    assert res.iterations_used <= 5


def test_ranking_result_keeps_its_bounds():
    g = builders.er_graph(40, 0.15, seed=2)
    st = init(g, Criterion.top_k(3, 1e-4), undirected=True)
    res = run(st, g)
    lower, upper = res.lower.copy(), res.upper.copy()
    iterate_once(st, g)
    assert not np.array_equal(st.lower, lower)
    arc = next((u, v) for u in range(40) for v in range(u + 1, 40)
               if not g.has_arc(u, v))
    update_batch(st, g, EdgeBatch(insertions=[arc, arc[::-1]]))
    iterate_once(st, g)
    np.testing.assert_array_equal(res.lower, lower)
    np.testing.assert_array_equal(res.upper, upper)


# ---- separated fraction ----

def test_separated_fraction_star():
    # hub against each leaf separates, leaf pairs never do:
    # 3 of 6 pairs on four nodes.
    g = builders.star(4)
    st = init(g, Criterion.ranking(1e-4), undirected=True)
    run(st, g)
    assert ranking_result(st).separated_fraction == 0.5


def test_separated_fraction_matches_quadratic_count():
    # six undirected random graphs, then a directed one whose 20 sinks
    # all have lower = upper = 0: ties on both sides of the count
    sinks = Graph.from_edges(
        30, [(u, 10 + (3 * u + j) % 20) for u in range(10) for j in range(4)]
        + [(u, (u + 1) % 10) for u in range(10)])
    graphs = [(builders.er_graph(25, 0.15, seed=seed), True)
              for seed in range(6)] + [(sinks, False)]
    for g, undirected in graphs:
        st = init(g, Criterion.score(1e-5), undirected=undirected)
        run(st, g)
        assert ranking_result(st).separated_fraction == \
            quadratic_separated_fraction(st)
    # Walks end, so the bounds meet: lower = upper for every node, and
    # nodes with equal scores give lower(w) == upper(v) for w != v. The
    # grid's arcs point right and down, and mirrored cells tie exactly;
    # the star's hub points at its leaves, which all score 0.
    grid = Graph.from_edges(64, [(u, v) for u, v in
                                 builders.arcs(builders.grid(8, 8)) if u < v])
    star = Graph.from_edges(9, [(0, v) for v in range(1, 9)])
    for g in (grid, star, Graph.from_edges(5, [])):
        st = init(g, Criterion.score(1e-300))
        run(st, g)
        np.testing.assert_array_equal(st.lower, st.upper)
        assert np.unique(st.lower).size < g.node_count
        assert ranking_result(st).separated_fraction == \
            quadratic_separated_fraction(st)
    assert ranking_result(st).separated_fraction == 0.0


def quadratic_separated_fraction(st):
    """Every ordered pair (v, w), v != w, with lower[w] > upper[v]."""
    n = st.n
    above = st.lower[None, :] > st.upper[:, None]
    np.fill_diagonal(above, False)
    return int(above.sum()) / (n * (n - 1) // 2)


def coin_rmat(seed: int) -> Graph:
    """rmat 1024, each edge directed by a seeded coin: about half the
    nodes keep no out-arc."""
    edges = generate("rmat", 1024, seed=seed)
    flip = np.random.default_rng(seed).random(len(edges)) < 0.5
    return Graph.from_edges(1024, np.where(flip[:, None], edges[:, ::-1],
                                           edges))


@pytest.mark.parametrize("case", [
    "star-sinks", "path-directed", "coin-rmat", "isolated", "arcless",
    "cycle", "complete"])
def test_ranking_result_matches_references_with_and_without_zeros(case):
    # The first five have nodes whose bounds are both 0 (no out-arc), the
    # zero block that ranking_result and the first ranking sort append by
    # id; cycle and complete have none.
    undirected = case in ("isolated", "cycle", "complete")
    g = {"star-sinks": lambda: Graph.from_edges(
             9, [(0, v) for v in range(1, 9)]),
         "path-directed": lambda: Graph.from_edges(
             12, [(i, i + 1) for i in range(11)]),
         "coin-rmat": lambda: coin_rmat(4),
         "isolated": lambda: Graph.from_edges(
             20, [(u, v) for u in range(12) for v in range(u + 1, 12)
                  if (u * v) % 5 == 1], undirected=True),
         "arcless": lambda: Graph.from_edges(6, []),
         "cycle": lambda: builders.cycle(9),
         "complete": lambda: builders.complete(7)}[case]()
    n = g.node_count
    zeros = int(np.count_nonzero(np.diff(g.out_csr().indptr) == 0))
    assert (zeros > 0) == (case not in ("cycle", "complete"))
    for crit in (Criterion.ranking(), Criterion.top_k(3), Criterion.score(),
                 Criterion.pair(0, n - 1)):
        st = init(g, crit, undirected=undirected)
        res = run(st, g)
        assert np.count_nonzero(res.lower == 0) == zeros
        np.testing.assert_array_equal(
            res.order, descending_order(res.lower, np.arange(n)))
        assert res.separated_fraction == quadratic_separated_fraction(st)
        assert type(res.separated_fraction) is float


def test_separated_fraction_tiny_graphs():
    g = Graph.from_edges(1, [])
    st = init(g, Criterion.ranking(1e-6))
    run(st, g)
    assert ranking_result(st).separated_fraction == 1.0


def test_ranking_result_needs_an_iteration(monkeypatch):
    g = builders.star(4)
    st = init(g, Criterion.ranking(), undirected=True)

    def no_sort(values, ids, **kw):
        raise AssertionError("sorted before the state was checked")

    monkeypatch.setattr(engine, "descending_order", no_sort)
    with pytest.raises(StateError, match="at least one iteration"):
        ranking_result(st)
    monkeypatch.undo()
    iterate_once(st, g)
    assert ranking_result(st).iterations_used == 1


# ---- node order ----

def lexsort_order(values, ids):
    return ids[np.lexsort((ids, -values[ids]))]


def test_descending_order_matches_lexsort():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(1, 300))
        # few distinct values, so most nodes tie; signed zeros among them
        palette = np.concatenate([[0.0, -0.0, 1.0, 1e-300],
                                  rng.random(int(rng.integers(1, 8)))])
        values = rng.choice(palette, size=n)
        if trial % 4 == 0:
            values = rng.random(n)
        m = int(rng.integers(0, n + 1))
        ids = rng.permutation(n)[:m]
        if trial % 5 == 0:
            ids = np.unique(np.concatenate([ids, [n - 1]]))[::-1].copy()
        got = descending_order(values, ids)
        np.testing.assert_array_equal(got, lexsort_order(values, ids))
        assert got.dtype == np.int64
        # The re-sort path starts from an earlier order of the same ids:
        # one by values of which some moved to another palette entry, so
        # that ties form and split; one with every tie in descending id
        # order; a random one.
        earlier = values.copy()
        moved = rng.random(n) < 0.2
        earlier[moved] = rng.choice(palette, size=int(moved.sum()))
        for prev in (lexsort_order(earlier, ids),
                     ids[np.lexsort((-ids, -values[ids]))],
                     rng.permutation(ids)):
            kept = prev.copy()
            got = descending_order(values, prev, presorted=True)
            np.testing.assert_array_equal(got, lexsort_order(values, ids))
            np.testing.assert_array_equal(prev, kept)
            assert got.dtype == np.int64


def test_descending_order_edge_cases():
    values = np.array([0.0, -0.0, 2.0, 0.0, -0.0])
    ids = np.arange(5)
    assert descending_order(values, ids).tolist() == [2, 0, 1, 3, 4]
    assert descending_order(values, ids[::-1]).tolist() == [2, 0, 1, 3, 4]
    assert descending_order(values, np.array([4])).tolist() == [4]
    assert descending_order(values, np.array([], dtype=np.int64)).size == 0
    for ids in (np.arange(5), np.arange(5)[::-1], np.array([4]),
                np.array([], dtype=np.int64)):
        assert descending_order(values, ids, presorted=True).tolist() == \
            descending_order(values, ids).tolist()
    assert descending_order(np.array([7.0]), np.array([0])).tolist() == [0]
    big = np.zeros(2 ** 20)
    assert descending_order(big, np.array([2 ** 20 - 1, 3, 2 ** 20 - 2])
                            ).tolist() == [3, 2 ** 20 - 2, 2 ** 20 - 1]


def lexsort_check_converged(state):
    """check_converged with the node order taken from np.lexsort."""
    kind = state.criterion.kind
    if kind in ("score", "pair"):
        return check_converged(state)
    eps = state.epsilon
    k = state.n if kind == "ranking" else state.criterion.k
    order = lexsort_order(state.lower, state.active)
    prefix, rest = order[:k], order[k:]
    surviving = rest[state.upper[rest] - eps >= state.lower[prefix[-1]]]
    state.active = np.concatenate([prefix, surviving])
    if surviving.size:
        return False
    return bool(np.all(state.upper[prefix[1:]] - eps
                       < state.lower[prefix[:-1]]))


def lexsort_separated_fraction(state):
    n = state.n
    above = n - np.searchsorted(np.sort(state.lower), state.upper,
                                side="right")
    return int(above.sum()) / (n * (n - 1) // 2)


def rmat_edges(undirected: bool) -> list:
    """rmat 2^12 (seed 12); directed, each edge keeps a random direction."""
    edges = generate("rmat", 2 ** 12, seed=12)
    if not undirected:
        flip = np.random.default_rng(3).random(len(edges)) < 0.5
        edges = [(v, u) if f else (u, v) for (u, v), f in zip(edges, flip)]
    return edges


def rmat_graph(undirected: bool) -> Graph:
    return Graph.from_edges(2 ** 12, rmat_edges(undirected),
                            undirected=undirected)


@pytest.mark.parametrize("undirected", [True, False])
def test_run_matches_lexsort_reference(undirected):
    n = 2 ** 12
    edges = rmat_edges(undirected)
    g = Graph.from_edges(n, edges, undirected=undirected)
    for crit in (Criterion.ranking(), Criterion.top_k(25),
                 Criterion.pair(int(edges[0][0]), n - 1), Criterion.score()):
        st = init(g, crit, undirected=undirected)
        res = run(st, g)
        ref = every_node_reference(g, crit, undirected)
        while True:
            iterate_once(ref, g)
            if lexsort_check_converged(ref):
                break
        assert res.iterations_used == ref.r
        assert_same_top_k(st, ref, crit.k or n)
        np.testing.assert_array_equal(
            res.order, lexsort_order(ref.lower, np.arange(n)))
        assert res.separated_fraction == lexsort_separated_fraction(ref)


# ---- ranking witness ----

@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("case", ["rmat-undirected", "rmat-directed", "grid",
                                  "star"])
def test_ranking_check_agrees_with_reference_every_iteration(case, eps):
    undirected = case != "rmat-directed"
    if case.startswith("rmat"):
        g = rmat_graph(undirected)
    else:
        g = builders.grid(64, 64) if case == "grid" else builders.star(200)
    st = init(g, Criterion.ranking(eps), undirected=undirected)
    ref = every_node_reference(g, Criterion.ranking(eps), undirected)
    while True:
        iterate_once(st, g)
        iterate_once(ref, g)
        done = check_converged(st)
        assert done == lexsort_check_converged(ref), st.r
        if done:
            break
        assert st.r < st.max_iterations
    np.testing.assert_array_equal(with_zero_block(st, g.node_count),
                                  ref.active)
    # Top-k; k = n sorts all active nodes from the first check on.
    for k in (1, 25, g.node_count):
        st = init(g, Criterion.top_k(k, eps), undirected=undirected)
        ref = every_node_reference(g, Criterion.top_k(k, eps), undirected)
        while True:
            iterate_once(st, g)
            iterate_once(ref, g)
            done = check_converged(st)
            assert done == lexsort_check_converged(ref), (k, st.r)
            assert_same_top_k(st, ref, k)
            if done:
                break
            assert st.r < st.max_iterations
        # Nodes tied at the k-th lower bound whose bounds are narrower
        # than eps drop out; the k kept are the first k the ranking lists.
        np.testing.assert_array_equal(with_zero_block(st, k),
                                      ranking_result(st).order[:k])


def every_node_reference(g, crit, undirected):
    """A state for lexsort_check_converged whose checks see every node,
    those without out-arcs too, which init leaves out of `active`."""
    ref = init(g, crit, undirected=undirected)
    ref.active = np.arange(g.node_count)
    return ref


def with_zero_block(st, k):
    """st.active, then as many nodes without out-arcs, by id, as a top k
    needs beyond it: what a check that sees every node keeps."""
    zeros = np.flatnonzero(st.lower == 0)[:max(k - st.active.size, 0)]
    return np.concatenate([st.active, zeros])


def assert_same_top_k(st, ref, k):
    """The first k active nodes agree in order, ties at the k-th lower
    bound included, the zero block filling a top k beyond st.active; the
    survivors after them agree as a set."""
    mine = with_zero_block(st, k)
    np.testing.assert_array_equal(mine[:k], ref.active[:k])
    assert set(mine[k:].tolist()) == set(ref.active[k:].tolist())


@pytest.mark.parametrize("k", [1, 25])
def test_topk_ties_at_the_kth_bound_break_by_id(k):
    # At r = 1 the 62 x 62 inner cells of the grid tie at the largest
    # lower bound, so the top k are the k least ids among them, from 65.
    g = builders.grid(64, 64)
    st = init(g, Criterion.top_k(k), undirected=True)
    iterate_once(st, g)
    assert not check_converged(st)
    full = lexsort_order(st.lower, np.arange(g.node_count))
    np.testing.assert_array_equal(st.active[:k], full[:k])
    assert st.active[0] == 65


def witness_state(lower, upper, active, eps):
    """A ranking state after one iteration, given bounds and order."""
    g = Graph.from_edges(len(lower), [])
    st = init(g, Criterion.ranking(eps))
    iterate_once(st, g)
    st.lower[:], st.upper[:] = lower, upper
    st.active = np.array(active, dtype=np.int64)
    return st


def test_ranking_witness_boundary():
    # Dyadic values, so every comparison is exact. Node 0 holds [0.5, 1]
    # and ranks first; the previous order lists node 1 first.
    eps = 0.25
    # Overlap of exactly eps: 0.5 <= 0.75 - 0.25 is a witness, and the
    # order is left as it was. The sorted order agrees: 0.75 - 0.25 < 0.5
    # fails.
    st = witness_state([0.5, 0.25], [1.0, 0.75], [1, 0], eps)
    assert not check_converged(st)
    assert st.active.tolist() == [1, 0]
    assert not lexsort_check_converged(st)
    # Overlap below eps: 0.5 > 0.625 - 0.25, no witness; the sort runs,
    # orders the nodes and finds them separated.
    st = witness_state([0.5, 0.25], [1.0, 0.625], [1, 0], eps)
    assert check_converged(st)
    assert st.active.tolist() == [0, 1]
    # Equal bounds separate in both directions and are no witness.
    st = witness_state([0.5, 0.5], [0.5, 0.5], [1, 0], eps)
    assert check_converged(st)
    assert st.active.tolist() == [0, 1]
    # Node 0's interval inside node 1's: 0.5 <= 0.625 - 0.25 fails, no
    # witness. The sorted pair then overlaps by exactly eps, 0.75 - 0.25
    # < 0.5 fails, and the ranking is not yet certified.
    st = witness_state([0.5, 0.25], [0.625, 0.75], [0, 1], eps)
    assert not check_converged(st)
    assert st.active.tolist() == [0, 1]
    assert not lexsort_check_converged(st)


def test_topk_survivor_boundary():
    # Dyadic values again. Node 1's upper bound minus eps reaches node 0's
    # lower bound exactly, so it may still be in the top 1 and stays. Both
    # nodes have an out-arc, so both start in `active`.
    g = Graph.from_edges(2, [(0, 1), (1, 0)])
    st = init(g, Criterion.top_k(1, 0.25))
    iterate_once(st, g)
    st.lower[:], st.upper[:] = [0.5, 0.25], [1.0, 0.75]
    assert not check_converged(st)
    assert st.active.tolist() == [0, 1]
    # Below it, node 1 is out for good and node 0 alone is the top 1.
    st.upper[1] = 0.625
    assert check_converged(st)
    assert st.active.tolist() == [0]


def test_ranking_sorts_once_per_check_without_witness(monkeypatch):
    # A ranking check sorts the active set exactly when the previous
    # order holds no witness: adjacent nodes overlapping by epsilon. It
    # sorts only the nodes with a positive lower bound, which init put in
    # `active`: the first sort from scratch, each later one re-sorting the
    # order the last one gave.
    g = Graph.from_edges(1024, generate("rmat", 1024, seed=1), undirected=True)
    sorts = []

    def spy(values, ids, **kw):
        sorts.append((kw.get("presorted", False), len(ids)))
        return descending_order(values, ids, **kw)

    monkeypatch.setattr(engine, "descending_order", spy)
    st = init(g, Criterion.ranking(1e-6), undirected=True)
    witnessed = []
    while True:
        iterate_once(st, g)
        lo, up = st.lower[st.active], st.upper[st.active]
        witnessed.append(bool((np.maximum(lo[:-1], lo[1:])
                               <= np.minimum(up[:-1], up[1:]) - st.epsilon
                               ).any()))
        sorts.clear()
        done = check_converged(st)
        if witnessed[-1]:
            assert sorts == [], st.r
        elif witnessed.count(False) == 1:
            assert sorts == [(False, np.count_nonzero(st.lower))], st.r
        else:
            assert sorts == [(True, np.count_nonzero(st.lower))], st.r
        if done:
            break
    # a sort at r = 5, a witness in that order at r = 6, a sort at r = 7
    assert witnessed == [True] * 4 + [False, True, False]
    assert 0 < np.count_nonzero(st.lower) < 1024
    # The converged check's order is current: the snapshot copies it.
    sorts.clear()
    order = ranking_result(st).order
    assert sorts == []
    np.testing.assert_array_equal(order, with_zero_block(st, 1024))


# ---- carried order ----

def test_carried_order_is_forgotten_after_update_batch():
    # Deleting edge (0, 1) reorders nodes, and the first check after it
    # passes: no resumed iteration. The check re-sorts from the order
    # carried over from before the update.
    edges = generate("rmat", 1024, seed=1)
    g = Graph.from_edges(1024, edges, undirected=True)
    st = init(g, Criterion.ranking(1e-3), undirected=True)
    run(st, g)
    before = with_zero_block(st, 1024)
    update_batch(st, g, EdgeBatch(deletions=[(0, 1), (1, 0)]))
    assert st.last_update_stats.resumed_iterations == 0
    ref = descending_order(st.lower, np.arange(1024))
    assert not np.array_equal(ref, before)
    np.testing.assert_array_equal(with_zero_block(st, 1024), ref)
    np.testing.assert_array_equal(ranking_result(st).order, ref)


def test_carried_order_is_forgotten_after_a_convergence_error():
    # At the cap a check that found a witness raises, and `active` keeps
    # the order an earlier check sorted by earlier bounds. The snapshot
    # must sort the current ones, after an update as after a static run.
    g = Graph.from_edges(1024, generate("rmat", 1024, seed=1), undirected=True)
    st = init(g, Criterion.ranking(1e-6), undirected=True, max_iterations=99)
    run(st, g)
    st.max_iterations = st.r
    with pytest.raises(ConvergenceError):
        update_batch(st, g, EdgeBatch(deletions=[(0, 1), (1, 0)]))
    assert st.last_update_stats.resumed_iterations == 0
    g = coin_rmat(2)
    static = init(g, Criterion.ranking(1e-9), max_iterations=9)
    with pytest.raises(ConvergenceError):
        run(static, g)
    for st in (st, static):
        ref = descending_order(st.lower, np.arange(1024))
        assert not np.array_equal(ref, with_zero_block(st, 1024))
        np.testing.assert_array_equal(ranking_result(st).order, ref)


# ---- the zero block ----

@pytest.mark.parametrize("case", ["edgeless", "star-sinks"])
def test_every_criterion_on_graphs_with_few_out_arcs(case):
    # Edgeless, no node has an out-arc (p = 0); in the directed star only
    # hub 0 has (p = 1). Ranking and top-k states hold just those p nodes
    # in `active`; a top k above p lists them, then the first k - p zeros
    # by id.
    n = 6
    hub = case == "star-sinks"
    g = Graph.from_edges(n, [(0, v) for v in range(1, n)] if hub else [])
    alpha = default_alpha(g)
    for crit in (Criterion.ranking(), Criterion.top_k(1), Criterion.top_k(3),
                 Criterion.top_k(n), Criterion.score(), Criterion.pair(0, 5),
                 Criterion.pair(4, 2)):
        st = init(g, crit)
        ranked = crit.kind in ("ranking", "topk")
        assert st.active.tolist() == ([0] * hub if ranked else list(range(n)))
        res = run(st, g)
        # Only the hub's score interval needs level 2, where it closes.
        level_two = hub and crit.kind == "score"
        assert res.iterations_used == (2 if level_two else 1)
        assert res.order.tolist() == list(range(n))
        assert res.lower.tolist() == [alpha * 5 * hub] + [0.0] * (n - 1)
        assert res.upper[1:].tolist() == [0.0] * (n - 1)
        assert res.separated_fraction == quadratic_separated_fraction(st)
        if crit.kind == "topk":
            assert res.top(crit.k) == list(range(crit.k))
            assert st.active.tolist() == [0] * hub

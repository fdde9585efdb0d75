"""Acceptance gates for the whole package.

Each test covers one numbered criterion and prints a single PASS/FAIL
line with the measured evidence. Tolerances are pinned here on purpose;
loosening them is not an option when a gate fails.
"""
from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from katzbounds import (ConvergenceError, Criterion, EdgeBatch, Graph,
                        cg_katz, check_converged, dense_oracle, dynamic,
                        foster, generate, init, iterate_once, ranking_result,
                        run, update_batch)

import builders


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[{num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# ---- shared instances ----

@pytest.fixture(scope="module")
def pool():
    """200 undirected graphs (100 sparse random, 100 grids) with their
    attenuation factor and exact scores from the direct solver."""
    rng = random.Random(1234)
    entries = []
    for i in range(100):
        n = rng.randint(20, 200)
        p = min(rng.uniform(2.0, 8.0) / max(n - 1, 1), 0.5)
        g = builders.er_graph(n, p, seed=1000 + i)
        d = g.max_out_degree()
        if d == 0:
            alpha = 0.5
        elif i % 2 == 0:
            alpha = 1.0 / (1.0 + d)
        else:
            alpha = rng.uniform(0.2, 0.9) / d
        entries.append((g, alpha, dense_oracle(g, alpha=alpha).values))
    for i in range(100):
        rows = rng.randint(2, 14)
        cols = rng.randint(2, min(14, 200 // rows))
        g = builders.grid(rows, cols)
        d = g.max_out_degree()
        alpha = 1.0 / (1.0 + d) if i % 2 == 0 else rng.uniform(0.2, 0.9) / d
        entries.append((g, alpha, dense_oracle(g, alpha=alpha).values))
    return entries


@pytest.fixture(scope="module")
def rmat_graph():
    edges = generate("rmat", 65536, seed=42)
    return Graph.from_edges(65536, edges, undirected=True)


# ---- criteria ----

def test_01_bounds_bracket_direct_solve(pool):
    """Every iterate's bounds enclose the exact scores on 200 graphs."""
    t0 = time.perf_counter()
    violations = 0
    nodes_checked = 0
    for g, alpha, exact in pool:
        st = init(g, Criterion.score(1e-9), alpha=alpha, undirected=True)
        slack = 1e-12 * (1.0 + np.abs(exact))
        for _ in range(25):
            iterate_once(st, g)
            violations += int(np.sum(st.lower > exact + slack))
            violations += int(np.sum(st.upper < exact - slack))
            nodes_checked += g.node_count
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report(1, ok, f"bracketing: {violations} violations over "
           f"{nodes_checked} node-iterations on {len(pool)} graphs "
           f"in {elapsed:.1f}s")


def test_02_complete_graph_upper_bound_sharp():
    """On complete graphs the upper bound equals the exact score at
    every iteration."""
    worst = 0.0
    cases = 0
    for n in range(3, 51):
        for delta in (0.5, 0.8):
            alpha = delta / (n - 1)
            exact = delta / (1.0 - delta)
            g = builders.complete(n)
            st = init(g, Criterion.score(1e-9), alpha=alpha, undirected=True)
            for _ in range(10):
                iterate_once(st, g)
                rel = float(np.max(np.abs(st.upper - exact))) / exact
                worst = max(worst, rel)
                cases += g.node_count
    ok = worst < 1e-12
    report(2, ok, f"sharpness: worst relative error {worst:.2e} over "
           f"{cases} node-iterations, threshold 1e-12")


def test_03_bounds_move_monotonically():
    """Lower bounds never decrease, upper bounds never increase."""
    rng = random.Random(303)
    graphs = []
    for i in range(25):
        n = rng.randint(20, 60)
        p = min(rng.uniform(2.0, 6.0) / max(n - 1, 1), 0.3)
        graphs.append((builders.er_graph(n, p, seed=3000 + i), True))
    for i in range(10):
        n = rng.randint(20, 60)
        p = min(rng.uniform(1.5, 4.0) / max(n - 1, 1), 0.2)
        graphs.append((builders.er_graph(n, p, seed=4000 + i,
                                         undirected=False), False))
    graphs += [(builders.grid(6, 8), True), (builders.path(50), True),
               (builders.cycle(40), True), (builders.star(45), True),
               (builders.grid(5, 5), True)]
    samples = 0
    bad_lower = 0
    bad_upper = 0
    for g, undirected in graphs:
        d = g.max_out_degree()
        alpha = rng.uniform(0.3, 0.9) / max(d, 1)
        st = init(g, Criterion.score(1e-12), alpha=alpha,
                  undirected=undirected)
        prev_lower = st.lower.copy()
        prev_upper = st.upper.copy()
        for _ in range(12):
            iterate_once(st, g)
            bad_lower += int(np.sum(st.lower < prev_lower - 1e-15))
            bad_upper += int(np.sum(st.upper > prev_upper + 1e-15))
            samples += g.node_count
            prev_lower = st.lower.copy()
            prev_upper = st.upper.copy()
    ok = samples >= 10_000 and bad_lower == 0 and bad_upper == 0
    report(3, ok, f"monotonicity: {bad_lower} lower / {bad_upper} upper "
           f"violations over {samples} node-iterations at 1e-15")


def test_04_recurrence_equals_partial_sums():
    """The shifted walk recurrence reproduces the engine's truncated sums
    round for round on 50 graphs."""
    rng = random.Random(404)
    graphs = []
    for i in range(30):
        n = rng.randint(15, 80)
        p = min(rng.uniform(2.0, 6.0) / max(n - 1, 1), 0.3)
        graphs.append(builders.er_graph(n, p, seed=5000 + i))
    graphs += [builders.grid(rng.randint(3, 9), rng.randint(3, 9))
               for _ in range(8)]
    graphs += [builders.path(rng.randint(10, 60)) for _ in range(4)]
    graphs += [builders.cycle(rng.randint(10, 60)) for _ in range(4)]
    graphs += [builders.star(rng.randint(10, 60)) for _ in range(4)]
    assert len(graphs) == 50
    worst = 0.0
    for g in graphs:
        d = max(g.max_out_degree(), 1)
        alpha = rng.uniform(0.3, 0.8) / d
        st = init(g, Criterion.score(1e-12), alpha=alpha, undirected=True)
        for r in range(1, 11):
            iterate_once(st, g)
            with pytest.raises(ConvergenceError) as exc:
                foster(g, alpha=alpha, tol=1e-300, max_iter=r)
            diff = float(np.max(np.abs(exc.value.partial.values - st.katz)))
            worst = max(worst, diff)
    ok = worst < 1e-14
    report(4, ok, f"recurrence equivalence: worst deviation {worst:.2e} "
           f"over 50 graphs, rounds 1..10, threshold 1e-14")


def test_05_converged_ranking_respects_true_order(pool):
    """A converged ranking at eps never inverts a pair whose exact scores
    differ by more than eps."""
    eps = 1e-6
    bad_pairs = 0
    pairs_checked = 0
    for g, alpha, exact in pool:
        st = init(g, Criterion.ranking(eps), alpha=alpha, undirected=True)
        res = run(st, g)
        n = g.node_count
        pos = np.empty(n, dtype=np.int64)
        pos[np.asarray(res.order)] = np.arange(n)
        idx = np.argsort(-exact, kind="stable")
        ex = exact[idx]
        ps = pos[idx]
        cummax = np.maximum.accumulate(ps)
        counts = np.searchsorted(-ex, -(ex + eps), side="left")
        mask = counts > 0
        bad_pairs += int(np.sum(cummax[counts[mask] - 1] > ps[mask]))
        pairs_checked += int(np.sum(counts))
    ok = bad_pairs == 0
    report(5, ok, f"ranking correctness: {bad_pairs} inverted of "
           f"{pairs_checked} separated node-vs-prefix checks at eps={eps}")


def _post_max_out(g: Graph, batch: EdgeBatch) -> int:
    degs = g.out_degrees().copy()
    for u, _ in batch.deletions:
        degs[u] -= 1
    for u, _ in batch.insertions:
        degs[u] += 1
    return int(degs.max()) if len(degs) else 0


def _tie_groups(lower: np.ndarray, tol_rel: float = 1e-11) -> np.ndarray:
    """Group ids for values that chain within tolerance of each other."""
    n = len(lower)
    order = np.lexsort((np.arange(n), -lower))
    gid = np.empty(n, dtype=np.int64)
    cur = 0
    prev = 0.0
    for idx, v in enumerate(order):
        val = lower[v]
        if idx > 0 and (prev - val) > tol_rel * (1.0 + abs(val)):
            cur += 1
        gid[v] = cur
        prev = val
    return gid


def _canonical(order, gid) -> list[int]:
    """Reorder tie-group members by id without moving group positions."""
    order = [int(v) for v in order]
    slots: dict[int, list[int]] = {}
    for pos, v in enumerate(order):
        slots.setdefault(int(gid[v]), []).append(pos)
    out = order[:]
    for positions in slots.values():
        if len(positions) > 1:
            members = sorted(out[p] for p in positions)
            for p, v in zip(positions, members):
                out[p] = v
    return out


def _hub_rival_graph(rng: random.Random, h: int):
    r = h + 2
    n = rng.randint(2 * h + 6, 300)
    edges = [(0, i) for i in range(2, 2 + h)]
    edges += [(1, i) for i in range(2 + h, 2 + h + r)]
    return Graph.from_edges(n, edges, undirected=True)


def test_06_updates_equal_fresh_recomputation(monkeypatch):
    """500 update trials: levels match a fresh run at 1e-12 and the
    converged rankings agree; at least 50 trials must reactivate nodes.
    Each trial draws the arc share past which levels are whole products:
    1.0 keeps every level local, 0.0 computes them all whole."""
    rng = random.Random(60606)
    counters = dict(trials=0, value_bad=0, rank_bad=0, react=0, not_conv=0)

    def one_trial(g, crit, alpha, undirected, batch, share, topk=None):
        st = init(g, crit, alpha=alpha, undirected=undirected)
        run(st, g)
        monkeypatch.setattr(dynamic, "LARGE_FRONTIER_SHARE", share)
        update_batch(st, g, batch)
        counters["trials"] += 1
        if st.last_update_stats.reactivated >= 1:
            counters["react"] += 1
        fresh = init(g, crit, alpha=alpha, undirected=undirected,
                     max_iterations=max(st.r, 1))
        for _ in range(st.r):
            iterate_once(fresh, g)
        agree = len(st.levels) == len(fresh.levels)
        for mine, theirs in zip(st.levels, fresh.levels):
            agree &= bool(np.allclose(mine, theirs, rtol=1e-12, atol=1e-13))
        for mine, theirs in ((st.katz, fresh.katz), (st.lower, fresh.lower),
                             (st.upper, fresh.upper)):
            agree &= bool(np.allclose(mine, theirs, rtol=1e-12, atol=1e-13))
        if not agree:
            counters["value_bad"] += 1
        if not check_converged(fresh):
            counters["not_conv"] += 1
            return
        cut = topk if topk else g.node_count
        gid = _tie_groups(fresh.lower)
        dyn = _canonical(ranking_result(st).order, gid)
        ref = _canonical(ranking_result(fresh).order, gid)
        if dyn[:cut] != ref[:cut]:
            counters["rank_bad"] += 1

    # random undirected graphs under full-ranking runs
    for i in range(200):
        n = rng.randint(30, 400)
        p = min(rng.uniform(2.0, 8.0) / max(n - 1, 1), 0.4)
        g = builders.er_graph(n, p, seed=10_000 + i)
        batch = builders.random_batch(g, rng, max_ops=rng.randint(1, 10),
                                      undirected=True)
        dm = max(g.max_out_degree(), _post_max_out(g, batch), 1)
        alpha = rng.uniform(0.2, 0.85) / dm
        share = rng.choice((1.0, 1.0, 0.25, 0.0))
        one_trial(g, Criterion.ranking(1e-6), alpha, True, batch, share)

    # hub demotions that force reactivation of retired candidates
    for i in range(120):
        h = rng.randint(5, 10)
        g = _hub_rival_graph(rng, h)
        batch = EdgeBatch(insertions=[],
                          deletions=[(0, j) for j in range(2, 2 + h)]
                                    + [(j, 0) for j in range(2, 2 + h)])
        alpha = rng.uniform(0.3, 0.9) / (h + 2)
        share = rng.choice((1.0, 1.0, 0.25))
        one_trial(g, Criterion.top_k(2, 1e-6), alpha, True, batch, share,
                  topk=2)

    # directed graphs, score and ranking runs
    for i in range(100):
        n = rng.randint(30, 200)
        p = min(rng.uniform(1.5, 6.0) / max(n - 1, 1), 0.3)
        g = builders.er_graph(n, p, seed=20_000 + i, undirected=False)
        batch = builders.random_batch(g, rng, max_ops=rng.randint(1, 20))
        dm = max(g.max_out_degree(), _post_max_out(g, batch), 1)
        alpha = rng.uniform(0.2, 0.85) / dm
        crit = Criterion.score(1e-7) if i % 2 else Criterion.ranking(1e-6)
        share = rng.choice((1.0, 1.0, 0.25, 0.0))
        one_trial(g, crit, alpha, False, batch, share)

    # structured families with heavy symmetry
    for i in range(80):
        kind = rng.choice(("grid", "cycle", "path", "star"))
        if kind == "grid":
            g = builders.grid(rng.randint(3, 22), rng.randint(3, 22))
        elif kind == "cycle":
            g = builders.cycle(rng.randint(10, 500))
        elif kind == "path":
            g = builders.path(rng.randint(10, 500))
        else:
            g = builders.star(rng.randint(10, 400))
        batch = builders.random_batch(g, rng, max_ops=rng.randint(1, 10),
                                      undirected=True)
        dm = max(g.max_out_degree(), _post_max_out(g, batch), 1)
        alpha = rng.uniform(0.2, 0.85) / dm
        share = rng.choice((1.0, 1.0, 0.25, 0.0))
        one_trial(g, Criterion.ranking(1e-6), alpha, True, batch, share)

    ok = (counters["trials"] == 500 and counters["value_bad"] == 0
          and counters["rank_bad"] == 0 and counters["not_conv"] == 0
          and counters["react"] >= 50)
    report(6, ok, f"dynamic equals static: {counters['value_bad']} value / "
           f"{counters['rank_bad']} ranking mismatches in "
           f"{counters['trials']} trials, {counters['react']} with "
           f"reactivation (need >= 50)")


def test_07_update_work_stays_local():
    """Deleting one edge of a 10000-node grid touches well under 10% of
    the nodes during delta propagation."""
    g = builders.grid(100, 100)
    st = init(g, Criterion.score(1.0), alpha=0.2, undirected=True,
              max_iterations=60)
    run(st, g)
    depth = st.r
    assert 4 <= depth <= 6, f"depth {depth} outside the intended window"
    update_batch(st, g, EdgeBatch(insertions=[],
                                  deletions=[(4950, 4951), (4951, 4950)]))
    stats = st.last_update_stats
    ok = (stats.aborted_level is None and stats.visited < 1000
          and stats.visited > 0)
    report(7, ok, f"locality: visited {stats.visited} of {g.node_count} "
           f"nodes at depth {depth} (cap 1000), levels {stats.level_sizes}")


def test_08_precision_sweep_is_monotone(rmat_graph):
    """Tightening eps on a 65536-node instance never reduces iterations
    or the separated pair fraction."""
    iters = []
    seps = []
    for k in range(1, 13):
        st = init(rmat_graph, Criterion.ranking(10.0 ** -k), undirected=True)
        res = run(st, rmat_graph)
        iters.append(res.iterations_used)
        seps.append(res.separated_fraction)
    iter_ok = all(a <= b for a, b in zip(iters, iters[1:]))
    sep_ok = all(a <= b for a, b in zip(seps, seps[1:]))
    ok = iter_ok and sep_ok
    report(8, ok, f"sweep: iterations {iters}, separated fraction "
           f"{seps[0]:.4f} -> {seps[-1]:.4f}, both weakly increasing: "
           f"{iter_ok}/{sep_ok}")


def test_09_conjugate_gradient_validates(pool, rmat_graph):
    """Tight-tolerance CG matches the direct solver; loose CG keeps the
    same leaders on the large instance."""
    worst = 0.0
    used = 0
    for g, alpha, exact in pool[::5]:
        sv = cg_katz(g, alpha=alpha, residual_tol=1e-15)
        rel = float(np.max(np.abs(sv.values - exact) / (1.0 + np.abs(exact))))
        worst = max(worst, rel)
        used += 1
    tight = cg_katz(rmat_graph, residual_tol=1e-15)
    loose = cg_katz(rmat_graph, residual_tol=1e-4)
    top_equal = list(tight.ranking()[:100]) == list(loose.ranking()[:100])
    ok = worst < 1e-8 and top_equal
    report(9, ok, f"cg: worst error {worst:.2e} vs direct solve on {used} "
           f"graphs (cap 1e-8); top-100 stable under loose tolerance: "
           f"{top_equal}")

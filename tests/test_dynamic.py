"""Incremental updates: exactness against fresh runs, locality, batch files."""
from __future__ import annotations

import io
import os
import random
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from katzbounds import (BatchPreconditionError, ConvergenceError, Criterion,
                        EdgeBatch, Graph, NodeRangeError, ParameterError,
                        ParseError, StateError,
                        check_converged, dense_oracle, generate, init,
                        iterate_once, load_batches, load_edge_list,
                        ranking_result, run, update_batch)

from katzbounds import KatzState, dynamic, graph, tail_gamma
from katzbounds.engine import default_iteration_cap

import builders


def fresh_to_depth(g: Graph, st):
    """Static state on g's current arcs, iterated to st.r."""
    other = init(g, st.criterion, alpha=st.alpha, undirected=st.undirected,
                 max_iterations=max(st.r, 1))
    for _ in range(st.r):
        iterate_once(other, g)
    return other


def assert_state_matches(st, fresh):
    """Levels, partial sums and bounds bitwise equal to the fresh run's."""
    assert len(st.levels) == len(fresh.levels)
    for mine, theirs in zip(st.levels, fresh.levels):
        np.testing.assert_array_equal(mine, theirs)
    np.testing.assert_array_equal(st.katz, fresh.katz)
    np.testing.assert_array_equal(st.lower, fresh.lower)
    np.testing.assert_array_equal(st.upper, fresh.upper)


# ---- exactness against fresh runs ----

def bitwise_graph(kind: str, nodes: int = 2**12) -> Graph:
    if kind == "grid":
        return builders.grid(64, 64)
    edges = np.array(generate("rmat", nodes, seed=3))
    if kind == "rmat-undirected":
        return Graph.from_edges(nodes, edges, undirected=True)
    flip = np.random.default_rng(5).random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    return Graph.from_edges(nodes, edges)


@pytest.mark.parametrize("share", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("kind", ["rmat-undirected", "rmat-directed", "grid"])
def test_update_rounds_bitwise_equal_fresh(kind, share, monkeypatch):
    """The bitwise form of acceptance gate 6: after every batch of
    delete/re-insert rounds of 1, 10 and 100 edges, levels, partial sums
    and bounds equal a fresh run's bit for bit, and so does the top-25
    order, ties included. At the arc share 1.0 every level is local, at
    0.0 the update computes whole products from level 1. At the default
    0.25 each batch's local levels used the reverse-BFS balls of the
    pre-batch graph, multiplied the arcs of the last one once per local
    level, and left the rest to whole products."""
    monkeypatch.setattr(dynamic, "LARGE_FRONTIER_SHARE", share)
    g = bitwise_graph(kind)
    undirected = kind != "rmat-directed"
    st = init(g, Criterion.top_k(25, 1e-6), undirected=undirected)
    run(st, g)
    rng = random.Random(11)
    for size in (1, 10, 100, 1, 10, 100):
        arcs = [(u, v) for u, v in builders.arcs(g) if u < v or not undirected]
        edit = rng.sample(arcs, size)
        if undirected:
            edit += [(v, u) for u, v in edit]
        for batch in (EdgeBatch(deletions=edit), EdgeBatch(insertions=edit)):
            before = Graph.from_edges(g.node_count, builders.arcs(g))
            depth = st.r
            update_batch(st, g, batch)
            stats = st.last_update_stats
            if share in (0.0, 1.0):  # all whole, or all local
                local = stats.aborted_level is None
                assert local == (share == 1.0)
            else:
                s = len(stats.level_sizes)
                balls = reverse_bfs_balls(before, batch, s)
                assert stats.level_sizes == [len(ball) for ball in balls]
                degree = g.out_degrees()
                arcs = sum(degree[v] for v in balls[-1]) if s else 0
                assert stats.pushed_arcs == arcs * s
                # level 1 of a whole recompute is alpha * d_out, no product
                assert stats.matvecs == \
                    depth - max(s, 1) + stats.resumed_iterations
            fresh = fresh_to_depth(g, st)
            assert_state_matches(st, fresh)
            assert ranking_result(st).top(25) == ranking_result(fresh).top(25)


# ---- correctness of the level recomputation ----

def test_single_insertion_matches_fresh():
    g = builders.path(6)
    st = init(g, Criterion.ranking(1e-8), alpha=0.2, undirected=True)
    run(st, g)
    update_batch(st, g, EdgeBatch(insertions=[(0, 3), (3, 0)], deletions=[]))
    assert_state_matches(st, fresh_to_depth(g, st))


def test_single_deletion_matches_fresh():
    g = builders.cycle(8)
    st = init(g, Criterion.ranking(1e-8), alpha=0.2, undirected=True)
    run(st, g)
    update_batch(st, g, EdgeBatch(insertions=[], deletions=[(2, 3), (3, 2)]))
    assert_state_matches(st, fresh_to_depth(g, st))


def test_mixed_directed_batch_matches_fresh():
    g = builders.er_graph(40, 0.08, seed=13, undirected=False)
    st = init(g, Criterion.score(1e-9), alpha=0.05)
    run(st, g)
    rng = random.Random(99)
    batch = builders.random_batch(g, rng, max_ops=6)
    update_batch(st, g, batch)
    assert_state_matches(st, fresh_to_depth(g, st))


def test_randomized_update_stream_stays_exact():
    rng = random.Random(7)
    g = builders.er_graph(35, 0.1, seed=2)
    st = init(g, Criterion.ranking(1e-7), alpha=0.02, undirected=True)
    run(st, g)
    for _ in range(8):
        batch = builders.random_batch(g, rng, max_ops=4, undirected=True)
        update_batch(st, g, batch)
        assert_state_matches(st, fresh_to_depth(g, st))
        assert check_converged(st)


def test_update_then_converged_bracket_holds():
    g = builders.er_graph(30, 0.12, seed=8)
    st = init(g, Criterion.score(1e-10), alpha=0.03, undirected=True)
    run(st, g)
    rng = random.Random(31)
    batch = builders.random_batch(g, rng, max_ops=5, undirected=True)
    update_batch(st, g, batch)
    exact = dense_oracle(g, alpha=st.alpha).values
    slack = 1e-12 * (1.0 + np.abs(exact))
    assert np.all(st.lower <= exact + slack)
    assert np.all(st.upper >= exact - slack)


def test_insert_then_delete_restores_levels():
    g = builders.grid(5, 5)
    st = init(g, Criterion.score(1e-9), alpha=0.1, undirected=True)
    run(st, g)
    levels0 = [lvl.copy() for lvl in st.levels]
    arc = [(0, 6), (6, 0)]
    update_batch(st, g, EdgeBatch(insertions=arc, deletions=[]))
    update_batch(st, g, EdgeBatch(insertions=[], deletions=arc))
    # the state may have iterated deeper in between, which only extends
    # the level list; every restored level must match the original run
    assert len(st.levels) >= len(levels0)
    for mine, orig in zip(st.levels, levels0):
        np.testing.assert_allclose(mine, orig, rtol=1e-12, atol=1e-14)
    assert_state_matches(st, fresh_to_depth(g, st))


def test_empty_batch_is_a_noop_on_values():
    g = builders.star(10)
    st = init(g, Criterion.top_k(3, 1e-7), undirected=True)
    run(st, g)
    lower0, upper0 = st.lower.copy(), st.upper.copy()
    order0 = list(np.lexsort((np.arange(10), -st.lower)))
    update_batch(st, g, EdgeBatch(insertions=[], deletions=[]))
    np.testing.assert_array_equal(st.lower, lower0)
    np.testing.assert_array_equal(st.upper, upper0)
    assert list(np.lexsort((np.arange(10), -st.lower))) == order0
    assert check_converged(st)


@pytest.mark.parametrize("share", [1.0, 0.0])
def test_update_bumps_graph_version_once(share, monkeypatch):
    monkeypatch.setattr(dynamic, "LARGE_FRONTIER_SHARE", share)
    g = builders.er_graph(30, 0.1, seed=4, undirected=False)
    st = init(g, Criterion.score(1e-9), alpha=0.05)
    run(st, g)
    present = sorted(builders.arcs(g))[:2]
    absent = [(u, v) for u in range(30) for v in range(30)
              if u != v and not g.has_arc(u, v)][:3]
    batch = EdgeBatch(insertions=absent, deletions=present)
    before = g.version
    update_batch(st, g, batch)
    assert g.version == before + 1
    assert st.graph_version == g.version
    assert_state_matches(st, fresh_to_depth(g, st))


# ---- BFS abort and locality ----

def test_share_zero_forces_full_recompute(monkeypatch):
    """At the arc share 0.0 every level is a whole product."""
    monkeypatch.setattr(dynamic, "LARGE_FRONTIER_SHARE", 0.0)
    g = builders.cycle(12)
    st = init(g, Criterion.score(1e-8), alpha=0.2, undirected=True)
    run(st, g)
    update_batch(st, g, EdgeBatch(insertions=[(0, 6), (6, 0)], deletions=[]))
    stats = st.last_update_stats
    assert stats.aborted_level == 1
    assert stats.level_sizes == []
    assert_state_matches(st, fresh_to_depth(g, st))


def test_abort_and_local_routes_agree(monkeypatch):
    g1 = builders.er_graph(30, 0.1, seed=5)
    g2 = builders.er_graph(30, 0.1, seed=5)
    if g1.has_arc(0, 17):
        ins = next([(u, v), (v, u)] for u in range(30) for v in range(u + 1, 30)
                   if not g1.has_arc(u, v))
    else:
        ins = [(0, 17), (17, 0)]
    dele = next([(u, v), (v, u)] for u, v in sorted(builders.arcs(g1))
                if u < v and (u, v) != tuple(ins[0]))
    batch = EdgeBatch(insertions=ins, deletions=dele)
    st1 = init(g1, Criterion.score(1e-9), alpha=0.05, undirected=True)
    st2 = init(g2, Criterion.score(1e-9), alpha=0.05, undirected=True)
    run(st1, g1)
    run(st2, g2)
    monkeypatch.setattr(dynamic, "LARGE_FRONTIER_SHARE", 1.0)
    update_batch(st1, g1, batch)   # local levels
    monkeypatch.setattr(dynamic, "LARGE_FRONTIER_SHARE", 0.0)
    update_batch(st2, g2, batch)   # whole levels
    assert st1.last_update_stats.aborted_level is None
    assert st2.last_update_stats.aborted_level == 1
    np.testing.assert_allclose(st1.katz, st2.katz, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(st1.lower, st2.lower, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(st1.upper, st2.upper, rtol=1e-12, atol=1e-13)


def test_locality_on_grid():
    # a single deleted edge in a big grid touches a ball around the
    # endpoints: after level i its radius is at most i - 1
    g = builders.grid(20, 20)
    st = init(g, Criterion.score(0.9), alpha=0.2, undirected=True)
    run(st, g)
    depth = st.r
    arc = [(0, 1), (1, 0)]
    update_batch(st, g, EdgeBatch(insertions=[], deletions=arc))
    stats = st.last_update_stats
    assert stats.aborted_level is None
    # ball of radius depth-1 around two corner-adjacent nodes
    cap = 2 * (depth * (depth + 1))
    assert stats.visited <= cap
    assert stats.visited < g.node_count / 4


def test_level_sizes_grow_by_neighborhood():
    g = builders.path(30)
    st = init(g, Criterion.score(0.5), alpha=0.3, undirected=True)
    run(st, g)
    update_batch(st, g, EdgeBatch(deletions=[(10, 11), (11, 10)]))
    sizes = st.last_update_stats.level_sizes
    assert sizes[0] == 2
    for a, b in zip(sizes, sizes[1:]):
        assert b - a <= 2  # path growth adds at most one node per side


# ---- guards ----

def test_alpha_admission_checked_before_mutation():
    g = builders.path(4)  # max degree 2, default alpha = 1/3
    st = init(g, Criterion.ranking(1e-6), undirected=True)
    run(st, g)
    arcs_before = set(builders.arcs(g))
    batch = EdgeBatch(insertions=[(1, 3), (3, 1)], deletions=[])
    with pytest.raises(ParameterError):
        update_batch(st, g, batch)
    assert set(builders.arcs(g)) == arcs_before
    assert check_converged(st)


def test_undirected_state_rejects_asymmetric_batch():
    g = builders.cycle(6)
    st = init(g, Criterion.ranking(1e-6), alpha=0.2, undirected=True)
    run(st, g)
    with pytest.raises(ParameterError):
        update_batch(st, g, EdgeBatch(insertions=[(0, 3)], deletions=[]))


def test_update_requires_matching_graph_version():
    g = builders.cycle(6)
    st = init(g, Criterion.ranking(1e-6), alpha=0.2, undirected=True)
    run(st, g)
    g.apply_batch(EdgeBatch(insertions=[(0, 3), (3, 0)]))
    with pytest.raises(StateError):
        update_batch(st, g, EdgeBatch(insertions=[], deletions=[]))


def test_update_validates_batch_against_graph():
    g = builders.cycle(6)
    st = init(g, Criterion.ranking(1e-6), alpha=0.2, undirected=True)
    run(st, g)
    missing = EdgeBatch(insertions=[], deletions=[(0, 3), (3, 0)])
    with pytest.raises(Exception):
        update_batch(st, g, missing)


def test_update_validates_each_batch_once(monkeypatch):
    g = builders.cycle(12)
    st = init(g, Criterion.ranking(1e-6), alpha=0.2, undirected=True)
    run(st, g)
    calls = []
    validate = Graph.validate_batch

    def counting(self, batch):
        calls.append(batch)
        return validate(self, batch)

    monkeypatch.setattr(Graph, "validate_batch", counting)
    batch = EdgeBatch(insertions=[(0, 6), (6, 0)], deletions=[(0, 1), (1, 0)])
    update_batch(st, g, batch)
    assert calls == [batch]
    assert_state_matches(st, fresh_to_depth(g, st))


def test_update_searches_each_nonempty_side_once(monkeypatch):
    """Validation's arc search also gives the splice its positions, and
    an empty side is not searched."""
    g = builders.cycle(12)
    st = init(g, Criterion.ranking(1e-6), alpha=0.2, undirected=True)
    run(st, g)
    calls = []
    find = Graph._find

    def counting(self, u, v):
        calls.append(len(u))
        return find(self, u, v)

    monkeypatch.setattr(Graph, "_find", counting)
    chord, side = [(0, 6), (6, 0)], [(0, 1), (1, 0)]
    for batch, searched in ((EdgeBatch(insertions=chord), [2]),
                            (EdgeBatch(deletions=side), [2]),
                            (EdgeBatch(insertions=side, deletions=chord), [2, 2]),
                            (EdgeBatch(), [])):
        calls.clear()
        update_batch(st, g, batch)
        assert calls == searched
        assert_state_matches(st, fresh_to_depth(g, st))
    calls.clear()
    g.apply_batch(EdgeBatch(insertions=chord))
    assert calls == [2]


def test_update_counts_post_batch_degrees_once(monkeypatch):
    """Validation derives the post-batch maximum out-degree from the
    batch's source rows and returns it; the update asks for no per-node
    degrees."""
    g = builders.cycle(12)
    st = init(g, Criterion.ranking(1e-6), alpha=0.2, undirected=True)
    run(st, g)
    maxima = []
    validate = Graph.validate_batch

    def recording(self, batch):
        maxima.append(validate(self, batch))
        return maxima[-1]

    monkeypatch.setattr(Graph, "validate_batch", recording)
    monkeypatch.setattr(Graph, "out_degrees", None)  # a call would fail
    batch = EdgeBatch(insertions=[(0, 6), (6, 0)], deletions=[(0, 1), (1, 0)])
    # node 6 alone has degree 3; taking its chord away leaves no row at
    # the maximum, which validation then finds among all rows
    back = EdgeBatch(insertions=[(0, 1), (1, 0)], deletions=[(0, 6), (6, 0)])
    for step, top in ((batch, 3), (back, 2), (batch, 3)):
        update_batch(st, g, step)
        assert maxima[-1] == g.max_out_degree() == top
        assert st.gamma == tail_gamma(0.2, top)
    assert len(maxima) == 3
    monkeypatch.undo()
    assert_state_matches(st, fresh_to_depth(g, st))


def test_undirected_update_asks_the_batch_symmetry_once(monkeypatch):
    """The batch keeps its symmetry, so the mode check's answer also keeps
    the graph's known symmetry, and the batch's sources come from
    validation."""
    g = builders.cycle(12)
    st = init(g, Criterion.ranking(1e-6), alpha=0.2, undirected=True)
    run(st, g)
    calls, sources = [], []
    closed = graph._closed_under_reversal
    recompute = dynamic._recompute_levels

    def counting(arcs):
        calls.append(len(arcs))
        return closed(arcs)

    def recording(state, g, rows, *args):
        sources.append(rows.tolist())
        return recompute(state, g, rows, *args)

    monkeypatch.setattr(graph, "_closed_under_reversal", counting)
    monkeypatch.setattr(dynamic, "_recompute_levels", recording)
    chord, side = [(0, 6), (6, 0)], [(0, 1), (1, 0)]
    for batch, rows in ((EdgeBatch(insertions=chord), [0, 6]),
                        (EdgeBatch(deletions=side), [0, 1]),
                        (EdgeBatch(insertions=side, deletions=chord), [0, 1, 6]),
                        (EdgeBatch(), [])):
        calls.clear()
        update_batch(st, g, batch)
        # one computation: insertions, then deletions
        want = [len(batch.ins), len(batch.dels)]
        assert calls == want and sources[-1] == rows
        assert g.is_symmetric() and calls == want  # known, kept
        assert_state_matches(st, fresh_to_depth(g, st))


def test_undirected_update_keeps_the_symmetry_cache(monkeypatch):
    """A symmetric batch leaves a symmetric graph known to be symmetric,
    so the fresh run of `dynamic --verify` transposes nothing."""
    g = builders.grid(8, 8)
    st = init(g, Criterion.top_k(3, 1e-6), alpha=0.1, undirected=True)
    run(st, g)
    transposed = []
    transpose = sparse.csr_matrix.transpose

    def counting(self, *args, **kwargs):
        transposed.append(self.shape)
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csr_matrix, "transpose", counting)
    update_batch(st, g, EdgeBatch(insertions=[(0, 9), (9, 0)],
                                  deletions=[(0, 1), (1, 0)]))
    assert g.is_symmetric()
    assert_state_matches(st, fresh_to_depth(g, st))
    assert transposed == []


def refresh_calls(monkeypatch) -> list:
    """Records the rows each refresh_bounds call is given, and checks that
    bounds refreshed on rows equal a whole refresh bitwise."""
    calls, refresh = [], KatzState.refresh_bounds

    def checking(self, rows=None):
        calls.append(rows)
        refresh(self, rows)
        lower, upper = self.lower.copy(), self.upper.copy()
        refresh(self)
        np.testing.assert_array_equal(lower, self.lower)
        np.testing.assert_array_equal(upper, self.upper)

    monkeypatch.setattr(KatzState, "refresh_bounds", checking)
    return calls


def test_ball_refresh_equals_whole_refresh(monkeypatch):
    """After every batch of a 64x64 grid top-25 stream, whose levels all
    stay local, bounds refreshed on the ball's rows equal a whole
    refresh_bounds bitwise. A batch that raises the maximum degree, which
    changes gamma (and q), and its undo refresh every row."""
    g = builders.grid(64, 64)
    st = init(g, Criterion.top_k(25, 1e-6), alpha=0.1, undirected=True)
    run(st, g)
    calls = refresh_calls(monkeypatch)
    edges = [(u, v) for u, v in builders.arcs(g) if u < v]
    node = 20 * 64 + 20  # every arc of one degree-4 node
    star = [(node, v) for v in (node - 64, node - 1, node + 1, node + 64)]
    chord = [(40 * 64 + 40, 40 * 64 + 42)]  # lifts two rows to degree 5
    stream = [side for e in random.Random(4).sample(edges, 4)
              for side in (([], [e]), ([e], []))]
    stream += [([], star), (chord, []), ([], chord), (star, [])]
    for ins, dels in stream:
        gamma = st.gamma
        calls.clear()
        update_batch(st, g, EdgeBatch(*([a for u, v in arcs
                                         for a in ((u, v), (v, u))]
                                        for arcs in (ins, dels))))
        assert st.last_update_stats.aborted_level is None
        assert (calls[0] is None) == (st.gamma != gamma) == (chord in (ins, dels))
        assert_state_matches(st, fresh_to_depth(g, st))


def test_refresh_takes_every_row_when_q_changes(monkeypatch):
    """A local batch that changes q = max(levels[2]) but not gamma still
    moves the two-step tail of every node, far outside the ball."""
    # a 300-node path with a two-edge arm at node 100 and a leaf at node
    # 200; the arm's far edge gives node 100 the most 2-walks, 6
    edges = [(i, i + 1) for i in range(299)] + [(100, 300), (300, 301),
                                                 (200, 302)]
    g = Graph.from_edges(303, edges, undirected=True)
    st = init(g, Criterion.top_k(3, 1e-6), alpha=0.1, undirected=True)
    run(st, g)
    q, gamma, upper = st.q, st.gamma, st.upper.copy()
    calls = refresh_calls(monkeypatch)
    update_batch(st, g, EdgeBatch(deletions=[(300, 301), (301, 300)]))
    stats = st.last_update_stats
    assert stats.aborted_level is None and stats.resumed_iterations == 0
    assert stats.visited < 20 and calls[0].size < 20  # the ball's rows
    assert st.gamma == gamma and st.q != q
    assert st.upper[0] != upper[0]  # node 0 lies 100 steps away
    assert_state_matches(st, fresh_to_depth(g, st))


@pytest.mark.parametrize("batch, error", [
    (EdgeBatch(deletions=[(0, 6), (6, 0)]), BatchPreconditionError),
    (EdgeBatch(insertions=[(0, 1), (1, 0)]), BatchPreconditionError),
    (EdgeBatch(insertions=[(0, 12), (12, 0)]), NodeRangeError),
    (EdgeBatch(insertions=[(0, 6)]), ParameterError),
    (EdgeBatch(insertions=[(0, v) for v in range(3, 10)]
               + [(v, 0) for v in range(3, 10)]), ParameterError),
])
def test_rejected_batch_leaves_graph_and_state_untouched(batch, error):
    g = builders.cycle(12)
    st = init(g, Criterion.top_k(3, 1e-6), alpha=0.2, undirected=True)
    run(st, g)
    version, arcs = g.version, builders.arcs(g)
    A = g.out_csr()
    saved = {name: np.copy(getattr(st, name))
             for name in ("katz", "lower", "upper", "active")}
    levels = [lvl.copy() for lvl in st.levels]
    depth, cap, stats = st.r, st.max_iterations, st.last_update_stats
    with pytest.raises(error):
        update_batch(st, g, batch)
    assert g.version == st.graph_version == version
    assert builders.arcs(g) == arcs and g.out_csr() is A
    for name, value in saved.items():
        np.testing.assert_array_equal(getattr(st, name), value)
    assert len(st.levels) == len(levels)
    for mine, orig in zip(st.levels, levels):
        np.testing.assert_array_equal(mine, orig)
    assert (st.r, st.max_iterations) == (depth, cap)
    assert st.last_update_stats is stats


# ---- reactivation ----

def test_topk_reactivates_displaced_nodes():
    # two stars: hub 0 on ten leaves leads hub 20 on six, so the top-1
    # check drops hub 20; deleting eight of hub 0's edges puts it ahead
    edges = [(0, i) for i in range(1, 11)] + [(20, i) for i in range(21, 27)]
    g = Graph.from_edges(27, edges, undirected=True)
    st = init(g, Criterion.top_k(1, 1e-6), alpha=0.05, undirected=True)
    run(st, g)
    assert st.active.tolist() == [0]
    dels = [(0, leaf) for leaf in range(3, 11)]
    dels += [(v, u) for u, v in dels]
    update_batch(st, g, EdgeBatch(deletions=dels))
    assert st.last_update_stats.reactivated == 1
    # the certified top 1 is the active prefix: without hub 20 brought
    # back it would still be [0]
    assert st.active.tolist() == [20]
    fresh = init(g, Criterion.top_k(1, 1e-6), alpha=0.05, undirected=True)
    assert run(fresh, g).top(1) == ranking_result(st).top(1) == [20]


def test_empty_batch_reactivates_nothing():
    # the old rule, upper >= min(lower[active]) - eps, brought back 1,127
    # nodes here although no bound moved
    g = builders.grid(64, 64)
    st = init(g, Criterion.top_k(25, 1e-6), undirected=True)
    run(st, g)
    active = st.active.copy()
    before = [a.copy() for a in (*st.levels, st.katz, st.lower, st.upper)]
    version, csr = g.version, g.out_csr()
    update_batch(st, g, EdgeBatch())
    stats = st.last_update_stats
    assert stats.reactivated == 0
    np.testing.assert_array_equal(st.active, active)
    # nor does anything else change: no version bump, no new matrix, no
    # level recomputed
    assert g.version == st.graph_version == version
    assert g.out_csr() is csr
    after = (*st.levels, st.katz, st.lower, st.upper)
    assert len(after) == len(before)
    for x, y in zip(after, before):
        assert x.tobytes() == y.tobytes()
    assert stats.level_sizes == []
    assert stats.matvecs == stats.pushed_arcs == 0


def test_resumed_iterations_counted():
    g = builders.grid(6, 6)
    st = init(g, Criterion.score(1e-8), alpha=0.1, undirected=True)
    run(st, g)
    update_batch(st, g, EdgeBatch(insertions=[(0, 14), (14, 0)],
                                  deletions=[]))
    stats = st.last_update_stats
    assert stats.resumed_iterations >= 0
    assert check_converged(st)


def test_update_cap_raises_with_stats():
    g = builders.complete(5)
    st = init(g, Criterion.score(1e-10), alpha=0.2, undirected=True)
    run(st, g)
    tiny = init(g, Criterion.score(1e-14), alpha=0.2, undirected=True,
                max_iterations=st.r + 1)
    run_ok = False
    try:
        run(tiny, g)
        run_ok = True
    except ConvergenceError:
        pass
    if run_ok:
        # force resumption work with a deletion, but leave no headroom
        tiny.max_iterations = tiny.r
        with pytest.raises(ConvergenceError):
            update_batch(tiny, g, EdgeBatch(insertions=[],
                                            deletions=[(0, 1), (1, 0)]))


def test_failed_resume_leaves_documented_state():
    g = builders.path(12)
    st = init(g, Criterion.score(1e-9), alpha=0.3, undirected=True,
              max_iterations=1000)
    run(st, g)
    depth = st.r
    st.max_iterations = depth + 2  # headroom for two resumed iterations
    before = g.version
    # max degree 2 -> 3 raises the tail factor from 5 to 30
    batch = EdgeBatch(insertions=[(0, 5), (5, 0)])
    with pytest.raises(ConvergenceError) as update_exc:
        update_batch(st, g, batch)
    assert g.has_arc(0, 5) and g.has_arc(5, 0)
    assert g.version == before + 1
    assert st.graph_version == g.version
    stats = st.last_update_stats
    assert stats is not None
    assert stats.visited == 2  # the endpoints 0 and 5
    assert stats.resumed_iterations == st.r - depth == 2
    assert update_exc.value.iterations == st.r
    # run and update_batch stop at the cap with one message
    capped = init(g, st.criterion, alpha=0.3, undirected=True,
                  max_iterations=st.r)
    with pytest.raises(ConvergenceError) as run_exc:
        run(capped, g)
    assert str(run_exc.value) == str(update_exc.value)
    assert str(run_exc.value).startswith(
        f"stopping rule still unmet after {st.r} iterations ")
    assert_state_matches(st, fresh_to_depth(g, st))
    st.max_iterations = 1000
    run(st, g)
    assert check_converged(st)
    assert_state_matches(st, fresh_to_depth(g, st))


def test_derived_cap_follows_post_batch_degree():
    batch = EdgeBatch(insertions=[(0, 5), (5, 0)])
    g = builders.path(12)
    st = init(g, Criterion.score(1e-9), alpha=0.3, undirected=True)
    run(st, g)
    assert st.max_iterations == default_iteration_cap(0.3, 2, 1e-9)
    update_batch(st, g, batch)
    assert st.max_iterations == default_iteration_cap(0.3, 3, 1e-9)
    g = builders.path(12)
    st = init(g, Criterion.score(1e-9), alpha=0.3, undirected=True,
              max_iterations=700)
    run(st, g)
    update_batch(st, g, batch)
    assert st.max_iterations == 700


# ---- work counters and push kernels ----

def test_full_recompute_pushes_no_arcs(monkeypatch):
    monkeypatch.setattr(dynamic, "LARGE_FRONTIER_SHARE", 0.0)
    g = builders.grid(6, 6)
    st = init(g, Criterion.score(1e-8), alpha=0.1, undirected=True)
    run(st, g)
    depth = st.r
    update_batch(st, g, EdgeBatch(insertions=[(0, 14), (14, 0)]))
    stats = st.last_update_stats
    assert stats.pushed_arcs == 0
    # level 1 is alpha * d_out: no product
    assert stats.matvecs == depth - 1 + stats.resumed_iterations


def test_local_update_on_path_costs_no_level_matvec():
    g = builders.path(2000)
    st = init(g, Criterion.score(1e-8), alpha=0.3, undirected=True)
    run(st, g)
    update_batch(st, g, EdgeBatch(insertions=[(0, 1000), (1000, 0)]))
    stats = st.last_update_stats
    assert stats.aborted_level is None
    assert stats.resumed_iterations > 0
    assert stats.matvecs == stats.resumed_iterations
    assert stats.pushed_arcs > 0
    assert_state_matches(st, fresh_to_depth(g, st))


def hub_graph(directed: bool) -> Graph:
    """Hub 0 on 30 spokes plus a separate path on 31..40. Directed, the
    spokes point at the hub, the hub at node 1, and the path runs one way
    round a cycle."""
    path = [(i, i + 1) for i in range(31, 40)]
    if directed:
        return Graph.from_edges(
            41, [(i, 0) for i in range(1, 31)] + [(0, 1), (40, 31)] + path)
    return Graph.from_edges(41, [(0, i) for i in range(1, 31)] + path,
                            undirected=True)


def reverse_bfs_balls(g: Graph, batch: EdgeBatch, depth: int) -> list[set]:
    """B_0..B_{depth-1}, the nodes within i reverse steps of the sources
    of the batch's arcs, by a plain breadth-first search on g."""
    ball = {u for u, _ in batch.insertions + batch.deletions}
    balls = []
    for _ in range(depth):
        balls.append(ball)
        ball = ball | {w for u in ball for w in builders.row(g.in_csr(), u)}
    return balls


def level_cases(directed: bool):
    """(graph maker, batch, alpha): the hub graph, then an 8x8 grid or a
    directed rmat 2^10 graph. A maker, since the update mutates g."""
    arcs = [(0, 35)] if directed else [(0, 35), (35, 0)]
    yield partial(hub_graph, directed), EdgeBatch(insertions=arcs), 0.02
    if directed:
        make = partial(bitwise_graph, "rmat-directed", 2**10)
        yield make, EdgeBatch(deletions=builders.arcs(make())[:1]), None
    else:
        batch = EdgeBatch(insertions=[(0, 2), (2, 0)])
        yield partial(builders.grid, 8, 8), batch, None


def check_local_levels(make, batch: EdgeBatch, alpha, directed: bool):
    """Update at the default arc share and check the route it took: the
    local levels 1..s used the reverse-BFS balls B_0..B_{s-1}, level s+1
    on are whole products, the copied rows are B_{s-1}'s, and the state
    is bitwise fresh. Returns s, the depth and the arcs of B_0..B_s."""
    g = make()
    st = init(g, Criterion.score(1e-10), alpha=alpha, undirected=not directed)
    run(st, g)
    depth = st.r
    update_batch(st, g, batch)
    stats = st.last_update_stats
    s = len(stats.level_sizes)
    balls = reverse_bfs_balls(make(), batch, s + 1)
    assert stats.level_sizes == [len(ball) for ball in balls[:s]]
    assert stats.aborted_level == (None if s == depth else s + 1)
    assert stats.matvecs == depth - max(s, 1) + stats.resumed_iterations
    degree = g.out_degrees()
    arcs = [sum(degree[v] for v in ball) for ball in balls]
    assert stats.pushed_arcs == (arcs[s - 1] * s if s else 0)
    assert_state_matches(st, fresh_to_depth(g, st))
    return s, depth, arcs


@pytest.mark.parametrize("directed", [False, True])
def test_large_frontier_levels_match_fresh(directed):
    g = hub_graph(directed)
    # the hub's 30 in-arcs are over a quarter of all arcs: a directed
    # update recomputes only B_0 = {hub} locally
    assert len(builders.row(g.in_csr(), 0)) > g.arc_count / 4
    routes = [check_local_levels(make, batch, alpha, directed)[0]
              for make, batch, alpha in level_cases(directed)]
    if directed:
        assert routes[0] == 1


def test_ball_past_the_arc_share_is_recomputed_whole():
    """On an 8x8 grid the ball passes the arc share before level r:
    levels 1..s multiply the rows of B_{s-1}, more rows than can change
    at the early levels, and the later levels are whole products; the
    state is still bitwise fresh."""
    make = partial(builders.grid, 8, 8)
    s, depth, arcs = check_local_levels(
        make, EdgeBatch(insertions=[(0, 2), (2, 0)]), None, False)
    assert 0 < s < depth
    share = dynamic.LARGE_FRONTIER_SHARE * make().arc_count
    assert arcs[s - 1] <= share < arcs[s]


# ---- batch files ----

def test_load_batches_parses_groups():
    text = "+ 0 1\n- 2 3\n\n+ 4 5\n"
    batches = load_batches(io.StringIO(text))
    assert len(batches) == 2
    assert batches[0].insertions == [(0, 1)]
    assert batches[0].deletions == [(2, 3)]
    assert batches[1].insertions == [(4, 5)]


def test_load_batches_empty_input():
    assert load_batches(io.StringIO("")) == []
    assert load_batches(io.StringIO("\n\n")) == []


def test_load_batches_errors_carry_line():
    with pytest.raises(ParseError) as exc:
        load_batches(io.StringIO("+ 0 1\n* 2 3\n"))
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        load_batches(io.StringIO("+ 0\n"))
    with pytest.raises(ParseError):
        load_batches(io.StringIO("- 0 -1\n"))
    with pytest.raises(ParseError) as exc:
        load_batches(io.BytesIO(b"+ 0 1\n\n- 1 \xff\n"))
    assert exc.value.line == 3
    with pytest.raises(NodeRangeError) as exc:
        load_batches(io.StringIO("+ 0 1\n\n- 2147483648 0\n"))
    assert str(exc.value).startswith("line 3: node id 2147483648 overflows")
    with pytest.raises(NodeRangeError):
        load_batches(io.StringIO("+ 0 99999999999999999999\n"))
    # ids read as the edge-list parser reads them, which takes these too
    batch, = load_batches(io.StringIO("+ +1 2\n- 1_0 3\n"))
    assert batch.insertions == [(1, 2)] and batch.deletions == [(10, 3)]
    for ids in ("0 x", "0 -1", "0 2147483648"):
        with pytest.raises((ParseError, NodeRangeError)) as edge_list:
            load_edge_list(io.StringIO(f"1 2\n\n{ids}\n"))
        with pytest.raises(edge_list.type) as batches:
            load_batches(io.StringIO(f"+ 1 2\n\n- {ids}\n"))
        assert str(batches.value) == str(edge_list.value)


def test_load_batches_from_path(tmp_path):
    p = tmp_path / "b.txt"
    p.write_text("+ 1 2\n\n- 1 2\n")
    batches = load_batches(p)
    assert len(batches) == 2
    assert batches[1].deletions == [(1, 2)]


def dir_entry(path):
    return next(e for e in os.scandir(path.parent) if e.name == path.name)


@pytest.mark.parametrize("as_path", [str, os.fsencode, Path, dir_entry],
                         ids=["str", "bytes", "Path", "DirEntry"])
def test_both_loaders_take_every_path_type(tmp_path, as_path):
    edges, batches = tmp_path / "g.txt", tmp_path / "b.txt"
    edges.write_text("NODES 3\n0 2\n")
    batches.write_text("+ 1 2\n\n- 1 2\n")
    assert load_edge_list(as_path(edges)).has_arc(0, 2)
    assert [b.deletions for b in load_batches(as_path(batches))] == \
        [[], [(1, 2)]]


# ---- level 1 and the zero block ----

@pytest.mark.parametrize("model", ["complete", "star", "path", "grid", "rmat"])
@pytest.mark.parametrize("undirected", [True, False])
def test_level_one_is_the_product_with_ones(model, undirected, monkeypatch):
    # The matrix holds ones, so a row's product with all ones sums its d
    # ones to d exactly: level 1, taken as alpha * d_out, is bitwise the
    # product's, before and after batches that change degrees, in a fresh
    # run and in an update that recomputes every level whole.
    n = 64 if model == "complete" else 1024
    edges = generate(model, n, seed=5)
    if not undirected:
        flip = np.random.default_rng(5).random(len(edges)) < 0.5
        edges = np.where(flip[:, None], edges[:, ::-1], edges)
    g = Graph.from_edges(n, edges, undirected=undirected)
    st = init(g, Criterion.score(1e-6), alpha=0.5 / n, undirected=undirected)
    run(st, g)
    monkeypatch.setattr(dynamic, "LARGE_FRONTIER_SHARE", 0.0)
    rng = random.Random(5)
    for _ in range(4):
        product = g.out_csr() @ np.ones(n)
        np.testing.assert_array_equal(st.levels[1], product * st.alpha)
        fresh = fresh_to_depth(g, st)
        np.testing.assert_array_equal(fresh.levels[1], product * st.alpha)
        degrees = g.out_degrees()
        update_batch(st, g, builders.random_batch(g, rng, max_ops=20,
                                                  undirected=undirected))
        assert st.last_update_stats.aborted_level == 1
        assert not np.array_equal(g.out_degrees(), degrees)


@pytest.mark.parametrize("undirected", [False, True])
def test_ranking_session_moves_nodes_across_the_zero_block(undirected):
    # Node u loses its only out-arc and joins the zero block; node w, which
    # had none, gains one and leaves it; then both are undone in one
    # batch. After each batch the state is bitwise a fresh run's to the
    # same depth, `active` included: the nodes with out-arcs in the order
    # of the converged check.
    g = builders.er_graph(40, 0.06, seed=8, undirected=undirected)
    degrees = g.out_degrees()
    u = next(u for u in np.flatnonzero(degrees == 1).tolist()
             if degrees[builders.row(g.out_csr(), u)[0]] > 1)
    v = builders.row(g.out_csr(), u)[0]
    w = int(np.flatnonzero(degrees == 0)[0])
    x = next(x for x in np.flatnonzero(degrees == 1).tolist() if x != u)
    def both(arcs):
        return arcs + [(b, a) for a, b in arcs] if undirected else arcs

    zeros = set(np.flatnonzero(degrees == 0).tolist())
    st = init(g, Criterion.ranking(1e-9), undirected=undirected)
    run(st, g)
    for batch, block in ((EdgeBatch(deletions=both([(u, v)])), zeros | {u}),
                         (EdgeBatch(insertions=both([(w, x)])),
                          zeros - {w} | {u}),
                         (EdgeBatch(insertions=both([(u, v)]),
                                    deletions=both([(w, x)])), zeros)):
        update_batch(st, g, batch)
        assert set(np.flatnonzero(st.lower == 0).tolist()) == block
        assert not np.any(st.upper[sorted(block)])
        fresh = fresh_to_depth(g, st)
        assert_state_matches(st, fresh)
        assert check_converged(fresh)
        np.testing.assert_array_equal(st.active, fresh.active)
        positive = np.flatnonzero(st.lower)
        np.testing.assert_array_equal(st.active, positive[np.argsort(
            -st.lower[positive], kind="stable")])
        np.testing.assert_array_equal(ranking_result(st).order,
                                      ranking_result(fresh).order)


def test_topk_below_k_positive_nodes_takes_in_every_new_one():
    # Top 3 of a directed star: only hub 0 has out-arcs (p = 1 < k), and
    # level 1 certifies it. Node 2 gains an out-arc; below k active nodes
    # every node with out-arcs is in play, so node 2 joins `active`, and
    # its interval at level 1, [1/6, 1], overlaps the hub's lower bound
    # 5/6: the update iterates to level 2, as a fresh run does.
    g = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
    st = init(g, Criterion.top_k(3))
    run(st, g)
    assert (st.r, st.active.tolist()) == (1, [0])
    update_batch(st, g, EdgeBatch(insertions=[(2, 3)]))
    assert st.last_update_stats.reactivated == 1
    assert (st.r, st.active.tolist()) == (2, [0, 2])
    fresh = init(g, Criterion.top_k(3))
    assert run(fresh, g).iterations_used == 2
    assert fresh.active.tolist() == [0, 2]
    assert ranking_result(st).top(3) == ranking_result(fresh).top(3)
    assert ranking_result(st).top(3) == [0, 2, 1]
    # Without its arc node 2 rejoins the zero block and leaves `active`.
    update_batch(st, g, EdgeBatch(deletions=[(2, 3)]))
    assert st.active.tolist() == [0]
    assert ranking_result(st).top(3) == [0, 1, 2]

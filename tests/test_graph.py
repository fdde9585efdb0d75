"""Graph container, edge-list parsing, batch validation."""
from __future__ import annotations

import io
import random
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from katzbounds import (BatchPreconditionError, EdgeBatch, Graph,
                        NodeRangeError, ParameterError, ParseError,
                        dumps_edge_list, load_edge_list)
from katzbounds import graph

import builders


def test_from_edges_directed():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 1)])
    assert g.node_count == 3
    assert g.arc_count == 2
    assert g.has_arc(0, 1)
    assert not g.has_arc(1, 0)
    assert builders.row(g.out_csr(), 0) == [1]
    assert builders.row(g.in_csr(), 2) == [1]
    # unsigned ids give the same matrix
    pairs = np.array([[0, 1], [1, 2], [0, 1]], dtype=np.uint64)
    assert_same_matrix(g, Graph.from_edges(3, pairs))


def test_from_edges_undirected_mirrors():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], undirected=True)
    assert g.arc_count == 4
    assert g.has_arc(1, 0) and g.has_arc(2, 1)
    assert g.is_symmetric()


def test_degrees_and_max():
    g = builders.star(5)
    assert g.out_degrees()[0] == 4
    assert g.out_degrees()[3] == 1
    assert g.max_out_degree() == 4
    assert list(g.out_degrees()) == [4, 1, 1, 1, 1]


def test_max_degree_tracks_removals():
    g = builders.star(5)
    g.apply_batch(EdgeBatch(deletions=[(0, 1), (1, 0)]))
    assert g.max_out_degree() == 3
    g.apply_batch(EdgeBatch(
        deletions=[(0, 2), (2, 0), (0, 3), (3, 0), (0, 4), (4, 0)]))
    assert g.max_out_degree() == 0
    assert g.arc_count == 0


def test_insert_updates_structures():
    g = Graph.from_edges(4, [])
    g.apply_batch(EdgeBatch(insertions=[(0, 1), (2, 3)]))
    assert g.arc_count == 2
    assert g.max_out_degree() == 1
    v0 = g.version
    g.apply_batch(EdgeBatch(insertions=[(0, 2)]))
    assert g.version > v0
    assert g.max_out_degree() == 2


def test_csr_matches_adjacency():
    rng = random.Random(11)
    g = builders.er_graph(40, 0.15, seed=7, undirected=False)
    A = g.out_csr()
    dense = A.toarray()
    for u in range(40):
        for v in range(40):
            assert bool(dense[u, v]) == g.has_arc(u, v)
    # cache is per version
    assert g.out_csr() is A
    g.apply_batch(EdgeBatch(
        insertions=[(0, 1)] if not g.has_arc(0, 1) else [(1, 0)]
        if not g.has_arc(1, 0) else [(2, 0)]))
    assert g.out_csr() is not A


def test_csr_row_order_is_sorted():
    g = Graph.from_edges(4, [(0, 3), (0, 1), (0, 2)])
    A = g.out_csr()
    row = A.indices[A.indptr[0]:A.indptr[1]]
    assert list(row) == [1, 2, 3]


def test_lookups_on_a_graph_without_arcs():
    for g in (Graph(3), Graph.from_edges(3, [])):
        assert not g.has_arc(0, 2) and not g.has_arc(1, 1)
        assert g.arc_count == 0 and list(g.arcs()) == []
        g.validate_batch(EdgeBatch(insertions=[(0, 2), (2, 2)]))
        with pytest.raises(BatchPreconditionError) as exc:
            g.validate_batch(EdgeBatch(insertions=[(0, 1)],
                                       deletions=[(1, 0)]))
        assert str(exc.value) == "cannot delete arc (1, 0): not present"
        with pytest.raises(NodeRangeError):
            g.validate_batch(EdgeBatch(insertions=[(0, 3)]))
    with pytest.raises(NodeRangeError):
        Graph(0).has_arc(0, 0)


def test_node_range_checks():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(NodeRangeError):
        g.has_arc(0, 3)
    with pytest.raises(NodeRangeError):
        g.has_arc(-1, 0)
    with pytest.raises(NodeRangeError):
        Graph.from_edges(2, [(0, 5)])


# ---- batches ----

def test_batch_shape_rejects_duplicates():
    with pytest.raises(BatchPreconditionError):
        EdgeBatch(insertions=[(0, 1), (0, 1)], deletions=[]).validate_shape()
    with pytest.raises(BatchPreconditionError):
        EdgeBatch(insertions=[], deletions=[(2, 3), (2, 3)]).validate_shape()


def test_batch_shape_rejects_overlap():
    b = EdgeBatch(insertions=[(0, 1)], deletions=[(0, 1)])
    with pytest.raises(BatchPreconditionError) as exc:
        b.validate_shape()
    assert "(0, 1)" in str(exc.value)


def test_validate_batch_against_graph():
    g = Graph.from_edges(3, [(0, 1)])
    version = g.version
    for check in (g.validate_batch, g.apply_batch):
        with pytest.raises(BatchPreconditionError):
            check(EdgeBatch(insertions=[(0, 1)], deletions=[]))
        with pytest.raises(BatchPreconditionError):
            check(EdgeBatch(insertions=[], deletions=[(1, 2)]))
    assert g.version == version and list(g.arcs()) == [(0, 1)]
    g.validate_batch(EdgeBatch(insertions=[(1, 2)], deletions=[(0, 1)]))


def test_splice_takes_only_the_batch_validated_last():
    """The splice uses the positions validation found, so a batch other
    than the one validated last is validated first, and one already
    applied is refused."""
    g = builders.cycle(6)
    first, second = EdgeBatch(insertions=[(0, 3)]), EdgeBatch(insertions=[(1, 4)])
    g.validate_batch(first)
    g.validate_batch(second)
    with pytest.raises(ValueError):  # read-only: validations stay true
        second.ins[0, 1] = 2
    assert g.apply_batch(first).tolist() == [0]
    assert g.has_arc(0, 3) and not g.has_arc(1, 4)
    arcs, version = list(g.arcs()), g.version
    with pytest.raises(BatchPreconditionError):
        g.apply_batch(first)
    assert list(g.arcs()) == arcs and g.version == version
    g.apply_batch(second)
    assert g.has_arc(1, 4) and g.version == version + 1


def test_validation_is_reused_for_the_batch_validated_last(monkeypatch):
    """apply_batch and a second validate_batch of the batch validated last
    search no arcs; validating another batch, or a change, forgets it."""
    calls = []
    find = Graph._find

    def counting(self, u, v):
        calls.append(len(u))
        return find(self, u, v)

    monkeypatch.setattr(Graph, "_find", counting)
    g = builders.cycle(6)
    batch = EdgeBatch(insertions=[(0, 3)], deletions=[(0, 1)])
    other = EdgeBatch(insertions=[(1, 4)])
    assert g.validate_batch(batch) == 2 and calls == [1, 1]
    assert g.validate_batch(batch) == 2 and calls == [1, 1]
    g.validate_batch(other)
    assert calls == [1, 1, 1]
    g.validate_batch(batch)
    assert calls == [1, 1, 1, 1, 1]
    calls.clear()
    g.apply_batch(batch)
    assert calls == []
    g.validate_batch(other)  # the change forgot its earlier validation
    g.apply_batch(other)
    assert calls == [1]
    assert sorted(g.arcs()) == sorted(
        {(0, 3), (1, 4), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4),
         (4, 3), (4, 5), (5, 4), (5, 0), (0, 5)})


def test_apply_batch_and_revert():
    rng = random.Random(5)
    g = builders.er_graph(25, 0.2, seed=1, undirected=False)
    before = set(g.arcs())
    batch = builders.random_batch(g, rng, max_ops=6)
    g.apply_batch(batch)
    after = set(g.arcs())
    assert after == (before - set(batch.deletions)) | set(batch.insertions)
    # applying the inverse restores the original arc set
    g.apply_batch(EdgeBatch(insertions=batch.deletions,
                            deletions=batch.insertions))
    assert set(g.arcs()) == before


def assert_same_matrix(g: Graph, h: Graph) -> None:
    A, B = g.out_csr(), h.out_csr()
    for x, y in ((A.indptr, B.indptr), (A.indices, B.indices)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(A.data, B.data)
    assert g.max_out_degree() == h.max_out_degree()
    assert g.arc_count == h.arc_count


@pytest.mark.parametrize("seed, max_ops", [
    (1, 8), (2, 8), (3, 8), (1, 600), (2, 600), (3, 600)],
    ids=["1", "2", "3", "1-large", "2-large", "3-large"])
def test_spliced_csr_equals_fresh_build(seed, max_ops):
    # max_ops=8 splices by slices, 600 by np.delete/np.insert as well
    cutoff = graph.SPLICE_BY_SLICES
    rng = random.Random(seed)
    g = builders.er_graph(60, 0.3, seed=seed, undirected=False)
    # the arc set, kept apart from the graph under test
    arcs = set(map(tuple, np.argwhere(g.out_csr().toarray()).tolist()))
    sizes = []
    for _ in range(4):
        batch = builders.random_batch(g, rng, max_ops=max_ops)
        sizes.append(len(batch))
        g.apply_batch(batch)
        arcs = (arcs - set(batch.deletions)) | set(batch.insertions)
        assert_same_matrix(g, Graph.from_edges(60, sorted(arcs)))
    assert (max(sizes) > cutoff) == (max_ops > cutoff)
    # emptying the widest row lowers the max degree
    hub = int(np.argmax(g.out_degrees()))
    gone = [(hub, v) for v in range(60) if v != hub and (hub, v) in arcs]
    g.apply_batch(EdgeBatch(
        insertions=[(hub, hub)] if (hub, hub) not in arcs else [],
        deletions=gone))
    arcs = (arcs - set(gone)) | {(hub, hub)}
    assert_same_matrix(g, Graph.from_edges(60, sorted(arcs)))


def bookkeeping_batch(g: Graph, rng: random.Random, kind: int,
                      undirected: bool) -> EdgeBatch:
    """A batch of one kind: 0 random and mixed, 1 an arc off every row at
    the maximum out-degree, 2 the same but for one row, 3 arcs that lift
    the lowest row one above the maximum, 4 random with one side empty
    (both for the empty batch)."""
    n, deg = g.node_count, g.out_degrees()
    top, arcs = int(deg.max()), set(g.arcs())
    ins, dels = [], []
    if kind in (0, 4):
        batch = builders.random_batch(g, rng, max_ops=6, undirected=undirected)
        ins, dels = batch.insertions, batch.deletions
        side = rng.randrange(3)
        return EdgeBatch(ins if side != 1 else [], dels if side != 2 else []) \
            if kind == 4 else batch
    if kind in (1, 2):
        rows = np.flatnonzero(deg == top).tolist()
        for u in rows[:len(rows) - (kind == 2)]:
            v = rng.choice(builders.row(g.out_csr(), u))
            dels += [(u, v), (v, u)] if undirected else [(u, v)]
    else:
        u = int(np.argmin(deg))
        absent = [v for v in range(n) if v != u and (u, v) not in arcs]
        for v in rng.sample(absent, top + 1 - int(deg[u])):
            ins += [(u, v), (v, u)] if undirected else [(u, v)]
    return EdgeBatch(sorted(set(ins)), sorted(set(dels)))


@pytest.mark.parametrize("undirected", [False, True],
                         ids=["directed", "undirected"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_degree_bookkeeping_equals_fresh_build(seed, undirected):
    """Validation derives the new row pointer and maximum out-degree from
    the batch's source rows alone, with a count of the rows at the
    maximum; batches that empty every row at the maximum, that keep one,
    that lift a row past it, or that have an empty side, leave the arrays,
    the maximum and the arc count of a fresh build."""
    rng = random.Random(seed)
    g = builders.er_graph(40, 0.12, seed=seed, undirected=undirected)
    arcs, moves = set(g.arcs()), set()
    for step in range(30):
        batch = bookkeeping_batch(g, rng, step % 5, undirected)
        if step == 29:
            batch = EdgeBatch()
        top = g.max_out_degree()
        g.apply_batch(batch)
        arcs = (arcs - set(batch.deletions)) | set(batch.insertions)
        assert_same_matrix(g, Graph.from_edges(40, sorted(arcs)))
        moves.add(np.sign(g.max_out_degree() - top))
    assert moves == {-1, 0, 1}


def test_lattice_row_keeps_the_maximum():
    """Every interior row of a lattice is at the maximum, so losing one
    arc of one leaves it at 4 without a pass over all rows."""
    g = builders.grid(8, 8)
    for batch, top in ((EdgeBatch(deletions=[(9, 10)]), 4),
                       (EdgeBatch(deletions=[(10, 9)]), 4),
                       (EdgeBatch(insertions=[(9, 10), (10, 9)]), 4),
                       (EdgeBatch(insertions=[(9, 27)]), 5),
                       (EdgeBatch(deletions=[(9, 27)]), 4)):
        g.apply_batch(batch)
        assert g.max_out_degree() == top
        assert top == g.out_degrees().max()


@pytest.mark.parametrize("cutoff", [graph.SPLICE_BY_SLICES, 0],
                         ids=["slices", "delete-insert"])
def test_splice_at_shared_and_end_positions(cutoff, monkeypatch):
    monkeypatch.setattr(graph, "SPLICE_BY_SLICES", cutoff)
    # slots of `indices`: row 0 [1, 5] at 0-1, row 1 [2, 3, 5] at 2-4,
    # row 2 empty at 5, row 3 [0] at 5, row 4 [4] at 6, row 5 empty at 7
    arcs = {(0, 1), (0, 5), (1, 2), (1, 3), (1, 5), (3, 0), (4, 4)}
    g = Graph.from_edges(6, sorted(arcs))
    batch = EdgeBatch(
        # three at slot 1, in no order; (0, 0) at the slot of the deleted
        # (0, 1); two into empty row 2, at the slot of row 3's first
        # arc; one into empty row 5, at the end of the array; (1, 4) at
        # the slot of the deleted last arc of row 1
        insertions=[(0, 4), (0, 2), (0, 3), (0, 0), (2, 5), (2, 1), (5, 0),
                    (1, 4)],
        # the first arcs of rows 0 and 1, the last of row 1, and the
        # array's last arc
        deletions=[(1, 5), (0, 1), (1, 2), (4, 4)])
    for step in (batch, EdgeBatch(batch.deletions, batch.insertions)):
        g.apply_batch(step)
        arcs = (arcs - set(step.deletions)) | set(step.insertions)
        assert set(g.arcs()) == arcs
        assert_same_matrix(g, Graph.from_edges(6, sorted(arcs)))
        if step is batch:
            assert builders.row(g.out_csr(), 0) == [0, 2, 3, 4, 5]
            assert builders.row(g.out_csr(), 1) == [3, 4]
            assert g.out_csr().indptr.tolist() == [0, 5, 7, 9, 10, 10, 11]


def test_batch_symmetry_probe():
    assert EdgeBatch(insertions=[(0, 1), (1, 0)], deletions=[]).is_symmetric()
    assert not EdgeBatch(insertions=[(0, 1)], deletions=[]).is_symmetric()
    assert EdgeBatch(insertions=[], deletions=[]).is_symmetric()


# The set-based batch checks the array ones replaced, for comparison.

def first_duplicate_reference(arcs):
    seen = set()
    for a in arcs:
        if a in seen:
            return a
        seen.add(a)
    return arcs[0]


def validate_shape_reference(insertions, deletions):
    ins, dels = set(insertions), set(deletions)
    if len(ins) != len(insertions):
        dup = first_duplicate_reference(insertions)
        raise BatchPreconditionError(f"duplicate insertion of arc {dup}")
    if len(dels) != len(deletions):
        dup = first_duplicate_reference(deletions)
        raise BatchPreconditionError(f"duplicate deletion of arc {dup}")
    overlap = ins & dels
    if overlap:
        arc = min(overlap)
        raise BatchPreconditionError(
            f"arc {arc} appears in both insertions and deletions")


def is_symmetric_reference(insertions, deletions):
    ins, dels = set(insertions), set(deletions)
    return all((v, u) in ins for u, v in ins) and \
        all((v, u) in dels for u, v in dels)


def validate_batch_reference(g, insertions, deletions):
    validate_shape_reference(insertions, deletions)
    n, present_arcs = g.node_count, set(g.arcs())
    for arcs, present, verb, why in (
            (insertions, False, "insert", "already present"),
            (deletions, True, "delete", "not present")):
        for u, v in arcs:
            if 0 <= u < n and 0 <= v < n and ((u, v) in present_arcs) == present:
                continue
            for x in (u, v):
                if not 0 <= x < n:
                    raise NodeRangeError(f"node id {x} outside universe [0, {n})")
            raise BatchPreconditionError(f"cannot {verb} arc ({u}, {v}): {why}")
    # the maximum out-degree the batch leaves
    after = (present_arcs - set(deletions)) | set(insertions)
    return max(Counter(u for u, _ in after).values(), default=0)


def outcome(check, *args):
    try:
        return check(*args)
    except (BatchPreconditionError, NodeRangeError) as exc:
        return type(exc), str(exc)


def random_id(rng, n):
    if rng.random() < 0.05:
        return rng.choice([2**31 - 1, 2**31, -2**40])
    return rng.randint(-1, n)


def random_arcs(rng, n, k, present, symmetric):
    """k arcs over ids -1..n and a few far outside, drawn from the graph's
    arcs half the time; with symmetric, each arc also reversed (before a
    possible drop)."""
    arcs = []
    for _ in range(k):
        if present and rng.random() < 0.5:
            arcs.append(rng.choice(present))
        else:
            arcs.append((random_id(rng, n), random_id(rng, n)))
        if symmetric:
            arcs.append(arcs[-1][::-1])
    if arcs and rng.random() < 0.2:
        arcs.append(rng.choice(arcs))          # a duplicate
    if arcs and rng.random() < 0.2:
        arcs.pop(rng.randrange(len(arcs)))     # breaks the symmetry
    rng.shuffle(arcs)
    return arcs


@pytest.mark.parametrize("seed", range(6))
def test_batch_checks_match_set_references(seed):
    rng = random.Random(seed)
    n = 7
    g = builders.er_graph(n, 0.3, seed=seed, undirected=seed % 2 == 0)
    present = sorted(g.arcs())
    kinds = {"ok": 0, "error": 0, "symmetric": 0, "out of range": 0}
    for _ in range(400):
        symmetric = rng.random() < 0.5
        ins = random_arcs(rng, n, rng.randint(0, 4), [], symmetric)
        ins = [a for a in ins if a not in present or rng.random() < 0.1]
        dels = random_arcs(rng, n, rng.randint(0, 4), present, symmetric)
        if ins and rng.random() < 0.1:
            dels.append(rng.choice(ins))       # an overlap
        if any(not 0 <= x <= graph.MAX_NODE_ID for a in ins + dels for x in a):
            # no graph can hold the id: refused before any check
            with pytest.raises(NodeRangeError):
                EdgeBatch(insertions=ins, deletions=dels)
            kinds["out of range"] += 1
            continue
        batch = EdgeBatch(insertions=ins, deletions=dels)
        want = outcome(validate_shape_reference, ins, dels)
        assert outcome(batch.validate_shape) == want
        want = outcome(validate_batch_reference, g, ins, dels)
        assert outcome(g.validate_batch, batch) == want
        assert batch.is_symmetric() == is_symmetric_reference(ins, dels)
        kinds["error" if isinstance(want, tuple) else "ok"] += 1
        kinds["symmetric"] += batch.is_symmetric()
    assert min(kinds.values()) > 40, kinds


@pytest.mark.parametrize("arcs, ids", [
    ([(0, 1), (2, 3), (0, 1), (2, 3)], (0, 1)),
    ([(5, 5), (1, 2), (2, 1), (1, 2), (5, 5)], (1, 2)),
    ([(2**31 - 1, 4), (9, 9), (2**31 - 1, 4)], (2**31 - 1, 4)),
])
def test_first_repeat_in_list_order_is_named(arcs, ids):
    for batch, what in ((EdgeBatch(insertions=arcs), "insertion"),
                        (EdgeBatch(deletions=arcs), "deletion")):
        with pytest.raises(BatchPreconditionError) as exc:
            batch.validate_shape()
        assert str(exc.value) == f"duplicate {what} of arc {ids}"


@pytest.mark.parametrize("arcs, bad", [
    ([(-1, 4), (9, 9), (-1, 4)], -1),
    ([(0, 1), (3, 2**31)], 2**31),
    ([(5, 5), (-2**40, 2**31)], -2**40),
    ([(2**63, 1)], 2**63),
    ([(0, 1), (3, 2**70)], 2**70),
    ([(5, 5), (-2**40, 2**63)], -2**40),
])
def test_batch_refuses_ids_no_graph_can_hold(arcs, bad):
    for kwargs in ({"insertions": arcs}, {"deletions": arcs},
                   {"insertions": [(0, 1)], "deletions": arcs}):
        with pytest.raises(NodeRangeError) as exc:
            EdgeBatch(**kwargs)
        assert str(exc.value) == f"node id {bad} outside [0, 2147483647]"
    with pytest.raises(NodeRangeError):  # not an OverflowError past int64
        Graph.from_edges(5, arcs)


def test_batch_overlap_names_least_arc():
    b = EdgeBatch(insertions=[(3, 0), (1, 2), (0, 4)],
                  deletions=[(0, 4), (3, 0), (7, 7)])
    with pytest.raises(BatchPreconditionError) as exc:
        b.validate_shape()
    assert str(exc.value) == "arc (0, 4) appears in both insertions and deletions"


def test_edge_batch_keeps_list_behaviour():
    arcs = [(np.int64(2), 3), (np.int32(0), np.uint8(1))]
    b = EdgeBatch(insertions=arcs)
    arcs.append((4, 4))  # the batch holds its own copy
    assert b.insertions == [(2, 3), (0, 1)] and b.deletions == []
    assert all(type(x) is int for arc in b.insertions for x in arc)
    assert b.ins.dtype == b.dels.dtype == np.int64
    assert b.ins.shape == (2, 2) and b.dels.shape == (0, 2)
    assert not b.deletions and b.insertions
    assert len(b) == 2 and len(EdgeBatch()) == 0
    assert repr(b) == "EdgeBatch(insertions=[(2, 3), (0, 1)], deletions=[])"
    assert repr(EdgeBatch()) == "EdgeBatch(insertions=[], deletions=[])"
    same = EdgeBatch(np.array([[2, 3], [0, 1]], dtype=np.int32), [])
    assert b == same and not b != same
    assert b != EdgeBatch(insertions=[(0, 1), (2, 3)])
    assert b != EdgeBatch(deletions=[(2, 3), (0, 1)])
    assert b != [(2, 3), (0, 1)]
    with pytest.raises(TypeError):
        hash(b)


@pytest.mark.parametrize("arcs", [
    np.array([[0.7, 1.9]]),
    np.array([[0.5, 1.5], [2.0, 3.0]]),
    np.array([[0, 1, 2], [1, 2, 3]]),
    np.array([0, 1]),
    np.array([[True, False]]),
    [(0.7, 1.9)],
    [(0.5, 1.5)],
    [(0, 1, 2), (3, 4, 5)],
    [(0, 1, 2)],
    [(0, 1), (2,)],
    [0, 1],
    [(0, "1")],
], ids=["float", "float-pairs", "int-2x3", "int-flat", "bool",
        "list-float", "list-half", "list-triples", "list-triple",
        "list-single", "list-flat", "list-str"])
def test_arrays_other_than_integer_pairs_are_refused(arcs):
    # floats would be truncated, a (2, 3) array or triples read as three
    # pairs; lists and arrays are refused alike
    for build in (lambda: EdgeBatch(insertions=arcs),
                  lambda: EdgeBatch(deletions=arcs),
                  lambda: Graph.from_edges(4, arcs),
                  lambda: Graph.from_edges(4, arcs, undirected=True)):
        with pytest.raises(ParameterError):
            build()


# ---- edge-list format ----

def test_load_plain_lines():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.node_count == 3
    assert g.arc_count == 2


def test_load_with_header_and_comments():
    text = "# comment\n% another\nNODES 6\n\n0 1\n4 5\n"
    g = load_edge_list(io.StringIO(text))
    assert g.node_count == 6
    assert g.has_arc(4, 5)


def test_header_preserves_isolated_nodes():
    g = load_edge_list(io.StringIO("NODES 10\n0 1\n"))
    assert g.node_count == 10
    assert g.out_degrees()[9] == 0


def test_load_undirected_flag():
    g = load_edge_list(io.StringIO("0 1\n"), undirected=True)
    assert g.has_arc(1, 0)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.StringIO("0 1\nbogus line here\n"))
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_parse_rejects_negative_and_arity():
    with pytest.raises(ParseError):
        load_edge_list(io.StringIO("0 -1\n"))
    with pytest.raises(ParseError):
        load_edge_list(io.StringIO("0 1 2\n"))
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.StringIO("# c\nNODES 3 4\n0 1\n"))
    assert exc.value.line == 2


def test_header_count_too_small():
    with pytest.raises(NodeRangeError):
        load_edge_list(io.StringIO("NODES 2\n0 5\n"))


def test_roundtrip_through_dumps():
    g = builders.er_graph(12, 0.3, seed=9, undirected=False)
    text = dumps_edge_list(g.node_count, sorted(g.arcs()))
    g2 = load_edge_list(io.StringIO(text))
    assert g2.node_count == g.node_count
    assert set(g2.arcs()) == set(g.arcs())


def test_dumps_edge_list_text():
    pairs = [(0, 1), (2, 0), (10, 2)]
    text = "NODES 11\n0 1\n2 0\n10 2\n"
    assert dumps_edge_list(11, pairs) == text
    assert dumps_edge_list(11, iter(pairs)) == text
    assert dumps_edge_list(11, np.array(pairs)) == text
    assert dumps_edge_list(4, []) == "NODES 4\n"


def test_load_from_path(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("NODES 3\n0 2\n")
    g = load_edge_list(p)
    assert g.has_arc(0, 2)


def test_self_loops_are_kept():
    g = load_edge_list(io.StringIO("0 0\n0 1\n"))
    assert g.has_arc(0, 0)
    assert g.arc_count == 2


# ---- vectorized loader against the per-line parser ----

LOADER_CASES = {
    "header": "NODES 9\n0 1\n2 3\n",
    "lowercase_header_after_comments": "% head\n# c\n\nnodes 12\n11 3\n",
    "comments": "# c 1 2\n% x y\n0 1\n  # indented 7\n3 2\n% trailing",
    "blank_lines": "\n\n0 1\n\n  \n2 3\n\n",
    "tabs": "0\t1\n2 \t 3\r\n\t4\t5\t\n",
    "duplicates": "0 1\n0 1\n1 0\n0 1\n",
    "self_loops": "0 0\n1 1\n0 1\n",
    "no_trailing_newline": "0 1\n1 2",
    "leading_zeros": "007 0010\n",
    "mixed_widths": "12345 6\n7 890\n0000000001 1203\n",
    "non_ascii_comment": "# héllo\n0 1\n",
    "empty": "",
    "comments_only": "# nothing\n%\n",
    "crlf_tabs_blank_runs": "\r\n\n\t\n0\t1\r\n\r\n \t \r\n2 \t3\r\n\n\n",
    "comment_in_last_line": "0 1\n# 5 6",
}


@pytest.mark.parametrize("text", LOADER_CASES.values(),
                         ids=LOADER_CASES.keys())
@pytest.mark.parametrize("undirected", [False, True])
def test_vectorized_loader_matches_line_parser(text, undirected):
    data = text.encode("utf-8")
    fast = graph._tokenize(data)
    assert fast is not None
    slow = graph._parse_lines(io.BytesIO(data))
    assert fast[0] == slow[0]
    assert fast[2] == slow[2]
    np.testing.assert_array_equal(fast[1], slow[1])
    declared, pairs, _ = slow
    n = declared[0] if declared is not None \
        else int(pairs.max(initial=-1)) + 1
    expected = Graph.from_edges(n, [tuple(p) for p in pairs.tolist()],
                                undirected=undirected)
    for source in (io.BytesIO(data), io.StringIO(text)):
        g = load_edge_list(source, undirected=undirected)
        assert g.node_count == expected.node_count
        assert list(g.arcs()) == list(expected.arcs())


TOKENIZER_REJECTS = {
    "eleven_digits": "00000000001 2\n",
    "eleven_digit_id": "12345678901 2\n",
    "int64_overflow": "99999999999999999999 1\n",
    "two_to_the_31": "0 1\n2147483648 1\n",
    "one_id": "0 1\n5\n2 3\n",
    "three_ids": "0 1\n2 3 4\n",
    "four_ids": "0 1 2 3\n",
    "one_id_last_line": "0 1\n5",
    "pair_split_by_newline": "0\n1\n",
    "invalid_utf8_comment": "# \xff\n0 1\n",
    "invalid_utf8_comment_before_header": "# \xff\nNODES 5\n0 1\n",
    "id_then_comment": "0 1 # note\n",
}


@pytest.mark.parametrize("text", TOKENIZER_REJECTS.values(),
                         ids=TOKENIZER_REJECTS.keys())
def test_tokenizer_hands_odd_input_to_line_parser(text):
    # the fast path declines; whatever the line parser then does (accept,
    # or raise with a line number) is the loader's answer
    data = text.encode("latin-1")
    assert graph._tokenize(data) is None
    try:
        expected = graph._parse_lines(io.BytesIO(data))
    except (ParseError, NodeRangeError) as exc:
        with pytest.raises(type(exc)) as got:
            load_edge_list(io.BytesIO(data))
        assert str(got.value) == str(exc)
    else:
        g = load_edge_list(io.BytesIO(data))
        assert list(g.arcs()) == sorted(map(tuple, expected[1].tolist()))


def large_edge_list(count: int = 150_000) -> bytes:
    """Arc lines with CRLF and tab lines and comment lines among them,
    under a header; ids up to 2^31 - 1, so no graph is built from it."""
    lines = [f"{i} {i * 7919 % 2147483647}\n" for i in range(count)]
    for i in range(0, len(lines), 997):
        lines[i] = lines[i].replace("\n", "\r\n").replace(" ", "\t")
    for i in range(500, len(lines), 1409):
        lines[i] = "# comment line\n"
    lines[-1] = "0000000000 2147483647\n"  # ten digits, the largest id
    return ("NODES 2147483647\n" + "".join(lines) + "2147483646 7").encode()


def assert_tokenizer_matches_line_parser(data: bytes):
    fast = graph._tokenize(data)
    slow = graph._parse_lines(io.BytesIO(data))
    assert fast is not None
    assert fast[0] == slow[0] and fast[2] == slow[2]
    np.testing.assert_array_equal(fast[1], slow[1])
    assert fast[1].dtype == np.int32 and fast[1].shape == slow[1].shape


def test_tokenizer_splits_large_input_into_blocks():
    data = large_edge_list()
    assert len(data) > 2 * graph._BLOCK_BYTES
    assert_tokenizer_matches_line_parser(data)


@pytest.fixture(params=[(b, w) for b in (1, 40, 4096, None)
                        for w in (1, 2, 4)],
                ids=lambda p: f"{p[0] or 'default'}B-{p[1]}workers")
def blocks_and_workers(request, monkeypatch):
    """Blocks of one line, a few dozen bytes, a few KiB or the default
    size, parsed by 1, 2 or 4 workers: the small blocks end inside CRLF
    and blank-line runs, among comment lines and next to the header."""
    block_bytes, workers = request.param
    if block_bytes is not None:
        monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(graph, "_cpu_count", lambda: workers)
    return graph._BLOCK_BYTES


def test_block_size_and_workers_leave_the_parse_unchanged(blocks_and_workers):
    for text in LOADER_CASES.values():
        assert_tokenizer_matches_line_parser(text.encode("utf-8"))
    # more than six blocks at every size
    data = large_edge_list(max(2_000, blocks_and_workers // 2))
    assert len(data) > 6 * blocks_and_workers
    assert_tokenizer_matches_line_parser(data)


def test_declined_last_block_gives_the_line_parsers_error(blocks_and_workers):
    count = max(1_000, 2 * blocks_and_workers // 3)
    data = b"".join(b"%d %d\n" % (i, i + 1) for i in range(count))
    data += b"# a comment\n1 2 3\n"
    assert len(data) > 6 * blocks_and_workers
    assert graph._tokenize(data) is None
    with pytest.raises(ParseError) as expected:
        graph._parse_lines(io.BytesIO(data))
    threads = threading.active_count()
    with pytest.raises(ParseError) as got:
        load_edge_list(io.BytesIO(data))
    assert str(got.value) == str(expected.value)
    assert got.value.line == count + 2
    assert threading.active_count() == threads
    g = load_edge_list(io.BytesIO(data[:data.index(b"# a")]))
    assert g.arc_count == count
    assert threading.active_count() == threads


@pytest.mark.parametrize("text, message", [
    ("NODES 2000000000\n", "line 1: NODES header implies 2000000000 nodes"),
    ("# big\n\nNODES 2000000000\n0 1\n",
     "line 3: NODES header implies 2000000000 nodes"),
    ("\u00a0\nNODES 2000000000\n0 1\n",  # a blank line, to str.strip
     "line 2: NODES header implies 2000000000 nodes"),
    ("0 2147483000\n", "node id 2147483000 implies 2147483001 nodes"),
    ("+0 2147483000\n", "node id 2147483000 implies 2147483001 nodes"),
])
def test_node_count_guard_refuses_before_allocating(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(NodeRangeError) as exc:
            load_edge_list(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value).startswith(message)
    assert peak < 4 << 20


def test_line_parser_memory_is_bounded_by_the_input():
    # an error on the last line: the ids read before it are held as
    # machine integers, not as Python tuples of ints (about 10x the input)
    data = b"".join(b"%d %d\n" % (i, i + 70_000) for i in range(60_000))
    data += b"0 x\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            graph._parse_lines(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == 60_001
    assert peak < 2 * len(data)


def test_node_count_guard_bounds():
    limit = graph.MIN_NODE_LIMIT
    assert load_edge_list(io.StringIO(f"NODES {limit}\n")).node_count == limit
    with pytest.raises(NodeRangeError):
        load_edge_list(io.StringIO(f"NODES {limit + 1}\n"))
    lines = limit // graph.NODES_PER_ARC_LINE + 1
    text = f"NODES {lines * graph.NODES_PER_ARC_LINE}\n" + "0 1\n" * lines
    assert load_edge_list(io.StringIO(text)).node_count == limit + 64
    with pytest.raises(NodeRangeError):
        load_edge_list(io.StringIO(text.replace("0 1\n", "", 1)))


def test_line_parser_decides_what_the_fast_path_rejects():
    # int() accepts a sign and digit separators; the tokenizer does not.
    text = "+1 2\n1_0 3\n"
    assert graph._tokenize(text.encode()) is None
    g = load_edge_list(io.StringIO(text))
    assert g.node_count == 11
    assert sorted(g.arcs()) == [(1, 2), (10, 3)]


def test_parse_error_line_in_large_input():
    text = "".join(f"{i} {i + 1}\n" for i in range(100_000)) + "1 2 3\n"
    with pytest.raises(ParseError) as exc:
        load_edge_list(io.BytesIO(text.encode()))
    assert exc.value.line == 100_001


def test_id_overflow_names_its_line():
    with pytest.raises(NodeRangeError) as exc:
        load_edge_list(io.StringIO("0 1\n0 4294967296\n"))
    assert str(exc.value) == ("line 2: node id 4294967296 overflows the "
                              "32-bit id type")


def test_symmetry_and_in_adjacency_follow_mutation():
    g = Graph.from_edges(4, [(0, 1), (1, 2)], undirected=True)
    assert g.is_symmetric()
    g.apply_batch(EdgeBatch(insertions=[(2, 3)]))
    assert not g.is_symmetric()
    assert builders.row(g.in_csr(), 3) == [2]
    assert len(builders.row(g.in_csr(), 1)) == 2
    g.apply_batch(EdgeBatch(insertions=[(3, 2)], deletions=[(0, 1)]))
    assert not g.is_symmetric()
    assert builders.row(g.in_csr(), 1) == [2]


def test_symmetric_batch_keeps_known_symmetry(monkeypatch):
    """On a graph known to be symmetric a batch keeps symmetry exactly
    when it is symmetric itself, so no transpose checks it again; an
    unknown symmetry stays unknown."""
    transposed = []
    transpose = sparse.csr_matrix.transpose

    def counting(self, *args, **kwargs):
        transposed.append(self.shape)
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(sparse.csr_matrix, "transpose", counting)
    g = builders.cycle(6)
    g.apply_batch(EdgeBatch(insertions=[(0, 3), (3, 0)],
                            deletions=[(0, 1), (1, 0)]))
    assert g.is_symmetric() and transposed == []
    g.apply_batch(EdgeBatch(deletions=[(2, 3)]))
    assert not g.is_symmetric() and transposed == []
    h = Graph.from_edges(3, [(0, 1), (1, 0)])
    h.apply_batch(EdgeBatch(insertions=[(1, 2), (2, 1)]))
    assert h.is_symmetric() and len(transposed) == 1


def test_apply_batch_bumps_version_once():
    g = builders.cycle(6)
    v = g.version
    g.apply_batch(EdgeBatch(insertions=[(0, 3), (3, 0)],
                            deletions=[(0, 1), (1, 0)]))
    assert g.version == v + 1

"""Incremental maintenance of a converged bounded-Katz state.

An update applies the batch to the graph, then recomputes level by level
only the rows whose value can have changed. Level i of node v is alpha
times the sum of level i-1 over v's out-neighbors, so it can change only
if v is a source of a batch arc or an out-neighbor of v changed at level
i-1. The rows are summed from the post-batch graph in the order the full
matrix product sums them, so levels, partial sums, bounds and the node
order, ties included, are bitwise those of a fresh run. The affected set
grows by one reverse step per level, which keeps small updates local;
once it holds more than a theta share of the nodes, each remaining level
is one product with the whole matrix.

A local level gathers its rows' arcs from the CSR arrays and sums them
with np.bincount, which adds in arc order from 0.0 as scipy's product
does. When the rows hold more than a quarter of all arcs, the level is
one whole-matrix product instead. When the nodes changed at the previous
level have more than a quarter of all in-arcs, their in-neighbors are
not gathered either: the nonzeros of the product of the whole matrix
with an indicator of those nodes are exactly the rows, and the level is
one more whole-matrix product. This is the choice direction-optimizing
BFS makes between pushing from a small frontier and sweeping the whole
graph.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .engine import (RANKING, TOPK, KatzState, check_converged,
                     default_iteration_cap, iterate_once, tail_gamma)
from .errors import ConvergenceError, ParameterError, ParseError, StateError
from .graph import EdgeBatch, Graph, arc_array


@dataclass
class UpdateStats:
    """Instrumentation for one batch update.

    `matvecs` counts passes over the whole matrix (fallback levels,
    whole-matrix local levels and resumed iterations); `pushed_arcs`
    counts the arcs read by the row kernel.
    """

    batch_size: int = 0
    seeds: int = 0
    visited: int = 0
    level_sizes: list[int] = field(default_factory=list)
    reactivated: int = 0
    aborted_level: int | None = None
    resumed_iterations: int = 0
    matvecs: int = 0
    pushed_arcs: int = 0


# A local level whose rows, or whose previous level's changed nodes, hold
# more than this share of all arcs makes whole-matrix passes. On rmat
# 2^16 the row kernel costs about 11 ns per arc read, a product 1.3 ns per
# arc of the matrix.
LARGE_FRONTIER_SHARE = 0.25


def _row_arcs(A: sparse.csr_matrix, rows: np.ndarray,
              counts: np.ndarray) -> np.ndarray:
    """Column indices of the rows' arcs in CSR order, as intp: numpy
    converts narrower index arrays on every use."""
    starts = A.indptr[rows] - np.cumsum(counts) + counts
    pos = np.repeat(starts, counts) + np.arange(counts.sum())
    return A.indices[pos].astype(np.intp)


def _recompute_levels(state: KatzState, g: Graph, sources: np.ndarray,
                      affected: np.ndarray, theta: float,
                      stats: UpdateStats) -> None:
    """Bring levels 1..r up to date with g, the batch already applied.

    `affected` marks the sources on entry and every recomputed row on
    exit. A level's rows are the sources plus the in-neighbors of the
    nodes changed at the level before; since in-arcs before the batch
    plus sources equal in-arcs after it plus sources, g serves both.
    """
    alpha, n, A = state.alpha, state.n, g.out_csr()
    share = LARGE_FRONTIER_SHARE * A.nnz
    mark = np.zeros(n, dtype=bool)
    changed = nbrs = np.empty(0, dtype=np.int64)
    for level in range(1, state.r + 1):
        w_prev, old = state.levels[level - 1], state.levels[level]
        size = int(np.count_nonzero(affected))
        if stats.aborted_level is not None or size > theta * n:
            stats.aborted_level = stats.aborted_level or level
            state.levels[level] = alpha * state._matvec(g, w_prev)
            stats.matvecs += 1
            continue
        stats.level_sizes.append(size)
        new = None  # the whole level, once a whole-matrix pass gave it
        if nbrs is None:
            rev = A if state.undirected else g.in_csr()
            counts = rev.indptr[changed + 1] - rev.indptr[changed]
            if counts.sum() > share:
                # A row of A @ indicator counts the changed out-neighbors,
                # so its nonzeros are exactly the in-neighbors of `changed`.
                hit = np.zeros(n)
                hit[changed] = 1.0
                nbrs = np.flatnonzero(A @ hit > 0)
                new = alpha * state._matvec(g, w_prev)
                stats.matvecs += 2
            else:
                nbrs = _row_arcs(rev, changed, counts)
        mark[sources] = mark[nbrs] = True
        rows = np.flatnonzero(mark)
        mark[rows] = False
        affected[rows] = True
        nbrs = None
        if new is None:
            counts = A.indptr[rows + 1] - A.indptr[rows]
            if counts.sum() > share:
                new = alpha * state._matvec(g, w_prev)
                stats.matvecs += 1
        if new is not None:
            changed = rows[new[rows] != old[rows]]
            state.levels[level] = new
            continue
        cols = _row_arcs(A, rows, counts)
        stats.pushed_arcs += cols.size
        owner = np.repeat(np.arange(rows.size), counts)
        new_rows = alpha * np.bincount(owner, weights=w_prev[cols],
                                       minlength=rows.size)
        moved = new_rows != old[rows]
        old[rows] = new_rows
        changed = rows[moved]
        if state.undirected:
            # In-arcs are out-arcs: those of the changed rows, already read.
            nbrs = cols[moved[owner]]


def update_batch(state: KatzState, g: Graph, batch: EdgeBatch, *,
                 theta: float = 0.5) -> None:
    """Apply an arc batch to g and bring the state back to convergence.

    Validates everything (batch preconditions, post-update admissibility
    of alpha) before touching graph or state, then: the batch applied to
    g (one version bump), the levels that can have changed recomputed on
    the post-batch graph, the partial sums of the recomputed nodes summed
    again in level order, bounds refreshed under the new tail factor,
    nodes that may contend again reactivated, and finally ordinary
    iterations until the stopping rule holds once more. Levels, partial
    sums and bounds are then bitwise those of a fresh run to the same
    depth. An iteration cap that init derived is derived again for the
    post-batch max out-degree first; a cap the caller gave stays as
    given. Instrumentation lands in state.last_update_stats.

    If those iterations reach the cap, ConvergenceError is raised and the
    update is not rolled back: the batch stays applied (one version
    bump), state.graph_version equals g.version, the levels and bounds
    are those of a valid state at depth state.r, and
    state.last_update_stats is set. Raising state.max_iterations and
    calling run(state, g) continues from there.
    """
    if state.graph_version != g.version:
        raise StateError("state does not belong to this graph revision")
    if state.r < 1:
        raise StateError("run the static engine before applying updates")
    if not 0.0 <= theta <= 1.0:
        raise ParameterError(f"theta must be in [0, 1], got {theta}")
    g.validate_batch(batch)
    if state.undirected and not batch.is_symmetric():
        raise ParameterError(
            "state is in undirected mode; batch must contain both "
            "directions of every edge")
    ins, dels = arc_array(batch.insertions), arc_array(batch.deletions)

    # Admission check on the post-update degrees, before any mutation.
    degs = g.out_degrees()
    np.subtract.at(degs, dels[:, 0], 1)
    np.add.at(degs, ins[:, 0], 1)
    new_max = int(degs.max()) if state.n else 0
    if new_max > 0 and state.alpha >= 1.0 / new_max:
        raise ParameterError(
            f"batch raises max out-degree to {new_max}; alpha={state.alpha} "
            f"would leave the walk series divergent")

    if state.derived_cap:
        state.max_iterations = default_iteration_cap(
            state.alpha, new_max, state.epsilon)

    stats = UpdateStats(batch_size=len(batch))
    affected = np.zeros(state.n, dtype=bool)
    affected[ins[:, 0]] = affected[dels[:, 0]] = True
    sources = np.flatnonzero(affected)
    stats.seeds = int(sources.size)
    g._apply_validated(batch)  # validated above, once
    state.graph_version = g.version
    _recompute_levels(state, g, sources, affected, theta, stats)

    # Sum the levels of every recomputed node again from zero, in level
    # order, as a fresh run does; after a fallback, of every node.
    touched = slice(None) if stats.aborted_level else np.flatnonzero(affected)
    katz = np.zeros_like(state.katz[touched])
    for level in state.levels[1:]:
        katz += level[touched]
    state.katz[touched] = katz
    affected[ins[:, 1]] = affected[dels[:, 1]] = True
    stats.visited = int(np.count_nonzero(affected))

    state.set_gamma(tail_gamma(state.alpha, new_max))
    state.refresh_bounds()

    # Nodes written off earlier may contend again after the update.
    if state.criterion.kind in (RANKING, TOPK) and state.active.size < state.n:
        floor = float(np.min(state.lower[state.active])) - state.epsilon
        inactive = np.ones(state.n, dtype=bool)
        inactive[state.active] = False
        back = np.flatnonzero(inactive & (state.upper >= floor))
        if back.size:
            state.active = np.concatenate([state.active, back])
            stats.reactivated = int(back.size)

    while not check_converged(state):
        if state.r >= state.max_iterations:
            state.last_update_stats = stats
            raise ConvergenceError(
                f"stopping rule unmet after resuming to {state.r} iterations",
                iterations=state.r, gap=state.gap())
        iterate_once(state, g)
        stats.resumed_iterations += 1
        stats.matvecs += 1
    state.last_update_stats = stats


# ---- batch file format ----

def load_batches(source) -> list[EdgeBatch]:
    """Parse a batch file: lines "+ u v" or "- u v", batches separated by
    blank lines. Returns the batches in file order; an empty file yields
    none.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r") as fh:
            return load_batches(fh)

    batches: list[EdgeBatch] = []
    ins: list[tuple[int, int]] = []
    dels: list[tuple[int, int]] = []

    def flush():
        nonlocal ins, dels
        if ins or dels:
            batches.append(EdgeBatch(insertions=ins, deletions=dels))
            ins, dels = [], []

    for lineno, raw in enumerate(source, start=1):
        line = raw.decode("utf-8") if isinstance(raw, bytes) else raw
        line = line.strip()
        if not line:
            flush()
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("+", "-"):
            raise ParseError(
                f"expected '+ u v' or '- u v', got {line!r}", lineno)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer node id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {line!r}", lineno)
        (ins if parts[0] == "+" else dels).append((u, v))
    flush()
    return batches

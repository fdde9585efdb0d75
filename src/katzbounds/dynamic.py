"""Incremental maintenance of a converged bounded-Katz state.

An update applies the batch to the graph, then recomputes the walk
levels on the post-batch graph. Level i of node v is alpha times the sum
of level i-1 over v's out-neighbors, so it can change only if v is a
source of a batch arc or an out-neighbor of v changed at level i-1. The
rows that can change at level i therefore lie in B_{i-1}, the ball of
nodes within i-1 reverse steps of the batch sources. A node that lost
an out-arc is a source, so the post-batch graph gives the same ball.

A row recomputed on the post-batch graph from an exact level i-1 is
bitwise the fresh value, whether or not it changed: scipy's product sums
each row of a row subset of the matrix in arc order from 0.0, as the
whole product does. So recomputing any superset of the rows that can
change is exact, and levels, partial sums, bounds and the node order,
ties included, are bitwise those of a fresh run. The update grows the
ball by one shell per level while its rows hold at most a quarter of
all arcs, and on directed graphs while the front's in-arcs do too; the
last such ball is B_{s-1}. Levels 1..s are one product each of the
matrix's rows in that ball, levels s+1..r whole products. The ball's
partial sums are summed again, or, when s < r, every node's.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .engine import (RANKING, TOPK, KatzState, check_converged,
                     default_iteration_cap, iterate_once, tail_gamma)
from .errors import ConvergenceError, ParameterError, ParseError, StateError
from .graph import EdgeBatch, Graph, parse_id, text_lines


@dataclass
class UpdateStats:
    """Instrumentation for one batch update.

    `level_sizes` are the sizes of the balls B_0..B_{s-1} that levels
    1..s recomputed; `aborted_level` is s + 1, the first level computed
    by a whole product, or None when every level was local. `matvecs`
    counts passes over the whole matrix (whole levels and resumed
    iterations); `pushed_arcs` counts the arcs multiplied by row-subset
    products, the subset's arcs times the levels it computes.
    """

    visited: int = 0
    level_sizes: list[int] = field(default_factory=list)
    reactivated: int = 0
    aborted_level: int | None = None
    resumed_iterations: int = 0
    matvecs: int = 0
    pushed_arcs: int = 0


# The ball stops growing before its rows hold more than this share of all
# arcs; the levels after it are whole-matrix products. The next ball's
# rows hold every in-arc of the front, so a front with more in-arcs than
# that stops it before they are gathered. A shell whose in-arcs exceed
# this share of the nodes deduplicates them on a node mask. On rmat 2^16
# a gather costs about 6 ns per arc read, a product about 2 ns per arc of
# the matrix. The mask scan beats the per-candidate dedupe from about
# n / 16 candidates; a quarter keeps it off the small shells of local
# updates.
LARGE_FRONTIER_SHARE = 0.25


def _row_arcs(A: sparse.csr_matrix, rows: np.ndarray,
              counts: np.ndarray) -> np.ndarray:
    """Column indices of the rows' arcs in CSR order, as intp: numpy
    converts narrower index arrays on every use."""
    starts = A.indptr[rows] - np.cumsum(counts) + counts
    pos = np.repeat(starts, counts) + np.arange(counts.sum())
    return A.indices[pos].astype(np.intp)


def _recompute_levels(state: KatzState, g: Graph, sources: np.ndarray,
                      affected: np.ndarray,
                      stats: UpdateStats) -> np.ndarray | slice:
    """Bring levels 1..r up to date with g, the batch already applied,
    growing the ball from the sources as the module docstring describes.

    `affected` marks the sources on entry and the ball on exit. Returns
    the nodes whose partial sums to sum again: B_{s-1}, or every node
    when s < r.
    """
    alpha, n, A = state.alpha, state.n, g.out_csr()
    share = LARGE_FRONTIER_SHARE * A.nnz
    slot = np.empty(n, dtype=np.intp)
    shells, front, arcs = [], sources, 0
    while True:
        arcs += (A.indptr[front + 1] - A.indptr[front]).sum()
        if arcs > share:
            break
        affected[front] = True
        shells.append(front)
        if len(shells) == state.r:
            break
        rev = A if state.undirected else g.in_csr()
        counts = rev.indptr[front + 1] - rev.indptr[front]
        if counts.sum() > share:
            break
        nbrs = _row_arcs(rev, front, counts)
        if nbrs.size > LARGE_FRONTIER_SHARE * n:
            hit = np.zeros(n, dtype=bool)
            hit[nbrs] = True
            front = np.flatnonzero(hit & ~affected)
        else:
            nbrs = nbrs[~affected[nbrs]]
            slot[nbrs] = np.arange(nbrs.size)  # the last copy wins
            front = nbrs[slot[nbrs] == np.arange(nbrs.size)]
    s = len(shells)
    stats.level_sizes = np.cumsum([shell.size for shell in shells]).tolist()
    stats.aborted_level = s + 1 if s < state.r else None
    stats.matvecs += state.r - s
    if s:
        rows = np.sort(np.concatenate(shells))
        sub = A[rows]
        stats.pushed_arcs = sub.nnz * s
        for level in range(1, s + 1):
            state.levels[level][rows] = alpha * (sub @ state.levels[level - 1])
    for level in range(s + 1, state.r + 1):
        state.levels[level] = alpha * (A @ state.levels[level - 1])
    return rows if s == state.r else slice(None)


def update_batch(state: KatzState, g: Graph, batch: EdgeBatch) -> None:
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
    g.validate_batch(batch)
    if state.undirected and not batch.is_symmetric():
        raise ParameterError(
            "state is in undirected mode; batch must contain both "
            "directions of every edge")

    # Admission check on the post-update degrees, before any mutation.
    degrees = g.out_degrees_after(batch)
    new_max = int(degrees.max()) if state.n else 0
    if new_max > 0 and state.alpha >= 1.0 / new_max:
        raise ParameterError(
            f"batch raises max out-degree to {new_max}; alpha={state.alpha} "
            f"would leave the walk series divergent")

    if state.derived_cap:
        state.max_iterations = default_iteration_cap(
            state.alpha, new_max, state.epsilon)

    stats = UpdateStats()
    affected = np.zeros(state.n, dtype=bool)
    affected[batch.ins[:, 0]] = affected[batch.dels[:, 0]] = True
    sources = np.flatnonzero(affected)
    g._apply_validated(batch, degrees)  # validated above, once
    state.graph_version = g.version
    touched = _recompute_levels(state, g, sources, affected, stats)

    # Sum the levels of every recomputed node again from zero, in level
    # order, as a fresh run does; after a whole level, of every node.
    katz = np.zeros_like(state.katz[touched])
    for level in state.levels[1:]:
        katz += level[touched]
    state.katz[touched] = katz
    affected[batch.ins[:, 1]] = affected[batch.dels[:, 1]] = True
    stats.visited = int(np.count_nonzero(affected))

    state.gamma = tail_gamma(state.alpha, new_max)
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
    none. `source` may be a path or an open text/binary stream.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "rb") as fh:
            return load_batches(fh)

    batches: list[EdgeBatch] = []
    ins: list[tuple[int, int]] = []
    dels: list[tuple[int, int]] = []
    # The end of the file ends the last batch, as a blank line does.
    for lineno, line in itertools.chain(text_lines(source), [(0, "")]):
        if not line:
            if ins or dels:
                batches.append(EdgeBatch(insertions=ins, deletions=dels))
                ins, dels = [], []
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("+", "-"):
            raise ParseError(
                f"expected '+ u v' or '- u v', got {line!r}", lineno)
        arc = parse_id(parts[1], lineno), parse_id(parts[2], lineno)
        (ins if parts[0] == "+" else dels).append(arc)
    return batches

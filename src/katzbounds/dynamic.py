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
matrix's rows in that ball, levels s+1..r whole products. A local
level is added to its rows' partial sums as it is computed; only a
whole level makes every node's levels be summed again.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .engine import (KatzState, _converge, default_iteration_cap,
                     tail_gamma, validate_alpha)
from .errors import ParameterError, ParseError, StateError
from .graph import EdgeBatch, Graph, parse_id, text_lines


@dataclass
class UpdateStats:
    """Instrumentation for one batch update.

    `visited` counts the batch's endpoints and the nodes of B_{s-1}.
    `level_sizes` are the sizes of the balls B_0..B_{s-1} that levels
    1..s recomputed; `aborted_level` is s + 1, the first level computed
    by a whole product, or None when every level was local.
    `reactivated` counts the inactive nodes that passed check_converged's
    survivor test again. `resumed_iterations` counts the iterations run
    after the repair, also when the cap ends them. `matvecs` counts passes
    over the whole matrix (whole levels and resumed iterations);
    `pushed_arcs` counts the arcs multiplied by row-subset products, the
    subset's arcs times the levels it computes.
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


def _row_arcs(indices: np.ndarray, starts: np.ndarray,
              counts: np.ndarray) -> np.ndarray:
    """Column indices of the rows at `starts` holding `counts` arcs, in CSR
    order, as intp: numpy converts narrower index arrays on every use."""
    starts = starts - np.cumsum(counts) + counts
    pos = np.repeat(starts, counts) + np.arange(counts.sum())
    return indices[pos].astype(np.intp)


def _recompute_levels(state: KatzState, g: Graph, sources: np.ndarray,
                      affected: np.ndarray, stats: UpdateStats) -> None:
    """Bring levels 1..r and partial sums up to date with g, the batch
    already applied, as the module docstring describes. `affected` marks
    the sources on entry and the ball on exit."""
    alpha, n, A = state.alpha, state.n, g.out_csr()
    share = LARGE_FRONTIER_SHARE * A.nnz
    slot = np.empty(n, dtype=np.intp)
    shells, front, arcs, rev = [], sources, 0, A
    while True:
        starts = A.indptr[front]
        counts = A.indptr[front + 1] - starts
        arcs += counts.sum()
        if arcs > share:
            break
        affected[front] = True
        shells.append(front)
        if len(shells) == state.r:
            break
        if not state.undirected:  # undirected, in-arcs are the out-arcs
            rev = g.in_csr()
            starts = rev.indptr[front]
            counts = rev.indptr[front + 1] - starts
            if counts.sum() > share:
                break
        nbrs = _row_arcs(rev.indices, starts, counts)
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
        katz = np.zeros(rows.size)
        for level in range(1, s + 1):
            y = sub @ state.levels[level - 1]
            state.levels[level][rows] = np.multiply(y, alpha, out=y)
            katz += y
        if s == state.r:
            state.katz[rows] = katz
            return
    for level in range(s + 1, state.r + 1):
        y = A @ state.levels[level - 1]
        state.levels[level] = np.multiply(y, alpha, out=y)
    state.katz.fill(0.0)
    for level in state.levels[1:]:
        state.katz += level


def update_batch(state: KatzState, g: Graph, batch: EdgeBatch) -> None:
    """Apply an arc batch to g and bring the state back to convergence.

    Validates everything before touching graph or state: the batch's
    preconditions, and alpha against the post-batch max out-degree by
    init's own test. Then applies the batch to g (one version bump),
    recomputes the levels that can have changed on the post-batch graph,
    adding them to the partial sums as it goes, and refreshes the bounds
    under the new tail factor. An inactive node comes back when upper -
    epsilon reaches the least active lower bound, check_converged's
    survivor test (only top-k checks drop nodes). Last, run's own loop
    iterates until the stopping rule holds again. Levels, partial sums
    and bounds are then bitwise those of a fresh run to the same depth.
    A cap init derived is derived again for the new max out-degree, a
    cap the caller gave stays; stats land in state.last_update_stats.

    If those iterations reach the cap, run's ConvergenceError is raised
    and the update is not rolled back: the batch stays applied (one
    version bump), state.graph_version equals g.version, the levels and
    bounds are those of a valid state at depth state.r, and
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
    degrees = g.out_degrees_after(batch)
    new_max = int(degrees.max()) if state.n else 0
    validate_alpha(state.alpha, new_max)

    if state.derived_cap:
        state.max_iterations = default_iteration_cap(
            state.alpha, new_max, state.epsilon)

    stats = UpdateStats()
    affected = np.zeros(state.n, dtype=bool)
    affected[batch.ins[:, 0]] = affected[batch.dels[:, 0]] = True
    sources = np.flatnonzero(affected)
    g._apply_validated(batch, degrees)  # validated above, once
    state.graph_version = g.version
    _recompute_levels(state, g, sources, affected, stats)
    affected[batch.ins[:, 1]] = affected[batch.dels[:, 1]] = True
    stats.visited = int(np.count_nonzero(affected))

    state.gamma = tail_gamma(state.alpha, new_max)
    state.refresh_bounds()

    # Nodes left out stay out: later top-k thresholds are at least this.
    if state.active.size < state.n:
        back = state.upper - state.epsilon >= state.lower[state.active].min()
        back[state.active] = False
        back = np.flatnonzero(back)
        state.active = np.concatenate([state.active, back])
        stats.reactivated = back.size

    depth = state.r
    try:
        _converge(state, g)
    finally:
        stats.resumed_iterations = state.r - depth
        stats.matvecs += stats.resumed_iterations
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

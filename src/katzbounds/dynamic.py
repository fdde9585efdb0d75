"""Incremental maintenance of a converged bounded-Katz state.

An update applies the batch to the graph, then recomputes the walk
levels on the post-batch graph. Level i of node v is alpha times the sum
of level i-1 over v's out-neighbors, so it can change only if v is a
batch source or an out-neighbor of v changed at level i-1: only in
B_{i-1}, the ball of nodes within i-1 reverse steps of the sources (a
node that lost an out-arc is one, so either graph gives the ball).

scipy's product sums each row of a row subset in arc order from 0.0, as
the whole product does, so a row recomputed from an exact level i-1 is
bitwise the fresh value, changed or not, and so are the partial sums,
bounds and node order. The ball grows one shell per level while its
rows, and on directed graphs the front's in-arcs, hold at most a quarter
of all arcs, up to B_{s-1}: levels 1..s are one product each of its
rows, added to their partial sums as they come, levels s+1..r whole
products, after which every partial sum is summed again.
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
    """Instrumentation for one batch update: what it touched.

    `visited` counts the batch's endpoints and the nodes of B_{s-1}, whose
    levels and bounds were recomputed. `level_sizes` are the sizes of the
    balls B_0..B_{s-1} that levels 1..s used, [] for a batch without arcs;
    `aborted_level` is s + 1, the first level computed by a whole
    product, or None if none. `reactivated` counts the inactive nodes
    that passed check_converged's survivor test again, and
    `resumed_iterations` the iterations run after the repair, also when
    the cap ends them. `matvecs` counts whole-matrix products, levels and
    resumed iterations; `pushed_arcs` the ball's arcs times its levels.
    """

    visited: int = 0
    level_sizes: list[int] = field(default_factory=list)
    reactivated: int = 0
    aborted_level: int | None = None
    resumed_iterations: int = 0
    matvecs: int = 0
    pushed_arcs: int = 0


# The ball stops growing before its rows hold more than this share of all
# arcs, or a front's in-arcs, all in the next ball, do; the levels after
# it are whole products. On rmat 2^16 a gather costs about 6 ns per arc
# read, a product about 2 ns per arc of the matrix. A shell with more
# in-arcs than this share of the nodes is deduplicated on a node mask,
# else per candidate. Per update, over 192 updates of each benchmark
# stream (seed 1, n = 65536): the lattice's shells, of at most 1,064
# in-arcs, took 0.70 ms per candidate against 1.65 ms on the mask; the
# rmat shells above n / 4 (17k-223k in-arcs) 0.16 ms on the mask against
# 0.82 ms per candidate. The two break even near n / 8.
LARGE_FRONTIER_SHARE = 0.25


def _row_arcs(indices: np.ndarray, starts: np.ndarray, counts: np.ndarray,
              total: int) -> np.ndarray:
    """Column indices of the rows at `starts` holding `counts` (`total`)
    arcs, in CSR order, as intp: numpy converts narrower index arrays on
    every use. Overwrites `starts`."""
    starts -= np.cumsum(counts)
    starts += counts  # each row's start less the arcs gathered before it
    pos = np.repeat(starts, counts) + np.arange(total)
    return indices[pos].astype(np.intp)


def _recompute_levels(state: KatzState, g: Graph, sources: np.ndarray,
                      affected: np.ndarray, stats: UpdateStats):
    """Bring levels 1..r and partial sums up to date with g, the batch
    already applied, as the module docstring describes. `affected`, all
    False on entry, marks the ball on exit. Returns the ball's sorted
    rows if every level was local (none without a batch), else None."""
    if not sources.size:
        return sources
    alpha, n, A = state.alpha, state.n, g.out_csr()
    share = LARGE_FRONTIER_SHARE * A.nnz
    slot = np.empty(n, dtype=np.intp)
    shells, front, arcs, rev = [], sources, 0, A
    while True:
        starts = A.indptr[front]
        counts = A.indptr[1:][front] - starts
        total = counts.sum()
        arcs += total
        if arcs > share:
            break
        affected[front] = True
        shells.append(front)
        if len(shells) == state.r:
            break
        if not state.undirected:  # undirected, in-arcs are the out-arcs
            rev = g.in_csr()
            starts = rev.indptr[front]
            counts = rev.indptr[1:][front] - starts
            total = counts.sum()
            if total > share:
                break
        nbrs = _row_arcs(rev.indices, starts, counts, total)
        if total > LARGE_FRONTIER_SHARE * n:
            hit = np.zeros(n, dtype=bool)
            hit[nbrs] = True
            front = np.flatnonzero(hit & ~affected)
        else:
            nbrs = nbrs[~affected[nbrs]]
            slot[nbrs] = first = np.arange(nbrs.size)  # the last copy wins
            front = nbrs[slot[nbrs] == first]
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
            return rows
    for level in range(s + 1, state.r + 1):
        y = A @ state.levels[level - 1]
        state.levels[level] = np.multiply(y, alpha, out=y)
    state.katz.fill(0.0)
    for level in state.levels[1:]:
        state.katz += level


def update_batch(state: KatzState, g: Graph, batch: EdgeBatch) -> None:
    """Apply an arc batch to g and bring the state back to convergence.

    Validates everything before touching graph or state: the batch, by
    g.validate_batch, and alpha, by init's own test, against the post-batch
    max out-degree that returns. Then g.apply_batch applies the batch with
    that validation (one version bump); the levels that can have changed
    are recomputed with their partial sums, and the bounds refreshed, only
    the ball's if every level was local and neither gamma nor q moved. An
    inactive node comes back when upper - epsilon reaches the least active
    lower bound, check_converged's survivor test; run's own loop then
    iterates until the stopping rule holds. Levels, partial sums and
    bounds are bitwise those of a fresh run to the same depth. Whole passes
    remain for the splice, the row-pointer shift, q and that scan. A
    derived cap follows the new max out-degree, a given one stays; stats
    land in state.last_update_stats. A batch without arcs bumps no version
    and recomputes no level.

    If those iterations reach the cap, run's ConvergenceError is raised
    and nothing is rolled back: the batch stays applied (one version
    bump), the state is a valid one of g at depth state.r, stats are set,
    and raising state.max_iterations and calling run(state, g) continues.
    """
    if state.graph_version != g.version:
        raise StateError("state does not belong to this graph revision")
    if state.r < 1:
        raise StateError("run the static engine before applying updates")
    new_max = g.validate_batch(batch)
    if state.undirected and not batch.is_symmetric():
        raise ParameterError(
            "state is in undirected mode; batch must contain both "
            "directions of every edge")
    validate_alpha(state.alpha, new_max)

    if state.derived_cap:
        state.max_iterations = default_iteration_cap(
            state.alpha, new_max, state.epsilon)

    stats = UpdateStats()
    affected = np.zeros(state.n, dtype=bool)
    sources = g.apply_batch(batch)  # reuses the validation above
    state.graph_version = g.version
    ball = _recompute_levels(state, g, sources, affected, stats)
    affected[batch.ins] = affected[batch.dels] = True  # every endpoint
    stats.visited = int(np.count_nonzero(affected))

    # Outside a ball of every changed level, only gamma and q move bounds.
    gamma, state.gamma = state.gamma, tail_gamma(state.alpha, new_max)
    state.refresh_bounds(ball if state.gamma == gamma else None)

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

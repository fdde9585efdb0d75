"""Incremental maintenance of a converged bounded-Katz state.

Instead of recomputing every walk level after edges change, corrections
are propagated backwards from the endpoints of the changed arcs: if a
node's level-(i-1) weight moved, every in-neighbor's level-i weight moves
by alpha times that delta. The affected set therefore grows by at most
one reverse step per level, which keeps small updates local. When it
stops being local (more than a theta fraction of all nodes), the engine
falls back to recomputing whole levels.

A local level pushes the moved nodes' deltas with one of two kernels,
chosen by the number of in-arcs of those nodes, which the row pointer
gives before any arc is read. Up to a quarter of all arcs, the in-arc
lists are gathered from the CSR arrays and scatter-added; above it, one
product of the whole matrix with two columns (the deltas, and an
indicator of the moved nodes) computes the same sums, and the indicator
column yields exactly the in-neighbors the gather would have reached, so
the affected set and the level sizes do not depend on the kernel. This
is the choice direction-optimizing BFS makes between pushing from a
small frontier and sweeping the whole graph.

Every level is corrected against the pre-batch graph, with the batch's
arcs accounted for explicitly: an inserted arc adds its target's
corrected weight to the source, a deleted arc takes it away again. The
graph changes once, after bounds are refreshed and previously
deactivated nodes that could now contend again are reactivated; it
splices its arrays instead of rebuilding them (see Graph.apply_batch).
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
    large-frontier levels and resumed iterations); `pushed_arcs` counts
    the arcs pushed one by one by the gather kernel.
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


# A level whose frontier has more in-arcs than this share of all arcs is
# pushed by one pass over the whole matrix: gather plus scatter-add costs
# about 20-25 ns per pushed arc, a two-column product 4-5 ns per arc of
# the matrix.
LARGE_FRONTIER_SHARE = 0.25


@dataclass
class UpdateWorkspace:
    """Scratch carried across the per-level correction passes.

    `affected` marks the nodes whose walk weights may have changed;
    `frontier` lists the nodes touched at the previous level and
    `old_prev` their weights there before the update (needed because
    weights are corrected in place). `insertions` and `deletions` are
    the batch as (k, 2) arrays, `reverse` the pre-batch in-adjacency and
    `mark` an all-False scratch mask that each level restores.
    """

    affected: np.ndarray
    theta: float
    insertions: np.ndarray
    deletions: np.ndarray
    reverse: sparse.csr_matrix
    mark: np.ndarray
    frontier: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
    old_prev: np.ndarray = field(default_factory=lambda: np.empty(0))
    aborted: bool = False
    stats: UpdateStats = field(default_factory=UpdateStats)


def update_level(state: KatzState, ws: UpdateWorkspace, g: Graph,
                 level: int) -> None:
    """Correct walk level `level` in place after the batch.

    Expects levels 1..level-1 already corrected and g still the pre-batch
    graph. In local mode the nodes whose previous-level weight changed
    push alpha times their delta to all their in-neighbors at once;
    inserted arcs then add, and deleted arcs subtract, their target's
    corrected previous-level weight. Past the abort threshold (more than
    theta * n affected nodes) the whole level is recomputed instead.
    """
    alpha = state.alpha
    w_prev = state.levels[level - 1]
    w_cur = state.levels[level]
    ins, dels, stats = ws.insertions, ws.deletions, ws.stats
    affected = int(np.count_nonzero(ws.affected))

    if ws.aborted or affected > ws.theta * state.n:
        if not ws.aborted:
            ws.aborted = True
            stats.aborted_level = level
        new = alpha * state._matvec(g, w_prev)
        stats.matvecs += 1
        np.add.at(new, ins[:, 0], alpha * w_prev[ins[:, 1]])
        np.subtract.at(new, dels[:, 0], alpha * w_prev[dels[:, 1]])
        state.katz += new - w_cur
        state.levels[level] = new
        return

    stats.level_sizes.append(affected)
    delta = w_prev[ws.frontier] - ws.old_prev
    moved = delta != 0
    src, push = ws.frontier[moved], alpha * delta[moved]
    indptr, mark = ws.reverse.indptr, ws.mark
    counts = indptr[src + 1] - indptr[src]
    total = int(counts.sum())
    if total > LARGE_FRONTIER_SHARE * ws.reverse.nnz:
        # Column 0 sums the pushes per node, column 1 counts the moved
        # out-neighbors, which is the exact set the gather would reach.
        x = np.zeros((state.n, 2))
        x[src, 0], x[src, 1] = push, 1.0
        y = g.out_csr() @ x
        stats.matvecs += 1
        reached = y[:, 1] > 0
        ws.affected |= reached
        mark |= reached
        mark[ins[:, 0]] = mark[dels[:, 0]] = True
        touched = np.flatnonzero(mark)
        old_cur = w_cur[touched]
        w_cur += y[:, 0]
    else:
        # Gather the in-neighbor lists of the moved nodes, row after row.
        starts = indptr[src] - np.cumsum(counts) + counts
        nbrs = ws.reverse.indices[np.repeat(starts, counts)
                                  + np.arange(total)]
        stats.pushed_arcs += total
        ws.affected[nbrs] = True
        mark[nbrs] = mark[ins[:, 0]] = mark[dels[:, 0]] = True
        touched = np.flatnonzero(mark)
        old_cur = w_cur[touched]
        np.add.at(w_cur, nbrs, np.repeat(push, counts))
    mark[touched] = False
    np.add.at(w_cur, ins[:, 0], alpha * w_prev[ins[:, 1]])
    np.subtract.at(w_cur, dels[:, 0], alpha * w_prev[dels[:, 1]])
    # Fold the level deltas into the running partial sums.
    state.katz[touched] += w_cur[touched] - old_cur
    ws.frontier, ws.old_prev = touched, old_cur


def update_batch(state: KatzState, g: Graph, batch: EdgeBatch, *,
                 theta: float = 0.5) -> None:
    """Apply an arc batch to g and bring the state back to convergence.

    Validates everything (batch preconditions, post-update admissibility
    of alpha) before touching graph or state, then: per-level corrections
    on the pre-batch graph, bound refresh under the new tail factor,
    reactivation of nodes that may contend again, the batch applied to g
    (one version bump), and finally ordinary iterations until the
    stopping rule holds once more. An iteration cap that init derived is
    derived again for the post-batch max out-degree first; a cap the
    caller gave stays as given. Instrumentation lands in
    state.last_update_stats.

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
    stats.seeds = int(np.count_nonzero(affected))
    # Undirected states live on symmetric graphs: in-arcs are out-arcs.
    reverse = g.out_csr() if state.undirected else g.in_csr()
    ws = UpdateWorkspace(affected=affected, theta=theta, insertions=ins,
                         deletions=dels, reverse=reverse,
                         mark=np.zeros(state.n, dtype=bool), stats=stats)
    for level in range(1, state.r + 1):
        update_level(state, ws, g, level)
    affected[ins[:, 1]] = affected[dels[:, 1]] = True
    stats.visited = int(np.count_nonzero(affected))

    # Refresh bounds everywhere under the post-update tail factor. Values
    # of untouched nodes are reproduced bit for bit, so this equals the
    # touched-only refresh whenever the factor is unchanged.
    state.set_gamma(tail_gamma(state.alpha, new_max))
    tail = state.alpha * state.levels[state.r]
    if state.undirected:
        state.lower = state.katz + tail
    else:
        state.lower = state.katz.copy()
    state.upper = state.katz + tail * state.gamma

    # Nodes written off earlier may contend again after the update.
    if state.criterion.kind in (RANKING, TOPK) and state.active.size < state.n:
        floor = float(np.min(state.lower[state.active])) - state.epsilon
        inactive = np.ones(state.n, dtype=bool)
        inactive[state.active] = False
        back = np.flatnonzero(inactive & (state.upper >= floor))
        if back.size:
            state.active = np.concatenate([state.active, back])
            stats.reactivated = int(back.size)

    g.apply_batch(batch)
    state.graph_version = g.version

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

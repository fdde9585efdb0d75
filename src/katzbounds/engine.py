"""Katz centrality with certified per-node lower/upper bounds.

The walk series katz(v) = sum_i alpha^i * (number of length-i walks from v)
is accumulated one level at a time in attenuated form: level r stores
alpha^r times the walk count, so values stay bounded for any admissible
attenuation factor. After each level the partial sum gives a lower bound
and a geometric tail estimate gives an upper bound; iteration stops as
soon as the requested stopping rule holds on those bounds, which is
usually long before the scores themselves have converged.

The upper bound adds the smaller of two tails to the partial sum after
level r, where L_i is level i:
  - single-step: alpha * gamma * L_r, since each walk extends by at most
    deg_max arcs per step;
  - two-step, for r >= 2 when q = max(L_2) < 1: q / (1 - q) *
    (L_{r-1} + L_r). A walk of length i+2 from v is a walk of length i
    to some x followed by a 2-walk from x, so L_{i+2} <= q * L_i
    elementwise, directed or not. Summing the tail in pairs of levels
    gives the geometric factor q / (1 - q).
Both tails are non-increasing in r, so their minimum is too; on complete
graphs the two-step tail is the exact tail.

Bounds only tighten as levels are added: lower bounds never decrease and
upper bounds never increase, which is what makes early termination and
permanent deactivation of settled nodes sound.

Nodes are ordered by descending lower bound, ties by ascending node id.
descending_order is the one implementation of that rule; the convergence
check, the ranking snapshot and the baselines' rankings all call it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError, StateError
from .graph import Graph

DEFAULT_EPSILON = 1e-6

RANKING = "ranking"
TOPK = "topk"
SCORE = "score"
PAIR = "pair"


# ---- stopping criteria ----

@dataclass(frozen=True)
class Criterion:
    """A stopping rule: what has to be epsilon-separated before we stop.

    ranking  every adjacent pair in the full ranking
    topk     the k best among themselves and against everyone else
    score    every node's own bound interval narrower than epsilon
    pair     one specific pair of nodes
    """

    kind: str
    epsilon: float = DEFAULT_EPSILON
    k: int | None = None
    u: int | None = None
    v: int | None = None

    def __post_init__(self):
        if self.kind not in (RANKING, TOPK, SCORE, PAIR):
            raise ParameterError(f"unknown criterion kind {self.kind!r}")
        if not (isinstance(self.epsilon, (int, float)) and
                math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ParameterError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.kind == TOPK:
            if self.k is None or int(self.k) < 1:
                raise ParameterError("topk criterion needs k >= 1")
        if self.kind == PAIR:
            if self.u is None or self.v is None:
                raise ParameterError("pair criterion needs two node ids")
            if self.u == self.v:
                raise ParameterError("pair criterion needs two distinct nodes")
            if self.u < 0 or self.v < 0:
                raise ParameterError("pair node ids must be non-negative")

    @classmethod
    def ranking(cls, epsilon: float = DEFAULT_EPSILON) -> "Criterion":
        return cls(RANKING, epsilon)

    @classmethod
    def top_k(cls, k: int, epsilon: float = DEFAULT_EPSILON) -> "Criterion":
        return cls(TOPK, epsilon, k=int(k))

    @classmethod
    def score(cls, epsilon: float = DEFAULT_EPSILON) -> "Criterion":
        return cls(SCORE, epsilon)

    @classmethod
    def pair(cls, u: int, v: int, epsilon: float = DEFAULT_EPSILON) -> "Criterion":
        return cls(PAIR, epsilon, u=int(u), v=int(v))


def default_alpha(g: Graph) -> float:
    """1 / (1 + max out-degree); 0.5 on an edgeless graph."""
    d = g.max_out_degree()
    return 1.0 / (1.0 + d) if d > 0 else 0.5


def validate_alpha(alpha: float, max_out_degree: int) -> None:
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
        raise ParameterError(f"alpha must be a finite number, got {alpha!r}")
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    if max_out_degree > 0:
        if alpha >= 1.0 / max_out_degree:
            raise ParameterError(
                f"alpha={alpha} is not below 1/max_out_degree = "
                f"1/{max_out_degree}; the walk series may diverge")
    elif alpha >= 1.0:
        raise ParameterError(f"alpha must be < 1, got {alpha}")


def tail_gamma(alpha: float, max_out_degree: int) -> float:
    """Geometric tail factor: deg_max / (1 - alpha * deg_max); 0 if edgeless."""
    d = max_out_degree
    return d / (1.0 - alpha * d) if d > 0 else 0.0


# ---- engine state ----

class KatzState:
    """Mutable state of one bounded-Katz computation.

    levels[i] holds alpha^i * walk_count_i per node (levels[0] is all
    ones), katz the partial sum of levels 1..r, and lower/upper the
    current certified bounds, rewritten in place by refresh_bounds.
    `active` is the ordered id array of nodes still contending for the
    requested ranking; top-k checks shrink it and put the top k first, by
    descending_order; update_batch regrows it. A ranking check that
    finds a witness of non-convergence leaves it in the previous order,
    which need not be sorted by the current bounds.
    A ranking sort also keeps it as `_order`, where the next one starts,
    and sets `_sorted` until refresh_bounds; ranking_result copies it then.
    alpha is fixed at init; gamma is tail_gamma of the current graph's
    maximum out-degree, q max(levels[2]) at the last refresh (1.0 below
    r = 2). `derived_cap` is True when init derived max_iterations.
    """

    __slots__ = ("n", "alpha", "gamma", "q", "criterion", "undirected", "r",
                 "levels", "katz", "lower", "upper", "active", "graph_version",
                 "max_iterations", "derived_cap", "last_update_stats",
                 "_order", "_sorted")

    # Single-threaded; only perfbench reads this (StaticCold.traced in
    # perfbench/workloads.py), and it goes when that reader does.
    threads = 1

    def __init__(self, n: int, alpha: float, gamma: float,
                 criterion: Criterion, undirected: bool, graph_version: int,
                 max_iterations: int, derived_cap: bool = False):
        self.n = n
        self.alpha = alpha
        self.gamma = gamma
        self.q = 1.0
        self.criterion = criterion
        self.undirected = undirected
        self.r = 0
        self.levels: list[np.ndarray] = [np.ones(n, dtype=np.float64)]
        self.katz = np.zeros(n, dtype=np.float64)
        self.lower = np.zeros(n, dtype=np.float64)
        # Tail bound already valid at r=0: remaining series <= alpha*gamma.
        self.upper = np.full(n, alpha * gamma, dtype=np.float64)
        self.active = np.arange(n, dtype=np.int64)
        self.graph_version = graph_version
        self.max_iterations = max_iterations
        self.derived_cap = derived_cap
        self.last_update_stats = None
        self._order, self._sorted = None, False

    @property
    def epsilon(self) -> float:
        return self.criterion.epsilon

    def gap(self) -> float:
        """Widest remaining bound interval."""
        return float(np.max(self.upper - self.lower)) if self.n else 0.0

    def refresh_bounds(self, rows: np.ndarray | None = None) -> None:
        """Set lower/upper from the partial sums and levels, in place.

        lower = katz (+ alpha * L_r undirected), upper = katz + the smaller
        of the module docstring's two tails. lower holds the second tail
        before it is set, so nothing of size n is allocated; katz +
        min(t1, t2) is bitwise min(katz + t1, katz + t2), rounding being
        monotone. Given `rows`, and the caller's word that no other row's
        levels or partial sum changed since the last refresh, nor gamma,
        it refreshes only those, bitwise; all if q changed."""
        self._sorted = False
        r, q = self.r, float(self.levels[2].max()) if self.r >= 2 else 1.0
        at = slice(None) if rows is None or q != self.q else rows
        self.q, level, katz = q, self.levels[r][at], self.katz[at]
        lower, upper = self.lower[at], self.upper[at]  # copies only by rows
        np.multiply(level, self.alpha, out=upper)
        upper *= self.gamma
        if q < 1.0:
            np.add(self.levels[r - 1][at], level, out=lower)
            lower *= q / (1.0 - q)
            np.minimum(upper, lower, out=upper)
        upper += katz
        # Undirected, every walk of length r extends by retracing its last
        # edge, so the next term is at least alpha * level r.
        if self.undirected:
            np.multiply(level, self.alpha, out=lower)
            lower += katz
        else:
            np.copyto(lower, katz)
        if at is rows:
            self.lower[rows], self.upper[rows] = lower, upper


# ---- results ----

@dataclass(frozen=True)
class RankingResult:
    """Immutable outcome of a converged run.

    `order` lists all node ids by descending lower bound (ties by
    ascending id); `lower`/`upper` are indexed by node id. Of the node
    pairs, `separated_fraction` is the share where one lower bound
    strictly exceeds the other's upper (no eps; 1.0 below two nodes).
    """

    order: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    iterations_used: int
    criterion: Criterion
    separated_fraction: float

    def bounds(self, v: int) -> tuple[float, float]:
        return float(self.lower[v]), float(self.upper[v])

    def top(self, k: int) -> list[int]:
        return [int(v) for v in self.order[:k]]


# ---- operations ----

def init(g: Graph, criterion: Criterion, *, alpha: float | None = None,
         undirected: bool = False,
         max_iterations: int | None = None) -> KatzState:
    """Prepare a computation on g; alpha defaults to 1/(1 + max degree).

    Raises ParameterError for an empty graph, an attenuation factor at or
    above the divergence threshold, a criterion that does not fit the
    graph, or undirected mode on an asymmetric arc set.
    """
    n = g.node_count
    if n < 1:
        raise ParameterError("graph must have at least one node")
    if alpha is None:
        alpha = default_alpha(g)
    alpha = float(alpha)
    d = g.max_out_degree()
    validate_alpha(alpha, d)
    if criterion.kind == TOPK and criterion.k > n:
        raise ParameterError(
            f"topk k={criterion.k} exceeds node count {n}")
    if criterion.kind == PAIR and (criterion.u >= n or criterion.v >= n):
        raise ParameterError("pair criterion names a node outside the graph")
    if undirected and not g.is_symmetric():
        raise ParameterError(
            "undirected mode requires a symmetric arc set")
    derived_cap = max_iterations is None
    if derived_cap:
        max_iterations = default_iteration_cap(alpha, d, criterion.epsilon)
    elif max_iterations < 1:
        raise ParameterError("max_iterations must be >= 1")
    return KatzState(n, alpha, tail_gamma(alpha, d), criterion, undirected,
                     g.version, int(max_iterations), derived_cap)


def default_iteration_cap(alpha: float, max_out_degree: int,
                          epsilon: float) -> int:
    """10 * ceil(log(1/eps) / log(1/(alpha*deg_max))), floored at 1."""
    rho = alpha * max_out_degree
    if rho <= 0.0:
        return 64
    cap = 10 * math.ceil(math.log(1.0 / epsilon) / math.log(1.0 / rho))
    return max(1, cap)


def iterate_once(state: KatzState, g: Graph) -> None:
    """Advance one walk level and refresh bounds for every node.

    All nodes are advanced whether active or not; deactivation only
    affects which nodes the stopping rule still looks at.
    """
    if g.version != state.graph_version:
        raise StateError(
            "graph changed since init; static iteration would be unsound")
    level = g.out_csr() @ state.levels[-1]
    state.levels.append(np.multiply(level, state.alpha, out=level))
    state.r += 1
    state.katz += state.levels[-1]
    state.refresh_bounds()


def check_converged(state: KatzState) -> bool:
    """Evaluate the stopping rule; may permanently deactivate nodes.

    Ranking and top-k order `active` by descending lower bound as far as
    they need and end in one test: adjacent active nodes are separated.

    Ranking first looks for a witness in the previous order, O(n) and
    without sorting: adjacent active nodes a, b with max(lower[a],
    lower[b]) <= min(upper[a], upper[b]) - eps. It then returns False and
    leaves `active` as it was. This is the answer the sort would give. Say
    a ranks before b in the sorted order and x is the node just above b
    there (possibly a): lower[x] <= lower[a], which is at most
    min(upper[a], upper[b]) - eps as computed. Rounding x - eps is
    monotone in x, so that is at most upper[b] - eps as computed, and the
    adjacent-pair test fails for (x, b). Without a witness it sorts
    `active`, so the converged iteration, the final order and the bounds
    are those of checking every iteration with the sort.

    Top-k re-sorts, from the order the last check left them in, the
    active nodes whose lower bound reaches the least of the first k: any
    k bound the k-th largest from below. So the first k of `active` are
    the top k, ties by id. It drops the rest whose upper bound minus eps
    is below the k-th lower bound; a survivor means not converged.
    """
    if state.r < 1:
        raise StateError("check_converged needs at least one iteration")
    kind = state.criterion.kind
    eps = state.epsilon
    if kind == SCORE:
        return bool(np.max(state.upper - state.lower) < eps)
    if kind == PAIR:
        u, v, lower = state.criterion.u, state.criterion.v, state.lower
        w, x = (u, v) if (lower[u], -u) >= (lower[v], -v) else (v, u)
        return bool(lower[w] > state.upper[x] - eps)

    m = state.active
    lowers = state.lower[m]
    k = state.criterion.k
    if kind == RANKING:
        uppers = state.upper[m]
        bottom = np.minimum(uppers[:-1], uppers[1:])
        bottom -= eps
        if (np.maximum(lowers[:-1], lowers[1:]) <= bottom).any():
            return False  # a witness; see above
        state.active = (descending_order(state.lower, m, presorted=True)
                        if m is state._order else _full_order(state.lower))
        state._order, state._sorted = state.active, True
    else:
        cand = lowers >= lowers[:k].min()
        order = descending_order(state.lower, m[cand], presorted=True)
        prefix, rest = order[:k], np.concatenate([order[k:], m[~cand]])
        surviving = rest[state.upper[rest] - eps >= state.lower[prefix[-1]]]
        state.active = np.concatenate([prefix, surviving])
        if surviving.size:
            return False
    a = state.active
    return bool((state.upper[a[1:]] - eps < state.lower[a[:-1]]).all())


def run(state: KatzState, g: Graph) -> RankingResult:
    """Iterate until the stopping rule holds; error out at the cap.

    Always performs at least one iteration so bounds are meaningful.
    """
    iterate_once(state, g)
    _converge(state, g)
    return ranking_result(state)


def _converge(state: KatzState, g: Graph) -> None:
    """Check, raise at the cap, iterate: how run and update_batch end."""
    while not check_converged(state):
        if state.r >= state.max_iterations:
            raise ConvergenceError(
                f"stopping rule still unmet after {state.r} iterations "
                f"(widest bound interval {state.gap():.3e})",
                iterations=state.r, gap=state.gap())
        iterate_once(state, g)


def ranking_result(state: KatzState) -> RankingResult:
    """Snapshot the current bounds into an immutable ranking."""
    if state.r < 1:
        raise StateError("ranking_result needs at least one iteration")
    current = state._sorted and state._order is state.active
    order = state.active.copy() if current else _full_order(state.lower)
    lower, upper = state.lower.copy(), state.upper.copy()
    for arr in (order, lower, upper):
        arr.setflags(write=False)
    return RankingResult(order=order, lower=lower, upper=upper,
                         iterations_used=state.r, criterion=state.criterion,
                         separated_fraction=_separated_fraction(state, order))


def _separated_fraction(state: KatzState, order: np.ndarray) -> float:
    """RankingResult.separated_fraction, given state.lower's full order.

    It counts per node the lower bounds strictly above its upper bound. As
    bounds are >= 0, only positive ones are merged: a zero upper bound lies
    below all p positive lower bounds (the order's first p), a zero lower
    bound above none. In a stable sort of both sorted runs the j-th upper
    bound lands at j plus the lower bounds at or below it."""
    n, p = state.n, int(np.count_nonzero(state.lower))
    up = np.sort(state.upper)[n - np.count_nonzero(state.upper):]
    both = np.concatenate([state.lower[order[:p][::-1]], up])
    below = np.flatnonzero(np.argsort(both, kind="stable") >= p)
    not_above = int(below.sum()) - up.size * (up.size - 1) // 2
    return (n * p - not_above) / (n * (n - 1) // 2) if n > 1 else 1.0


def _full_order(lower: np.ndarray) -> np.ndarray:
    """descending_order of all nodes for bounds >= 0: only the positive
    ones are sorted; the zeros, nodes without out-arcs, follow by id."""
    return np.concatenate([descending_order(lower, np.flatnonzero(lower != 0)),
                           np.flatnonzero(lower == 0)])


def descending_order(values: np.ndarray, ids: np.ndarray, *,
                     presorted: bool = False) -> np.ndarray:
    """ids ordered by descending values[id], ties by ascending id.

    Equal to ids[np.lexsort((ids, -values[ids]))] for finite values (0.0
    and -0.0 tie), in two cheaper sorts: a float argsort, then an int64
    sort of run * n + id, where run numbers the groups of equal values in
    order, which puts the ids inside each group in order. ids must lie in
    [0, len(values)). `presorted` ids, in an earlier order, get a stable
    argsort, and the int64 sort spans only the groups left out of order.
    """
    ids = np.asarray(ids, dtype=np.int64)
    keys = -values[ids]  # numpy reuses the temporary when large
    pos = np.argsort(keys, kind="stable" if presorted else None)
    keys, out, lo, hi = keys[pos], ids[pos], 0, ids.size
    cut = np.concatenate([[True], keys[1:] != keys[:-1], [True]])
    if presorted:  # [lo, hi): the groups from the first to the last bad
        bad = np.flatnonzero(~cut[1:-1] & (out[1:] < out[:-1]))
        if not bad.size:
            return out
        lo = bad[0] - np.argmax(cut[bad[0]::-1])
        hi = bad[-1] + 2 + np.argmax(cut[bad[-1] + 2:])
    run = np.cumsum(cut[lo:hi])  # from 1: a common offset keeps the order
    run *= values.size
    span = out[lo:hi]  # a view: the ids are sorted in place
    span += run
    span.sort()
    span -= run
    return out

"""Reference methods the bounded engine is checked and benchmarked against.

foster        walk-recurrence heuristic, one sparse matvec per round
cg_katz       unpreconditioned conjugate gradient on the linear-system form
dense_oracle  exact dense solve, the ground truth for small graphs
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import default_alpha, descending_order, validate_alpha
from .errors import (ConvergenceError, MethodNotApplicableError, NumericError,
                     ParameterError)
from .graph import Graph

DENSE_ORACLE_MAX_NODES = 2000


@dataclass(frozen=True)
class ScoreVector:
    """Per-node scores from one method, with how hard it worked."""

    method: str
    values: np.ndarray
    iterations: int | None = None
    residual: float | None = None

    def ranking(self) -> np.ndarray:
        """Node ids by descending score, ties by ascending id."""
        return descending_order(self.values, np.arange(len(self.values)))


def foster(g: Graph, alpha: float | None = None, tol: float = 1e-9,
           max_iter: int = 1000) -> ScoreVector:
    """Iterate c <- alpha*A*c + 1 from all ones until the sup-norm change
    drops below tol; returns the final iterate shifted down by one.

    The shifted iterate after r rounds equals the attenuated walk sum
    truncated at length r, so this agrees with the bounded engine's
    partial sums round for round.

    Raises ConvergenceError at max_iter, carrying the (shifted) last
    iterate in `partial`.
    """
    if alpha is None:
        alpha = default_alpha(g)
    validate_alpha(alpha, g.max_out_degree())
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    A = g.out_csr()
    c = np.ones(g.node_count, dtype=np.float64)
    delta = np.inf
    for it in range(1, max_iter + 1):
        nxt = alpha * (A @ c) + 1.0
        delta = float(np.max(np.abs(nxt - c))) if len(c) else 0.0
        c = nxt
        if delta < tol:
            return ScoreVector("foster", c - 1.0, iterations=it, residual=delta)
    raise ConvergenceError(
        f"foster did not reach tol={tol} within {max_iter} iterations "
        f"(last change {delta:.3e})",
        partial=ScoreVector("foster", c - 1.0, iterations=max_iter,
                            residual=delta),
        iterations=max_iter)


def cg_katz(g: Graph, alpha: float | None = None, residual_tol: float = 1e-15,
            max_iter: int | None = None) -> ScoreVector:
    """Solve (I - alpha*A) z = 1 by scipy's conjugate gradient from z = 1,
    then return alpha*A*z, the Katz scores.

    Requires a symmetric arc set; the system matrix is then positive
    definite for every admissible alpha. Up to max_iter rounds run, until
    the recursively updated residual's 2-norm is below residual_tol. The
    reported residual is the true one, the 2-norm of 1 - z + alpha*A*z.
    """
    # imported here: it adds about 10 MB to `import katzbounds`
    from scipy.sparse.linalg import LinearOperator, cg

    if alpha is None:
        alpha = default_alpha(g)
    validate_alpha(alpha, g.max_out_degree())
    if not residual_tol > 0:
        raise ParameterError(f"residual_tol must be > 0, got {residual_tol}")
    if not g.is_symmetric():
        raise MethodNotApplicableError(
            "cg_katz needs a symmetric arc set (undirected graph)")
    n = g.node_count
    if max_iter is None:
        max_iter = 10 * n + 100
    A = g.out_csr()
    system = LinearOperator((n, n), matvec=lambda v: v - alpha * (A @ v),
                            dtype=np.float64)
    rounds, capped = 0, np.ones(n)

    def count(x: np.ndarray) -> None:
        nonlocal rounds, capped
        rounds += 1
        if rounds == max_iter:
            capped = x.copy()

    # scipy tests the residual before each round, not after the last one
    z, info = cg(system, np.ones(n), x0=np.ones(n), rtol=0.0,
                 atol=residual_tol, maxiter=max_iter + 1, callback=count)
    if info:
        z, rounds = capped, max_iter
    scores = alpha * (A @ z)
    if not np.isfinite(scores).all():
        raise NumericError("conjugate gradient produced non-finite scores")
    sv = ScoreVector("cg", scores, iterations=rounds,
                     residual=float(np.linalg.norm(1.0 - z + scores)))
    if info:
        raise ConvergenceError(
            f"cg residual still above {residual_tol} after {max_iter} "
            f"iterations (true residual {sv.residual:.3e})",
            partial=sv, iterations=max_iter)
    return sv


def dense_oracle(g: Graph, alpha: float | None = None) -> ScoreVector:
    """Exact Katz scores from a dense direct solve (LU with partial
    pivoting); intended as ground truth for graphs up to 2000 nodes.

    Works on directed graphs; raises NumericError should the system be
    singular (it cannot be for an admissible alpha) and ParameterError
    beyond the size limit.
    """
    n = g.node_count
    if n > DENSE_ORACLE_MAX_NODES:
        raise ParameterError(
            f"dense oracle limited to {DENSE_ORACLE_MAX_NODES} nodes, got {n}")
    if alpha is None:
        alpha = default_alpha(g)
    validate_alpha(alpha, g.max_out_degree())
    A = g.out_csr().toarray()
    try:
        z = np.linalg.solve(np.eye(n) - alpha * A, np.ones(n))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"dense solve failed: {exc}") from exc
    return ScoreVector("dense", alpha * (A @ z))

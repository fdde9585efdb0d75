"""Katz centrality rankings from iteratively tightened bounds.

The engine keeps a certified lower and upper bound per node and stops
as soon as the requested question (full ranking, top k, scores, or a
single pair) is answered to within epsilon. Updates to the graph reuse
the existing state instead of starting over.
"""
from .baselines import ScoreVector, cg_katz, dense_oracle, foster
from .dynamic import UpdateStats, load_batches, update_batch
from .engine import (Criterion, KatzState, RankingResult, check_converged,
                     default_alpha, init, iterate_once, ranking_result, run,
                     tail_gamma, validate_alpha)
from .errors import (BatchPreconditionError, ConvergenceError, KatzError,
                     MethodNotApplicableError, NodeRangeError, NumericError,
                     ParameterError, ParseError, StateError)
from .generate import generate
from .graph import EdgeBatch, Graph, dumps_edge_list, load_edge_list

__version__ = "0.1.0"

__all__ = [
    "BatchPreconditionError",
    "ConvergenceError",
    "Criterion",
    "EdgeBatch",
    "Graph",
    "KatzError",
    "KatzState",
    "MethodNotApplicableError",
    "NodeRangeError",
    "NumericError",
    "ParameterError",
    "ParseError",
    "RankingResult",
    "ScoreVector",
    "StateError",
    "UpdateStats",
    "cg_katz",
    "check_converged",
    "default_alpha",
    "dense_oracle",
    "dumps_edge_list",
    "foster",
    "generate",
    "init",
    "iterate_once",
    "load_batches",
    "load_edge_list",
    "ranking_result",
    "run",
    "tail_gamma",
    "update_batch",
    "validate_alpha",
    "__version__",
]

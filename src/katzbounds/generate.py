"""Deterministic edge-list generators for benchmark and test instances.

Every model returns its edges as a (k, 2) int64 array of undirected
pairs (u < v, no self-loops); loading them with undirected=True yields
both arc directions. The rmat model is seeded and reproducible: the
same seed always produces the same edges, in the same order.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .graph import _distinct

MODELS = ("complete", "star", "path", "grid", "rmat")


def complete_edges(n: int) -> np.ndarray:
    """All unordered pairs of n nodes, by first then second endpoint."""
    _need(n >= 1, f"complete model needs >= 1 node, got {n}")
    return _pairs(*np.triu_indices(n, 1))


def star_edges(n: int) -> np.ndarray:
    """Node 0 joined to every other node."""
    _need(n >= 1, f"star model needs >= 1 node, got {n}")
    return _pairs(np.zeros(n - 1, dtype=np.int64), np.arange(1, n))


def path_edges(n: int) -> np.ndarray:
    _need(n >= 1, f"path model needs >= 1 node, got {n}")
    return _pairs(np.arange(n - 1), np.arange(1, n))


def grid_edges(n: int) -> np.ndarray:
    """Near-square two-dimensional lattice on exactly n nodes.

    Uses floor(sqrt(n)) columns; the last row may be partial. Node ids
    are row-major, neighbors are right and down; edges are ordered by
    node, the right one before the down one.
    """
    _need(n >= 1, f"grid model needs >= 1 node, got {n}")
    cols = max(1, math.isqrt(n))
    i = np.arange(n, dtype=np.int64)
    # One row per node: its right, then its down neighbour, where present.
    dst = np.stack([i + 1, i + cols], axis=1)
    keep = np.stack([((i + 1) % cols != 0) & (i + 1 < n), i + cols < n],
                    axis=1)
    return _pairs(np.broadcast_to(i[:, None], dst.shape)[keep], dst[keep])


# The rmat model's quadrant probabilities a, b, c, d (Graph500's).
RMAT_QUADRANTS = (0.57, 0.19, 0.19, 0.05)


def rmat_edges(n: int, edge_factor: int = 8, seed: int = 0) -> np.ndarray:
    """Recursive-matrix random graph on n = 2^scale nodes.

    Samples edge_factor * n endpoint pairs by recursively picking
    adjacency-matrix quadrants with the RMAT_QUADRANTS probabilities,
    then drops self-loops and collapses duplicates (undirected), so the
    final edge count is a little below edge_factor * n. Edges come
    sorted by (u, v). Fully determined by the seed.
    """
    _need(n >= 2 and (n & (n - 1)) == 0,
          f"rmat model needs a power-of-two node count >= 2, got {n}")
    _need(edge_factor >= 1, f"edge_factor must be >= 1, got {edge_factor}")
    a, b, c, _ = RMAT_QUADRANTS
    scale = n.bit_length() - 1
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    draw = np.empty(m)
    bit, other = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    for _bit in range(scale):  # buffers reused; same stream as rng.random(m)
        rng.random(out=draw)
        np.greater_equal(draw, a + b, out=bit)
        src <<= 1
        src |= bit
        # quadrant b or d: ((draw >= a) & (draw < a + b)) | (draw >= a + b + c)
        np.greater_equal(draw, a, out=bit)
        bit &= np.less(draw, a + b, out=other)
        bit |= np.greater_equal(draw, a + b + c, out=other)
        dst <<= 1
        dst |= bit
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    return _pairs(*np.divmod(_distinct(lo[keep] * n + hi[keep]), n))


def generate(model: str, n: int, *, seed: int = 0,
             edge_factor: int = 8) -> np.ndarray:
    """Dispatch by model name; see MODELS for the valid names."""
    if model == "complete":
        return complete_edges(n)
    if model == "star":
        return star_edges(n)
    if model == "path":
        return path_edges(n)
    if model == "grid":
        return grid_edges(n)
    if model == "rmat":
        return rmat_edges(n, edge_factor=edge_factor, seed=seed)
    raise ParameterError(
        f"unknown model {model!r}; choose one of {', '.join(MODELS)}")


def _pairs(src, dst) -> np.ndarray:
    """The (k, 2) int64 array of (src[i], dst[i]) rows."""
    return np.stack([src, dst], axis=1).astype(np.int64, copy=False)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)

"""Deterministic edge-list generators for benchmark and test instances.

All models emit undirected edge pairs (u < v except self-free by
construction); loading them with undirected=True yields both arc
directions. The rmat model is seeded and reproducible: the same seed
always produces the same file.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

Edge = tuple[int, int]

MODELS = ("complete", "star", "path", "grid", "rmat")


def complete_edges(n: int) -> list[Edge]:
    """All unordered pairs of n nodes."""
    _need(n >= 1, f"complete model needs >= 1 node, got {n}")
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_edges(n: int) -> list[Edge]:
    """Node 0 joined to every other node."""
    _need(n >= 1, f"star model needs >= 1 node, got {n}")
    return [(0, i) for i in range(1, n)]


def path_edges(n: int) -> list[Edge]:
    _need(n >= 1, f"path model needs >= 1 node, got {n}")
    return [(i, i + 1) for i in range(n - 1)]


def grid_edges(n: int) -> list[Edge]:
    """Near-square two-dimensional lattice on exactly n nodes.

    Uses floor(sqrt(n)) columns; the last row may be partial. Node ids
    are row-major, neighbors are right and down.
    """
    _need(n >= 1, f"grid model needs >= 1 node, got {n}")
    cols = max(1, math.isqrt(n))
    edges = []
    for i in range(n):
        if (i + 1) % cols != 0 and i + 1 < n:
            edges.append((i, i + 1))
        if i + cols < n:
            edges.append((i, i + cols))
    return edges


def rmat_edges(n: int, edge_factor: int = 8, seed: int = 0,
               quadrants: tuple[float, float, float, float] =
               (0.57, 0.19, 0.19, 0.05)) -> list[Edge]:
    """Recursive-matrix random graph on n = 2^scale nodes.

    Samples edge_factor * n endpoint pairs by recursively picking
    adjacency-matrix quadrants with the given probabilities, then drops
    self-loops and collapses duplicates (undirected), so the final edge
    count is a little below edge_factor * n. Fully determined by the
    seed.
    """
    _need(n >= 2 and (n & (n - 1)) == 0,
          f"rmat model needs a power-of-two node count >= 2, got {n}")
    _need(edge_factor >= 1, f"edge_factor must be >= 1, got {edge_factor}")
    a, b, c, _ = quadrants
    _need(abs(sum(quadrants) - 1.0) < 1e-9, "quadrant probabilities must sum to 1")
    scale = n.bit_length() - 1
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _bit in range(scale):
        draw = rng.random(m)
        src_bit = draw >= a + b
        dst_bit = ((draw >= a) & (draw < a + b)) | (draw >= a + b + c)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    packed = np.sort(lo[keep] * n + hi[keep])
    first = np.ones(packed.size, dtype=bool)
    np.not_equal(packed[1:], packed[:-1], out=first[1:])
    packed = packed[first]
    return list(zip((packed // n).tolist(), (packed % n).tolist()))


def generate(model: str, n: int, *, seed: int = 0,
             edge_factor: int = 8) -> list[Edge]:
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


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ParameterError(message)

"""Benchmark instance generators."""
from __future__ import annotations

import math

import numpy as np
import pytest

from katzbounds import Graph, ParameterError, generate


def test_complete_edge_count():
    edges = generate("complete", 6)
    assert len(edges) == 15
    assert all(u < v for u, v in edges)


def test_star_shape():
    edges = generate("star", 5)
    assert edges.tolist() == [[0, 1], [0, 2], [0, 3], [0, 4]]


def test_path_shape():
    assert generate("path", 4).tolist() == [[0, 1], [1, 2], [2, 3]]


def test_grid_square():
    edges = generate("grid", 9)
    g = Graph.from_edges(9, edges, undirected=True)
    assert g.has_arc(0, 1) and g.has_arc(0, 3)
    assert g.has_arc(4, 5) and g.has_arc(4, 7)
    assert not g.has_arc(2, 3)  # no wraparound
    assert len(edges) == 12


def test_grid_hundred_by_hundred():
    edges = generate("grid", 10000)
    # 2 * 100 * 99 undirected edges
    assert len(edges) == 19800


def test_rmat_reproducible_and_clean():
    e1 = generate("rmat", 256, seed=5)
    e2 = generate("rmat", 256, seed=5)
    e3 = generate("rmat", 256, seed=6)
    assert e1.tolist() == e2.tolist()
    assert e1.tolist() != e3.tolist()
    assert all(u < v for u, v in e1)       # canonical, no self loops
    assert len(set(map(tuple, e1.tolist()))) == len(e1)  # deduplicated
    assert all(0 <= u and v < 256 for u, v in e1)


def pairs(edges: np.ndarray) -> list[tuple[int, int]]:
    return [tuple(p) for p in edges.tolist()]


# The list-building generators the array ones replaced, for comparison.

def complete_reference(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def star_reference(n: int):
    return [(0, i) for i in range(1, n)]


def path_reference(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def grid_reference(n: int):
    cols = max(1, math.isqrt(n))
    edges = []
    for i in range(n):
        if (i + 1) % cols != 0 and i + 1 < n:
            edges.append((i, i + 1))
        if i + cols < n:
            edges.append((i, i + cols))
    return edges


REFERENCES = {"complete": complete_reference, "star": star_reference,
              "path": path_reference, "grid": grid_reference}


# complete at 10^4 nodes would be 5 * 10^7 reference tuples; 300 stands in.
SIZES = [(model, n) for model in REFERENCES
         for n in (1, 2, 9, 10, 17, 10000) if (model, n) != ("complete", 10000)]


@pytest.mark.parametrize("model,n", SIZES + [("complete", 300)])
def test_generators_match_list_references(model, n):
    edges = generate(model, n)
    assert edges.dtype == np.int64
    assert edges.shape == (len(REFERENCES[model](n)), 2)
    assert pairs(edges) == REFERENCES[model](n)


def rmat_reference(n: int, seed: int, edge_factor: int = 8):
    """The generator with np.unique and a per-pair loop, for comparison."""
    a, b, c = 0.57, 0.19, 0.19
    m = n * edge_factor
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for _bit in range(n.bit_length() - 1):
        draw = rng.random(m)
        src = (src << 1) | (draw >= a + b)
        dst = (dst << 1) | (((draw >= a) & (draw < a + b)) |
                            (draw >= a + b + c))
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    return [(int(p // n), int(p % n))
            for p in np.unique(lo[keep] * n + hi[keep])]


@pytest.mark.parametrize("n", [2, 2**7, 2**12])
@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("edge_factor", [1, 8])
def test_rmat_array_matches_reference(n, seed, edge_factor):
    edges = generate("rmat", n, seed=seed, edge_factor=edge_factor)
    assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
    assert pairs(edges) == rmat_reference(n, seed, edge_factor)


@pytest.mark.parametrize("seed", [3, 11])
def test_rmat_matches_unique_reference(seed):
    edges = generate("rmat", 2**10, seed=seed)
    assert pairs(edges) == rmat_reference(2**10, seed)
    assert edges.dtype == np.int64


def test_rmat_is_skewed():
    edges = generate("rmat", 1024, seed=1)
    g = Graph.from_edges(1024, edges, undirected=True)
    degs = g.out_degrees()
    # recursive quadrant bias concentrates mass on low ids
    assert degs.max() > 4 * max(1, int(degs.mean()))


def test_rmat_requires_power_of_two():
    with pytest.raises(ParameterError):
        generate("rmat", 1000)


def test_unknown_model_and_bad_sizes():
    with pytest.raises(ParameterError):
        generate("torus", 9)
    with pytest.raises(ParameterError):
        generate("path", 0)
    with pytest.raises(ParameterError):
        generate("rmat", 64, edge_factor=0)

"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program comes from here and is fully
determined by the workload seed: the rmat and grid edge lists (through
the package's own generator), the directed orientation, the query pairs
and the edit streams. Each concern draws from its own stream, keyed by
(seed, purpose), so adding draws to one never shifts another.
"""
from __future__ import annotations

import numpy as np

from katzbounds import EdgeBatch

# Stream keys: one independent random stream per purpose (VERIFY picks
# the dynamic batches that are checked against a fresh run).
ORIENT, PAIRS, EDITS, VERIFY = 1, 2, 3, 4

# Batch-size mixes, one entry per (delete, re-insert) pair of a cycle.
# dynamic-local: single edges only, one per cost stratum. 24 pairs make
# a cycle of about 24 s; its 48 updates put the tail at p79, clear of the
# step in cost between edges deep inside the lattice (the top third) and
# edges near its border.
LOCAL_SIZES = (1,) * 24
# dynamic-fallback: two thirds of the batches are single edges, so the
# median update falls inside that size class, while the 10-, 100- and
# 1000-edge batches give the shape of the paper's batch-size
# experiments. A cycle takes about 20 s.
FALLBACK_SIZES = (1,) * 8 + (10, 10, 100, 1000)


def rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose])


def orient(edges: list[tuple[int, int]], seed: int) -> list[tuple[int, int]]:
    """Direct each undirected pair by a seeded coin flip."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    flip = rng(seed, ORIENT).random(len(pairs)) < 0.5
    src = np.where(flip, pairs[:, 1], pairs[:, 0])
    dst = np.where(flip, pairs[:, 0], pairs[:, 1])
    return list(zip(src.tolist(), dst.tolist()))


def node_pairs(n: int, seed: int):
    """Endless stream of distinct seeded node pairs."""
    r = rng(seed, PAIRS)
    while True:
        u, v = r.choice(n, 2, replace=False)
        yield int(u), int(v)


def both_ways(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in edges] + [(v, u) for u, v in edges]


def edit_stream(edges: list[tuple[int, int]], sizes, key, seed: int):
    """Endless stream of (delete, re-insert) batch pairs.

    Each cycle visits `sizes` in a seeded order; a size s deletes s
    distinct seeded edges (both arcs) and the next batch puts the same
    edges back. The graph is whole again after every pair, so no degree
    ever exceeds its start value and the initial alpha stays admissible.

    A single-edge update costs from a few thousand to a few hundred
    thousand node visits, depending on where the edge sits. So the
    single-edge batches of a cycle are stratified: edges are ranked by
    `key`, a cheap proxy for that cost, and cut into one equal-count
    stratum per single-edge batch; each cycle draws one edge from every
    stratum. Every cycle then holds the same spread of edge costs, while
    the edges themselves change with the seed.
    """
    r = rng(seed, EDITS)
    sizes = np.asarray(sizes)
    strata = np.array_split(np.argsort(key, kind="stable"),
                            int(np.sum(sizes == 1)))
    while True:
        stratum = iter(r.permutation(len(strata)).tolist())
        for s in r.permutation(sizes).tolist():
            if s == 1:
                picked = [int(r.choice(strata[next(stratum)]))]
            else:
                picked = r.choice(len(edges), s, replace=False).tolist()
            arcs = both_ways([edges[i] for i in picked])
            yield EdgeBatch(deletions=arcs), EdgeBatch(insertions=arcs)


def boundary_distance(edges: list[tuple[int, int]], side: int) -> np.ndarray:
    """Per lattice edge: steps from its nearer endpoint to the border."""
    ids = np.asarray(edges, dtype=np.int64)
    row, col = ids // side, ids % side
    dist = np.minimum(np.minimum(row, col),
                      np.minimum(side - 1 - row, side - 1 - col))
    return dist.min(axis=1)


def hub_degree(edges: list[tuple[int, int]], n: int) -> np.ndarray:
    """Per undirected edge: the larger degree of its two endpoints."""
    ids = np.asarray(edges, dtype=np.int64)
    degrees = np.bincount(ids.ravel(), minlength=n)
    return degrees[ids].max(axis=1)


def properties(n: int, edges, undirected: bool) -> dict:
    """Node count, arc count and max out-degree of an edge list.

    Generated lists hold no duplicates or self-loops, so with
    undirected=True every pair is exactly two arcs.
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = pairs.ravel() if undirected else pairs[:, 0]
    degrees = np.bincount(src, minlength=n)
    return {"nodes": n, "arcs": int(len(src)),
            "max_out_degree": int(degrees.max()) if n else 0}

"""Graph and batch builders shared across the test modules."""
from __future__ import annotations

import random

import numpy as np
from scipy import sparse

from katzbounds import EdgeBatch, Graph


def row(A: sparse.csr_matrix, v: int) -> list[int]:
    """Column ids of row v of a CSR matrix, e.g. out_csr() or in_csr()."""
    return A.indices[A.indptr[v]:A.indptr[v + 1]].tolist()


def arcs(g: Graph) -> list[tuple[int, int]]:
    """All arcs of g, read from out_csr(), ordered by source, then target."""
    A = g.out_csr()
    src = np.repeat(np.arange(g.node_count), np.diff(A.indptr))
    return list(zip(src.tolist(), A.indices.tolist()))


def complete(n: int) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, edges, undirected=True)


def star(n: int) -> Graph:
    # node 0 is the hub
    return Graph.from_edges(n, [(0, i) for i in range(1, n)], undirected=True)


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)],
                            undirected=True)


def cycle(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, undirected=True)


def grid(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges, undirected=True)


def er_graph(n: int, p: float, seed: int, undirected: bool = True) -> Graph:
    rng = random.Random(seed)
    edges = []
    if undirected:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((i, j))
    else:
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < p:
                    edges.append((i, j))
    return Graph.from_edges(n, edges, undirected=undirected)


def random_batch(g: Graph, rng: random.Random, max_ops: int = 5,
                 undirected: bool = False) -> EdgeBatch:
    """Valid batch against g: deletions sampled from present arcs,
    insertions from absent ones. Undirected batches mirror every arc."""
    n = g.node_count
    present = arcs(g)
    if undirected:
        present = [(u, v) for u, v in present if u < v]
    rng.shuffle(present)
    deletions = present[:rng.randint(0, min(max_ops, len(present)))]

    insertions = []
    want = rng.randint(0, max_ops)
    tries = 0
    while len(insertions) < want and tries < 50 * max_ops:
        tries += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.has_arc(u, v) or (u, v) in insertions:
            continue
        if undirected:
            if u > v:
                u, v = v, u
            if (u, v) in insertions:
                continue
        insertions.append((u, v))

    if undirected:
        deletions = [a for uv in deletions for a in (uv, uv[::-1])]
        insertions = [a for uv in insertions for a in (uv, uv[::-1])]
    return EdgeBatch(insertions=insertions, deletions=deletions)

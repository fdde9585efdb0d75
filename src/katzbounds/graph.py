"""Directed graph held in flat arrays, with batch mutation.

The node universe is fixed at construction; arcs form a set (no parallel
arcs, self-loops permitted), stored once as the compressed-row 0/1
matrix (CSR: `indptr`, int32 `indices` with each row sorted, float64
ones) that the numeric kernels multiply with. Membership and the
position an arc takes in `indices` come from a binary search inside
each row, vectorised over all arcs asked about. Degrees, `arcs()` and
the symmetry test are derived from the same arrays; the transposed
matrix is built only when `in_csr()` is asked for. A mutation validates
its whole batch, then splices `indices` once at the positions found,
shifts the row pointers by the sources' degree changes and bumps the
version once; the maximum out-degree follows from those rows.

Memory is about 12 bytes per arc (index, value) plus 4-8 bytes per node,
against roughly 140 bytes per arc for Python sets.

Edge lists are tokenized with numpy in blocks of whole lines, parsed on
one thread per CPU (numpy releases the interpreter lock) and kept in
file order. Input the fast path cannot vouch for is re-read line by
line, which reports the exact line of the first error; either way the
graph is built by the same array code.
"""
from __future__ import annotations

import io
import itertools
import logging
import operator
import os
from array import array
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from .errors import (BatchPreconditionError, NodeRangeError,
                     ParameterError, ParseError)

log = logging.getLogger(__name__)

Arc = tuple[int, int]

# Node ids must stay indexable by 32-bit sparse indices.
MAX_NODE_ID = 2**31 - 1

# An edge list may imply, by its NODES header or its largest id, at most
# max(MIN_NODE_LIMIT, NODES_PER_ARC_LINE * arc lines) nodes. The graph and
# the engine hold arrays of one entry per node, so this bounds their memory
# by a multiple of the file's size, while small files with isolated nodes
# still load (MIN_NODE_LIMIT nodes take 8 MiB per int64 array).
NODES_PER_ARC_LINE = 64
MIN_NODE_LIMIT = 1 << 20


class EdgeBatch:
    """A set of arc insertions and deletions applied as one unit.

    Preconditions (checked against a graph before anything mutates):
    inserted arcs must be absent, deleted arcs must be present, and the
    two lists must not overlap or contain duplicates.

    The arcs are converted once, here, from (u, v) pairs or (k, 2)
    arrays to the read-only (k, 2) int64 arrays `ins` and `dels`, on
    which every check runs, so a check's answer holds for the batch; an
    id outside [0, MAX_NODE_ID], which no graph can hold, is refused
    here. `insertions` and `deletions` give them back as int pairs.
    """

    __slots__ = ("ins", "dels", "_symmetric")

    def __init__(self, insertions: Iterable[Arc] = (),
                 deletions: Iterable[Arc] = ()):
        self.ins = arc_array(insertions).astype(np.int64)
        self.dels = arc_array(deletions).astype(np.int64)
        self.ins.flags.writeable = self.dels.flags.writeable = False
        self._symmetric = None  # not yet known
        ids = np.concatenate([self.ins, self.dels]).ravel()
        bad = (ids < 0) | (ids > MAX_NODE_ID)
        if bad.any():
            raise NodeRangeError(f"node id {ids[np.argmax(bad)]} outside "
                                 f"[0, {MAX_NODE_ID}]")

    @property
    def insertions(self) -> list[Arc]:
        return _arc_list(self.ins)

    @property
    def deletions(self) -> list[Arc]:
        return _arc_list(self.dels)

    def validate_shape(self) -> None:
        """Structural checks that need no graph: duplicates and overlap."""
        ins, dels = _pair_keys(self.ins), _pair_keys(self.dels)
        keys = np.concatenate([ins, dels])
        if _distinct(keys).size == keys.size:
            return
        # Name the first repeat in list order, else the least overlap.
        for arcs, own, what in ((self.ins, ins, "insertion"),
                                (self.dels, dels, "deletion")):
            order = np.argsort(own, kind="stable")
            repeat = order[1:][own[order[1:]] == own[order[:-1]]]
            if repeat.size:
                arc = tuple(arcs[repeat.min()].tolist())
                raise BatchPreconditionError(f"duplicate {what} of arc {arc}")
        arc = divmod(int(np.intersect1d(ins, dels)[0]), 2**31)
        raise BatchPreconditionError(
            f"arc {arc} appears in both insertions and deletions")

    def is_symmetric(self) -> bool:
        """True when both lists are closed under arc reversal (cached)."""
        if self._symmetric is None:
            self._symmetric = _closed_under_reversal(self.ins) and \
                _closed_under_reversal(self.dels)
        return self._symmetric

    def __len__(self) -> int:
        return len(self.ins) + len(self.dels)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.ins, other.ins) and \
            np.array_equal(self.dels, other.dels)

    def __repr__(self) -> str:
        return (f"EdgeBatch(insertions={self.insertions!r}, "
                f"deletions={self.deletions!r})")


def _arc_list(arcs: np.ndarray) -> list[Arc]:
    return list(zip(arcs[:, 0].tolist(), arcs[:, 1].tolist()))


def _pair_keys(arcs: np.ndarray) -> np.ndarray:
    """u * 2^31 + v per arc, the one arc key, ordered by source, then
    target; built in place (the unsafe cast of in-range ids is exact)."""
    keys = arcs[:, 0].astype(np.int64)
    keys <<= 31
    return np.bitwise_or(keys, arcs[:, 1], out=keys, dtype=np.int64,
                         casting="unsafe")


def _closed_under_reversal(arcs: np.ndarray) -> bool:
    return np.array_equal(_distinct(_pair_keys(arcs)),
                          _distinct(_pair_keys(arcs[:, ::-1])))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted; sorts keys in place."""
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def arc_array(arcs: Iterable[Arc]) -> np.ndarray:
    """(k, 2) integer array of (source, target) rows. Such arrays pass as
    they are; any other array is refused, and so is a list whose ids are
    not integers or not twice as many as its entries."""
    if isinstance(arcs, np.ndarray):
        if arcs.dtype.kind not in "iu" or arcs.ndim != 2 or arcs.shape[1] != 2:
            raise ParameterError(f"arcs must be a (k, 2) integer array, got "
                                 f"shape {arcs.shape} of {arcs.dtype}")
        return arcs
    arcs = arcs if isinstance(arcs, list) else list(arcs)
    try:
        ids = map(operator.index, itertools.chain.from_iterable(arcs))
        ids = np.fromiter(ids, dtype=np.int64)
    except TypeError:  # an entry or an id of the wrong type
        ids = None
    except OverflowError:  # an id past int64; named as EdgeBatch does
        bad = next(i for i in itertools.chain(*arcs) if not 0 <= i <= MAX_NODE_ID)
        raise NodeRangeError(f"node id {bad} outside [0, {MAX_NODE_ID}]") from None
    if ids is None or ids.size != 2 * len(arcs):
        raise ParameterError("arcs must be (u, v) pairs of integers")
    return ids.reshape(-1, 2)


# Graph.apply_batch splices up to this many deleted plus inserted arcs by
# concatenating the kept slices, which copies `indices` once; beyond it
# np.delete and/or np.insert win. 955k int32 arcs, slices against them:
# deletions only 0.33/0.82 ms at 2 arcs, 0.52/0.71 at 500, 1.19/0.73 at
# 2000; insertions only 0.34/0.79, 0.70/0.75, 1.98/0.81; half of each
# 0.35/1.7 ms at 4 arcs, 1.6/1.6 at 2000.
SPLICE_BY_SLICES = 500


def _splice(a: np.ndarray, gone: np.ndarray, at: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """a without its entries at the sorted positions `gone`, with values
    inserted before the sorted positions `at` (positions in a)."""
    pieces, prev, j, at = [], 0, 0, at.tolist()
    for p in gone.tolist() + [a.size]:
        while j < len(at) and at[j] <= p:
            pieces += (a[prev:at[j]], values[j:j + 1])
            prev, j = at[j], j + 1
        pieces.append(a[prev:p])
        prev = p + 1
    return np.concatenate(pieces)


class Graph:
    """Mutable directed graph over the fixed universe 0..node_count-1."""

    __slots__ = ("_n", "_csr", "_ones", "_in_csr", "_symmetric", "_top",
                 "_version", "_checked")

    def __init__(self, node_count: int):
        if node_count < 0:
            raise NodeRangeError(f"node_count must be >= 0, got {node_count}")
        self._n = int(node_count)
        self._version = -1
        self._ones = None
        self._set_keys(np.empty(0, dtype=np.int64))

    # ---- construction helpers ----

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[Arc],
                   undirected: bool = False) -> "Graph":
        """Build a graph from (u, v) pairs or a (k, 2) array; duplicates
        collapse.

        With undirected=True every pair contributes both arc directions.
        """
        g = cls(node_count)
        pairs = arc_array(edges)
        bad = (pairs < 0) | (pairs >= g._n)
        if bad.any():
            g._check_node(int(pairs.ravel()[np.argmax(bad.ravel())]))
        keys = _pair_keys(pairs)
        if undirected:
            keys = np.concatenate([keys, _pair_keys(pairs[:, ::-1])])
        keys = _distinct(keys)  # frees the sorted keys before the build
        g._set_keys(keys)
        g._symmetric = True if undirected else None  # None: not yet known
        return g

    # ---- read access ----

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def arc_count(self) -> int:
        return self._csr.nnz

    @property
    def version(self) -> int:
        """Monotone counter bumped by every call that changes the arc set."""
        return self._version

    def has_arc(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return bool(self._find(np.array([u]), np.array([v]))[1][0])

    def max_out_degree(self) -> int:
        return self._top[0]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self._csr.indptr).astype(np.int64)

    def arcs(self) -> Iterator[Arc]:
        """All arcs, ordered by source, then target."""
        src = np.repeat(np.arange(self._n), self.out_degrees())
        return zip(src.tolist(), self._csr.indices.tolist())

    def is_symmetric(self) -> bool:
        """True when the arc set is closed under reversal (cached)."""
        if self._symmetric is None:
            T = self._csr.T.tocsr()  # not kept: 12 bytes per arc
            self._symmetric = np.array_equal(self._csr.indptr, T.indptr) and \
                np.array_equal(self._csr.indices, T.indices)
        return self._symmetric

    def out_csr(self) -> sparse.csr_matrix:
        """Row-per-source 0/1 adjacency, columns sorted.

        This is the stored matrix, the same object until the version
        changes; callers must not modify it. Two graphs with equal arc
        sets hold bitwise-identical matrices.
        """
        return self._csr

    def in_csr(self) -> sparse.csr_matrix:
        """Row-per-target transpose of out_csr(), built on first use."""
        if self._in_csr is None:
            self._in_csr = self._csr.T.tocsr()
        return self._in_csr

    # ---- mutation ----

    def apply_batch(self, batch: EdgeBatch) -> np.ndarray:
        """Delete, then insert, as one change, once validate_batch passes
        (at once for the batch it passed last): `indices` is spliced at the
        positions found, the row pointer shifted (in its own dtype, which
        scipy keeps) by the sources' degree changes; a symmetric batch
        keeps a known symmetry. Returns the batch's sorted sources."""
        _, ins_pos, del_pos, rows, change, top = self._validated(batch)
        if len(batch) == 0:  # changes nothing, caches included
            return rows
        indices = self._csr.indices
        gone = np.sort(del_pos)
        # Sorted arcs take sorted positions, equal ones in target order.
        order = np.argsort(_pair_keys(batch.ins))
        at, values = ins_pos[order], batch.ins[order, 1].astype(np.int32)
        if gone.size + at.size <= SPLICE_BY_SLICES:
            indices = _splice(indices, gone, at, values)
        else:  # each call copies the array, so only the needed ones run
            if gone.size:
                indices = np.delete(indices, gone)
            if at.size:
                indices = np.insert(indices, at - np.searchsorted(gone, at),
                                    values)
        indptr = self._csr.indptr
        shift = np.concatenate([[0], np.cumsum(change)]).astype(indptr.dtype)
        shift = np.repeat(shift, np.diff(rows, prepend=-1, append=self._n))
        symmetric = batch.is_symmetric() if self._symmetric else None
        self._install(indices, indptr + shift)
        self._top, self._symmetric = top, symmetric
        return rows

    def validate_batch(self, batch: EdgeBatch) -> int:
        """Raise for the first arc, insertions first, that is out of
        range, inserted while present or deleted while absent; else return
        the maximum out-degree the batch leaves, found from its sources;
        at once for the batch it passed last, if the arcs are unchanged."""
        return self._validated(batch)[-1][0]

    # ---- internals ----

    def _validated(self, batch: EdgeBatch) -> tuple:
        """validate_batch's findings, kept for the batch until arcs change."""
        if self._checked and self._checked[0] is batch:
            return self._checked
        batch.validate_shape()
        checked = [batch]
        for arcs, present, verb, why in (
                (batch.ins, False, "insert", "already present"),
                (batch.dels, True, "delete", "not present")):
            ok = ((arcs >= 0) & (arcs < self._n)).all(axis=1)
            pos = np.empty(0, dtype=np.intp)
            if ok.size:  # an empty side needs no search
                pos, hit = self._find(*arcs[ok].T)
                ok[ok] = hit == present
            if not ok.all():
                u, v = arcs[int(np.argmin(ok))].tolist()
                self._check_node(u)
                self._check_node(v)
                raise BatchPreconditionError(
                    f"cannot {verb} arc ({u}, {v}): {why}")
            checked.append(pos)
        rows, row = np.unique(np.concatenate(
            [batch.ins[:, 0], batch.dels[:, 0]]), return_inverse=True)
        k, indptr = len(batch.ins), self._csr.indptr
        change = np.bincount(row[:k], minlength=rows.size) - \
            np.bincount(row[k:], minlength=rows.size)
        before = indptr[1:][rows] - indptr[rows]
        after, (top, ties) = before + change, self._top
        new = int(after.max(initial=top))
        ties = (new == top) * ties + np.count_nonzero(after == new) - \
            np.count_nonzero(before == new)
        if not ties:  # no row is left at the maximum: count them all
            after = np.diff(indptr)
            after[rows] += change
            new = int(after.max(initial=0))
            ties = np.count_nonzero(after == new)
        self._checked = (*checked, rows, change, (new, ties))
        return self._checked

    def _set_keys(self, keys: np.ndarray) -> None:
        """Build from sorted, duplicate-free _pair_keys (overwritten)."""
        indptr = np.searchsorted(
            keys, np.arange(self._n + 1, dtype=np.int64) << 31)
        keys &= MAX_NODE_ID
        self._install(keys.astype(np.int32), indptr)
        degrees = np.diff(indptr)  # the maximum, 0 without rows, and its ties
        top = int(degrees.max(initial=0))
        self._top = top, np.count_nonzero(degrees == top)

    def _install(self, indices: np.ndarray, indptr: np.ndarray) -> None:
        """Make the CSR arrays the graph; one version bump."""
        n = self._n
        # The matrix values are all ones and never written, so matrices
        # share one buffer of ones, grown only when the arc count does.
        if self._ones is None or self._ones.size < indices.size:
            self._ones = np.ones(indices.size)
        self._csr = sparse.csr_matrix(
            (self._ones[:indices.size], indices, indptr), shape=(n, n))
        self._in_csr = self._symmetric = self._checked = None
        self._version += 1

    def _find(self, u: np.ndarray, v: np.ndarray):
        """(position, present) per arc (u, v) with nodes in range: the
        first slot of row u of `indices` not below v, and whether it holds
        v. One vectorised round per bit of the maximum out-degree."""
        indptr, indices = self._csr.indptr, self._csr.indices
        pos, end = indptr[u].astype(np.intp), indptr[u + 1].astype(np.intp)
        v = v.astype(indices.dtype)  # compared without conversion
        for bit in reversed(range(self._top[0].bit_length())):
            # Step 2^bit, or to the row's end, over targets below v (an
            # empty step, which reads a stray entry, leaves pos as it is).
            step = np.minimum(pos + (1 << bit), end)
            np.copyto(pos, step, where=indices[step - 1] < v)
        present = pos < end
        present[present] = indices[pos[present]] == v[present]
        return pos, present

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise NodeRangeError(
                f"node id {v} outside universe [0, {self._n})")

    def __repr__(self) -> str:
        return f"Graph(nodes={self._n}, arcs={self.arc_count})"


# ---- edge list ingestion ----

def load_edge_list(source, undirected: bool = False) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Accepted lines: an optional leading "NODES <n>" header, comment lines
    starting with '#' or '%', blank lines, and "u v" arc lines with
    non-negative integer ids. Without a header the universe is
    1 + max id seen; the header allows trailing isolated nodes. Duplicate
    lines collapse to one arc. With undirected=True each line contributes
    both directions.

    `source` may be a path or an open text/binary stream.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return load_edge_list(fh, undirected=undirected)

    text = source.read()
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) \
        else text
    parsed = _tokenize(data)
    if parsed is None:
        parsed = _parse_lines(
            io.StringIO(text) if isinstance(text, str) else io.BytesIO(data))
    header, pairs, lines_read = parsed
    max_id = int(pairs.max()) if pairs.size else -1
    node_count = header[0] if header is not None else max_id + 1
    if max_id >= node_count:
        raise NodeRangeError(
            f"node id {max_id} exceeds declared universe of {node_count}")
    limit = max(MIN_NODE_LIMIT, NODES_PER_ARC_LINE * len(pairs))
    if node_count > limit:
        where = f"line {header[1]}: NODES header" \
            if header is not None else f"node id {max_id}"
        raise NodeRangeError(
            f"{where} implies {node_count} nodes for {len(pairs)} arc "
            f"lines; a file may hold at most {limit}")
    del text, data  # lowers the build's peak memory
    self_loops = int(np.count_nonzero(pairs[:, 0] == pairs[:, 1]))
    g = Graph.from_edges(node_count, pairs, undirected=undirected)
    log.info("loaded edge list: %d lines, %d nodes, %d arcs, %d self-loops",
             lines_read, node_count, g.arc_count, self_loops)
    return g


# The tokenizer works through the text in blocks of whole lines of about
# this many bytes, one per worker thread at a time. The C allocator keeps
# what a thread frees for that thread (glibc's per-thread arenas), so
# small blocks bound what the workers hold; a few MB still spread evenly.
_BLOCK_BYTES = 1 << 17


def _tokenize(data: bytes):
    """Vectorized parse of a plainly well-formed edge list.

    Returns (header, (k, 2) int32 arcs, lines read), the header being
    (declared node count, its line number) or None. Returns None when
    anything is off: a malformed header, a non-digit outside comments, a
    line without exactly two ids, an id of more than ten digits or above
    MAX_NODE_ID, or invalid UTF-8. _parse_lines then decides, and reports
    any error with its line.

    The blocks are parsed on a pool of one thread per CPU, at most one
    per block, whose threads are joined before this returns.
    """
    header, offset, start = None, 0, 0
    # up to the first non-comment line
    for lineno, line in enumerate(io.BytesIO(data), start=1):
        offset += len(line)
        try:  # no block will hold the comment lines before a header
            line.decode("utf-8")
        except UnicodeDecodeError:
            return None
        parts = line.split()
        if not parts or parts[0][:1] in (b"#", b"%"):
            continue
        if parts[0].upper() == b"NODES":
            if len(parts) != 2 or not parts[1].isdigit() or \
                    len(parts[1]) > 10 or int(parts[1]) > MAX_NODE_ID:
                return None
            header, start = (int(parts[1]), lineno), offset
        break
    spans = []
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        spans.append(slice(start, end))
        start = end
    # Imported on first use: importing the package loads no thread pool.
    from concurrent.futures import ThreadPoolExecutor
    blocks = [np.empty(0, dtype=np.int32)]
    pool = ThreadPoolExecutor(min(len(spans), _cpu_count()) or 1)
    try:  # each worker slices its own block: one copy in flight each
        for block in pool.map(lambda span: _tokenize_block(data[span]),
                              spans):
            if block is None:
                return None
            # narrowed here, so the int32 ids live in this thread's arena
            blocks.append(block.astype(np.int32))
    finally:  # drops the blocks not yet started, joins the workers
        pool.shutdown(cancel_futures=True)
    lines_read = data.count(b"\n") + (not data.endswith(b"\n") and bool(data))
    return header, np.concatenate(blocks).reshape(-1, 2), lines_read


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tokenize_block(data: bytes):
    """The ids on a block of whole arc and comment lines, as int64 in
    file order, or None."""
    b = np.frombuffer(data, dtype=np.uint8)
    space = (b == 32) | (b - np.uint8(9) <= 4)  # " \t\n\v\f\r"
    solid = np.zeros(b.size + 2, dtype=bool)
    np.logical_not(space, out=solid[1:-1])
    bounds = np.flatnonzero(solid[1:] != solid[:-1])
    starts = bounds[0::2]
    # Token starts and newlines, merged in file order.
    event = b == 10
    event[starts] = True
    event = np.flatnonzero(event)
    tok = b[event] != 10
    if not np.all(space | (b - np.uint8(48) <= 9)):
        # Recurses at most once: a blanked block has no comment line.
        data = _blank_comments(data, b, event, tok)
        return None if data is None else _tokenize_block(data)
    # Only digits and whitespace from here on: tokens are digit runs.
    if not starts.size:
        return np.empty(0, dtype=np.int32)
    # More than ten digits could overflow int64 in the parse below.
    if (bounds[1::2] - starts).max() > 10:
        return None
    # Every line holds 0 or 2 tokens: the tokens come in adjacent pairs,
    # and a newline separates each pair from the next.
    at = np.flatnonzero(tok)
    if at.size % 2 or np.any(at[1::2] != at[0::2] + 1) or \
            np.any(at[2::2] <= at[1:-1:2] + 1):
        return None
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if values.size != starts.size or values.max() > MAX_NODE_ID:
        return None
    return values


def _blank_comments(data: bytes, b: np.ndarray, event: np.ndarray,
                    tok: np.ndarray):
    """data with each comment line (first token starting with '#' or '%')
    turned into spaces; None if it is not valid UTF-8 or has no comment
    line, in which case its bytes other than digits and whitespace lie
    outside comments.

    event holds the positions of token starts and newlines in order, tok
    tells which of them are token starts.
    """
    first = event[tok & np.r_[True, ~tok[:-1]]]
    begin = first[(b[first] == ord("#")) | (b[first] == ord("%"))]
    if not begin.size:
        return None
    try:  # as fast as a test for bytes above 127 on ASCII text
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    newlines = event[~tok]
    end = np.r_[newlines, b.size][np.searchsorted(newlines, begin)]
    out = bytearray(data)
    for lo, hi in zip(begin.tolist(), end.tolist()):
        out[lo:hi] = b" " * (hi - lo)
    return bytes(out)


def _parse_lines(source):
    """Line-by-line parse with exact error lines; same result as _tokenize."""
    header: tuple[int, int] | None = None
    ids = array("q")  # 16 bytes an arc, where a tuple of ints takes 120
    lineno = 0  # the number of lines read, once the loop is done
    header_allowed = True

    for lineno, line in text_lines(source):
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        if header_allowed and parts[0].upper() == "NODES":
            if len(parts) != 2:
                raise ParseError("malformed NODES header", lineno)
            header = parse_id(parts[1], lineno), lineno
            header_allowed = False
            continue
        header_allowed = False
        if len(parts) != 2:
            raise ParseError(
                f"expected two node ids, got {len(parts)} fields", lineno)
        ids.extend(parse_id(token, lineno) for token in parts)
    return header, np.frombuffer(ids, dtype=np.int64).reshape(-1, 2), lineno


def text_lines(source) -> Iterator[tuple[int, str]]:
    """(number, stripped text) of each line of a text or binary stream;
    ParseError on a line that is not valid UTF-8."""
    for lineno, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("not valid UTF-8 text", lineno) from None
        yield lineno, raw.strip()


def parse_id(token: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"not an integer: {token!r}", lineno) from None
    if value < 0:
        raise ParseError(f"negative node id {value}", lineno)
    if value > MAX_NODE_ID:
        raise NodeRangeError(
            f"line {lineno}: node id {value} overflows the 32-bit id type")
    return value


def dumps_edge_list(node_count: int, edges: Iterable[Arc]) -> str:
    """Serialize edges (pairs or a (k, 2) array) with an explicit NODES
    header, which keeps isolated ids."""
    ids = tuple(edges.ravel().tolist() if isinstance(edges, np.ndarray)
                else itertools.chain.from_iterable(edges))
    return f"NODES {node_count}\n" + "%d %d\n" * (len(ids) // 2) % ids

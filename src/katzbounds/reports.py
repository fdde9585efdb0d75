"""Run reports and their serialized forms.

JSON output is deterministic: fields keep insertion order and floats get
17 significant digits ("%.17g", plus ".0" where that reads as an
integer), enough for an exact round-trip; NaN and infinities raise
NumericError. One function, `_float_texts`, applies that rule to scalar
fields and node tables alike. The per-node table is a columnar
`NodeTable`, which JSON and CSV write with one formatter (each distinct
float formatted once, each slice of rows filled into one template), byte
for byte as the generic per-value encoder would. Writers take the text
in pieces, never as one string.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import NumericError
from .graph import _distinct

# The node table's columns, in row and CSV order.
CSV_COLUMNS = ("node_id", "lower", "upper", "rank")


@dataclass
class RunReport:
    """Everything one engine invocation wants to tell the outside world."""

    command: str
    method: str
    parameters: dict[str, Any]
    iterations: int
    wall_time_s: float
    separated_fraction: float | None = None
    ranking_prefix: list[int] = field(default_factory=list)
    nodes: NodeTable | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The fields in order, those left None omitted, with `extra`'s
        entries last at the top level."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if getattr(self, f.name) is not None}
        out.update(out.pop("extra"))
        return out


class NodeTable:
    """Node rows in rank order as aligned columns: int64 `ids` and the
    float64 bounds `lower` and `upper` gathered by id. Row i, as
    table[i], is the dict of CSV_COLUMNS, with rank i + 1."""

    def __init__(self, ids: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        self.ids, self.lower, self.upper = ids, lower, upper

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, i: int) -> dict[str, Any]:
        return {"node_id": int(self.ids[i]), "lower": float(self.lower[i]),
                "upper": float(self.upper[i]), "rank": i % len(self) + 1}


def node_rows(order, lower, upper) -> NodeTable:
    """The node table of every node in `order`, in rank order."""
    ids = np.asarray(order, dtype=np.int64)
    return NodeTable(ids, np.asarray(lower, dtype=np.float64)[ids],
                     np.asarray(upper, dtype=np.float64)[ids])


# ---- serialization ----

# Node rows per slice of text, about 1 MB of JSON.
ROWS_PER_SLICE = 8192


def dumps_json(value: Any, indent: int = 2) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return "".join(json_pieces(value, indent))


def json_pieces(value: Any, indent: int = 2) -> Iterator[str]:
    """dumps_json's text in pieces, node tables in slices of rows. A table
    is checked and formatted before this returns: refused, it raises."""
    return itertools.chain(_encode(value, indent, 0), ["\n"])


def _encode(value: Any, indent: int, depth: int) -> Iterable[str]:
    """value's JSON text in pieces; node tables are made ready at once."""
    if isinstance(value, float):
        return _float_texts(np.array([value]))
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return [json.dumps(value)]
    pad = " " * (indent * (depth + 1))
    close_pad = " " * (indent * depth)
    if isinstance(value, NodeTable) and len(value):
        # The generic encoder's layout of one row, %s for each value.
        row = "".join(_encode(dict.fromkeys(CSV_COLUMNS, "%s"), indent,
                              depth + 1)).replace('"%s"', "%s")
        return itertools.chain(["[\n"], _fill_rows(value, pad + row, ",\n"),
                               [f"\n{close_pad}]"])
    if isinstance(value, dict):
        items = [(f"{json.dumps(str(k))}: ", v) for k, v in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple, NodeTable)):
        items, brackets = [("", v) for v in value], "[]"
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    if not items:
        return [brackets]
    out = [[brackets[0] + "\n"]]
    for i, (key, v) in enumerate(items):
        out += [[",\n" * (i > 0) + pad + key], _encode(v, indent, depth + 1)]
    return itertools.chain(*out, [f"\n{close_pad}{brackets[1]}"])


def _fill_rows(table: NodeTable, row: str, sep: str) -> Iterator[str]:
    """The rows filled into the %s-template `row` and joined by `sep`, in
    slices of ROWS_PER_SLICE rows. Each distinct float bit pattern (-0.0
    apart from 0.0) is formatted once, and refused, before this returns."""
    distinct = _distinct(np.concatenate([table.lower, table.upper]).view(
        np.uint64))
    texts = np.array(_float_texts(distinct.view(np.float64)), dtype=object)
    k = len(table)

    def fill(start: int) -> str:
        stop = min(start + ROWS_PER_SLICE, k)
        lower, upper = (texts[np.searchsorted(distinct, column[start:stop].view(
            np.uint64))].tolist() for column in (table.lower, table.upper))
        return (sep * (start > 0) + sep.join([row] * (stop - start))) % tuple(
            itertools.chain.from_iterable(zip(table.ids[start:stop].tolist(),
                lower, upper, range(start + 1, stop + 1))))
    return map(fill, range(0, k, ROWS_PER_SLICE))


def _float_texts(floats: np.ndarray) -> list[str]:
    """Each float's text: 17 significant digits, which read back as the
    same float. "%.17g" lacks a point and an exponent exactly for
    integral values below 1e17, which get ".0". Raises NumericError for
    NaN and infinities, which JSON cannot express."""
    if not np.isfinite(floats).all():
        bad = float(floats[~np.isfinite(floats)][0])
        raise NumericError(f"cannot encode non-finite float {bad!r}")
    text = ("%.17g\n" * floats.size % tuple(floats.tolist())).split("\n")[:-1]
    for i in np.flatnonzero((floats == np.trunc(floats)) &
                            (np.abs(floats) < 1e17)).tolist():
        text[i] += ".0"
    return text


def csv_pieces(rows: NodeTable) -> Iterator[str]:
    """Per-node CSV with the fixed column set, in json_pieces' slices."""
    return itertools.chain([",".join(CSV_COLUMNS) + "\n"],
                           _fill_rows(rows, "%s,%s,%s,%s\n", ""))

"""Run reports and their serialized forms.

JSON output is deterministic: fields keep insertion order and floats get
17 significant digits ("%.17g", plus ".0" where that reads as an
integer), enough for an exact round-trip; NaN and infinities are refused.
The per-node table is a columnar `NodeTable`, which JSON and CSV write
with one formatter (each distinct float formatted once, each row filled
into one template), byte for byte as the generic per-value encoder would.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

# Node tables beyond this many rows are truncated unless explicitly
# requested in full.
NODE_ROW_CAP = 10**6

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
        out: dict[str, Any] = {
            "command": self.command,
            "method": self.method,
            "parameters": self.parameters,
            "iterations": self.iterations,
            "wall_time_s": self.wall_time_s,
        }
        if self.separated_fraction is not None:
            out["separated_fraction"] = self.separated_fraction
        out["ranking_prefix"] = self.ranking_prefix
        if self.nodes is not None:
            out["nodes"] = self.nodes
        if self.extra:
            out.update(self.extra)
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


def node_rows(order, lower, upper, cap: int | None = NODE_ROW_CAP) -> NodeTable:
    """The node table in rank order, optionally truncated to cap rows."""
    ids = np.asarray(order if cap is None else order[:cap], dtype=np.int64)
    return NodeTable(ids, np.asarray(lower, dtype=np.float64)[ids],
                     np.asarray(upper, dtype=np.float64)[ids])


# ---- serialization ----

def dumps_json(value: Any, indent: int = 2) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return _encode(value, indent, 0) + "\n"


def _encode(value: Any, indent: int, depth: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    pad = " " * (indent * (depth + 1))
    close_pad = " " * (indent * depth)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {_encode(v, indent, depth + 1)}"
            for k, v in value.items())
        return f"{{\n{items}\n{close_pad}}}"
    if isinstance(value, NodeTable) and len(value):
        # The generic encoder's layout of one row, %s for each value.
        row = _encode(dict.fromkeys(CSV_COLUMNS, "%s"), indent, depth + 1)
        rows = _fill_rows(value, pad + row.replace('"%s"', "%s"), ",\n")
        return f"[\n{rows}\n{close_pad}]"
    if isinstance(value, (list, tuple, NodeTable)):
        if not value:
            return "[]"
        items = ",\n".join(
            f"{pad}{_encode(v, indent, depth + 1)}" for v in value)
        return f"[\n{items}\n{close_pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _fill_rows(table: NodeTable, row: str, sep: str) -> str:
    """The rows filled into the %s-template `row`, joined by `sep`. Floats
    come out as format_float writes them, each distinct bit pattern
    formatted once (-0.0 stays apart from 0.0): "%.17g" lacks a point and
    an exponent exactly for integral values below 1e17, which get ".0"."""
    values = np.concatenate([table.lower, table.upper])
    if not np.isfinite(values).all():
        format_float(values[~np.isfinite(values)][0])  # raises ValueError
    bits = values.view(np.uint64)
    distinct = np.sort(bits)
    first = np.ones(distinct.size, dtype=bool)
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    floats = distinct.view(np.float64)
    text = ("%.17g\n" * floats.size % tuple(floats.tolist())).split("\n")
    for i in np.flatnonzero((floats == np.trunc(floats)) &
                            (np.abs(floats) < 1e17)).tolist():
        text[i] += ".0"
    texts = [text[i] for i in np.searchsorted(distinct, bits).tolist()]
    k = len(table)
    return sep.join([row] * k) % tuple(itertools.chain.from_iterable(
        zip(table.ids.tolist(), texts[:k], texts[k:], range(1, k + 1))))


def format_float(x: float) -> str:
    """17 significant digits; always reads back as the same float.

    Raises ValueError for NaN and infinities, which JSON cannot express.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot encode non-finite float {x!r}")
    text = format(x, ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def dumps_csv(rows: NodeTable) -> str:
    """Per-node CSV with the fixed column set."""
    return ",".join(CSV_COLUMNS) + "\n" + \
        _fill_rows(rows, "%s,%s,%s,%s\n", "")

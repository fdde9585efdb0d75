"""Run reports and their serialized forms.

JSON output is deterministic: fields keep insertion order and floats are
rendered with 17 significant digits, enough for an exact round-trip
through any conforming parser; NaN and infinities, which JSON cannot
express, are refused. A node table is written from a row template, byte
for byte what the generic encoder gives. CSV output carries the per-node
table.
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
    nodes: list[dict[str, Any]] | None = None
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


def node_rows(order, lower, upper, cap: int | None = NODE_ROW_CAP) -> list[dict]:
    """Per-node table rows in rank order, optionally truncated."""
    ids = np.asarray(order if cap is None else order[:cap], dtype=np.int64)
    lows = np.asarray(lower, dtype=np.float64)[ids].tolist()
    ups = np.asarray(upper, dtype=np.float64)[ids].tolist()
    return [{"node_id": v, "lower": lo, "upper": up, "rank": rank}
            for rank, (v, lo, up) in enumerate(zip(ids.tolist(), lows, ups),
                                               start=1)]


# ---- serialization ----

def dumps_json(value: Any, indent: int = 2) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    text = _encode(value, indent, 0)
    return text + "\n"


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
        return "{\n" + items + "\n" + close_pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        table = _encode_node_table(value, indent, depth)
        if table is not None:
            return table
        items = ",\n".join(
            f"{pad}{_encode(v, indent, depth + 1)}" for v in value)
        return "[\n" + items + "\n" + close_pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _encode_node_table(rows, indent: int, depth: int) -> str | None:
    """Row-template encoding of a node table; None if `rows` is not one.

    A node table is a list of plain {node_id: int, lower: float,
    upper: float, rank: int} dicts; the text equals the generic
    encoder's.
    """
    if set(map(type, rows)) != {dict} or \
            set(map(tuple, rows)) != {CSV_COLUMNS}:
        return None
    ids, lower, upper, rank = ([r[c] for r in rows] for c in CSV_COLUMNS)
    if set(map(type, ids + rank)) != {int} or \
            set(map(type, lower + upper)) != {float}:
        return None
    k = len(rows)
    floats = _format_floats(lower + upper)
    pad = " " * (indent * (depth + 1))
    inner = " " * (indent * (depth + 2))
    template = pad + "{\n" + ",\n".join(
        f"{inner}{json.dumps(c)}: %s" for c in CSV_COLUMNS) + "\n" + pad + "}"
    body = ",\n".join([template] * k) % tuple(itertools.chain.from_iterable(
        zip(ids, floats[:k], floats[k:], rank)))
    return "[\n" + body + "\n" + " " * (indent * depth) + "]"


def _format_floats(values: list[float]) -> list[str]:
    """format_float over a list, with the digits produced in one call.

    "%.17g" is the format format_float uses; the few distinct texts that
    look like integers or are not numbers go through format_float itself.
    """
    texts = ("%.17g\n" * len(values) % tuple(values)).split("\n")
    texts.pop()
    bare = {t: format_float(float(t)) for t in set(texts)
            if "." not in t and "e" not in t}
    return [bare.get(t, t) for t in texts] if bare else texts


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


def dumps_csv(rows: list[dict]) -> str:
    """Per-node CSV with the fixed column set."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            format_float(row[c]) if isinstance(row[c], float) else str(row[c])
            for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"

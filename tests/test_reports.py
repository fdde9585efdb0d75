"""Report structures and the deterministic JSON/CSV emitters."""
from __future__ import annotations

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from katzbounds.errors import NumericError
from katzbounds.reports import (CSV_COLUMNS, ROWS_PER_SLICE, NodeTable,
                                RunReport, csv_pieces, dumps_json,
                                json_pieces, node_rows)

SPECIAL_FLOATS = [0.0, -0.0, 1.0, 2.0**53, 1e16, 1e17, 1e-300, 5e-324,
                  0.1, -1.0]


def float_text(x: float) -> str:
    """The float rule's reference, independent of the writer: 17
    significant digits, plus ".0" where that reads as an integer."""
    text = format(x, ".17g")
    return text if "." in text or "e" in text else text + ".0"


# doubles from random bit patterns, so every exponent range turns up
RANDOM_DOUBLES = [x for x in np.random.default_rng(0).integers(
    0, 2**64, 40, dtype=np.uint64).view(np.float64).tolist()
    if math.isfinite(x)] + np.random.default_rng(1).random(10).tolist()


@pytest.mark.parametrize("x", SPECIAL_FLOATS + [
    2.0, 1 / 3, 1.5e16, 1e-30, 123456789.123456789, -2.0**53 - 2]
    + RANDOM_DOUBLES + [math.nan, math.inf, -math.inf])
def test_float_rule_matches_its_reference(x):
    # the scalar path and a one-row node table
    table = NodeTable(np.array([7]), np.array([x]), np.array([x]))
    writers = (lambda: dumps_json(x), lambda: dumps_json({"nodes": table}),
               lambda: "".join(csv_pieces(table)))
    if not math.isfinite(x):
        for write in writers:
            with pytest.raises(NumericError, match="non-finite"):
                write()
        return
    text = float_text(x)
    assert float(text) == x and text.startswith("-") == (math.copysign(1, x) < 0)
    scalar, doc, csv = (write() for write in writers)
    assert scalar == text + "\n"
    assert type(json.loads(scalar)) is float  # reads back as a float
    assert f'"lower": {text},\n      "upper": {text},' in doc
    assert csv == f"{','.join(CSV_COLUMNS)}\n7,{text},{text},1\n"


def test_dumps_json_is_valid_and_ordered():
    doc = {"b": 1.5, "a": [1, 2.5, None, True], "nested": {"x": "y"}}
    text = dumps_json(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == doc
    # insertion order preserved, not sorted
    assert list(parsed.keys()) == ["b", "a", "nested"]


def test_dumps_json_float_precision():
    text = dumps_json({"v": 0.1 + 0.2})
    assert json.loads(text)["v"] == 0.1 + 0.2


def test_node_rows_ranks_start_at_one():
    order = np.array([2, 0, 1])
    lower = np.array([0.1, 0.2, 0.9])
    upper = np.array([0.15, 0.25, 0.95])
    rows = node_rows(order, lower, upper)
    assert rows[0] == {"node_id": 2, "lower": 0.9, "upper": 0.95, "rank": 1}
    assert rows[2]["rank"] == 3


def test_dumps_csv_columns_and_rows():
    rows = NodeTable(np.array([4]), np.array([0.5]), np.array([0.75]))
    text = "".join(csv_pieces(rows))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("4,0.5,0.75,1")


def test_run_report_dict_shape():
    rep = RunReport(command="static", method="katz-bounds",
                    parameters={"alpha": 0.25}, iterations=7,
                    wall_time_s=0.125, separated_fraction=0.5,
                    ranking_prefix=[3, 1], nodes=[],
                    extra={"note": "x"})
    d = rep.to_dict()
    keys = list(d.keys())
    assert keys[0] == "command"
    assert d["iterations"] == 7
    assert d["note"] == "x"
    assert json.loads(dumps_json(d))["separated_fraction"] == 0.5


def test_run_report_optional_fields_omitted():
    rep = RunReport(command="gen", method="rmat", parameters={},
                    iterations=0, wall_time_s=0.0)
    d = rep.to_dict()
    assert "separated_fraction" not in d
    assert "nodes" not in d


def csv_per_value(rows) -> str:
    """Per-value CSV reference: float_text on each float, str on the rest."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            float_text(row[c]) if isinstance(row[c], float) else str(row[c])
            for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def test_node_table_matches_generic_encoder():
    # list(table) gives plain row dicts, which only the generic
    # per-value encoder writes
    lower = np.array([1.0, -0.0, 1e-300, 0.1, 1e16, 1e17, 0.0, 2.5])
    upper = lower + np.array([0.0, 0.0, 1e-300, 1e-3, 0.0, 0.0, 0.0, 0.5])
    order = np.array([7, 0, 1, 2, 3, 4, 5, 6])
    table = node_rows(order, lower, upper)
    reps = [RunReport(command="static", method="katz-bounds",
                      parameters={"alpha": 0.25}, iterations=3,
                      wall_time_s=0.5, ranking_prefix=[7, 0], nodes=nodes,
                      extra={"batches": [{"batch": 0, "visited": 4}]})
            for nodes in (table, list(table))]
    assert all(isinstance(row, dict) for row in reps[1].nodes)
    fast = dumps_json(reps[0].to_dict())
    for text in ('"lower": 1.0,', '"lower": -0.0,', '"lower": 1e-300,'):
        assert text in fast
    assert fast == dumps_json(reps[1].to_dict())
    assert "".join(csv_pieces(table)) == csv_per_value(list(table))


@pytest.mark.parametrize("seed", range(12))
def test_node_table_writer_matches_per_value_encoder(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    # a few distinct values, each used many times, plus the specials
    pool = np.concatenate([rng.random(int(rng.integers(1, 8))),
                           SPECIAL_FLOATS])
    order = rng.permutation(n)
    cut = [n, 0, 1, n // 2][seed % 4]  # also the short and empty tables
    table = node_rows(order[:cut], rng.choice(pool, n), rng.choice(pool, n))
    if seed % 2:  # ids near 2^31
        table = NodeTable(table.ids + (2**31 - 1 - n), table.lower,
                          table.upper)
    rows = list(table)
    assert len(rows) == len(table) == cut
    for indent in (2, 4):
        doc = {"x": 1, "nodes": table, "after": [table]}
        generic = {"x": 1, "nodes": rows, "after": [rows]}
        assert dumps_json(doc, indent) == dumps_json(generic, indent)
    assert "".join(csv_pieces(table)) == csv_per_value(rows)


@pytest.mark.parametrize("k", [0, 1, ROWS_PER_SLICE - 1, ROWS_PER_SLICE,
                               ROWS_PER_SLICE + 1])
def test_sliced_writer_matches_per_value_encoder(k):
    rng = np.random.default_rng(k)
    pool = np.concatenate([rng.random(3), SPECIAL_FLOATS])
    # ids near 2^31, in descending order
    table = NodeTable(np.arange(2**31 - 1, 2**31 - 1 - k, -1),
                      rng.choice(pool, k), rng.choice(pool, k))
    rows = list(table)
    for indent in (2, 4):
        sink = io.StringIO()
        sink.writelines(json_pieces({"nodes": table, "after": [table]},
                                    indent))
        assert sink.getvalue() == dumps_json(
            {"nodes": rows, "after": [rows]}, indent)
    pieces = list(csv_pieces(table))
    assert len(pieces) == 1 + -(-k // ROWS_PER_SLICE)
    assert "".join(pieces) == csv_per_value(rows)


class CountingSink(io.TextIOBase):
    """A text stream that keeps only the number of characters written."""

    size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


def test_sliced_writer_holds_a_fraction_of_the_text():
    # 2^17 rows, 4 distinct bound values: one string holding the whole
    # report, as the writer once built, alone takes twice the limit
    k = 2**17
    rng = np.random.default_rng(0)
    pool = rng.random(4)
    table = NodeTable(rng.permutation(k), rng.choice(pool, k),
                      rng.choice(pool, k))
    for pieces in (lambda: json_pieces({"nodes": table}),
                   lambda: csv_pieces(table)):
        sink = CountingSink()
        tracemalloc.start()
        try:
            sink.writelines(pieces())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sink.size / 2, (peak, sink.size)


def test_node_table_rows_read_like_a_list():
    table = node_rows(np.array([2, 0, 1]), np.array([0.1, 0.2, 0.9]),
                      np.array([0.15, 0.25, 0.95]))
    assert table[-1] == {"node_id": 1, "lower": 0.2, "upper": 0.25,
                         "rank": 3}
    assert table[-3] == table[0]
    assert [row["node_id"] for row in table] == [2, 0, 1]
    with pytest.raises(IndexError):
        table[3]
    empty = node_rows(np.array([], dtype=np.int64), np.zeros(0), np.zeros(0))
    assert list(empty) == []
    assert dumps_json({"nodes": empty}) == dumps_json({"nodes": []})
    assert "".join(csv_pieces(empty)) == ",".join(CSV_COLUMNS) + "\n"


def test_node_table_refuses_non_finite():
    rows = node_rows(np.array([0, 1]), np.array([0.5, math.nan]),
                     np.array([1.0, math.inf]))
    # refused before the first piece is made, so nothing gets written
    for write in (lambda: dumps_json({"nodes": rows}),
                  lambda: json_pieces({"nodes": rows}),
                  lambda: csv_pieces(rows)):
        with pytest.raises(NumericError):
            write()

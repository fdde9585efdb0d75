"""Report structures and the deterministic JSON/CSV emitters."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from katzbounds import reports
from katzbounds.reports import (CSV_COLUMNS, RunReport, dumps_csv, dumps_json,
                                format_float, node_rows)


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, 1e-300, 2.0, 1.5e16, -0.0, 123456789.123456789):
        assert float(format_float(x)) == x


def test_format_float_keeps_float_shape():
    assert format_float(2.0) == "2.0"
    assert format_float(-0.0) == "-0.0"
    assert "e" in format_float(1e-30) or "." in format_float(1e-30)


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


def test_node_rows_cap():
    order = np.arange(100)
    vals = np.linspace(1, 0, 100)
    rows = node_rows(order, vals, vals, cap=10)
    assert len(rows) == 10
    assert rows[-1]["node_id"] == 9


def test_dumps_csv_columns_and_rows():
    rows = [{"node_id": 4, "lower": 0.5, "upper": 0.75, "rank": 1}]
    text = dumps_csv(rows)
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


def test_format_float_refuses_non_finite():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(x)


def test_node_table_matches_generic_encoder(monkeypatch):
    lower = np.array([1.0, -0.0, 1e-300, 0.1, 1e16, 1e17, 0.0, 2.5])
    upper = lower + np.array([0.0, 0.0, 1e-300, 1e-3, 0.0, 0.0, 0.0, 0.5])
    order = np.array([7, 0, 1, 2, 3, 4, 5, 6])
    rep = RunReport(command="static", method="katz-bounds",
                    parameters={"alpha": 0.25}, iterations=3,
                    wall_time_s=0.5, ranking_prefix=[7, 0],
                    nodes=node_rows(order, lower, upper),
                    extra={"batches": [{"batch": 0, "visited": 4}]})
    fast = dumps_json(rep.to_dict())
    for text in ('"lower": 1.0,', '"lower": -0.0,', '"lower": 1e-300,'):
        assert text in fast
    monkeypatch.setattr(reports, "_encode_node_table",
                        lambda rows, indent, depth: None)
    assert dumps_json(rep.to_dict()) == fast


def test_node_table_refuses_non_finite():
    rows = node_rows(np.array([0, 1]), np.array([0.5, math.nan]),
                     np.array([1.0, math.inf]))
    with pytest.raises(ValueError):
        dumps_json({"nodes": rows})
    with pytest.raises(ValueError):
        dumps_csv(rows)

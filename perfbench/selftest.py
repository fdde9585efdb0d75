"""Self-test of the benchmark at small sizes; takes a few seconds.

    python3 perfbench/selftest.py

Checks that every workload emits each metric BENCHMARK.json names, with
its unit, in both modes; that one seed reproduces identical inputs and
another seed does not; and that a deliberately corrupted answer fails
the oracle and is counted in error_rate. Exits 1 on the first failure.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from itertools import islice
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from katzbounds import engine  # noqa: E402

import inputs  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from spans import NoSpans  # noqa: E402

SECONDS = 0.2


def small_run(name: str, seed: int, trace: bool) -> tuple[dict, object, dict]:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as tmp:
        w = workloads.make(name, seed, Path(tmp), small=True)
        raw = measure.measure(w, SECONDS, trace)
    line, e2e_rows, _ = measure.result(w, raw, trace)
    return line, w, dict((row[0], row[1]) for row in e2e_rows)


def check_metrics(spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.NAMES:
            line, _, _ = small_run(name, 1, trace)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == want, f"{name} trace={trace}: {got} != {want}"
            for k, v in line["metrics"].items():
                assert isinstance(v["value"], (int, float)), f"{name}: {k} = {v}"
            assert line["correct"] and line["failed"] == 0, f"{name}: {line}"
            assert line["attempted"] >= 1
    print("ok: every workload emits every metric with its unit")


def fingerprint(name: str, seed: int) -> str:
    """Hash of everything the workload feeds the program for `seed`."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-work-") as tmp:
        w = workloads.make(name, seed, Path(tmp), small=True)
        w.setup(NoSpans())
        if name == "static-cold":
            digest.update(w.graph_path.read_bytes())
        elif name == "static-warm":
            digest.update(repr(w.arcs).encode())
        else:
            digest.update(repr(w.edges).encode())
        w.prepare()
        for group in islice(w.groups(), 6):
            for op in group:
                digest.update(repr(op).encode())
    return digest.hexdigest()


def check_inputs() -> None:
    for name in workloads.NAMES:
        a, b, c = fingerprint(name, 5), fingerprint(name, 5), fingerprint(name, 6)
        assert a == b, f"{name}: seed 5 gave two different inputs"
        assert a != c, f"{name}: seeds 5 and 6 gave the same inputs"
    props = inputs.properties(4, [(0, 1), (0, 2), (3, 0)], undirected=True)
    assert props == {"nodes": 4, "arcs": 6, "max_out_degree": 3}, props
    print("ok: one seed reproduces identical inputs, another seed differs")


def swapped(state):
    """ranking_result with lower and upper bounds swapped."""
    result = real_ranking_result(state)
    return engine.RankingResult(
        order=result.order, lower=result.upper, upper=result.lower,
        iterations_used=result.iterations_used, criterion=result.criterion,
        separated_fraction=result.separated_fraction)


real_ranking_result = engine.ranking_result
real_update_batch = workloads.update_batch


def drifting_update(state, g, batch, **kw):
    """update_batch that leaves one walk level slightly off."""
    real_update_batch(state, g, batch, **kw)
    state.levels[1][0] *= 1 + 1e-9


def check_corruption() -> None:
    for name in ("static-cold", "static-warm"):
        with mock.patch.object(engine, "ranking_result", swapped):
            line, _, rows = small_run(name, 1, False)
        assert not line["correct"], f"{name}: swapped bounds passed"
        assert line["failed"] == line["attempted"] > 0, f"{name}: {line}"
        assert rows["error_rate"] == 1.0, f"{name}: {rows['error_rate']}"
    with mock.patch.object(workloads, "update_batch", drifting_update):
        line, _, rows = small_run("dynamic-local", 1, False)
    assert not line["correct"] and line["failed"] >= 1, f"dynamic-local: {line}"
    assert rows["error_rate"] == line["failed"] / line["attempted"] > 0
    print("ok: corrupted answers fail the oracle and count in error_rate")


def check_tail() -> None:
    assert measure.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert measure.tail([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0)
    assert measure.tail(list(range(20))) == (50.0, 9)
    print("ok: tail is the highest percentile with ten samples beyond it")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_tail()
        check_inputs()
        check_metrics(spec)
        check_corruption()
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span recorder for the traced benchmark run.

A span covers one call from the benchmark into the package: its name
(`<module>.<call>`), start and end on the perf counter, the span that
was open when it started, and the operation it belongs to. Spans nest
strictly on one thread, so a span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Spans:
    """Records spans; `op` names the operation new spans belong to."""

    enabled = True

    def __init__(self):
        self.rows: list[dict] = []
        self.op: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        row = {"id": len(self.rows), "name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its children."""
        child = [0.0] * len(self.rows)
        for row in self.rows:
            if row["parent"] is not None:
                child[row["parent"]] += duration(row)
        return [duration(row) - c for row, c in zip(self.rows, child)]


class NoSpans:
    """Stand-in for the untraced run: records nothing."""

    enabled = False
    op = None

    def span(self, name: str, **attrs):
        return nullcontext({"attrs": attrs})


def duration(row: dict) -> float:
    return row["end"] - row["start"]

"""The measurement loop and the metrics it reports.

End-to-end metrics come from the untraced run. The traced run alternates
plain and traced operations over the same input stream, so the
difference of their medians is the tracing overhead, and turns its spans
into the per-layer metrics.
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback

import numpy as np
from scipy import sparse

from spans import NoSpans, Spans, duration
from workloads import maxrss_mb

# Setup runs this many times per run; setup_s is the median.
SETUP_REPEATS = 3

# The shared 2-core machine the benchmark was defined on changes speed by
# a quarter or more within minutes, for every workload at once. So a fixed
# reference kernel that runs no katzbounds code is timed before every
# setup and every operation, and the run's timing metrics are reported in
# seconds at the kernel's reference speed: raw time * CAL_REF_S / (the
# run's median kernel time). The raw values are printed and recorded.
CAL_REF_S = 0.0055
CAL_REPEATS = 3

# End-to-end metrics in the result line: (name, unit). Static workloads
# time a query, dynamic ones an update_batch call; work_per_s counts
# queries or undirected edge edits per second of operation time.
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("op_s_tail", "s"),
              ("work_per_s", "1/s"), ("peak_rss_mb", "MB"))

# Per-layer metrics every workload measures, so they form the result
# line of a traced run; the printed table has the rest.
PER_LAYER = (("generate.edges_s", "s"), ("graph.out_csr_s", "s"),
             ("graph.rss_mb", "MB"), ("engine.init_s", "s"),
             ("engine.iterations", "count"), ("engine.iterate_once_ms", "ms"),
             ("engine.check_converged_s", "s"),
             ("engine.ranking_result_s", "s"), ("engine.active_fraction", "ratio"),
             ("engine.matvec_flops_computed", "flop"),
             ("engine.matvec_bytes_computed", "bytes"),
             ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"))


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it: the eleventh-largest sample. Below 20 samples that
    percentile would fall under the median, so the maximum is reported."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Calibration:
    """Times the reference kernel: Python set and dict work, then sparse
    matvecs, the two kinds of work the package does."""

    def __init__(self):
        r = np.random.default_rng(0)
        n, m = 65536, 262144
        self.A = sparse.csr_matrix(
            (np.ones(m), (r.integers(0, n, m), r.integers(0, n, m))),
            shape=(n, n))
        self.x = r.random(n)
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            seen, table = set(), {}
            for i in range(15000):
                seen.add(i * 7 % 100003)
                table[i] = float(i)
            for _ in range(3):
                self.A @ self.x
            self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from raw seconds to seconds at the reference speed."""
        return CAL_REF_S / statistics.median(self.samples)


def measure(w, seconds: float, trace: bool) -> dict:
    """Set up, run whole groups for at least `seconds` of operation time,
    check every answer and return the raw record of the run."""
    tr = Spans() if trace else NoSpans()
    cal = Calibration()
    setup_s = []
    for i in range(SETUP_REPEATS):
        w.reset()
        cal.sample()
        tr.op = f"setup-{i}"
        start = time.perf_counter()
        with tr.span("setup"):
            w.setup(tr)
        setup_s.append(time.perf_counter() - start)
    w.prepare()

    plain_s, traced_s, records, failures, labels = [], [], [], [], {}
    attempted, work, busy, done = 0, 0.0, 0.0, 0
    broken = False
    for group in w.groups():
        for j, op in enumerate(group):
            traced = trace and (j + done) % 2 == 0
            attempted += 1
            tr.op = f"op-{attempted}"
            cal.sample()
            start = time.perf_counter()
            try:
                if traced:
                    with tr.span("op"):
                        result = w.traced(op, tr)
                else:
                    result = w.plain(op)
            except Exception as exc:  # any raise is a failed operation
                traceback.print_exc(file=sys.stderr)
                failures.append((attempted, f"{w.label(op)}: {type(exc).__name__}: {exc}"))
                if w.stateful:
                    broken = True  # the state is undefined from here on
                    break
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            (traced_s if traced else plain_s).append(elapsed)
            work += w.work(op)
            if trace:
                records.append({"op": tr.op, "traced": traced,
                                **w.describe(op, result)})
            labels[attempted] = w.label(op)
            problems = w.check(attempted, op, result)
            if problems:
                failures.append((attempted, f"{w.label(op)}: {'; '.join(problems)}"))
        done += 1
        if broken or (busy >= seconds and done % w.cycle == 0
                      and (not trace or done % 2 == 0)):
            break
    if not broken:
        for index, problems in sorted(w.finish().items()):
            failures.append((index, f"{labels[index]}: {'; '.join(problems)}"))
    return {"setup_s": setup_s, "plain_s": plain_s, "traced_s": traced_s,
            "work": work, "attempted": attempted,
            "failed": len({i for i, _ in failures}),
            "failures": [text for _, text in failures],
            "records": records, "spans": tr if trace else None,
            "peak_rss_mb": maxrss_mb(), "calibration_s": cal.samples,
            "scale": cal.scale()}


def result(w, raw: dict, trace: bool) -> tuple[dict, list, list]:
    """The result line and the printed end-to-end and per-layer rows."""
    e2e, e2e_rows = end_to_end(w, raw)
    values, layer_rows = per_layer(w, raw) if trace else (e2e, [])
    names = PER_LAYER if trace else END_TO_END
    line = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in names}}
    return line, e2e_rows, layer_rows


def end_to_end(w, raw: dict) -> tuple[dict, list[tuple]]:
    """Result-line metrics and the printed rows (name, value, unit, base).

    Times are in seconds at the reference speed (see CAL_REF_S); each row
    also gives the raw value."""
    ops = raw["plain_s"]
    p, tail_value = tail(ops)
    k = raw["scale"]
    n = len(ops)
    busy = sum(raw["plain_s"] + raw["traced_s"])
    measured = {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_s_p50": statistics.median(ops),
        "op_s_tail": tail_value,
        "work_per_s": raw["work"] / busy,
    }
    metrics = {name: value / k if name == "work_per_s" else value * k
               for name, value in measured.items()}
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    kind = w.op_label
    per = "edits" if w.stateful else "queries"
    plural = "updates" if w.stateful else "queries"
    bases = {
        "setup_s": f"median of {len(raw['setup_s'])} setups",
        "op_s_p50": f"median of {n} {plural}",
        "op_s_tail": f"p{p:.4g} of {n} {plural}, "
                     f"{sum(x > tail_value for x in ops)} beyond",
        "work_per_s": f"{raw['work']:g} {per} in {busy:.3f} s",
    }
    shown = {"setup_s": "setup_s", "op_s_p50": f"{kind}_s_p50",
             "op_s_tail": f"{kind}_s_tail", "work_per_s": f"{per}_per_s"}
    rows = [(shown[name], metrics[name], "1/s" if name == "work_per_s" else "s",
             f"{bases[name]}; raw {value:.6g}")
            for name, value in measured.items()]
    rows.append(("calibration_kernel_s", statistics.median(raw["calibration_s"]),
                 "s", f"median of {len(raw['calibration_s'])}; times above "
                 f"are scaled by {CAL_REF_S} s / this = {k:.4f}"))
    if w.stateful:
        recompute = statistics.median(w.recompute_s)
        rows.append(("update_speedup", recompute / measured["op_s_p50"], "x",
                     f"fresh init+run median {recompute:.4f} s "
                     f"({len(w.recompute_s)} runs) / raw update_s_p50"))
        rows.append(("tie_order_mismatches", w.tie_mismatches, "count",
                     f"of {w.verified} states checked against a fresh run"))
    rows.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB", "ru_maxrss, one process"))
    failed = raw["failed"]
    rows.append(("error_rate", failed / raw["attempted"], "ratio",
                 f"{failed} failed of {raw['attempted']} attempted"))
    return metrics, rows


def per_layer(w, raw: dict) -> tuple[dict, list[tuple]]:
    """Per-layer metrics from the traced run's spans and update stats."""
    tr = raw["spans"]
    spans = tr.rows
    ops = {r["op"] for r in spans if r["name"] == "op"}
    setups = {r["op"] for r in spans if r["name"] == "setup"}
    rows: list[tuple] = []
    values: dict = {}

    def put(name, value, unit, base):
        values[name] = value
        rows.append((name, value, unit, base))

    def scoped(name):
        """Spans named `name` in the traced ops, else in the setups."""
        for scope, what in ((ops, "traced ops"), (setups, "setups")):
            found = [r for r in spans if r["name"] == name and r["op"] in scope]
            if found:
                return found, what
        return [], ""

    def put_span(name, note=""):
        """Median over operations (else setups) of the time in span `name`."""
        found, what = scoped(name)
        sums: dict = {}
        for r in found:
            sums[r["op"]] = sums.get(r["op"], 0.0) + duration(r)
        if sums:
            put(name + "_s", statistics.median(sums.values()), "s",
                f"median of {len(sums)} {what}{note}")
        else:
            put(name + "_s", None, "s", "not called")

    def first_attr(names, key):
        for r in spans:
            if r["name"] in names and key in r["attrs"]:
                return r["attrs"][key]
        return None

    for name in ("graph.load_edge_list", "graph.is_symmetric", "graph.out_csr"):
        put_span(name)
    put("graph.rss_mb", first_attr(("graph.load_edge_list", "graph.from_edges"),
                                    "rss_growth_mb"), "MB",
        "ru_maxrss growth across the first graph build")
    for name in ("graph.from_edges", "graph.validate_batch", "graph.out_degrees"):
        put_span(name)

    # Engine: one ranking_result span closes every replayed run.
    runs, scope = scoped("engine.ranking_result")
    scope = scope.replace("ops", "runs").replace("setups", "setup runs")
    put_span("engine.init")
    if runs:
        attrs = [r["attrs"] for r in runs]
        put("engine.iterations", float(np.mean([a["iterations"] for a in attrs])),
            "count", f"mean of {len(attrs)} {scope}")
        for kind in sorted({a["criterion"] for a in attrs}):
            its = [a["iterations"] for a in attrs if a["criterion"] == kind]
            rows.append((f"engine.iterations.{kind}", float(np.mean(its)),
                         "count", f"mean of {len(its)} {scope}"))
        fractions = [a["active"] / a["n"] for a in attrs]
        put("engine.active_fraction", float(np.mean(fractions)), "ratio",
            f"mean of active/n over {len(attrs)} {scope}, n={attrs[0]['n']}")
        put("engine.matvec_flops_computed",
            float(np.mean([a["iterations"] * a["matvec_flops"] for a in attrs])),
            "flop", f"computed: 2*nnz per matvec, mean per run of {scope}")
        put("engine.matvec_bytes_computed",
            float(np.mean([a["iterations"] * a["matvec_bytes"] for a in attrs])),
            "bytes", f"computed: CSR arrays + in/out vectors per matvec, mean per run of {scope}")
    calls, what = scoped("engine.iterate_once")
    if calls:
        put("engine.iterate_once_ms",
            1e3 * statistics.median(duration(r) for r in calls), "ms",
            f"median of {len(calls)} calls in {what}")
    put_span("engine.check_converged", ", summed per run")
    put_span("engine.ranking_result")
    if w.stateful:
        put("engine.recompute_s", statistics.median(w.recompute_s), "s",
            f"median of {len(w.recompute_s)} fresh init+run in verification")

        recs = raw["records"]
        fell = [r["aborted_level"] for r in recs if r["aborted_level"] is not None]
        put("graph.version_bumps", float(np.mean([r["version_bumps"] for r in recs])),
            "count", f"mean per update over {len(recs)} updates")
        put_span("dynamic.update_batch")
        put("dynamic.fallback_ratio", len(fell) / len(recs), "ratio",
            f"{len(fell)} of {len(recs)} updates fell back")
        put("dynamic.aborted_level", float(np.mean(fell)) if fell else None,
            "level", f"mean over {len(fell)} fallbacks")
        for key in ("local_nodes", "visited", "resumed_iterations", "reactivated"):
            put(f"dynamic.{key}", float(np.mean([r[key] for r in recs])), "count",
                f"mean per update over {len(recs)} updates")

    for name in ("reports.node_rows", "reports.dumps_json", "reports.write"):
        put_span(name)
    put("reports.bytes", first_attr(("reports.write",), "bytes"), "bytes",
        "one report")
    put_span("generate.edges")

    # Self time per module over the traced operations, and what is left.
    self_times = tr.self_times()
    op_time = sum(duration(r) for r in spans if r["name"] == "op")
    by_module: dict = {}
    for r, own in zip(spans, self_times):
        if r["op"] in ops and r["name"] != "op":
            module = r["name"].split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + own
    for module, own in sorted(by_module.items()):
        rows.append((f"{module}.self_share", own / op_time, "ratio",
                     f"{own:.4f} s of {op_time:.4f} s traced op time"))
    roots = [(duration(r), own) for r, own in zip(spans, self_times)
             if r["name"] == "op"]
    traced_median = statistics.median(d for d, _ in roots)
    unattributed = statistics.median(own for _, own in roots)
    put("trace.unattributed_s", unattributed, "s",
        f"median per traced op; op median {traced_median:.4f} s "
        f"({unattributed / traced_median:.1%})")
    plain_median = statistics.median(raw["plain_s"])
    put("trace.overhead_s", traced_median - plain_median, "s",
        f"traced op median {traced_median:.4f} s ({len(raw['traced_s'])}) - "
        f"plain {plain_median:.4f} s ({len(raw['plain_s'])})")
    return values, rows

"""Benchmark of the katzbounds package: certified Katz queries and updates.

Run from the root of a source checkout (the package is imported from
./src, nothing needs installing):

    python3 perfbench/run.py --workload static-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One run is one process and one workload. It prints the instance, a table
of every metric with its unit and sample count, and, as the last line, a
JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The full record, spans included, goes to .perfbench-out/. With
--workload all each workload runs in a process of its own.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))


def parse_args(argv, names) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="operation time to measure, in whole groups")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args, names) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for name in names:
        print(f"== {name}", flush=True)
        code = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT).returncode
        worst = max(worst, code)
    return worst


def table(rows) -> str:
    lines = []
    for name, value, unit, base in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<32} {shown:>14} {unit:<6} {base}")
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        import measure
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, workloads.NAMES)
    if args.workload == "all":
        return run_all(args, workloads.NAMES)

    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        w = workloads.make(args.workload, args.seed, Path(tmp))
        raw = measure.measure(w, args.seconds, bool(args.trace))
    line, e2e_rows, layer_rows = measure.result(w, raw, bool(args.trace))

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in w.properties.items()))
    print("end to end" + (" (mixed plain and traced ops)" if args.trace else ""))
    print(table(e2e_rows))
    if layer_rows:
        print("per layer")
        print(table(layer_rows))
    for failure in raw["failures"]:
        print(f"FAILED {failure}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "instance": w.properties, "end_to_end": e2e_rows,
              "per_layer": layer_rows, "failures": raw["failures"],
              "setup_s": raw["setup_s"], "plain_s": raw["plain_s"],
              "traced_s": raw["traced_s"], "records": raw["records"],
              "spans": raw["spans"].rows if raw["spans"] else []}
    out = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float))

    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

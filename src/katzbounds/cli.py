"""Command-line front end.

Subcommands: static (one bounded run), dynamic (replay a batch file
against a live state), compare (bounded engine next to the baseline
methods), gen (write benchmark instances). Exit codes: 0 success,
2 usage, 3 domain or parameter problem, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import sys
import time

import numpy as np

from . import baselines, dynamic, engine
from .errors import KatzError
from .generate import MODELS, generate
from .graph import Graph, dumps_edge_list, load_edge_list
from .reports import NodeTable, RunReport, csv_pieces, json_pieces, node_rows

log = logging.getLogger(__name__)


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if out := args.func(args):  # (report, rows); gen returns None
            _emit(args, *out)  # after the command freed its graph and state
        return 0
    except KatzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="katzbounds",
        description="Katz centrality rankings from certified bounds.")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_static = sub.add_parser(
        "static", help="run the bounded engine once on a fixed graph")
    _add_graph_args(p_static)
    _add_engine_args(p_static)
    # Only perfbench passes this (static-cold's argv in
    # perfbench/workloads.py), and it goes when that reader does.
    p_static.add_argument("--threads", type=int, choices=(1,), default=1,
                          help=argparse.SUPPRESS)
    _add_output_args(p_static)
    p_static.set_defaults(func=cmd_static)

    p_dynamic = sub.add_parser(
        "dynamic", help="run once, then replay a batch file of arc changes")
    _add_graph_args(p_dynamic)
    p_dynamic.add_argument("batches", help="batch file: '+ u v' / '- u v' "
                           "lines, blank line between batches")
    _add_engine_args(p_dynamic)
    p_dynamic.add_argument("--verify", action="store_true",
                           help="check each update against a fresh "
                           "static run (slow)")
    _add_output_args(p_dynamic)
    p_dynamic.set_defaults(func=cmd_dynamic)

    p_compare = sub.add_parser(
        "compare", help="bounded engine next to foster / cg baselines")
    _add_graph_args(p_compare)
    p_compare.add_argument("--methods", default="katz,foster,cg",
                           help="comma list from katz,foster,cg "
                           "(default all; katz always runs)")
    p_compare.add_argument("--epsilon", type=float, default=engine.DEFAULT_EPSILON)
    p_compare.add_argument("--alpha", type=float, default=None)
    p_compare.add_argument("--foster-tol", type=float, default=1e-9)
    p_compare.add_argument("--cg-tol", type=float, default=1e-15)
    _add_output_args(p_compare)
    # compare ranks fully with the derived cap; _run reads these.
    p_compare.set_defaults(func=cmd_compare, criterion="ranking", k=None,
                           pair=None, max_iterations=None)

    p_gen = sub.add_parser("gen", help="write a benchmark edge list")
    p_gen.add_argument("out_path", help="output file")
    p_gen.add_argument("--model", required=True, choices=MODELS)
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--edge-factor", type=int, default=8,
                       help="rmat only: sampled edges per node (default 8)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="edge list file ('u v' lines, '#'/'%%' "
                   "comments, optional 'NODES n' header)")
    p.add_argument("--undirected", action="store_true",
                   help="treat each line as an edge in both directions "
                   "and use the sharper undirected lower bound")


def _add_engine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--criterion", default="ranking",
                   choices=("ranking", "topk", "score", "pair"),
                   help="stopping rule (default ranking)")
    p.add_argument("--epsilon", type=float, default=engine.DEFAULT_EPSILON,
                   help="separation tolerance (default 1e-6)")
    p.add_argument("--alpha", type=float, default=None,
                   help="attenuation factor (default 1/(1+max degree))")
    p.add_argument("--k", type=int, default=None, help="k for --criterion topk")
    p.add_argument("--pair", type=int, nargs=2, metavar=("U", "V"),
                   default=None, help="node pair for --criterion pair")
    p.add_argument("--max-iterations", type=int, default=None,
                   help="iteration cap (default derived from epsilon)")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="json", choices=("json", "csv"),
                   help="report format (default json)")
    p.add_argument("--out-file", default=None,
                   help="write the report here instead of stdout")


def _criterion(args) -> engine.Criterion:
    topk, pair = args.criterion == "topk", args.criterion == "pair"
    if topk and args.k is None:
        raise KatzError("--criterion topk needs --k")
    if pair and args.pair is None:
        raise KatzError("--criterion pair needs --pair U V")
    u, v = args.pair if pair else (None, None)
    return engine.Criterion(args.criterion, args.epsilon, u=u, v=v,
                            k=args.k if topk else None)


def _emit(args, report: RunReport, rows: NodeTable) -> None:
    # The pieces come ready to write: a refused table leaves no file.
    pieces = (csv_pieces(rows) if args.out == "csv"
              else json_pieces(report.to_dict()))
    with (open(args.out_file, "w") if args.out_file
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(pieces)


def _run(args):
    """Load the graph, then init and run the bounded engine on it.

    Returns (graph, state, result, wall time of run).
    """
    g = load_edge_list(args.graph, undirected=args.undirected)
    state = engine.init(g, _criterion(args), alpha=args.alpha,
                        undirected=args.undirected,
                        max_iterations=args.max_iterations)
    start = time.perf_counter()
    result = engine.run(state, g)
    return g, state, result, time.perf_counter() - start


def _report(command: str, state: engine.KatzState,
            result: engine.RankingResult, wall: float, **kw) -> RunReport:
    """The report fields static, dynamic and compare fill alike; `kw`
    gives the rest."""
    crit = state.criterion
    params = {
        "criterion": crit.kind,
        "epsilon": crit.epsilon,
        "alpha": state.alpha,
        "gamma": state.gamma,
        "undirected": state.undirected,
    }
    prefix = min(10, state.n)
    if crit.kind == engine.TOPK:
        params["k"] = prefix = crit.k
    if crit.kind == engine.PAIR:
        params["pair"] = [crit.u, crit.v]
    return RunReport(
        command=command, method="katz-bounds", parameters=params,
        iterations=result.iterations_used, wall_time_s=wall,
        separated_fraction=result.separated_fraction,
        ranking_prefix=result.top(prefix), **kw)


# ---- subcommands ----

def cmd_static(args) -> tuple[RunReport, NodeTable]:
    _, state, result, wall = _run(args)
    report = _report("static", state, result, wall,
                     nodes=node_rows(result.order, result.lower, result.upper))
    return report, report.nodes


def cmd_dynamic(args) -> tuple[RunReport, NodeTable]:
    batches = dynamic.load_batches(args.batches)
    g, state, result, initial_wall = _run(args)

    batch_reports = []
    for index, batch in enumerate(batches):
        start = time.perf_counter()
        dynamic.update_batch(state, g, batch)
        entry = {
            "batch": index,
            "insertions": len(batch.ins),
            "deletions": len(batch.dels),
            "wall_time_s": time.perf_counter() - start,
            **dataclasses.asdict(state.last_update_stats),
        }
        if args.verify:
            entry["matches_static"] = _matches_fresh_static(state, g)
        batch_reports.append(entry)

    final = engine.ranking_result(state)
    report = _report(
        "dynamic", state, final,
        initial_wall + sum(b["wall_time_s"] for b in batch_reports),
        nodes=node_rows(final.order, final.lower, final.upper),
        extra={"initial_iterations": result.iterations_used,
               "initial_wall_time_s": initial_wall,
               "batches": batch_reports})
    return report, report.nodes


def _matches_fresh_static(state: engine.KatzState, g: Graph) -> bool:
    """Recompute from scratch to the same depth; levels, partial sums and
    bounds must be bitwise equal."""
    fresh = engine.init(g, state.criterion, alpha=state.alpha,
                        undirected=state.undirected,
                        max_iterations=max(state.r, 1))
    for _ in range(state.r):
        engine.iterate_once(fresh, g)
    pairs = [*zip(state.levels, fresh.levels), (state.katz, fresh.katz),
             (state.lower, fresh.lower), (state.upper, fresh.upper)]
    return all(np.array_equal(mine, theirs) for mine, theirs in pairs)


def cmd_compare(args) -> tuple[RunReport, NodeTable]:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = set(methods) - {"katz", "foster", "cg"}
    if unknown:
        raise KatzError(f"unknown methods: {', '.join(sorted(unknown))}")

    # The bounded engine always runs: it anchors the agreement numbers.
    g, state, result, katz_wall = _run(args)
    top = min(10, state.n)
    entries = [{
        "method": "katz-bounds",
        "iterations": result.iterations_used,
        "wall_time_s": katz_wall,
        "separated_fraction": result.separated_fraction,
        "top": result.top(top),
        "ranking_agreement": 1.0,
    }]
    for name in methods:
        if name == "katz":
            continue
        start = time.perf_counter()
        if name == "foster":
            sv = baselines.foster(g, alpha=state.alpha, tol=args.foster_tol)
        else:
            sv = baselines.cg_katz(g, alpha=state.alpha,
                                   residual_tol=args.cg_tol)
        wall = time.perf_counter() - start
        order = sv.ranking()
        entries.append({
            "method": sv.method,
            "iterations": sv.iterations,
            "residual": sv.residual,
            "wall_time_s": wall,
            "top": [int(v) for v in order[:top]],
            "ranking_agreement": concordant_fraction(result.order, order),
        })

    report = _report(
        "compare", state, result,
        katz_wall + sum(e["wall_time_s"] for e in entries[1:]),
        extra={"methods": entries})
    return report, node_rows(result.order, result.lower, result.upper)


def concordant_fraction(order_a, order_b) -> float:
    """Fraction of node pairs ordered the same way by both rankings.

    For permutations this is (1 + Kendall's tau) / 2. The discordant
    pair count is recovered as an integer first, so that identical and
    reversed orders give exactly 1.0 and 0.0.
    """
    # Imported here: scipy.stats adds about 50 MB to every process that
    # loads it, and only compare needs it.
    from scipy import stats

    n = len(order_a)
    if n < 2:
        return 1.0
    pos = np.empty(n, dtype=np.int64)
    pos[np.asarray(order_a)] = np.arange(n)
    tau = stats.kendalltau(np.arange(n), pos[np.asarray(order_b)]).statistic
    total = n * (n - 1) // 2
    return 1.0 - round((1.0 - tau) * total / 2) / total


def cmd_gen(args) -> None:
    edges = generate(args.model, args.nodes, seed=args.seed,
                              edge_factor=args.edge_factor)
    with open(args.out_path, "w") as fh:
        fh.write(dumps_edge_list(args.nodes, edges))
    log.info("wrote %d edges on %d nodes to %s",
             len(edges), args.nodes, args.out_path)


if __name__ == "__main__":
    console_main()

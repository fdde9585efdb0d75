"""The four benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. A workload builds its inputs from
the seed in `setup`, computes its correctness reference in `prepare`
(outside every timer), and then yields operations in groups; the loop in
measure.py runs whole groups. Every operation has a plain form, the
public call a user makes, and a traced form that makes the same public
calls one at a time inside spans. `check` compares an operation's answer
with the reference and returns the problems it found.

Why these four:
  static-cold       katzbounds static on a file: parse, symmetry check and
                    report writing dominate; the engine is under 10%.
  static-warm       init + run on a prebuilt directed graph with twice the
                    nodes: almost all engine (matvec, check_converged,
                    ranking_result), on the directed bound path.
  dynamic-local     one-edge updates on a lattice stay under theta: the
                    local propagation side of update_batch.
  dynamic-fallback  updates on rmat cross theta at level 4-5 for every
                    batch size: the full-level fallback side.
"""
from __future__ import annotations

import json
import math
import resource
import time
from pathlib import Path

import numpy as np

from katzbounds import (ConvergenceError, Criterion, Graph, cg_katz,
                        check_converged, cli, dumps_edge_list, foster,
                        generate, init, iterate_once, load_edge_list,
                        ranking_result, run, update_batch)
from katzbounds.reports import RunReport, dumps_json, node_rows

import inputs

EPSILON = 1e-6
TOP_K = 25

# Pinned reference accuracy. cg stops at a 2-norm residual of 1e-12 and
# foster at a sup-norm step of 1e-13; both leave errors far below this
# slack, which in turn is far below epsilon.
CG_TOL = 1e-12
FOSTER_TOL = 1e-13
SLACK = 1e-9

# The relative tolerance of `katzbounds dynamic --verify`.
VERIFY_RTOL = 1e-12
# Share of dynamic batches checked against a fresh run (the final state
# is always checked).
VERIFY_SHARE = 0.125


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rotation(pair: tuple[int, int]) -> list[Criterion]:
    """The four questions every static workload asks in turn."""
    return [Criterion.ranking(EPSILON), Criterion.top_k(TOP_K, EPSILON),
            Criterion.pair(*pair, EPSILON), Criterion.score(EPSILON)]


def replay_run(state, g: Graph, tr):
    """engine.run, one public call at a time, including its iteration cap."""
    while True:
        with tr.span("engine.iterate_once"):
            iterate_once(state, g)
        with tr.span("engine.check_converged"):
            done = check_converged(state)
        if done:
            break
        if state.r >= state.max_iterations:
            raise ConvergenceError(
                f"stopping rule still unmet after {state.r} iterations",
                iterations=state.r, gap=state.gap())
    with tr.span("engine.ranking_result") as span:
        result = ranking_result(state)
    A = g.out_csr()
    span["attrs"].update(
        criterion=state.criterion.kind, iterations=state.r,
        active=int(state.active.size), n=state.n,
        matvec_flops=2 * A.nnz,
        matvec_bytes=A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        + 2 * 8 * state.n)
    return result


def answer_problems(crit: Criterion, order, lower, upper, ref) -> list[str]:
    """Check a certified answer against reference scores.

    The bounds must bracket the reference, and the answer must hold for
    the reference up to the criterion's epsilon (ties within epsilon may
    go either way), both within the pinned reference slack.
    """
    problems = []
    below = np.max(lower - ref)
    above = np.max(ref - upper)
    if below > SLACK or above > SLACK:
        problems.append(f"bounds miss the reference by {max(below, above):.3e}")
    tol = crit.epsilon + SLACK
    if crit.kind == "score":
        width = np.max(upper - lower)
        if width >= crit.epsilon:
            problems.append(f"score interval {width:.3e} not below epsilon")
    elif crit.kind == "pair":
        first, second = sorted((crit.u, crit.v), key=lambda x: rank_of(order, x))
        if ref[first] < ref[second] - tol:
            problems.append(f"pair answer {first} > {second} contradicts the reference")
    else:
        top = order if crit.kind == "ranking" else order[:crit.k]
        drops = ref[top[1:]] - ref[top[:-1]]
        if drops.size and drops.max() > tol:
            problems.append(f"ranked order contradicts the reference by {drops.max():.3e}")
        if crit.kind == "topk" and order.size > crit.k:
            gap = ref[order[crit.k:]].max() - ref[top].min()
            if gap > tol:
                problems.append(f"a node outside the top {crit.k} beats it by {gap:.3e}")
    return problems


def rank_of(order, v: int) -> int:
    return int(np.flatnonzero(order == v)[0])


class Workload:
    """Shared shape; see the module docstring."""

    name = ""
    cycle = 1        # groups per full cycle of the input mix
    stateful = False  # operations build on each other's state
    op_label = "query"

    def __init__(self, seed: int):
        self.seed = seed
        self.properties: dict = {}

    def reset(self) -> None:
        """Drop what the last setup built, so setups do not overlap."""

    def finish(self) -> dict[int, list[str]]:
        """Checks left for after the loop, as {operation index: problems}."""
        return {}

    def work(self, op) -> float:
        return 1.0

    def describe(self, op, result) -> dict:
        """Per-operation facts the traced run reports."""
        return {}


class StaticWorkload(Workload):
    # A run asks every question at least twice: one static-cold query
    # takes seconds, and a median of four moved by a quarter between runs.
    cycle = 2

    def groups(self):
        pairs = inputs.node_pairs(self.nodes, self.seed)
        while True:
            yield rotation(next(pairs))

    def label(self, crit) -> str:
        return crit.kind


class StaticCold(StaticWorkload):
    """`katzbounds static <file> --undirected` on an rmat edge file."""

    name = "static-cold"

    def __init__(self, seed: int, workdir: Path, nodes: int = 2**16):
        super().__init__(seed)
        self.nodes = nodes
        self.graph_path = workdir / "graph.txt"
        self.report_path = workdir / "report.json"

    def reset(self) -> None:
        self.edges = None

    def setup(self, tr) -> None:
        with tr.span("generate.edges"):
            self.edges = generate("rmat", self.nodes, seed=self.seed)
        with tr.span("graph.dumps_edge_list"):
            text = dumps_edge_list(self.nodes, self.edges)
        self.graph_path.write_text(text)

    def prepare(self) -> None:
        self.properties = inputs.properties(self.nodes, self.edges, True)
        self.answers = []

    def argv(self, crit: Criterion) -> list[str]:
        argv = ["static", str(self.graph_path), "--undirected",
                "--criterion", crit.kind, "--epsilon", repr(crit.epsilon),
                "--threads", "1", "--out-file", str(self.report_path)]
        if crit.kind == "topk":
            argv += ["--k", str(crit.k)]
        if crit.kind == "pair":
            argv += ["--pair", str(crit.u), str(crit.v)]
        return argv

    def plain(self, crit):
        code = cli.main(self.argv(crit))
        if code != 0:
            raise RuntimeError(f"katzbounds static exited with code {code}")

    def traced(self, crit, tr):
        """cmd_static's public calls in order, with the CSR build and the
        symmetry check charged to graph."""
        with tr.span("graph.load_edge_list") as span:
            before = maxrss_mb()
            g = load_edge_list(str(self.graph_path), undirected=True)
            span["attrs"]["rss_growth_mb"] = maxrss_mb() - before
        with tr.span("graph.is_symmetric"):
            g.is_symmetric()
        with tr.span("engine.init"):
            state = init(g, crit, undirected=True)
        with tr.span("graph.out_csr"):
            g.out_csr()
        start = time.perf_counter()
        result = replay_run(state, g, tr)
        wall = time.perf_counter() - start
        with tr.span("reports.node_rows"):
            rows = node_rows(result.order, result.lower, result.upper)
        params = {"criterion": crit.kind, "epsilon": crit.epsilon,
                  "alpha": state.alpha, "gamma": state.gamma,
                  "undirected": True, "threads": state.threads}
        if crit.kind == "topk":
            params["k"] = crit.k
        if crit.kind == "pair":
            params["pair"] = [crit.u, crit.v]
        prefix = crit.k if crit.kind == "topk" else min(10, state.n)
        report = RunReport(
            command="static", method="katz-bounds", parameters=params,
            iterations=result.iterations_used, wall_time_s=wall,
            separated_fraction=result.separated_fraction,
            ranking_prefix=result.top(prefix), nodes=rows)
        with tr.span("reports.dumps_json"):
            text = dumps_json(report.to_dict())
        with tr.span("reports.write", bytes=len(text)):
            with open(self.report_path, "w") as fh:
                fh.write(text)

    def check(self, index, crit, result) -> list[str]:
        """Parse the report now, compare it once the loop is over.

        The reference needs a graph of its own; building it after the
        loop keeps it out of the first load's memory growth.
        """
        report = json.loads(self.report_path.read_text())
        self.report_path.unlink()
        rows = report["nodes"]
        order = np.array([row["node_id"] for row in rows], dtype=np.int64)
        if len(rows) != self.nodes or not np.array_equal(
                np.sort(order), np.arange(self.nodes)):
            return [f"report lists {len(rows)} rows, not each of {self.nodes} nodes once"]
        lower = np.empty(self.nodes)
        upper = np.empty(self.nodes)
        lower[order] = [row["lower"] for row in rows]
        upper[order] = [row["upper"] for row in rows]
        self.answers.append((index, crit, order, lower, upper))
        prefix = report["ranking_prefix"]
        if prefix != order[:len(prefix)].tolist():
            return ["ranking_prefix disagrees with the node table"]
        return []

    def finish(self) -> dict[int, list[str]]:
        g = Graph.from_edges(self.nodes, self.edges, undirected=True)
        ref = cg_katz(g, residual_tol=CG_TOL).values
        found = {}
        for index, crit, order, lower, upper in self.answers:
            problems = answer_problems(crit, order, lower, upper, ref)
            if problems:
                found[index] = problems
        return found


class StaticWarm(StaticWorkload):
    """init + run on a directed rmat graph built once in setup."""

    name = "static-warm"

    def __init__(self, seed: int, nodes: int = 2**17):
        super().__init__(seed)
        self.nodes = nodes

    def reset(self) -> None:
        self.g = self.arcs = None

    def setup(self, tr) -> None:
        with tr.span("generate.edges"):
            edges = generate("rmat", self.nodes, seed=self.seed)
        self.arcs = inputs.orient(edges, self.seed)
        del edges
        with tr.span("graph.from_edges") as span:
            before = maxrss_mb()
            self.g = Graph.from_edges(self.nodes, self.arcs)
            span["attrs"]["rss_growth_mb"] = maxrss_mb() - before
        with tr.span("graph.out_csr"):
            self.g.out_csr()

    def prepare(self) -> None:
        self.properties = inputs.properties(self.nodes, self.arcs, False)
        self.arcs = None
        self.ref = foster(self.g, tol=FOSTER_TOL).values

    def plain(self, crit):
        state = init(self.g, crit)
        return run(state, self.g)

    def traced(self, crit, tr):
        with tr.span("engine.init"):
            state = init(self.g, crit)
        return replay_run(state, self.g, tr)

    def check(self, index, crit, result) -> list[str]:
        return answer_problems(crit, result.order, result.lower,
                               result.upper, self.ref)


class Dynamic(Workload):
    """A warm top-k state kept current under (delete, re-insert) batches."""

    stateful = True
    op_label = "update"

    def __init__(self, seed: int, model: str, nodes: int, sizes):
        super().__init__(seed)
        self.model = model
        self.nodes = nodes
        self.sizes = tuple(sizes)
        self.cycle = len(self.sizes)
        self.crit = Criterion.top_k(TOP_K, EPSILON)
        self.recompute_s: list[float] = []
        self.verified = 0
        self.tie_mismatches = 0

    def reset(self) -> None:
        self.g = self.state = self.edges = None

    def setup(self, tr) -> None:
        with tr.span("generate.edges"):
            self.edges = generate(self.model, self.nodes, seed=self.seed)
        with tr.span("graph.from_edges") as span:
            before = maxrss_mb()
            self.g = Graph.from_edges(self.nodes, self.edges, undirected=True)
            span["attrs"]["rss_growth_mb"] = maxrss_mb() - before
        with tr.span("graph.out_csr"):
            self.g.out_csr()
        with tr.span("engine.init"):
            self.state = init(self.g, self.crit, undirected=True)
        if tr.enabled:
            replay_run(self.state, self.g, tr)
        else:
            run(self.state, self.g)

    def prepare(self) -> None:
        self.properties = inputs.properties(self.nodes, self.edges, True)
        if self.model == "grid":
            key = inputs.boundary_distance(self.edges, math.isqrt(self.nodes))
        else:
            key = inputs.hub_degree(self.edges, self.nodes)
        self.stream = inputs.edit_stream(self.edges, self.sizes, key, self.seed)
        self.pick = inputs.rng(self.seed, inputs.VERIFY)
        self.edges = None

    def groups(self):
        for delete, insert in self.stream:
            yield [delete, insert]

    def label(self, batch) -> str:
        kind = "insert" if batch.insertions else "delete"
        return f"{kind} of {len(batch) // 2} edges"

    def work(self, batch) -> float:
        return len(batch) / 2  # undirected edge edits

    def plain(self, batch):
        before = self.g.version
        update_batch(self.state, self.g, batch)
        return self.g.version - before

    def traced(self, batch, tr):
        with tr.span("graph.validate_batch"):
            self.g.validate_batch(batch)
        with tr.span("graph.out_degrees"):
            self.g.out_degrees()
        before = self.g.version
        with tr.span("dynamic.update_batch"):
            update_batch(self.state, self.g, batch)
        return self.g.version - before

    def describe(self, batch, bumps) -> dict:
        stats = self.state.last_update_stats
        return {"version_bumps": bumps, "aborted_level": stats.aborted_level,
                "local_nodes": sum(stats.level_sizes),
                "visited": stats.visited,
                "resumed_iterations": stats.resumed_iterations,
                "reactivated": stats.reactivated}

    def check(self, index, batch, bumps) -> list[str]:
        self.last = index
        if self.pick.random() < VERIFY_SHARE:
            return self.verify()
        return []

    def finish(self) -> dict[int, list[str]]:
        """The final state, charged to the update that produced it."""
        problems = self.verify()
        return {self.last: ["final state: " + p for p in problems]} if problems else {}

    def verify(self) -> list[str]:
        """Compare with a fresh init + run, as `dynamic --verify` does.

        The fresh state is brought to the same depth and its levels,
        partial sums and bounds must match to VERIFY_RTOL. Whether the
        two also order the top k identically, ties included, is counted
        separately: the values agree, so a difference there is float
        drift in tie order, not a wrong certificate.
        """
        state, g = self.state, self.g
        start = time.perf_counter()
        fresh = init(g, state.criterion, alpha=state.alpha, undirected=True)
        run(fresh, g)
        self.recompute_s.append(time.perf_counter() - start)
        while fresh.r < state.r:
            iterate_once(fresh, g)
        depth = state.r + 1
        pairs = list(zip(state.levels, fresh.levels[:depth]))
        if fresh.r == state.r:
            pairs += [(state.katz, fresh.katz), (state.lower, fresh.lower),
                      (state.upper, fresh.upper)]
        else:
            katz = np.zeros(state.n)
            for level in fresh.levels[1:depth]:
                katz += level
            pairs.append((state.katz, katz))
        self.verified += 1
        if not all(np.allclose(a, b, rtol=VERIFY_RTOL, atol=VERIFY_RTOL)
                   for a, b in pairs):
            return [f"state differs from a fresh run at depth {state.r}"]
        if (fresh.r == state.r and ranking_result(state).top(TOP_K)
                != ranking_result(fresh).top(TOP_K)):
            self.tie_mismatches += 1
        return []


NAMES = ("static-cold", "static-warm", "dynamic-local", "dynamic-fallback")


def make(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """The named workload at benchmark size, or at self-test size.

    `workdir` holds static-cold's edge file and report."""
    if name == "static-cold":
        return StaticCold(seed, workdir, nodes=2**10 if small else 2**16)
    if name == "static-warm":
        return StaticWarm(seed, nodes=2**11 if small else 2**17)
    if name == "dynamic-local":
        sizes = (1, 1) if small else inputs.LOCAL_SIZES
        w = Dynamic(seed, "grid", 24**2 if small else 256**2, sizes)
    elif name == "dynamic-fallback":
        sizes = (1, 1, 10, 20) if small else inputs.FALLBACK_SIZES
        w = Dynamic(seed, "rmat", 2**10 if small else 2**16, sizes)
    else:
        raise KeyError(name)
    w.name = name
    return w


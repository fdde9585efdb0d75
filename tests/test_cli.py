"""End-to-end CLI runs through main(argv)."""
from __future__ import annotations

import json

import pytest

from katzbounds.cli import concordant_fraction, main


@pytest.fixture
def tri(tmp_path):
    p = tmp_path / "tri.txt"
    p.write_text("NODES 3\n0 1\n1 2\n0 2\n")
    return str(p)


@pytest.fixture
def starfile(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text("NODES 6\n0 1\n0 2\n0 3\n0 4\n0 5\n")
    return str(p)


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_static_json_report(capsys, starfile):
    doc = run_json(capsys, ["static", starfile, "--undirected",
                            "--epsilon", "1e-7"])
    assert doc["command"] == "static"
    assert doc["parameters"]["criterion"] == "ranking"
    assert doc["ranking_prefix"][0] == 0
    assert doc["iterations"] >= 1
    assert doc["nodes"][0]["rank"] == 1
    assert doc["nodes"][0]["node_id"] == 0
    assert 0.0 <= doc["separated_fraction"] <= 1.0


def test_static_csv_output(capsys, starfile):
    rc = main(["static", starfile, "--undirected", "--out", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "node_id,lower,upper,rank"
    assert len(lines) == 7
    assert lines[1].split(",")[0] == "0"
    # the same table as the JSON report's, and newline-terminated
    assert out.endswith("\n") and out.count("\n") == 7
    nodes = run_json(capsys, ["static", starfile, "--undirected"])["nodes"]
    for line, node in zip(lines[1:], nodes, strict=True):
        node_id, lower, upper, rank = line.split(",")
        assert (int(node_id), float(lower), float(upper), int(rank)) == \
            (node["node_id"], node["lower"], node["upper"], node["rank"])


def test_static_out_file(tmp_path, capsys, tri):
    dest = tmp_path / "report.json"
    rc = main(["static", tri, "--undirected", "--out-file", str(dest)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(dest.read_text())
    assert doc["command"] == "static"


def test_static_topk_and_pair(capsys, starfile):
    doc = run_json(capsys, ["static", starfile, "--undirected",
                            "--criterion", "topk", "--k", "2"])
    assert doc["parameters"]["k"] == 2
    assert len(doc["ranking_prefix"]) == 2
    doc = run_json(capsys, ["static", starfile, "--undirected",
                            "--criterion", "pair", "--pair", "0", "3"])
    assert doc["parameters"]["pair"] == [0, 3]


def test_topk_without_k_is_domain_error(capsys, starfile):
    rc = main(["static", starfile, "--criterion", "topk"])
    assert rc == 3
    assert "error" in capsys.readouterr().err


def test_missing_file_is_io_error(capsys):
    rc = main(["static", "/no/such/file.txt"])
    assert rc == 4


def test_malformed_graph_is_domain_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 one\n")
    rc = main(["static", str(p)])
    assert rc == 3
    assert "line 1" in capsys.readouterr().err


def test_inadmissible_alpha_is_domain_error(capsys, tri):
    rc = main(["static", tri, "--undirected", "--alpha", "0.9"])
    assert rc == 3


def test_usage_error_exits_two(capsys, tri):
    with pytest.raises(SystemExit) as exc:
        main(["static", tri, "--criterion", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["static", "compare", "dynamic"])
def test_threads_default_to_one(capsys, tmp_path, starfile, command):
    # Every command runs on one thread and the report no longer names a
    # thread count. Only static still takes `--threads 1`, because
    # perfbench's static-cold argv passes it; any other use exits 2.
    batches = tmp_path / "b.txt"
    batches.write_text("")
    argv = [command, starfile] + ([str(batches)] if command == "dynamic"
                                  else [])
    doc = run_json(capsys, argv + ["--undirected"])
    assert "threads" not in doc["parameters"]
    refused = ["1", "2"]
    if command == "static":
        doc = run_json(capsys, argv + ["--undirected", "--threads", "1"])
        assert "threads" not in doc["parameters"]
        refused = ["2"]
    for count in refused:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--threads", count])
        assert exc.value.code == 2, (argv, count)


def test_dynamic_with_verify(tmp_path, capsys, tri):
    bfile = tmp_path / "b.txt"
    bfile.write_text("- 1 2\n- 2 1\n\n+ 1 2\n+ 2 1\n")
    doc = run_json(capsys, ["dynamic", tri, str(bfile), "--undirected",
                            "--alpha", "0.3", "--verify"])
    assert doc["command"] == "dynamic"
    assert len(doc["batches"]) == 2
    for entry in doc["batches"]:
        assert list(entry) == [
            "batch", "insertions", "deletions", "wall_time_s", "visited",
            "level_sizes", "reactivated", "aborted_level",
            "resumed_iterations", "matvecs", "pushed_arcs", "matches_static"]
        assert entry["matches_static"] is True
        assert entry["matvecs"] >= entry["resumed_iterations"]
        assert entry["pushed_arcs"] >= 0
    assert doc["initial_iterations"] >= 1


@pytest.mark.parametrize("criterion",
                         [[], ["--criterion", "topk", "--k", "3"]],
                         ids=["ranking", "topk"])
def test_commands_share_the_run_fields(tmp_path, capsys, starfile, criterion):
    # static, dynamic with no batch and compare run the same engine at
    # the same epsilon, so the fields they share agree
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    common = [starfile, "--undirected", "--epsilon", "1e-7"]
    docs = [run_json(capsys, ["static", *common, *criterion]),
            run_json(capsys, ["dynamic", starfile, str(empty), *common[1:],
                              *criterion])]
    if not criterion:
        docs.append(run_json(capsys, ["compare", *common,
                                      "--methods", "katz"]))
    assert docs[0]["nodes"] == docs[1]["nodes"]
    for key in ("parameters", "iterations", "separated_fraction",
                "ranking_prefix"):
        assert all(doc[key] == docs[0][key] for doc in docs), key
    assert len(docs[0]["ranking_prefix"]) == (3 if criterion else 6)


def test_dynamic_inadmissible_batch_fails_cleanly(tmp_path, capsys, starfile):
    bfile = tmp_path / "b.txt"
    bfile.write_text("+ 1 2\n+ 2 1\n")
    # default alpha = 1/6 stays admissible: degree goes 5 -> 5
    rc = main(["dynamic", starfile, str(bfile), "--undirected"])
    assert rc == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("- 9 9\n")
    rc = main(["dynamic", starfile, str(bad), "--undirected"])
    assert rc == 3


def test_dynamic_batch_file_not_utf8_is_domain_error(tmp_path, capsys, tri):
    bfile = tmp_path / "b.txt"
    bfile.write_bytes(b"- 1 2\n- 2 1\n\n+ 1 \xff2\n")
    rc = main(["dynamic", tri, str(bfile), "--undirected"])
    assert rc == 3
    assert "line 4" in capsys.readouterr().err


def test_compare_report(capsys, tri):
    doc = run_json(capsys, ["compare", tri, "--undirected"])
    methods = {m["method"]: m for m in doc["methods"]}
    assert set(methods) == {"katz-bounds", "foster", "cg"}
    assert methods["katz-bounds"]["ranking_agreement"] == 1.0
    assert methods["foster"]["ranking_agreement"] == 1.0
    assert methods["cg"]["ranking_agreement"] == 1.0


def test_compare_method_subset(capsys, tri):
    doc = run_json(capsys, ["compare", tri, "--undirected",
                            "--methods", "foster"])
    assert [m["method"] for m in doc["methods"]] == ["katz-bounds", "foster"]


def test_compare_unknown_method(capsys, tri):
    rc = main(["compare", tri, "--methods", "pagerank"])
    assert rc == 3


def test_compare_cg_on_directed_graph_fails(tmp_path, capsys):
    p = tmp_path / "d.txt"
    p.write_text("0 1\n1 2\n")
    rc = main(["compare", str(p), "--methods", "cg"])
    assert rc == 3


def test_gen_then_static_round_trip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["gen", str(out), "--model", "grid", "--nodes", "16"])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("NODES 16\n")
    doc = run_json(capsys, ["static", str(out), "--undirected"])
    assert len(doc["nodes"]) == 16


def test_gen_rmat_reports_isolated_nodes(tmp_path, capsys):
    out = tmp_path / "r.txt"
    rc = main(["gen", str(out), "--model", "rmat", "--nodes", "64",
               "--seed", "3"])
    assert rc == 0
    doc = run_json(capsys, ["static", str(out), "--undirected"])
    assert len(doc["nodes"]) == 64


def test_gen_bad_model_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", str(tmp_path / "x.txt"), "--model", "hypercube",
              "--nodes", "8"])
    assert exc.value.code == 2


# ---- ranking agreement helper ----

def test_concordant_fraction_identical():
    assert concordant_fraction([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0


def test_concordant_fraction_reversed():
    assert concordant_fraction([0, 1, 2], [2, 1, 0]) == 0.0


def test_concordant_fraction_one_swap():
    # one adjacent transposition flips 1 of 6 pairs
    frac = concordant_fraction([0, 1, 2, 3], [1, 0, 2, 3])
    assert abs(frac - 5 / 6) < 1e-15


def test_concordant_fraction_brute_force():
    import itertools
    import random
    rng = random.Random(3)
    base = list(range(7))
    for _ in range(20):
        perm = base[:]
        rng.shuffle(perm)
        agree = 0
        total = 0
        pos = {v: i for i, v in enumerate(perm)}
        for a, b in itertools.combinations(base, 2):
            total += 1
            if (pos[a] < pos[b]) == (a < b):
                agree += 1
        assert abs(concordant_fraction(base, perm) - agree / total) < 1e-15


def test_concordant_fraction_matches_pair_count():
    import itertools
    import random
    rng = random.Random(17)
    for n in range(2, 13):
        for _ in range(5):
            a = list(range(n))
            b = list(range(n))
            rng.shuffle(a)
            rng.shuffle(b)
            pos_a = {v: i for i, v in enumerate(a)}
            pos_b = {v: i for i, v in enumerate(b)}
            agree = sum((pos_a[x] < pos_a[y]) == (pos_b[x] < pos_b[y])
                        for x, y in itertools.combinations(range(n), 2))
            assert concordant_fraction(a, b) == 1.0 - (
                n * (n - 1) // 2 - agree) / (n * (n - 1) // 2)


def test_concordant_fraction_exact_at_the_ends():
    order = list(range(65536))
    assert concordant_fraction(order, order) == 1.0
    assert concordant_fraction(order, order[::-1]) == 0.0

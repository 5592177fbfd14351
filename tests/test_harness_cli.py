import dataclasses
import io
import json
from collections import Counter

import pytest

from domlab.cli import main
from domlab.domination import SolverConfig
from domlab.errors import CorpusReadError, Inconclusive, UnknownTheoremId
from domlab.gadgets import (
    complete,
    corona_k1,
    cycle,
    edge_gap_gadget,
    fig_example_not_perfect,
    gap_gadget,
    h_prime_a,
    h_star,
    path,
    random_cactus,
    star,
)
from domlab.graph import format_edge_list, graph6_encode
from domlab.harness import (
    CorpusSpec,
    THEOREMS,
    TheoremCheck,
    exhaustive_connected,
    read_graph6_file,
    run_verification,
)
from domlab.recognizers import is_distance_hereditary, is_gc_gwcon_perfect


# ---------------------------------------------------------------------------
# corpora


def test_exhaustive_connected_counts():
    # labeled connected graphs: 1, 1, 4, 38 for n = 1..4
    counts = {}
    for g in exhaustive_connected(4):
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 4, 4: 38}


def test_corpus_spec_parse_roundtrip():
    spec = CorpusSpec.parse("exhaustive:5")
    assert spec.kind == "exhaustive" and spec.params == (5,)
    spec = CorpusSpec.parse("random:tree:10:3")
    assert spec.params == ("tree", 10, 3)
    assert sum(1 for _ in spec.graphs()) == 10
    spec = CorpusSpec.parse("gadget:gap:6,7")
    assert [g.n for g in spec.graphs()] == [28, 31]
    spec = CorpusSpec.parse("file:data/connected_n7.g6")
    assert "connected_n7" in spec.describe()


def test_corpus_spec_parse_errors():
    for bad in ("exhaustive", "random:tree:10", "gadget:gap", "nope:1",
                "exhaustive:x", "random:tree:x:1", "gadget:gap:a", "gadget:foo:1",
                "random:nosuch:3:1", "random:nosuch:0:1", "random:tree:-5:1",
                "random:tree:0:1", "exhaustive:0", "exhaustive:-1", "exhaustive:8"):
        with pytest.raises(CorpusReadError):
            CorpusSpec.parse(bad)
    assert CorpusSpec.parse("exhaustive:7").params == (7,)
    assert CorpusSpec.parse("random:tree:1:-4").params == ("tree", 1, -4)


def test_read_graph6_file(tmp_path):
    p = tmp_path / "three.g6"
    p.write_text(
        ">>graph6<<\n"
        + graph6_encode(cycle(5))
        + "\n\n"
        + graph6_encode(path(3))
        + "\n"
    )
    graphs = list(read_graph6_file(str(p)))
    assert graphs == [cycle(5), path(3)]


def test_read_graph6_file_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.g6"
    p.write_text(graph6_encode(cycle(4)) + "\n\x01garbage\n")
    with pytest.raises(CorpusReadError, match=r"bad\.g6:2"):
        list(read_graph6_file(str(p)))
    with pytest.raises(CorpusReadError):
        list(read_graph6_file(str(tmp_path / "missing.g6")))


def test_file_corpora_present(data_dir):
    for name, expected in (("connected_n7.g6", 7), ("connected_n8.g6", 8)):
        graphs = list(read_graph6_file(data_dir / name))
        assert len(graphs) == 150
        assert all(g.n == expected for g in graphs)


# ---------------------------------------------------------------------------
# verification


def test_run_verification_small(cfg):
    report = run_verification(
        ["S2.n-2", "S3.dh"], CorpusSpec.parse("exhaustive:5"), cfg
    )
    assert report.ok
    assert [c.status for c in report.checks] == ["PASS", "PASS"]


def test_run_verification_unknown_id(cfg):
    with pytest.raises(UnknownTheoremId):
        run_verification(["S9.nope"], CorpusSpec.parse("exhaustive:4"), cfg)


def test_report_json_lines_deterministic(cfg):
    spec = CorpusSpec.parse("exhaustive:4")
    a = run_verification(["S2.n-2"], spec, cfg).to_json_lines(include_timing=False)
    b = run_verification(["S2.n-2"], spec, cfg).to_json_lines(include_timing=False)
    assert a == b
    lines = a.strip().splitlines()
    assert json.loads(lines[0])["status"] == "PASS"
    summary = json.loads(lines[-1])
    assert summary == {
        "summary": True,
        "total": 1,
        "passed": 1,
        "failed": 0,
        "skipped": 0,
    }


def test_report_skipped_counts(cfg):
    # a corpus with no unicyclic members leaves the unicyclic check SKIPPED
    report = run_verification(
        ["S4.unicyclic"], CorpusSpec.parse("random:tree:5:1"), cfg
    )
    assert report.ok
    assert report.checks[0].status == "SKIPPED"


def test_all_theorem_ids_runnable(cfg):
    report = run_verification(sorted(THEOREMS), CorpusSpec.parse("exhaustive:4"), cfg)
    assert report.ok
    assert len(report.checks) == len(THEOREMS)


def test_theorem_runner_reports_injected_failures(cfg, monkeypatch):
    import domlab.harness as harness

    spec = CorpusSpec.parse("exhaustive:5")
    scoped = [g for g in spec.graphs() if is_distance_hereditary(g)]
    odd = [graph6_encode(g) for g in scoped if g.m % 2]

    def check(g, cfg, stats):
        stats["odd"] += g.m % 2
        return [{"graph6": graph6_encode(g)}] if g.m % 2 else []

    injected = dataclasses.replace(harness.THEOREMS["S3.dh"], check=check, counters=("odd", "never"))
    monkeypatch.setitem(harness.THEOREMS, "S3.dh", injected)
    report = run_verification(["S3.dh"], spec, cfg)
    (check_result,) = report.checks
    assert not report.ok and check_result.status == "FAIL"
    assert [ce["graph6"] for ce in check_result.counterexamples] == odd
    assert check_result.stats == {"checked": len(scoped), "odd": len(odd), "never": 0}
    assert 0 < len(odd) < len(scoped) < sum(1 for _ in spec.graphs())


def test_edge_bound_solves_each_graph_once(cfg, monkeypatch):
    # the sweep's g - e are mostly corpus graphs, so the shared cache answers them
    import domlab.domination as domination

    solves = Counter()
    solve = domination.minimum_connected_dominating

    def counting(g, cfg):
        solves[g] += 1
        return solve(g, cfg)

    domination.gamma_pair.cache_clear()
    monkeypatch.setattr(domination, "minimum_connected_dominating", counting)
    report = run_verification(["S4.edge-bound"], CorpusSpec.parse("exhaustive:5"), cfg)
    assert report.ok and solves and max(solves.values()) == 1


def test_perfectness_budget_truncation_raises():
    with pytest.raises(Inconclusive):
        is_gc_gwcon_perfect(fig_example_not_perfect().graph, SolverConfig(node_budget=1))


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_solve_graph6_file(tmp_path, capsys):
    p = tmp_path / "c7.g6"
    p.write_text(graph6_encode(cycle(7)) + "\n")
    code, out, _ = run_cli(
        capsys, "solve", "--input", str(p), "--kind", "weakly-convex"
    )
    assert code == 0
    assert json.loads(out)["value"] == 7
    code, out, _ = run_cli(capsys, "solve", "--input", str(p), "--kind", "connected")
    assert json.loads(out)["value"] == 5


def test_cli_solve_edgelist(tmp_path, capsys):
    p = tmp_path / "p6.txt"
    p.write_text(format_edge_list(path(6)))
    code, out, _ = run_cli(
        capsys, "solve", "--input", str(p), "--format", "edgelist"
    )
    assert code == 0 and json.loads(out)["value"] == 4


def test_cli_solve_k1(tmp_path, capsys):
    p = tmp_path / "k1.g6"
    p.write_text("@\n")
    code, out, _ = run_cli(capsys, "solve", "--input", str(p), "--kind", "connected")
    assert code == 0 and json.loads(out)["value"] == 1


def test_cli_classify(tmp_path, capsys):
    p = tmp_path / "c7.g6"
    p.write_text(graph6_encode(cycle(7)) + "\n")
    code, out, _ = run_cli(capsys, "classify", "--input", str(p))
    d = json.loads(out)
    assert code == 0
    assert d["is_cycle"] and d["is_cactus"] and not d["is_chordal"]


def test_cli_gadget_meta(capsys):
    code, out, _ = run_cli(capsys, "gadget", "gap", "--k", "6", "--meta")
    d = json.loads(out)
    assert code == 0
    assert d["predictions"] == {"gamma_c": 10, "gamma_wcon": 16}


def test_cli_gadget_formats(capsys):
    code, out, _ = run_cli(capsys, "gadget", "cycle", "--k", "5")
    assert code == 0 and out.strip() == graph6_encode(cycle(5))
    code, out, _ = run_cli(capsys, "gadget", "cycle", "--k", "5", "--format", "dot")
    assert code == 0 and out.startswith("graph")
    code, out, _ = run_cli(
        capsys, "gadget", "cycle", "--k", "5", "--format", "edgelist"
    )
    assert code == 0 and out.splitlines()[0] == "5 5"


@pytest.mark.parametrize("argv,expected", [
    (("gap", "--k", "7"), lambda: gap_gadget(7).graph),
    (("edge-gap", "--k", "-2"), lambda: edge_gap_gadget(-2).graph),
    (("edge-gap", "--k", "3"), lambda: edge_gap_gadget(3).graph),
    (("h-star",), lambda: h_star().graph),
    (("h-prime-a",), lambda: h_prime_a().graph),
    (("not-perfect",), lambda: fig_example_not_perfect().graph),
    (("path", "--k", "4"), lambda: path(4)),
    (("cycle", "--k", "8"), lambda: cycle(8)),
    (("complete", "--k", "5"), lambda: complete(5)),
    (("star", "--k", "6"), lambda: star(6)),
    (("corona-c7",), lambda: corona_k1(cycle(7))),
    (("random-cactus", "--k", "12", "--seed", "3"), lambda: random_cactus(12, 0.5, 3)),
], ids=lambda x: "-".join(x) if isinstance(x, tuple) else None)
def test_cli_gadget_matches_library(capsys, argv, expected):
    code, out, _ = run_cli(capsys, "gadget", *argv)
    assert code == 0 and out == graph6_encode(expected()) + "\n"


def test_cli_gadget_bad_parameter(capsys):
    code, _, err = run_cli(capsys, "gadget", "gap", "--k", "2")
    assert code == 2 and "error" in err


def test_cli_verify_ok(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--theorems",
        "S2.n-2,S3.dh",
        "--corpus",
        "exhaustive:4",
        "--json-out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert json.loads(lines[-1])["failed"] == 0


def test_cli_verify_failure_exit_code(capsys, monkeypatch):
    import domlab.harness as harness

    def failing(corpus, cfg):
        return TheoremCheck("S2.n-2", "injected", "FAIL", [{"graph6": "@"}], {})

    monkeypatch.setitem(harness.THEOREMS, "S2.n-2", failing)
    code, out, _ = run_cli(
        capsys, "verify", "--theorems", "S2.n-2", "--corpus", "exhaustive:3"
    )
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["failed"] == 1


def test_cli_verify_budget_truncation_is_inconclusive(capsys):
    code, out, err = run_cli(capsys, "--budget", "3", "verify", "--corpus", "exhaustive:4")
    *checks, summary = [json.loads(line) for line in out.splitlines()]
    assert code == 3 and err == ""
    assert summary["failed"] == 0 and all(c["status"] != "FAIL" for c in checks)
    left_open = [c for c in checks if c["status"] == "INCONCLUSIVE"]
    assert left_open and summary["inconclusive"] == len(left_open)
    assert all(c["inconclusive"] and not c["counterexamples"] for c in left_open)
    # named counters, like ``checked``, count only the graphs whose check concluded
    for c in left_open:
        assert all(v <= c["stats"]["checked"] for v in c["stats"].values()), c["id"]


def test_cli_sweep_edges_budget_truncation(capsys, monkeypatch):
    _, g6, _ = run_cli(capsys, "gadget", "cycle", "--k", "9")
    monkeypatch.setattr("sys.stdin", io.StringIO(g6))
    code, out, err = run_cli(capsys, "--budget", "3", "sweep-edges")
    assert code == 2 and out == "" and "node budget 3" in err


def test_cli_verify_refuses_oversized_spectrum(capsys, monkeypatch):
    import domlab.spanning as spanning

    def no_enumeration(g, cap):
        raise AssertionError("a graph over the tree cap was enumerated")

    monkeypatch.setattr(spanning, "_tree_masks", no_enumeration)
    code, out, err = run_cli(
        capsys, "verify", "--theorems", "S2.n-2,S4.interpolation", "--corpus", "gadget:gap:8"
    )
    n_minus_2, interpolation, summary = [json.loads(line) for line in out.splitlines()]
    assert code == 3 and err == ""
    assert n_minus_2["status"] == "PASS" and n_minus_2["stats"]["checked"] == 1
    assert interpolation["status"] == "INCONCLUSIVE"
    assert interpolation["inconclusive"] == [graph6_encode(gap_gadget(8).graph)]
    assert summary["passed"] == 1 and summary["inconclusive"] == 1
    _, g6, _ = run_cli(capsys, "gadget", "gap", "--k", "8")
    monkeypatch.setattr("sys.stdin", io.StringIO(g6))
    code, out, err = run_cli(capsys, "interpolate")
    assert code == 2 and out == "" and "2594880 spanning trees" in err


def test_cli_verify_bad_corpus(capsys):
    for corpus in ("bogus:1", "exhaustive:x", "gadget:foo:1", "random:nosuch:0:1",
                   "random:tree:-5:1", "exhaustive:0", "exhaustive:8"):
        code, _, err = run_cli(capsys, "verify", "--corpus", corpus)
        assert code == 2 and "error" in err, corpus


def test_cli_sweep_and_interpolate(tmp_path, capsys):
    p = tmp_path / "c5.g6"
    p.write_text(graph6_encode(cycle(5)) + "\n")
    code, out, _ = run_cli(capsys, "sweep-edges", "--input", str(p))
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5 and all(not r["is_bridge"] for r in records)
    code, out, _ = run_cli(capsys, "interpolate", "--input", str(p))
    d = json.loads(out)
    assert code == 0 and d["values"] == [3, 3, 3, 3, 3] and d["is_interval"]


@pytest.mark.parametrize("text", ["2 1\n0 x\n", "2 y\n0 1\n", "z 1\n0 1\n", "2 1\n1.5 0\n"],
                         ids=["edge-line", "header-m", "header-n", "edge-float"])
def test_cli_edgelist_non_integer_token(tmp_path, capsys, text):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    for command in ("solve", "interpolate"):
        code, out, err = run_cli(capsys, command, "--input", str(p), "--format", "edgelist")
        assert code == 2 and out == "" and "want two integers" in err, command


def test_cli_missing_file(capsys):
    code, _, err = run_cli(capsys, "solve", "--input", "/no/such/file.g6")
    assert code == 2 and "error" in err


def test_cli_disconnected_input(tmp_path, capsys):
    p = tmp_path / "two.g6"
    from domlab.graph import from_edge_list

    p.write_text(graph6_encode(from_edge_list(2, [])) + "\n")
    for command in ("solve", "classify", "sweep-edges", "interpolate"):
        code, _, err = run_cli(capsys, command, "--input", str(p))
        assert code == 2 and "connected" in err, command


def test_cli_rejects_nonpositive_budget(tmp_path, capsys):
    p = tmp_path / "c5.g6"
    p.write_text(graph6_encode(cycle(5)) + "\n")
    for budget in ("0", "-3"):
        code, _, err = run_cli(capsys, "--budget", budget, "solve", "--input", str(p))
        assert code == 2 and "budget" in err

import argparse
import dataclasses
import hashlib
import io
import json
from collections import Counter

import pytest

from domlab.cli import _read_input, main
from domlab.domination import Kind, all_minimum_sets_oracle
from domlab.errors import CorpusReadError, MalformedGraph6, UnknownTheoremId
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
from domlab.graph import diameter, format_edge_list, graph6_encode, induced_subgraph
from domlab.harness import (
    CorpusSpec,
    THEOREMS,
    TheoremCheck,
    exhaustive_connected,
    read_graph6_file,
    run_verification,
)
from domlab.recognizers import is_distance_hereditary


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
                "random:nosuch:3:1", "random:nosuch:0:1", "random:tree:-5:1", "random:graph6roundtrip:3:1",
                "random:tree:0:1", "exhaustive:0", "exhaustive:-1", "exhaustive:8"):
        with pytest.raises(CorpusReadError):
            CorpusSpec.parse(bad)
    assert CorpusSpec.parse("exhaustive:7").params == (7,)
    assert CorpusSpec.parse("random:tree:1:-4").params == ("tree", 1, -4)


def test_corpus_spec_refuses_out_of_range_gadgets(capsys):
    # the gadget builders' own checks run at parse time, before any graph is checked
    for bad, reason in (("gadget:gap:5", "k >= 6"), ("gadget:gap:6,19", "vertex count 67"),
                        ("gadget:edge:21", "vertex count 67"), ("gadget:edge:-19", "vertex count 67"),
                        ("gadget:gap:1000000000000", "vertex count 3000000000010")):
        with pytest.raises(CorpusReadError, match=f"bad corpus spec '{bad}': .*{reason}"):
            CorpusSpec.parse(bad)
    assert CorpusSpec.parse("gadget:gap:18").params == ("gap", (18,))  # n = 64
    assert CorpusSpec.parse("gadget:edge:20,-18,0").params == ("edge", (20, -18, 0))
    code, out, err = run_cli(capsys, "verify", "--corpus", "gadget:gap:5")
    assert code == 2 and out == "" and "bad corpus spec 'gadget:gap:5': gap gadget defined for k >= 6" in err


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


@pytest.mark.parametrize("corpus", ["exhaustive:5", "connected_n7.g6", "connected_n8.g6"])
def test_diameter_lemma_all_vertices_counter(corpus, cfg, data_dir):
    """The all-vertices reading, written out: every vertex, members of D
    included, has exactly one dominator in D, a member dominating itself
    and its D-neighbours. No connected D of two or more vertices meets it,
    so the counter reads the graphs with a minimum connected dominating set
    of diameter <= 2."""
    spec = CorpusSpec.parse(corpus if ":" in corpus else f"file:{data_dir / corpus}")
    (check,) = run_verification(["S2.diameter-lemma"], spec, cfg).checks
    graphs = list(spec.graphs())
    expected = short = 0
    for g in graphs:
        hit = has_short = False
        for d in all_minimum_sets_oracle(g, Kind.CONNECTED):
            dm = diameter(induced_subgraph(g, d)[0])
            has_short |= dm <= 2
            hit |= dm <= 2 or dm == 3 and all(
                ((g.adj[v] | 1 << v) & d).bit_count() == 1 for v in range(g.n)
            )
        expected += hit
        short += has_short
    assert check.stats["checked"] == len(graphs)
    assert check.stats["applicable_all_vertices_reading"] == expected == short


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


# sha256 of the deterministic report of every theorem; a change that
# alters any verdict, counterexample or counter on these corpora shows here
GOLDEN_REPORTS = {
    "exhaustive:5": "0823dcdd6ceacf7934bd9c4b47d0547e05156b6d6b493115be62c1f71f089a3f",
    "file:data/connected_n7.g6": "e0e94513a9e8d5fc8eb4a601eebc1d46d580fa0686fe2a5e83b405ca29de5dcf",
    "file:data/connected_n8.g6": "710888fadb504eb19283430b5d2e886d9126432dd1f87b7916ca42f02b934dd8",
    "random:cactus:40:4": "e33b8a1554d4dcdd37b435b0765c3af9b9ac39513a48085b5c53fb243b940c7b",
    "gadget:edge:-3,-2,-1,0,1,2,3": "18f8bfed41a964c0887e10fd890eaf5efe12be02361c587161d6a8e742963846",
}


@pytest.mark.parametrize("spec", sorted(GOLDEN_REPORTS))
def test_golden_reports(spec, cfg, data_dir, monkeypatch):
    # a file corpus's scope line holds its path as given, so run from the repo root
    monkeypatch.chdir(data_dir.parent)
    text = run_verification(sorted(THEOREMS), CorpusSpec.parse(spec), cfg).to_json_lines(include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[spec]


def test_cactus_check_decomposes_each_graph_twice(cfg, monkeypatch):
    # once for ``applies`` (is_cactus), once for the characterization
    import domlab.recognizers as recognizers

    calls = Counter()
    blocks = recognizers.blocks_and_bridges

    def counting(g):
        calls[g] += 1
        return blocks(g)

    monkeypatch.setattr(recognizers, "blocks_and_bridges", counting)
    report = run_verification(["S3.cactus"], CorpusSpec.parse("random:cactus:40:4"), cfg)
    assert report.checks[0].stats["checked"] == 40
    assert sum(calls.values()) == 80


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


def test_perfectness_ignores_node_budget(capsys, data_dir):
    # perfectness is one exhaustive pass with no solver call, so no budget can cut it short
    corpus = f"file:{data_dir / 'connected_n7.g6'}"
    argv = ("verify", "--theorems", "S3.perfect-lemma", "--corpus", corpus)
    reports = []
    for budget in (("--budget", "1"), ()):
        code, out, err = run_cli(capsys, *budget, *argv)
        assert code == 0 and err == ""
        *checks, summary = [json.loads(line) for line in out.splitlines()]
        del summary["timing"]
        reports.append((checks, summary))
    assert reports[0] == reports[1]
    assert reports[0][0][0]["status"] == "PASS"


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


def test_cli_edgelist_refuses_surplus_edge_lines(tmp_path, capsys):
    p = tmp_path / "triangle.txt"
    p.write_text("3 2\n0 1\n1 2\n0 2\n")  # the header counts 2 edges, the lines hold a triangle
    code, out, err = run_cli(capsys, "solve", "--input", str(p), "--format", "edgelist")
    assert code == 2 and out == "" and "expected 2 edges, found 3" in err


def test_cli_graph6_refuses_set_padding_bits(tmp_path, capsys):
    p = tmp_path / "padded.g6"
    p.write_text("Bx\n")  # the triangle is Bw; x sets its last padding bit
    code, out, err = run_cli(capsys, "solve", "--input", str(p))
    assert code == 2 and out == "" and "padding bits" in err


def test_cli_graph6_refuses_surplus_lines(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nCF\n"))  # the triangle, then the star K_1,3
    code, out, err = run_cli(capsys, "solve")
    assert code == 2 and out == "" and "expected one graph6 line, found 2" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(">>graph6<<\n\n  Bw \n\n"))
    code, out, _ = run_cli(capsys, "solve", "--kind", "connected")
    assert code == 0 and json.loads(out)["value"] == 1


def test_read_input_refuses_surplus_graph6_lines(tmp_path):
    p = tmp_path / "two.g6"
    for text, found in (("Bw\nCF\n", 2), (">>graph6<<\n\n", 0)):
        p.write_text(text)
        with pytest.raises(MalformedGraph6, match=f"expected one graph6 line, found {found}"):
            _read_input(argparse.Namespace(input=str(p), format="graph6"))


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

    def no_enumeration(g):
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


def test_cli_verify_refuses_disconnected_file_graph(tmp_path, capsys):
    p = tmp_path / "mixed.g6"
    p.write_text("Bw\nBG\n")  # the triangle, then an edge plus an isolated vertex
    for theorems in ((), ("--theorems", "S4.interpolation")):
        code, out, err = run_cli(capsys, "verify", *theorems, "--corpus", f"file:{p}")
        assert code == 2 and out == "", theorems
        assert f"{p}:2: graph BG is disconnected" in err, theorems


def test_cli_verify_empty_theorem_id_is_refused(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorems", "", "--corpus", "exhaustive:3")
    assert code == 2 and out == "" and "unknown theorem id ''" in err


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


# sha256 of each graph subcommand's output on two graphs: a refactor of the
# read-compute-print path must leave these bytes as they are
CLI_OUTPUT_SHA256 = {
    ("cycle7", "solve --kind connected"): "652c8ebb8ba094253a67af98c11c742d80acfec7b9e8fe001b4cd9c65add7959",
    ("cycle7", "solve --kind weakly-convex"): "276f88b524dfca9299623ca83d938b2db351c2c2cbbb591cb5004817bef5b942",
    ("cycle7", "classify"): "989850a5ac137af0771ef9fbaaaaa52eb0739bb241199886762f152a88bd9064",
    ("cycle7", "sweep-edges"): "d3f06fd677d3b0bed0e56f03ed5bc53cf5ceaff3e3a683281e987c057b3389e3",
    ("cycle7", "interpolate"): "830ce9322299b982ed4a067ce50e7b6fef45455744f6c8f9e840720ca40b4efc",
    ("gap6", "solve --kind connected"): "d332d5a2ff782fb07be46ff422cdc73095b4dbfd7363a72d4ed469d047f884ac",
    ("gap6", "solve --kind weakly-convex"): "2f033d4654e5eba2a66bce79fa9f487fa6385a9caad390820bf0cddddf1d21ef",
    ("gap6", "classify"): "2071647595fa6b64910d1d4051a803fbdbc44cb743da2d273e08e14fe171f4a6",
    ("gap6", "sweep-edges"): "d91a6af1d60cee082ad2a3118c368ee24af4a38943e0616dc9e921fa94b37ad7",
    ("gap6", "interpolate"): "c399d7f0d0235274d4a1de27a3b7bcce56f44b213104db2a228b61ce82d7fddf",
}


@pytest.mark.parametrize("name,command", sorted(CLI_OUTPUT_SHA256),
                         ids=[f"{name}-{command}" for name, command in sorted(CLI_OUTPUT_SHA256)])
def test_cli_graph_subcommand_bytes(tmp_path, capsys, monkeypatch, name, command):
    """The same bytes from stdin or a file, in either input format, on stdout
    or through ``--json-out``. Two runs take each choice once, since the
    spectrum of gap_gadget(6) takes seconds per run."""
    g = {"cycle7": cycle(7), "gap6": gap_gadget(6).graph}[name]
    texts = {"graph6": graph6_encode(g) + "\n", "edgelist": format_edge_list(g)}
    for from_file, fmt, to_file in ((False, "graph6", False), (True, "edgelist", True)):
        argv = [*command.split(), "--format", fmt]
        if from_file:
            (tmp_path / "in").write_text(texts[fmt])
            argv += ["--input", str(tmp_path / "in")]
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(texts[fmt]))
        if to_file:
            argv += ["--json-out", str(tmp_path / "out")]
        code, out, err = run_cli(capsys, *argv)
        if to_file:
            assert out == ""
            out = (tmp_path / "out").read_text()
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == CLI_OUTPUT_SHA256[name, command], argv


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
    # the budget is checked before any subcommand runs, even one that never solves
    p = tmp_path / "c5.g6"
    p.write_text(graph6_encode(cycle(5)) + "\n")
    rest = {"gadget": ["path", "--k", "3"], "verify": ["--corpus", "exhaustive:3"]}
    for budget in ("0", "-3"):
        for command in ("solve", "classify", "sweep-edges", "interpolate", "gadget", "verify"):
            code, out, err = run_cli(capsys, "--budget", budget, command, *rest.get(command, ["--input", str(p)]))
            assert (code, out, err) == (2, "", f"error: node budget must be at least 1, got {budget}\n"), command

"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED OUT_JSON [--trace] [--oracle]

run.py starts this with ``PYTHONPATH`` pointing at the checkout's ``src``,
so domlab's ``lru_cache``s start cold, as they do for a command-line user.
It writes ``t_ready`` (set-up done: interpreter started, domlab imported
and inputs made; on verify-corpus each operation imports domlab itself),
``t_done`` (last result produced), every operation's time and result, the
peak RSS (``rss_kb``; on verify-corpus per operation) and with ``--trace``
the per-layer totals. Checking is left to
run.py. ``--oracle`` runs the pruning-free oracle on the solve-hard
instances instead, untimed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import inputs
from cli_run import peak_rss_kb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE_MAX_N = 14


def solve_hard_instances(domlab, seed: int) -> list[tuple[str, object, dict]]:
    from domlab import gadgets

    out = []
    for k in range(6, 11):
        d = gadgets.gap_gadget(k)
        out.append((d.name, d.graph, d.predictions))
    for k in range(-3, 4):
        d = gadgets.edge_gap_gadget(k)
        out.append((d.name, d.graph, {"gamma_wcon": d.predictions["gamma_wcon"]}))
    for k in range(7, 13):
        # long cycles attain gamma_c = n - 2 and gamma_wcon = 2m - n = n
        out.append((f"C{k}", gadgets.cycle(k), {"gamma_c": k - 2, "gamma_wcon": k}))
    for name, n, edges in inputs.solve_hard_random(seed):
        out.append((name, domlab.from_edge_list(n, edges), {}))
    return out


def run_solve_hard(domlab, seed: int, tracer) -> dict:
    instances = solve_hard_instances(domlab, seed)
    t_ready = time.monotonic()
    ops = []
    for name, g, _ in instances:
        for kind, solve in (("connected", domlab.minimum_connected_dominating),
                            ("weakly-convex", domlab.minimum_wcon_dominating)):
            if tracer:
                tracer.op = len(ops)
            t0 = time.perf_counter()
            cert = solve(g)
            ops.append({"s": time.perf_counter() - t0, "instance": name, "kind": kind,
                        "set": cert.set, "value": cert.value, "optimal": cert.optimal,
                        "nodes": cert.nodes_expanded})
    t_done = time.monotonic()
    return {"t_ready": t_ready, "t_done": t_done, "ops": ops,
            "instances": [{"name": name, "n": g.n, "edges": g.edges(), "predictions": p}
                          for name, g, p in instances]}


def run_oracle(domlab, seed: int) -> dict:
    from domlab.domination import Kind, all_minimum_sets_oracle

    sets = {}
    for name, g, _ in solve_hard_instances(domlab, seed):
        if g.n <= ORACLE_MAX_N:
            sets[name] = {kind.value: all_minimum_sets_oracle(g, kind)
                          for kind in (Kind.CONNECTED, Kind.WEAKLY_CONVEX)}
    return {"oracle": sets}


def run_spectrum(domlab, seed: int, tracer) -> dict:
    graphs = [(name, domlab.from_edge_list(n, edges))
              for name, n, edges, _ in inputs.spectrum_graphs(seed)]
    t_ready = time.monotonic()
    ops = []
    for name, g in graphs:
        if tracer:
            tracer.op = len(ops)
        t0 = time.perf_counter()
        report = domlab.wcon_spectrum(g)
        ops.append({"s": time.perf_counter() - t0, "graph": name, "tree_count": report.tree_count,
                    "is_interval": report.is_interval, "hist": Counter(report.values)})
    return {"t_ready": t_ready, "t_done": time.monotonic(), "ops": ops,
            "graphs": [{"name": name, "n": g.n, "edges": g.edges()} for name, g in graphs]}


def run_verify_corpus(seed: int, out_dir: Path, trace: bool) -> dict:
    # each `domlab verify` process imports domlab itself, inside its op time
    specs = [(spec, spec) for spec in inputs.FIXED_CORPORA]
    for family in inputs.RANDOM_CORPORA:
        path = out_dir / f"{family}.g6"
        path.write_text("\n".join(inputs.random_corpus(family, seed)) + "\n")
        specs.append((f"random-{family}", f"file:{path.relative_to(ROOT)}"))
    t_ready = time.monotonic()
    ops = []
    layers = Counter()
    for i, (corpus, spec) in enumerate(specs):
        report, own = out_dir / f"report{i}.jsonl", out_dir / f"cli{i}.json"
        args = [sys.executable, str(HERE / "cli_run.py"), str(own), *(["--trace"] if trace else []),
                "verify", "--corpus", spec]
        with open(report, "w") as fh:
            t0 = time.perf_counter()
            rc = subprocess.run(args, cwd=ROOT, stdout=fh).returncode
            elapsed = time.perf_counter() - t0
        cli = json.loads(own.read_text())
        layers.update(cli.get("layers", {}))
        ops.append({"s": elapsed, "corpus": corpus, "rc": rc, "rss_kb": cli["rss_kb"],
                    "report": str(report)})
    result = {"t_ready": t_ready, "t_done": time.monotonic(), "ops": ops}
    if trace:
        result["layers"] = dict(layers)
    return result


def main() -> None:
    workload, seed, out_path = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    trace = "--trace" in sys.argv
    tracer = None
    if workload == "verify-corpus":
        result = run_verify_corpus(seed, out_path.parent, trace)
    else:
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        import domlab

        if "--oracle" in sys.argv:
            result = run_oracle(domlab, seed)
        elif workload == "solve-hard":
            result = run_solve_hard(domlab, seed, tracer)
        else:
            result = run_spectrum(domlab, seed, tracer)
        result["rss_kb"] = peak_rss_kb()
    if tracer:
        result["layers"] = tracer.layers()
    out_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()

"""domlab benchmark: time to an exact certificate and time to a verdict.

    python3 perfbench/run.py --workload solve-hard --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the program is imported from its ``src``.
Workloads (see README.md beside this file for the rationale):

  solve-hard     sequential minimum_connected_dominating and
                 minimum_wcon_dominating calls on 2-connected random graphs
                 and the ROADMAP gadgets and cycles
  verify-corpus  ``domlab verify`` with all 14 theorems, one process per corpus
  spectrum       wcon_spectrum on 2-connected graphs with ~5,000 spanning trees

One closed loop with one client: passes run back to back until the next
one would overrun ``--seconds``. Each pass is a fresh worker process
(worker.py), so domlab's caches start cold. Every output is checked
(checks.py) by routines that do not come from domlab. ``--trace 0``
prints the end-to-end metrics over the passes (see END_TO_END); ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
from the traced ones, with the tracing overhead. The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from spans import THEOREM_IDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve-hard", "verify-corpus", "spectrum")
RUN_LIMIT_S = 170  # every run ends well inside three minutes

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "op_p50_ms": "ms", "op_p90_ms": "ms"}

PER_LAYER = {
    "graph.raw_distance_matrix.hits": "count",
    "graph.raw_distance_matrix.misses": "count",
    "graph.raw_distance_matrix.hit_ratio": "ratio",
    "graph.from_edge_list.calls": "count",
    "graph.from_edge_list.self_s": "s",
    "graph.graph6_decode.self_s": "s",
    "graph.vertex_roles.calls": "count",
    "graph.vertex_roles.self_s": "s",
    **{f"domination.{kind}.{stat}": unit
       for kind in ("connected", "wcon")
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("nodes", "count"),
                          ("us_per_node", "us"))},
    "domination.nonoptimal": "count",
    "domination.oracle.calls": "count",
    "domination.oracle.self_s": "s",
    "recognizers.is_gc_gwcon_perfect.calls": "count",
    "recognizers.is_gc_gwcon_perfect.self_s": "s",
    "recognizers.lemma_perfect_conditions.self_s": "s",
    "recognizers.classes.self_s": "s",
    "gadgets.self_s": "s",
    "spanning.wcon_spectrum.calls": "count",
    "spanning.wcon_spectrum.self_s": "s",
    "spanning.trees": "count",
    "spanning.trees_per_s": "1/s",
    "spanning.edge_removal_sweep.calls": "count",
    "spanning.edge_removal_sweep.self_s": "s",
    **{f"harness.{tid}.{stat}": unit for tid in THEOREM_IDS
       for stat, unit in (("self_s", "s"), ("checked", "count"))},
    "harness.gammas_cache.hits": "count",
    "harness.gammas_cache.misses": "count",
    "harness.gammas_cache.hit_ratio": "ratio",
    "harness.exhaustive_connected.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def end_to_end(passes: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a run's passes.

    Every pass makes the same operations in the same order. Each operation
    counts with its median time over the passes; ``wall_s`` is their sum,
    ``op_p50_ms`` and ``op_p90_ms`` their percentiles. On a shared host the
    CPU's speed can swing 2x for seconds at a time, and a median per
    operation repeats from run to run better than the median of whole
    passes (README.md, "Run-to-run spread"). Set-up time and memory are
    medians over the passes.
    """
    op_ms = [1e3 * statistics.median(times)
             for times in zip(*([op["s"] for op in p["result"]["ops"]] for p in passes))]
    q = statistics.quantiles(op_ms, n=10, method="inclusive")
    return {"wall_s": sum(op_ms) / 1e3,
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
            "op_p50_ms": statistics.median(op_ms), "op_p90_ms": q[-1]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive_layers(layers: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    out = {name: layers.get(name, 0.0) for name in PER_LAYER}
    for cache in ("graph.raw_distance_matrix", "harness.gammas_cache"):
        hits, misses = out[f"{cache}.hits"], out[f"{cache}.misses"]
        out[f"{cache}.hit_ratio"] = _ratio(hits, hits + misses)
    for kind in ("connected", "wcon"):
        out[f"domination.{kind}.us_per_node"] = 1e6 * _ratio(
            out[f"domination.{kind}.self_s"], out[f"domination.{kind}.nodes"])
    out["spanning.trees_per_s"] = _ratio(out["spanning.trees"],
                                         layers.get("spanning.wcon_spectrum.total_s", 0.0))
    return out


class Run:
    """One benchmark run: its scratch directory, passes and failures."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.t_start = time.monotonic()
        self.tmp = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.passes: list[dict] = []
        self.started = 0
        self.failures: list[str] = []  # what went wrong, for the report
        self.attempted = self.failed = 0  # operations
        self.known: set[str] = set()

    def spawn(self, args: list[str]) -> tuple[int, float]:
        """Run worker.py; (exit code, spawn time)."""
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                cwd=ROOT, env=self.env, start_new_session=True)
        try:
            proc.wait(timeout=max(0.0, self.t_start + RUN_LIMIT_S - time.monotonic()))
        except BaseException as exc:  # the time limit, or this run being stopped
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
        return proc.returncode, t_spawn

    def run_pass(self, traced: bool) -> None:
        self.started += 1
        out = self.tmp / f"pass{self.started}" / "result.json"
        out.parent.mkdir(parents=True)
        args = [self.workload, str(self.seed), str(out)] + (["--trace"] if traced else [])
        rc, t_spawn = self.spawn(args)
        if rc != 0 or not out.exists():
            self.fail(f"pass {self.started}: worker exited with {rc}")
            return
        result = json.loads(out.read_text())
        rss_kb = (max(op["rss_kb"] for op in result["ops"]) if self.workload == "verify-corpus"
                  else result["rss_kb"])
        self.passes.append({"traced": traced, "result": result,
                            "setup_s": result["t_ready"] - t_spawn, "rss_kb": rss_kb})

    def measure(self, trace: bool) -> None:
        durations: list[float] = []
        while True:
            elapsed = time.monotonic() - self.t_start
            if durations and elapsed + statistics.median(durations) > self.seconds:
                break
            t0 = time.monotonic()
            self.run_pass(traced=False)
            if trace:
                self.run_pass(traced=True)
            durations.append(time.monotonic() - t0)
            if not self.passes:
                break  # the worker cannot run at all

    def fail(self, problem: str) -> None:
        """A failure outside any one operation counts as one failed operation."""
        self.failures.append(problem)
        self.attempted += 1
        self.failed += 1

    def check(self) -> None:
        """Check every pass's outputs, counting operations and failures."""
        oracle = self.oracle() if self.workload == "solve-hard" else None
        generated = {name: (n, edges, trees)
                     for name, n, edges, trees in inputs.spectrum_graphs(self.seed)}
        expected: dict[str, dict] = {}
        verdicts: dict[str, list] = {}  # passes with identical outputs are checked once
        for p in self.passes:
            result = p["result"]
            if self.workload != "verify-corpus":
                key = json.dumps([{k: v for k, v in op.items() if k != "s"}
                                  for op in result["ops"]], sort_keys=True)
                if key not in verdicts:
                    verdicts[key] = (checks.check_solve_hard(result, self.seed, oracle)
                                     if self.workload == "solve-hard"
                                     else checks.check_spectrum(result, generated))
                problems = verdicts[key]
            else:
                problems = []
                for op in result["ops"]:
                    corpus = op["corpus"]
                    if corpus not in expected:
                        expected[corpus] = checks.expected_checked(
                            checks.corpus_graphs(corpus, self.seed, ROOT))
                    bad, known = checks.judge_report(corpus, Path(op["report"]).read_text(),
                                                     op["rc"], expected[corpus])
                    problems.append(bad)
                    self.known.update(known)
            self.attempted += len(problems)
            self.failed += sum(1 for bad in problems if bad)
            self.failures += [b for bad in problems for b in bad]

    def oracle(self) -> dict | None:
        """All minimum sets from domlab's pruning-free oracle (untimed)."""
        out = self.tmp / "oracle.json"
        rc, _ = self.spawn([self.workload, str(self.seed), str(out), "--oracle"])
        if rc != 0:
            self.fail(f"oracle worker exited with {rc}")
            return None
        return json.loads(out.read_text())["oracle"]


def self_test() -> None:
    missed = checks.self_test()
    if missed:
        sys.exit("self-test: checks missed an injected fault: " + "; ".join(missed))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only check that every checker catches its injected fault")
    args = ap.parse_args()
    self_test()
    if args.self_test:
        print("self-test: every injected fault was caught")
        return
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "domlab" / "__init__.py").is_file():
        sys.exit(f"no domlab sources under {ROOT / 'src'}; run from a domlab checkout")

    # on SIGTERM, unwind: the current worker is killed and the scratch removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.measure(bool(args.trace))
        run.check()
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)
        try:
            run.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    untraced = [p for p in run.passes if not p["traced"]]
    if not untraced:
        sys.exit("no pass completed: " + "; ".join(run.failures))

    if args.trace:
        traced_passes = [p for p in run.passes if p["traced"]]
        if not traced_passes:
            sys.exit("no traced pass completed: " + "; ".join(run.failures))
        overhead = end_to_end(traced_passes)["wall_s"] - end_to_end(untraced)["wall_s"]
        traced = [derive_layers(p["result"]["layers"]) for p in traced_passes]
        for layers in traced:
            layers["trace.overhead_s"] = overhead
        metrics = {name: {"value": statistics.median(t[name] for t in traced), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = end_to_end(untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    for problem in run.failures[:20]:
        print(f"FAILED {problem}")
    if args.workload == "verify-corpus":
        print(f"expected at the seed commit: {checks.SEED_VERDICT}")
        for note in sorted(run.known):
            print(f"known open defect (ROADMAP item 2): {note}")
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced passes")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

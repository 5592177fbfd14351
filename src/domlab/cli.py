"""Command-line entry point: solve, classify, gadget, verify, sweep-edges,
interpolate.  Exit codes: 0 success, 1 verification failure, 2 input error
or a budget-truncated value outside ``verify``, 3 verification INCONCLUSIVE."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomlabError
from .domination import (
    Kind,
    SolverConfig,
    minimum_connected_dominating,
    minimum_wcon_dominating,
)
from .gadgets import (
    GadgetDescriptor,
    corona_k1,
    cycle,
    complete,
    edge_gap_gadget,
    fig_example_not_perfect,
    gap_gadget,
    h_prime_a,
    h_star,
    path,
    random_cactus,
    star,
)
from .graph import (
    Graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
    to_dot,
)
from .harness import CorpusSpec, THEOREMS, run_verification
from .recognizers import classify
from .spanning import edge_removal_sweep, wcon_spectrum


def _read_input(args) -> Graph:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input) as fh:
            text = fh.read()
    if args.format == "graph6":
        for line in text.splitlines():
            line = line.strip()
            if line and line != ">>graph6<<":
                return graph6_decode(line)
        raise DomlabError("no graph6 line found in input")
    return parse_edge_list(text)


def _add_input_args(p):
    p.add_argument("--input", default="-", help="path or - for stdin")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(node_budget=args.budget)


def _emit(args, text: str) -> None:
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    g = _read_input(args)
    solver = {
        "connected": minimum_connected_dominating,
        "weakly-convex": minimum_wcon_dominating,
    }[args.kind]
    cert = solver(g, _solver_config(args))
    _emit(args, json.dumps(cert.to_json_dict(g), sort_keys=True) + "\n")
    return 0


def cmd_classify(args) -> int:
    g = _read_input(args)
    report = classify(g)
    _emit(args, json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    return 0


# name -> builder(k, seed), returning a descriptor or a bare graph; the
# lambdas look the builders up when called, so a wrapper put on this module
# (a profiler's, a test's monkeypatch) sees every call
GADGETS = {
    "gap": lambda k, seed: gap_gadget(k),
    "edge-gap": lambda k, seed: edge_gap_gadget(k),
    "h-star": lambda k, seed: h_star(),
    "h-prime-a": lambda k, seed: h_prime_a(),
    "not-perfect": lambda k, seed: fig_example_not_perfect(),
    "path": lambda k, seed: path(k),
    "cycle": lambda k, seed: cycle(k),
    "complete": lambda k, seed: complete(k),
    "star": lambda k, seed: star(k),
    "corona-c7": lambda k, seed: corona_k1(cycle(7)),
    "random-cactus": lambda k, seed: random_cactus(k, 0.5, seed),
}
GRAPH_FORMATS = {
    "graph6": lambda g: graph6_encode(g) + "\n",
    "edgelist": format_edge_list,
    "dot": to_dot,
}


def cmd_gadget(args) -> int:
    built = GADGETS[args.name](args.k, args.seed)
    desc = built if isinstance(built, GadgetDescriptor) else None
    g = desc.graph if desc else built
    if args.meta:
        meta = desc.to_json_dict() if desc else {
            "name": args.name, "graph6": graph6_encode(g), "n": g.n, "m": g.m,
        }
        _emit(args, json.dumps(meta, sort_keys=True) + "\n")
    else:
        _emit(args, GRAPH_FORMATS[args.out_format](g))
    return 0


def cmd_verify(args) -> int:
    corpus = CorpusSpec.parse(args.corpus)
    ids = args.theorems.split(",") if args.theorems else sorted(THEOREMS)
    report = run_verification(ids, corpus, _solver_config(args))
    _emit(args, report.to_json_lines())
    statuses = {c.status for c in report.checks}
    return 1 if "FAIL" in statuses else 3 if "INCONCLUSIVE" in statuses else 0


def cmd_sweep_edges(args) -> int:
    g = _read_input(args)
    records = edge_removal_sweep(g, _solver_config(args))
    _emit(args, "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in records))
    return 0


def cmd_interpolate(args) -> int:
    g = _read_input(args)
    report = wcon_spectrum(g)
    _emit(args, json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domlab",
        description="Exact connected / weakly convex domination laboratory",
    )
    parser.add_argument("--budget", type=int, default=SolverConfig.node_budget,
                        help="solver node budget")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimum dominating certificate")
    _add_input_args(p)
    p.add_argument("--kind", choices=("connected", "weakly-convex"),
                   default="weakly-convex")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="graph-class report")
    _add_input_args(p)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gadget", help="emit a named construction")
    p.add_argument("name", choices=GADGETS)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="out_format",
                   choices=GRAPH_FORMATS, default="graph6")
    p.add_argument("--meta", action="store_true", help="print descriptor JSON")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("verify", help="run theorem checks over a corpus")
    p.add_argument("--theorems", help="comma-separated ids (default: all)")
    p.add_argument("--corpus", default="exhaustive:6",
                   help="exhaustive:N | file:PATH | random:family:count:seed"
                        " | gadget:family:k1,k2,...")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep-edges", help="edge-removal records as JSON lines")
    _add_input_args(p)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_sweep_edges)

    p = sub.add_parser("interpolate", help="spanning-tree spectrum report")
    _add_input_args(p)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_interpolate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

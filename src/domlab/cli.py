"""Command-line entry point: solve, classify, sweep-edges, interpolate,
gadget, verify.  Exit codes: 0 success, 1 verification failure, 2 input error
or a budget-truncated value outside ``verify``, 3 verification INCONCLUSIVE."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomlabError, MalformedGraph6
from .domination import (
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
    graph6_lines,
    parse_edge_list,
    to_dot,
)
from .harness import CorpusSpec, THEOREMS, run_verification
from .recognizers import classify
from .spanning import edge_removal_sweep, wcon_spectrum


def _read_input(args) -> Graph:
    if args.input == "-":
        try:
            text = sys.stdin.read()
        except UnicodeDecodeError as exc:  # a locale whose stdin decoding is strict
            byte = exc.object[exc.start]
            raise MalformedGraph6(f"stdin: byte 0x{byte:02x} is not valid {exc.encoding}") from None
    else:
        # as stdin is read: undecodable bytes reach the parser, which refuses them
        with open(args.input, errors="surrogateescape") as fh:
            text = fh.read()
    if args.format == "graph6":
        lines = [line for _, line in graph6_lines(text.splitlines())]
        if len(lines) != 1:
            raise MalformedGraph6(f"expected one graph6 line, found {len(lines)}")
        return graph6_decode(lines[0])
    return parse_edge_list(text)


def _emit(args, text: str) -> None:
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _certificate(g: Graph, args) -> dict:
    solver = minimum_connected_dominating if args.kind == "connected" else minimum_wcon_dominating
    return solver(g, args.cfg).to_json_dict(g)


# name -> (help, function from (graph, args) to the JSON records printed);
# like GADGETS, each callee is looked up when called
GRAPH_COMMANDS = {
    "solve": ("minimum dominating certificate", lambda g, args: [_certificate(g, args)]),
    "classify": ("graph-class report", lambda g, args: [classify(g).to_json_dict()]),
    "sweep-edges": ("edge-removal records as JSON lines",
                    lambda g, args: [r.to_json_dict() for r in edge_removal_sweep(g, args.cfg)]),
    "interpolate": ("spanning-tree spectrum report",
                    lambda g, args: [wcon_spectrum(g).to_json_dict()]),
}


def cmd_graph(args) -> int:
    g = _read_input(args)
    records = GRAPH_COMMANDS[args.command][1](g, args)
    _emit(args, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
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
    ids = args.theorems.split(",") if args.theorems is not None else sorted(THEOREMS)
    report = run_verification(ids, corpus, args.cfg)
    _emit(args, report.to_json_lines())
    statuses = {c.status for c in report.checks}
    return 1 if "FAIL" in statuses else 3 if "INCONCLUSIVE" in statuses else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domlab",
        description="Exact connected / weakly convex domination laboratory",
    )
    parser.add_argument("--budget", type=int, default=SolverConfig.node_budget,
                        help="solver node budget")
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--json-out")

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("--input", default="-", help="path or - for stdin")
    graph_in.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")

    for name, (help_text, _) in GRAPH_COMMANDS.items():
        p = sub.add_parser(name, parents=[out, graph_in], help=help_text)
        p.set_defaults(func=cmd_graph)
        if name == "solve":
            p.add_argument("--kind", choices=("connected", "weakly-convex"),
                           default="weakly-convex")

    p = sub.add_parser("gadget", parents=[out], help="emit a named construction")
    p.add_argument("name", choices=GADGETS)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="out_format",
                   choices=GRAPH_FORMATS, default="graph6")
    p.add_argument("--meta", action="store_true", help="print descriptor JSON")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("verify", parents=[out], help="run theorem checks over a corpus")
    p.add_argument("--theorems", help="comma-separated ids (default: all)")
    p.add_argument("--corpus", default="exhaustive:6",
                   help="exhaustive:N | file:PATH | random:family:count:seed"
                        " | gadget:family:k1,k2,...")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.cfg = SolverConfig(node_budget=args.budget)
        return args.func(args)
    except (DomlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Theorem registry, corpus expansion, and verification reports."""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .errors import CorpusReadError, Inconclusive, ParameterOutOfRange, TierExceeded, UnknownTheoremId
from .domination import (
    Kind,
    SolverConfig,
    all_minimum_sets_oracle,
    gamma_pair,
    is_perfect_connected_dominating,
)
from .gadgets import (
    edge_gap_gadget,
    gap_gadget,
    random_cactus,
    random_connected_graph,
    random_long_cycle_tree,
    random_tree,
    random_unicyclic,
)
from .graph import (
    ACYCLIC,
    Graph,
    diameter,
    from_edge_list,
    girth,
    graph6_decode,
    graph6_encode,
    graph6_lines,
    induced_subgraph,
    is_connected,
    iter_bits,
    remove_edge,
    vertex_roles,
)
from .recognizers import (
    cactus_equality_characterization,
    girth7_analysis,
    is_cactus,
    is_chordal,
    is_complete,
    is_distance_hereditary,
    is_gc_gwcon_perfect,
    is_h_star_free,
    is_path,
    is_cycle_graph,
    lemma_perfect_conditions,
)
from .spanning import edge_removal_sweep, wcon_spectrum

ORACLE_SCOPE = 8  # oracle-backed checks skip larger graphs
EXHAUSTIVE_MAX_N = 7  # n = 7 walks 2^21 edge masks, n = 8 would walk 2^28
# each entry looks its gadget function up in the module when called, as ``THEOREMS`` does
GADGET_FAMILIES = {"gap": lambda k: gap_gadget(k), "edge": lambda k: edge_gap_gadget(k)}
# family -> (rng, seed) -> graph; each entry draws from ``rng`` in a fixed order
RANDOM_FAMILIES = {
    "connected": lambda rng, seed: random_connected_graph(rng.randint(4, 14), seed),
    "tree": lambda rng, seed: random_tree(rng.randint(3, 20), seed),
    "unicyclic": lambda rng, seed: random_unicyclic(rng.randint(3, 18), seed),
    "cactus": lambda rng, seed: random_cactus(rng.randint(1, 16), rng.random(), seed),
    "girth7": lambda rng, seed: random_long_cycle_tree(rng.randint(7, 18), seed),
}


@dataclass
class TheoremCheck:
    id: str
    scope: str
    status: str  # PASS | FAIL | INCONCLUSIVE | SKIPPED
    counterexamples: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    inconclusive: list = field(default_factory=list)  # graph6 of graphs a budget left open

    def to_json_dict(self) -> dict:
        # "inconclusive" only when non-empty, so reports at the default budget stay unchanged
        return {k: v for k, v in vars(self).items() if v or k != "inconclusive"}


@dataclass
class VerificationReport:
    checks: list[TheoremCheck]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        return all(c.status in ("PASS", "SKIPPED") for c in self.checks)

    def to_json_lines(self, include_timing: bool = True) -> str:
        lines = [json.dumps(c.to_json_dict(), sort_keys=True) for c in self.checks]
        counts = Counter(c.status for c in self.checks)
        summary = {"summary": True, "total": len(self.checks), "passed": counts["PASS"],
                   "failed": counts["FAIL"], "skipped": counts["SKIPPED"]}
        if counts["INCONCLUSIVE"]:
            summary["inconclusive"] = counts["INCONCLUSIVE"]
        if include_timing:
            summary["timing"] = {"elapsed_s": round(self.elapsed_s, 3)}
        lines.append(json.dumps(summary, sort_keys=True))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpora


@dataclass(frozen=True)
class CorpusSpec:
    """Deterministic graph source: exhaustive tier, file, random family
    or gadget parameter list. Every source yields connected graphs only."""

    kind: str  # exhaustive | file | random | gadget
    params: tuple = ()

    @staticmethod
    def parse(text: str) -> "CorpusSpec":
        kind, *rest = text.split(":")
        reason = ""
        try:
            if kind == "exhaustive" and len(rest) == 1 and 1 <= int(rest[0]) <= EXHAUSTIVE_MAX_N:
                return CorpusSpec("exhaustive", (int(rest[0]),))
            if kind == "file" and rest:
                return CorpusSpec("file", (":".join(rest),))
            if kind == "random" and len(rest) == 3 and rest[0] in RANDOM_FAMILIES and int(rest[1]) >= 1:
                return CorpusSpec("random", (rest[0], int(rest[1]), int(rest[2])))
            if kind == "gadget" and len(rest) == 2 and rest[0] in GADGET_FAMILIES:
                ks = tuple(int(x) for x in rest[1].split(","))
                for k in ks:  # the builders refuse a parameter outside their range
                    GADGET_FAMILIES[rest[0]](k)
                return CorpusSpec("gadget", (rest[0], ks))
        except ValueError:
            pass
        except (ParameterOutOfRange, TierExceeded) as exc:
            reason = f": {exc}"
        raise CorpusReadError(
            f"bad corpus spec {text!r}{reason} (want exhaustive:N with 1 <= N <= {EXHAUSTIVE_MAX_N},"
            " file:PATH, random:FAMILY:COUNT:SEED with COUNT >= 1 and FAMILY one of"
            f" {', '.join(RANDOM_FAMILIES)}, or gadget:gap|edge:k1,k2,...)"
        )

    def describe(self) -> str:
        if self.kind == "exhaustive":
            return f"exhaustive connected n<={self.params[0]}"
        if self.kind == "file":
            return f"graph6 file {self.params[0]}"
        if self.kind == "random":
            fam, count, seed = self.params
            return f"random {fam} x{count} seed={seed}"
        fam, ks = self.params
        return f"gadget {fam} k in {list(ks)}"

    def graphs(self) -> Iterator[Graph]:
        if self.kind == "exhaustive":
            yield from exhaustive_connected(self.params[0])
        elif self.kind == "file":
            yield from read_graph6_file(self.params[0])
        elif self.kind == "random":
            fam, count, seed = self.params
            yield from random_family(fam, count, seed)
        else:
            fam, ks = self.params
            for k in ks:
                yield GADGET_FAMILIES[fam](k).graph


def exhaustive_connected(max_n: int) -> Iterator[Graph]:
    """All labeled connected graphs on 1..max_n vertices."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = from_edge_list(n, [pairs[i] for i in iter_bits(mask)])
            if is_connected(g):
                yield g


def read_graph6_file(path: str) -> Iterator[Graph]:
    """The graphs of a graph6 file, which must all be connected: every
    theorem speaks about connected graphs only."""
    try:
        # undecodable bytes reach the parser, which refuses them with PATH:LINE
        with open(path, errors="surrogateescape") as fh:
            for lineno, line in graph6_lines(fh):
                try:
                    g = graph6_decode(line)
                except Exception as exc:
                    raise CorpusReadError(f"{path}:{lineno}: {exc}") from exc
                if not is_connected(g):
                    raise CorpusReadError(f"{path}:{lineno}: graph {line} is disconnected")
                yield g
    except OSError as exc:
        raise CorpusReadError(f"cannot read corpus file {path}: {exc}") from exc


def random_family(family: str, count: int, seed: int) -> Iterator[Graph]:
    """Seeded random corpora; sizes are fixed per family tier."""
    rng = random.Random(seed)
    for i in range(count):
        yield RANDOM_FAMILIES[family](rng, seed * 1_000_003 + i)


# every gamma value comes from ``domination.gamma_pair``; this name stays
# because perfbench's tracer reads ``harness._gammas_cached.cache_info()``
_gammas_cached = gamma_pair


# ---------------------------------------------------------------------------
# theorem registry


def _counterexample(g: Graph, **extra) -> dict:
    return {"graph6": graph6_encode(g), **extra}


def _status(counterexamples: list, inconclusive: list, checked: int) -> str:
    return "FAIL" if counterexamples else "INCONCLUSIVE" if inconclusive else "PASS" if checked else "SKIPPED"


@dataclass(frozen=True)
class Theorem:
    """One theorem checked graph by graph.

    ``applies(g)`` picks the graphs of a corpus the theorem speaks about;
    ``check(g, cfg, stats)`` returns the counterexamples one such graph
    gives, and may add to the named ``counters`` in ``stats``. Calling the
    entry runs it over a corpus.
    """

    id: str
    applies: Callable[[Graph], bool]
    check: Callable[[Graph, SolverConfig, dict], list]
    scope_note: str = ""
    counters: tuple[str, ...] = ()

    def scan(self, graphs: Iterable[Graph], cfg: SolverConfig) -> tuple[list, dict, list]:
        """Counterexamples in graph order, the stats (``checked`` plus every
        counter, zero or not), and the graph6 of the graphs whose check
        raised ``Inconclusive``; those are not ``checked``."""
        ces: list = []
        inconclusive: list = []
        stats = {"checked": 0, **dict.fromkeys(self.counters, 0)}
        for g in graphs:
            if self.applies(g):
                try:
                    ces += self.check(g, cfg, stats)
                except Inconclusive:
                    inconclusive.append(graph6_encode(g))
                else:
                    stats["checked"] += 1
        return ces, stats, inconclusive

    def __call__(self, corpus: CorpusSpec, cfg: SolverConfig) -> TheoremCheck:
        ces, stats, inconclusive = self.scan(corpus.graphs(), cfg)
        return TheoremCheck(
            self.id, corpus.describe() + self.scope_note,
            _status(ces, inconclusive, stats["checked"]), ces, stats, inconclusive,
        )


def _gadget_theorem(tid: str, family: str, default_ks: tuple, check: Callable) -> Callable:
    """A check over its own gadget family, whatever the corpus: the corpus's
    parameters when it is that family, else ``default_ks``.
    ``check(desc, k, cfg)`` returns the counterexamples of one gadget."""

    def run(corpus: CorpusSpec, cfg: SolverConfig) -> TheoremCheck:
        ks = corpus.params[1] if corpus.kind == "gadget" and corpus.params[0] == family else default_ks
        ces, inconclusive = [], []
        for k in ks:
            desc = GADGET_FAMILIES[family](k)
            try:
                ces += check(desc, k, cfg)
            except Inconclusive:
                inconclusive.append(graph6_encode(desc.graph))
        checked = len(ks) - len(inconclusive)
        return TheoremCheck(tid, f"{family} gadgets k in {list(ks)}",
                            _status(ces, inconclusive, checked), ces, {"checked": checked}, inconclusive)

    return run


def _gap_gadget(desc, k: int, cfg: SolverConfig) -> list:
    gc, gw = gamma_pair(desc.graph, cfg)
    if gc != desc.predictions["gamma_c"] or gw != desc.predictions["gamma_wcon"]:
        return [_counterexample(desc.graph, k=k, gamma_c=gc, gamma_wcon=gw)]
    return []


def _edge_gadget(desc, k: int, cfg: SolverConfig) -> list:
    _, before = gamma_pair(desc.graph, cfg)
    _, after = gamma_pair(remove_edge(desc.graph, *desc.special_edge), cfg)
    if after - before != k or before != desc.predictions["gamma_wcon"]:
        return [_counterexample(desc.graph, k=k, before=before, after=after)]
    return []


def _equal_gammas(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    gc, gw = gamma_pair(g, cfg)
    return [] if gc == gw else [_counterexample(g, gamma_c=gc, gamma_wcon=gw)]


def _bounds_2m_n(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    ces = []
    gc, gw = gamma_pair(g, cfg)
    bound = 2 * g.m - g.n
    pathlike = is_path(g)
    long_cycle = is_cycle_graph(g) and g.n >= 7
    if gc > gw:
        ces.append(_counterexample(g, reason="gamma_c > gamma_wcon"))
    if gc > bound or (gc == bound) != pathlike:
        ces.append(_counterexample(g, reason="gamma_c vs 2m-n", gamma_c=gc))
    if gw > bound or (gw == bound) != (pathlike or long_cycle):
        ces.append(_counterexample(g, reason="gamma_wcon vs 2m-n", gamma_wcon=gw))
    return ces


def _n_minus_2(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    gc, _ = gamma_pair(g, cfg)
    if gc > g.n - 2 or (gc == g.n - 2) != (is_path(g) or is_cycle_graph(g)):
        return [_counterexample(g, gamma_c=gc)]
    return []


def _observation(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    roles = vertex_roles(g)
    return [
        _counterexample(g, kind=kind.value, set=d)
        for kind in (Kind.CONNECTED, Kind.WEAKLY_CONVEX)
        for d in all_minimum_sets_oracle(g, kind)
        if roles.cut_vertices & ~d or roles.simplicial & d
    ]


def _diameter_lemma(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    hit_outside = hit_all = False
    for d in all_minimum_sets_oracle(g, Kind.CONNECTED):
        dm = diameter(induced_subgraph(g, d)[0])
        if dm <= 2:
            hit_outside = hit_all = True
            break
        if dm == 3:
            hit_outside |= is_perfect_connected_dominating(g, d)
    ces = _equal_gammas(g, cfg, stats) if hit_outside else []
    # counted once the graph's check is conclusive, like ``checked``
    stats["applicable_outside_reading"] += hit_outside
    # Under the all-vertices reading of perfectness no connected D of two or
    # more vertices is perfect, and diam G[D] = 3 needs |D| >= 4. So this
    # counts the graphs with a minimum connected dominating set of diameter <= 2.
    stats["applicable_all_vertices_reading"] += hit_all
    return ces


def _girth_at_least_7(g: Graph) -> bool:
    gth = girth(g)
    return g.n >= 3 and (gth is ACYCLIC or gth >= 7)


def _girth7(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    ces = []
    predicted = girth7_analysis(g)
    formula = predicted["gamma_wcon_formula"]
    gc, gw = gamma_pair(g, cfg)
    if gw != formula:
        ces.append(_counterexample(g, reason="formula", gamma_wcon=gw, formula=formula))
    if (gc == gw) != predicted["equality_predicted"]:
        ces.append(_counterexample(g, reason="equality-biconditional", gamma_c=gc, gamma_wcon=gw))
    return ces


def _cactus(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    predicted, _ = cactus_equality_characterization(g)
    gc, gw = gamma_pair(g, cfg)
    if predicted != (gc == gw):
        return [_counterexample(g, predicted=predicted, gamma_c=gc, gamma_wcon=gw)]
    return []


def _perfect_lemma(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    perfect, _ = is_gc_gwcon_perfect(g)
    if not perfect:
        return []
    stats["perfect"] += 1
    holds, violations = lemma_perfect_conditions(g)
    return [] if holds else [_counterexample(g, violations=[str(v) for v in violations])]


def _unicyclic(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    # removing a cycle edge (a non-bridge) leaves a spanning tree
    return [
        _counterexample(g, edge=list(rec.edge), delta=rec.delta_wcon)
        for rec in edge_removal_sweep(g, cfg)
        if not rec.is_bridge and abs(rec.delta_wcon) > 2
    ]


def _interpolation(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    report = wcon_spectrum(g)
    return [] if report.is_interval else [_counterexample(g, values=sorted(set(report.values)))]


def _edge_bound(g: Graph, cfg: SolverConfig, stats: dict) -> list:
    """Removal of a non-cut edge shifts gamma_c by 0, 1 or 2; graphs whose
    vertices are all simplicial-or-cut additionally shift by at most 1 and
    have equal numbers after removal."""
    ces = []
    roles = vertex_roles(g)
    all_sc = (roles.simplicial | roles.cut_vertices) == g.full_mask
    for rec in edge_removal_sweep(g, cfg):
        if rec.is_bridge:
            continue
        if rec.delta_c not in (0, 1, 2):
            ces.append(_counterexample(g, edge=list(rec.edge), delta_c=rec.delta_c))
        if all_sc:
            if rec.delta_c not in (0, 1):
                ces.append(_counterexample(g, edge=list(rec.edge), reason="sc-delta", delta_c=rec.delta_c))
            if rec.gamma_c_after != rec.gamma_wcon_after:
                ces.append(_counterexample(g, edge=list(rec.edge), reason="sc-equality"))
            if rec.delta_wcon not in (0, 1):
                ces.append(_counterexample(g, edge=list(rec.edge), reason="sc-wcon-delta", delta_wcon=rec.delta_wcon))
    return ces


# The gadget checks build their own graphs; every other theorem is a
# Theorem entry. Its ``applies`` calls the recognizers through a lambda,
# so they are looked up when the check runs and a wrapper put on this
# module (a profiler's, a test's monkeypatch) sees every call.
_ORACLE_NOTE = f" (oracle n<={ORACLE_SCOPE})"
THEOREMS: dict[str, Callable[[CorpusSpec, SolverConfig], TheoremCheck]] = {
    "S2.gap": _gadget_theorem("S2.gap", "gap", (6, 7), _gap_gadget),
    "S4.edge-gadget": _gadget_theorem("S4.edge-gadget", "edge", tuple(range(-3, 4)), _edge_gadget),
    **{t.id: t for t in (
        Theorem("S2.bounds-2m-n", lambda g: g.n >= 3, _bounds_2m_n),
        Theorem("S2.n-2", lambda g: g.n >= 3, _n_minus_2),
        Theorem("S2.observation", lambda g: 3 <= g.n <= ORACLE_SCOPE and not is_complete(g),
                _observation, _ORACLE_NOTE),
        Theorem("S2.diameter-lemma", lambda g: g.n <= ORACLE_SCOPE, _diameter_lemma, _ORACLE_NOTE,
                ("applicable_outside_reading", "applicable_all_vertices_reading")),
        Theorem("S2.girth7", _girth_at_least_7, _girth7),
        Theorem("S3.cactus", lambda g: is_cactus(g), _cactus),
        Theorem("S3.dh", lambda g: is_distance_hereditary(g), _equal_gammas),
        Theorem("S3.chordal-Hstar", lambda g: is_chordal(g) and is_h_star_free(g), _equal_gammas),
        Theorem("S3.perfect-lemma", lambda g: g.n <= 9, _perfect_lemma, " (n<=9)", ("perfect",)),
        Theorem("S4.unicyclic", lambda g: g.m == g.n, _unicyclic),
        Theorem("S4.interpolation", lambda g: True, _interpolation),
        Theorem("S4.edge-bound", lambda g: g.n >= 3, _edge_bound),
    )},
}


def run_verification(
    ids: Iterable[str],
    corpus: CorpusSpec,
    cfg: SolverConfig = SolverConfig(),
) -> VerificationReport:
    """Run the named theorem checks against one corpus."""
    ids = list(ids)
    for tid in ids:
        if tid not in THEOREMS:
            raise UnknownTheoremId(f"unknown theorem id {tid!r}")
    t0 = time.perf_counter()
    checks = [THEOREMS[tid](corpus, cfg) for tid in ids]
    return VerificationReport(checks, time.perf_counter() - t0)

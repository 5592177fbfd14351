"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its runtime budget, and
prints a single pass/fail line (run pytest with -s to see them). Criteria
about the paper's theorems run the harness registry, on its corpora or on
seeded graph lists; the others check the oracle and the paper's figures.
"""

import random
import time

from domlab.domination import (
    Kind,
    SolverConfig,
    all_minimum_sets_oracle,
    minimum_connected_dominating,
    minimum_wcon_dominating,
)
from domlab.gadgets import (
    corona_k1,
    cycle,
    fig_example_not_perfect,
    h_prime_a,
    h_star,
    random_cactus,
    random_connected_graph,
    random_long_cycle_tree,
    random_unicyclic,
)
from domlab.graph import mask_of
from domlab.harness import THEOREMS, CorpusSpec, exhaustive_connected, run_verification
from domlab.recognizers import (
    contains_induced,
    is_gc_gwcon_perfect,
    lemma_perfect_conditions,
)

CFG = SolverConfig()


def report(num: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[{status}] criterion {num}: {label} "
        f"({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    assert ok, f"criterion {num} ({label}) violated"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def verified(ids, spec: str, checked=None) -> bool:
    """Every named registry check PASSes on the corpus, so each saw a graph;
    with ``checked``, each saw exactly that many."""
    checks = run_verification(ids, CorpusSpec.parse(spec), CFG).checks
    return all(
        c.status == "PASS" and (checked is None or c.stats["checked"] == checked)
        for c in checks
    )


def scanned(tid: str, graphs: list) -> bool:
    """The registry entry applies to every graph, finds no counterexample,
    and leaves no graph inconclusive (those are not counted as checked)."""
    ces, stats, _ = THEOREMS[tid].scan(graphs, CFG)
    return not ces and stats["checked"] == len(graphs)


def test_criterion_01_wide_gap_gadgets():
    t0 = time.perf_counter()
    ok = True
    for k in (6, 7):
        tk = time.perf_counter()
        ok &= verified(["S2.gap"], f"gadget:gap:{k}", checked=1)
        ok &= time.perf_counter() - tk < 10
    report(1, "wide-gap gadgets k=6,7 exact values", ok, time.perf_counter() - t0, 25)


def test_criterion_02_edge_gadgets():
    t0 = time.perf_counter()
    ok = verified(["S4.edge-gadget"], "gadget:edge:-3,-2,-1,0,1,2,3", checked=7)
    report(2, "edge-removal gadgets shift by k for |k|<=3", ok, time.perf_counter() - t0, 30)


def test_criterion_03_bounds_suite():
    t0 = time.perf_counter()
    # 27,474 labeled connected graphs with 3 <= n <= 6
    ok = verified(["S2.bounds-2m-n", "S2.n-2"], "exhaustive:6", checked=27_474)
    report(3, "bound suite on exhaustive n<=6", ok, time.perf_counter() - t0, 300)


def test_criterion_04_forced_vertices_observation():
    t0 = time.perf_counter()
    # the same graphs without K_3..K_6
    ok = verified(["S2.observation"], "exhaustive:6", checked=27_470)
    report(
        4,
        "cut vertices forced / simplicial excluded in all minimum sets",
        ok,
        time.perf_counter() - t0,
        300,
    )


def test_criterion_05_class_equality_suites(data_dir):
    t0 = time.perf_counter()
    ok = True
    for spec in ("exhaustive:6", f"file:{data_dir / 'connected_n7.g6'}",
                 f"file:{data_dir / 'connected_n8.g6'}"):
        ok &= verified(["S3.dh", "S3.chordal-Hstar", "S3.cactus"], spec)
    # the cactus predicate is a biconditional on 300 seeded random cacti
    rng = random.Random(20240518)
    cacti = [random_cactus(rng.randint(1, 16), rng.random(), 9_000_000 + i) for i in range(300)]
    ok &= scanned("S3.cactus", cacti)
    report(5, "class equality suites (DH / chordal / cactus)", ok, time.perf_counter() - t0, 600)


def test_criterion_06_chordal_obstruction():
    t0 = time.perf_counter()
    hs = h_star().graph
    mins_c = all_minimum_sets_oracle(hs, Kind.CONNECTED)
    mins_w = all_minimum_sets_oracle(hs, Kind.WEAKLY_CONVEX)
    gc = mins_c[0].bit_count()
    gw = mins_w[0].bit_count()
    ok = gc == 4 and gw == 5 and gc < gw
    perfect, _ = is_gc_gwcon_perfect(hs)
    ok &= not perfect
    ok &= contains_induced(hs, h_prime_a().graph) is not None
    report(6, "chordal obstruction graph: 4 < 5, not perfect", ok, time.perf_counter() - t0, 120)


def test_criterion_07_not_perfect_figure():
    t0 = time.perf_counter()
    desc = fig_example_not_perfect()
    g, lab = desc.graph, desc.labels
    holds, _ = lemma_perfect_conditions(g)
    ok = holds
    perfect, _ = is_gc_gwcon_perfect(g)
    ok &= not perfect
    supports = mask_of(lab[x] for x in "cdefg")
    with_ab = supports | mask_of(lab[x] for x in "ab")
    ok &= supports in all_minimum_sets_oracle(g, Kind.CONNECTED)
    ok &= with_ab in all_minimum_sets_oracle(g, Kind.WEAKLY_CONVEX)
    report(7, "figure satisfies the lemma yet is not perfect", ok, time.perf_counter() - t0, 300)


def test_criterion_08_girth_seven_formula():
    t0 = time.perf_counter()
    graphs = [cycle(7), cycle(8), corona_k1(cycle(7))]
    rng = random.Random(7777)
    graphs += [
        random_long_cycle_tree(rng.randint(8, 16), 7_000_000 + i) for i in range(100)
    ]
    ok = scanned("S2.girth7", graphs)
    report(8, "girth>=7 leaf formula and equality biconditional", ok, time.perf_counter() - t0, 300)


def test_criterion_09_interpolation_and_deltas():
    t0 = time.perf_counter()
    ok = verified(["S4.interpolation", "S4.edge-bound"], "exhaustive:6")
    rng = random.Random(4242)
    graphs = [random_unicyclic(rng.randint(3, 18), 4_000_000 + i) for i in range(200)]
    for tid in ("S4.interpolation", "S4.unicyclic", "S4.edge-bound"):
        ok &= scanned(tid, graphs)
    report(9, "interpolation intervals and edge-removal deltas", ok, time.perf_counter() - t0, 600)


def test_criterion_10_solver_matches_oracle():
    t0 = time.perf_counter()
    mismatches = 0

    def check(g):
        nonlocal mismatches
        for kind, solver in (
            (Kind.CONNECTED, minimum_connected_dominating),
            (Kind.WEAKLY_CONVEX, minimum_wcon_dominating),
        ):
            mins = all_minimum_sets_oracle(g, kind)
            cert = solver(g, CFG)
            if cert.value != mins[0].bit_count() or cert.set not in mins:
                mismatches += 1

    for g in exhaustive_connected(6):
        check(g)
    rng = random.Random(31337)
    for i in range(500):
        g = random_connected_graph(rng.randint(2, 14), 3_000_000 + i)
        check(g)
    report(10, "pruned solver equals pruning-free oracle", mismatches == 0, time.perf_counter() - t0, 600)

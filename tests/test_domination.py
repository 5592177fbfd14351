import random

import pytest

from domlab.errors import Disconnected, EmptySet, Inconclusive, ParameterOutOfRange, TierExceeded
from domlab.domination import (
    Kind,
    SolverConfig,
    all_minimum_sets_oracle,
    gamma_pair,
    is_connected_dominating,
    is_dominating,
    is_perfect_connected_dominating,
    is_wcon_dominating,
    is_weakly_convex,
    kind_predicate,
    minimum_connected_dominating,
    minimum_wcon_dominating,
)
from domlab.gadgets import (
    complete,
    corona_k1,
    cycle,
    gap_gadget,
    h_star,
    path,
    random_tree,
    star,
)
from domlab.graph import bit, from_edge_list, induced_subgraph, mask_connected, mask_of, raw_distance_matrix
from domlab.harness import exhaustive_connected
from domlab.spanning import wcon_spectrum


def hamiltonian_plus_chords(rng: random.Random, n: int, chords: int):
    """A 2-connected graph: a shuffled Hamiltonian cycle plus random chords.

    It has no cut vertex, so the solvers loop over every root."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    for _ in range(chords):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return from_edge_list(n, edges)


def test_is_dominating():
    assert is_dominating(complete(5), bit(2))
    assert is_dominating(cycle(6), mask_of([0, 3]))
    assert not is_dominating(cycle(6), bit(0))
    with pytest.raises(EmptySet):
        is_dominating(cycle(6), 0)


def test_is_connected_dominating():
    c6 = cycle(6)
    assert is_connected_dominating(c6, mask_of([0, 1, 2, 3]))
    assert not is_connected_dominating(c6, mask_of([0, 3]))
    assert is_connected_dominating(from_edge_list(1, []), bit(0))


def test_is_weakly_convex():
    c6 = cycle(6)
    assert is_weakly_convex(c6, c6.full_mask)
    assert is_weakly_convex(c6, bit(4))
    # d(v0,v3) = 3 along either arc, the kept arc realizes it
    assert is_weakly_convex(c6, mask_of([0, 1, 2, 3]))
    # support vertices of the chordal obstruction: d_G(C,E)=2 via D, induced 3
    hs = h_star()
    supports = mask_of(hs.labels[x] for x in ("A", "B", "C", "E"))
    assert not is_weakly_convex(hs.graph, supports)


def isometric_by_definition(g, x):
    """Every pair of x at its host distance in G[x]; unreachable is -1."""
    sub, old = induced_subgraph(g, x)
    host, inner = raw_distance_matrix(g), raw_distance_matrix(sub)
    return all(inner[i][j] == host[a][b] for i, a in enumerate(old) for j, b in enumerate(old))


def test_is_weakly_convex_matches_definition():
    cases = [(g, range(1, 1 << g.n)) for g in exhaustive_connected(5)]
    rng = random.Random(5)
    for _ in range(10):
        g = hamiltonian_plus_chords(rng, rng.randint(9, 11), rng.randint(2, 6))
        cases.append((g, [x for x in range(1, 1 << g.n) if mask_connected(g.adj, x)]))
    for g, subsets in cases:
        for x in subsets:
            assert is_weakly_convex(g, x) == isometric_by_definition(g, x), (g.adj, x)


def test_is_wcon_dominating():
    c7 = cycle(7)
    assert is_wcon_dominating(c7, c7.full_mask)
    for v in range(7):
        assert not is_wcon_dominating(c7, c7.full_mask & ~bit(v))
    assert is_wcon_dominating(star(5), bit(0))


def test_perfect_connected_dominating():
    assert is_perfect_connected_dominating(star(6), bit(0))
    # C_6 with four consecutive vertices: v4 and v5 each see one dominator
    assert is_perfect_connected_dominating(cycle(6), mask_of([0, 1, 2, 3]))
    assert is_perfect_connected_dominating(cycle(4), mask_of([0, 1]))
    # all-vertices reading rejects any D with an internal edge
    assert not is_perfect_connected_dominating(
        cycle(6), mask_of([0, 1, 2, 3]), outside_only=False
    )


def test_minimum_connected_cycles_and_completes(cfg):
    for n in range(3, 9):
        assert minimum_connected_dominating(cycle(n), cfg).value == n - 2
    for n in range(1, 7):
        assert minimum_connected_dominating(complete(n), cfg).value == 1


def test_minimum_connected_gap_gadget(cfg):
    assert minimum_connected_dominating(gap_gadget(6).graph, cfg).value == 10


def test_minimum_wcon_values(cfg):
    assert minimum_wcon_dominating(cycle(7), cfg).value == 7
    assert minimum_wcon_dominating(gap_gadget(6).graph, cfg).value == 16


def test_minimum_wcon_trees_formula(cfg):
    for seed in range(40):
        t = random_tree(random.Random(seed).randint(3, 14), seed)
        leaves = sum(1 for v in range(t.n) if t.degree(v) == 1)
        assert minimum_wcon_dominating(t, cfg).value == t.n - leaves


def test_degenerate_orders(cfg):
    k1 = from_edge_list(1, [])
    k2 = from_edge_list(2, [(0, 1)])
    for g in (k1, k2):
        assert minimum_connected_dominating(g, cfg).value == 1
        assert minimum_wcon_dominating(g, cfg).value == 1


def test_oracle_p3_connected():
    assert all_minimum_sets_oracle(path(3), Kind.CONNECTED) == [bit(1)]


def test_oracle_c4_wcon_pairs():
    mins = all_minimum_sets_oracle(cycle(4), Kind.WEAKLY_CONVEX)
    expected = [mask_of([i, (i + 1) % 4]) for i in range(4)]
    assert sorted(mins) == sorted(expected)


def test_oracle_c5_connected_triples():
    mins = all_minimum_sets_oracle(cycle(5), Kind.CONNECTED)
    expected = [mask_of([i, (i + 1) % 5, (i + 2) % 5]) for i in range(5)]
    assert sorted(mins) == sorted(expected)


def test_oracle_tier():
    with pytest.raises(TierExceeded):
        all_minimum_sets_oracle(cycle(15), Kind.CONNECTED)


def test_gamma_gap(cfg):
    assert gamma_pair(gap_gadget(6).graph, cfg) == (10, 16)
    assert gamma_pair(complete(5), cfg) == (1, 1)
    assert gamma_pair(corona_k1(cycle(7)), cfg) == (7, 7)


def test_gamma_pair_cached(cfg):
    gamma_pair.cache_clear()
    assert gamma_pair(cycle(7), cfg) == (5, 7)
    assert gamma_pair(path(6), cfg) == (4, 4)
    assert gamma_pair(cycle(7), cfg) == (5, 7)
    assert gamma_pair.cache_info()[:2] == (1, 2)  # hits, misses
    # a budget-truncated value raises every time, and is never cached
    tight = SolverConfig(node_budget=3)
    for _ in range(2):
        with pytest.raises(Inconclusive, match="node budget 3"):
            gamma_pair(cycle(9), tight)
    assert gamma_pair.cache_info().currsize == 2


def test_solver_agrees_with_oracle_random(cfg):
    rng = random.Random(71)
    graphs = []
    for trial in range(60):
        n = rng.randint(2, 9)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        for _ in range(rng.randint(0, n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        graphs.append(from_edge_list(n, edges))
    for trial in range(30):
        n = rng.randint(6, 11)
        graphs.append(hamiltonian_plus_chords(rng, n, rng.randint(0, n)))
    for g in graphs:
        for kind, solver in (
            (Kind.CONNECTED, minimum_connected_dominating),
            (Kind.WEAKLY_CONVEX, minimum_wcon_dominating),
        ):
            mins = all_minimum_sets_oracle(g, kind)
            cert = solver(g, cfg)
            assert cert.value == mins[0].bit_count()
            assert cert.set in mins
            # deterministic tie-break: smallest bit mask
            assert cert.set == min(mins)
            assert kind_predicate(kind)(g, cert.set)


def test_gamma_c_never_exceeds_gamma_wcon(cfg):
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(2, 10)
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        for _ in range(rng.randint(0, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        g = from_edge_list(n, edges)
        c, w = gamma_pair(g, cfg)
        assert c <= w


def test_budget_exceeded_yields_flagged_upper_bound():
    cfg = SolverConfig(node_budget=1)
    cert = minimum_wcon_dominating(cycle(9), cfg)
    assert not cert.optimal
    assert is_wcon_dominating(cycle(9), cert.set)
    assert cert.value >= 7
    assert cert.nodes_expanded <= cfg.node_budget + 1
    g = hamiltonian_plus_chords(random.Random(0), 14, 5)
    for budget in (1, 10, 100):
        cfg = SolverConfig(node_budget=budget)
        for predicate, solver in (
            (is_connected_dominating, minimum_connected_dominating),
            (is_wcon_dominating, minimum_wcon_dominating),
        ):
            cert = solver(g, cfg)
            assert not cert.optimal and predicate(g, cert.set)
            assert cert.nodes_expanded <= budget + 1


def test_node_budget_must_be_positive():
    for budget in (0, -5):
        with pytest.raises(ParameterOutOfRange):
            SolverConfig(node_budget=budget)


def test_solvers_reject_disconnected_graphs(cfg):
    for g in (from_edge_list(2, []), from_edge_list(4, [(0, 1), (2, 3)])):
        for solver in (minimum_connected_dominating, minimum_wcon_dominating):
            with pytest.raises(Disconnected):
                solver(g, cfg)


def test_gamma_c_is_min_of_wcon_spectrum_past_oracle_tier(cfg):
    # max-leaf identity: gamma_c = n - (maximum leaf count of a spanning tree),
    # and a tree's gamma_wcon is n minus its leaf count
    rng = random.Random(2019)
    for n in (15, 16, 17, 18):
        g = hamiltonian_plus_chords(rng, n, 3)
        cert = minimum_connected_dominating(g, cfg)
        assert cert.optimal
        assert min(wcon_spectrum(g).values) == cert.value


def test_pruning_disabled_on_complete_graphs(cfg):
    # every vertex of K_n is simplicial; forcing must be bypassed
    for n in (3, 5, 6):
        assert minimum_connected_dominating(complete(n), cfg).value == 1


def test_certificate_serialization(cfg):
    g = cycle(5)
    cert = minimum_connected_dominating(g, cfg)
    d = cert.to_json_dict(g)
    assert d["kind"] == "connected" and d["value"] == 3
    assert d["optimal"] is True and len(d["set"]) == 3

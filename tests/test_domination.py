import dataclasses
import random
from collections import Counter

import pytest

from domlab import domination
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
    random_cactus,
    random_connected_graph,
    random_tree,
    star,
)
from domlab.graph import bit, from_edge_list, graph6_decode, induced_subgraph, mask_connected, mask_of, raw_distance_matrix
from domlab.harness import exhaustive_connected
from domlab.spanning import wcon_spectrum


def hamiltonian_plus_chords(rng: random.Random, n: int, chords: int):
    """A 2-connected graph: a shuffled Hamiltonian cycle plus random chords.

    It has no cut vertex, so the solvers root each set at a member of the
    smallest closed neighbourhood rather than at a forced vertex."""
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
    # cut vertices, so forced pairs whose geodesics bound the first layer
    graphs += [random_cactus(rng.randint(5, 12), 0.6, seed) for seed in range(20)]
    graphs += [corona_k1(random_connected_graph(rng.randint(2, 6), seed)) for seed in range(10)]
    for g in graphs:
        oracle = {kind: all_minimum_sets_oracle(g, kind) for kind in Kind}
        # gamma_wcon solved first, with no gamma_c certificate in the cache
        domination._connected_certificate.cache_clear()
        assert minimum_wcon_dominating(g, cfg).set == min(oracle[Kind.WEAKLY_CONVEX])
        domination._connected_certificate.cache_clear()
        for kind, solver, predicate in (
            (Kind.CONNECTED, minimum_connected_dominating, is_connected_dominating),
            (Kind.WEAKLY_CONVEX, minimum_wcon_dominating, is_wcon_dominating),
        ):
            mins = oracle[kind]
            cert = solver(g, cfg)
            assert cert.value == mins[0].bit_count()
            assert cert.set in mins
            # deterministic tie-break: smallest bit mask
            assert cert.set == min(mins)
            assert predicate(g, cert.set)


@pytest.mark.parametrize(
    "g6, wcon_set, wcon_value, connected_set",
    [
        ("FrGGG", 53, 4, 53),  # the gamma_c certificate is weakly convex
        ("GkOMGG", 99, 4, 51),  # another set of size gamma_c is
        ("GqCOKG", 171, 5, 43),  # a gap: gamma_c = 4 < gamma_wcon = 5
    ],
)
def test_wcon_certificate_from_each_path(cfg, g6, wcon_set, wcon_value, connected_set):
    g = graph6_decode(g6)
    c = minimum_connected_dominating(g, cfg)
    w = minimum_wcon_dominating(g, cfg)
    assert (c.set, c.value) == (connected_set, 4)
    assert (w.set, w.value, w.optimal) == (wcon_set, wcon_value, True)
    assert w.set == min(all_minimum_sets_oracle(g, Kind.WEAKLY_CONVEX))
    assert (w.nodes_expanded == 0) == (w.set == c.set)


def test_wcon_search_keeps_its_own_budget():
    g = gap_gadget(8).graph
    cfg = SolverConfig(node_budget=100)
    c = minimum_connected_dominating(g, cfg)
    assert c.optimal and c.nodes_expanded == 11
    w = minimum_wcon_dominating(g, cfg)
    assert not w.optimal and is_wcon_dominating(g, w.set)
    assert w.nodes_expanded <= cfg.node_budget + 1


def test_wcon_search_on_gap_gadgets_is_bounded(cfg):
    # the capacity, last-slot and forced-pair bounds cut the layers from
    # gamma_c up to gamma_wcon - 1, which hold no weakly convex set
    nodes = 0
    for k in (6, 7, 8):
        w = minimum_wcon_dominating(gap_gadget(k).graph, cfg)
        assert w.optimal and w.value == 2 * k + 4
        nodes += w.nodes_expanded
    assert nodes < 2_000


def test_connected_search_without_cut_vertices_is_bounded(cfg):
    # with no forced vertex, each set grows only from a member of the
    # smallest N[u] - excluded, which every candidate meets
    rng = random.Random(2024)
    nodes = 0
    for _ in range(50):
        c = minimum_connected_dominating(hamiltonian_plus_chords(rng, 11, 5), cfg)
        assert c.optimal
        nodes += c.nodes_expanded
    assert nodes < 3_500


def test_certificates_survive_relabelling_past_oracle_tier(cfg):
    """A vertex permutation moves the roots, the forced and banned vertices
    and the smallest-mask tie-break, so each relabelled solve is a different
    search; its value must not move, and its certificate, mapped back, must
    qualify in the original graph."""
    rng = random.Random(2029)
    n = 20
    for _ in range(4):
        g = hamiltonian_plus_chords(rng, n, 9)
        while g.m != 29:  # a chord that repeats an edge collapses
            g = hamiltonian_plus_chords(rng, n, 9)
        for solver, predicate in (
            (minimum_connected_dominating, is_connected_dominating),
            (minimum_wcon_dominating, is_wcon_dominating),
        ):
            cert = solver(g, cfg)
            assert cert.optimal and predicate(g, cert.set)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                relabelled = solver(from_edge_list(n, [(perm[u], perm[v]) for u, v in g.edges()]), cfg)
                back = mask_of(v for v in range(n) if relabelled.set >> perm[v] & 1)
                assert relabelled.optimal and relabelled.value == cert.value
                assert back.bit_count() == cert.value and predicate(g, back)


@pytest.mark.parametrize("g6, wcon_searches", [("GkOMGG", 1), ("FrGGG", 0)])
def test_one_connected_search_serves_both_solvers(monkeypatch, g6, wcon_searches):
    searches = Counter()
    solve = domination._solve_minimum

    def counting(g, kind, *args, **kwargs):
        searches[kind] += 1
        return solve(g, kind, *args, **kwargs)

    monkeypatch.setattr(domination, "_solve_minimum", counting)
    gamma_pair.cache_clear()
    domination._connected_certificate.cache_clear()
    g = graph6_decode(g6)
    minimum_connected_dominating(g)
    minimum_wcon_dominating(g)
    assert searches == Counter({Kind.CONNECTED: 1, Kind.WEAKLY_CONVEX: wcon_searches})
    # the default cfg and an equal one share the gamma_c certificate; only
    # the gamma_c search is kept, so gamma_pair repeats the gamma_wcon one
    gamma_pair(g, SolverConfig())
    assert searches == Counter({Kind.CONNECTED: 1, Kind.WEAKLY_CONVEX: 2 * wcon_searches})


def test_certificate_is_frozen(cfg):
    cert = minimum_connected_dominating(cycle(5), cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.value = 0


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
    # a gamma_c search cut short before any hit bounds nothing from below: the
    # leaves of this 13-vertex unicyclic graph are kept out of every layer, so
    # a gamma_wcon search from layer n would find no set at all
    g = graph6_decode("LsHKA?AA?_?O?O")
    cfg = SolverConfig(node_budget=10)
    assert minimum_connected_dominating(g, cfg).set == g.full_mask
    cert = minimum_wcon_dominating(g, cfg)
    assert not cert.optimal and is_wcon_dominating(g, cert.set)


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


def test_universal_vertex_is_the_certificate(cfg, monkeypatch):
    """k = 1: the lowest universal vertex is the certificate of either kind,
    found with no search node and no vertex-role pass."""
    roles = []
    real_roles = domination.vertex_roles
    monkeypatch.setattr(domination, "vertex_roles", lambda g: roles.append(g) or real_roles(g))
    domination._connected_certificate.cache_clear()
    full = [g for g in exhaustive_connected(5) if any(a | 1 << v == g.full_mask for v, a in enumerate(g.adj))]
    assert len(full) == 285
    wheel = from_edge_list(7, [(v, (v + 1) % 6) for v in range(6)] + [(v, 6) for v in range(6)])
    for g in (*full, complete(1), complete(2), complete(5), star(6), wheel):
        lowest = next(v for v, a in enumerate(g.adj) if a | 1 << v == g.full_mask)
        for solver in (minimum_connected_dominating, minimum_wcon_dominating):
            cert = solver(g, cfg)
            assert (cert.set, cert.value, cert.optimal, cert.nodes_expanded) == (bit(lowest), 1, True, 0)
    assert roles == []


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

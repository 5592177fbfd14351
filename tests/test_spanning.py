import random
from itertools import combinations

import pytest

from domlab.domination import minimum_wcon_dominating
from domlab.errors import (
    Disconnected,
    NotATree,
    NotUnicyclic,
    TreeCountCapExceeded,
)
from domlab import spanning
from domlab.gadgets import (
    complete,
    cycle,
    edge_gap_gadget,
    gap_gadget,
    path,
    random_connected_graph,
    random_tree,
    random_unicyclic,
    star,
)
from domlab.graph import from_edge_list, is_connected, raw_distance_matrix
from domlab.harness import exhaustive_connected
from domlab.spanning import (
    edge_removal_sweep,
    spanning_trees,
    tree_gamma_wcon,
    unicyclic_cycle_edge_analysis,
    wcon_spectrum,
)


def test_spanning_tree_counts():
    # Cayley: K_n has n^(n-2) labeled spanning trees
    assert sum(1 for _ in spanning_trees(complete(4))) == 16
    assert sum(1 for _ in spanning_trees(complete(5))) == 125
    assert sum(1 for _ in spanning_trees(cycle(8))) == 8
    t = random_tree(11, 2)
    trees = list(spanning_trees(t))
    assert trees == [t]


def test_spanning_trees_are_trees():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    seen = set()
    for t in spanning_trees(g):
        assert t.n == g.n and t.m == g.n - 1 and is_connected(t)
        assert all(g.has_edge(u, v) for u, v in t.edges())
        seen.add(t)
    assert len(seen) == 9  # 3 choices per triangle of the bowtie


def test_spanning_trees_errors():
    with pytest.raises(Disconnected):
        next(spanning_trees(from_edge_list(2, [])))
    with pytest.raises(TreeCountCapExceeded):
        list(spanning_trees(complete(5), cap=100))


def hamiltonian_plus_chords(rng: random.Random, n: int, chords: int):
    """A 2-connected graph: a shuffled Hamiltonian cycle plus random chords."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[(i + 1) % n]) for i in range(n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(chords)]
    return from_edge_list(n, edges)


def brute_force_spectrum(g):
    """n minus the leaf count over every (n-1)-edge subset that is a tree."""
    values = []
    for subset in combinations(g.edges(), g.n - 1):
        root = list(range(g.n))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        merges = 0
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                root[ru] = rv
                merges += 1
        if merges == g.n - 1:
            degree = [0] * g.n
            for u, v in subset:
                degree[u] += 1
                degree[v] += 1
            values.append(1 if g.n <= 2 else g.n - degree.count(1))
    return sorted(values)


def test_spanning_tree_cap_covers_wcon_spectrum(monkeypatch):
    monkeypatch.setattr(spanning, "TREE_COUNT_CAP", 100)
    with pytest.raises(TreeCountCapExceeded):
        wcon_spectrum(complete(5))
    assert wcon_spectrum(complete(4)).tree_count == 16


def test_wcon_spectrum_matches_brute_force():
    graphs = list(exhaustive_connected(5))
    rng = random.Random(7)
    for seed in range(40):
        graphs.append(random_connected_graph(rng.randint(1, 7), seed))
        graphs.append(hamiltonian_plus_chords(rng, rng.randint(3, 7), rng.randint(0, 6)))
    for g in graphs:
        assert wcon_spectrum(g).values == brute_force_spectrum(g), g.adj


def test_tree_count_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for n in (9, 10, 11, 12):
        for _ in range(2):
            g = hamiltonian_plus_chords(rng, n, rng.randint(2, 5))
            h = nx.Graph(g.edges())
            expected = round(nx.number_of_spanning_trees(h))
            assert wcon_spectrum(g).tree_count == expected
            assert sum(1 for _ in spanning_trees(g)) == expected
            assert spanning._tree_count(g) == expected
    # past the cap, where only the matrix-tree count is taken
    for k in (6, 7, 8):
        g = gap_gadget(k).graph
        assert spanning._tree_count(g) == round(nx.number_of_spanning_trees(nx.Graph(g.edges())))


def test_wcon_spectrum_builds_no_distance_matrix_per_tree():
    g = complete(6)  # 6^4 = 1,296 spanning trees
    raw_distance_matrix.cache_clear()
    raw_distance_matrix(g)  # the input graph's own entry
    before = raw_distance_matrix.cache_info()
    assert wcon_spectrum(g).tree_count == 1296
    after = raw_distance_matrix.cache_info()
    assert after.currsize == before.currsize and after.misses == before.misses


def test_tree_gamma_wcon(cfg):
    assert tree_gamma_wcon(path(5)) == 3
    assert tree_gamma_wcon(star(7)) == 1
    assert tree_gamma_wcon(path(2)) == 1
    # spider with three legs of length 2: n=7, 3 leaves
    spider = from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert tree_gamma_wcon(spider) == 4
    assert minimum_wcon_dominating(spider, cfg).value == 4
    with pytest.raises(NotATree):
        tree_gamma_wcon(cycle(4))


def test_tree_formula_matches_solver_random(cfg):
    for seed in range(25):
        t = random_tree(random.Random(seed).randint(2, 13), seed)
        assert tree_gamma_wcon(t) == minimum_wcon_dominating(t, cfg).value


def test_wcon_spectrum_paw(paw):
    rep = wcon_spectrum(paw)
    assert rep.values == [1, 2, 2] and rep.is_interval and rep.tree_count == 3


def test_wcon_spectrum_c7():
    rep = wcon_spectrum(cycle(7))
    assert rep.values == [5] * 7 and rep.is_interval


def test_wcon_spectrum_json():
    d = wcon_spectrum(cycle(4)).to_json_dict()
    assert d["values"] == [2, 2, 2, 2] and d["tree_count"] == 4
    assert isinstance(d["graph_hash"], str)


def test_unicyclic_analysis(cfg):
    c5 = cycle(5)
    records = unicyclic_cycle_edge_analysis(c5, cfg)
    assert len(records) == 5
    for rec in records:
        # three consecutive vertices work both on C_5 and on P_5
        assert rec.gamma_wcon_before == 3 and rec.gamma_wcon_after == 3
        assert rec.delta_wcon == 0
    with pytest.raises(NotUnicyclic):
        unicyclic_cycle_edge_analysis(path(5), cfg)
    with pytest.raises(NotUnicyclic):
        unicyclic_cycle_edge_analysis(complete(4), cfg)


def test_unicyclic_analysis_random(cfg):
    for seed in range(15):
        g = random_unicyclic(random.Random(seed).randint(4, 12), seed)
        before = minimum_wcon_dominating(g, cfg).value
        for rec in unicyclic_cycle_edge_analysis(g, cfg):
            assert rec.gamma_wcon_before == before
            # removal never decreases the weakly convex number... is false in
            # general; but the spanning-tree value is always >= gamma_wcon of a
            # minimum over all spanning trees, so just re-check via the solver
            u, v = rec.edge
            from domlab.graph import remove_edge

            h = remove_edge(g, u, v)
            assert rec.gamma_wcon_after == minimum_wcon_dominating(h, cfg).value


def test_edge_removal_sweep_bowtie(bowtie, cfg):
    records = edge_removal_sweep(bowtie, cfg)
    assert len(records) == bowtie.m
    assert all(not rec.is_bridge for rec in records)
    for rec in records:
        assert rec.gamma_c_before == 1 and rec.gamma_wcon_before == 1
        assert rec.delta_c >= 0


def test_edge_removal_sweep_bridges(cfg):
    records = edge_removal_sweep(path(4), cfg)
    assert all(rec.is_bridge for rec in records)
    assert all(rec.gamma_c_after is None and rec.delta_c is None for rec in records)


def test_edge_removal_sweep_c6(cfg):
    for rec in edge_removal_sweep(cycle(6), cfg):
        assert rec.delta_c == 0  # 4 = n-2 both before and after
        assert rec.delta_wcon == 0  # 4 on the cycle and 4 = n - leaves on P_6


def test_edge_removal_sweep_wide_gap_gadget(cfg):
    desc = edge_gap_gadget(3)
    records = edge_removal_sweep(desc.graph, cfg)
    by_edge = {frozenset(rec.edge): rec for rec in records}
    rec = by_edge[frozenset(desc.special_edge)]
    assert rec.gamma_wcon_before == desc.predictions["gamma_wcon"]
    assert rec.gamma_wcon_after == desc.predictions["gamma_wcon_after_removal"]
    assert rec.delta_wcon == 3
    assert rec.delta_c in (0, 1, 2)


def test_sweep_requires_connected():
    with pytest.raises(Disconnected):
        edge_removal_sweep(from_edge_list(3, [(0, 1)]))


def test_record_serialization(cfg):
    rec = edge_removal_sweep(cycle(4), cfg)[0]
    d = rec.to_json_dict()
    assert d["is_bridge"] is False
    assert d["delta_wcon"] == d["gamma_wcon_after"] - d["gamma_wcon_before"]

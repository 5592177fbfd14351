import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import domlab.domination as domination
import domlab.recognizers as recognizers
from domlab.domination import gamma_pair
from domlab.errors import GirthTooSmall, NotACactus, TierExceeded
from domlab.gadgets import (
    complete,
    corona_k1,
    cycle,
    fig_example_not_perfect,
    h_prime_a,
    h_star,
    path,
    random_cactus,
    random_connected_graph,
    random_tree,
    star,
)
from domlab.graph import (
    bit,
    from_edge_list,
    graph6_decode,
    induced_subgraph,
    is_connected,
    iter_bits,
    mask_connected,
    mask_of,
)
from domlab.harness import exhaustive_connected, read_graph6_file
from domlab.recognizers import (
    _cycle_dfs,
    cactus_equality_characterization,
    classify,
    contains_induced,
    distance_hereditary_oracle,
    enumerate_cycles,
    girth7_analysis,
    has_induced_cycle_at_least,
    is_block_graph,
    is_cactus,
    is_chordal,
    is_cograph,
    is_distance_hereditary,
    is_gc_gwcon_perfect,
    is_h_star_free,
    lemma_perfect_conditions,
)


def test_is_cactus(paw):
    assert is_cactus(paw)
    assert not is_cactus(complete(4))
    assert is_cactus(random_tree(9, 3))
    assert is_cactus(cycle(8))


def test_is_block_graph(bowtie):
    assert is_block_graph(bowtie)
    assert not is_block_graph(cycle(4))
    assert is_block_graph(from_edge_list(1, []))


def test_is_cograph():
    assert not is_cograph(path(4))
    assert is_cograph(complete(4))
    assert is_cograph(cycle(4))
    assert is_cograph(star(6))


def p4_free(g) -> bool:
    """The cograph definition: no four vertices induce a path."""
    for quad in combinations(range(g.n), 4):
        m = mask_of(quad)
        degs = sorted((g.adj[v] & m).bit_count() for v in quad)
        if degs == [1, 1, 2, 2] and mask_connected(g.adj, m):
            return False
    return True


def test_cograph_elimination_matches_p4_definition():
    # every labeled graph with n <= 6, disconnected ones included
    seen = 0
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = from_edge_list(n, [pairs[i] for i in iter_bits(mask)])
            assert is_cograph(g) == p4_free(g), g.edges()
            seen += 1
    assert seen == 33867


@st.composite
def grown_graphs(draw):
    """Graphs grown vertex by vertex: each new vertex is a pendant, a true
    or a false twin of an earlier vertex, or takes random earlier
    neighbours, so members and non-members of both classes are drawn."""
    n = draw(st.integers(1, 9))
    adj = [0] * n
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        nbrs = draw(st.sampled_from([1 << u, adj[u] | 1 << u, adj[u], draw(st.integers(0, (1 << v) - 1))]))
        for w in iter_bits(nbrs):
            adj[w] |= 1 << v
            adj[v] |= 1 << w
    return from_edge_list(n, [(u, w) for u in range(n) for w in iter_bits(adj[u]) if u < w])


@settings(max_examples=200, deadline=None)
@given(g=grown_graphs(), data=st.data())
def test_twin_pendant_elimination_ignores_labels(g, data):
    # deletions follow vertex labels, so a relabeling changes their order
    perm = data.draw(st.permutations(range(g.n)))
    h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert is_cograph(h) == is_cograph(g)
    if is_connected(g):
        assert is_distance_hereditary(h) == is_distance_hereditary(g)


def test_is_distance_hereditary_examples():
    assert is_distance_hereditary(random_tree(10, 1))
    assert not is_distance_hereditary(cycle(5))
    assert is_distance_hereditary(cycle(4))
    assert not is_distance_hereditary(corona_k1(cycle(7)))


def test_dh_elimination_matches_definitional_oracle_exhaustive():
    for g in exhaustive_connected(6):
        assert is_distance_hereditary(g) == distance_hereditary_oracle(g)


def test_dh_elimination_matches_oracle_on_corpus_files(data_dir):
    for g in read_graph6_file(data_dir / "connected_n8.g6"):
        assert is_distance_hereditary(g) == distance_hereditary_oracle(g)


def test_is_chordal():
    assert is_chordal(complete(4))
    assert not is_chordal(cycle(4))
    assert not is_chordal(cycle(5))
    assert is_chordal(h_star().graph)
    assert is_chordal(random_tree(12, 8))


def chordality_corpus(data_dir):
    """``exhaustive:5``, both data files, and seeded random graphs with
    n <= 12, disconnected ones included."""
    graphs = list(exhaustive_connected(5))
    for name in ("connected_n7.g6", "connected_n8.g6"):
        graphs += read_graph6_file(data_dir / name)
    rng = random.Random(29)
    for _ in range(400):
        n, p = rng.randint(1, 12), rng.random()
        graphs.append(from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return graphs


def test_chordal_elimination_matches_long_induced_cycle_search(data_dir):
    graphs = chordality_corpus(data_dir)
    chordal = [is_chordal(g) for g in graphs]
    assert any(chordal) and not all(chordal)
    assert any(not is_connected(g) for g in graphs)
    for g, flag in zip(graphs, chordal):
        assert flag == (has_induced_cycle_at_least(g, 4) is None), g.adj


def test_chordal_elimination_matches_networkx(data_dir):
    nx = pytest.importorskip("networkx")
    for g in chordality_corpus(data_dir):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        assert is_chordal(g) == nx.is_chordal(h), g.adj


def test_contains_induced():
    assert contains_induced(cycle(5), path(4)) is not None
    assert contains_induced(complete(4), cycle(4)) is None
    emb = contains_induced(h_star().graph, h_prime_a().graph)
    assert emb is not None


def test_is_h_star_free():
    hs = h_star().graph
    assert not is_h_star_free(hs)
    for g in (cycle(8), complete(5), path(9)):
        assert is_h_star_free(g)
    # any graph with fewer than 9 vertices is trivially free
    assert is_h_star_free(h_prime_a().graph)


def test_class_hierarchy_exhaustive():
    # tree => block graph => distance-hereditary; block graph => chordal;
    # cograph => distance-hereditary
    for g in exhaustive_connected(6):
        rep = classify(g)
        if rep.is_tree:
            assert rep.is_block_graph and rep.is_cactus
        if rep.is_block_graph:
            assert rep.is_distance_hereditary and rep.is_chordal
        if rep.is_cograph:
            assert rep.is_distance_hereditary
        if rep.is_path:
            assert rep.is_tree


def test_has_induced_cycle_at_least():
    assert has_induced_cycle_at_least(cycle(7), 7) is not None
    assert has_induced_cycle_at_least(h_star().graph, 4) is None
    assert has_induced_cycle_at_least(fig_example_not_perfect().graph, 7) is None
    with pytest.raises(GirthTooSmall):
        has_induced_cycle_at_least(cycle(5), 2)


def dense_graphs(count, n=9, p=0.8):
    """Seeded connected G(n, p) graphs."""
    out, seed = [], 0
    while len(out) < count:
        rng = random.Random(seed)
        seed += 1
        g = from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if is_connected(g):
            out.append(g)
    return out


def first_induced_cycles_by_filter(g, lengths):
    """Reference for ``has_induced_cycle_at_least``: every cycle from the
    unpruned walk, in walk order, kept only if it has no chord; the first
    one with at least k vertices, for each k."""
    cycles = [c for s in range(g.n) for c in _cycle_dfs(g, s, 3, g.n, False)]
    induced = [c for c in cycles if sum((g.adj[v] & mask_of(c)).bit_count() for v in c) == 2 * len(c)]
    return [next((c for c in induced if len(c) >= k), None) for k in lengths]


def test_induced_walk_matches_filtered_cycle_list():
    lengths = range(3, 8)
    graphs = list(exhaustive_connected(6)) + dense_graphs(50)
    found = 0
    for g in graphs:
        expected = first_induced_cycles_by_filter(g, lengths)
        assert [has_induced_cycle_at_least(g, k) for k in lengths] == expected, g
        found += sum(c is not None for c in expected)
    assert found


def test_induced_walk_stops_at_chords():
    # every path of three or more vertices in K_9 has a chord or closes a triangle
    k9 = complete(9)
    assert all(_cycle_dfs(k9, s, 7, 9, True) == [] for s in range(9))
    assert len(_cycle_dfs(k9, 0, 3, 9, True)) == 28  # the triangles through vertex 0
    assert has_induced_cycle_at_least(k9, 4) is None


def test_enumerate_cycles():
    assert len(enumerate_cycles(cycle(5), (5, 6))) == 1
    assert len(enumerate_cycles(complete(4), (5, 6))) == 0
    fig = fig_example_not_perfect()
    cycles = [set(c) for c in enumerate_cycles(fig.graph, (5, 6))]
    five = {fig.labels[x] for x in "abdef"}
    assert five in cycles


def test_enumerate_cycles_counts_k5():
    # K_5 has 5!/(5*2) = 12 distinct 5-cycles
    assert len(enumerate_cycles(complete(5), (5,))) == 12


def test_cactus_characterization(cfg):
    predicted, _ = cactus_equality_characterization(cycle(5))
    assert predicted
    predicted, violations = cactus_equality_characterization(cycle(7))
    assert not predicted and violations
    predicted, _ = cactus_equality_characterization(corona_k1(cycle(7)))
    assert predicted
    with pytest.raises(NotACactus):
        cactus_equality_characterization(complete(4))
    # a 6-cycle 0-3-1-4-2-5 with pendants on 0, 1, 2: no two degree-2 vertices adjacent
    ring = [0, 3, 1, 4, 2, 5]
    g = from_edge_list(9, [(ring[i], ring[i - 1]) for i in range(6)] + [(0, 6), (1, 7), (2, 8)])
    assert cactus_equality_characterization(g) == (False, [(0, 1, 2, 3, 4, 5)])
    gc, gw = gamma_pair(g, cfg)
    assert gc != gw
    # a 5-cycle with one pendant keeps two adjacent degree-2 vertices
    g = from_edge_list(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5)])
    assert cactus_equality_characterization(g) == (True, [])
    # a good 5-cycle and a 7-cycle 0-7-5-9-6-10-8 sharing the cut vertex 0
    ring = [0, 7, 5, 9, 6, 10, 8]
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(ring[i], ring[i - 1]) for i in range(7)]
    g = from_edge_list(11, edges)
    assert cactus_equality_characterization(g) == (False, [(0, 5, 6, 7, 8, 9, 10)])


def test_girth7_analysis():
    res = girth7_analysis(cycle(7))
    assert res == {"gamma_wcon_formula": 7, "equality_predicted": False}
    res = girth7_analysis(corona_k1(cycle(7)))
    assert res == {"gamma_wcon_formula": 7, "equality_predicted": True}
    t = random_tree(8, 2)
    res = girth7_analysis(t)  # forests count as girth >= 7
    leaves = sum(1 for v in range(t.n) if t.degree(v) == 1)
    assert res["gamma_wcon_formula"] == t.n - leaves
    assert res["equality_predicted"]
    with pytest.raises(GirthTooSmall):
        girth7_analysis(cycle(6))


def test_lemma_perfect_conditions():
    holds, _ = lemma_perfect_conditions(fig_example_not_perfect().graph)
    assert holds
    holds, violations = lemma_perfect_conditions(cycle(7))
    assert not holds and violations[0][0] == "induced-long-cycle"
    holds, _ = lemma_perfect_conditions(complete(4))
    assert holds


def cut_vertices_by_deletion(g, hood):
    """The cut vertices of the connected H = G[hood], by a plain DFS over
    neighbour lists: the vertices whose deletion leaves H disconnected."""
    nbrs = {v: list(iter_bits(g.adj[v] & hood)) for v in iter_bits(hood)}
    cut = 0
    for gone in nbrs:
        start = next(v for v in nbrs if v != gone)
        seen, todo = {gone, start}, [start]
        while todo:
            for w in nbrs[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) < len(nbrs):
            cut |= bit(gone)
    return cut


def cycle_violations_by_deletion(g):
    """Reference for the 5/6-cycle part of ``lemma_perfect_conditions``: the
    cut vertices of H = G[N[V(C)]] found afresh for every cycle, by deleting
    each vertex of H in turn."""
    out = []
    for cyc in enumerate_cycles(g, (5, 6)):
        on_c = mask_of(cyc)
        hood = on_c
        for v in cyc:
            hood |= g.adj[v]
        cut = cut_vertices_by_deletion(g, hood)
        p = len(cyc)
        if any(not cut >> cyc[i] & 1 and not cut >> cyc[(i + 1) % p] & 1 for i in range(p)):
            continue
        if all(not cut >> v & 1 or g.has_edge(cyc[i - 1], cyc[(i + 1) % p])
               or g.adj[cyc[i - 1]] & g.adj[cyc[(i + 1) % p]] & on_c & ~bit(v)
               for i, v in enumerate(cyc)):
            continue
        out.append(("cycle-conditions", cyc))
    return out


def test_lemma_cycle_conditions_match_per_cycle_reference(data_dir):
    graphs = list(read_graph6_file(str(data_dir / "connected_n8.g6")))
    graphs += [random_connected_graph(8 + seed % 4, seed) for seed in range(20)]
    violated = 0
    for g in graphs:
        _, violations = lemma_perfect_conditions(g)
        cycle_violations = [v for v in violations if v[0] == "cycle-conditions"]
        assert cycle_violations == cycle_violations_by_deletion(g), g
        violated += bool(cycle_violations)
    assert 0 < violated < len(graphs)


def test_is_gc_gwcon_perfect():
    hs = h_star().graph
    perfect, witness = is_gc_gwcon_perfect(hs)
    assert not perfect and witness == hs.full_mask
    perfect, _ = is_gc_gwcon_perfect(random_tree(10, 4))
    assert perfect
    perfect, witness = is_gc_gwcon_perfect(fig_example_not_perfect().graph)
    assert not perfect and witness is not None
    with pytest.raises(TierExceeded, match="perfectness tier is 12"):
        is_gc_gwcon_perfect(path(13))


def perfect_by_solves(g, cfg):
    """Reference: one solve pair per connected induced subgraph, smallest mask first."""
    for x in range(1, g.full_mask + 1):
        if mask_connected(g.adj, x):
            gc, gw = gamma_pair(induced_subgraph(g, x)[0], cfg)
            if gc != gw:
                return False, x
    return True, None


def seeded_non_chordal(count):
    graphs, seed = [], 0
    while len(graphs) < count:
        g = random_connected_graph(9 + seed % 4, seed)
        seed += 1
        if not is_chordal(g):
            graphs.append(g)
    return graphs


def test_perfectness_pass_matches_solves(cfg, data_dir):
    graphs = list(exhaustive_connected(5))
    for name in ("connected_n7.g6", "connected_n8.g6"):
        graphs += list(read_graph6_file(str(data_dir / name)))
    graphs += [h_star().graph, path(12), cycle(12)]  # gamma_c(C_12) = 10: deep layers
    for g in graphs:
        assert is_gc_gwcon_perfect(g) == perfect_by_solves(g, cfg), g
    fig = fig_example_not_perfect().graph
    assert is_gc_gwcon_perfect(fig) == perfect_by_solves(fig, cfg) == (False, 2815)
    seeded = seeded_non_chordal(30)
    assert {g.n for g in seeded} == {9, 10, 11, 12}
    verdicts = [perfect_by_solves(g, cfg) for g in seeded]
    assert [is_gc_gwcon_perfect(g) for g in seeded] == verdicts
    assert any(perfect for perfect, _ in verdicts) and not all(perfect for perfect, _ in verdicts)


def test_perfectness_makes_no_solver_call(monkeypatch):
    def no_solve(g, cfg):
        raise AssertionError("perfectness called a solver")

    g = graph6_decode("Gxe?`?")
    assert g.n == 8 and not is_chordal(g)
    gamma_pair.cache_clear()
    monkeypatch.setattr(domination, "minimum_connected_dominating", no_solve)
    monkeypatch.setattr(domination, "minimum_wcon_dominating", no_solve)
    assert is_gc_gwcon_perfect(g) == (True, None)


# The four n = 8 classes (Gxe?`? is a labeling of GHP@Eo) that are perfect yet
# violate the lemma's literal reading, "every (not necessarily induced)
# 5/6-cycle". Each fails clauses (1) and (2) on one 5-cycle with a chord, so
# the induced-cycles reading holds on all of them.
@pytest.mark.parametrize("g6,cyc", [
    ("GHP@Eo", (1, 2, 3, 7, 4)),
    ("GHP@Fo", (1, 2, 3, 7, 4)),
    ("GHDADg", (1, 2, 3, 7, 5)),
    ("GHDAFg", (1, 2, 3, 7, 5)),
    ("Gxe?`?", (0, 1, 2, 3, 4)),
])
def test_lemma_literal_reading_fails_on_perfect_n8_graphs(g6, cyc, cfg):
    g = graph6_decode(g6)
    assert is_gc_gwcon_perfect(g) == perfect_by_solves(g, cfg) == (True, None)
    assert lemma_perfect_conditions(g) == (False, [("cycle-conditions", cyc)])
    edges_inside = sum(g.has_edge(a, b) for a, b in combinations(cyc, 2))
    assert edges_inside > len(cyc)  # the 5-cycle has a chord: not induced


def test_chordal_supergraphs_of_obstruction_not_perfect(monkeypatch):
    # pendant growth on the chord vertex keeps chordality and the obstruction
    hs = h_star()
    base = hs.graph
    hosts = []
    for extra in range(3):
        n = base.n + extra
        edges = base.edges() + [(hs.labels["D"], base.n + i) for i in range(extra)]
        g = from_edge_list(n, edges)
        assert is_chordal(g)
        assert contains_induced(g, base) is not None
        hosts.append(g)

    def refuse(*args):
        raise AssertionError("perfectness took a chordal shortcut")

    # chordal hosts are decided by the mask pass too, not by an obstruction search
    monkeypatch.setattr(recognizers, "contains_induced", refuse)
    monkeypatch.setattr(recognizers, "is_chordal", refuse)
    for g in hosts:
        # every proper induced subgraph of the obstruction is perfect
        assert is_gc_gwcon_perfect(g) == (False, base.full_mask), g.n


def test_random_cacti_recognized():
    for seed in range(100):
        rng = random.Random(seed)
        g = random_cactus(rng.randint(1, 16), rng.random(), seed)
        assert is_cactus(g)


def test_classify_gadgets():
    rep = classify(h_star().graph)
    assert rep.is_chordal and not rep.is_h_star_free
    rep = classify(cycle(4))
    assert rep.is_cograph and not rep.is_chordal
    rep = classify(random_tree(7, 7))
    assert rep.is_tree and rep.is_cactus and rep.is_distance_hereditary

import random

import pytest

from domlab.errors import NotACactus, GirthTooSmall
from domlab.gadgets import (
    complete,
    corona_k1,
    cycle,
    fig_example_not_perfect,
    h_prime_a,
    h_star,
    path,
    random_cactus,
    random_tree,
    star,
)
from domlab.graph import from_edge_list
from domlab.harness import exhaustive_connected, read_graph6_file
from domlab.recognizers import (
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


def test_enumerate_cycles():
    assert len(enumerate_cycles(cycle(5), (5, 6))) == 1
    assert len(enumerate_cycles(complete(4), (5, 6))) == 0
    fig = fig_example_not_perfect()
    cycles = [set(w.vertices) for w in enumerate_cycles(fig.graph, (5, 6))]
    five = {fig.labels[x] for x in "abdef"}
    assert five in cycles


def test_enumerate_cycles_counts_k5():
    # K_5 has 5!/(5*2) = 12 distinct 5-cycles
    assert len(enumerate_cycles(complete(5), (5,))) == 12


def test_cactus_characterization():
    predicted, _ = cactus_equality_characterization(cycle(5))
    assert predicted
    predicted, violations = cactus_equality_characterization(cycle(7))
    assert not predicted and violations
    predicted, _ = cactus_equality_characterization(corona_k1(cycle(7)))
    assert predicted
    with pytest.raises(NotACactus):
        cactus_equality_characterization(complete(4))


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


def test_is_gc_gwcon_perfect(cfg):
    hs = h_star().graph
    perfect, witness = is_gc_gwcon_perfect(hs, cfg)
    assert not perfect and witness == hs.full_mask
    perfect, _ = is_gc_gwcon_perfect(random_tree(10, 4), cfg)
    assert perfect
    perfect, witness = is_gc_gwcon_perfect(fig_example_not_perfect().graph, cfg)
    assert not perfect and witness is not None


def test_chordal_supergraphs_of_obstruction_not_perfect(cfg):
    # pendant growth on the chord vertex keeps chordality and the obstruction
    hs = h_star()
    base = hs.graph
    for extra in range(3):
        n = base.n + extra
        edges = base.edges() + [(hs.labels["D"], base.n + i) for i in range(extra)]
        g = from_edge_list(n, edges)
        assert is_chordal(g)
        assert contains_induced(g, base) is not None
        perfect, witness = is_gc_gwcon_perfect(g, cfg)
        assert not perfect and witness is not None


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

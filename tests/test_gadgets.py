import pytest

from domlab.errors import ParameterOutOfRange
from domlab.gadgets import (
    complete,
    corona_k1,
    cycle,
    edge_gap_gadget,
    fig_example_not_perfect,
    gap_gadget,
    h_prime_a,
    h_star,
    path,
    random_cactus,
    random_long_cycle_tree,
    random_tree,
    random_unicyclic,
    star,
)
from domlab.graph import blocks_and_bridges, girth, graph6_encode, is_connected
from domlab.recognizers import is_cactus


def test_standard_families():
    assert path(2) == complete(2)
    assert cycle(3) == complete(3)
    assert star(2) == path(2)
    assert path(1).n == 1
    with pytest.raises(ParameterOutOfRange):
        cycle(2)
    with pytest.raises(ParameterOutOfRange):
        path(0)


def test_corona():
    g = corona_k1(cycle(7))
    assert g.n == 14 and g.m == 14
    assert sum(1 for v in range(g.n) if g.degree(v) == 1) == 7


def test_gap_gadget_shape():
    for k in (6, 7, 9):
        desc = gap_gadget(k)
        assert desc.graph.n == 3 * k + 10
        assert desc.graph.m == 4 * k + 13
        assert desc.predictions == {"gamma_c": k + 4, "gamma_wcon": 2 * k + 4}
        assert is_connected(desc.graph)
        assert girth(desc.graph) == 3  # triangle x1, v1, u1 via chord v1-u1
        # labels form a bijection onto the vertex range
        assert sorted(desc.labels.values()) == list(range(desc.graph.n))
    with pytest.raises(ParameterOutOfRange):
        gap_gadget(5)


def test_gap_gadget_label_structure():
    desc = gap_gadget(6)
    g, lab = desc.graph, desc.labels
    assert g.has_edge(lab["v1"], lab["u3"])
    for i in range(1, 9):
        assert g.has_edge(lab[f"v{i}"], lab[f"u{i}"])
        assert g.degree(lab[f"v{i}'"]) == 1
    assert g.degree(lab["x1'"]) == 1 and g.degree(lab["x2'"]) == 1


def test_edge_gap_gadget_zero():
    desc = edge_gap_gadget(0)
    assert desc.graph == cycle(3)
    assert desc.special_edge in desc.graph.edges()


def test_edge_gap_gadget_positive():
    for k in (1, 2, 3):
        desc = edge_gap_gadget(k)
        assert desc.graph.n == 3 * k + 4
        assert desc.predictions == {
            "gamma_wcon": k + 2,
            "gamma_wcon_after_removal": 2 * k + 2,
        }
        assert sorted(desc.labels.values()) == list(range(desc.graph.n))


def test_edge_gap_gadget_negative():
    for k in (-1, -2, -3):
        desc = edge_gap_gadget(k)
        kk = -k
        assert desc.graph.n == 3 * kk + 10
        assert desc.predictions == {
            "gamma_wcon": 2 * kk + 4,
            "gamma_wcon_after_removal": kk + 4,
        }


def test_special_edge_never_a_bridge():
    for k in range(-4, 5):
        desc = edge_gap_gadget(k)
        _, bridges, _ = blocks_and_bridges(desc.graph)
        assert frozenset(desc.special_edge) not in set(map(frozenset, bridges))


def test_figure_graphs():
    hs = h_star()
    assert hs.graph.n == 9 and hs.graph.m == 11
    hp = h_prime_a()
    assert hp.graph.n == 5 and hp.graph.m == 7
    fig = fig_example_not_perfect()
    assert fig.graph.n == 12
    # pendants hang on c, d, e, f and g
    for name in ("c'", "d'", "e'", "f'", "g'"):
        assert fig.graph.degree(fig.labels[name]) == 1


def test_random_families_connected_and_deterministic():
    for seed in range(30):
        t = random_tree(10, seed)
        assert t.m == t.n - 1 and is_connected(t)
        assert t == random_tree(10, seed)
        u = random_unicyclic(12, seed)
        assert u.m == u.n and is_connected(u)
        c = random_cactus(14, 0.6, seed)
        assert is_cactus(c)
        assert c == random_cactus(14, 0.6, seed)
        lg = random_long_cycle_tree(15, seed)
        assert girth(lg) >= 7 and is_connected(lg)


def test_random_cactus_degenerates():
    assert random_cactus(1, 0.5, 0).n == 1
    t = random_cactus(12, 0.0, 3)
    assert t.m == t.n - 1  # no cycles attached


# (graph6, label names in vertex order, special edge) of each construction;
# every refactor of the constructions must reproduce them exactly
PINNED_GADGETS = {
    (gap_gadget, 6): (
        "[hCGGC@?G@_H?`@?`?I_@G?F??K??A???_??C???O???_???_???O???C????_??",
        "x1 v1 v2 v3 v4 v5 v6 v7 v8 x2 u8 u7 u6 u5 u4 u3 u2 u1"
        " x1' v1' v2' v3' v4' v5' v6' v7' v8' x2'",
        None,
    ),
    (gap_gadget, 7): (
        "^hCGGC@?G?_B?H?O_OGG@A?DO?H??M??E???O??@???A???A???@????O???A????G????O????O???",
        "x1 v1 v2 v3 v4 v5 v6 v7 v8 v9 x2 u9 u8 u7 u6 u5 u4 u3 u2 u1"
        " x1' v1' v2' v3' v4' v5' v6' v7' v8' v9' x2'",
        None,
    ),
    (gap_gadget, 8): (
        "ahCGGC@?G?_@?B?C_CGA@?_CC?GO?I_?C_?@o??K???G???G???C???@????G????_???@????@?????_????G????@????",
        "x1 v1 v2 v3 v4 v5 v6 v7 v8 v9 v10 x2 u10 u9 u8 u7 u6 u5 u4 u3 u2 u1"
        " x1' v1' v2' v3' v4' v5' v6' v7' v8' v9' v10' x2'",
        None,
    ),
    (edge_gap_gadget, -3): (
        "RhCGGKHSH?w@_?O?C??_?A??C??C??",
        "x1 v1 v2 v3 v4 v5 x2 u5 u4 u3 u2 u1 x1' v1' v2' v3' v4' v5' x2'",
        (7, 6),
    ),
    (edge_gap_gadget, -2): (
        "OhCGYc`oK?G?G?C?@??G?",
        "x1 v1 v2 v3 v4 x2 u4 u3 u2 u1 x1' v1' v2' v3' v4' x2'",
        (6, 5),
    ),
    (edge_gap_gadget, -1): (
        "LhDXME?O@?A?A?",
        "x1 v1 v2 v3 x2 u3 u2 u1 x1' v1' v2' v3' x2'",
        (5, 4),
    ),
    (edge_gap_gadget, 0): ("Bw", "x1 x2", (0, 1)),
    (edge_gap_gadget, 1): ("Fn`@?", "x1 v1 x2 u1 x1' v1' x2'", (0, 1)),
    (edge_gap_gadget, 2): ("IhNKA?_C?", "x1 v1 v2 x2 u2 u1 x1' v1' v2' x2'", (0, 1)),
    (edge_gap_gadget, 3): (
        "LhCXME?O@?A?A?",
        "x1 v1 v2 v3 x2 u3 u2 u1 x1' v1' v2' v3' x2'",
        (0, 1),
    ),
}


@pytest.mark.parametrize("builder,k", list(PINNED_GADGETS), ids=lambda x: getattr(x, "__name__", x))
def test_gadgets_match_pinned_graph6_and_labels(builder, k):
    code, names, special = PINNED_GADGETS[builder, k]
    desc = builder(k)
    assert graph6_encode(desc.graph) == code
    assert list(desc.labels.items()) == [(name, i) for i, name in enumerate(names.split())]
    assert desc.special_edge == special


def test_gadget_serialization():
    d = gap_gadget(6).to_json_dict()
    assert d["n"] == 28 and d["m"] == 37
    assert d["predictions"] == {"gamma_c": 10, "gamma_wcon": 16}
    d = edge_gap_gadget(3).to_json_dict()
    assert d["special_edge"] is not None

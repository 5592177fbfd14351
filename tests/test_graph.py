import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from domlab.errors import (
    IndexOutOfRange,
    MalformedGraph6,
    NoSuchEdge,
    SelfLoop,
    TierExceeded,
)
from domlab.domination import _connected_certificate, gamma_pair
from domlab.gadgets import cycle, complete, gap_gadget, path, star
from domlab.graph import (
    ACYCLIC,
    UNREACHABLE,
    VERTEX_TIER,
    _Balls,
    _distance_balls,
    add_edge,
    blocks_and_bridges,
    components,
    diameter,
    distance_matrix,
    distances_from,
    format_edge_list,
    from_edge_list,
    girth,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_connected,
    mask_connected,
    mask_of,
    parse_edge_list,
    raw_distance_matrix,
    remove_edge,
    set_to_list,
    to_dot,
    vertex_roles,
)
from domlab.harness import THEOREMS, CorpusSpec, exhaustive_connected, read_graph6_file, run_verification


def test_from_edge_list_triangle():
    g = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
    assert g.m == 3 and g.n == 3


def test_from_edge_list_k1():
    g = from_edge_list(1, [])
    assert g.n == 1 and g.m == 0


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
    assert g.m == 3
    assert g == path(4)


def test_from_edge_list_errors():
    with pytest.raises(IndexOutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(SelfLoop):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(TierExceeded):
        from_edge_list(65, [])


def test_graph6_k1():
    assert graph6_encode(from_edge_list(1, [])) == "@"


def test_graph6_empty_is_error():
    with pytest.raises(MalformedGraph6):
        graph6_decode("")


def test_graph6_names_the_byte_outside_range():
    # an undecodable byte reaches the decoder surrogate-escaped, as files are read
    with pytest.raises(MalformedGraph6, match=r"^byte 0xff outside graph6 range$"):
        graph6_decode(b"\xff\xfe".decode("utf-8", "surrogateescape"))
    with pytest.raises(MalformedGraph6, match=r"^byte ' ' outside graph6 range$"):
        graph6_decode("B w")
    with pytest.raises(MalformedGraph6, match=r"^byte '\xe9' outside graph6 range$"):
        graph6_decode("B\xe9")


def test_graph6_refuses_set_padding_bits():
    assert graph6_decode("Bw") == cycle(3)
    assert graph6_decode("C~") == complete(4)  # six edge bits, no padding
    assert graph6_decode("D~{") == complete(5)
    for line in ("Bx", "B~", "D~|", "D~~"):  # n = 3 pads 3 bits, n = 5 pads 2
        with pytest.raises(MalformedGraph6, match="padding bits"):
            graph6_decode(line)


def test_graph6_refuses_four_byte_order_below_63():
    for g in (from_edge_list(1, []), cycle(3), path(62)):
        line = graph6_encode(g)
        assert graph6_decode(line) == g
        # '~' and the groups 0, 0, n: the form meant for orders 63 and up
        with pytest.raises(MalformedGraph6, match="four-byte form"):
            graph6_decode("~??" + line)


def test_graph6_header_tolerated():
    g = cycle(5)
    assert graph6_decode(">>graph6<<" + graph6_encode(g)) == g


def test_graph6_roundtrip_seeded_corpus():
    # 1000 seeded random graphs, n <= 20
    rng = random.Random(20240517)
    for _ in range(1000):
        n = rng.randint(1, 20)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.3
        ]
        g = from_edge_list(n, edges)
        assert graph6_decode(graph6_encode(g)) == g


@pytest.mark.parametrize("n", [63, 64])
def test_graph6_roundtrip_extended_order(n):
    # n >= 63 is written as '~' and three 6-bit groups
    g = path(n)
    assert graph6_encode(g)[0] == "~"
    assert graph6_decode(graph6_encode(g)) == g


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(63)
    for n in (1, 2, 7, 62, 63, 64):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(edges)
        assert graph6_encode(from_edge_list(n, edges)) == nx.to_graph6_bytes(ref, header=False).decode().strip()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, VERTEX_TIER), st.data())
def test_graph6_roundtrip_property(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = from_edge_list(n, chosen)
    assert graph6_decode(graph6_encode(g)) == g


def test_distances_c6():
    assert distances_from(cycle(6), 0) == [0, 1, 2, 3, 2, 1]


def test_distances_k2_and_disconnected():
    assert distances_from(from_edge_list(2, [(0, 1)]), 0) == [0, 1]
    assert distances_from(from_edge_list(2, []), 0) == [0, UNREACHABLE]


def test_distances_index_error():
    with pytest.raises(IndexOutOfRange):
        distances_from(cycle(4), 9)


def test_diameter():
    assert diameter(cycle(7)) == 3
    assert diameter(complete(5)) == 1
    assert diameter(path(5)) == 4
    assert diameter(from_edge_list(2, [])) is UNREACHABLE


def test_distance_matrix_invariants():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 9)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        g = from_edge_list(n, edges)
        d = distance_matrix(g)
        for i in range(n):
            assert d[i][i] == 0
            for j in range(n):
                assert d[i][j] == d[j][i]
                for k in range(n):
                    if (
                        isinstance(d[i][j], int)
                        and isinstance(d[j][k], int)
                        and isinstance(d[i][k], int)
                    ):
                        assert d[i][k] <= d[i][j] + d[j][k]


def test_girth():
    assert girth(cycle(7)) == 7
    assert girth(path(6)) is ACYCLIC
    assert girth(star(5)) is ACYCLIC
    assert girth(complete(4)) == 3
    assert girth(cycle(4)) == 4


def balls_of(dist):
    """Reference balls from a networkx distance dict: ``balls[d]`` holds
    every vertex within ``d`` of the source."""
    balls = [0] * (max(dist.values()) + 1)
    for v, d in dist.items():
        balls[d] |= 1 << v
    for d in range(1, len(balls)):
        balls[d] |= balls[d - 1]
    return balls


def test_ball_table_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(40)
    graphs = list(exhaustive_connected(6))
    for _ in range(150):  # sparse ones are mostly disconnected
        n, p = rng.randint(1, 40), rng.random() * 0.3
        graphs.append(from_edge_list(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    graphs += [gap_gadget(k).graph for k in (6, 7, 8)]
    for g in graphs:
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        dist = dict(nx.all_pairs_shortest_path_length(ref))
        host = _distance_balls(g)
        assert [host[a] for a in range(g.n)] == [balls_of(dist[a]) for a in range(g.n)], g.adj
        assert distance_matrix(g) == [[dist[a].get(b, UNREACHABLE) for b in range(g.n)] for a in range(g.n)], g.adj
        connected = nx.is_connected(ref)
        assert diameter(g) == (nx.diameter(ref, e=nx.eccentricity(ref, sp=dist)) if connected else UNREACHABLE), g.adj
        shortest = nx.girth(ref)
        assert girth(g) == (ACYCLIC if shortest == float("inf") else shortest), g.adj
        lowest_first = sorted((mask_of(c) for c in nx.connected_components(ref)), key=lambda c: c & -c)
        assert components(g) == lowest_first, g.adj
        if g.n > 6 or rng.random() < 0.03:
            for _ in range(6):  # induced balls, of connected and disconnected X alike
                x = rng.randrange(1, 1 << g.n)
                inside = _Balls(g.adj, x)
                sub = ref.subgraph(set_to_list(x))
                expected = [balls_of(nx.single_source_shortest_path_length(sub, a)) for a in sub]
                assert [inside[a] for a in sub] == expected, (g.adj, x)


def test_girth_gap_gadget_by_cycle_enumeration():
    # independent oracle: shortest cycle by brute-force enumeration
    from domlab.recognizers import _cycle_dfs

    g = gap_gadget(6).graph
    shortest = min(
        len(c)
        for start in range(g.n)
        for c in _cycle_dfs(g, start, 3, g.n, False)
    )
    assert shortest == 3
    assert girth(g) == 3


def test_girth_unicyclic_equals_cycle_length():
    rng = random.Random(5)
    for _ in range(30):
        clen = rng.randint(3, 9)
        n = clen + rng.randint(0, 6)
        edges = [(i, (i + 1) % clen) for i in range(clen)]
        for v in range(clen, n):
            edges.append((rng.randrange(v), v))
        assert girth(from_edge_list(n, edges)) == clen


def test_vertex_roles_p3():
    r = vertex_roles(path(3))
    assert set_to_list(r.cut_vertices) == [1]
    assert set_to_list(r.leaves) == [0, 2]
    assert set_to_list(r.simplicial) == [0, 2]


def test_vertex_roles_c5():
    r = vertex_roles(cycle(5))
    assert r.leaves == r.cut_vertices == r.simplicial == 0


def test_vertex_roles_star():
    r = vertex_roles(star(5))
    assert set_to_list(r.cut_vertices) == [0]
    assert set_to_list(r.leaves) == [1, 2, 3, 4]
    assert set_to_list(r.simplicial) == [1, 2, 3, 4]


def test_roles_invariants_random():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(3, 9)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.35
        ]
        g = from_edge_list(n, edges)
        r = vertex_roles(g)
        assert r.leaves & ~r.simplicial == 0  # every leaf is simplicial
        # cross-check cut vertices by deletion probes
        base = len(components(g))
        for v in range(n):
            rest = g.full_mask & ~(1 << v)
            sub, _ = induced_subgraph(g, rest)
            grew = len(components(sub)) > base - (
                1 if g.adj[v] == 0 else 0
            )
            assert grew == bool(r.cut_vertices >> v & 1)


def component_count(n, edges, gone=-1):
    """Components of the graph on ``n`` vertices without vertex ``gone``,
    by a plain DFS over adjacency lists."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {gone}
    count = 0
    for s in range(n):
        if s in seen:
            continue
        count += 1
        seen.add(s)
        todo = [s]
        while todo:
            for w in nbrs[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return count


def test_cut_vertices_and_bridges_by_deletion():
    graphs = list(exhaustive_connected(5))
    rng = random.Random(41)
    for _ in range(500):
        n, p = rng.randint(1, 14), rng.random()
        graphs.append(from_edge_list(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    assert any(not is_connected(g) for g in graphs)
    for g in graphs:
        edges = g.edges()
        base = component_count(g.n, edges)
        _, bridges, cut = blocks_and_bridges(g)
        # deleting a cut vertex leaves more components; an isolated vertex takes one away
        expected_cut = [v for v in range(g.n) if component_count(g.n, edges, v) > base - (g.adj[v] == 0)]
        assert set_to_list(cut) == expected_cut, g.adj
        expected_bridges = [e for e in edges if component_count(g.n, [f for f in edges if f != e]) > base]
        assert sorted(bridges) == expected_bridges, g.adj


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.data())
def test_mask_connected_matches_components(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = from_edge_list(n, chosen)
    x = data.draw(st.integers(0, g.full_mask))
    expected = x != 0 and len(components(induced_subgraph(g, x)[0])) == 1
    assert mask_connected(g.adj, x) == expected


def test_raw_distance_matrix_matches_list_bfs():
    rng = random.Random(5)
    for _ in range(300):
        n, p = rng.randint(1, 14), rng.random() * 0.6
        g = from_edge_list(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        nbrs = [[w for w in range(n) if g.has_edge(v, w)] for v in range(n)]
        for s in range(n):
            dist = [-1] * n
            dist[s] = 0
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for w in nbrs[v]:
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            assert list(raw_distance_matrix(g)[s]) == dist, g.adj


def test_blocks_bowtie(bowtie):
    blocks, bridges, cut = blocks_and_bridges(bowtie)
    assert len(blocks) == 2 and bridges == []
    assert set_to_list(cut) == [2]


def test_blocks_p4():
    blocks, bridges, _ = blocks_and_bridges(path(4))
    assert len(blocks) == 3 and len(bridges) == 3


def test_blocks_paw(paw):
    blocks, bridges, _ = blocks_and_bridges(paw)
    assert len(blocks) == 2 and len(bridges) == 1


def test_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    graphs = list(exhaustive_connected(5))
    rng = random.Random(43)
    for _ in range(500):
        n, p = rng.randint(1, 14), rng.random()
        graphs.append(from_edge_list(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    assert any(not is_connected(g) for g in graphs)
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        blocks, _, _ = blocks_and_bridges(g)
        assert sorted(blocks) == sorted(mask_of(c) for c in nx.biconnected_components(h)), g.adj
        # one block per edge, listed in the order of its first edge
        of_edge = [next(b for b in blocks if b >> u & 1 and b >> v & 1) for u, v in g.edges()]
        assert blocks == list(dict.fromkeys(of_edge)), g.adj


def test_every_edge_in_exactly_one_block():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 9)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.4
        ]
        g = from_edge_list(n, edges)
        blocks, _, _ = blocks_and_bridges(g)
        for u, v in g.edges():
            assert sum(1 for b in blocks if b >> u & 1 and b >> v & 1) == 1


def test_induced_subgraph():
    c6 = cycle(6)
    whole, _ = induced_subgraph(c6, c6.full_mask)
    assert whole == c6
    sub, old = induced_subgraph(c6, mask_of([0, 1, 2]))
    assert sub == path(3) and old == [0, 1, 2]
    two, _ = induced_subgraph(cycle(5), mask_of([0, 2]))
    assert two.m == 0 and two.n == 2


def test_remove_edge():
    assert remove_edge(cycle(4), 0, 3).m == 3
    k3 = complete(3)
    assert remove_edge(k3, 0, 1) == from_edge_list(3, [(1, 2), (2, 0)])
    with pytest.raises(NoSuchEdge):
        remove_edge(path(3), 0, 2)


def test_graph_edits_check_vertex_range():
    p4 = path(4)
    for edit, args in ((add_edge, (-1, 1)), (add_edge, (0, 9)), (remove_edge, (-1, 2)),
                       (remove_edge, (3, 4)), (induced_subgraph, (1 << 9,)),
                       (induced_subgraph, (-1,))):
        with pytest.raises(IndexOutOfRange, match=r"outside 0\.\.3"):
            edit(p4, *args)
    with pytest.raises(SelfLoop, match="self-loop at vertex 2"):
        add_edge(p4, 2, 2)


def test_remove_edge_immutability_and_readd():
    g = cycle(5)
    h = remove_edge(g, 0, 1)
    assert g.m == 5 and h.m == 4
    assert add_edge(h, 0, 1) == g


def test_remove_bridge_disconnects():
    h = remove_edge(path(3), 0, 1)
    assert not is_connected(h)
    assert len(components(h)) == 2


def test_is_connected_components():
    assert is_connected(from_edge_list(1, []))
    g = from_edge_list(2, [])
    assert not is_connected(g)
    assert components(g) == [1, 2]
    assert is_connected(gap_gadget(6).graph)


def test_connectivity_builds_no_distance_matrix(data_dir, cfg):
    raw_distance_matrix.cache_clear()
    assert sum(1 for _ in exhaustive_connected(5)) == 772
    assert raw_distance_matrix.cache_info().currsize == 0
    assert sum(1 for _ in read_graph6_file(str(data_dir / "connected_n7.g6"))) > 0
    assert raw_distance_matrix.cache_info().currsize == 0
    # solves and checks read the ball table; only the public accessors build the matrix
    gamma_pair.cache_clear()
    _connected_certificate.cache_clear()
    assert gamma_pair(gap_gadget(6).graph, cfg) == (10, 16)
    assert raw_distance_matrix.cache_info().currsize == 0
    gamma_pair.cache_clear()
    _connected_certificate.cache_clear()
    assert run_verification(sorted(THEOREMS), CorpusSpec.parse("exhaustive:4")).checks
    assert raw_distance_matrix.cache_info().currsize == 0


def test_edge_list_refuses_surplus_edge_lines():
    with pytest.raises(MalformedGraph6, match="expected 2 edges, found 3"):
        parse_edge_list("3 2\n0 1\n1 2\n0 2\n")
    with pytest.raises(MalformedGraph6, match="expected 2 edges, found 1"):
        parse_edge_list("3 2\n0 1\n")


def test_edge_list_text_roundtrip():
    g = cycle(5)
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    commented = "# a cycle\n" + text
    assert parse_edge_list(commented) == g


def test_dot_export():
    dot = to_dot(path(3))
    assert dot.startswith("graph") and "0 -- 1" in dot and "1 -- 2" in dot

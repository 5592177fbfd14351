"""Parametric generators for every drawn construction, plus standard and
random graph families used by the verification corpora.

Vertex numbering is fixed (cycle in construction order, then pendant
primes) so serialized output is reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .errors import ParameterOutOfRange, TierExceeded
from .graph import VERTEX_TIER, Graph, from_edge_list


@dataclass(frozen=True)
class GadgetDescriptor:
    name: str
    graph: Graph
    labels: dict[str, int] = field(default_factory=dict)
    special_edge: Optional[tuple[int, int]] = None
    predictions: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        from .graph import graph6_encode

        return {
            "name": self.name,
            "graph6": graph6_encode(self.graph),
            "n": self.graph.n,
            "m": self.graph.m,
            "labels": self.labels,
            "special_edge": list(self.special_edge) if self.special_edge else None,
            "predictions": self.predictions,
        }


# ---------------------------------------------------------------------------
# standard families


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterOutOfRange("path order must be >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterOutOfRange("cycle order must be >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterOutOfRange("complete-graph order must be >= 1")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    """Star on n vertices: centre 0 with n-1 pendants."""
    if n < 1:
        raise ParameterOutOfRange("star order must be >= 1")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def corona_k1(g: Graph) -> Graph:
    """One new pendant vertex attached to each vertex of ``g``."""
    edges = g.edges() + [(v, g.n + v) for v in range(g.n)]
    return from_edge_list(2 * g.n, edges)


# ---------------------------------------------------------------------------
# named constructions with predicted values


def _ladder(k: int, chord: bool) -> tuple[Graph, dict[str, int]]:
    """Cycle x1, v1..vk, x2, uk..u1 with rungs v_i u_i, pendants on x1, x2
    and every v_i, and, with ``chord``, the extra chord v1 u3.

    Vertices are numbered in cycle order, then the primes x1', v1'..vk', x2'.
    """
    if 3 * k + 4 > VERTEX_TIER:  # refused before a huge k builds its labels
        raise TierExceeded(f"vertex count {3 * k + 4} outside 1..{VERTEX_TIER}")
    vs = [f"v{i}" for i in range(1, k + 1)]
    cyc = ["x1", *vs, "x2", *(f"u{i}" for i in range(k, 0, -1))]
    labels = {name: i for i, name in enumerate(cyc + [f"{a}'" for a in ("x1", *vs, "x2")])}
    edges = [(j, (j + 1) % len(cyc)) for j in range(len(cyc))]
    edges += [(labels[a], labels[f"{a}'"]) for a in ("x1", "x2", *vs)]
    edges += [(labels[f"v{i}"], labels[f"u{i}"]) for i in range(1, k + 1)]
    if chord:
        edges.append((labels["v1"], labels["u3"]))
    return from_edge_list(len(labels), edges), labels


def gap_gadget(k: int) -> GadgetDescriptor:
    """Graph whose weakly convex number exceeds the connected number by k.

    Defined for k >= 6; n = 3k+10, m = 4k+13, values k+4 and 2k+4.
    """
    if k < 6:
        raise ParameterOutOfRange("gap gadget defined for k >= 6")
    g, labels = _ladder(k + 2, chord=True)
    assert g.n == 3 * k + 10 and g.m == 4 * k + 13
    return GadgetDescriptor(
        name=f"gap_gadget({k})",
        graph=g,
        labels=labels,
        predictions={"gamma_c": k + 4, "gamma_wcon": 2 * k + 4},
    )


def edge_gap_gadget(k: int) -> GadgetDescriptor:
    """Graph with a non-cut edge whose removal shifts the weakly convex
    number by exactly k (any integer)."""
    if k == 0:
        return GadgetDescriptor(
            name="edge_gap_gadget(0)",
            graph=cycle(3),
            labels={"x1": 0, "x2": 1},
            special_edge=(0, 1),
            predictions={"gamma_wcon": 1, "gamma_wcon_after_removal": 1},
        )
    if k > 0:
        g, labels = _ladder(k, chord=False)
        assert g.n == 3 * k + 4
        special, before, after = (labels["x1"], labels["v1"]), k + 2, 2 * k + 2
    else:
        kk = -k
        g, labels = _ladder(kk + 2, chord=True)
        special, before, after = (labels[f"u{kk + 2}"], labels["x2"]), 2 * kk + 4, kk + 4
    return GadgetDescriptor(
        name=f"edge_gap_gadget({k})",
        graph=g,
        labels=labels,
        special_edge=special,
        predictions={"gamma_wcon": before, "gamma_wcon_after_removal": after},
    )


def h_star() -> GadgetDescriptor:
    """The 9-vertex chordal obstruction: 5-cycle A-B-C-D-E with chords A-D
    and B-D, pendants on A, B, C and E."""
    labels = {
        "A": 0, "B": 1, "C": 2, "D": 3, "E": 4,
        "A'": 5, "B'": 6, "C'": 7, "E'": 8,
    }
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),  # cycle
        (0, 3), (1, 3),                            # chords into D
        (0, 5), (1, 6), (2, 7), (4, 8),            # pendants
    ]
    return GadgetDescriptor(
        name="h_star",
        graph=from_edge_list(9, edges),
        labels=labels,
        predictions={"gamma_c": 4, "gamma_wcon": 5},
    )


def h_prime_a() -> GadgetDescriptor:
    """The pendant-free core of the obstruction; labels x, y, a as drawn."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 3), (1, 3)]
    return GadgetDescriptor(
        name="h_prime_a",
        graph=from_edge_list(5, edges),
        labels={"x": 4, "y": 2, "a": 3},
    )


def fig_example_not_perfect() -> GadgetDescriptor:
    """12-vertex graph meeting both perfectness conditions yet not perfect.

    6-cycle a-b-c-d-e-f with chord b-d, vertex g adjacent to a and f,
    pendants on c, d, e, f and g.
    """
    labels = {
        "a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5, "g": 6,
        "c'": 7, "d'": 8, "e'": 9, "f'": 10, "g'": 11,
    }
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),  # 6-cycle
        (1, 3),                                            # chord b-d
        (0, 6), (5, 6),                                    # g to a and f
        (2, 7), (3, 8), (4, 9), (5, 10), (6, 11),          # pendants
    ]
    return GadgetDescriptor(
        name="fig_example_not_perfect",
        graph=from_edge_list(12, edges),
        labels=labels,
        predictions={"gamma_c": 5, "gamma_wcon": 7},
    )


# ---------------------------------------------------------------------------
# seeded random families


def random_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    if n < 1:
        raise ParameterOutOfRange("tree order must be >= 1")
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return from_edge_list(n, edges)


def random_unicyclic(n: int, seed: int) -> Graph:
    """Random tree plus one random non-edge closing a cycle."""
    if n < 3:
        raise ParameterOutOfRange("unicyclic order must be >= 3")
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    present = set(map(frozenset, edges))
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and frozenset((u, v)) not in present:
            edges.append((u, v))
            return from_edge_list(n, edges)


def random_cactus(n: int, cycle_bias: float, seed: int) -> Graph:
    """Connected cactus grown by attaching cycles or pendant edges."""
    if n < 1:
        raise ParameterOutOfRange("cactus order must be >= 1")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    size = 1
    while size < n:
        anchor = rng.randrange(size)
        room = n - size
        if room >= 2 and rng.random() < cycle_bias:
            clen = rng.randint(3, min(7, room + 1))
            ring = [anchor] + list(range(size, size + clen - 1))
            edges += [(ring[i], ring[i + 1]) for i in range(clen - 1)]
            edges.append((ring[-1], anchor))
            size += clen - 1
        else:
            edges.append((anchor, size))
            size += 1
    return from_edge_list(n, edges)


def random_long_cycle_tree(n: int, seed: int) -> Graph:
    """Tree hung on one cycle of length 7..10: girth >= 7 by construction."""
    if n < 7:
        raise ParameterOutOfRange("needs at least 7 vertices for a long cycle")
    rng = random.Random(seed)
    clen = rng.randint(7, min(10, n))
    edges = [(i, (i + 1) % clen) for i in range(clen)]
    for i in range(clen, n):
        edges.append((rng.randrange(i), i))
    return from_edge_list(n, edges)


def random_connected_graph(n: int, seed: int) -> Graph:
    """Random spanning tree plus a seeded sprinkle of up to 0.6 n extra edges."""
    if n < 1:
        raise ParameterOutOfRange("order must be >= 1")
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    present = set(map(frozenset, edges))
    extras = int(rng.uniform(0, 0.6) * n)
    for _ in range(extras):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
    return from_edge_list(n, edges)

"""Seeded workload inputs, made by the benchmark itself (stdlib only).

domlab receives only the graphs: edge lists here, turned into ``Graph``
objects by ``domlab.from_edge_list`` in the worker, or graph6 files passed
to ``domlab verify`` as ``file:`` corpora. The same seed always gives the
same inputs; ``random.Random`` seeded with a string is stable across runs
and Python versions.
"""

from __future__ import annotations

import random

from graphs import adjacency, graph6_encode, spanning_tree_count

# solve-hard: 2-connected random graphs (Hamiltonian cycle plus chords), so
# no vertex is forced. One order and many graphs: the search's node count
# varies by about half from graph to graph, so 500 graphs keep the total
# within about 3% across seeds. With 60 graphs at each of n = 11, 12, 13,
# the n = 13 graphs ruled the total and it moved 8%.
SOLVE_ORDER = 11
SOLVE_GRAPHS = 500
SOLVE_EDGE_RATIO = 1.45

# spectrum: 2-connected graphs whose spanning-tree count falls in a narrow
# band, so that every wcon_spectrum call does about the same work.
SPECTRUM_GRAPHS = 4
SPECTRUM_ORDER = 11
SPECTRUM_EDGES = 18
SPECTRUM_TREES = (5_000, 5_500)

# verify-corpus: the fixed corpora plus three seeded ones written as graph6.
# The seeded ones are kept smaller and sparser than the fixed ones, so the
# fixed corpora set peak RSS and the upper op latencies for every seed.
FIXED_CORPORA = ("exhaustive:5", "file:data/connected_n7.g6", "file:data/connected_n8.g6")
RANDOM_CORPORA = {"connected": 25, "cactus": 25, "girth7": 25}


def hamiltonian_graph(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def solve_hard_random(seed: int) -> list[tuple[str, int, list]]:
    rng = random.Random(f"solve-hard:{seed}")
    n, m = SOLVE_ORDER, round(SOLVE_EDGE_RATIO * SOLVE_ORDER)
    return [(f"random{n}#{i}", n, hamiltonian_graph(n, m, rng)) for i in range(SOLVE_GRAPHS)]


def spectrum_graphs(seed: int) -> list[tuple[str, int, list, int]]:
    """(name, n, edges, Kirchhoff tree count) for each spectrum input."""
    rng = random.Random(f"spectrum:{seed}")
    lo, hi = SPECTRUM_TREES
    out = []
    while len(out) < SPECTRUM_GRAPHS:
        n = SPECTRUM_ORDER
        edges = hamiltonian_graph(n, SPECTRUM_EDGES, rng)
        trees = spanning_tree_count(n, adjacency(n, edges))
        if lo <= trees <= hi:
            out.append((f"spectrum{n}#{len(out)}", n, edges, trees))
    return out


def _random_connected(rng: random.Random) -> tuple[int, list]:
    n = rng.randint(5, 8)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(0, n // 2)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def _random_cactus(rng: random.Random) -> tuple[int, list]:
    n = rng.randint(5, 10)
    edges = []
    size = 1
    while size < n:
        anchor = rng.randrange(size)
        room = n - size
        if room >= 2 and rng.random() < 0.6:
            ring = [anchor] + list(range(size, size + rng.randint(2, min(6, room))))
            edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
            size += len(ring) - 1
        else:
            edges.append((anchor, size))
            size += 1
    return n, edges


def _random_girth7(rng: random.Random) -> tuple[int, list]:
    n = rng.randint(7, 11)
    length = rng.randint(7, min(9, n))
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(rng.randrange(i), i) for i in range(length, n)]
    return n, edges


_FAMILIES = {"connected": _random_connected, "cactus": _random_cactus, "girth7": _random_girth7}


def random_corpus(family: str, seed: int) -> list[str]:
    """graph6 lines of one seeded corpus."""
    rng = random.Random(f"verify-corpus:{family}:{seed}")
    lines = []
    for _ in range(RANDOM_CORPORA[family]):
        n, edges = _FAMILIES[family](rng)
        lines.append(graph6_encode(n, adjacency(n, edges)))
    return lines

"""Immutable bitmask graphs and their metric / structural primitives.

Vertices are dense indices ``0..n-1`` and every vertex set is an ``int``
bit mask, so all hot loops are plain integer arithmetic.  Graphs are
hashable and never mutated after construction; derived quantities such
as the distance matrix are memoized per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import (
    Disconnected,
    EmptySet,
    IndexOutOfRange,
    MalformedGraph6,
    NoSuchEdge,
    SelfLoop,
    TierExceeded,
)

VERTEX_TIER = 64  # the largest vertex count a graph may have

GRAPH6_HEADER = ">>graph6<<"


class _Sentinel:
    """Named singleton used instead of numeric infinity."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __deepcopy__(self, memo):
        return self


#: Distance value for vertex pairs in different components.
UNREACHABLE = _Sentinel("UNREACHABLE")
#: Girth value for forests.
ACYCLIC = _Sentinel("ACYCLIC")

def bit(v: int) -> int:
    return 1 << v


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def set_to_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``adj[v]`` is the neighbour mask of ``v``."""

    n: int
    adj: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph; duplicate edges collapse, self-loops are errors."""
    if n < 1 or n > VERTEX_TIER:
        raise TierExceeded(f"vertex count {n} outside 1..{VERTEX_TIER}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 / edge-list / DOT serialization


def graph6_encode(g: Graph) -> str:
    """Encode ``g`` in the standard graph6 line format."""
    if g.n > 62:
        chunks = [63, (g.n >> 12) & 63, (g.n >> 6) & 63, g.n & 63]
    else:
        chunks = [g.n]
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i : i + 6]:
            word = word << 1 | b
        chunks.append(word)
    return "".join(chr(63 + c) for c in chunks)


def graph6_decode(text: str) -> Graph:
    """Decode one graph6 line (a ``>>graph6<<`` prefix is tolerated)."""
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER) :]
    if not line:
        raise MalformedGraph6("empty graph6 line")
    data = []
    for ch in line:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise MalformedGraph6(f"byte {ch!r} outside graph6 range")
        data.append(code)
    if data[0] == 63:
        if len(data) < 4:
            raise MalformedGraph6("truncated extended vertex count")
        n = data[1] << 12 | data[2] << 6 | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n < 1:
        raise MalformedGraph6("graph6 order must be at least 1")
    if n > VERTEX_TIER:
        raise TierExceeded(f"graph6 order {n} exceeds tier {VERTEX_TIER}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise MalformedGraph6(
            f"expected {(nbits + 5) // 6} edge bytes for n={n}, got {len(body)}"
        )
    adj = [0] * n
    idx = 0
    for v in range(1, n):
        for u in range(v):
            word = body[idx // 6]
            if word >> (5 - idx % 6) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            idx += 1
    return Graph(n, tuple(adj))


def _int_pair(line: str, what: str) -> tuple[int, int]:
    try:
        u, v = map(int, line.split())
    except ValueError:  # a non-integer token, or not exactly two
        raise MalformedGraph6(f"bad {what} {line!r}: want two integers") from None
    return u, v


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m`` header / ``u v`` lines format; '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise MalformedGraph6("empty edge-list input")
    n, m = _int_pair(lines[0], "edge-list header")
    edges = [_int_pair(line, "edge line") for line in lines[1 : m + 1]]
    if len(edges) != m:
        raise MalformedGraph6(f"expected {m} edges, found {len(edges)}")
    return from_edge_list(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """Layout-free DOT export for figures."""
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# distances, girth, connectivity


def _bfs_row(adj: tuple[int, ...], n: int, source: int) -> list[int]:
    # -1 marks unreachable; callers translate to the public sentinel.
    dist = [-1] * n
    seen = frontier = 1 << source
    d = 0
    while frontier:
        nxt = 0
        while frontier:  # each layer's vertices get their distance as they expand
            b = frontier & -frontier
            v = b.bit_length() - 1
            dist[v] = d
            nxt |= adj[v]
            frontier ^= b
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return dist


@lru_cache(maxsize=65536)
def raw_distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Distance matrix with ``-1`` for unreachable pairs (internal form)."""
    return tuple(tuple(_bfs_row(g.adj, g.n, v)) for v in range(g.n))


def distances_from(g: Graph, v: int) -> list:
    """Distances from ``v``; unreachable entries become the sentinel."""
    if not 0 <= v < g.n:
        raise IndexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")
    return [d if d >= 0 else UNREACHABLE for d in raw_distance_matrix(g)[v]]


def distance_matrix(g: Graph) -> list[list]:
    return [[d if d >= 0 else UNREACHABLE for d in row] for row in raw_distance_matrix(g)]


def diameter(g: Graph):
    """Maximum pairwise distance, or UNREACHABLE when disconnected."""
    best = 0
    for row in raw_distance_matrix(g):
        for d in row:
            if d < 0:
                return UNREACHABLE
            if d > best:
                best = d
    return best


def girth(g: Graph):
    """Length of the shortest cycle; ACYCLIC for forests.

    For each source's row of the distance matrix, the shortest cycle through
    edges seen from that source is found via a cross edge inside or between
    BFS layers (an edge that is not a BFS-tree edge).
    """
    best = None
    for dist in raw_distance_matrix(g):
        parent = [-1] * g.n
        for v, d in enumerate(dist):
            if d > 0:  # BFS parent: the lowest neighbour one layer closer
                parent[v] = next(u for u in iter_bits(g.adj[v]) if dist[u] == d - 1)
        for u in range(g.n):
            if dist[u] < 0:
                continue
            for v in iter_bits(g.adj[u] >> (u + 1) << (u + 1)):
                if dist[v] < 0 or parent[v] == u or parent[u] == v:
                    continue
                cyc = dist[u] + dist[v] + 1
                if best is None or cyc < best:
                    best = cyc
    return ACYCLIC if best is None else best


def is_connected(g: Graph) -> bool:
    return mask_connected(g.adj, g.full_mask)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def components(g: Graph) -> list[int]:
    """Connected components as vertex masks, lowest vertex first."""
    remaining = g.full_mask
    comps = []
    while remaining:
        start = remaining & -remaining
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= g.adj[v]
            nxt &= remaining & ~seen
            seen |= nxt
            frontier = nxt
        comps.append(seen)
        remaining &= ~seen
    return comps


def mask_connected(adj: tuple[int, ...], x: int) -> bool:
    """True iff the subgraph induced by mask ``x`` is connected (x nonempty)."""
    if x == 0:
        return False
    seen = frontier = x & -x
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & x & ~seen
        seen |= frontier
    return seen == x


# ---------------------------------------------------------------------------
# vertex roles and block decomposition


@dataclass(frozen=True)
class VertexRoles:
    leaves: int
    cut_vertices: int
    simplicial: int


def _is_simplicial(g: Graph, v: int) -> bool:
    nbrs = rest = g.adj[v]
    while rest:
        b = rest & -rest
        if nbrs & ~g.adj[b.bit_length() - 1] & ~b:
            return False
        rest ^= b
    return True


def blocks_and_bridges(g: Graph) -> tuple[list[int], list[tuple[int, int]], int]:
    """Biconnected decomposition.

    Returns (block vertex masks, bridge edges, articulation-vertex mask).
    Iterative Hopcroft–Tarjan collects the blocks; isolated vertices form
    no block. The bridges are the 2-vertex blocks, and the articulation
    vertices are the vertices in two or more blocks.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    pending = list(g.adj)  # the neighbours each vertex has not looked at yet
    blocks: list[int] = []
    stack: list[tuple[int, int]] = []  # edge stack
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        work = [root]
        disc[root] = low[root] = timer
        timer += 1
        while work:
            v = work[-1]
            rest = pending[v]
            while rest:
                b = rest & -rest
                rest ^= b
                w = b.bit_length() - 1
                if disc[w] == -1:
                    pending[v] = rest
                    stack.append((v, w))
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    work.append(w)
                    break
                if w != parent[v] and disc[w] < disc[v]:
                    stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:  # every neighbour of v is looked at: v is finished
                work.pop()
                if work:
                    u = work[-1]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        # u closes a block: the edges above and including (u, v)
                        mask = 0
                        while True:
                            a, b = stack.pop()
                            mask |= 1 << a | 1 << b
                            if a == u and b == v:
                                break
                        blocks.append(mask)
    bridges = [tuple(set_to_list(b)) for b in blocks if b.bit_count() == 2]
    seen = cut = 0
    for b in blocks:
        cut |= seen & b
        seen |= b
    return blocks, bridges, cut


@lru_cache(maxsize=16)
def vertex_roles(g: Graph) -> VertexRoles:
    """Leaves, cut vertices and simplicial vertices as masks. Cached for the
    few graphs in hand, since both solves of a ``gamma_pair`` read them."""
    leaves = mask_of(v for v in range(g.n) if g.adj[v].bit_count() == 1)
    simplicial = mask_of(v for v in range(g.n) if _is_simplicial(g, v))
    _, _, cut = blocks_and_bridges(g)
    return VertexRoles(leaves, cut, simplicial)


# ---------------------------------------------------------------------------
# subgraphs and edge edits


def induced_subgraph(g: Graph, x: int) -> tuple[Graph, list[int]]:
    """Subgraph induced by mask ``x`` plus the new→old index map."""
    if x == 0:
        raise EmptySet("induced subgraph of the empty set")
    old = set_to_list(x)
    pos = {v: i for i, v in enumerate(old)}
    adj = [0] * len(old)
    for i, v in enumerate(old):
        for w in iter_bits(g.adj[v] & x):
            adj[i] |= 1 << pos[w]
    return Graph(len(old), tuple(adj)), old


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise NoSuchEdge(f"no edge ({u},{v})")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph(g.n, tuple(adj))


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise Disconnected("operation requires a connected graph")

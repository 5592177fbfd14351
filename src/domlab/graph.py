"""Immutable bitmask graphs and their metric / structural primitives.

Vertices are dense indices ``0..n-1`` and every vertex set is an ``int``
bit mask, so all hot loops are plain integer arithmetic.  Graphs are
hashable and never mutated after construction; derived quantities such
as the distance balls are memoized per graph.
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


def graph6_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The graph lines of graph6 text, stripped, with their 1-based line
    numbers; blank lines and the ``>>graph6<<`` header are skipped."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and line != GRAPH6_HEADER:
            yield lineno, line


def _shown(text: str) -> str:
    """Input text for an error message. An undecodable input byte arrives as
    its surrogate escape; text holding one is shown as its bytes, 0xNN
    each, and any other text as its ``repr``."""
    if any("\udc80" <= ch <= "\udcff" for ch in text):
        return " ".join(f"0x{byte:02x}" for byte in text.encode("utf-8", "surrogateescape"))
    return repr(text)


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
            raise MalformedGraph6(f"byte {_shown(ch)} outside graph6 range")
        data.append(code)
    if data[0] == 63:
        if len(data) < 4:
            raise MalformedGraph6("truncated extended vertex count")
        n = data[1] << 12 | data[2] << 6 | data[3]
        if n < 63:  # the one-byte form is the only encoding of these orders
            raise MalformedGraph6(f"graph6 order {n} written in the four-byte form")
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
    if nbits % 6 and body[-1] & ((1 << (6 - nbits % 6)) - 1):
        raise MalformedGraph6("graph6 padding bits must be zero")
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
        raise MalformedGraph6(f"bad {what} {_shown(line)}: want two integers") from None
    return u, v


def parse_edge_list(text: str) -> Graph:
    """Parse the ``n m`` header and exactly ``m`` ``u v`` lines; '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise MalformedGraph6("empty edge-list input")
    n, m = _int_pair(lines[0], "edge-list header")
    edges = [_int_pair(line, "edge line") for line in lines[1:]]
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


class _Balls(dict):
    """``balls[a][d]``: the vertices within distance ``d`` of ``a`` inside
    ``G[x]``, for ``d`` from 0 up to the eccentricity of ``a`` there. A BFS
    inside ``x`` builds the balls of ``a`` the first time they are asked
    for, and stops at the first layer that adds nothing, so the last ball
    is the component of ``a`` in ``G[x]`` (all of ``x`` when connected)."""

    def __init__(self, adj: tuple[int, ...], x: int):
        self.adj, self.x = adj, x

    def __missing__(self, a: int) -> list[int]:
        adj, x = self.adj, self.x
        seen = frontier = 1 << a
        layers = [seen]
        while seen != x:
            reach = 0
            while frontier:
                b = frontier & -frontier
                reach |= adj[b.bit_length() - 1]
                frontier ^= b
            frontier = reach & x & ~seen
            if not frontier:
                break
            seen |= frontier
            layers.append(seen)
        self[a] = layers
        return layers


@lru_cache(maxsize=16)
def _distance_balls(g: Graph) -> _Balls:
    """The host balls: the one builder of host distances. Cached for the
    few graphs in hand, since ``is_weakly_convex`` is called set after set
    on one graph."""
    return _Balls(g.adj, g.full_mask)


def _weakly_convex(adj: tuple[int, ...], balls: _Balls, x: int) -> bool:
    """True iff ``G[x]`` keeps the host distance of every pair of ``x``.

    Induced distances never shrink, so a BFS inside ``x`` from ``a`` has
    reached only ``balls[a][d] & x`` after ``d`` steps; ``x`` keeps every
    distance from ``a`` iff each layer reaches all of it. The test stops at
    the first layer that falls short, and skips the last member, whose
    distances were checked from the others.
    """
    rest = x
    while rest & (rest - 1):
        a = rest & -rest
        rest ^= a
        ball = balls[a.bit_length() - 1]
        seen = frontier = a
        d = 0
        while seen != x:
            d += 1
            reach = 0
            while frontier:
                b = frontier & -frontier
                reach |= adj[b.bit_length() - 1]
                frontier ^= b
            frontier = reach & x & ~seen
            seen |= frontier
            if seen != ball[d] & x:
                return False
    return True


@lru_cache(maxsize=16)
def raw_distance_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Distance matrix with ``-1`` for unreachable pairs (internal form).

    Read off the ball table: the vertices of ``balls[v][d]`` outside
    ``balls[v][d - 1]`` are at distance ``d`` from ``v``.
    """
    balls = _distance_balls(g)
    rows = []
    for v in range(g.n):
        row = [-1] * g.n
        inner = 0
        for d, ball in enumerate(balls[v]):
            for u in iter_bits(ball & ~inner):
                row[u] = d
            inner = ball
        rows.append(tuple(row))
    return tuple(rows)


def distances_from(g: Graph, v: int) -> list:
    """Distances from ``v``; unreachable entries become the sentinel."""
    if not 0 <= v < g.n:
        raise IndexOutOfRange(f"vertex {v} outside 0..{g.n - 1}")
    return [d if d >= 0 else UNREACHABLE for d in raw_distance_matrix(g)[v]]


def distance_matrix(g: Graph) -> list[list]:
    return [[d if d >= 0 else UNREACHABLE for d in row] for row in raw_distance_matrix(g)]


def diameter(g: Graph):
    """Maximum pairwise distance, or UNREACHABLE when disconnected."""
    balls = _distance_balls(g)
    if balls[0][-1] != g.full_mask:
        return UNREACHABLE
    return max(len(balls[v]) for v in range(g.n)) - 1


def girth(g: Graph):
    """Length of the shortest cycle; ACYCLIC for forests.

    From a source, an edge inside ring ``d`` (the vertices at distance
    ``d``) closes a cycle of length at most 2d + 1, and a vertex of ring
    d + 1 with two neighbours in ring ``d`` closes one of at most 2d + 2.
    Seen from any of its vertices, a shortest cycle closes in exactly this
    way, so the least value over all sources is the girth.
    """
    adj = g.adj
    balls = _distance_balls(g)
    best = None
    for s in range(g.n):
        inner = prev = 0  # the ball and the ring one step closer to s
        for d, ball in enumerate(balls[s]):
            if best is not None and 2 * d >= best:
                break  # ring d closes no cycle shorter than 2d
            ring = ball & ~inner
            for v in iter_bits(ring):
                up = adj[v] & prev
                if up & (up - 1):
                    best = 2 * d
                    break
                if adj[v] & ring:
                    best = 2 * d + 1
            inner, prev = ball, ring
    return ACYCLIC if best is None else best


def is_connected(g: Graph) -> bool:
    return mask_connected(g.adj, g.full_mask)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def components(g: Graph) -> list[int]:
    """Connected components as vertex masks, lowest vertex first: each is
    the last ball of its lowest vertex."""
    balls = _distance_balls(g)
    remaining = g.full_mask
    comps = []
    while remaining:
        comp = balls[(remaining & -remaining).bit_length() - 1][-1]
        comps.append(comp)
        remaining &= ~comp
    return comps


def _reach(adj: tuple[int, ...], x: int, a: int, goal: int) -> int:
    """The vertices a BFS inside ``G[x]`` from the mask ``a`` has reached
    when it stops: once it has reached all of ``goal``, or else at the end
    of the component(s) of ``a``."""
    seen = frontier = a
    while frontier and goal & ~seen:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & x & ~seen
        seen |= frontier
    return seen


def mask_connected(adj: tuple[int, ...], x: int) -> bool:
    """True iff the subgraph induced by mask ``x`` is connected (x nonempty)."""
    return x != 0 and _reach(adj, x, x & -x, x) == x


def cut_vertices(adj: tuple[int, ...], x: int) -> int:
    """The cut vertices of ``G[x]``: each ``v`` with two or more neighbours
    in ``x`` of which a BFS in ``G[x - v]`` from one misses another."""
    cut = 0
    for v in iter_bits(x):
        nbrs = adj[v] & x
        if nbrs & (nbrs - 1) and _reach(adj, x ^ 1 << v, nbrs & -nbrs, nbrs) & nbrs != nbrs:
            cut |= 1 << v
    return cut


# ---------------------------------------------------------------------------
# vertex roles and block decomposition


@dataclass(frozen=True)
class VertexRoles:
    leaves: int
    cut_vertices: int
    simplicial: int


def _is_simplicial(adj: tuple[int, ...], v: int, x: int) -> bool:
    """True iff the neighbours of ``v`` in ``G[x]`` are pairwise adjacent."""
    nbrs = rest = adj[v] & x
    while rest:
        b = rest & -rest
        if nbrs & ~adj[b.bit_length() - 1] & ~b:
            return False
        rest ^= b
    return True


def blocks_and_bridges(g: Graph) -> tuple[list[int], list[tuple[int, int]], int]:
    """Biconnected decomposition.

    Returns (block vertex masks, bridge edges, articulation-vertex mask).
    Two vertices share a block iff they are adjacent or no single vertex
    separates them, and only a cut vertex separates two vertices. So
    ``same[u]`` starts as the component of ``u`` and keeps, for each cut
    vertex ``c``, only ``c`` and the part of ``G - c`` that holds ``u``.
    Then the block of an edge uv is ``same[u] & same[v]``. Blocks come in
    the order of their first edge in ``g.edges()``; isolated vertices form
    no block, and the bridges are the 2-vertex blocks.
    """
    adj, full = g.adj, g.full_mask
    cut = cut_vertices(adj, full)
    same = [0] * g.n
    for u in range(g.n):
        if not same[u]:
            comp = _reach(adj, full, 1 << u, full)
            for w in iter_bits(comp):
                same[w] = comp
    for c in iter_bits(cut):
        cb = 1 << c
        nbrs = adj[c]
        while nbrs:
            part = _reach(adj, full ^ cb, nbrs & -nbrs, full)
            nbrs &= ~part
            for w in iter_bits(part):
                same[w] &= part | cb
    blocks = list(dict.fromkeys(same[u] & same[v] for u, v in g.edges()))
    bridges = [tuple(set_to_list(b)) for b in blocks if b.bit_count() == 2]
    return blocks, bridges, cut


@lru_cache(maxsize=16)
def vertex_roles(g: Graph) -> VertexRoles:
    """Leaves, cut vertices and simplicial vertices as masks. Cached for the
    few graphs in hand, since both solves of a ``gamma_pair`` read them."""
    leaves = mask_of(v for v in range(g.n) if g.adj[v].bit_count() == 1)
    simplicial = mask_of(v for v in range(g.n) if _is_simplicial(g.adj, v, g.full_mask))
    return VertexRoles(leaves, cut_vertices(g.adj, g.full_mask), simplicial)


# ---------------------------------------------------------------------------
# subgraphs and edge edits


def induced_subgraph(g: Graph, x: int) -> tuple[Graph, list[int]]:
    """Subgraph induced by mask ``x`` plus the new→old index map."""
    if x == 0:
        raise EmptySet("induced subgraph of the empty set")
    if x & ~g.full_mask:
        raise IndexOutOfRange(f"mask {x:#x} holds vertices outside 0..{g.n - 1}")
    old = set_to_list(x)
    pos = {v: i for i, v in enumerate(old)}
    adj = [0] * len(old)
    for i, v in enumerate(old):
        for w in iter_bits(g.adj[v] & x):
            adj[i] |= 1 << pos[w]
    return Graph(len(old), tuple(adj)), old


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexOutOfRange(f"edge ({u},{v}) outside 0..{g.n - 1}")
    if not g.has_edge(u, v):
        raise NoSuchEdge(f"no edge ({u},{v})")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph(g.n, tuple(adj))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    return from_edge_list(g.n, [*g.edges(), (u, v)])


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise Disconnected("operation requires a connected graph")

"""Graph-class recognition and the equality characterizations.

Covers cacti, block graphs, cographs, distance-hereditary and chordal
graphs, the 9-vertex chordal obstruction check, girth-at-least-7
structure, and the two-number perfectness predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GirthTooSmall, NotACactus, TierExceeded
from .gadgets import h_star
from .graph import (
    ACYCLIC,
    Graph,
    _Balls,
    _is_simplicial,
    _weakly_convex,
    blocks_and_bridges,
    bit,
    cut_vertices,
    girth,
    induced_subgraph,
    is_complete,
    is_connected,
    iter_bits,
    mask_connected,
    mask_of,
    raw_distance_matrix,
    require_connected,
    vertex_roles,
)

PERFECTNESS_TIER = 12
DH_ORACLE_TIER = 9
CYCLE_ENUM_CAP = 10**6


@dataclass(frozen=True)
class ClassReport:
    is_tree: bool
    is_path: bool
    is_cycle: bool
    is_complete: bool
    is_cactus: bool
    is_block_graph: bool
    is_cograph: bool
    is_distance_hereditary: bool
    is_chordal: bool
    is_h_star_free: bool
    girth: object

    def to_json_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "girth"}
        out["girth"] = self.girth if isinstance(self.girth, int) else repr(self.girth)
        return out


# ---------------------------------------------------------------------------
# basic shape predicates


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.m == g.n - 1


def is_path(g: Graph) -> bool:
    if not is_tree(g):
        return False
    if g.n <= 2:
        return True
    degs = [g.degree(v) for v in range(g.n)]
    return degs.count(1) == 2 and degs.count(2) == g.n - 2


def is_cycle_graph(g: Graph) -> bool:
    return (
        g.n >= 3
        and is_connected(g)
        and g.m == g.n
        and all(g.degree(v) == 2 for v in range(g.n))
    )


def _edges_inside(g: Graph, mask: int) -> int:
    return sum((g.adj[v] & mask).bit_count() for v in iter_bits(mask)) // 2


# ---------------------------------------------------------------------------
# class recognizers


def _cactus_blocks(g: Graph) -> Optional[list[int]]:
    """The blocks of ``g`` if every block is a single edge or an induced
    cycle, else None."""
    require_connected(g)
    blocks, _, _ = blocks_and_bridges(g)
    for b in blocks:
        k = b.bit_count()
        edges = _edges_inside(g, b)
        if not (k == 2 and edges == 1) and edges != k:
            return None
    return blocks


def is_cactus(g: Graph) -> bool:
    """Every block is a single edge or an induced cycle."""
    return _cactus_blocks(g) is not None


def is_block_graph(g: Graph) -> bool:
    """Every block induces a clique."""
    require_connected(g)
    blocks, _, _ = blocks_and_bridges(g)
    return all(_edges_inside(g, b) == b.bit_count() * (b.bit_count() - 1) // 2 for b in blocks)


def _reducible(g: Graph, pendants: bool) -> bool:
    """Whether deleting twins (the same open or closed neighbourhood), and
    with ``pendants`` also vertices of degree one, shrinks ``g`` to one vertex.

    Twins alone decide cographs (Corneil, Lerchs & Stewart Burlingham 1981),
    twins and pendants connected distance-hereditary graphs (Bandelt & Mulder
    1986). The order of deletions does not matter: both classes are
    hereditary and closed under adding a twin (or, for distance-hereditary
    graphs, a pendant), so when v is a twin or a pendant, G is in its class
    iff G - v is; deleting one also keeps G connected. Each scan deletes the
    first alive vertex that is a twin of one scanned before it or, with
    ``pendants``, has exactly one alive neighbour.
    """
    adj = list(g.adj)
    alive = list(range(g.n))
    while len(alive) > 1:
        opened, closed = set(), set()
        for v in alive:
            a = adj[v]
            if a in opened or a | 1 << v in closed or pendants and a.bit_count() == 1:
                break
            opened.add(a)
            closed.add(a | 1 << v)
        else:
            return False
        alive.remove(v)
        for u in iter_bits(adj[v]):
            adj[u] &= ~(1 << v)
    return True


def is_cograph(g: Graph) -> bool:
    """No induced path on four vertices; ``g`` may be disconnected."""
    return _reducible(g, False)


def is_distance_hereditary(g: Graph) -> bool:
    """Every connected induced subgraph of the connected ``g`` is isometric."""
    require_connected(g)
    return _reducible(g, True)


def distance_hereditary_oracle(g: Graph) -> bool:
    """Definitional check: every connected induced subgraph is isometric."""
    if g.n > DH_ORACLE_TIER:
        raise TierExceeded(f"definitional oracle tier is {DH_ORACLE_TIER}")
    require_connected(g)
    dist = raw_distance_matrix(g)
    for x in range(1, g.full_mask + 1):
        if x.bit_count() < 2 or not mask_connected(g.adj, x):
            continue
        sub, old = induced_subgraph(g, x)
        sub_dist = raw_distance_matrix(sub)
        for i in range(sub.n):
            for j in range(i + 1, sub.n):
                if sub_dist[i][j] != dist[old[i]][old[j]]:
                    return False
    return True


def is_chordal(g: Graph) -> bool:
    """Simplicial elimination (Dirac 1961): every chordal graph has a
    simplicial vertex and every induced subgraph of one is chordal, while a
    vertex of a chordless cycle is never simplicial. So ``g`` is chordal iff
    deleting simplicial vertices, lowest first, empties it."""
    x = g.full_mask
    while x:
        left = x
        for v in iter_bits(left):
            if _is_simplicial(g.adj, v, x):
                x ^= 1 << v
        if x == left:
            return False
    return True


# ---------------------------------------------------------------------------
# induced-subgraph search


def contains_induced(g: Graph, h: Graph) -> Optional[dict[int, int]]:
    """First injective map h -> g preserving adjacency and non-adjacency."""
    if h.n > g.n:
        return None
    # map high-degree pattern vertices first
    h_order = sorted(range(h.n), key=lambda v: -h.degree(v))
    g_degs = [g.degree(v) for v in range(g.n)]
    assign: dict[int, int] = {}
    used = 0

    def backtrack(i: int) -> bool:
        nonlocal used
        if i == len(h_order):
            return True
        hv = h_order[i]
        for gv in range(g.n):
            if used >> gv & 1 or g_degs[gv] < h.degree(hv):
                continue
            ok = True
            for hu, gu in assign.items():
                if h.has_edge(hv, hu) != g.has_edge(gv, gu):
                    ok = False
                    break
            if ok:
                assign[hv] = gv
                used |= bit(gv)
                if backtrack(i + 1):
                    return True
                del assign[hv]
                used &= ~bit(gv)
        return False

    if backtrack(0):
        # re-verify the embedding before returning it
        for a in range(h.n):
            for b in range(a + 1, h.n):
                assert h.has_edge(a, b) == g.has_edge(assign[a], assign[b])
        return dict(assign)
    return None


def is_h_star_free(g: Graph) -> bool:
    return contains_induced(g, h_star().graph) is None


# ---------------------------------------------------------------------------
# cycle enumeration


def _cycle_dfs(g: Graph, start: int, min_len: int, max_len: int, induced: bool):
    """Simple cycles through ``start`` with all other vertices > start,
    one per rotation/reflection class (second vertex < last vertex).

    Depth-first over paths from ``start``; ``todo[i]`` holds the neighbours
    of ``path[i]`` not tried yet, lowest first. A path is tested for closing
    as soon as its end is pushed, before the end's own extensions. With
    ``induced``, only induced cycles are found: a pushed end with a chord to
    the path is not extended, nor is an end that closes a cycle.
    """
    adj = g.adj
    home = 1 << start
    above = ~((home << 1) - 1)  # the vertices > start
    shortest = max(3, min_len)
    path = [start]
    todo = [adj[start] & above]
    on_path = home
    results = []
    while todo:
        rest = todo[-1]
        if not rest:
            todo.pop()
            on_path ^= 1 << path.pop()
            continue
        b = rest & -rest
        todo[-1] = rest ^ b
        w = b.bit_length() - 1
        chord = induced and adj[w] & on_path & ~(home | 1 << path[-1])
        path.append(w)
        on_path |= b
        depth = len(path)
        closes = depth > 2 and adj[w] & home
        if closes and not chord and depth >= shortest and path[1] < w:
            results.append(tuple(path))
            if len(results) > CYCLE_ENUM_CAP:
                raise TierExceeded("cycle enumeration cap exceeded")
        stop = depth >= max_len or chord or induced and closes
        todo.append(0 if stop else adj[w] & above & ~on_path)
    return results


def enumerate_cycles(g: Graph, lengths=(5, 6)) -> list[tuple[int, ...]]:
    """All simple cycles of the requested lengths, up to rotation/reflection."""
    lo, hi = min(lengths), max(lengths)
    return [
        cyc for start in range(g.n - lo + 1) for cyc in _cycle_dfs(g, start, lo, hi, False) if len(cyc) in lengths
    ]


def has_induced_cycle_at_least(g: Graph, length: int) -> Optional[tuple[int, ...]]:
    """Earliest induced cycle with at least ``length`` vertices, if any."""
    if length < 3:
        raise GirthTooSmall("cycle length bound must be at least 3")
    for start in range(g.n - length + 1):  # a cycle's smallest vertex has length - 1 above it
        cycles = _cycle_dfs(g, start, length, g.n, True)
        if cycles:
            return cycles[0]
    return None


# ---------------------------------------------------------------------------
# characterizations


def cactus_equality_characterization(g: Graph) -> tuple[bool, list]:
    """Degree-pattern test predicting gamma_c == gamma_wcon on a cactus.

    Every 5- or 6-cycle must have all vertices of degree >= 3 or two
    adjacent degree-2 vertices; every cycle of length >= 7 must have all
    vertices of degree >= 3. The cycles are the blocks with at least three
    vertices, each an induced cycle, so two of its vertices are adjacent
    exactly when they are consecutive on it. A violation is the vertex
    tuple of its block, in increasing order.
    """
    blocks = _cactus_blocks(g)
    if blocks is None:
        raise NotACactus("characterization applies to cacti only")
    violations = []
    for b in blocks:
        p = b.bit_count()
        deg2 = mask_of(v for v in iter_bits(b) if g.degree(v) == 2)
        if p >= 5 and deg2 and (p >= 7 or not any(g.adj[v] & deg2 for v in iter_bits(deg2))):
            violations.append(tuple(iter_bits(b)))
    return not violations, violations


def girth7_analysis(g: Graph) -> dict:
    """Structure of graphs whose every cycle has length >= 7 (forests count).

    Returns the leafless-count formula value n - n_L and whether equality
    of the two domination numbers is predicted (every vertex a leaf or a
    cut vertex).
    """
    gth = girth(g)
    if gth is not ACYCLIC and gth < 7:
        raise GirthTooSmall(f"girth {gth} < 7")
    roles = vertex_roles(g)
    n_l = roles.leaves.bit_count()
    every = (roles.leaves | roles.cut_vertices) == g.full_mask
    if g.n <= 2:
        # degenerate orders: both numbers are 1
        return {"gamma_wcon_formula": 1, "equality_predicted": True}
    return {"gamma_wcon_formula": g.n - n_l, "equality_predicted": every}


def lemma_perfect_conditions(g: Graph) -> tuple[bool, list]:
    """Necessary conditions for two-number perfectness.

    No induced cycle longer than six, and every (not necessarily induced)
    5/6-cycle C, with H the subgraph induced by N[V(C)], satisfies one of:
    (1) two consecutive vertices of C are not cut vertices of H;
    (2) every cut vertex v of H on C has its C-neighbours adjacent or
        sharing a common neighbour on C other than v.
    """
    require_connected(g)
    violations = []
    long_cycle = has_induced_cycle_at_least(g, 7)
    if long_cycle is not None:
        violations.append(("induced-long-cycle", long_cycle))
    cut_of_hood: dict[int, int] = {}  # N[V(C)] -> cut vertices of H, per call
    for cyc in enumerate_cycles(g, (5, 6)):
        p = len(cyc)
        on_c = hood = mask_of(cyc)
        for v in cyc:
            hood |= g.adj[v]
        cut_h = cut_of_hood.get(hood)
        if cut_h is None:
            cut_h = cut_of_hood[hood] = cut_vertices(g.adj, hood)
        if any(
            not cut_h >> cyc[i] & 1 and not cut_h >> cyc[(i + 1) % p] & 1
            for i in range(p)
        ):
            continue  # condition (1)
        cond2 = True
        for i, v in enumerate(cyc):
            if not cut_h >> v & 1:
                continue
            a, b = cyc[i - 1], cyc[(i + 1) % p]
            if g.has_edge(a, b):
                continue
            if not g.adj[a] & g.adj[b] & ~bit(v) & on_c:
                cond2 = False
                break
        if not cond2:
            violations.append(("cycle-conditions", cyc))
    return not violations, violations


def is_gc_gwcon_perfect(g: Graph) -> tuple[bool, Optional[int]]:
    """Whether every connected induced subgraph has equal domination numbers,
    decided up to ``PERFECTNESS_TIER`` vertices by one exhaustive pass over
    the host's vertex masks, with no solver call and no node budget. The
    witness is the numerically smallest connected mask ``X`` with
    gamma_c(G[X]) != gamma_wcon(G[X]).

    The pass takes the connected masks ``D``, smallest first. Every ``X``
    with ``D <= X <= N[D]`` is connected and has ``D`` as a connected
    dominating set, so the first ``D`` to reach ``X`` gives gamma_c(G[X]).
    gamma_wcon(G[X]) is equal iff some ``D`` of that size is also weakly
    convex in ``G[X]``. That holds for every ``D`` of at most three vertices:
    its induced distances are at most 2, and two members at distance 2 in
    ``G[D]`` are not adjacent, so they are at distance 2 in ``G[X]`` too.
    The work is at most the sum over ``D`` of ``2^|N(D) - D|``, below 3^n.
    """
    if g.n > PERFECTNESS_TIER:
        raise TierExceeded(f"perfectness tier is {PERFECTNESS_TIER}")
    adj = g.adj
    n = g.n
    size = 1 << n
    closed = [a | 1 << v for v, a in enumerate(adj)]
    hood = [0] * size  # hood[d]: N[d]
    for d in range(1, size):
        low = d & -d
        hood[d] = hood[d ^ low] | closed[low.bit_length() - 1]
    gamma_c = bytearray(size)  # 0 until X is reached, which happens iff X is connected
    equal = bytearray(size)  # 1 once a minimum connected dominating set of G[X] is weakly convex
    # layers[k]: the connected k-sets. Each X with k >= 2 is filed when first
    # reached, before layer k is walked: X minus a leaf of a spanning tree of
    # G[X] is a connected (k-1)-set that reaches it.
    layers = [[] for _ in range(n + 1)]
    layers[1] = [1 << v for v in range(n)]
    for k in range(1, n + 1):
        balls: dict[int, _Balls] = {}  # an X of gamma_c k is tested only in layer k
        for d in layers[k]:
            ext = hood[d] & ~d
            sub = ext
            while True:
                x = d | sub
                if not gamma_c[x]:
                    gamma_c[x] = k
                    if sub:
                        layers[x.bit_count()].append(x)
                    if k <= 3:
                        equal[x] = 1
                if gamma_c[x] == k and not equal[x]:
                    inside = balls.get(x)
                    if inside is None:
                        inside = balls[x] = _Balls(adj, x)
                    equal[x] = _weakly_convex(adj, inside, d)
                if not sub:
                    break
                sub = (sub - 1) & ext
    for x in range(1, size):
        if gamma_c[x] and not equal[x]:
            return False, x
    return True, None


def classify(g: Graph) -> ClassReport:
    """All class flags for a connected graph."""
    require_connected(g)
    return ClassReport(
        is_tree=is_tree(g),
        is_path=is_path(g),
        is_cycle=is_cycle_graph(g),
        is_complete=is_complete(g),
        is_cactus=is_cactus(g),
        is_block_graph=is_block_graph(g),
        is_cograph=is_cograph(g),
        is_distance_hereditary=is_distance_hereditary(g),
        is_chordal=is_chordal(g),
        is_h_star_free=is_h_star_free(g),
        girth=girth(g),
    )

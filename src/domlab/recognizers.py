"""Graph-class recognition and the equality characterizations.

Covers cacti, block graphs, cographs, distance-hereditary and chordal
graphs, the 9-vertex chordal obstruction check, girth-at-least-7
structure, and the two-number perfectness predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .errors import GirthTooSmall, NotACactus, TierExceeded
from .domination import SolverConfig, gamma_pair
from .graph import (
    ACYCLIC,
    Graph,
    blocks_and_bridges,
    bit,
    girth,
    induced_subgraph,
    is_complete,
    is_connected,
    iter_bits,
    mask_connected,
    mask_of,
    raw_distance_matrix,
    require_connected,
    set_to_list,
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


@dataclass(frozen=True)
class CycleWitness:
    vertices: tuple[int, ...]
    induced: bool


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


def is_cactus(g: Graph) -> bool:
    """Every block is a single edge or an induced cycle."""
    require_connected(g)
    blocks, _, _ = blocks_and_bridges(g)
    for b in blocks:
        k = b.bit_count()
        edges = _edges_inside(g, b)
        if not (k == 2 and edges == 1) and edges != k:
            return False
    return True


def is_block_graph(g: Graph) -> bool:
    """Every block induces a clique."""
    require_connected(g)
    blocks, _, _ = blocks_and_bridges(g)
    return all(_edges_inside(g, b) == b.bit_count() * (b.bit_count() - 1) // 2 for b in blocks)


def _induced_is_p4(g: Graph, quad: tuple[int, ...]) -> bool:
    m = mask_of(quad)
    degs = sorted((g.adj[v] & m).bit_count() for v in quad)
    return degs == [1, 1, 2, 2] and mask_connected(g.adj, m)


def is_cograph(g: Graph) -> bool:
    """No induced path on four vertices."""
    return not any(_induced_is_p4(g, q) for q in combinations(range(g.n), 4))


def is_distance_hereditary(g: Graph) -> bool:
    """Elimination recognition: strip pendants and twins down to one vertex.

    At every step the smallest-index false twin is tried first, then true
    twins, then pendants.
    """
    require_connected(g)
    alive = g.full_mask
    adj = list(g.adj)

    def find_removal() -> int:
        members = set_to_list(alive)
        for i, v in enumerate(members):
            for u in members[i + 1 :]:
                if adj[v] == adj[u]:  # false twins (nonadjacent, same nbrs)
                    return u
        for i, v in enumerate(members):
            for u in members[i + 1 :]:
                if adj[v] | bit(v) == adj[u] | bit(u):  # true twins
                    return u
        for v in members:
            if adj[v].bit_count() == 1:
                return v
        return -1

    while alive.bit_count() > 1:
        v = find_removal()
        if v < 0:
            return False
        alive &= ~bit(v)
        for u in set_to_list(alive):
            adj[u] &= ~bit(v)
        adj[v] = 0
    return True


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
    """Maximum cardinality search order checked as a perfect elimination order."""
    n = g.n
    weight = [0] * n
    order = []
    placed = 0
    for _ in range(n):
        v = max((w, -v, v) for v, w in enumerate(weight) if not placed >> v & 1)[2]
        order.append(v)
        placed |= bit(v)
        for u in iter_bits(g.adj[v] & ~placed):
            weight[u] += 1
    order.reverse()  # elimination order
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = mask_of(u for u in iter_bits(g.adj[v]) if pos[u] > i)
        if later == 0:
            continue
        w = min(iter_bits(later), key=lambda u: pos[u])
        if later & ~bit(w) & ~g.adj[w]:
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
    from .gadgets import h_star

    return contains_induced(g, h_star().graph) is None


# ---------------------------------------------------------------------------
# cycle enumeration


def _cycle_dfs(g: Graph, start: int, min_len: int, max_len: int):
    """Simple cycles through ``start`` with all other vertices > start,
    one per rotation/reflection class (second vertex < last vertex)."""
    path = [start]
    results = []

    def rec(on_path: int):
        v = path[-1]
        for w in iter_bits(g.adj[v]):
            if w == start and len(path) >= 3:
                if len(path) >= min_len and path[1] < path[-1]:
                    results.append(tuple(path))
                    if len(results) > CYCLE_ENUM_CAP:
                        raise TierExceeded("cycle enumeration cap exceeded")
                continue
            if w <= start or on_path >> w & 1 or len(path) >= max_len:
                continue
            path.append(w)
            rec(on_path | bit(w))
            path.pop()

    rec(bit(start))
    return results


def _cycle_is_induced(g: Graph, cyc: tuple[int, ...]) -> bool:
    m = mask_of(cyc)
    return _edges_inside(g, m) == len(cyc)


def enumerate_cycles(g: Graph, lengths=(5, 6)) -> list[CycleWitness]:
    """All simple cycles of the requested lengths, up to rotation/reflection."""
    lo, hi = min(lengths), max(lengths)
    out = []
    for start in range(g.n):
        for cyc in _cycle_dfs(g, start, lo, hi):
            if len(cyc) in lengths:
                out.append(CycleWitness(cyc, _cycle_is_induced(g, cyc)))
    return out


def has_induced_cycle_at_least(g: Graph, length: int) -> Optional[CycleWitness]:
    """Earliest induced cycle with at least ``length`` vertices, if any."""
    if length < 3:
        raise GirthTooSmall("cycle length bound must be at least 3")
    for start in range(g.n):
        for cyc in _cycle_dfs(g, start, length, g.n):
            if _cycle_is_induced(g, cyc):
                return CycleWitness(cyc, True)
    return None


# ---------------------------------------------------------------------------
# characterizations


def _cactus_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Cycle vertex orders of a cactus: blocks with >= 3 vertices."""
    blocks, _, _ = blocks_and_bridges(g)
    cycles = []
    for b in blocks:
        if b.bit_count() < 3:
            continue
        # walk the cycle: each vertex has exactly two neighbours inside b
        start = (b & -b).bit_length() - 1
        order = [start]
        prev = -1
        cur = start
        while True:
            nxts = [w for w in iter_bits(g.adj[cur] & b) if w != prev]
            nxt = min(nxts) if len(order) == 1 else nxts[0]
            if nxt == start:
                break
            order.append(nxt)
            prev, cur = cur, nxt
        cycles.append(tuple(order))
    return cycles


def cactus_equality_characterization(g: Graph) -> tuple[bool, list]:
    """Degree-pattern test predicting gamma_c == gamma_wcon on a cactus.

    Every 5- or 6-cycle must have all vertices of degree >= 3 or two
    adjacent degree-2 vertices; every cycle of length >= 7 must have all
    vertices of degree >= 3.
    """
    if not is_cactus(g):
        raise NotACactus("characterization applies to cacti only")
    violations = []
    for cyc in _cactus_cycles(g):
        p = len(cyc)
        degs = [g.degree(v) for v in cyc]
        if p in (5, 6):
            if min(degs) >= 3:
                continue
            if any(degs[i] == 2 and degs[(i + 1) % p] == 2 for i in range(p)):
                continue
            violations.append(cyc)
        elif p >= 7:
            if min(degs) < 3:
                violations.append(cyc)
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
        violations.append(("induced-long-cycle", long_cycle.vertices))
    for wit in enumerate_cycles(g, (5, 6)):
        cyc = wit.vertices
        p = len(cyc)
        hood = 0
        for v in cyc:
            hood |= bit(v) | g.adj[v]
        sub, old = induced_subgraph(g, hood)
        _, _, cut_sub = blocks_and_bridges(sub)
        cut_h = mask_of(old[v] for v in iter_bits(cut_sub))
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
            if not g.adj[a] & g.adj[b] & ~bit(v) & mask_of(cyc):
                cond2 = False
                break
        if not cond2:
            violations.append(("cycle-conditions", cyc))
    return not violations, violations


def is_gc_gwcon_perfect(
    g: Graph, cfg: SolverConfig = SolverConfig()
) -> tuple[bool, Optional[int]]:
    """Whether every connected induced subgraph has equal domination numbers.

    Chordal hosts shortcut to the obstruction-freeness test, whose witness
    is an induced copy of the obstruction; otherwise every connected
    induced subgraph is solved, and the witness is the first unequal one.
    A solve cut short by the node budget raises ``Inconclusive``.
    """
    if is_chordal(g):
        from .gadgets import h_star

        emb = contains_induced(g, h_star().graph)
        return (True, None) if emb is None else (False, mask_of(emb.values()))
    if g.n > PERFECTNESS_TIER:
        raise TierExceeded(f"perfectness tier is {PERFECTNESS_TIER} for non-chordal graphs")
    for x in range(1, g.full_mask + 1):
        if not mask_connected(g.adj, x):
            continue
        sub, _ = induced_subgraph(g, x)
        gc, gw = gamma_pair(sub, cfg)
        if gc != gw:
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

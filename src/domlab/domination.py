"""Dominating-set predicates and exact solvers.

Two exact routes are provided: a pruned size-layered search
(:func:`minimum_connected_dominating`, :func:`minimum_wcon_dominating`)
and a deliberately pruning-free oracle (:func:`all_minimum_sets_oracle`)
used to cross-validate the pruned route on small graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations
from operator import or_

from .errors import Disconnected, EmptySet, Inconclusive, ParameterOutOfRange, TierExceeded
from .graph import (
    Graph,
    graph6_encode,
    is_complete,
    iter_bits,
    mask_connected,
    raw_distance_matrix,
    require_connected,
    set_to_list,
    vertex_roles,
)

ORACLE_TIER = 14


class Kind(Enum):
    CONNECTED = "connected"
    WEAKLY_CONVEX = "weakly-convex"


@dataclass(frozen=True)
class SolverConfig:
    """``node_budget`` caps the search-tree nodes of one solve (at least 1)."""

    node_budget: int = 50_000_000

    def __post_init__(self):
        if self.node_budget < 1:
            raise ParameterOutOfRange(f"node budget must be at least 1, got {self.node_budget}")


@dataclass
class DominationCertificate:
    set: int
    kind: Kind
    value: int
    optimal: bool
    nodes_expanded: int = 0

    def to_json_dict(self, g: Graph) -> dict:
        return {
            "graph6": graph6_encode(g),
            "kind": self.kind.value,
            "value": self.value,
            "set": set_to_list(self.set),
            "optimal": self.optimal,
            "nodes_expanded": self.nodes_expanded,
        }


def graph_digest(g: Graph) -> str:
    return hashlib.sha256(graph6_encode(g).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# predicates


def is_dominating(g: Graph, x: int) -> bool:
    """True iff every vertex outside ``x`` has a neighbour in ``x``."""
    if x == 0:
        raise EmptySet("dominating predicate on the empty set")
    covered = x
    for v in iter_bits(x):
        covered |= g.adj[v]
    return covered == g.full_mask


def is_connected_dominating(g: Graph, x: int) -> bool:
    if x == 0:
        raise EmptySet("connected-dominating predicate on the empty set")
    return is_dominating(g, x) and mask_connected(g.adj, x)


@lru_cache(maxsize=16)
def _distance_balls(g: Graph) -> tuple[tuple[int, ...], ...]:
    """``balls[a][d]``: the vertices within host distance ``d`` of ``a``, for
    ``d`` from 0 up to the eccentricity of ``a`` (the last ball is every
    vertex) in a connected graph. Cached for the few graphs in hand, since
    ``is_weakly_convex`` is called set after set on one graph."""
    balls = []
    for row in raw_distance_matrix(g):
        layers = [0] * (max(row) + 1)
        for v, d in enumerate(row):
            layers[d] |= 1 << v
        balls.append(tuple(accumulate(layers, or_)))
    return tuple(balls)


def _weakly_convex(adj: tuple[int, ...], balls: tuple[tuple[int, ...], ...], x: int) -> bool:
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


def is_weakly_convex(g: Graph, x: int) -> bool:
    """Induced-distance criterion: d_{G[X]}(a,b) == d_G(a,b) for all a,b in X.

    A set is weakly convex exactly when the induced subgraph is isometric,
    which is equivalent to the existence of a full geodesic inside X for
    every pair.
    """
    if x == 0:
        raise EmptySet("weak-convexity predicate on the empty set")
    dist = raw_distance_matrix(g)
    if any(d < 0 for d in dist[0]):
        raise Disconnected("weak convexity requires a connected host graph")
    return _weakly_convex(g.adj, _distance_balls(g), x)


def is_wcon_dominating(g: Graph, x: int) -> bool:
    return is_dominating(g, x) and is_weakly_convex(g, x)


def is_perfect_connected_dominating(g: Graph, d: int, outside_only: bool = True) -> bool:
    """Connected dominating set whose dominated vertices have a unique dominator.

    With ``outside_only`` (default) the exactly-one constraint applies to
    vertices outside ``d``; the alternative reading counts members of ``d``
    as dominating themselves plus any neighbours inside ``d``.
    """
    if d == 0:
        raise EmptySet("perfect-domination predicate on the empty set")
    if not is_connected_dominating(g, d):
        return False
    for v in iter_bits(g.full_mask & ~d):
        if (g.adj[v] & d).bit_count() != 1:
            return False
    if not outside_only:
        for v in iter_bits(d):
            if (g.adj[v] & d).bit_count() != 0:
                return False
    return True


_KIND_PREDICATE = {
    Kind.CONNECTED: is_connected_dominating,
    Kind.WEAKLY_CONVEX: is_wcon_dominating,
}


def kind_predicate(kind: Kind):
    return _KIND_PREDICATE[kind]


# ---------------------------------------------------------------------------
# pruned exact solver


class _BudgetSpent(Exception):
    """Unwinds the search once the node budget is used up."""


def _solve_minimum(g: Graph, kind: Kind, cfg: SolverConfig) -> DominationCertificate:
    """Size-layered search that only ever builds connected vertex sets.

    Layer ``k`` enumerates each connected ``k``-set that holds every forced
    vertex and no excluded one exactly once (ESU-style extension): a set
    grows from its root by include/ban branching on its frontier
    ``N(S) - S - banned``.  The root is the lowest forced vertex, or else
    each vertex ``r`` in turn with every vertex below ``r`` banned.  The
    closed neighbourhood ``N[S]`` is kept as the set grows, so a connected
    set dominates exactly when it covers every vertex.  A layer is searched
    in full, so the certificate is the smallest bit mask of all minimum sets.
    """
    require_connected(g)
    n = g.n
    if n == 1:
        return DominationCertificate(1, kind, 1, True)
    forced, excluded = 0, 0
    if n >= 3 and not is_complete(g):
        # cut vertices are forced into, simplicial vertices out of, any
        # minimum set; valid for connected G != K_n with n >= 3
        roles = vertex_roles(g)
        forced, excluded = roles.cut_vertices, roles.simplicial
    adj = g.adj
    closed = [a | 1 << v for v, a in enumerate(adj)]
    full = g.full_mask
    balls = _distance_balls(g) if kind is Kind.WEAKLY_CONVEX else None
    budget = cfg.node_budget
    nodes = 0
    no_hit = full + 1  # above every vertex set
    best = no_hit
    k = 0

    def grow(s: int, cover: int, frontier: int, banned: int, size: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > budget:
            raise _BudgetSpent
        # every extension of s is a larger bit mask than s | forced
        if s | forced >= best:
            return
        if size == k:
            if cover == full and (balls is None or _weakly_convex(adj, balls, s)):
                best = s
            return
        if size + (forced & ~s).bit_count() > k:
            return
        # a forced vertex is never banned, so one on the frontier is the only branch
        pending = frontier & forced
        branches = pending & -pending or frontier
        while branches:
            b = branches & -branches
            v = b.bit_length() - 1
            branches ^= b
            frontier ^= b
            grow(s | b, cover | closed[v], (frontier | adj[v]) & ~(s | b | banned), banned, size + 1)
            banned |= b
            # an undominated vertex that has lost its last possible dominator
            lost = closed[v] & ~cover
            while lost:
                u = lost & -lost
                lost ^= u
                if not closed[u.bit_length() - 1] & ~banned:
                    return

    roots = [forced & -forced] if forced else [1 << r for r in range(n) if not excluded >> r & 1]
    # reach[r]: N[v] over the v >= r not excluded. With the vertices below the
    # root banned, every vertex keeps a possible dominator iff it is full,
    # since closed neighbourhoods are symmetric.
    reach = [0] * (n + 1)
    for v in reversed(range(n)):
        reach[v] = reach[v + 1] if excluded >> v & 1 else reach[v + 1] | closed[v]
    diam = max(map(max, raw_distance_matrix(g)))
    for k in range(max(1, forced.bit_count(), diam - 1), n + 1):
        try:
            for root in roots:
                r = root.bit_length() - 1
                if reach[0 if forced else r] != full:
                    break  # some vertex can no longer be dominated, nor for later roots
                banned = excluded if forced else excluded | (root - 1)
                grow(root, closed[r], adj[r] & ~banned, banned, 1)
        except _BudgetSpent:
            # fall back to the trivially feasible whole vertex set
            hit = full if best == no_hit else best
            return DominationCertificate(hit, kind, hit.bit_count(), False, nodes)
        if best != no_hit:
            return DominationCertificate(best, kind, k, True, nodes)
    # V itself qualifies, so reaching this point means forced/excluded were misapplied
    raise AssertionError("exact search exhausted without a feasible set")


def minimum_connected_dominating(
    g: Graph, cfg: SolverConfig = SolverConfig()
) -> DominationCertificate:
    return _solve_minimum(g, Kind.CONNECTED, cfg)


def minimum_wcon_dominating(
    g: Graph, cfg: SolverConfig = SolverConfig()
) -> DominationCertificate:
    return _solve_minimum(g, Kind.WEAKLY_CONVEX, cfg)


@lru_cache(maxsize=1 << 18)
def gamma_pair(g: Graph, cfg: SolverConfig) -> tuple[int, int]:
    """(gamma_c, gamma_wcon), each read off an optimal certificate.

    Cached, since labeled subgraphs repeat heavily across corpora, sweeps
    and perfectness tests. Raises ``Inconclusive`` when the node budget cut
    a search short; a raised call is not cached. The solvers are looked up
    when called, so a wrapper put on this module sees every solve.
    """
    pair = minimum_connected_dominating(g, cfg), minimum_wcon_dominating(g, cfg)
    for cert in pair:
        if not cert.optimal:
            raise Inconclusive(
                f"node budget {cfg.node_budget} ran out before the {cert.kind.value}"
                f" domination number of {graph6_encode(g)} was proven"
            )
    return pair[0].value, pair[1].value


# ---------------------------------------------------------------------------
# pruning-free oracle


def all_minimum_sets_oracle(g: Graph, kind: Kind) -> list[int]:
    """All minimum sets of ``kind`` by plain cardinality-layered enumeration."""
    if g.n > ORACLE_TIER:
        raise TierExceeded(f"oracle tier is {ORACLE_TIER}, graph has {g.n} vertices")
    predicate = _KIND_PREDICATE[kind]
    verts = range(g.n)
    for size in range(1, g.n + 1):
        hits = []
        for combo in combinations(verts, size):
            x = 0
            for v in combo:
                x |= 1 << v
            if predicate(g, x):
                hits.append(x)
        if hits:
            return hits
    return []

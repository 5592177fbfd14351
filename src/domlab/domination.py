"""Dominating-set predicates and exact solvers.

Two exact routes are provided: a pruned size-layered search
(:func:`minimum_connected_dominating`, :func:`minimum_wcon_dominating`)
and a deliberately pruning-free oracle (:func:`all_minimum_sets_oracle`)
used to cross-validate the pruned route on small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations

from .errors import Disconnected, EmptySet, Inconclusive, ParameterOutOfRange, TierExceeded
from .graph import (
    Graph,
    _Balls,
    _distance_balls,
    _weakly_convex,
    diameter,
    graph6_encode,
    iter_bits,
    mask_connected,
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


@dataclass(frozen=True)
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


# ---------------------------------------------------------------------------
# predicates


def is_dominating(g: Graph, x: int) -> bool:
    """True iff every vertex outside ``x`` has a neighbour in ``x``."""
    if x == 0:
        raise EmptySet("dominating predicate on the empty set")
    adj = g.adj
    covered = rest = x
    while rest:
        b = rest & -rest
        covered |= adj[b.bit_length() - 1]
        rest ^= b
    return covered == g.full_mask


def is_connected_dominating(g: Graph, x: int) -> bool:
    if x == 0:
        raise EmptySet("connected-dominating predicate on the empty set")
    return is_dominating(g, x) and mask_connected(g.adj, x)


def is_weakly_convex(g: Graph, x: int) -> bool:
    """Induced-distance criterion: d_{G[X]}(a,b) == d_G(a,b) for all a,b in X.

    A set is weakly convex exactly when the induced subgraph is isometric,
    which is equivalent to the existence of a full geodesic inside X for
    every pair.
    """
    if x == 0:
        raise EmptySet("weak-convexity predicate on the empty set")
    balls = _distance_balls(g)
    if balls[0][-1] != g.full_mask:
        raise Disconnected("weak convexity requires a connected host graph")
    return _weakly_convex(g.adj, balls, x)


def is_wcon_dominating(g: Graph, x: int) -> bool:
    return is_dominating(g, x) and is_weakly_convex(g, x)


def is_perfect_connected_dominating(g: Graph, d: int) -> bool:
    """Connected dominating set in which each vertex outside ``d`` has
    exactly one neighbour in ``d``. This is the one reading: if members of
    ``d`` counted themselves and their ``d``-neighbours as dominators too,
    no connected ``d`` of two or more vertices would qualify."""
    if d == 0:
        raise EmptySet("perfect-domination predicate on the empty set")
    if not is_connected_dominating(g, d):
        return False
    for v in iter_bits(g.full_mask & ~d):
        if (g.adj[v] & d).bit_count() != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# pruned exact solver


class _BudgetSpent(Exception):
    """Unwinds the search once the node budget is used up."""


def _forced_pair_floor(balls: _Balls, forced: int) -> int:
    """A lower bound on any weakly convex set that holds ``forced``: it has a
    geodesic between each two forced vertices a, b at distance d, with one
    vertex in each interior layer I_i = {v : d(a, v) = i, d(v, b) = d - i},
    0 < i < d. The layers are disjoint, so each one with no forced vertex
    costs a vertex of its own. By the triangle inequality, I_i is the
    intersection of the balls of radius i about a and d - i about b."""
    most = 0
    rest = forced
    while rest:
        a = rest & -rest
        rest ^= a
        around_a = balls[a.bit_length() - 1]
        for b in iter_bits(rest):
            around_b = balls[b]
            d = next(i for i, ball in enumerate(around_a) if ball >> b & 1)
            most = max(most, sum(1 for i in range(1, d) if not around_a[i] & around_b[d - i] & forced))
    return forced.bit_count() + most


def _solve_minimum(
    g: Graph, kind: Kind, cfg: SolverConfig, floor: int = 1
) -> DominationCertificate:
    """Size-layered search that only ever builds connected vertex sets.

    k = 1: a universal vertex is a minimum set of either kind, so the lowest
    one is returned with 0 nodes. Any other connected graph has n >= 3 and
    is not complete, so its cut vertices are forced into, and its simplicial
    vertices kept out of, every minimum set, and each layer has k >= 2.

    Layer ``k`` enumerates each connected ``k``-set that holds every forced
    vertex and no excluded one exactly once (ESU-style extension): a set
    grows from its root by include/ban branching on its frontier
    ``N(S) - S - banned``.  The roots are the members of an anchor, a set
    that every set searched meets: the lowest forced vertex, which lies in
    every such set, or else the smallest N[u] - excluded, lowest u first,
    which every dominating set without an excluded vertex meets.  It is
    never empty: an N[u] of simplicial vertices only is a clique and so
    the whole graph, which k = 1 has returned.  A set grows from its lowest
    anchor member, with the lower members banned.  The closed
    neighbourhood ``N[S]`` is kept as the set grows, so a connected set
    dominates exactly when it covers every vertex.  A layer is searched
    in full, so the certificate is the smallest bit mask of all minimum sets.

    Three bounds cut only subtrees that hold no feasible ``k``-set:

    - capacity: a member after the root joins from the frontier, so it and
      a neighbour of it in ``S`` are dominated already, and it dominates at
      most deg - 1 new vertices. With ``cap[r]`` the sum of the ``r``
      largest values of deg - 1, a node with more than ``cap[k - size]``
      undominated vertices is cut.
    - the closed last slot: the last member must dominate every vertex
      still undominated, so its candidates are the frontier (or the one
      forced vertex still missing) cut to N[u] for each such u. They are
      tried lowest first, with no node of their own.
    - forced-pair geodesics, for gamma_wcon only: see
      :func:`_forced_pair_floor`.

    The first layer is the largest of these lower bounds on the minimum
    size; the caller vouches for ``floor``:

    - the number of forced vertices, which every connected dominating set
      holds;
    - diam - 1: the set holds a path between a dominator of each of two
      farthest vertices, and those dominators are diam - 2 or more apart;
    - the least ``k`` with max |N[v]| + cap[k - 1] >= n, since the root
      dominates at most max |N[v]| vertices;
    - for gamma_wcon, :func:`_forced_pair_floor`.

    ``nodes_expanded`` counts the nodes of the layers searched here; a
    last-slot candidate is not a node.
    """
    require_connected(g)
    n = g.n
    adj = g.adj
    closed = [a | 1 << v for v, a in enumerate(adj)]
    full = g.full_mask
    if full in closed:
        return DominationCertificate(1 << closed.index(full), kind, 1, True)
    roles = vertex_roles(g)
    forced, excluded = roles.cut_vertices, roles.simplicial
    balls = _distance_balls(g) if kind is Kind.WEAKLY_CONVEX else None
    gains = sorted((a.bit_count() - 1 for a in adj), reverse=True)
    cap = [0, *accumulate(gains)]
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
        if (full ^ cover).bit_count() > cap[k - size]:
            return
        if size + (forced & ~s).bit_count() > k:
            return
        # a forced vertex is never banned, so one on the frontier is the only branch
        pending = frontier & forced
        branches = pending & -pending or frontier
        if size == k - 1:
            lack = full ^ cover
            while lack and branches:
                u = lack & -lack
                lack ^= u
                branches &= closed[u.bit_length() - 1]
            while branches:
                b = branches & -branches
                if s | b >= best:
                    return
                if balls is None or _weakly_convex(adj, balls, s | b):
                    best = s | b
                    return
                branches ^= b
            return
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

    anchor = forced & -forced or min((c & ~excluded for c in closed), key=int.bit_count)
    first = next(k for k in range(1, n + 1) if gains[0] + 2 + cap[k - 1] >= n)
    first = max(first, floor, forced.bit_count(), diameter(g) - 1)
    if balls is not None:
        first = max(first, _forced_pair_floor(balls, forced))
    for k in range(first, n + 1):
        try:
            banned = excluded
            for r in iter_bits(anchor):
                grow(1 << r, closed[r], adj[r] & ~banned, banned, 1)
                banned |= 1 << r
        except _BudgetSpent:
            # fall back to the trivially feasible whole vertex set
            hit = full if best == no_hit else best
            return DominationCertificate(hit, kind, hit.bit_count(), False, nodes)
        if best != no_hit:
            return DominationCertificate(best, kind, k, True, nodes)
    # V itself qualifies, so reaching this point means forced/excluded were misapplied
    raise AssertionError("exact search exhausted without a feasible set")


@lru_cache(maxsize=16)
def _connected_certificate(g: Graph, cfg: SolverConfig) -> DominationCertificate:
    """The gamma_c search of ``g``, shared by both solvers. Always called
    with both arguments: ``lru_cache`` keys ``f(g)`` and ``f(g, cfg)`` apart."""
    return _solve_minimum(g, Kind.CONNECTED, cfg)


def minimum_connected_dominating(
    g: Graph, cfg: SolverConfig = SolverConfig()
) -> DominationCertificate:
    return _connected_certificate(g, cfg)


def minimum_wcon_dominating(
    g: Graph, cfg: SolverConfig = SolverConfig()
) -> DominationCertificate:
    """Starts from the gamma_c certificate of ``g``: a weakly convex set
    induces an isometric, so connected, subgraph, so gamma_c <= gamma_wcon.

    Two paths: if that certificate is optimal and weakly convex, it is also
    the smallest weakly convex dominating mask of size gamma_c and is
    returned with 0 nodes. Otherwise one search runs on its own node budget,
    and its ``nodes_expanded`` counts only its own layers. Its floor is
    gamma_c, not gamma_c + 1, since another set of that size may be weakly
    convex, or 1 when the budget cut the gamma_c search short.
    """
    c = _connected_certificate(g, cfg)
    if c.optimal and _weakly_convex(g.adj, _distance_balls(g), c.set):
        return DominationCertificate(c.set, Kind.WEAKLY_CONVEX, c.value, True, 0)
    return _solve_minimum(g, Kind.WEAKLY_CONVEX, cfg, floor=c.value if c.optimal else 1)


@lru_cache(maxsize=1 << 18)
def gamma_pair(g: Graph, cfg: SolverConfig) -> tuple[int, int]:
    """(gamma_c, gamma_wcon), each read off an optimal certificate.

    Cached, since labeled subgraphs repeat heavily across corpora and
    sweeps. The gamma_wcon solve reads the gamma_c certificate the first
    solve just left in ``_connected_certificate``'s cache, so one gamma_c
    search serves both. Raises ``Inconclusive`` when the node budget cut a
    search short; a raised call is not cached. The solvers are looked up
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
    predicate = is_connected_dominating if kind is Kind.CONNECTED else is_wcon_dominating
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

"""Spanning-tree enumeration, the interpolation spectrum, and edge-removal
sweeps for both domination numbers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import NotATree, NotUnicyclic, TreeCountCapExceeded
from .domination import (
    DominationCertificate,
    SolverConfig,
    graph_digest,
    minimum_connected_dominating,
    minimum_wcon_dominating,
)
from .graph import (
    Graph,
    blocks_and_bridges,
    from_edge_list,
    is_connected,
    mask_connected,
    remove_edge,
    require_connected,
)

TREE_COUNT_CAP = 10**6


@dataclass
class SpectrumReport:
    graph_hash: str
    values: list[int]
    is_interval: bool
    tree_count: int

    def to_json_dict(self) -> dict:
        return {
            "graph_hash": self.graph_hash,
            "values": self.values,
            "is_interval": self.is_interval,
            "tree_count": self.tree_count,
        }


@dataclass
class EdgeRemovalRecord:
    edge: tuple[int, int]
    is_bridge: bool
    gamma_c_before: Optional[int] = None
    gamma_c_after: Optional[int] = None
    gamma_wcon_before: Optional[int] = None
    gamma_wcon_after: Optional[int] = None

    @property
    def delta_c(self) -> Optional[int]:
        if self.gamma_c_after is None:
            return None
        return self.gamma_c_after - self.gamma_c_before

    @property
    def delta_wcon(self) -> Optional[int]:
        if self.gamma_wcon_after is None:
            return None
        return self.gamma_wcon_after - self.gamma_wcon_before

    def to_json_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "is_bridge": self.is_bridge,
            "gamma_c_before": self.gamma_c_before,
            "gamma_c_after": self.gamma_c_after,
            "gamma_wcon_before": self.gamma_wcon_before,
            "gamma_wcon_after": self.gamma_wcon_after,
            "delta_c": self.delta_c,
            "delta_wcon": self.delta_wcon,
        }


def spanning_trees(g: Graph, cap: int = TREE_COUNT_CAP) -> Iterator[Graph]:
    """Every spanning tree exactly once, by edge inclusion/exclusion.

    An edge is excluded only when the remaining graph stays connected
    (bridge forcing), so every leaf of the branching emits a tree.
    """
    require_connected(g)
    edges = g.edges()
    n = g.n
    emitted = 0

    def still_connected(excluded: set[int]) -> bool:
        adj = [0] * n
        for i, (u, v) in enumerate(edges):
            if i not in excluded:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        return mask_connected(tuple(adj), (1 << n) - 1)

    def rec(i: int, chosen: list[int], parent: list[int], excluded: set[int]):
        nonlocal emitted
        if len(chosen) == n - 1:
            emitted += 1
            if emitted > cap:
                raise TreeCountCapExceeded(f"more than {cap} spanning trees")
            yield from_edge_list(n, [edges[j] for j in chosen])
            return
        if i == len(edges):
            return

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            saved = list(parent)
            parent[ru] = rv
            yield from rec(i + 1, chosen + [i], parent, excluded)
            parent[:] = saved
            excluded.add(i)
            if still_connected(excluded):
                yield from rec(i + 1, chosen, parent, excluded)
            excluded.discard(i)
        else:
            # chord: including it would close a cycle
            yield from rec(i + 1, chosen, parent, excluded)

    yield from rec(0, [], list(range(n)), set())


def tree_gamma_wcon(t: Graph) -> int:
    """Weakly convex domination number of a tree: n minus the leaf count."""
    if not (is_connected(t) and t.m == t.n - 1):
        raise NotATree("tree formula applies to trees only")
    if t.n <= 2:
        return 1
    leaves = sum(1 for v in range(t.n) if t.degree(v) == 1)
    return t.n - leaves


def wcon_spectrum(g: Graph) -> SpectrumReport:
    """Weakly convex numbers over all spanning trees, with interval test."""
    values = sorted(tree_gamma_wcon(t) for t in spanning_trees(g))
    support = sorted(set(values))
    is_interval = support == list(range(support[0], support[-1] + 1))
    return SpectrumReport(graph_digest(g), values, is_interval, len(values))


def unicyclic_cycle_edge_analysis(
    g: Graph, cfg: SolverConfig = SolverConfig()
) -> list[EdgeRemovalRecord]:
    """One record per cycle edge of a unicyclic graph; removal yields a
    spanning tree whose value comes from the leaf-count formula."""
    if not (is_connected(g) and g.m == g.n):
        raise NotUnicyclic("analysis applies to connected unicyclic graphs")
    before = minimum_wcon_dominating(g, cfg).value
    bridge_set = set(map(frozenset, blocks_and_bridges(g)[1]))
    records = []
    for u, v in g.edges():
        if frozenset((u, v)) in bridge_set:
            continue
        after = tree_gamma_wcon(remove_edge(g, u, v))
        records.append(
            EdgeRemovalRecord(
                (u, v), False, gamma_wcon_before=before, gamma_wcon_after=after
            )
        )
    return records


def edge_removal_sweep(
    g: Graph, cfg: SolverConfig = SolverConfig()
) -> list[EdgeRemovalRecord]:
    """Both domination numbers before/after removing each non-bridge edge.

    Bridge edges are recorded with ``is_bridge`` and no after-values.
    """
    require_connected(g)
    gc = minimum_connected_dominating(g, cfg).value
    gw = minimum_wcon_dominating(g, cfg).value
    bridge_set = set(map(frozenset, blocks_and_bridges(g)[1]))
    records = []
    for u, v in g.edges():
        rec = EdgeRemovalRecord(
            (u, v),
            frozenset((u, v)) in bridge_set,
            gamma_c_before=gc,
            gamma_wcon_before=gw,
        )
        if not rec.is_bridge:
            h = remove_edge(g, u, v)
            rec.gamma_c_after = minimum_connected_dominating(h, cfg).value
            rec.gamma_wcon_after = minimum_wcon_dominating(h, cfg).value
        records.append(rec)
    return records

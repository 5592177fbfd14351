"""Spanning-tree enumeration, the interpolation spectrum, and edge-removal
sweeps for both domination numbers."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional

from .errors import NotATree, NotUnicyclic, TreeCountCapExceeded
from .domination import SolverConfig, gamma_pair, graph_digest
from .graph import (
    Graph,
    blocks_and_bridges,
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
        return {**vars(self), "edge": list(self.edge), "delta_c": self.delta_c, "delta_wcon": self.delta_wcon}


def _tree_masks(g: Graph, cap: int) -> Iterator[list[int]]:
    """Adjacency masks of every spanning tree once, by edge inclusion and
    exclusion with bridge forcing (Read & Tarjan, Networks 1975): an edge is
    excluded only while the graph minus the excluded edges stays connected.
    Both mask lists change in place, so a yielded list is valid until the next."""
    require_connected(g)
    edges = [(u, v, 1 << u, 1 << v) for u, v in g.edges()]
    n, full = g.n, g.full_mask
    host, tree = list(g.adj), [0] * n
    root = list(range(n))  # union-find of the tree's components, undone on return
    emitted = 0

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    def rec(i: int, size: int):
        nonlocal emitted
        if size == n - 1:
            emitted += 1
            if emitted > cap:
                raise TreeCountCapExceeded(f"more than {cap} spanning trees")
            if not mask_connected(tree, full):
                raise NotATree("enumeration emitted a disconnected edge set")
            yield tree
            return
        u, v, bu, bv = edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:  # chord: including it would close a cycle
            yield from rec(i + 1, size)
            return
        root[ru] = rv
        tree[u] ^= bv
        tree[v] ^= bu
        yield from rec(i + 1, size + 1)
        tree[u] ^= bv
        tree[v] ^= bu
        root[ru] = ru
        host[u] ^= bv
        host[v] ^= bu
        if mask_connected(host, full):
            yield from rec(i + 1, size)
        host[u] ^= bv
        host[v] ^= bu

    yield from rec(0, 0)


def spanning_trees(g: Graph, cap: int = TREE_COUNT_CAP) -> Iterator[Graph]:
    """Every spanning tree exactly once, as a ``Graph``."""
    return (Graph(g.n, tuple(adj)) for adj in _tree_masks(g, cap))


def _leaf_formula(adj: list[int] | tuple[int, ...]) -> int:
    # n minus the leaves (single-bit masks); max covers n <= 2, where it is 1
    return max(1, len(adj) - sum(a & (a - 1) == 0 for a in adj))


def tree_gamma_wcon(t: Graph) -> int:
    """Weakly convex domination number of a tree: n minus the leaf count."""
    if not (t.m == t.n - 1 and mask_connected(t.adj, t.full_mask)):
        raise NotATree("tree formula applies to trees only")
    return _leaf_formula(t.adj)


def _tree_count(g: Graph) -> int:
    """Spanning-tree count of a connected graph by the matrix-tree theorem:
    the determinant of the Laplacian without vertex 0, by fraction-free
    (Bareiss) elimination. That matrix is positive definite, so every pivot
    is a positive leading minor and no row swap is needed."""
    rows = [[-(a >> v & 1) for v in range(1, g.n)] for a in g.adj[1:]]
    for i, a in enumerate(g.adj[1:]):
        rows[i][i] = a.bit_count()
    prev = 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        for row in rows[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return prev


def wcon_spectrum(g: Graph) -> SpectrumReport:
    """Weakly convex numbers over all spanning trees, with interval test.

    A graph with more than ``TREE_COUNT_CAP`` spanning trees is refused
    before any is enumerated: the degree product over vertices 1..n-1 bounds
    the count (each tree gives every such vertex one edge toward vertex 0),
    and only a bound over the cap pays for the exact count.
    """
    if prod(a.bit_count() for a in g.adj[1:]) > TREE_COUNT_CAP:
        require_connected(g)
        count = _tree_count(g)
        if count > TREE_COUNT_CAP:
            raise TreeCountCapExceeded(f"{count} spanning trees, more than {TREE_COUNT_CAP}")
    values = sorted(map(_leaf_formula, _tree_masks(g, TREE_COUNT_CAP)))
    is_interval = len(set(values)) == values[-1] - values[0] + 1
    return SpectrumReport(graph_digest(g), values, is_interval, len(values))


def unicyclic_cycle_edge_analysis(
    g: Graph, cfg: SolverConfig = SolverConfig()
) -> list[EdgeRemovalRecord]:
    """One record per cycle edge of a unicyclic graph; removal yields a
    spanning tree whose value comes from the leaf-count formula."""
    if not (is_connected(g) and g.m == g.n):
        raise NotUnicyclic("analysis applies to connected unicyclic graphs")
    _, before = gamma_pair(g, cfg)
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

    Bridge edges are recorded with ``is_bridge`` and no after-values. A solve
    cut short by the node budget raises ``Inconclusive``.
    """
    require_connected(g)
    gc, gw = gamma_pair(g, cfg)
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
            rec.gamma_c_after, rec.gamma_wcon_after = gamma_pair(remove_edge(g, u, v), cfg)
        records.append(rec)
    return records

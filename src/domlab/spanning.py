"""Spanning-tree enumeration, the interpolation spectrum, and edge-removal
sweeps for both domination numbers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import prod
from typing import Iterator, Optional

from .errors import NotATree, TreeCountCapExceeded
from .domination import SolverConfig, gamma_pair
from .graph import (
    Graph,
    _reach,
    blocks_and_bridges,
    graph6_encode,
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


def _tree_masks(g: Graph) -> Iterator[tuple[list[int], int]]:
    """Adjacency masks of every spanning tree once, with its count ``low`` of
    vertices of degree at most 1, grown from vertex 0 by edge inclusion and
    exclusion with bridge forcing (Read & Tarjan, Networks 1975). The tree
    spans ``t``; ``out`` holds the vertices outside ``t`` with a host edge
    into ``t``. The walk branches on the edge from the lowest vertex v of
    ``out`` to its lowest neighbour u in ``t``: the trees either contain uv or
    are trees of the host minus uv. Every vertex stays reachable from ``t``
    after uv is excluded exactly when v does: at once if v keeps an edge into
    ``t`` or ``out`` (each of whose vertices keeps one into ``t``), never if v
    has no edge left, else as a BFS from ``t`` in the host minus uv says.

    The walk is one loop over an explicit stack. It descends by inclusion
    until ``t`` spans the graph and yields the tree, then pops branches:
    popping an inclusion frame takes uv out of ``tree`` and of ``host`` (the
    graph minus the excluded edges) and, if the exclusion is taken, pushes
    it back as an exclusion frame (``near`` 0), whose pop puts uv back into
    ``host``. Each join must add a new vertex v (in ``out``, outside ``t``,
    with no tree edge yet) by an edge to ``t``, else ``NotATree`` is raised;
    so the n - 1 joins of every yielded edge set make a spanning tree. Both
    mask lists change in place: a yielded list is valid only until the next
    one is yielded."""
    require_connected(g)
    full = g.full_mask
    host, tree = list(g.adj), [0] * g.n
    stack = []
    push, pop = stack.append, stack.pop
    t, out, low = 1, g.adj[0], 1
    while True:
        while t != full:
            bv = out & -out
            v = bv.bit_length() - 1
            near = host[v] & t
            if not (bv and near) or bv & t or tree[v]:
                raise NotATree("enumeration joined no new vertex to the tree")
            bu = near & -near
            u = bu.bit_length() - 1
            push((t, out, low, near, u, v, bu, bv))
            # v joins as a leaf; u stops being one if it had one tree edge (not 0)
            low += 1 - (tree[u].bit_count() == 1)
            tree[u] ^= bv
            tree[v] ^= bu
            t |= bv
            out = (out | host[v]) & ~t
        yield tree, low
        while stack:
            t, out, low, near, u, v, bu, bv = pop()
            host[u] ^= bv
            host[v] ^= bu
            if not near:  # an exclusion frame: uv is back in host
                continue
            tree[u] ^= bv
            tree[v] ^= bu
            if near == bu:
                if not (host[v] and (host[v] & out or _reach(host, full, t, bv) & bv)):
                    host[u] ^= bv
                    host[v] ^= bu
                    continue
                out ^= bv
            push((t, out, low, 0, u, v, bu, bv))
            break
        else:
            return


def spanning_trees(g: Graph) -> Iterator[Graph]:
    """Every spanning tree exactly once, as a ``Graph``; a graph with more
    than ``TREE_COUNT_CAP`` of them is refused before any is enumerated."""
    _refuse_oversized(g)
    return (Graph(g.n, tuple(adj)) for adj, _ in _tree_masks(g))


def tree_gamma_wcon(t: Graph) -> int:
    """Weakly convex domination number of a tree: n minus the leaf count
    (the vertices of degree at most 1), and 1 when n <= 2."""
    if not (t.m == t.n - 1 and mask_connected(t.adj, t.full_mask)):
        raise NotATree("tree formula applies to trees only")
    return max(1, t.n - sum(a & (a - 1) == 0 for a in t.adj))


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


def _refuse_oversized(g: Graph) -> None:
    """Raise ``TreeCountCapExceeded`` when ``g`` has more than
    ``TREE_COUNT_CAP`` spanning trees. The degree product over vertices
    1..n-1 bounds the count (each tree gives every such vertex one edge
    toward vertex 0), and only a bound over the cap pays for the exact count.
    """
    if prod(a.bit_count() for a in g.adj[1:]) > TREE_COUNT_CAP:
        require_connected(g)
        count = _tree_count(g)
        if count > TREE_COUNT_CAP:
            raise TreeCountCapExceeded(f"{count} spanning trees, more than {TREE_COUNT_CAP}")


def graph_digest(g: Graph) -> str:
    return hashlib.sha256(graph6_encode(g).encode()).hexdigest()[:16]


def wcon_spectrum(g: Graph) -> SpectrumReport:
    """Weakly convex numbers over all spanning trees, with interval test;
    refused up front past ``TREE_COUNT_CAP`` trees, like ``spanning_trees``."""
    _refuse_oversized(g)
    values = sorted(max(1, g.n - low) for _, low in _tree_masks(g))
    is_interval = len(set(values)) == values[-1] - values[0] + 1
    return SpectrumReport(graph_digest(g), values, is_interval, len(values))


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

"""domlab: exact connected and weakly convex domination laboratory.

Bitmask graphs, exact solvers with an independent brute-force oracle,
class recognizers, drawn-construction generators, spanning-tree
interpolation checks, and a theorem-verification harness.
"""

from .graph import (
    ACYCLIC,
    Graph,
    UNREACHABLE,
    diameter,
    distance_matrix,
    distances_from,
    from_edge_list,
    girth,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_connected,
    remove_edge,
    vertex_roles,
)
from .domination import (
    DominationCertificate,
    Kind,
    SolverConfig,
    all_minimum_sets_oracle,
    gamma_pair,
    is_connected_dominating,
    is_dominating,
    is_perfect_connected_dominating,
    is_wcon_dominating,
    is_weakly_convex,
    minimum_connected_dominating,
    minimum_wcon_dominating,
)
from .recognizers import classify, is_gc_gwcon_perfect
from .gadgets import (
    complete,
    corona_k1,
    cycle,
    edge_gap_gadget,
    gap_gadget,
    h_prime_a,
    h_star,
    path,
    star,
)
from .spanning import spanning_trees, tree_gamma_wcon, wcon_spectrum
from .harness import CorpusSpec, run_verification

__version__ = "0.1.0"

__all__ = [
    "ACYCLIC",
    "CorpusSpec",
    "DominationCertificate",
    "Graph",
    "Kind",
    "SolverConfig",
    "UNREACHABLE",
    "all_minimum_sets_oracle",
    "classify",
    "complete",
    "corona_k1",
    "cycle",
    "diameter",
    "distance_matrix",
    "distances_from",
    "edge_gap_gadget",
    "from_edge_list",
    "gamma_pair",
    "gap_gadget",
    "girth",
    "graph6_decode",
    "graph6_encode",
    "h_prime_a",
    "h_star",
    "induced_subgraph",
    "is_connected",
    "is_connected_dominating",
    "is_dominating",
    "is_gc_gwcon_perfect",
    "is_perfect_connected_dominating",
    "is_wcon_dominating",
    "is_weakly_convex",
    "minimum_connected_dominating",
    "minimum_wcon_dominating",
    "path",
    "remove_edge",
    "run_verification",
    "spanning_trees",
    "star",
    "tree_gamma_wcon",
    "vertex_roles",
    "wcon_spectrum",
]

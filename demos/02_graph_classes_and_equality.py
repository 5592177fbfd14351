"""Which graph classes force gamma_c = gamma_wcon?

Sweeps the exhaustive corpus of small connected graphs, groups them by
recognized class, and tabulates how often the two numbers agree.  Also shows
the smallest chordal graph where they disagree: the 9-vertex obstruction.

Run:  python3 demos/02_graph_classes_and_equality.py
"""

from collections import Counter

from domlab.domination import SolverConfig, gamma_pair
from domlab.gadgets import h_star
from domlab.harness import exhaustive_connected
from domlab.recognizers import classify, is_gc_gwcon_perfect

cfg = SolverConfig()

total = Counter()
equal = Counter()
for g in exhaustive_connected(6):
    rep = classify(g)
    gc, gw = gamma_pair(g, cfg)
    for cls, member in (
        ("tree", rep.is_tree),
        ("cactus", rep.is_cactus),
        ("block graph", rep.is_block_graph),
        ("cograph", rep.is_cograph),
        ("distance-hereditary", rep.is_distance_hereditary),
        ("chordal", rep.is_chordal),
        ("all connected", True),
    ):
        if member:
            total[cls] += 1
            equal[cls] += gc == gw
print("class                 graphs   gamma_c == gamma_wcon")
for cls in total:
    print(f"{cls:<22}{total[cls]:6d}   {equal[cls]:6d}")

desc = h_star()
gc, gw = gamma_pair(desc.graph, cfg)
perfect, _ = is_gc_gwcon_perfect(desc.graph, cfg)
print(f"\n9-vertex chordal obstruction: gamma_c={gc}, gamma_wcon={gw}, "
      f"perfect={perfect}")

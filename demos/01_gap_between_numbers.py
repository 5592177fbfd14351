"""How far apart can the connected and weakly convex domination numbers be?

Builds the parametric wide-gap construction and shows that the difference
gamma_wcon - gamma_c equals k exactly, so the gap is unbounded.

Run:  python3 demos/01_gap_between_numbers.py
"""

from domlab.domination import SolverConfig, gamma_pair, minimum_wcon_dominating
from domlab.gadgets import gap_gadget
from domlab.graph import set_to_list

cfg = SolverConfig()

print("k   n    m   gamma_c  gamma_wcon  gap")
for k in (6, 7, 8):
    desc = gap_gadget(k)
    g = desc.graph
    gc, gw = gamma_pair(g, cfg)
    print(f"{k}  {g.n:3d}  {g.m:3d}    {gc:3d}      {gw:3d}      {gw - gc:3d}")
    assert (gc, gw) == (desc.predictions["gamma_c"], desc.predictions["gamma_wcon"])

desc = gap_gadget(6)
cert = minimum_wcon_dominating(desc.graph, cfg)
by_index = {v: name for name, v in desc.labels.items()}
print("\nA minimum weakly convex dominating set for k=6:")
print(sorted(by_index[v] for v in set_to_list(cert.set)))

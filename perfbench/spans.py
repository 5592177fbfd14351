"""Spans around domlab's public functions, for the traced runs only.

Each public function of interest is wrapped once and the wrapper is put at
every module attribute that refers to it, because another layer calls it
through its own import (``harness.minimum_wcon_dominating`` is the same
function as ``domination.minimum_wcon_dominating``). The harness's theorem
checks are wrapped where the registry holds them, in ``THEOREMS``.

Per-node primitives (``is_dominating``, ``is_weakly_convex``,
``mask_connected``) are not wrapped: a span costs about a microsecond, as
much as a search node. Per-node cost is ``self_s / nodes`` instead.

A span is ``[layer, start, end, parent index, op id]``. Spans stay in
memory until ``Tracer.layers`` folds them into per-layer totals. Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

_CLASSES = ("is_tree", "is_path", "is_cycle_graph", "is_complete", "is_cactus",
            "is_block_graph", "is_cograph", "is_distance_hereditary", "is_chordal",
            "is_h_star_free", "cactus_equality_characterization", "girth7_analysis",
            "classify")
_GADGETS = ("path", "cycle", "complete", "star", "corona_k1", "gap_gadget",
            "edge_gap_gadget", "h_star", "h_prime_a", "fig_example_not_perfect",
            "random_tree", "random_unicyclic", "random_cactus",
            "random_long_cycle_tree", "random_connected_graph")

# (module, function) -> layer
TARGETS = {
    ("graph", "from_edge_list"): "graph.from_edge_list",
    ("graph", "graph6_decode"): "graph.graph6_decode",
    ("graph", "vertex_roles"): "graph.vertex_roles",
    ("domination", "minimum_connected_dominating"): "domination.connected",
    ("domination", "minimum_wcon_dominating"): "domination.wcon",
    ("domination", "all_minimum_sets_oracle"): "domination.oracle",
    ("recognizers", "is_gc_gwcon_perfect"): "recognizers.is_gc_gwcon_perfect",
    ("recognizers", "lemma_perfect_conditions"): "recognizers.lemma_perfect_conditions",
    ("spanning", "wcon_spectrum"): "spanning.wcon_spectrum",
    ("spanning", "edge_removal_sweep"): "spanning.edge_removal_sweep",
    ("harness", "exhaustive_connected"): "harness.exhaustive_connected",
    ("cli", "main"): "cli",
    **{("recognizers", f): "recognizers.classes" for f in _CLASSES},
    **{("gadgets", f): "gadgets" for f in _GADGETS},
}

THEOREM_IDS = ("S2.gap", "S2.bounds-2m-n", "S2.n-2", "S2.observation",
               "S2.diameter-lemma", "S2.girth7", "S3.cactus", "S3.dh",
               "S3.chordal-Hstar", "S3.perfect-lemma", "S4.edge-gadget",
               "S4.unicyclic", "S4.interpolation", "S4.edge-bound")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1  # -1 while setting up, then the index of the current op
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, layer: str) -> list:
        span = [layer, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, layer: str, fn, on_result=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _count_certificate(self, layer: str):
        def on_result(cert):
            self.counts[f"{layer}.nodes"] += cert.nodes_expanded
            self.counts["domination.nonoptimal"] += not cert.optimal
        return on_result

    def _count_trees(self, report) -> None:
        self.counts["spanning.trees"] += report.tree_count

    def _count_checked(self, layer: str):
        def on_result(check):
            self.counts[f"{layer}.checked"] += check.stats.get("checked", 0)
        return on_result

    def install(self) -> None:
        import domlab
        from domlab import cli, domination, gadgets, graph, harness, recognizers, spanning

        modules = {"graph": graph, "domination": domination, "recognizers": recognizers,
                   "gadgets": gadgets, "spanning": spanning, "harness": harness, "cli": cli}
        everywhere = [domlab, *modules.values()]
        for (mod, name), layer in TARGETS.items():
            original = getattr(modules[mod], name)
            on_result = None
            if layer in ("domination.connected", "domination.wcon"):
                on_result = self._count_certificate(layer)
            elif layer == "spanning.wcon_spectrum":
                on_result = self._count_trees
            wrapped = self.wrap(layer, original, on_result)
            for module in everywhere:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        for tid, check in list(harness.THEOREMS.items()):
            layer = f"harness.{tid}"
            harness.THEOREMS[tid] = self.wrap(layer, check, self._count_checked(layer))

    def layers(self) -> dict[str, float]:
        """Per-layer calls, self time, inclusive time and counters, plus
        the hit counts of domlab's two ``lru_cache``s."""
        from domlab import graph, harness

        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float, self.counts)
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += end - start - child_time[i]
            out[f"{layer}.total_s"] += end - start
        for prefix, cached in (("graph.raw_distance_matrix", graph.raw_distance_matrix),
                               ("harness.gammas_cache", harness._gammas_cached)):
            info = cached.cache_info()
            out[f"{prefix}.hits"] += info.hits
            out[f"{prefix}.misses"] += info.misses
        return dict(out)

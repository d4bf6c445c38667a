"""Spans around the program's public entry points, installed from outside.

``Tracer.install`` replaces each entry point below, on every ``wfts``
module that imported it, with a wrapper that records one span: name, start,
end and the enclosing span.  Classes are traced through ``__init__``.
Nothing under ``src/`` changes, and an entry point that no longer exists is
reported as missing instead of failing the run.

Counts come from the entry points' return values (and, for a feature
model, the constructed object); they are read after the pass, so that no
counting happens inside a timed span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, name, whether to keep the call's arguments and result for counting)
ENTRY_POINTS = (
    ("analysis", "analyze_family", False),
    ("analysis", "analyze_products", False),
    ("analysis", "report_to_json", False),
    ("checks", "check_model", False),
    ("checks", "check_tree", False),
    ("checks", "check_scc_tree", False),
    ("checks", "check_triangle", False),
    ("dsl", "parse", False),
    ("features", "FeatureModel", True),
    ("graphs", "IndexedModel", False),
    ("graphs", "kosaraju_components", False),
    ("graphs", "tight_cycle", False),
    ("meancycle", "best_reachable_mean", False),
    ("meancycle", "brute_force_mean_cycle", False),
    ("meancycle", "karp_cells", True),
    ("model", "expand_lengths", False),
    ("model", "project", False),
    ("model", "symbolic_reachable_masks", False),
    ("ordering", "build_finishing_tree", True),
    ("ordering", "dfs_order", True),
    ("scc", "symbolic_sccs", True),
)

SELF_TIMES = (
    "meancycle.karp_cells", "ordering.dfs_order", "ordering.build_finishing_tree",
    "scc.symbolic_sccs", "graphs.IndexedModel", "model.symbolic_reachable_masks",
    "model.expand_lengths", "graphs.tight_cycle", "analysis.report_to_json",
    "model.project", "meancycle.best_reachable_mean", "graphs.kosaraju_components",
    "meancycle.brute_force_mean_cycle", "checks.check_tree", "checks.check_scc_tree",
    "checks.check_triangle", "features.FeatureModel", "dsl.parse",
    "analysis.analyze_family",
)
CALLS = ("meancycle.karp_cells", "graphs.IndexedModel", "graphs.tight_cycle",
         "model.project")
COUNTS = (
    "meancycle.karp_table_slots", "meancycle.karp_result_cells",
    "ordering.order_entries", "ordering.tree_nodes", "ordering.tree_leaves",
    "scc.components", "scc.cyclic_components", "features.products",
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []  # [name id, start, end, parent span index]
        self.kept: dict = {}  # span index -> (name, arguments, result)
        self.missing: set = set()
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([self._id(name), time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def _wrap(self, name: str, fn, keep):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if keep:
                self.kept[index] = (name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point of the currently imported ``wfts``."""
        self.uninstall()
        modules = [m for n, m in sys.modules.items() if n == "wfts" or n.startswith("wfts.")]
        for module, attr, keep in ENTRY_POINTS:
            name = f"{module}.{attr}"
            original = getattr(sys.modules.get(f"wfts.{module}"), attr, None)
            if original is None:
                self.missing.add(name)
                continue
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patched.append((original, "__init__", init))
                setattr(original, "__init__", self._wrap(name, init, keep))
                continue
            wrapper = self._wrap(name, original, keep)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def summary(self, first: int, last: int) -> dict:
        """Self time, calls and counts of the spans first..last-1."""
        spans = self.spans
        child = [0.0] * (last - first)
        for s in spans[first:last]:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        out: dict = {}
        for i, (nid, start, end, _) in enumerate(spans[first:last]):
            name = self.names[nid]
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start) - child[i]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for index, (name, args, result) in self.kept.items():
            if first <= index < last:
                for key, value in _counts(name, args, result).items():
                    out[key] = out.get(key, 0) + value
        return out

    def forget_kept(self) -> None:
        self.kept = {}

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def _counts(name: str, args: tuple, result) -> dict:
    if name == "meancycle.karp_cells":
        members = sum(1 for m in args[0].masks if m)
        return {"meancycle.karp_table_slots": members * (members + 1),
                "meancycle.karp_result_cells": len(result)}
    if name == "ordering.dfs_order":
        return {"ordering.order_entries": len(result.entries)}
    if name == "ordering.build_finishing_tree":
        return {"ordering.tree_nodes": len(result.nodes),
                "ordering.tree_leaves": len(result.leaves())}
    if name == "scc.symbolic_sccs":
        w = args[1]
        fm = w.feature_model
        index = {s: i for i, s in enumerate(w.states)}
        guards = [(index[t.source], index[t.target], fm.mask(t.guard)) for t in w.transitions]
        components = result.components()
        cyclic = sum(1 for c in components
                     if any(c.masks[u] & c.masks[v] & g for u, v, g in guards))
        return {"scc.components": len(components), "scc.cyclic_components": cyclic}
    if name == "features.FeatureModel":
        return {"features.products": len(args[0].products)}
    return {}

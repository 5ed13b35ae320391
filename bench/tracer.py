"""Spans around the calls into each module's public functions, recorded from
outside the program, and the per-layer metrics made from them.

The package's modules import each other's functions by name, so a function is
wrapped in every `treeverse` module that holds it, and methods are wrapped on
their class.  Spans stay in memory as tuples
(name, start, end, parent index, operation id, amount) until `write`.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
from time import perf_counter


def _n_children(args, result):
    return len(args[1])


def _forest_size(args, result):
    return len(args[0].vertices)


def _arc_count(args, result):
    return len(result.arcs)


def _guest_size(args, result):
    return args[1].n


def _tree_count(args, result):
    return len(result.trees)


def _found(args, result):
    return int(result is not None)


def _row_count(args, result):
    return len(result.rows)


# (span name, module, class or None, attribute, amount of work or None)
TARGETS = (
    ("tree_core.RootedTree", "tree_core", "RootedTree", "__init__", _n_children),
    ("tree_core.Forest.components", "tree_core", "Forest", "components", _forest_size),
    ("tree_core.Forest.component_of", "tree_core", "Forest", "component_of", None),
    ("tree_core.Forest.induced", "tree_core", "Forest", "induced", None),
    ("decomposition.find_bounded_components", "decomposition", None,
     "find_bounded_components", None),
    ("decomposition.find_feasible_or_critical", "decomposition", None,
     "find_feasible_or_critical", None),
    ("graph_gen.generate", "graph_gen", None, "generate", _arc_count),
    ("graph_gen.underlying", "graph_gen", None, "underlying", None),
    ("graph_gen.merged_tree", "graph_gen", None, "merged_tree", None),
    ("graph_gen.UndirectedGraph.induced", "graph_gen", "UndirectedGraph", "induced", None),
    ("graph_gen.UndirectedGraph.induced_prefix", "graph_gen", "UndirectedGraph",
     "induced_prefix", None),
    ("balanced_trees.typed_ternary", "balanced_trees", None, "typed_ternary", None),
    ("balanced_trees.perfect_binary", "balanced_trees", None, "perfect_binary", None),
    ("balanced_trees.validate_balance", "balanced_trees", None, "validate_balance", None),
    ("embedder.embed", "embedder", None, "embed", _guest_size),
    ("oracle.enumerate_free_trees", "oracle", None, "enumerate_free_trees", _tree_count),
    ("oracle.brute_embed", "oracle", None, "brute_embed", _found),
    ("analytics.bound_table_ternary", "analytics", None, "bound_table_ternary", _row_count),
    ("analytics.bound_table_binary", "analytics", None, "bound_table_binary", _row_count),
    ("cli.main", "cli", None, "main", None),
)

DECOMPOSITION = ("decomposition.find_bounded_components",
                 "decomposition.find_feasible_or_critical")

# metric name -> (unit, kind, span names); kind is "count" (spans),
# "amount" (summed amounts) or "self_s" (summed self time)
LAYER_METRICS = {
    "tree_core.trees_built": ("count", "count", ("tree_core.RootedTree",)),
    "tree_core.tree_vertices_built": ("count", "amount", ("tree_core.RootedTree",)),
    "tree_core.tree_build_s": ("s", "self_s", ("tree_core.RootedTree",)),
    "tree_core.components_calls": ("count", "count", ("tree_core.Forest.components",)),
    "tree_core.components_vertices_scanned": ("count", "amount",
                                              ("tree_core.Forest.components",)),
    "tree_core.components_s": ("s", "self_s", ("tree_core.Forest.components",
                                               "tree_core.Forest.component_of")),
    "tree_core.forest_induced_s": ("s", "self_s", ("tree_core.Forest.induced",)),
    "decomposition.calls": ("count", "count", DECOMPOSITION),
    "decomposition.self_s": ("s", "self_s", DECOMPOSITION),
    "graph_gen.generate_s": ("s", "self_s", ("graph_gen.generate",)),
    "graph_gen.underlying_s": ("s", "self_s", ("graph_gen.underlying",)),
    "graph_gen.arcs": ("count", "amount", ("graph_gen.generate",)),
    "graph_gen.merged_tree_calls": ("count", "count", ("graph_gen.merged_tree",)),
    "graph_gen.merged_tree_s": ("s", "self_s", ("graph_gen.merged_tree",)),
    "graph_gen.induced_calls": ("count", "count", ("graph_gen.UndirectedGraph.induced",
                                                   "graph_gen.UndirectedGraph.induced_prefix")),
    "graph_gen.induced_s": ("s", "self_s", ("graph_gen.UndirectedGraph.induced",
                                            "graph_gen.UndirectedGraph.induced_prefix")),
    "balanced_trees.self_s": ("s", "self_s", ("balanced_trees.typed_ternary",
                                              "balanced_trees.perfect_binary",
                                              "balanced_trees.validate_balance")),
    "embedder.embed_calls": ("count", "count", ("embedder.embed",)),
    "embedder.guest_vertices": ("count", "amount", ("embedder.embed",)),
    "embedder.self_s": ("s", "self_s", ("embedder.embed",)),
    "oracle.enumerate_s": ("s", "self_s", ("oracle.enumerate_free_trees",)),
    "oracle.trees_enumerated": ("count", "amount", ("oracle.enumerate_free_trees",)),
    "oracle.brute_embed_calls": ("count", "count", ("oracle.brute_embed",)),
    "oracle.brute_embed_found": ("count", "amount", ("oracle.brute_embed",)),
    "oracle.brute_embed_s": ("s", "self_s", ("oracle.brute_embed",)),
    "analytics.rows": ("count", "amount", ("analytics.bound_table_ternary",
                                           "analytics.bound_table_binary")),
    "analytics.self_s": ("s", "self_s", ("analytics.bound_table_ternary",
                                         "analytics.bound_table_binary")),
    "cli.self_s": ("s", "self_s", ("cli.main",)),
}

class Tracer:
    """Wraps the TARGETS while installed; `op` tags the spans that follow."""

    package = "treeverse"

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name, orig, amount):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, perf_counter(), parent, self.op, 0)
                raise
            finally:
                stack.pop()
            end = perf_counter()
            spans[idx] = (name, start, end, parent, self.op,
                          amount(args, result) if amount else 0)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == self.package or key.startswith(self.package + ".")]
        for name, module, cls, attr, amount in TARGETS:
            home = sys.modules[f"{self.package}.{module}"]
            if cls is not None:
                owner = getattr(home, cls)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, orig, amount))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, amount)
            for m in modules:
                if m.__dict__.get(attr) is orig:
                    self._patch(m, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        """Spans as JSON lines [name, start, end, parent, op, amount]; times
        in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as f:
            for name, start, end, parent, op, amount in self.spans:
                f.write(json.dumps([name, start - t0, end - t0, parent, op,
                                    amount]) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover."""
    out = [end - start for _n, start, end, _p, _o, _a in spans]
    for _n, start, end, parent, _o, _a in spans:
        if parent != -1:
            out[parent] -= end - start
    return out


def layer_totals(spans, ops) -> dict:
    """Per-layer sums over the spans whose operation id is in `ops`."""
    selfs = self_times(spans)
    by_name: dict = {}
    for i, (name, _s, _e, _p, op, amount) in enumerate(spans):
        if op in ops:
            acc = by_name.setdefault(name, [0, 0, 0.0])
            acc[0] += 1
            acc[1] += amount
            acc[2] += selfs[i]
    totals = {}
    for metric, (_unit, kind, names) in LAYER_METRICS.items():
        column = {"count": 0, "amount": 1, "self_s": 2}[kind]
        totals[metric] = sum(by_name.get(n, (0, 0, 0.0))[column] for n in names)
    return totals


def decomposition_time_by_op(spans) -> dict:
    """Inclusive time of the outermost decomposition spans, per operation."""
    out: dict = {}
    for name, start, end, parent, op, _a in spans:
        if name in DECOMPOSITION and \
                (parent == -1 or spans[parent][0] not in DECOMPOSITION):
            out[op] = out.get(op, 0.0) + (end - start)
    return out


def size_exponent(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size); 0 without two
    distinct sizes."""
    pts = [(math.log(s), math.log(t)) for s, t in zip(sizes, times) if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx

"""Edge-count bound tables and the reproduction of the legacy generator's
failure on an 11-vertex prefix.

Every edge count, for a whole graph or any preorder prefix, is read from one
`graph_gen.prefix_counts` pass over the arcs.

Counts are exact integers; bound values are floats with two hundred vertices
of linear slack, so a 1e-6 guard on the bound side is immaterial and only
documents the float/int comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

from .balanced_trees import perfect_binary, typed_ternary
from .graph_gen import generate, legacy_generate, prefix_counts, underlying

FLOAT_GUARD = 1e-6

TERNARY_K_GUARD = 9
BINARY_K_GUARD = 11
GAP_K_GUARD = 8


def ternary_bound(n: int) -> float:
    """Edge bound for radius-2 graphs of the typed ternary family."""
    if n <= 1:
        return 200.0 * n
    return (14.0 / 3.0) * n * (math.log(n) / math.log(3)) + 200.0 * n


def binary_bound(n: int, k: int, full_level: bool) -> float:
    """Edge bound for radius-0 graphs of perfect binary trees; full levels
    carry the stronger linear term."""
    return 3.5 * k * n + (n if full_level else 4 * n)


@dataclass
class BoundRow:
    family: str
    k: int
    n: int
    edges_total: int
    edges_by_type: dict
    bound_value: float
    slack: float = field(init=False)

    def __post_init__(self):
        self.slack = self.bound_value - self.edges_total


@dataclass
class BoundReport:
    rows: list

    @property
    def ok(self) -> bool:
        return all(r.slack >= -FLOAT_GUARD for r in self.rows)

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.rows], indent=2)

    def to_csv(self) -> str:
        lines = ["family,k,n,edges_total,bound_value,slack"]
        for r in self.rows:
            lines.append(f"{r.family},{r.k},{r.n},{r.edges_total},"
                         f"{r.bound_value:.3f},{r.slack:.3f}")
        return "\n".join(lines)


def _prefix_spread(lo: int, hi: int, want: int) -> list:
    """At least `want` prefix sizes spanning (lo, hi], always including hi."""
    span = hi - lo
    count = min(span, max(want, 1))
    sizes = sorted({lo + max(1, round(i * span / count)) for i in range(1, count + 1)})
    if hi not in sizes:
        sizes.append(hi)
    return sizes


def bound_table_ternary(k_max: int, prefix_sweep: bool = False,
                        prefixes_per_k: int = 20) -> BoundReport:
    """Radius-2 edge counts of the typed ternary family against the bound."""
    if not (1 <= k_max <= TERNARY_K_GUARD):
        raise ValueError(f"k_max must be in 1..{TERNARY_K_GUARD}")
    rows = []
    for k in range(1, k_max + 1):
        dig = generate(typed_ternary(k).tree, 2)
        counts = prefix_counts(dig)
        n = dig.n
        if prefix_sweep:
            sizes = _prefix_spread(3 ** (k - 1), n, prefixes_per_k)
        else:
            sizes = [n]
        for m in sizes:
            rows.append(BoundRow("ternary-typed", k, m, counts.pairs[m],
                                 counts.by_type(m), ternary_bound(m)))
    return BoundReport(rows)


def bound_table_binary(k_max: int, prefixes_per_k: int = 20) -> BoundReport:
    """Radius-0 edge counts of perfect binary trees: full levels against the
    stronger bound and a spread of admissible prefixes against the general one."""
    if not (0 <= k_max <= BINARY_K_GUARD):
        raise ValueError(f"k_max must be in 0..{BINARY_K_GUARD}")
    rows = []
    for k in range(0, k_max + 1):
        dig = generate(perfect_binary(k), 0)
        counts = prefix_counts(dig)
        n = dig.n
        rows.append(BoundRow("binary-full", k, n, counts.pairs[n],
                             counts.by_type(n), binary_bound(n, k, True)))
        if k >= 1:
            for m in _prefix_spread(1, n, prefixes_per_k):
                rows.append(BoundRow("binary-prefix", k, m, counts.pairs[m],
                                     counts.by_type(m),
                                     binary_bound(m, k, False)))
    return BoundReport(rows)


@dataclass
class CounterexampleReport:
    """Outcome of replaying the legacy generator's 11-vertex failure."""

    missing_edges: list
    expected_missing: list
    six_prefix_complete: dict     # legacy level -> bool, prefix of size 6
    corrected_slice_missing: list  # same slice under the corrected rules
    ok: bool


LEGACY_SLICE = (5, 6, 7, 8, 9, 10)
EXPECTED_MISSING = [(5, 10), (6, 10), (7, 10)]


def _slice_missing(graph, ids) -> list:
    return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
            if not graph.has_edge(a, b)]


def reproduce_counterexample() -> CounterexampleReport:
    """Replay the legacy failure: the last six of an 11-vertex admissible
    prefix miss exactly three edges, although every 6-vertex admissible graph
    of the legacy generator (levels 2..5) is complete.  Also reports, without
    asserting, the same slice under the corrected rules."""
    legacy3 = underlying(legacy_generate(3)).induced_prefix(11)
    missing = _slice_missing(legacy3, LEGACY_SLICE)

    six_complete = {}
    for lvl in range(2, 6):
        pref6 = underlying(legacy_generate(lvl)).induced_prefix(6)
        six_complete[lvl] = pref6.is_complete()

    corrected = underlying(generate(perfect_binary(3), 0)).induced_prefix(11)
    corrected_missing = _slice_missing(corrected, LEGACY_SLICE)

    ok = (missing == EXPECTED_MISSING) and all(six_complete.values())
    return CounterexampleReport(missing, list(EXPECTED_MISSING), six_complete,
                                corrected_missing, ok)


@dataclass
class GapReport:
    k: int
    n: int
    edges_r2: int
    edges_r0: int
    gap: int
    gap_bound: int
    ok: bool


def edge_gap_summary(k: int) -> GapReport:
    """Edges added by the radius rule at r=2 over r=0 on the ternary family;
    at most four children per vertex bounds the surcharge by 32 per vertex."""
    if not (1 <= k <= GAP_K_GUARD):
        raise ValueError(f"k must be in 1..{GAP_K_GUARD}")
    tree = typed_ternary(k).tree
    e2 = prefix_counts(generate(tree, 2)).pairs[tree.n]
    e0 = prefix_counts(generate(tree, 0)).pairs[tree.n]
    gap = e2 - e0
    bound = 32 * tree.n
    return GapReport(k, tree.n, e2, e0, gap, bound, gap <= bound)

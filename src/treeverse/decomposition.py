"""Separator-style component selection inside forests.

Two finders drive the embedder: one returns a pivot vertex together with
components of bounded total size avoiding a protected vertex, the other
refines that into a collection that is either `feasible` (union plus pivot
lands in [x, x+y-2]) or `critical` (union in [x+y-2, 2x-3] with every proper
sub-union at most x-2).

Each finder call makes one rooted preorder pass over the forest: the tree of
the protected vertex u is rooted at u, every other tree at its smallest
vertex, and every vertex records its children away from the root, its subtree
size and the smallest id in its subtree.  A component of forest - w avoiding
u is then the subtree of a child of w, or, when w is u, a whole other tree,
so a walk step costs O(degree of w): it ranks the candidates by decreasing
size, ties by smallest id, and moves to the root of the largest.  Only the
returned components are built, as preorder slices, and each result is checked
against the classifier by a raise of `DecompositionBugError` (not an assert).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Optional

from .tree_core import Forest


class DecompositionBugError(AssertionError):
    """A finder chose a collection its own classifier rejects: a bug."""


@dataclass(frozen=True)
class ComponentCollection:
    """A pivot vertex `w` plus disjoint components of forest - w, all avoiding
    the protected vertex recorded in `avoid`."""

    w: int
    components: tuple
    avoid: Optional[int] = None

    @property
    def union_size(self) -> int:
        return sum(len(c) for c in self.components)

    @property
    def union(self) -> frozenset:
        out: set[int] = set()
        for c in self.components:
            out |= c
        return frozenset(out)


@dataclass(frozen=True)
class CollectionClass:
    kind: str  # "feasible" | "critical" | "plain"
    x: int
    y: int

    @property
    def is_feasible(self) -> bool:
        return self.kind == "feasible"

    @property
    def is_critical(self) -> bool:
        return self.kind == "critical"


def classify(coll: ComponentCollection, x: int, y: int) -> CollectionClass:
    """Exact set arithmetic for the feasible/critical windows."""
    total = coll.union_size
    if x <= total + 1 <= x + y - 2:
        return CollectionClass("feasible", x, y)
    t = len(coll.components)
    if t >= 2 and x + y - 2 <= total <= 2 * x - 3:
        # drop-one subsets are the largest proper sub-unions
        if all(total - len(c) <= x - 2 for c in coll.components):
            return CollectionClass("critical", x, y)
    return CollectionClass("plain", x, y)


class _RootedPass:
    """One preorder pass over a forest, rooted away from the protected vertex
    u (see the module doc).  Every other tree hangs under u as one more child,
    so the u-free components of forest - w are the subtrees of w's children."""

    def __init__(self, forest: Forest, u: int):
        if u not in forest:
            raise ValueError(f"vertex {u} not in forest")
        up: dict = {}
        order: list[int] = []
        for start in chain((u,), sorted(forest.vertices)):
            if start in up:
                continue
            up[start] = None if start == u else u
            stack = [start]
            while stack:
                v = stack.pop()
                order.append(v)
                for c in forest.neighbors(v):
                    if c not in up:
                        up[c] = v
                        stack.append(c)

        size = dict.fromkeys(order, 1)
        low = {v: v for v in order}
        kids: dict = {v: [] for v in order}
        for v in reversed(order[1:]):
            p = up[v]
            size[p] += size[v]
            low[p] = min(low[p], low[v])
            kids[p].append(v)
        self.u = u
        self.order = order
        self.pos = {v: i for i, v in enumerate(order)}
        self.size = size
        self.low = low
        self.kids = kids

    def below(self, w: int) -> list[int]:
        """Roots of the u-free components of forest - w, in decreasing size,
        ties by smallest contained id."""
        return sorted(self.kids[w], key=lambda c: (-self.size[c], self.low[c]))

    def collection(self, w: int, roots) -> ComponentCollection:
        comps = tuple(frozenset(self.order[self.pos[c]:self.pos[c] + self.size[c]])
                      for c in roots)
        return ComponentCollection(w, comps, self.u)


def _bounded_walk(rooted: _RootedPass, x: int) -> tuple[int, list[int]]:
    """Walk away from u while some u-free component of forest - w has at
    least 2x vertices, stepping to its root; then pick components largest
    first until the union reaches x, which keeps it within [x, 2x-1]."""
    w = rooted.u
    while True:
        cands = rooted.below(w)
        if cands and rooted.size[cands[0]] >= 2 * x:
            w = cands[0]
            continue
        total = 0
        for j, c in enumerate(cands, 1):
            total += rooted.size[c]
            if total >= x:
                return w, cands[:j]
        raise DecompositionBugError("greedy window unreachable: total below x")


def _checked(rooted: _RootedPass, w: int, roots, x: int, y: int,
             kind: str) -> tuple[ComponentCollection, CollectionClass]:
    coll = rooted.collection(w, roots)
    cls = classify(coll, x, y)
    if cls.kind != kind:
        raise DecompositionBugError(
            f"walk chose a {kind} collection at pivot {w} that classifies "
            f"{cls.kind}")
    return coll, cls


def find_bounded_components(forest: Forest, u: int, x: int) -> ComponentCollection:
    """Find w and components of forest - w avoiding u with union in [x, 2x-1].

    Walks away from u: while some u-free component has at least 2x vertices,
    step to its attachment vertex and continue inside it; otherwise pick
    components greedily until the union reaches x.
    """
    if u not in forest:
        raise ValueError(f"vertex {u} not in forest")
    if x < 1:
        raise ValueError("x must be positive")
    if len(forest) < x + 1:
        raise ValueError(f"forest needs at least {x + 1} vertices")

    rooted = _RootedPass(forest, u)
    return rooted.collection(*_bounded_walk(rooted, x))


def find_feasible_or_critical(forest: Forest, u: int, x: int,
                              y: int) -> tuple[ComponentCollection, CollectionClass]:
    """Find a u-avoiding collection that classifies feasible or critical.

    Seeds with the bounded walk at x-1; while the union is too large to be
    feasible, either a minimal subcollection of the large components is
    already critical, or the single oversized component is descended into.
    """
    if x <= y or y < 2:
        raise ValueError("requires x > y >= 2")
    if len(forest) < x + 1:
        raise ValueError(f"forest needs at least {x + 1} vertices")

    rooted = _RootedPass(forest, u)
    if len(forest) <= x + y - 2:
        # every component of forest - u, in order of smallest id
        return _checked(rooted, u, sorted(rooted.kids[u], key=rooted.low.get),
                        x, y, "feasible")

    w, comps = _bounded_walk(rooted, x - 1)
    while True:
        sizes = [rooted.size[c] for c in comps]
        prefixes = list(accumulate(sizes))
        assert x - 1 <= prefixes[-1] <= 2 * x - 3

        # walk prefix unions downward; steps below the y-threshold index are
        # smaller than y, so the feasible window [x-1, x+y-3] cannot be skipped
        for j in range(len(comps), 0, -1):
            if x - 1 <= prefixes[j - 1] <= x + y - 3:
                return _checked(rooted, w, comps[:j], x, y, "feasible")

        # minimal subcollection of the >=y components with union >= x+y-2;
        # the largest-first prefix stops as soon as the threshold is reached,
        # so dropping any member (all at least as big as the last) breaks it
        j = next(j for j, t in enumerate(prefixes, 1) if t >= x + y - 2)
        assert sizes[j - 1] >= y
        if j >= 2:
            return _checked(rooted, w, comps[:j], x, y, "critical")

        # single oversized component: descend into it and retry
        w = comps[0]
        comps = rooted.below(w)

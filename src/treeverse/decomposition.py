"""Separator-style component selection inside forests.

A finder's first argument is a `RootedTree`, read through `n`, `parent` and
`children`; `within`, when given, is a set of its ids, and the finder then
works on the forest the tree induces on that set.  The embedder passes the
guest with one of its pieces, and the `decompose` command the whole tree.
Two finders drive the embedder: one returns a pivot vertex together with
components of bounded total size avoiding a protected vertex, the other
refines that into a collection that is either `feasible` (union plus pivot
lands in [x, x+y-2]) or `critical` (union in [x+y-2, 2x-3] with every
proper sub-union at most x-2).  The critical window is empty when x <= y, so
there the second finder always returns a feasible collection.

Each finder call makes one sweep over the forest's vertex set, in decreasing
id order, which relies on every parent having a smaller id than its
children, as preorder ids have.  The sweep adds each subtree size to the
parent's and collects the trees' tops.  The forest is then read as rooted
away from the protected vertex u: u's tree at u and every other tree hung
under u from its top.  Only the path from u up to its top changes: a vertex
there owns its tree minus the side toward u, so its size is the top's minus
that side's and its smallest id is the top; every other vertex keeps its
sweep size and is its own smallest id.  A component of forest - w avoiding u
is then the subtree of a child of w in that rooting, or, when w is u, a
whole other tree.  A walk step moves to the root of the largest, ties by
smallest id, while it has at least 2x vertices.  On the path to the top a
step ranks the candidates, in O(degree of w); off the path it takes w's
heavy child, in O(1): the largest sweep child, which the sweep records when
it is that large.  Where the walk stops it ranks all candidates once.  Only
the returned components are built, by a search from each root that does not
cross w, and each result is checked against the classifier by a raise of
`DecompositionBugError`, which `python -O` keeps.  The tree's maps are read
in place, so no induced copy is built, and `within` is checked against the
ids 0..n-1 one id at a time, in O(|within|), not O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .tree_core import RootedTree, TreeError, check_int


class DecompositionBugError(AssertionError):
    """A finder chose a collection its own classifier rejects: a bug."""


@dataclass(frozen=True)
class ComponentCollection:
    """A pivot vertex `w` plus disjoint components of forest - w, all avoiding
    the finder's protected vertex."""

    w: int
    components: tuple

    @property
    def union_size(self) -> int:
        return sum(len(c) for c in self.components)

    @property
    def union(self) -> frozenset:
        return frozenset().union(*self.components)


def classify(coll: ComponentCollection, x: int, y: int) -> str:
    """The collection's kind, "feasible", "critical" or "plain", by exact
    set arithmetic for the feasible/critical windows."""
    total = coll.union_size
    if x <= total + 1 <= x + y - 2:
        return "feasible"
    t = len(coll.components)
    if t >= 2 and x + y - 2 <= total <= 2 * x - 3:
        # drop-one subsets are the largest proper sub-unions
        if all(total - len(c) <= x - 2 for c in coll.components):
            return "critical"
    return "plain"


class _RootedPass:
    """One sweep over a forest's sorted vertex set, read as rooted away from
    the protected vertex u (see the module doc), for a bounded walk at x.
    Every other tree hangs under u as one more child, so the u-free
    components of forest - w are the subtrees of w's children in that
    rooting."""

    def __init__(self, tree: RootedTree, u: int, inside: frozenset, x: int):
        parent = tree.parent
        # children follow their parents in id order, so a reverse sweep
        # finishes every subtree before it reaches the subtree's top
        size = dict.fromkeys(inside, 1)
        # each vertex's largest sweep child of at least 2x vertices, the
        # least the walk steps into; smaller ids come later, so `>=` hands a
        # tie to the smaller id, as `below` ranks it
        heavy = {}
        big = 2 * x
        tops = []
        for v in sorted(inside, reverse=True):
            p = parent[v]
            if p not in inside:
                tops.append(v)
            else:
                s = size[v]
                size[p] += s
                if s >= big and s >= size[heavy.get(p, v)]:
                    heavy[p] = v

        # re-root u's tree at u: on the path from u up to its top, each
        # vertex's subtree becomes the tree minus the side toward u
        toward = {u: None}
        v, p = u, parent[u]
        while p in inside:
            toward[p] = v
            v, p = p, parent[p]
        top = v
        whole = size[top]
        for w, c in reversed(toward.items()):   # c still holds its sweep size
            if c is not None:
                size[w] = whole - size[c]
        self.u = u
        self.x = x
        self.parent, self.children = parent, tree.children
        self.inside = inside
        self.size = size
        self.heavy = heavy
        self.toward = toward
        self.top = top
        self.others = [t for t in reversed(tops) if t != top]

    def low(self, c: int) -> int:
        """The smallest id in the subtree of c."""
        return self.top if c in self.toward else c

    def below(self, w: int) -> list[int]:
        """Roots of the u-free components of forest - w, in decreasing size,
        ties by smallest contained id."""
        inside, toward = self.inside, self.toward
        cands = [c for c in self.children[w] if c in inside]
        if w in toward:
            if toward[w] is not None:
                cands.remove(toward[w])
            p = self.parent[w]
            if p in inside:
                cands.append(p)
            if w == self.u:
                cands += self.others
        return sorted(cands, key=lambda c: (-self.size[c], self.low(c)))

    def step(self, w: int) -> int | None:
        """Where the bounded walk goes from w: `below(w)[0]` when that
        component has at least 2x vertices, else None.  Off the path to u's
        top, w's sweep children are all its candidates, so that is w's heavy
        child."""
        if w in self.toward:
            cands = self.below(w)
            if cands and self.size[cands[0]] >= 2 * self.x:
                return cands[0]
            return None
        return self.heavy.get(w)

    def component(self, c: int, w: int) -> frozenset:
        """The component of forest - w that holds c, a root from `below(w)`:
        the sweep subtree of c or, when c is on the path to the top, the
        top's tree without the sweep subtree of w."""
        children, inside = self.children, self.inside
        comp = [self.top if c in self.toward else c]
        for v in comp:   # grows while it is read: a breadth-first search
            comp += [x for x in children[v] if x in inside and x != w]
        return frozenset(comp)

    def collection(self, w: int, roots) -> ComponentCollection:
        return ComponentCollection(w, tuple(self.component(c, w) for c in roots))


def _bounded_walk(rooted: _RootedPass) -> tuple[int, list[int]]:
    """Walk away from u while some u-free component of forest - w has at
    least 2x vertices, stepping to its root; then pick components largest
    first until the union reaches x, which keeps it within [x, 2x-1].  A
    step reads only the largest component, so `below` ranks all of them
    only on the path to u's top and where the walk stops."""
    w = rooted.u
    while (c := rooted.step(w)) is not None:
        w = c
    cands = rooted.below(w)
    total = 0
    for j, c in enumerate(cands, 1):
        total += rooted.size[c]
        if total >= rooted.x:
            return w, cands[:j]
    raise DecompositionBugError("greedy window unreachable: total below x")


def _checked(rooted: _RootedPass, w: int, roots, x: int, y: int,
             kind: str) -> tuple[ComponentCollection, str]:
    coll = rooted.collection(w, roots)
    found = classify(coll, x, y)
    if found != kind:
        raise DecompositionBugError(
            f"walk chose a {kind} collection at pivot {w} that classifies "
            f"{found}")
    return coll, kind


def _inside(tree: RootedTree, within, u, x, *y) -> frozenset:
    """The vertex set a finder works on, the whole tree or `within`, and
    the finder's one refusal of its input, in this order: `within` unless
    it holds only int ids in 0..n-1 (a float equal to an id is refused
    too); u, x and y, when given, unless each is exactly an int; u outside
    the set; x below 1, or x and y below 2 when y is given; and a set of at
    most x vertices."""
    ks = frozenset(range(tree.n) if within is None else within)
    # whole passes in C: the types, then the range by its two ends
    if not ({*map(type, ks)} <= {int} and 0 <= min(ks, default=0)
            and max(ks, default=0) < tree.n):
        raise TreeError("induced set is not a subset of the forest")
    for name, v in zip(("vertex", "x", "y"), (u, x, *y)):
        check_int(name, v)
    if u not in ks:
        raise TreeError(f"vertex {u} not in forest")
    for name, v in zip(("x", "y"), (x, *y)):
        check_int(name, v, 2 if y else 1)
    if len(ks) < x + 1:
        raise TreeError(f"forest needs at least {x + 1} vertices")
    return ks


def find_bounded_components(tree: RootedTree, u: int, x: int,
                            within=None) -> ComponentCollection:
    """Find w and components of forest - w avoiding u with union in [x, 2x-1].

    Walks away from u: while some u-free component has at least 2x vertices,
    step to its attachment vertex and continue inside it; otherwise pick
    components greedily until the union reaches x.  With `within`, works on
    the forest induced on that vertex set without building it.
    """
    inside = _inside(tree, within, u, x)
    rooted = _RootedPass(tree, u, inside, x)
    return rooted.collection(*_bounded_walk(rooted))


def find_feasible_or_critical(tree: RootedTree, u: int, x: int, y: int,
                              within=None
                              ) -> tuple[ComponentCollection, str]:
    """Find a u-avoiding collection that classifies feasible or critical,
    and return it with that kind.

    Seeds with the bounded walk at x-1; while the union is too large to be
    feasible, either a minimal subcollection of the large components is
    already critical, or the single oversized component is descended into.
    When x <= y the critical window [x+y-2, 2x-3] is empty, and the walk's
    union, at most 2x-3 <= x+y-3, is feasible at once: the result is
    `find_bounded_components(tree, u, x-1)` whenever the forest has more
    than x+y-2 vertices.  `within` is as in `find_bounded_components`.
    """
    inside = _inside(tree, within, u, x, y)
    rooted = _RootedPass(tree, u, inside, x - 1)
    if len(inside) <= x + y - 2:
        # every component of forest - u, in order of smallest id
        return _checked(rooted, u, sorted(rooted.below(u), key=rooted.low),
                        x, y, "feasible")

    # the union stays in [x-1, 2x-3]: the walk's greedy window at x-1 is
    # there, and a descent below a component of s <= 2x-3 vertices, taken
    # only when s >= x+y-2, leaves s-1 of them below
    w, comps = _bounded_walk(rooted)
    while True:
        prefixes = list(accumulate(rooted.size[c] for c in comps))

        # walk prefix unions downward; steps below the y-threshold index are
        # smaller than y, so the feasible window [x-1, x+y-3] cannot be skipped
        for j in range(len(comps), 0, -1):
            if x - 1 <= prefixes[j - 1] <= x + y - 3:
                return _checked(rooted, w, comps[:j], x, y, "feasible")

        # minimal subcollection of the >=y components with union >= x+y-2;
        # the largest-first prefix stops as soon as the threshold is reached,
        # so dropping any member (all at least as big as the last) breaks it
        j = next(j for j, t in enumerate(prefixes, 1) if t >= x + y - 2)
        if j >= 2:
            return _checked(rooted, w, comps[:j], x, y, "critical")

        # single oversized component: descend into it and retry
        w = comps[0]
        comps = rooted.below(w)

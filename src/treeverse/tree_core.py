"""Ordered rooted trees in DFS preorder, and the positional machinery built on it.

Vertices are identified with their preorder index, so for every vertex u the
set of u and its descendants is the contiguous id interval
[u, u + sizes[u] - 1], `sizes[u]` counting u's subtree.  Everything else in
the package relies on that interval property for O(1) descendant tests.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence


class TreeError(ValueError):
    """Raised for structurally invalid tree input."""


class RootedTree:
    """An ordered rooted tree whose vertex ids 0..n-1 follow DFS preorder.

    Immutable after construction.  `children[u]` lists u's children left to
    right; ids within each list are strictly increasing.
    """

    __slots__ = ("n", "parent", "children", "levels", "sizes", "level_order",
                 "_pos_in_level")

    def __init__(self, children: Sequence[Sequence[int]]):
        n = len(children)
        if n == 0:
            raise TreeError("a tree has at least one vertex")
        kids = tuple(tuple(c) for c in children)
        parent: list[Optional[int]] = [None] * n
        sizes = [1] * n
        # from the last vertex back, so each child's size is final when its
        # parent reads it: the first child is u + 1, and each later child
        # starts where the subtree of the one before it ends.  Accepted
        # subtrees nest, so a vertex listed under a second parent never
        # starts where that parent's previous child ends, and no id is
        # claimed twice
        for u in range(n - 1, -1, -1):
            end = u + 1
            for c in kids[u]:
                if c != end or c == n:
                    raise TreeError("children lists are not in preorder")
                parent[c] = u
                end += sizes[c]
            sizes[u] = end - u
        # ids [0, sizes[0]) are the subtree of 0; the first id past them has
        # no parent, since a parent has a smaller id than its child
        if sizes[0] != n:
            raise TreeError("input is not a single tree in preorder")

        # a parent precedes its children, so its level is set first, and a
        # level's first vertex opens its row
        levels = [0] * n
        level_order: list[list[int]] = [[0]]
        pos = [0] * n
        for u in range(1, n):
            lvl = levels[u] = levels[parent[u]] + 1
            if lvl == len(level_order):
                level_order.append([])
            row = level_order[lvl]
            pos[u] = len(row)
            row.append(u)

        self.n = n
        self.parent = tuple(parent)
        self.children = kids
        self.levels = tuple(levels)
        self.sizes = tuple(sizes)
        self.level_order = tuple(tuple(lst) for lst in level_order)
        self._pos_in_level = tuple(pos)

    # -- basic queries -------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.level_order) - 1

    def check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise TreeError(f"vertex {u} out of range 0..{self.n - 1}")

    def descendant_interval(self, u: int) -> range:
        """Ids of u and all its descendants (contiguous by preorder)."""
        return range(u, u + self.sizes[u])

    # -- derived trees -------------------------------------------------

    def prefix(self, m: int) -> "RootedTree":
        """The subtree induced on the admissible prefix {0,..,m-1}."""
        if not (1 <= m <= self.n):
            raise TreeError(f"prefix size {m} out of range 1..{self.n}")
        return RootedTree([[c for c in self.children[u] if c < m]
                           for u in range(m)])

    def subtree(self, u: int) -> "RootedTree":
        """The subtree rooted at u, relabeled so that u becomes id 0.  Only
        tests call it: it is the built form that `TreeView` is checked
        against."""
        self.check_vertex(u)
        return RootedTree([[c - u for c in self.children[v]]
                           for v in self.descendant_interval(u)])

    def __eq__(self, other) -> bool:
        return isinstance(other, RootedTree) and self.children == other.children

    def __hash__(self) -> int:
        return hash(self.children)

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n})"


class TreeView:
    """The base vertices [lo, lo + n) of a tree, relabelled from 0, with
    vertex 0 read as the base vertex `root`.

    A plain view has `root == lo` and is the tree `base.subtree(lo).prefix(n)`
    without building it: a descendant interval cut at a prefix is still an
    interval, so every field is read off the base, and `subtree` and `prefix`
    of a view are views of the same base, made in O(1).  A tail (`tail(c)`)
    keeps the root and drops the root children before c, so vertex 1 is base
    `lo + 1` and vertex 0 stays `root`: the tree that `merged_tree` builds for
    the sibling run from c to the last root child.
    """

    __slots__ = ("base", "lo", "n", "root")

    def __init__(self, base: RootedTree, lo: int = 0, n: Optional[int] = None,
                 root: Optional[int] = None):
        self.base = base
        self.lo = lo
        self.n = base.sizes[lo] if n is None else n
        self.root = lo if root is None else root

    def vertex(self, u: int) -> int:
        """The base id of view vertex u."""
        return self.root if u == 0 else self.lo + u

    @property
    def depth(self) -> int:
        levels, lo = self.base.levels, self.lo
        top = levels[self.root]
        return max(levels[lo + 1:lo + self.n], default=top) - top

    check_vertex = RootedTree.check_vertex

    def size(self, u: int) -> int:
        return self.n if u == 0 else min(self.base.sizes[self.lo + u], self.n - u)

    def children(self, u: int) -> tuple[int, ...]:
        lo, end = self.lo, self.lo + self.n
        return tuple(c - lo for c in self.base.children[self.vertex(u)]
                     if lo < c < end)

    def subtree(self, u: int) -> "TreeView":
        self.check_vertex(u)
        if u == 0:
            return self
        return TreeView(self.base, self.lo + u, self.size(u))

    def prefix(self, m: int) -> "TreeView":
        if not (1 <= m <= self.n):
            raise TreeError(f"prefix size {m} out of range 1..{self.n}")
        return TreeView(self.base, self.lo, m, self.root)

    def tail(self, c: int) -> "TreeView":
        """The root followed by the subtrees of its children from c to the
        last one, c a root child: the sibling run's merge, made in O(1)."""
        self.check_vertex(c)
        if c == 0 or self.base.parent[self.lo + c] != self.root:
            raise TreeError(f"vertex {c} is not a child of the view's root")
        return TreeView(self.base, self.lo + c - 1, self.n - c + 1, self.root)


# -- positional queries ---------------------------------------------------


def build_tree(children_lists: Sequence[Sequence[int]]) -> RootedTree:
    """Build a RootedTree from per-vertex ordered child lists.

    The input may use any labeling; the result is relabeled into DFS
    preorder.  Idempotent on input that is already in preorder.
    """
    n = len(children_lists)
    if n == 0:
        raise TreeError("a tree has at least one vertex")
    seen: set[int] = set()
    for u, lst in enumerate(children_lists):
        for c in lst:
            if not (0 <= c < n):
                raise TreeError(f"child id {c} out of range")
            if c in seen:
                raise TreeError(f"duplicate child {c}")
            seen.add(c)
    roots = [u for u in range(n) if u not in seen]
    if len(roots) != 1:
        raise TreeError("input does not have exactly one root "
                        "(disconnected or cyclic)")

    order: list[int] = []
    stack = [roots[0]]
    # every vertex has at most one parent, so the walk meets none twice; a
    # cycle's vertices are never reached, and the length check refuses them
    while stack:
        u = stack.pop()
        order.append(u)
        for c in reversed(children_lists[u]):
            stack.append(c)
    if len(order) != n:
        raise TreeError("disconnected input")

    new_id = {old: i for i, old in enumerate(order)}
    return RootedTree([[new_id[c] for c in children_lists[old]]
                       for old in order])


def nearest_left_cousin(tree: RootedTree, u: int) -> Optional[int]:
    """The closest same-level vertex preceding u in preorder, if any."""
    tree.check_vertex(u)
    pos = tree._pos_in_level[u]
    if pos == 0:
        return None
    return tree.level_order[tree.levels[u]][pos - 1]


def ith_ancestor(tree: RootedTree, u: int, i: int) -> int:
    """The i-fold parent of u, clamped at the root."""
    tree.check_vertex(u)
    if type(i) is not int:
        raise TreeError(f"ancestor index {i!r} is not an int")
    if i < 0:
        raise TreeError("ancestor index must be non-negative")
    while i > 0 and tree.parent[u] is not None:
        u = tree.parent[u]
        i -= 1
    return u


# -- forests -------------------------------------------------------------


class Forest:
    """The forest a rooted tree induces on a set of its vertices, keeping
    the tree's ids: u's neighbours are its tree children and parent that lie
    in the set.

    The package builds none, and no finder takes one: the decomposition
    finders read a `RootedTree` and a vertex set of it, the form this class
    holds.  It stays as the tests' reference for the components of such a
    forest, `Forest.from_tree(tree).induced(keep)`, and as the benchmark
    tracer's target, which wraps `components`, `component_of` and `induced`
    by name.
    """

    __slots__ = ("tree", "keep", "vertices")

    def __init__(self, tree: RootedTree, keep: frozenset):
        self.tree = tree
        self.keep = keep
        self.vertices = tuple(sorted(keep))

    @classmethod
    def from_tree(cls, tree: RootedTree) -> "Forest":
        return cls(tree, frozenset(range(tree.n)))

    def induced(self, keep: Iterable[int]) -> "Forest":
        ks = frozenset(keep)
        if not self.keep >= ks:
            raise TreeError("induced set is not a subset of the forest")
        return Forest(self.tree, ks)

    def neighbors(self, u: int) -> list[int]:
        tree, keep = self.tree, self.keep
        return [v for v in (*tree.children[u], tree.parent[u]) if v in keep]

    def component_of(self, u: int, removed: Optional[int] = None) -> frozenset:
        """Connected component containing u after deleting `removed`."""
        seen = {u}
        stack = [u]
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                if w != removed and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def components(self, removed: Optional[int] = None) -> list[frozenset]:
        """Connected components, optionally after deleting one vertex."""
        out = []
        seen: set[int] = set()
        for u in self.vertices:
            if u == removed or u in seen:
                continue
            comp = self.component_of(u, removed)
            seen |= comp
            out.append(comp)
        return out


# -- text formats ---------------------------------------------------------


def to_parens(tree: RootedTree) -> str:
    """One-line parenthesized preorder, e.g. '(()(()()))', written from the
    levels: before vertex u close u - 1 and its ancestors at u's level or
    deeper, then open u; after the last vertex close it and its ancestors."""
    levels = tree.levels
    steps = (")" * (a - b + 1) + "(" for a, b in zip(levels, levels[1:]))
    return "(" + "".join(steps) + ")" * (levels[-1] + 1)


def from_parens(text: str) -> RootedTree:
    """Parse the parenthesized preorder format."""
    s = text.strip()
    if not s or s[0] != "(":
        raise TreeError("tree text must start with '('")
    children: list[list[int]] = []
    stack: list[int] = []
    next_id = 0
    for ch in s:
        if ch == "(":
            u = next_id
            next_id += 1
            children.append([])
            if stack:
                children[stack[-1]].append(u)
            stack.append(u)
        elif ch == ")":
            if not stack:
                raise TreeError("unbalanced parentheses")
            stack.pop()
        elif not ch.isspace():
            raise TreeError(f"unexpected character {ch!r}")
    if stack:
        raise TreeError("unbalanced parentheses")
    return RootedTree(children)


def to_parent_csv(tree: RootedTree) -> str:
    """Parent-array CSV 'parent[1],parent[2],...'; empty for the 1-vertex tree."""
    return ",".join(str(tree.parent[u]) for u in range(1, tree.n))


def from_parent_csv(text: str) -> RootedTree:
    s = text.strip()
    if not s:
        return RootedTree([[]])
    parents = []
    for tok in s.split(","):
        tok = tok.strip()
        try:
            # `int` alone would also read '+1', '1_0' and non-ASCII digits;
            # it refuses digit strings past the interpreter's length limit
            if not re.fullmatch("-?[0-9]+", tok):
                raise ValueError
            parents.append(int(tok))
        except ValueError:
            raise TreeError(f"parent id {tok!r} is not an integer") from None
    n = len(parents) + 1
    children: list[list[int]] = [[] for _ in range(n)]
    for u, p in enumerate(parents, start=1):
        if not (0 <= p < n):
            raise TreeError(f"parent id {p} out of range")
        children[p].append(u)
    return build_tree(children)


def parse_tree(text: str) -> RootedTree:
    """Accept either text format (parenthesized preorder or parent CSV)."""
    s = text.strip()
    if s.startswith("("):
        return from_parens(s)
    return from_parent_csv(s)

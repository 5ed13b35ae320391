"""Directed edge generators driven by a rooted tree, and their undirected views.

A generated digraph adds, for every vertex u, arcs toward u's descendants,
toward left-siblings and their subtrees, toward the subtree of the parent's
nearest-left cousin, and (radius r only) toward shallow descendants of the
r-th ancestor and of its nearest-left cousin.  The legacy construction is one
setting of the same generator: with `legacy=True` the third rule fires only
when the parent's nearest-left cousin is also its sibling.  It is kept because
its failure on an 11-vertex prefix is reproduced by the analytics module.

Edge counts of every preorder prefix, undirected and per rule tag, come from
one pass over the arcs (`prefix_counts`).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

from .tree_core import RootedTree, ith_ancestor, nearest_left_cousin
from .balanced_trees import perfect_binary

# Arc tag bits.  One arc may carry several tags; tag counts are therefore
# with multiplicity while undirected totals count each pair once.
TAG_TREE = 1
TAG_DESCENDANT = 2      # rule 1: u -> descendants of u
TAG_LEFT_SIBLING = 4    # rule 2: u -> left-siblings and their subtrees
TAG_COUSIN_SUBTREE = 8  # rule 3: u -> subtree of parent's nearest-left cousin
TAG_RADIUS = 16         # rule 4: u -> shallow descendants of the r-th ancestor

TAG_NAMES = {
    TAG_TREE: "tree",
    TAG_DESCENDANT: "descendant",
    TAG_LEFT_SIBLING: "left_sibling",
    TAG_COUSIN_SUBTREE: "cousin_subtree",
    TAG_RADIUS: "radius",
}


class UndirectedGraph:
    """A simple undirected graph with an implicit vertex ordering 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges):
        self.n = n
        norm = set()
        for u, w in edges:
            if u == w:
                raise ValueError("self-loop")
            a, b = (u, w) if u < w else (w, u)
            if not (0 <= a and b < n):
                raise ValueError("edge endpoint out of range")
            norm.add((a, b))
        self.edges = frozenset(norm)
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in norm:
            adj[a].add(b)
            adj[b].add(a)
        self.adj = tuple(frozenset(s) for s in adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, w: int) -> bool:
        return w in self.adj[u]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def induced_prefix(self, m: int) -> "UndirectedGraph":
        return UndirectedGraph(
            m, [(a, b) for a, b in self.edges if b < m])

    def induced(self, vertices: Sequence[int]) -> "UndirectedGraph":
        """Induced subgraph relabeled along the given vertex order."""
        idx = {v: i for i, v in enumerate(vertices)}
        edges = [(idx[a], idx[b]) for a, b in self.edges
                 if a in idx and b in idx]
        return UndirectedGraph(len(vertices), edges)

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        return (isinstance(other, UndirectedGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={self.edge_count})"


@dataclass
class GeneratedDigraph:
    """Arcs generated from a rooted tree, each tagged by the rules producing it."""

    source: RootedTree
    radius: int
    arcs: dict = field(repr=False)  # (u, w) -> tag bitmask
    legacy: bool = False

    def underlying(self) -> UndirectedGraph:
        return underlying(self)

    @property
    def n(self) -> int:
        return self.source.n


def _add(arcs: dict, u: int, w: int, tag: int) -> None:
    if u == w:
        return
    key = (u, w)
    arcs[key] = arcs.get(key, 0) | tag


def generate(tree: RootedTree, radius: int,
             legacy: bool = False) -> GeneratedDigraph:
    """Apply the four generation rules with the given radius to every vertex.

    With `legacy`, the third rule points at the parent's nearest-left
    *sibling* instead of its nearest-left cousin, so vertices whose parent is
    a leftmost child get nothing from it.  A left sibling, when there is one,
    is always the nearest-left cousin.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    arcs: dict = {}
    for u in range(tree.n):
        for c in tree.children[u]:
            _add(arcs, u, c, TAG_TREE)
        # rule 1: all proper descendants
        for w in range(u + 1, u + tree.sizes[u]):
            _add(arcs, u, w, TAG_DESCENDANT)
        # rule 2: each left-sibling and its whole subtree
        p = tree.parent[u]
        if p is not None:
            for sib in tree.children[p]:
                if sib >= u:
                    break
                for w in tree.descendant_interval(sib):
                    _add(arcs, u, w, TAG_LEFT_SIBLING)
            # rule 3: the subtree of the parent's nearest-left cousin
            lc = nearest_left_cousin(tree, p)
            if lc is not None and (not legacy or tree.parent[lc] == tree.parent[p]):
                for w in tree.descendant_interval(lc):
                    _add(arcs, u, w, TAG_COUSIN_SUBTREE)
        # rule 4: descendants within `radius` levels below the (clamped)
        # radius-th ancestor and below its nearest-left cousin
        if radius > 0:
            anchor = ith_ancestor(tree, u, radius)
            targets = [anchor]
            alc = nearest_left_cousin(tree, anchor)
            if alc is not None:
                targets.append(alc)
            for t in targets:
                lo, hi = t, t + tree.sizes[t]
                for lvl in range(tree.levels[t] + 1,
                                 min(tree.levels[t] + radius, tree.depth) + 1):
                    row = tree.level_order[lvl]
                    for i in range(bisect_left(row, lo), bisect_right(row, hi - 1)):
                        _add(arcs, u, row[i], TAG_RADIUS)
    return GeneratedDigraph(tree, radius, arcs, legacy=legacy)


def legacy_generate(k: int) -> GeneratedDigraph:
    """The legacy (sibling-rule) radius-0 graph of the perfect binary tree."""
    return generate(perfect_binary(k), 0, legacy=True)


def underlying(digraph: GeneratedDigraph) -> UndirectedGraph:
    """Forget orientations and tags; deduplicate pairs."""
    return UndirectedGraph(digraph.n, digraph.arcs.keys())


def admissible_induced(digraph: GeneratedDigraph, m: int) -> UndirectedGraph:
    """Undirected subgraph induced on the preorder prefix {0,..,m-1}."""
    if not (0 <= m <= digraph.n):
        raise ValueError(f"prefix size {m} out of range 0..{digraph.n}")
    return underlying(digraph).induced_prefix(m)


@dataclass
class PrefixCounts:
    """Edge counts of every preorder prefix: entry m of each column counts
    what lies inside {0,..,m-1}.  `pairs` counts undirected pairs; `tags`
    maps each tag name to its directed arc count (with multiplicity)."""

    pairs: list
    tags: dict

    def by_type(self, m: int) -> dict:
        return {name: col[m] for name, col in self.tags.items()}


def prefix_counts(digraph: GeneratedDigraph) -> PrefixCounts:
    """One pass over the arcs.  An arc lies in the prefixes of size
    max(u, w) + 1 and up; a pair is counted once, on its (u < w) arc when
    both orientations exist."""
    n = digraph.n
    arcs = digraph.arcs
    pairs = [0] * (n + 1)
    tags = {bit: [0] * (n + 1) for bit in TAG_NAMES}
    for (u, w), mask in arcs.items():
        m = (u if u > w else w) + 1
        if u < w or (w, u) not in arcs:
            pairs[m] += 1
        for bit, col in tags.items():
            if mask & bit:
                col[m] += 1
    return PrefixCounts(list(accumulate(pairs)),
                        {TAG_NAMES[bit]: list(accumulate(col))
                         for bit, col in tags.items()})


def count_edges_by_type(digraph: GeneratedDigraph) -> dict:
    """Directed arc counts per rule tag (with multiplicity) and undirected total."""
    counts = prefix_counts(digraph)
    out = counts.by_type(digraph.n)
    out["undirected_total"] = counts.pairs[digraph.n]
    out["arcs_total"] = len(digraph.arcs)
    return out


def merged_tree(tree: RootedTree, run: Sequence[int]) -> tuple[RootedTree, tuple[int, ...]]:
    """Hang a consecutive same-level run of subtrees under a fresh root.

    `run` must be consecutive in the left-to-right order of one level, and the
    first and last vertices must either share a parent or have preorder-adjacent
    cousin parents.  Returns the merged tree plus the vertex map `iso` sending
    merged-tree ids to source ids; id 0 (the fresh root) maps to the parent of
    the last run vertex.

    The map is an isomorphism between any generated graph of the merged tree
    and the induced subgraph of the source's generated graph on the mapped
    vertices, which requires the last run parent to be adjacent to everything
    under the first run parent: the parents must coincide, be siblings, or the
    first must live inside the subtree of the last parent's parent's
    nearest-left cousin.  Balanced trees always satisfy this (a vertex with a
    child has a left cousin with a child); unbalanced runs that break it are
    rejected.
    """
    run = list(run)
    if not run:
        raise ValueError("empty run")
    lvl = tree.levels[run[0]]
    if lvl == 0:
        raise ValueError("run cannot contain the root")
    if any(tree.levels[u] != lvl for u in run):
        raise ValueError("run vertices must share a level")
    row = tree.level_order[lvl]
    start = row.index(run[0])
    if list(row[start:start + len(run)]) != run:
        raise ValueError("run must be consecutive on its level")
    first_parent = tree.parent[run[0]]
    last_parent = tree.parent[run[-1]]
    if first_parent != last_parent and \
            nearest_left_cousin(tree, last_parent) != first_parent:
        raise ValueError("run parents must coincide or be adjacent cousins")
    if first_parent != last_parent and \
            tree.parent[first_parent] != tree.parent[last_parent]:
        anchor = nearest_left_cousin(tree, tree.parent[last_parent])
        if anchor is None or not tree.is_ancestor(anchor, first_parent):
            raise ValueError("last run parent cannot reach the first parent's "
                             "subtree; the merge map would not be an isomorphism")

    iso: list[int] = [last_parent]
    children: list[list[int]] = [[]]
    for u in run:
        offset = len(iso) - u
        children[0].append(u + offset)
        for v in tree.descendant_interval(u):
            iso.append(v)
            children.append([c + offset for c in tree.children[v]])
    return RootedTree(children), tuple(iso)


# -- exports --------------------------------------------------------------


def to_dot(digraph: GeneratedDigraph) -> str:
    """Undirected DOT output with preorder id and level labels."""
    tree = digraph.source
    lines = ["graph generated {"]
    for u in range(tree.n):
        lines.append(f'  {u} [label="{u} (L{tree.levels[u]})"];')
    for a, b in sorted(underlying(digraph).edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines)


def to_json(digraph: GeneratedDigraph) -> str:
    g = underlying(digraph)
    arc_types = {
        f"{u},{w}": [TAG_NAMES[bit] for bit in TAG_NAMES if tags & bit]
        for (u, w), tags in sorted(digraph.arcs.items())
    }
    payload = {
        "n": digraph.n,
        "r": digraph.radius,
        "legacy": digraph.legacy,
        "edges": sorted([list(e) for e in g.edges]),
        "arc_types": arc_types,
    }
    return json.dumps(payload, indent=2)

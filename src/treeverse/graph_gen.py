"""Directed edge generators driven by a rooted tree, and their undirected views.

A generated digraph adds, for every vertex u, arcs toward u's descendants,
toward left-siblings and their subtrees, toward the subtree of the parent's
nearest-left cousin, and (radius r only) toward shallow descendants of the
r-th ancestor and of its nearest-left cousin.  The legacy construction is one
setting of the same generator: with `legacy=True` the third rule fires only
when the parent's nearest-left cousin is also its sibling.  It is kept because
its failure on an 11-vertex prefix is reproduced by the analytics module.

The rules are stated once, in `rule_intervals`, as each vertex's runs of ids:
its children, `range`s of ids and slices of level rows.  Rule 3's target
(`_cousin_target`) and rule 4's row spans, which depend only on the
vertex's anchor (`_radius_spans`), are helpers that the edge counter shares.
`generate` only checks the radius; the digraph expands the runs into its
tagged arcs when `arcs` is first read, which only the JSON export and tests
do.  The undirected view (`underlying`) is read from the runs without
building any arcs.  The edge counts of every preorder prefix, undirected and
per rule tag (`prefix_counts`), read no run at all, at any radius: they are
counted from block sizes and from each anchor's spans, with a few bisects
and at most one cousin-target check per span.

An undirected view (`UndirectedGraph`) keeps one neighbour set per vertex and
nothing else; its pair set `edges` is built only when read, for output and
tests.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Sequence

from .tree_core import RootedTree, TreeView, ith_ancestor, nearest_left_cousin

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
    """A simple undirected graph on the vertices 0..n-1, stored only as
    neighbour sets: `adj[u]` is the frozenset of u's neighbours."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, w in edges:
            if u == w:
                raise ValueError("self-loop")
            if not (0 <= u < n and 0 <= w < n):
                raise ValueError("edge endpoint out of range")
            adj[u].add(w)
            adj[w].add(u)
        # freeze in place, so at most one set is held twice
        for u, nbrs in enumerate(adj):
            adj[u] = frozenset(nbrs)
        self.adj = tuple(adj)

    @property
    def edges(self) -> frozenset:
        """Every pair (a, b) with a < b, built on each read."""
        return frozenset((a, b) for a, nbrs in enumerate(self.adj)
                         for b in nbrs if a < b)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def has_edge(self, u: int, w: int) -> bool:
        return w in self.adj[u]

    def induced_prefix(self, m: int) -> "UndirectedGraph":
        """Undirected subgraph induced on the preorder prefix {0,..,m-1}."""
        if not (0 <= m <= self.n):
            raise ValueError(f"prefix size {m} out of range 0..{self.n}")
        return UndirectedGraph(
            m, [(a, b) for a, nbrs in enumerate(self.adj[:m])
                for b in nbrs if a < b < m])

    def induced(self, vertices: Sequence[int]) -> "UndirectedGraph":
        """Induced subgraph relabeled along the given vertex order.  Only
        tests call it; it stays because the benchmark tracer wraps it by
        name."""
        idx = {v: i for i, v in enumerate(vertices)}
        if any(not (0 <= v < self.n) for v in idx):
            raise ValueError("induced vertex out of range")
        if len(idx) != len(vertices):
            raise ValueError("induced vertex repeated")
        adj = self.adj
        return UndirectedGraph(len(vertices), [
            (i, idx[b]) for a, i in idx.items() for b in adj[a]
            if a < b and b in idx])

    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    def __eq__(self, other) -> bool:
        return (isinstance(other, UndirectedGraph)
                and self.n == other.n and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={self.edge_count})"


@dataclass
class GeneratedDigraph:
    """The digraph generated from a rooted tree at a radius.  Its arcs, each
    tagged by the rules producing it, are built on first read and then kept;
    `underlying` never reads them."""

    source: RootedTree
    radius: int
    legacy: bool = False

    @property
    def n(self) -> int:
        return self.source.n

    @cached_property
    def arcs(self) -> dict:
        """(u, w) -> tag bitmask, in the order of u and of u's runs."""
        tree, radius, legacy = self.source, self.radius, self.legacy
        arcs: dict = {}
        get = arcs.get
        for u in range(tree.n):
            for tag, ids in rule_intervals(tree, radius, u, legacy):
                for w in ids:
                    if w != u:
                        key = (u, w)
                        arcs[key] = get(key, 0) | tag
        return arcs


def rule_intervals(tree: RootedTree, radius: int, u: int,
                   legacy: bool = False):
    """Yield u's arcs as `(tag, ids)` runs, in the order `generate` adds them.

    Each run is u's children, a `range` of ids, or a slice of a level row:
    the children; the descendants; the left-sibling block; the cousin
    subtree (rule 3, see `generate` for `legacy`); and, with a positive
    radius, one slice per level below each radius target.  A radius slice
    may hold u itself, which makes no arc.
    """
    sizes = tree.sizes
    yield TAG_TREE, tree.children[u]
    # rule 1: all proper descendants
    yield TAG_DESCENDANT, range(u + 1, u + sizes[u])
    p = tree.parent[u]
    if p is not None:
        # rule 2: each left sibling and its whole subtree, which in preorder
        # are exactly the ids between the parent and u
        yield TAG_LEFT_SIBLING, range(p + 1, u)
        # rule 3: the subtree of the parent's nearest-left cousin
        lc = _cousin_target(tree, p, legacy)
        if lc is not None:
            yield TAG_COUSIN_SUBTREE, tree.descendant_interval(lc)
    # rule 4: the spans of u's (clamped) radius-th ancestor
    if radius > 0:
        rows = tree.level_order
        for lvl, lo, hi in _radius_spans(tree, radius,
                                         ith_ancestor(tree, u, radius)):
            yield TAG_RADIUS, rows[lvl][lo:hi]


def _cousin_target(tree: RootedTree, p: int, legacy: bool) -> int | None:
    """Rule 3's target for the children of p: p's nearest-left cousin, which
    the legacy setting takes only when it is also p's sibling."""
    lc = nearest_left_cousin(tree, p)
    if lc is not None and (not legacy or tree.parent[lc] == tree.parent[p]):
        return lc
    return None


def _radius_spans(tree: RootedTree, radius: int,
                  anchor: int) -> list[tuple[int, int, int]]:
    """Rule 4's runs of every vertex whose (clamped) radius-th ancestor is
    `anchor`: the descendants within `radius` levels below the anchor and
    below its nearest-left cousin, as `(level, lo, hi)` for the positions
    lo..hi-1 of that level's row, one span per level."""
    sizes, levels, rows = tree.sizes, tree.levels, tree.level_order
    depth = len(rows) - 1
    alc = nearest_left_cousin(tree, anchor)
    spans = []
    for t in (anchor,) if alc is None else (anchor, alc):
        last = t + sizes[t] - 1
        for lvl in range(levels[t] + 1, min(levels[t] + radius, depth) + 1):
            row = rows[lvl]
            spans.append((lvl, bisect_left(row, t), bisect_right(row, last)))
    return spans


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
    return GeneratedDigraph(tree, radius, legacy=legacy)


def underlying(digraph: GeneratedDigraph) -> UndirectedGraph:
    """Forget orientations and tags: u's out-neighbours are the union of its
    runs minus u, read without building the digraph's arcs."""
    tree, radius, legacy = digraph.source, digraph.radius, digraph.legacy

    def out(u: int) -> set:
        ids: set[int] = set()
        for _, run in rule_intervals(tree, radius, u, legacy):
            ids.update(run)
        ids.discard(u)
        return ids

    return UndirectedGraph(tree.n, chain.from_iterable(
        zip(repeat(u), out(u)) for u in range(tree.n)))


@dataclass
class PrefixCounts:
    """Edge counts of every preorder prefix: entry m of each column counts
    what lies inside {0,..,m-1}.  `pairs` counts undirected pairs; `tags`
    maps each tag name to its directed arc count (with multiplicity)."""

    pairs: list
    tags: dict

    def by_type(self, m: int) -> dict:
        return {name: col[m] for name, col in self.tags.items()}


def prefix_counts(tree: RootedTree, radius: int,
                  legacy: bool = False) -> PrefixCounts:
    """Edge counts of every preorder prefix of `generate(tree, radius,
    legacy)`, counted from block sizes and radius spans without expanding
    any run into its ids.

    An arc lies in the prefixes of size max(u, w) + 1 and up.  The block
    rules are counted by size: the tree arc into each non-root w and the
    level(w) descendant arcs into w land at w + 1, and u's left-sibling
    block and cousin subtree, all below u, at u + 1.  The radius spans of a
    vertex depend only on its anchor, the clamped radius-th ancestor, so
    they are read once per anchor and shared.  A span's ids below u land at
    u + 1 by one bisect; its ids above u take one step of a difference array
    along their level row, and each row is summed once at the end.

    Only a span row above u's level can hold an upward pair u -> w that no
    run of w counts.  On that row, past the children of x, the parent of
    u's ancestor there, no w holds u in its tree or descendant runs (w > u),
    nor in its left-sibling block (w's parent comes after x's subtree), nor
    in its radius spans: they reach down only to w's level, or, clamped at
    the root, only to level `radius`, above u, whose anchor is not the root.
    Only rule 3 can hold u: it does for the children of q, the parent of
    the first such w, exactly when q's cousin target is x.  So every other
    w in the span makes a new pair, and the range of them is one step of a
    second difference array along the row.  At radius <= 2 the range is
    always empty: the row is then the row of u's parent, whose span ids
    above u are all children of u's anchor, which is x.  The bound tables
    count at radius 0 and 2 only.

    A pair is counted at its larger end v, as one of v's lower neighbours.
    Rules 2 and 3 only point to smaller ids and rule 1 only to larger ones,
    so the only arcs into v from a smaller id come from v's ancestors and
    from the radius rule.  v's lower neighbours are therefore three disjoint
    blocks -- its level(v) ancestors, its left-sibling block and its cousin
    subtree -- plus the radius rule's lower neighbours outside them.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n, parent, sizes, levels = tree.n, tree.parent, tree.sizes, tree.levels
    rows = tree.level_order
    pairs = [0] * (n + 1)
    left = [0] * (n + 1)
    cousin = [0] * (n + 1)
    near = [0] * (n + 1)  # radius arcs, at their larger end
    # radius arcs to ids above u, as a difference array along each level row
    steps = [[0] * (len(row) + 1) for row in rows]
    # new upward pairs, the same way, for the rows that have any
    fresh: dict = {}
    # each vertex's clamped radius-th ancestor (`ith_ancestor`)
    anchors = list(range(n))
    for _ in range(min(radius, len(rows) - 1)):
        anchors = [parent[a] if a else 0 for a in anchors]
    spans_of: dict = {}
    for u in range(n):
        lower = levels[u]
        p = parent[u]
        blocks = ()
        if p is not None:
            # a block is whole subtrees whose roots sit at its top level, so
            # only rows from that level down can meet it
            if u - p - 1:
                left[u + 1] = u - p - 1
                lower += u - p - 1
                blocks = ((levels[u], p + 1, u),)
            lc = _cousin_target(tree, p, legacy)
            if lc is not None:
                cousin[u + 1] = sizes[lc]
                lower += sizes[lc]
                blocks += ((levels[p], lc, lc + sizes[lc]),)
        if radius:
            a = anchors[u]
            spans = spans_of.get(a)
            if spans is None:
                spans = spans_of[a] = [
                    (lvl, rows[lvl], steps[lvl], lo, hi)
                    for lvl, lo, hi in _radius_spans(tree, radius, a)
                    if lo < hi]
            for lvl, row, step, lo, hi in spans:
                mid = bisect_left(row, u, lo, hi)
                if mid > lo:
                    near[u + 1] += mid - lo
                    # the last id below u is the only one that can be its
                    # ancestor
                    b = row[mid - 1]
                    lower += mid - lo - (b + sizes[b] > u)
                    for top, start, stop in blocks:
                        if lvl >= top:
                            lower -= (bisect_left(row, stop, lo, mid)
                                      - bisect_left(row, start, lo, mid))
                if mid < hi and row[mid] == u:
                    mid += 1
                if mid < hi:
                    step[mid] += 1
                    step[hi] -= 1
                    # Every id above u lies under u's anchor (the subtree
                    # of its cousin precedes u).  A w with that same anchor
                    # counts the pair itself: any w on u's own level, and
                    # every w when the anchor is the root (then u is the
                    # root, and so w's ancestor, or lies within radius of
                    # the root, where w's radius rule reaches).  Otherwise the
                    # row lies above u's level, row[mid - 1] is u's
                    # ancestor there, and the children of that ancestor's
                    # parent x hold u in their left-sibling block.  Past
                    # them only rule 3 can hold u, for the children of the
                    # next parent q when x is q's cousin target.
                    if a and lvl != levels[u]:
                        x = parent[row[mid - 1]]
                        first = bisect_left(row, x + sizes[x], mid, hi)
                        if first < hi:
                            q = parent[row[first]]
                            if _cousin_target(tree, q, legacy) == x:
                                first = min(hi, first + len(tree.children[q]))
                            if lvl not in fresh:
                                fresh[lvl] = [0] * (len(row) + 1)
                            fresh[lvl][first] += 1
                            fresh[lvl][hi] -= 1
        pairs[u + 1] += lower
    for row, step in zip(rows, steps):
        for w, above in zip(row, accumulate(step)):
            near[w + 1] += above
    for lvl, new in fresh.items():
        for w, above in zip(rows[lvl], accumulate(new)):
            pairs[w + 1] += above
    return PrefixCounts(list(accumulate(pairs)), {
        TAG_NAMES[TAG_TREE]: [0, *range(n)],
        TAG_NAMES[TAG_DESCENDANT]: [0, *accumulate(levels)],
        TAG_NAMES[TAG_LEFT_SIBLING]: list(accumulate(left)),
        TAG_NAMES[TAG_COUSIN_SUBTREE]: list(accumulate(cousin)),
        TAG_NAMES[TAG_RADIUS]: list(accumulate(near)),
    })


def merged_tree(tree: RootedTree | TreeView,
                run: Sequence[int]) -> tuple[RootedTree, tuple[int, ...]]:
    """Hang a consecutive same-level run of subtrees under a fresh root.

    `tree` may be a `TreeView`; the run and `iso` are then in the view's
    ids, and each run subtree is cut at the view's end.

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
    view = tree if isinstance(tree, TreeView) else TreeView(tree)
    run = list(run)
    if not run:
        raise ValueError("empty run")
    if any(not (0 <= u < view.n) for u in run):
        raise ValueError("run vertex out of range")
    # only view vertex 0 sits at the view root's level
    if run[0] == 0:
        raise ValueError("run cannot contain the root")
    base, lo = view.base, view.lo
    first = lo + run[0]
    row = base.level_order[base.levels[first]]
    start = bisect_left(row, first)
    # the slice holds only ids on run[0]'s level, each above lo + run[0] after
    # the first, so this also refuses a run that leaves the level
    if list(row[start:start + len(run)]) != [lo + u for u in run]:
        raise ValueError("run must be consecutive on its level")
    # the parents in base ids: the view's root is alone on its level, so two
    # different run parents both lie below it in the view, and a cousin or an
    # anchor outside the view can neither equal nor hold the first of them
    first_parent = base.parent[first]
    last_parent = base.parent[lo + run[-1]]
    if first_parent != last_parent and \
            nearest_left_cousin(base, last_parent) != first_parent:
        raise ValueError("run parents must coincide or be adjacent cousins")
    if first_parent != last_parent and \
            base.parent[first_parent] != base.parent[last_parent]:
        anchor = nearest_left_cousin(base, base.parent[last_parent])
        if anchor is None or not anchor <= first_parent < anchor + base.sizes[anchor]:
            raise ValueError("last run parent cannot reach the first parent's "
                             "subtree; the merge map would not be an isomorphism")

    end = lo + view.n
    iso: list[int] = [0 if last_parent == view.root else last_parent - lo]
    children: list[list[int]] = [[]]
    for u in run:
        size = view.size(u)
        shift = len(iso) - u - lo   # base id -> merged id
        children[0].append(len(iso))
        for v in range(lo + u, lo + u + size):
            children.append([c + shift for c in base.children[v] if c < end])
        iso.extend(range(u, u + size))
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


def _json_block(brackets: str, items: list, indent: str) -> str:
    """A JSON array or object of items already written, in the layout of
    `json.dumps(..., indent=2)`: one item a line, two spaces deeper than
    the closing bracket, which `indent` precedes."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return (brackets[0] + inner + ("," + inner).join(items)
            + "\n" + indent + brackets[1])


def to_json(digraph: GeneratedDigraph) -> str:
    """The undirected pairs as sorted [min, max] arrays, and every arc's
    tags; both are read off the tagged arcs.  The text is what
    `json.dumps(payload, indent=2)` writes, written here directly, since
    that call never takes CPython's C encoder."""
    arcs = digraph.arcs
    # an arc key already in order is its own pair
    pairs = sorted({a if a[0] < a[1] else (a[1], a[0]) for a in arcs})
    tag_lists = {tags: _json_block("[]", [f'"{TAG_NAMES[bit]}"'
                                          for bit in TAG_NAMES if tags & bit],
                                   "    ")
                 for tags in set(arcs.values())}
    fields = [
        f'"n": {json.dumps(digraph.n)}',
        f'"r": {json.dumps(digraph.radius)}',
        f'"legacy": {json.dumps(digraph.legacy)}',
        '"edges": ' + _json_block(
            "[]", [f"[\n      {a},\n      {b}\n    ]" for a, b in pairs], "  "),
        '"arc_types": ' + _json_block(
            "{}", [f'"{u},{w}": {tag_lists[tags]}'
                   for (u, w), tags in sorted(arcs.items())], "  "),
    ]
    return _json_block("{}", fields, "")

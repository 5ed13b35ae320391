"""Tree builders, tree keys, a graph check and a `check_vertex` counter
shared by the test modules, so that no test module imports another.  Each builder is defined here once, and
no test module defines a function of the same name
(`tests/test_package.py` checks it)."""

from __future__ import annotations

import heapq
from itertools import groupby
from math import factorial
from typing import Optional

from treeverse.balanced_trees import validate_balance
from treeverse.graph_gen import UndirectedGraph
from treeverse.tree_core import RootedTree, TreeView, build_tree, from_parens


def count_vertex_checks(monkeypatch):
    """Count the `check_vertex` calls of every tree and view from here on,
    in the returned one-entry list."""
    calls = [0]
    check = RootedTree.check_vertex

    def counting(self, u):
        calls[0] += 1
        return check(self, u)

    monkeypatch.setattr(RootedTree, "check_vertex", counting)
    monkeypatch.setattr(TreeView, "check_vertex", counting)
    return calls


def path_tree(n):
    return RootedTree([[u + 1] if u + 1 < n else [] for u in range(n)])


def star_tree(n):
    return RootedTree([list(range(1, n))] + [[] for _ in range(n - 1)])


def rand_tree(rng, n):
    """A random recursive tree: each vertex after the first hangs from a
    uniformly drawn earlier one."""
    children = [[] for _ in range(n)]
    for u in range(1, n):
        children[rng.randrange(u)].append(u)
    return build_tree(children)


def prufer_edges(seq, n):
    """The edges of the labelled tree on n >= 2 vertices with Prüfer
    sequence `seq`: each step joins the smallest leaf to the next entry."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def rooted_at_zero(edges, n):
    """The tree on vertices 0..n-1 with these edges, rooted at 0."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    children = [[] for _ in range(n)]
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                children[u].append(v)
                stack.append(v)
    return build_tree(children)


def prufer_tree(rng, n):
    """A uniform random labelled tree on n >= 2 vertices, rooted at 0."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return rooted_at_zero(prufer_edges(seq, n), n)


def spider_tree(legs):
    """A centre with legs of the given lengths, in order."""
    children = [[]]
    for leg in legs:
        children[0].append(len(children))
        children += [[len(children) + i + 1] for i in range(leg - 1)] + [[]]
    return RootedTree(children)


def random_spider(rng, n):
    """A centre with legs of random lengths, n vertices in all."""
    legs, u = [], 1
    while u < n:
        legs.append(rng.randint(1, n - u))
        u += legs[-1]
    return spider_tree(legs)


def caterpillar_tree(spine):
    """A path of `spine` vertices with one leaf hung on each."""
    children = []
    for i in range(spine):
        u = len(children)
        children += [[u + 1, u + 2] if i + 1 < spine else [u + 1], []]
    return RootedTree(children)


def random_caterpillar(rng, n):
    """A path with leaves hung on random path vertices, n vertices in all."""
    spine = rng.randint(1, n)
    children = [[v + 1] if v + 1 < spine else [] for v in range(n)]
    for leaf in range(spine, n):
        children[rng.randrange(spine)].append(leaf)
    return build_tree(children)


def random_subset(rng, n):
    """At least two of the ids 0..n-1, n >= 2: two drawn ids, and each other
    id with probability 0.85.  A tree and such a set are the form in which
    the embedder hands a piece to the decomposition finders."""
    pair = rng.sample(range(n), 2)
    return {v for v in range(n) if v in pair or rng.random() < 0.85}


def ordered_trees(n):
    """Every ordered rooted tree on n vertices, in parenthesis form."""
    def forests(m):
        if m == 0:
            yield ""
        for first in range(1, m + 1):
            for head in ordered_trees(first):
                for rest in forests(m - first):
                    yield head + rest
    for inner in forests(n - 1):
        yield "(" + inner + ")"


def balanced_hosts(max_n):
    """Every (2,1)-balanced ordered host with at most max_n vertices, in
    every child order."""
    return [h for n in range(1, max_n + 1)
            for h in map(from_parens, ordered_trees(n))
            if validate_balance(h).ok]


def degree_witness(graph: UndirectedGraph) -> Optional[int]:
    """A vertex adjacent to everything else, if one exists."""
    for u in range(graph.n):
        if len(graph.adj[u]) == graph.n - 1:
            return u
    return None


# -- the per-tree encoder ----------------------------------------------------
# The oracle encodes trees only through its stream-order table
# (`oracle._rooted_encodings`, read by `oracle._free_parents`).  This encoder
# keys one given tree at a time: the tests' reference for that table, and
# their way of picking one marker per automorphism orbit in sweeps.  A tree is
# one `bytes` object, its preorder open/close tokens (b"1" and b"0"), with
# children in (size desc, encoding) order.  It walks and encodes by loops, so
# trees of any depth work under the default recursion limit.


def _walk(tree: RootedTree, root: int,
          avoid: int = -1) -> tuple[list[int], list[int]]:
    """The tree without the branch at root's neighbour `avoid`, walked
    breadth-first from `root`: its vertices in that order, and each vertex's
    neighbour towards the root (`avoid` for the root, -1 off the walk)."""
    up = [-1] * tree.n
    up[root] = avoid
    order = [root]
    for u in order:  # grows while it is read: a breadth-first order
        for v in (*tree.children[u], tree.parent[u]):
            if v is not None and v != up[u]:
                up[v] = u
                order.append(v)
    return order, up


def _tree_to_enc(tree: RootedTree, root: int,
                 avoid: int = -1) -> tuple[bytes, int]:
    """Canonical encoding of the tree re-rooted at `root`, without the
    branch at its neighbour `avoid`, and the order of that rooted tree's
    automorphism group: the product, over its vertices, of k! for each run
    of k equal child encodings.  One bottom-up pass, no recursion."""
    order, up = _walk(tree, root, avoid)
    branches: list = [[] for _ in range(tree.n)]
    automorphisms = 1
    for u in reversed(order):
        subs = sorted(branches[u], key=lambda e: (-len(e), e))
        branches[u] = None  # its children's encodings are no longer needed
        for _, run in groupby(subs):
            automorphisms *= factorial(len(list(run)))
        enc = b"".join((b"1", *subs, b"0"))
        if u != root:
            branches[up[u]].append(enc)
    return enc, automorphisms


def _centers(tree: RootedTree) -> list[int]:
    """The one or two middle vertices of a longest path (unrooted).  A
    breadth-first walk ends at one end of a longest path; a second walk,
    from there, ends at the other, and leads back along the path."""
    end = _walk(tree, 0)[0][-1]
    order, up = _walk(tree, end)
    path = [order[-1]]
    while path[-1] != end:
        path.append(up[path[-1]])
    return sorted(path[(len(path) - 1) // 2:len(path) // 2 + 1])


def _free_key(tree: RootedTree) -> tuple[tuple, int]:
    """The free key of `free_canonical_encoding` and the order of the free
    tree's automorphism group.  Two centers are adjacent, so the tree is
    their two halves joined by an edge; swapping the halves is one more
    automorphism when they are equal."""
    centers = _centers(tree)
    if len(centers) == 1:
        enc, automorphisms = _tree_to_enc(tree, centers[0])
        return (b"c", enc), automorphisms
    a, b = centers
    ha, aut_a = _tree_to_enc(tree, a, b)
    hb, aut_b = _tree_to_enc(tree, b, a)
    return (b"b", *sorted((ha, hb))), aut_a * aut_b * (1 + (ha == hb))


def free_canonical_encoding(tree: RootedTree) -> tuple:
    """Key invariant under free-tree isomorphism: (b"c", the encoding rooted
    at the center), or (b"b", the two half encodings in increasing order)
    for bicentral trees.  The tags keep the two shapes apart."""
    return _free_key(tree)[0]


def free_tree_automorphisms(tree: RootedTree) -> int:
    """Order of the automorphism group of the underlying free tree."""
    return _free_key(tree)[1]


def vertex_orbit_reps(tree: RootedTree) -> list[int]:
    """One vertex per orbit of the free-tree automorphism group (smallest
    id), in linear time.  Every automorphism fixes the center, or the pair
    of centers, so the tree is read rooted there, each center's half without
    the other.  A vertex's shape is the sorted shapes of its children; two
    vertices share an orbit when their parents do and their shapes are
    equal, and two centers when their halves' shapes are.  Shapes and
    orbits are numbered as they are met, so no key grows with the tree."""
    shapes: dict = {}
    orbits: dict = {}
    shape = [0] * tree.n
    orbit = [0] * tree.n
    centers = _centers(tree)
    # for one center, `_walk(tree, c, c)` walks the whole tree from c
    for root, other in zip(centers, reversed(centers)):
        order, up = _walk(tree, root, other)
        for u in reversed(order):
            kids = sorted(shape[v] for v in (*tree.children[u], tree.parent[u])
                          if v is not None and v != up[u])
            shape[u] = shapes.setdefault(tuple(kids), len(shapes))
        orbit[root] = orbits.setdefault((-1, shape[root]), len(orbits))
        for u in order[1:]:
            orbit[u] = orbits.setdefault((orbit[up[u]], shape[u]), len(orbits))
    reps: dict[int, int] = {}
    for v in range(tree.n):
        reps.setdefault(orbit[v], v)
    return sorted(reps.values())

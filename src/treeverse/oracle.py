"""Independent ground truth: exhaustive tree enumeration and brute-force
embedding, with universality deciders built on top.

Everything here is deliberately simple and separate from the constructive
embedder so the two can check each other.  Both deciders scan one lazy
stream of blocks, each with its free trees; with jobs > 1 one process pool
per call checks it, and the first failure cancels the work still pending.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from math import factorial
from typing import Optional

from .tree_core import RootedTree
from .graph_gen import UndirectedGraph

ENUM_GUARD = 16
UNIVERSAL_GUARD = 12
INTERVAL_GUARD = 11


@dataclass(frozen=True)
class CanonicalTreeSet:
    """One canonically-rooted representative per free-tree isomorphism class."""

    n: int
    trees: tuple


@lru_cache(maxsize=None)
def _rooted_encodings(n: int) -> tuple:
    """Canonical nested-tuple encodings of all rooted trees on n vertices,
    in increasing order.

    A tree is encoded as the tuple of its children's encodings, sorted by
    (size desc, encoding); equal encodings mean isomorphic rooted trees.
    """
    if n == 1:
        return ((),)
    candidates = []
    fits = [0] * n  # fits[r]: first candidate of size at most r
    for m in range(n - 1, 0, -1):
        fits[m] = len(candidates)
        candidates.extend((m, enc) for enc in _rooted_encodings(m))
    out: list[tuple] = []

    def rec(i: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for j in range(max(i, fits[remaining]), len(candidates)):
            m, enc = candidates[j]
            acc.append(enc)
            rec(j, remaining - m, acc)  # the same candidate may repeat
            acc.pop()

    rec(0, n - 1, [])
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _enc_height(enc: tuple) -> int:
    return 1 + max(map(_enc_height, enc), default=-1)


def _enc_to_tree(enc: tuple) -> RootedTree:
    children: list[list[int]] = []

    def grow(e: tuple) -> int:
        u = len(children)
        children.append([])
        for c in e:
            children[u].append(grow(c))
        return u

    grow(enc)
    return RootedTree(children)


def _tree_to_enc(tree: RootedTree, root: int) -> tuple:
    """Canonical rooted encoding of the tree re-rooted at `root`."""

    def rec(u: int, parent: Optional[int]) -> tuple:
        # (-size, encoding) pairs sort branches by (size desc, encoding)
        branches = (*tree.children[u], tree.parent[u])
        subs = sorted([rec(v, u) for v in branches if v not in (None, parent)])
        return sum(s for s, _ in subs) - 1, tuple(e for _, e in subs)

    return rec(root, None)[1]


def _centers(tree: RootedTree) -> list[int]:
    """The one or two middle vertices of a longest path (unrooted)."""
    n = tree.n
    if n == 1:
        return [0]
    deg = [len(tree.children[u]) + (tree.parent[u] is not None)
           for u in range(n)]
    alive = n
    removed = [False] * n
    layer = [u for u in range(n) if deg[u] == 1]
    while alive > 2:
        nxt = []
        for u in layer:
            removed[u] = True
            alive -= 1
            nbrs = list(tree.children[u])
            if tree.parent[u] is not None:
                nbrs.append(tree.parent[u])
            for v in nbrs:
                if not removed[v]:
                    deg[v] -= 1
                    if deg[v] == 1:
                        nxt.append(v)
        layer = nxt
    return sorted(u for u in range(n) if not removed[u])


def _center_key(enc: tuple) -> Optional[tuple]:
    """Free key of the tree with this canonical encoding if its root is a
    center, else None.  The root is the only center when its two tallest
    branches are equal, and one of two when the tallest is one level taller;
    the halves are then that branch and the rest, and only the root of the
    smaller half gets the key."""
    heights = [_enc_height(c) for c in enc]
    h1, h2 = sorted(heights + [-1, -1], reverse=True)[:2]
    if h1 == h2:
        return ("c", enc)
    if h1 != h2 + 1:
        return None
    i = heights.index(h1)
    rest, tallest = enc[:i] + enc[i + 1:], enc[i]
    return ("b", rest, tallest) if rest <= tallest else None


def free_canonical_encoding(tree: RootedTree) -> tuple:
    """Key invariant under free-tree isomorphism: the encoding rooted at the
    center, or the sorted pair of half encodings for bicentral trees.  Keys
    are tagged so the two shapes never collide."""
    return next(key for c in _centers(tree)
                if (key := _center_key(_tree_to_enc(tree, c))) is not None)


def enumerate_free_trees(n: int) -> CanonicalTreeSet:
    """Exactly one representative per isomorphism class of free n-vertex trees,
    rooted at a center, in order of free key."""
    if not (1 <= n <= ENUM_GUARD):
        raise ValueError(f"n must be in 1..{ENUM_GUARD}")
    keyed = sorted((key, enc) for enc in _rooted_encodings(n)
                   if (key := _center_key(enc)) is not None)
    return CanonicalTreeSet(n, tuple(_enc_to_tree(enc) for _, enc in keyed))


@lru_cache(maxsize=None)
def _enc_automorphisms(enc: tuple) -> int:
    """Order of the automorphism group of a rooted tree given by encoding."""
    total = 1
    run = 1
    for i, child in enumerate(enc):
        total *= _enc_automorphisms(child)
        if i > 0 and enc[i] == enc[i - 1]:
            run += 1
        else:
            run = 1
        if i + 1 == len(enc) or enc[i + 1] != enc[i]:
            total *= factorial(run)
    return total


def free_tree_automorphisms(tree: RootedTree) -> int:
    """Order of the automorphism group of the underlying free tree."""
    key = free_canonical_encoding(tree)
    if key[0] == "c":
        return _enc_automorphisms(key[1])
    _, ha, hb = key
    return _enc_automorphisms(ha) * _enc_automorphisms(hb) * (1 + (ha == hb))


def vertex_orbit_reps(tree: RootedTree) -> list[int]:
    """One vertex per orbit of the free-tree automorphism group (smallest id)."""
    reps: dict[tuple, int] = {}
    for v in range(tree.n):
        key = _tree_to_enc(tree, v)
        reps.setdefault(key, v)
    return sorted(reps.values())


# -- brute-force embedding -------------------------------------------------


def brute_embed(guest: RootedTree, graph: UndirectedGraph) -> Optional[dict]:
    """Exhaustive backtracking search for a subgraph embedding of the guest.

    Guest vertices are placed in preorder, so each non-root vertex only
    scans the neighbours of its parent's image, in increasing id, and the
    root scans every host id in increasing order.  A candidate must be
    unused and have at least the guest vertex's degree.  Returns an
    injective edge-preserving map, or None when none exists.

    Twin rule: a guest leaf whose preorder predecessor is a leaf with the
    same parent must take a larger host id than that predecessor.  This
    changes no result.  The plain search enumerates valid image vectors
    (images of vertices 0..n-1) in lexicographic order and returns the
    first.  In that first vector twin leaves are already increasing: were
    they not, swapping their two images would give a valid vector (both
    leaves have degree 1 and the same parent, so both images are adjacent
    to the parent's image), equal before the first twin and smaller there.
    The rule only skips vectors that are not the first, and spares the
    search every ordering of interchangeable leaves.

    The search runs from an explicit stack, so a deep guest does not
    recurse.  Entry i holds vertex i's remaining candidates with the bounds
    they must meet: its degree and, for a twin leaf, the image of its
    predecessor.  Each neighbour list is sorted when the search steps into
    it, so a call sorts only the lists it reaches.
    """
    n, m = guest.n, graph.n
    if n > m:
        return None
    parent, children, adj = guest.parent, guest.children, graph.adj
    used = [False] * m
    image = [0] * n
    stack = [(iter(range(m)), len(children[0]), -1)]
    while stack:
        candidates, need, low = stack[-1]
        for h in candidates:
            if h > low and not used[h] and len(adj[h]) >= need:
                break
        else:
            stack.pop()
            if stack:
                used[image[len(stack) - 1]] = False
            continue
        i = len(stack) - 1
        image[i] = h
        used[h] = True
        if i + 1 == n:
            return dict(enumerate(image))
        j, p = i + 1, parent[i + 1]
        twin = p == parent[i] and not children[j]  # then i is a leaf too
        stack.append((iter(sorted(adj[image[p]])), len(children[j]) + 1,
                      h if twin else -1))
    return None


def _blocks(graph: UndirectedGraph, sizes):
    """Lazily, for each size m in turn, each block of m consecutive ids as
    (offset, m, block, free trees on m vertices).  The block of all ids is
    the graph itself, not an induced copy."""
    for m in sizes:
        trees = enumerate_free_trees(m).trees
        for i in range(graph.n - m + 1):
            block = graph if m == graph.n else graph.induced(range(i, i + m))
            yield i, m, block, trees


def _first_failure(blocks, jobs: int):
    """(offset, m, tree) for the first tree in stream order that does not
    embed in its block, or None.  Blocks are read one at a time, none past
    the first failure.  With jobs > 1 one pool checks every block; the
    first failure shuts it down and cancels the work still pending."""
    pool = None
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs)
    run = partial(pool.map, chunksize=8) if pool else map
    try:
        for i, m, block, trees in blocks:
            found = run(brute_embed, trees, repeat(block))
            for tree, embedding in zip(trees, found):
                if embedding is None:
                    return i, m, tree
        return None
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def check_size(n: int, interval: bool = False,
               unsafe_large: bool = False) -> None:
    """Refuse an n-vertex graph above the universality (or, with `interval`,
    the interval-universality) guard unless `unsafe_large` is set."""
    guard = INTERVAL_GUARD if interval else UNIVERSAL_GUARD
    if n > guard and not unsafe_large:
        raise ValueError(f"guard: n={n} exceeds {guard} "
                         "(pass unsafe_large to override)")


def is_universal(graph: UndirectedGraph, unsafe_large: bool = False,
                 jobs: int = 1) -> tuple[bool, Optional[RootedTree]]:
    """Whether every free tree on |graph| vertices embeds; first failure if not."""
    check_size(graph.n, unsafe_large=unsafe_large)
    failure = _first_failure(_blocks(graph, [graph.n]), jobs)
    if failure is None:
        return True, None
    return False, failure[2]


def is_interval_universal(graph: UndirectedGraph, unsafe_large: bool = False,
                          jobs: int = 1) -> tuple[bool, Optional[tuple]]:
    """Whether every block {i,..,i+m-1} of consecutive vertex ids induces a
    universal graph for trees on m vertices.  Returns the first failing
    (offset, size, tree) witness otherwise."""
    check_size(graph.n, interval=True, unsafe_large=unsafe_large)
    failure = _first_failure(_blocks(graph, range(1, graph.n + 1)), jobs)
    return failure is None, failure


def degree_witness(graph: UndirectedGraph) -> Optional[int]:
    """A vertex adjacent to everything else, if one exists."""
    for u in range(graph.n):
        if graph.degree(u) == graph.n - 1:
            return u
    return None

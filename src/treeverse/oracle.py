"""Independent ground truth: exhaustive tree enumeration and brute-force
embedding, with universality deciders built on top.

Everything here is deliberately simple and separate from the constructive
embedder so the two can check each other.  Both deciders scan one lazy
stream of blocks, each as its sorted neighbour tuples with the free trees
of its size as preorder parent tuples; with jobs > 1 one process pool per
call checks it, and the first failure cancels the work still pending.
Trees are built only at the edge: `enumerate_free_trees`, and the witness
a decider returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from math import factorial
from operator import itemgetter
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
def _rooted_encodings(n: int) -> tuple[tuple, bytes, bytes, bytes]:
    """Canonical nested-tuple encodings of all rooted trees on n vertices,
    in increasing order, with the shape the free-tree filter reads.

    A tree is encoded as the tuple of its children's encodings, sorted by
    (size desc, encoding); equal encodings mean isomorphic rooted trees.
    Returns (encs, heights, tallest, seconds), the last three one byte per
    encoding: encs[j] has height heights[j], its first child of height
    heights[j] - 1 is child tallest[j], and seconds[j] is one more than the
    height of its second-tallest child (0 with fewer than two children).
    """
    if n == 1:
        return ((),), b"\0", b"\0", b"\0"
    candidates = []  # (size, encoding, height)
    fits = [0] * n  # fits[r]: first candidate of size at most r
    for m in range(n - 1, 0, -1):
        fits[m] = len(candidates)
        encs, heights = _rooted_encodings(m)[:2]
        candidates.extend(zip(repeat(m), encs, heights))
    out: list[tuple] = []
    shape = [bytearray(), bytearray(), bytearray()]  # heights, tallest, seconds
    add_height, add_tallest, add_second = (a.append for a in shape)

    def rec(i: int, remaining: int, acc: list, h1: int, top: int,
            h2: int) -> None:
        # h1, h2: heights of the two tallest children so far (-1 for none);
        # top: index of the first child of height h1
        if remaining == 0:
            out.append(tuple(acc))
            add_height(h1 + 1)
            add_tallest(top)
            add_second(h2 + 1)
            return
        pos = len(acc)
        for j in range(max(i, fits[remaining]), len(candidates)):
            m, enc, h = candidates[j]
            acc.append(enc)
            # recurse from j, not j + 1: the same candidate may repeat
            if h > h1:
                rec(j, remaining - m, acc, h, pos, h1)
            elif h > h2:
                rec(j, remaining - m, acc, h1, top, h)
            else:
                rec(j, remaining - m, acc, h1, top, h2)
            acc.pop()

    rec(0, n - 1, [], -1, 0, -1)
    order = sorted(range(len(out)), key=out.__getitem__)
    return (tuple(map(out.__getitem__, order)),
            *(bytes(map(a.__getitem__, order)) for a in shape))


@lru_cache(maxsize=None)
def _enc_height(enc: tuple) -> int:
    return 1 + max(map(_enc_height, enc), default=-1)


def _flatten(enc: tuple) -> tuple:
    """Preorder parent tuple of the tree with this encoding (the root's
    parent is None), built from an explicit stack: each step runs down a
    chain of first children and stacks the later siblings."""
    parent: list[Optional[int]] = []
    stack = [(enc, None)]
    pop, push, add = stack.pop, stack.extend, parent.append
    while stack:
        e, p = pop()
        while e:
            u = len(parent)
            add(p)
            if len(e) > 1:
                push(zip(reversed(e[1:]), repeat(u)))
            e, p = e[0], u
        add(p)
    return tuple(parent)


def _parents_to_tree(parent: tuple) -> RootedTree:
    children: list[list[int]] = [[] for _ in parent]
    for v in range(1, len(parent)):
        children[parent[v]].append(v)
    return RootedTree(children)


def _enc_to_tree(enc: tuple) -> RootedTree:
    return _parents_to_tree(_flatten(enc))


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


def _free_parents(n: int) -> list[tuple]:
    """One preorder parent tuple per isomorphism class of free n-vertex
    trees, rooted at a center, in order of free key.

    The filter of `_center_key` read off the stored shape: a centred root
    has two tallest branches of equal height, and a bicentral one a tallest
    branch one level taller than the rest, kept when the rest encodes no
    larger than that branch.  Bicentral keys ("b", rest, branch) sort
    before centred keys ("c", encoding), and those in the table's order.
    """
    if not (1 <= n <= ENUM_GUARD):
        raise ValueError(f"n must be in 1..{ENUM_GUARD}")
    encs, heights, tallest, seconds = _rooted_encodings(n)
    bicentral, centred = [], []
    for enc, h, i, s in zip(encs, heights, tallest, seconds):
        if h == s:
            centred.append(enc)
        elif h == s + 1:
            rest, tall = enc[:i] + enc[i + 1:], enc[i]
            if rest <= tall:
                bicentral.append(((rest, tall), enc))
    bicentral.sort(key=itemgetter(0))
    return ([_flatten(enc) for _, enc in bicentral]
            + [_flatten(enc) for enc in centred])


def enumerate_free_trees(n: int) -> CanonicalTreeSet:
    """Exactly one representative per isomorphism class of free n-vertex trees,
    rooted at a center, in order of free key."""
    return CanonicalTreeSet(n, tuple(map(_parents_to_tree, _free_parents(n))))


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

    The search itself is `_search`, on the guest's parent tuple and the
    host's neighbour tuples, each sorted once before it starts.
    """
    image = _search(guest.parent, _sorted_neighbours(graph.adj, 0, graph.n))
    return None if image is None else dict(enumerate(image))


def _sorted_neighbours(adj, lo: int, m: int) -> tuple:
    """The block of ids lo..lo+m-1 relabelled from 0: each vertex's
    neighbours inside the block as an increasing tuple."""
    hi = lo + m
    return tuple(tuple(v - lo for v in sorted(adj[u]) if lo <= v < hi)
                 for u in range(lo, hi))


def _search(parent: tuple, nbrs: tuple) -> Optional[list]:
    """`brute_embed` on flat data: the guest as a preorder parent tuple, the
    host as increasing neighbour tuples.  Returns the images of the guest
    vertices in order, or None.

    The search runs from an explicit stack, so a deep guest does not
    recurse.  Entry i holds vertex i's remaining candidates with the bounds
    they must meet: its degree and, for a twin leaf, the image of its
    predecessor.
    """
    n, m = len(parent), len(nbrs)
    if n > m:
        return None
    degree = [1] * n  # of each guest vertex: its children and its parent
    degree[0] = 0
    for v in range(1, n):
        degree[parent[v]] += 1
    host_degree = list(map(len, nbrs))
    used = [False] * m
    image = [0] * n
    stack = [(iter(range(m)), degree[0], -1)]
    while stack:
        candidates, need, low = stack[-1]
        for h in candidates:
            if h > low and not used[h] and host_degree[h] >= need:
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
            return image
        j, p = i + 1, parent[i + 1]
        twin = p == parent[i] and degree[j] == 1  # then i is a leaf too
        stack.append((iter(nbrs[image[p]]), degree[j], h if twin else -1))
    return None


def _blocks(graph: UndirectedGraph, sizes):
    """Lazily, for each size m in turn, each block of m consecutive ids as
    (offset, m, the block's sorted neighbour tuples, the parent tuples of
    the free trees on m vertices)."""
    for m in sizes:
        parents = _free_parents(m)
        for i in range(graph.n - m + 1):
            yield i, m, _sorted_neighbours(graph.adj, i, m), parents


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
        for i, m, nbrs, parents in blocks:
            found = run(_search, parents, repeat(nbrs))
            for parent, image in zip(parents, found):
                if image is None:
                    return i, m, _parents_to_tree(parent)
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

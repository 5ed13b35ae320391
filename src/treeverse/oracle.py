"""Independent ground truth: exhaustive tree enumeration and brute-force
embedding, with universality deciders built on top.

Everything here is deliberately simple and separate from the constructive
embedder so the two can check each other.  Both deciders scan one lazy
stream of blocks, each as its sorted neighbour tuples with the free trees
of its size as preorder parent tuples.  On a graph past its size guard,
which only `unsafe_large` admits, and with jobs > 1, one process pool per
call checks it, and the first failure cancels the work still pending;
every admitted graph is checked serially.
Trees are built only at the edge: `enumerate_free_trees`, and the witness
a decider returns.

The stream leaves out every block that its in-block degrees settle: when
a set S of at most two vertices meets each edge missing from an m-vertex
block, and the vertices of S have |S| common neighbours outside S, the
block holds every m-vertex tree.  With S = {v}, put a leaf of the tree on
v and the leaf's neighbour on v's neighbour.  With S = {a, b}, common
neighbours c1 and c2, and so m >= 4, put two leaves of the tree on a and
b, and their neighbours on c1 and c2, or on c1 alone when the leaves
share it.  Either way every other tree edge joins two vertices off S, and
those are all adjacent.  With S empty the block is complete.  When the
sizes run 1, 2, 3, ..., as in `is_interval_universal`, the complete blocks
are read off a table built in stream order, one step per block, and only
the blocks it leaves open reach the degree test.  The free trees of a size
are enumerated only when the first block of that size is left to search,
so a graph whose blocks are all settled is decided with no enumeration
and no search, at any size; each size's free trees are flattened to
parent tuples once per process and kept.

A rooted tree is encoded as one `bytes` object, its preorder open/close
tokens, so close sorts before open.  A primitive balanced string is never
a proper prefix of another, so byte order is the order of the trees as
nested tuples of their children, also across sizes.  Trees are encoded
one way: a table of all rooted trees of each size, in increasing order,
built by a recursion at most `ENUM_GUARD` deep, from which the free trees
are read.  No given tree is encoded here; the tests' per-tree encoder
(`tests/trees.py`) is their reference for the table.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat
from typing import Optional

from .tree_core import RootedTree, check_int
from .graph_gen import UndirectedGraph

ENUM_GUARD = 16
UNIVERSAL_GUARD = 12
INTERVAL_GUARD = 11
_OPEN = ord("1")  # the open token of a rooted encoding, as a byte value


@dataclass(frozen=True)
class CanonicalTreeSet:
    """One canonically-rooted representative per free-tree isomorphism class.
    Kept with `enumerate_free_trees`: the benchmark's `verify` set-up and
    its tracer call that function."""

    n: int
    trees: tuple


@lru_cache(maxsize=None)
def _rooted_encodings(n: int) -> tuple[tuple, bytes, bytes, bytes, bytes]:
    """Canonical encodings of all rooted trees on n vertices, in increasing
    order, with the shape the free-tree filter reads.

    A tree is encoded as its preorder open/close tokens, b"1" and b"0":
    b"1", its children's encodings sorted by (size desc, encoding), b"0".
    Equal encodings mean isomorphic rooted trees.  Returns (encs, heights,
    starts, ends, seconds), the last four one byte per encoding: encs[j]
    has height heights[j], its first child of height heights[j] - 1 is
    encs[j][starts[j]:ends[j]], and seconds[j] is one more than the height
    of its second-tallest child (0 with fewer than two children).
    """
    if n == 1:
        return (b"10",), b"\0", b"\0", b"\0", b"\0"
    candidates = []  # (size, encoding, height)
    fits = [0] * n  # fits[r]: first candidate of size at most r
    for m in range(n - 1, 0, -1):
        fits[m] = len(candidates)
        encs, heights = _rooted_encodings(m)[:2]
        candidates.extend(zip(repeat(m), encs, heights))
    out: list[bytes] = []
    shape = [bytearray() for _ in range(4)]  # heights, starts, ends, seconds
    add_height, add_start, add_end, add_second = (a.append for a in shape)

    def rec(i: int, remaining: int, acc: list, h1: int, a: int, b: int,
            h2: int) -> None:
        # h1, h2: heights of the two tallest children so far (-1 for none);
        # a, b: the span of the first child of height h1
        if remaining == 0:
            out.append(b"".join(acc) + b"0")
            add_height(h1 + 1)
            add_start(a)
            add_end(b)
            add_second(h2 + 1)
            return
        at = 2 * (n - remaining) - 1  # where the next child starts
        for j in range(max(i, fits[remaining]), len(candidates)):
            m, enc, h = candidates[j]
            acc.append(enc)
            # recurse from j, not j + 1: the same candidate may repeat
            if h > h1:
                rec(j, remaining - m, acc, h, at, at + 2 * m, h1)
            elif h > h2:
                rec(j, remaining - m, acc, h1, a, b, h)
            else:
                rec(j, remaining - m, acc, h1, a, b, h2)
            acc.pop()

    rec(0, n - 1, [b"1"], -1, 0, 0, -1)
    del rec  # rec holds itself in its closure: free the candidates now
    order = sorted(range(len(out)), key=out.__getitem__)
    return (tuple(map(out.__getitem__, order)),
            *(bytes(map(a.__getitem__, order)) for a in shape))


def _flatten(enc: bytes) -> tuple:
    """Preorder parent tuple of the tree with this encoding (the root's
    parent is None): each open token adds a child of the current vertex
    and each close token returns to its parent."""
    parent: list[Optional[int]] = [None]
    u = 0
    for token in enc[1:-1]:
        if token == _OPEN:
            parent.append(u)
            u = len(parent) - 1
        else:
            u = parent[u]
    return tuple(parent)


def _parents_to_tree(parent: tuple) -> RootedTree:
    children: list[list[int]] = [[] for _ in parent]
    for v in range(1, len(parent)):
        children[parent[v]].append(v)
    return RootedTree(children)


@lru_cache(maxsize=None)
def _free_parents(n: int) -> tuple[tuple, ...]:
    """One preorder parent tuple per isomorphism class of free n-vertex
    trees, rooted at a center, in order of free key: (b"c", the encoding
    rooted at the center), or (b"b", the two half encodings in increasing
    order) for bicentral trees.  Each size is flattened once and kept,
    beside the rooted table it is read from.

    The center test read off the stored shape: a root is the only center
    when its two tallest branches are equal in height, and one of two
    centers when the tallest branch is one level taller than the rest.
    The halves are then that branch and the rest, and only the root of the
    half that encodes no larger is kept.  Bicentral keys (b"b", rest,
    branch) sort before centred keys (b"c", encoding), and those in the
    table's order.
    """
    check_int("n", n, 1, ENUM_GUARD, error=ValueError)
    bicentral, centred = [], []
    for enc, h, a, b, s in zip(*_rooted_encodings(n)):
        if h == s:
            centred.append(enc)
        elif h == s + 1:
            rest, tall = enc[:a] + enc[b:], enc[a:b]
            if rest <= tall:
                bicentral.append((rest, tall, enc))
    bicentral.sort()
    return tuple(map(_flatten, [enc for _, _, enc in bicentral] + centred))


def enumerate_free_trees(n: int) -> CanonicalTreeSet:
    """Exactly one representative per isomorphism class of free n-vertex trees,
    rooted at a center, in order of free key.  No package code calls it; it
    stays because the benchmark's `verify` set-up and its tracer do."""
    return CanonicalTreeSet(n, tuple(map(_parents_to_tree, _free_parents(n))))


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


def _settled(adj, lo: int, m: int) -> bool:
    """The rule of `_blocks` on the block of ids lo..lo+m-1, read off
    missing[u] = m - 1 - (u's degree in the block).

    A block missing no edge is complete, the empty block included.  One
    vertex next: the missing edges all meet one vertex exactly when
    sum(missing) == 2 * max(missing), and that vertex keeps a neighbour
    when max(missing) < m - 1.  Then two, only when that fails: a pair
    {a, b} meets every missing edge when missing[a] + missing[b], less one
    when a and b are not adjacent, counts them all, and it settles the
    block when a and b have two common neighbours in it.  Only O(m) pairs
    can be the cover: those that hold a vertex v of largest missing degree,
    and v's two missing neighbours when it has exactly two.  A cover
    without v holds every missing neighbour of v, so v has at most two.
    With one, the missing edges are a matching, and one that two vertices
    meet but one does not is two disjoint edges; each of its four covers
    has the same m - 4 common neighbours, so the covers that hold v
    decide."""
    block = range(lo, lo + m)
    missing = [m - 1 - len(adj[u].intersection(block)) for u in block]
    top, total = max(missing, default=0), sum(missing)
    if top == 0 or (total == 2 * top and top < m - 1):
        return True
    v = lo + missing.index(top)
    pairs = [(v, x) for x in block if x != v]
    if top == 2:
        pairs.append(tuple(x for x in block if x != v and x not in adj[v]))
    return any(missing[a - lo] + missing[b - lo] - (b not in adj[a])
               == total // 2 and len(adj[a].intersection(adj[b], block)) >= 2
               for a, b in pairs)


def _blocks(graph: UndirectedGraph, sizes):
    """Lazily, for each size m in turn, each block of m consecutive ids left
    to search, as (offset, m, the block's sorted neighbour tuples, the
    parent tuples of the free trees on m vertices).

    A block is settled, and yields nothing, when a set S of at most two of
    its vertices meets every edge missing from it and the vertices of S
    have |S| common neighbours in the block outside S (`_settled`): it
    holds every m-vertex tree, since |S| leaves of the tree can go on S and
    their neighbours on those common neighbours (one of them, if the
    leaves share their neighbour), and every other tree edge then joins
    two vertices off S, which are all adjacent.  A settled block never
    fails, so the stream order of the others and the first failure are
    unchanged.

    Complete blocks (S empty) are read off a table, `whole`, of which
    blocks of the previous size are complete.  While the sizes run 1, 2,
    3, ..., a block of m >= 2 ids is complete exactly when both blocks of
    m - 1 ids inside it are, and its two end ids are adjacent; so each
    block costs one step, and only the blocks the table leaves open reach
    `_settled`.  A size that does not follow the previous one, such as
    `is_universal`'s single [n], has no table: `_settled` tests each of its
    blocks, its own complete case included.
    The free trees of size m are enumerated only when the first block of
    that size is left to search."""
    adj, n = graph.adj, graph.n
    whole, prev = None, 0
    for m in sizes:
        if m == 1:
            whole = [True] * n
        elif whole is not None and m == prev + 1:
            whole = [a and b and i + m - 1 in adj[i]
                     for i, (a, b) in enumerate(zip(whole, whole[1:]))]
        else:
            whole = None
        prev = m
        parents = None
        for i in range(n - m + 1):
            if whole and whole[i] or _settled(adj, i, m):
                continue
            if parents is None:
                parents = _free_parents(m)
            yield i, m, _sorted_neighbours(adj, i, m), parents


def _first_failure(graph: UndirectedGraph, sizes, jobs: int, large: bool):
    """(offset, m, tree) for the first tree in `_blocks(graph, sizes)` that
    does not embed in its block, or None.  Blocks are read one at a time,
    none past the first failure.  On a `large` graph, one past its size
    guard, and with jobs > 1, one pool of at most one worker per CPU checks
    every block; the first failure shuts it down and cancels the work still
    pending.  Any other graph is checked serially, since starting the pool
    costs more than its whole search.  A jobs value below 1 is refused on
    every call."""
    check_int("jobs", jobs, 1, error=ValueError)
    pool = None
    if large and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1))
    run = partial(pool.map, chunksize=8) if pool else map
    try:
        for i, m, nbrs, parents in _blocks(graph, sizes):
            found = run(_search, parents, repeat(nbrs))
            for parent, image in zip(parents, found):
                if image is None:
                    return i, m, _parents_to_tree(parent)
        return None
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def check_size(n: int, interval: bool = False,
               unsafe_large: bool = False) -> bool:
    """Whether an n-vertex graph is past the universality (or, with
    `interval`, the interval-universality) guard; such a graph is refused
    unless `unsafe_large` is set."""
    guard = INTERVAL_GUARD if interval else UNIVERSAL_GUARD
    if n > guard and not unsafe_large:
        raise ValueError(f"guard: n={n} exceeds {guard} "
                         "(pass unsafe_large to override)")
    return n > guard


def is_universal(graph: UndirectedGraph, unsafe_large: bool = False,
                 jobs: int = 1) -> tuple[bool, Optional[RootedTree]]:
    """Whether every free tree on |graph| vertices embeds; first failure if
    not.  `jobs` workers check a graph past the guard; any other is checked
    serially."""
    large = check_size(graph.n, unsafe_large=unsafe_large)
    failure = _first_failure(graph, [graph.n], jobs, large)
    if failure is None:
        return True, None
    return False, failure[2]


def is_interval_universal(graph: UndirectedGraph, unsafe_large: bool = False,
                          jobs: int = 1) -> tuple[bool, Optional[tuple]]:
    """Whether every block {i,..,i+m-1} of consecutive vertex ids induces a
    universal graph for trees on m vertices.  Returns the first failing
    (offset, size, tree) witness otherwise.  `jobs` workers check a graph
    past the guard; any other is checked serially."""
    large = check_size(graph.n, interval=True, unsafe_large=unsafe_large)
    failure = _first_failure(graph, range(1, graph.n + 1), jobs, large)
    return failure is None, failure


"""Independent ground truth: exhaustive tree enumeration and brute-force
embedding, with universality deciders built on top.

Everything here is deliberately simple and separate from the constructive
embedder so the two can check each other.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
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
    """Canonical nested-tuple encodings of all rooted trees on n vertices.

    A tree is encoded as the tuple of its children's encodings, sorted by
    (size desc, encoding); equal encodings mean isomorphic rooted trees.
    """
    if n == 1:
        return ((),)
    candidates = []
    for m in range(n - 1, 0, -1):
        for enc in _rooted_encodings(m):
            candidates.append((m, enc))
    out: list[tuple] = []

    def rec(i: int, remaining: int, acc: list) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for j in range(i, len(candidates)):
            m, enc = candidates[j]
            if m <= remaining:
                acc.append(enc)
                rec(j, remaining - m, acc)  # the same candidate may repeat
                acc.pop()

    rec(0, n - 1, [])
    return tuple(out)


def _enc_size(enc: tuple) -> int:
    return 1 + sum(_enc_size(c) for c in enc)


def _enc_sort_key(enc: tuple):
    return (-_enc_size(enc), enc)


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


def _tree_to_enc(tree: RootedTree, root: int,
                 blocked: Optional[int] = None) -> tuple:
    """Canonical rooted encoding of the tree re-rooted at `root`, optionally
    refusing to cross the edge toward `blocked`."""

    def rec(u: int, parent: Optional[int]) -> tuple:
        nbrs = list(tree.children[u])
        if tree.parent[u] is not None:
            nbrs.append(tree.parent[u])
        subs = [rec(v, u) for v in nbrs if v != parent and v != blocked]
        subs.sort(key=_enc_sort_key)
        return tuple(subs)

    return rec(root, None)


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


def free_canonical_encoding(tree: RootedTree) -> tuple:
    """Key invariant under free-tree isomorphism: the encoding rooted at the
    center, or the sorted pair of half encodings for bicentral trees.  Keys
    are tagged so the two shapes never collide."""
    centers = _centers(tree)
    if len(centers) == 1:
        return ("c", _tree_to_enc(tree, centers[0]))
    a, b = centers
    ha = _tree_to_enc(tree, a, blocked=b)
    hb = _tree_to_enc(tree, b, blocked=a)
    if hb < ha:
        ha, hb = hb, ha
    return ("b", ha, hb)


def _key_to_rooted(key: tuple) -> tuple:
    if key[0] == "c":
        return key[1]
    ha, hb = key[1], key[2]
    # root at one center and hang the other half below it
    return tuple(sorted(list(ha) + [hb], key=_enc_sort_key))


def enumerate_free_trees(n: int) -> CanonicalTreeSet:
    """Exactly one representative per isomorphism class of free n-vertex trees."""
    if not (1 <= n <= ENUM_GUARD):
        raise ValueError(f"n must be in 1..{ENUM_GUARD}")
    seen: dict[tuple, RootedTree] = {}
    for enc in _rooted_encodings(n):
        key = free_canonical_encoding(_enc_to_tree(enc))
        if key not in seen:
            seen[key] = _enc_to_tree(_key_to_rooted(key))
    trees = tuple(seen[k] for k in sorted(seen))
    return CanonicalTreeSet(n, trees)


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
    centers = _centers(tree)
    if len(centers) == 1:
        return _enc_automorphisms(_tree_to_enc(tree, centers[0]))
    a, b = centers
    ha = _tree_to_enc(tree, a, blocked=b)
    hb = _tree_to_enc(tree, b, blocked=a)
    aut = _enc_automorphisms(ha) * _enc_automorphisms(hb)
    if ha == hb:
        aut *= 2
    return aut


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

    Guest vertices are placed in preorder so each non-root vertex only needs
    to scan the neighbors of its parent's image.  Returns an injective
    edge-preserving map or None when provably absent.
    """
    n, m = guest.n, graph.n
    if n > m:
        return None
    guest_deg = [len(guest.children[u]) + (guest.parent[u] is not None)
                 for u in range(n)]
    mapping: dict[int, int] = {}
    used = [False] * m

    def place(i: int) -> bool:
        if i == n:
            return True
        parent = guest.parent[i]
        if parent is None:
            candidates = range(m)
        else:
            candidates = sorted(graph.adj[mapping[parent]])
        for h in candidates:
            if used[h] or graph.degree(h) < guest_deg[i]:
                continue
            mapping[i] = h
            used[h] = True
            if place(i + 1):
                return True
            used[h] = False
            del mapping[i]
        return False

    return dict(mapping) if place(0) else None


def default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("TREEVERSE_JOBS", "1")))
    except ValueError:
        return 1


def _embeds(args) -> bool:
    tree, graph = args
    return brute_embed(tree, graph) is not None


def _first_failure(pairs, jobs: int):
    """Index of the first pair whose guest does not embed, scanning in order."""
    if jobs <= 1:
        for i, p in enumerate(pairs):
            if not _embeds(p):
                return i
        return None
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        for i, ok in enumerate(ex.map(_embeds, pairs, chunksize=8)):
            if not ok:
                return i
    return None


def check_size(n: int, interval: bool = False,
               unsafe_large: bool = False) -> None:
    """Refuse an n-vertex graph above the universality (or, with `interval`,
    the interval-universality) guard unless `unsafe_large` is set."""
    guard = INTERVAL_GUARD if interval else UNIVERSAL_GUARD
    if n > guard and not unsafe_large:
        raise ValueError(f"guard: n={n} exceeds {guard} "
                         "(pass unsafe_large to override)")


def is_universal(graph: UndirectedGraph, unsafe_large: bool = False,
                 jobs: Optional[int] = None) -> tuple[bool, Optional[RootedTree]]:
    """Whether every free tree on |graph| vertices embeds; first failure if not."""
    check_size(graph.n, unsafe_large=unsafe_large)
    trees = enumerate_free_trees(graph.n).trees
    bad = _first_failure([(t, graph) for t in trees],
                         jobs if jobs is not None else default_jobs())
    if bad is None:
        return True, None
    return False, trees[bad]


def is_interval_universal(graph: UndirectedGraph, ordering: Optional[list] = None,
                          unsafe_large: bool = False, jobs: Optional[int] = None
                          ) -> tuple[bool, Optional[tuple]]:
    """Whether every consecutive block of the ordering induces a universal
    graph for trees of the block's size.  Returns the first failing
    (offset, size, tree) witness otherwise."""
    check_size(graph.n, interval=True, unsafe_large=unsafe_large)
    order = list(ordering) if ordering is not None else list(range(graph.n))
    if sorted(order) != list(range(graph.n)):
        raise ValueError("ordering must be a permutation of the vertices")
    jobs = jobs if jobs is not None else default_jobs()
    for m in range(1, graph.n + 1):
        trees = enumerate_free_trees(m).trees
        for i in range(graph.n - m + 1):
            block = graph.induced(order[i:i + m])
            bad = _first_failure([(t, block) for t in trees], jobs)
            if bad is not None:
                return False, (i, m, trees[bad])
    return True, None


def degree_witness(graph: UndirectedGraph) -> Optional[int]:
    """A vertex adjacent to everything else, if one exists."""
    for u in range(graph.n):
        if graph.degree(u) == graph.n - 1:
            return u
    return None

"""Constructive admissible embedding of an arbitrary guest tree into the
radius-2 generated graph of a balanced host tree.

The solver recurses on (host depth, root child count).  Every recursive call
embeds a guest piece onto exactly the preorder suffix of its host, so the
unused host vertices always form an admissible prefix.  Two placement
guarantees are threaded through the recursion:

  anchor: the anchor vertex lands on a vertex of minimum level within the
          image (always honored);
  low2:   when the host root has exactly two children and the guest size is
          within [size(last child), n-2] with size(last child) >= 2, the low2
          vertex lands at level at most 2.

Pieces handed to recursive calls may be forests; edges between pieces are
always incident to explicitly placed vertices whose images are either
adjacent to everything (the root and the last child of the root) or pinned
at level <= 2, where the radius rule makes all pairs adjacent.

Internal size bookkeeping is asserted loudly at every step; an assertion
failure means a bug, never an input error.  The finished embedding is always
re-checked by `verify_embedding`, which does not rely on `assert` and so also
runs under `python -O`; a failure there raises `EmbeddingBugError`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from .tree_core import RootedTree, Forest
from .graph_gen import UndirectedGraph, generate, underlying, merged_tree
from .balanced_trees import validate_balance
from .decomposition import classify, find_bounded_components, find_feasible_or_critical

EMBED_RADIUS = 2


class EmbeddingBugError(AssertionError):
    """The embedder produced a map that fails its own contract: a bug."""


@dataclass
class Embedding:
    """An injective map from guest vertices onto a preorder suffix of the host."""

    mapping: dict
    host_tree: RootedTree
    host_graph: UndirectedGraph
    admissible_complement: bool
    phi1_ok: bool
    phi2_applicable: bool
    phi2_ok: bool

    @property
    def ok(self) -> bool:
        return (self.admissible_complement and self.phi1_ok
                and (self.phi2_ok or not self.phi2_applicable))


def _neighbors_in(guest: Forest, u: int, piece: frozenset) -> list[int]:
    """Guest neighbors of u inside the piece, in increasing order."""
    return sorted(v for v in guest.neighbors(u) if v in piece)


def _min_level_positions(host: RootedTree, size: int) -> list[int]:
    """Host ids of minimum level within the preorder suffix of this size."""
    lo = host.n - size
    best = min(host.levels[u] for u in range(lo, host.n))
    return [u for u in range(lo, host.n) if host.levels[u] == best]


def _solve(host: RootedTree, piece: frozenset, guest: Forest,
           anchor: Optional[int], low2: Optional[int]) -> dict:
    """Embed guest[piece] onto the preorder suffix of the host; see module doc."""
    n = host.n
    sigma = len(piece)
    assert sigma <= n
    if sigma == 0:
        return {}
    assert anchor is None or anchor in piece
    assert low2 is None or low2 in piece

    mapping = _dispatch(host, piece, guest, anchor, low2)

    assert len(mapping) == sigma
    assert set(mapping.values()) == set(range(n - sigma, n)), \
        "image is not the host suffix"
    return mapping


def _dispatch(host: RootedTree, piece: frozenset, guest: Forest,
              anchor: Optional[int], low2: Optional[int]) -> dict:
    n, sigma = host.n, len(piece)

    # depth <= 2 hosts generate complete graphs: any suffix assignment works
    if host.depth <= EMBED_RADIUS:
        return _solve_complete(host, piece, anchor)

    root_children = host.children[0]
    t = len(root_children)
    vt = root_children[-1]
    x = host.sizes[vt]

    if x == 1:
        return _solve_leaf_peel(host, piece, guest, anchor, low2)
    # under a single-child root x = n-1, so sigma = n-1 also fits below it
    if sigma < x or (t == 1 and sigma < n):
        return _solve_descend(host, piece, guest, anchor, low2)
    if t == 1:
        return _solve_single_child(host, piece, guest, anchor)
    if t == 2:
        if sigma <= n - 2:
            return _solve_pair_merge(host, piece, guest, anchor, low2)
        return _solve_pair_full(host, piece, guest, anchor, low2)
    if sigma <= x + host.sizes[root_children[-2]] - 1:
        return _solve_wide_small(host, piece, guest, anchor)
    return _solve_wide_split(host, piece, guest, anchor)


def _solve_complete(host: RootedTree, piece: frozenset,
                    anchor: Optional[int]) -> dict:
    sigma = len(piece)
    positions = list(range(host.n - sigma, host.n))
    mapping: dict = {}
    rest = sorted(piece)
    if anchor is not None:
        best = min(_min_level_positions(host, sigma))
        mapping[anchor] = best
        positions.remove(best)
        rest.remove(anchor)
    for g, h in zip(rest, positions):
        mapping[g] = h
    return mapping


def _solve_leaf_peel(host: RootedTree, piece: frozenset, guest: Forest,
                     anchor: Optional[int], low2: Optional[int]) -> dict:
    """Last root child is a leaf: set one vertex aside, embed the rest without
    that leaf, then place the special vertex on it (or swap onto the root)."""
    n, sigma = host.n, len(piece)
    vt = n - 1
    special = anchor if anchor is not None else max(piece)
    rest = piece - {special}
    sub = _solve(host.prefix(n - 1), rest, guest, None, None)
    if sigma < n:
        sub[special] = vt
        return sub
    # full host: the root is taken, so swap its occupant onto the leaf; both
    # target vertices are adjacent to everything
    inv = {h: g for g, h in sub.items()}
    sub[inv[0]] = vt
    sub[special] = 0
    return sub


def _solve_descend(host: RootedTree, piece: frozenset, guest: Forest,
                   anchor: Optional[int], low2: Optional[int]) -> dict:
    vt = host.children[0][-1]
    sub = _solve(host.subtree(vt), piece, guest, anchor, low2)
    return {g: vt + h for g, h in sub.items()}


def _solve_single_child(host: RootedTree, piece: frozenset, guest: Forest,
                        anchor: Optional[int]) -> dict:
    """Single root child, full host: the special vertex takes the root."""
    special = anchor if anchor is not None else max(piece)
    sub = _solve(host.subtree(1), piece - {special}, guest, None, None)
    mapping = {g: 1 + h for g, h in sub.items()}
    mapping[special] = 0
    return mapping


def _pair_merged(host: RootedTree) -> tuple[RootedTree, tuple]:
    """Merge the grandchildren of a two-child root under a fresh root."""
    v1, v2 = host.children[0]
    run = list(host.children[v1]) + list(host.children[v2])
    assert run, "both root children must have children here"
    return merged_tree(host, run)


def _solve_pair_merge(host: RootedTree, piece: frozenset, guest: Forest,
                      anchor: Optional[int], low2: Optional[int]) -> dict:
    """Two root children, guest leaves at least two host vertices unused."""
    n, sigma = host.n, len(piece)
    v2 = host.children[0][1]
    special = anchor if anchor is not None else max(piece)
    rest = piece - {special}
    sub_anchor = low2 if (low2 is not None and low2 in rest) else None
    tstar, iso = _pair_merged(host)
    sub = _solve(tstar, rest, guest, sub_anchor, None)
    mapping = {g: iso[h] for g, h in sub.items()}
    assert v2 not in mapping.values()
    mapping[special] = v2
    return mapping


def _solve_pair_full(host: RootedTree, piece: frozenset, guest: Forest,
                     anchor: Optional[int], low2: Optional[int]) -> dict:
    """Two root children, guest covers all or all-but-one of the host."""
    n, sigma = host.n, len(piece)
    v1, v2 = host.children[0]
    special = anchor if anchor is not None else max(piece)
    rest = piece - {special}
    # a leaf (or isolated vertex) of the remainder has a single neighbor
    # there, which the recursion pins at level <= 2 next to the leaf's image
    leaves = [u for u in rest if len(_neighbors_in(guest, u, rest)) == 1]
    if leaves:
        w = max(leaves)
        wp = _neighbors_in(guest, w, rest)[0]
    else:
        w = max(rest, key=lambda u: (not _neighbors_in(guest, u, rest), u))
        assert not _neighbors_in(guest, w, rest)
        pool = sorted(rest - {w})
        wp = pool[0] if pool else None
    rest = rest - {w}
    tstar, iso = _pair_merged(host)
    sub = _solve(tstar, rest, guest, wp if wp in rest else None, None)
    mapping = {g: iso[h] for g, h in sub.items()}
    mapping[w] = v1
    mapping[special] = v2 if sigma == n - 1 else 0
    return mapping


def _solve_wide_small(host: RootedTree, piece: frozenset, guest: Forest,
                      anchor: Optional[int]) -> dict:
    """Three or more root children but the guest fits in the last two subtrees."""
    run = host.children[0][-2:]
    tstar, iso = merged_tree(host, run)
    assert len(piece) <= tstar.n - 2
    sub = _solve(tstar, piece, guest, anchor, None)
    return {g: iso[h] for g, h in sub.items()}


def _feasible_collection(guest: Forest, piece: frozenset, avoid: int,
                         x: int, y: int):
    """A collection avoiding `avoid` that is feasible, or critical with
    union at least x+y-1 (smaller critical unions are upgraded by treating
    pivot plus union as one feasible-style block)."""
    forest = guest.induced(piece)
    if x > y:
        coll, cls = find_feasible_or_critical(forest, avoid, x, y)
        return coll, cls
    coll = find_bounded_components(forest, avoid, x - 1)
    cls = classify(coll, x, y)
    assert cls.is_feasible, "bounded window must be feasible when x <= y"
    return coll, cls


def _solve_wide_split(host: RootedTree, piece: frozenset, guest: Forest,
                      anchor: Optional[int]) -> dict:
    n, sigma = host.n, len(piece)
    root_children = host.children[0]
    vt = root_children[-1]
    vt1 = root_children[-2]
    vt2 = root_children[-3]
    x, y, z = host.sizes[vt], host.sizes[vt1], host.sizes[vt2]
    assert y >= 2 and z >= 2, "balanced hosts keep non-leaf cousins non-leaf"

    avoid = anchor if anchor is not None else min(piece)
    coll, cls = _feasible_collection(guest, piece, avoid, x, y)
    w = coll.w

    if cls.is_feasible or coll.union_size == x + y - 2:
        piece0 = coll.union | {w}
        assert x <= len(piece0) <= x + y - 1
        run = (vt1, vt)
        tstar, iso = merged_tree(host, run)
        sub0 = _solve(tstar, piece0, guest, w, None)
        mapping = {g: iso[h] for g, h in sub0.items()}
        assert mapping[w] == vt, "pivot must land on the last root child"
        piece1 = piece - piece0
        host1 = host.prefix(n - len(piece0))
        sub_anchor = anchor if anchor in piece1 else None
        mapping.update(_solve(host1, piece1, guest, sub_anchor, None))
        if anchor == w and sigma == n:
            inv = {h: g for g, h in mapping.items()}
            mapping[inv[0]] = vt
            mapping[w] = 0
        return mapping

    return _solve_critical_split(host, piece, guest, anchor, coll, x, y, z)


def _solve_critical_split(host: RootedTree, piece: frozenset, guest: Forest,
                          anchor: Optional[int], coll, x: int, y: int,
                          z: int) -> dict:
    n, sigma = host.n, len(piece)
    root_children = host.children[0]
    vt, vt1, vt2 = root_children[-1], root_children[-2], root_children[-3]
    w = coll.w
    assert len(coll.components) == 2, \
        "critical collections have two components under the balance ratio"
    c_one, c_two = coll.components
    union = coll.union_size
    assert x + y - 1 <= union <= 2 * x - 3

    n1 = _neighbors_in(guest, w, c_one)
    n2 = _neighbors_in(guest, w, c_two)
    w1 = n1[0] if n1 else None
    w2 = n2[0] if n2 else None

    whole = c_one | c_two | {w}
    if sigma >= x + y + z:
        c_zero = frozenset({w})
    else:
        c_zero = piece - c_one - c_two

    # split the larger component around an inner pivot
    x_inner = len(whole) - (x + y) + 1
    assert 1 <= x_inner
    inner = find_bounded_components(guest.induced(c_one | {w}), w,
                                    x_inner)
    wp = inner.w
    assert wp != w
    c_prime = inner.union
    assert w not in c_prime and wp not in c_prime

    piece2 = c_two
    piece1 = c_one - c_prime
    piece0 = c_prime | c_zero
    assert wp in piece1 and (w1 is None or w1 in piece1)
    assert x <= len(piece1) + len(piece2) <= x + y - 2
    assert len(piece2) <= x - 2

    # last subtree takes the second component, its bridge vertex on a child
    sub2 = _solve(host.subtree(vt), piece2, guest, w2, None)
    mapping = {g: vt + h for g, h in sub2.items()}
    if w2 is not None:
        assert host.parent[mapping[w2]] == vt

    # the merge of the last two (now truncated) subtrees takes piece1, with
    # the inner pivot on the last root child and the bridge at level <= 2
    host1 = host.prefix(n - len(piece2))
    assert host1.sizes[vt] >= 2
    tstar1, iso1 = merged_tree(host1, (vt1, vt))
    assert 2 <= host1.sizes[vt] <= len(piece1) <= tstar1.n - 2
    sub1 = _solve(tstar1, piece1, guest, wp, w1)
    for g, h in sub1.items():
        mapping[g] = iso1[h]
    assert mapping[wp] == vt

    # the merge of the third- and second-to-last subtrees takes piece0
    host2 = host.prefix(n - len(piece2) - len(piece1))
    assert host2.sizes[vt1] >= 2
    tstar2, iso2 = merged_tree(host2, (vt2, vt1))
    assert 2 <= host2.sizes[vt1] <= len(piece0) <= tstar2.n - 2
    if anchor is not None and anchor in c_zero and anchor != w:
        sub0 = _solve(tstar2, piece0, guest, anchor, w)
        assert iso2[sub0[anchor]] == vt1
    else:
        sub0 = _solve(tstar2, piece0, guest, w, None)
        assert iso2[sub0[w]] == vt1
    for g, h in sub0.items():
        mapping[g] = iso2[h]
    assert host.levels[mapping[w]] <= 2

    remaining = piece - piece0 - piece1 - piece2
    if remaining:
        host3 = host.prefix(n - len(piece0) - len(piece1) - len(piece2))
        sub_anchor = anchor if anchor in remaining else None
        mapping.update(_solve(host3, remaining, guest, sub_anchor, None))

    if anchor == w and sigma == n:
        inv = {h: g for g, h in mapping.items()}
        old = mapping[w]
        mapping[inv[0]] = old
        mapping[w] = 0
    return mapping


# -- public surface ---------------------------------------------------------


def host_graph_for(host: RootedTree) -> UndirectedGraph:
    """The radius-2 generated graph the embedder targets."""
    return underlying(generate(host, EMBED_RADIUS))


def phi2_window(host: RootedTree, guest_size: int) -> bool:
    """Whether the second placement guarantee applies to this host/guest pair."""
    if len(host.children[0]) != 2:
        return False
    x = host.sizes[host.children[0][1]]
    return 2 <= x <= guest_size <= host.n - 2


def embed(host: RootedTree, guest: RootedTree, x1: int, x2: Optional[int] = None,
          host_graph: Optional[UndirectedGraph] = None,
          check_balance: bool = True) -> Embedding:
    """Embed the guest tree into the radius-2 graph of the balanced host.

    Returns an Embedding whose unused host vertices form a preorder prefix,
    with x1 on a minimum-level image vertex and, when `phi2_window` holds,
    x2 at level <= 2.  Raises ValueError for invalid inputs and
    EmbeddingBugError (an AssertionError) when the result fails
    `verify_embedding`, which would be a bug.
    """
    if guest.n > host.n:
        raise ValueError(f"guest has {guest.n} vertices, host only {host.n}")
    if check_balance:
        report = validate_balance(host, 2, 1)
        if not report.ok:
            raise ValueError(f"host is not (2,1)-balanced: {report.violations[:3]}")
    guest.check_vertex(x1)
    if x2 is None:
        x2 = x1
    guest.check_vertex(x2)

    # path-like hosts are balanced and recurse one level per vertex
    needed = 6 * host.n + 1000
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)

    mapping = _solve(host, frozenset(range(guest.n)), Forest.from_tree(guest),
                     x1, x2)

    if host_graph is None:
        host_graph = host_graph_for(host)
    # the complement and x1 flags hold whenever the check below passes
    applicable = phi2_window(host, guest.n)
    emb = Embedding(
        mapping=mapping,
        host_tree=host,
        host_graph=host_graph,
        admissible_complement=True,
        phi1_ok=True,
        phi2_applicable=applicable,
        phi2_ok=host.levels[mapping[x2]] <= 2,
    )
    ok, problems = verify_embedding(emb, guest, x1, x2, applicable)
    if not ok:
        raise EmbeddingBugError("; ".join(problems))
    return emb


def verify_embedding(embedding: Embedding, guest: RootedTree, x1: int,
                     x2: Optional[int] = None,
                     phi2_expected: Optional[bool] = None
                     ) -> tuple[bool, list]:
    """Re-check an embedding from scratch: injectivity, edge preservation,
    admissible complement, and both placement guarantees."""
    host = embedding.host_tree
    graph = embedding.host_graph
    mapping = embedding.mapping
    problems: list[str] = []

    if set(mapping.keys()) != set(range(guest.n)):
        problems.append("mapping is not total on the guest")
        return False, problems
    image = list(mapping.values())
    if len(set(image)) != len(image):
        problems.append("mapping is not injective")
    if any(not (0 <= h < host.n) for h in image):
        problems.append("image vertex out of range")
        return False, problems
    for u in range(1, guest.n):
        p = guest.parent[u]
        if not graph.has_edge(mapping[u], mapping[p]):
            problems.append(f"guest edge {p}-{u} maps to non-edge "
                            f"{mapping[p]}-{mapping[u]}")
    unused = set(range(host.n)) - set(image)
    if unused != set(range(len(unused))):
        problems.append("unused host vertices are not a preorder prefix")

    min_level = min(host.levels[h] for h in image)
    if host.levels[mapping[x1]] != min_level:
        problems.append(f"x1 sits at level {host.levels[mapping[x1]]}, "
                        f"image minimum is {min_level}")
    if x2 is None:
        x2 = x1
    if phi2_expected is None:
        phi2_expected = phi2_window(host, guest.n)
    if phi2_expected and host.levels[mapping[x2]] > 2:
        problems.append(f"x2 sits at level {host.levels[mapping[x2]]} > 2")
    return not problems, problems

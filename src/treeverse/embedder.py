"""Constructive admissible embedding of an arbitrary guest tree into the
radius-2 generated graph of a balanced host tree.

The solver works on (host depth, root child count).  Every step embeds a
guest piece onto exactly the preorder suffix of its host, so the unused host
vertices always form an admissible prefix.  Two placement guarantees hold at
every step:

  anchor: the anchor vertex lands on a vertex of minimum level within the
          image (always honored);
  low2:   when the host root has exactly two children and the guest size is
          within [size(last child), n-2] with size(last child) >= 2, the low2
          vertex lands at level at most 2.

Pieces handed to sub-steps may be forests; edges between pieces are always
incident to explicitly placed vertices whose images are either adjacent to
everything (the root and the last child of the root) or pinned at level <= 2,
where the radius rule makes all pairs adjacent.

Sub-hosts are views, not copies: the last root subtree, every prefix and
every merge of a sibling run (a tail: the root over the subtrees from one
child to the last) are `TreeView`s of one tree, made in O(1).  Only a merge
of a cousin run builds a tree, and its `to_top` map sends its vertices to
input-host ids.  The guest is the input `RootedTree` itself, and each piece
goes to the decomposition finders as a vertex set within it, not as a copy;
no other form of the guest is built.
The steps run from one work stack of tasks (view, to_top, piece, anchor,
low2).  A step writes the images it decides straight into one image map
(guest vertex -> input-host vertex) and its inverse `occupant`, and pushes
its sub-tasks.  When a full host needs the root for a vertex that a sub-task
does not place there, the step first pushes a swap that runs after its
sub-tasks.  Nothing recurses, so deep hosts neither exhaust the stack nor
need the interpreter's recursion limit.

The finished embedding is always re-checked by `verify_embedding`, which does
not rely on `assert` and so also runs under `python -O`; a failure there
raises `EmbeddingBugError`.  So does a step whose case analysis breaks before
it places anything.  When the caller passed `host_graph` and the map passes
against the host's own radius-2 graph, the caller's graph is at fault, and
`ValueError` is raised instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .tree_core import RootedTree, TreeView, check_int
from .graph_gen import UndirectedGraph, generate, underlying, merged_tree
from .balanced_trees import validate_balance
from .decomposition import find_bounded_components, find_feasible_or_critical

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


def _solve(host: RootedTree, piece: frozenset, guest: RootedTree,
           anchor: Optional[int], low2: Optional[int]) -> dict:
    """Embed guest[piece] onto the preorder suffix of the host; see module doc.
    Returns the image map."""
    solver = _Solver(host, guest)
    solver.push(TreeView(host), range(host.n), piece, anchor, low2)
    work = solver.work
    while work:
        entry = work.pop()
        if len(entry) == 2:
            solver.swap_onto_root(*entry)
        else:
            solver.step(*entry)
    return solver.image


class _Solver:
    """One `_solve` call: the guest, the image map and its inverse, and the
    work stack.  Each case method takes one task and pushes its sub-tasks."""

    def __init__(self, host: RootedTree, guest: RootedTree):
        self.guest = guest
        self.image: dict = {}
        self.occupant: list = [None] * host.n
        self.work: list = []

    def push(self, view: TreeView, to_top, piece: frozenset,
             anchor: Optional[int] = None, low2: Optional[int] = None) -> None:
        self.work.append((view, to_top, piece, anchor, low2))

    def place(self, g: int, top: int) -> None:
        self.image[g] = top
        self.occupant[top] = g

    def push_root_swap(self, view: TreeView, to_top, g: int) -> None:
        """After the tasks pushed next, g takes the root of the view and the
        root's occupant takes g's image; both are adjacent to everything."""
        self.work.append((to_top[view.root], g))

    def swap_onto_root(self, root: int, g: int) -> None:
        other, old = self.occupant[root], self.image[g]
        self.place(other, old)
        self.place(g, root)

    def grandchildren(self, view: TreeView, to_top,
                      kids: tuple) -> tuple[TreeView, list]:
        """The merge of the grandchildren of a two-child root, whose children
        are `kids` (a cousin run), with its map to input-host ids."""
        tstar, iso = merged_tree(view, [g for v in kids
                                        for g in view.children(v)])
        # every merged vertex is a root child or below one, never the view's
        # root 0, so view vertex h is base vertex lo + h
        return TreeView(tstar), [to_top[view.lo + h] for h in iso]

    def step(self, view: TreeView, to_top, piece: frozenset,
             anchor: Optional[int], low2: Optional[int]) -> None:
        m, sigma = view.n, len(piece)
        if sigma > m:
            raise EmbeddingBugError(f"a piece of {sigma} vertices was sent to "
                                    f"a host of {m}")
        if sigma == 0:
            return

        # depth <= 2 hosts generate complete graphs: any suffix assignment works
        if not view.deeper_than(EMBED_RADIUS):
            return self.complete(view, to_top, piece, anchor)

        kids = view.children(0)
        t = len(kids)
        vt = kids[-1]
        x = m - vt

        if x == 1:
            return self.leaf_peel(view, to_top, piece, anchor)
        # under a single-child root x = m-1, so sigma = m-1 also fits below it
        if sigma < x or (t == 1 and sigma < m):
            return self.push(view.subtree(vt), to_top, piece, anchor, low2)
        if t == 1:
            return self.single_child(view, to_top, piece, anchor)
        if t == 2:
            if sigma <= m - 2:
                return self.pair_merge(view, to_top, piece, anchor, low2, kids)
            return self.pair_full(view, to_top, piece, anchor, kids)
        if sigma <= m - kids[-2] - 1:
            # the guest fits in the merge of the last two subtrees
            return self.push(view.tail(kids[-2]), to_top, piece, anchor)
        return self.wide_split(view, to_top, piece, anchor, kids)

    def complete(self, view: TreeView, to_top, piece: frozenset,
                 anchor: Optional[int]) -> None:
        m = view.n
        spots = [view.vertex(i) for i in range(m - len(piece), m)]
        rest = sorted(piece)
        if anchor is not None:
            # the first vertex of minimum level in the suffix
            best = min(spots, key=view.base.levels.__getitem__)
            self.place(anchor, to_top[best])
            spots.remove(best)
            rest.remove(anchor)
        for g, b in zip(rest, spots):
            self.place(g, to_top[b])

    def leaf_peel(self, view: TreeView, to_top, piece: frozenset,
                  anchor: Optional[int]) -> None:
        """Last root child is a leaf: set one vertex aside on it, embed the rest
        without that leaf (and on a full host swap the root's occupant onto
        the leaf instead)."""
        m = view.n
        special = anchor if anchor is not None else max(piece)
        self.place(special, to_top[view.lo + m - 1])
        if len(piece) == m:
            self.push_root_swap(view, to_top, special)
        self.push(view.prefix(m - 1), to_top, piece - {special})

    def single_child(self, view: TreeView, to_top, piece: frozenset,
                     anchor: Optional[int]) -> None:
        """Single root child, full host: the special vertex takes the root."""
        special = anchor if anchor is not None else max(piece)
        self.place(special, to_top[view.root])
        self.push(view.subtree(1), to_top, piece - {special})

    def pair_merge(self, view: TreeView, to_top, piece: frozenset,
                   anchor: Optional[int], low2: Optional[int],
                   kids: tuple) -> None:
        """Two root children, guest leaves at least two host vertices unused:
        the rest goes into the merge of the grandchildren, whose fresh root
        stands for the last root child and stays unused."""
        special = anchor if anchor is not None else max(piece)
        rest = piece - {special}
        sub_anchor = low2 if (low2 is not None and low2 in rest) else None
        self.place(special, to_top[view.lo + kids[1]])
        self.push(*self.grandchildren(view, to_top, kids), rest, sub_anchor)

    def pair_full(self, view: TreeView, to_top, piece: frozenset,
                  anchor: Optional[int], kids: tuple) -> None:
        """Two root children, guest covers all or all-but-one of the host."""
        guest, m = self.guest, view.n
        v1, v2 = kids
        special = anchor if anchor is not None else max(piece)
        rest = piece - {special}
        # a leaf of the remainder has a single neighbor there, which the
        # sub-task pins at level <= 2 next to the leaf's image; a remainder
        # without leaves has only isolated vertices; None, the root's
        # parent, is never in a piece
        near = {u: [v for v in (*guest.children[u], guest.parent[u])
                    if v in rest] for u in rest}
        leaves = [u for u in rest if len(near[u]) == 1]
        w = max(leaves or rest)
        wp = near[w][0] if leaves else min(rest - {w}, default=None)
        self.place(w, to_top[view.lo + v1])
        self.place(special, to_top[view.vertex(v2 if len(piece) == m - 1 else 0)])
        self.push(*self.grandchildren(view, to_top, kids), rest - {w}, wp)

    def wide_split(self, view: TreeView, to_top, piece: frozenset,
                   anchor: Optional[int], kids: tuple) -> None:
        m, sigma = view.n, len(piece)
        vt, vt1, vt2 = kids[-1], kids[-2], kids[-3]
        x, y, z = m - vt, vt - vt1, vt1 - vt2
        if y < 2 or z < 2:
            raise EmbeddingBugError("balanced hosts keep non-leaf cousins "
                                    "non-leaf")

        avoid = anchor if anchor is not None else min(piece)
        coll, kind = find_feasible_or_critical(self.guest, avoid, x, y,
                                               within=piece)
        w = coll.w
        if anchor == w and sigma == m:
            self.push_root_swap(view, to_top, w)
        # a critical union of exactly x+y-2 is placed as a feasible block
        if kind == "critical" and coll.union_size != x + y - 2:
            return self.critical_split(view, to_top, piece, anchor, coll, kids)

        # pivot and union go into the merge of the last two subtrees, the
        # pivot on the last root child; the rest fills the prefix before them
        piece0 = coll.union | {w}
        piece1 = piece - piece0
        self.push(view.tail(vt1), to_top, piece0, w)
        self.push(view.prefix(m - len(piece0)), to_top, piece1,
                  anchor if anchor in piece1 else None)

    def critical_split(self, view: TreeView, to_top, piece: frozenset,
                       anchor: Optional[int], coll, kids: tuple) -> None:
        m, sigma = view.n, len(piece)
        vt2, vt1, vt = kids[-3:]
        w = coll.w
        if len(coll.components) != 2:
            raise EmbeddingBugError("critical collections have two components "
                                    "under the balance ratio")
        c_one, c_two = coll.components
        near = (*self.guest.children[w], self.guest.parent[w])
        w1 = min((v for v in near if v in c_one), default=None)
        w2 = min((v for v in near if v in c_two), default=None)

        if sigma >= m - vt2:
            c_zero = frozenset({w})
        else:
            c_zero = piece - c_one - c_two

        # split the larger component around an inner pivot; the last two
        # subtrees hold x + y = m - vt1 vertices, and the two components
        # with w hold union_size + 1
        inner = find_bounded_components(self.guest, w,
                                        coll.union_size + 2 - (m - vt1),
                                        within=c_one | {w})
        wp = inner.w
        if wp == w:
            raise EmbeddingBugError("the inner pivot must differ from the pivot")
        c_prime = inner.union
        piece2 = c_two
        piece1 = c_one - c_prime
        piece0 = c_prime | c_zero

        # last subtree takes the second component, its bridge vertex on a child
        self.push(view.subtree(vt), to_top, piece2, w2)

        # the merge of the last two (now truncated) subtrees takes piece1, with
        # the inner pivot on the last root child and the bridge at level <= 2
        host1 = view.prefix(m - len(piece2))
        self.push(host1.tail(vt1), to_top, piece1, wp, w1)

        # the merge of the third- and second-to-last subtrees takes piece0,
        # with the pivot (or the anchor, and the pivot at level <= 2) on the
        # second-to-last root child.  That merge is host2's tail at vt2,
        # because vt1 is host2's last root child: the union is in
        # [x+y-1, 2x-3] and c_prime has at most 2k-1 vertices, with
        # k = union-x-y+2, so pieces 1 and 2 hold at least
        # 2x+2y-3-union >= 2y > x vertices (cousin ratio) and host2 ends
        # before vt; they hold at most union-k = x+y-2, so host2 keeps vt1
        host2 = host1.prefix(host1.n - len(piece1))
        tail2 = host2.tail(vt2)
        if anchor is not None and anchor in c_zero and anchor != w:
            self.push(tail2, to_top, piece0, anchor, w)
        else:
            self.push(tail2, to_top, piece0, w)

        remaining = piece - piece0 - piece1 - piece2
        if remaining:
            self.push(host2.prefix(host2.n - len(piece0)), to_top, remaining,
                      anchor if anchor in remaining else None)


# -- public surface ---------------------------------------------------------


def host_graph_for(host: RootedTree) -> UndirectedGraph:
    """The radius-2 generated graph the embedder targets."""
    return underlying(generate(host, EMBED_RADIUS))


def phi2_window(host: RootedTree, guest_size: int) -> bool:
    """Whether the second placement guarantee applies to this host/guest pair."""
    check_int("guest size", guest_size, 1, error=ValueError)
    if len(host.children[0]) != 2:
        return False
    x = host.sizes[host.children[0][1]]
    return 2 <= x <= guest_size <= host.n - 2


def embed(host: RootedTree, guest: RootedTree, x1: int, x2: Optional[int] = None,
          host_graph: Optional[UndirectedGraph] = None) -> Embedding:
    """Embed the guest tree into the radius-2 graph of the balanced host.

    Returns an Embedding whose unused host vertices form a preorder prefix,
    with x1 on a minimum-level image vertex and, when `phi2_window` holds,
    x2 at level <= 2.  Raises ValueError for invalid inputs, among them a
    `host_graph` that lacks an edge the map uses, and EmbeddingBugError (an
    AssertionError) when the map fails `verify_embedding` against the
    host's own graph, which would be a bug.
    """
    if guest.n > host.n:
        raise ValueError(f"guest has {guest.n} vertices, host only {host.n}")
    if host_graph is not None and host_graph.n != host.n:
        raise ValueError(f"host graph has {host_graph.n} vertices, "
                         f"host {host.n}")
    report = validate_balance(host)
    if not report.ok:
        raise ValueError(f"host is not (2,1)-balanced: {report.violations[:3]}")
    if x2 is None:
        x2 = x1
    for x in (x1, x2):
        check_int("marker", x, 0, guest.n - 1, error=ValueError)

    mapping = _solve(host, frozenset(range(guest.n)), guest, x1, x2)

    given_graph = host_graph is not None
    if not given_graph:
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
    ok, problems = verify_embedding(emb, guest, x1, x2)
    if not ok:
        if given_graph and verify_embedding(
                replace(emb, host_graph=host_graph_for(host)), guest, x1, x2)[0]:
            raise ValueError("host graph is not the host's radius-2 graph: "
                             + "; ".join(problems))
        raise EmbeddingBugError("; ".join(problems))
    return emb


def verify_embedding(embedding: Embedding, guest: RootedTree, x1: int,
                     x2: int) -> tuple[bool, list]:
    """Re-check an embedding's map: injectivity, edge preservation,
    admissible complement, and both placement guarantees.

    Returns `(ok, problems)` and raises nothing for a malformed input: a
    marker that is not exactly an int in 0..guest.n-1, a host graph whose
    size is not the host's, a map that is not total on the guest, or an
    image id that is not exactly an int in 0..n-1 ends the check with a
    problem that names it, before any edge is read.  Guest
    edges are then read from `embedding.host_graph`'s neighbour sets, which are
    trusted, not rebuilt: a caller's graph of the host's size is taken as
    the host's radius-2 graph.  An edge predicate read from the rules
    (ROADMAP item 3) would remove that trust."""
    host = embedding.host_tree
    graph = embedding.host_graph
    mapping = embedding.mapping

    for x in (x1, x2):
        try:
            check_int("marker", x, 0, guest.n - 1, error=ValueError)
        except ValueError as exc:
            return False, [str(exc)]
    if graph.n != host.n:
        return False, [f"host graph has {graph.n} vertices, host {host.n}"]
    if set(mapping.keys()) != set(range(guest.n)):
        return False, ["mapping is not total on the guest"]
    # the types before any hash or comparison: a bool would hash as an id
    if not {*map(type, mapping.values())} <= {int}:
        bad = next(h for h in mapping.values() if type(h) is not int)
        return False, [f"image vertex {bad!r} is not an int"]
    image = set(mapping.values())
    problems: list[str] = []
    if len(image) != guest.n:
        problems.append("mapping is not injective")
    if any(not (0 <= h < host.n) for h in image):
        problems.append("image vertex out of range")
        return False, problems
    adj = graph.adj
    for u in range(1, guest.n):
        p = guest.parent[u]
        if mapping[p] not in adj[mapping[u]]:
            problems.append(f"guest edge {p}-{u} maps to non-edge "
                            f"{mapping[p]}-{mapping[u]}")
    # the image's ids all lie in 0..n-1, so the unused ids are 0..n-|image|-1
    # exactly when no image id lies below n - |image|
    if min(image) < host.n - len(image):
        problems.append("unused host vertices are not a preorder prefix")

    min_level = min(host.levels[h] for h in image)
    if host.levels[mapping[x1]] != min_level:
        problems.append(f"x1 sits at level {host.levels[mapping[x1]]}, "
                        f"image minimum is {min_level}")
    if phi2_window(host, guest.n) and host.levels[mapping[x2]] > 2:
        problems.append(f"x2 sits at level {host.levels[mapping[x2]]} > 2")
    return not problems, problems

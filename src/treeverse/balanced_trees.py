"""Concrete tree families and the (2,1)-balance axioms the embedder depends on."""

from __future__ import annotations

from dataclasses import dataclass

from .tree_core import RootedTree, check_int


def _family(k: int, kinds: dict) -> tuple[RootedTree, tuple]:
    """The tree with all leaves at level k, grown from a type-1 root, in
    which a vertex of type t has children typed `kinds[t]`, and its
    vertices' types in preorder."""
    check_int("k", k, 0, error=ValueError)
    children: list[list[int]] = []
    types: list[int] = []

    # a loop, not a comprehension, which would cost a call per vertex
    def grow(height: int, vtype: int) -> int:
        u = len(children)
        kids: list[int] = []
        children.append(kids)
        types.append(vtype)
        if height:
            for t in kinds[vtype]:
                kids.append(grow(height - 1, t))
        return u

    grow(k, 1)
    return RootedTree(children), tuple(types)


def perfect_binary(k: int) -> RootedTree:
    """Perfect binary tree with all leaves at level k (2^(k+1)-1 vertices)."""
    return _family(k, {1: (1, 1)})[0]


@dataclass(frozen=True)
class TypedTree:
    """A rooted tree whose vertices carry type 1 or 2."""

    tree: RootedTree
    type_of: tuple


def typed_ternary(k: int) -> TypedTree:
    """The typed family on 3^k vertices: a type-1 vertex gets children typed
    (1, 2), a type-2 vertex gets (1, 2, 1, 2), all leaves at level k."""
    return TypedTree(*_family(k, {1: (1, 2), 2: (1, 2, 1, 2)}))


def descendant_count(level: int, vtype: int, k: int) -> int:
    """Closed form for the descendant count of a typed-ternary vertex.  Only
    tests call it; it stays for the pair count per vertex context that the
    ROADMAP plans, which needs the closed form."""
    # every type before any range: level's range reads k
    for name, v in (("level", level), ("vertex type", vtype), ("k", k)):
        check_int(name, v, error=ValueError)
    check_int("level", level, 0, k, error=ValueError)
    check_int("vertex type", vtype, 1, 2, error=ValueError)
    base = 3 ** (k - level) - 1
    return base if vtype == 1 else 2 * base


@dataclass(frozen=True)
class BalanceReport:
    """Violations of the four balance axioms; empty means the tree is balanced."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


# Axiom identifiers used in violation records.
AX_COUSIN_SUM = "cousin_sum"          # sizes of the two nearest left cousins cover u
AX_COUSIN_RATIO = "cousin_ratio"      # nearest left cousin is over half as big
AX_LEVEL_DOMINANCE = "level_dominance"  # non-rightmost vertices dominate deeper levels
AX_SIBLING_FERTILITY = "sibling_fertility"  # left cousin of a non-leaf is a non-leaf


def validate_balance(tree: RootedTree) -> BalanceReport:
    """Check the four axioms of (2,1)-balance, the ratio 2 and the gap 1 the
    embedder requires.

    The first call walks the tree and memoises the report on it, as
    `tree.balance`; later calls return that report.  A `RootedTree` does not
    change, so the report cannot go stale, and each host is walked once
    however many embeddings it serves.

    Axioms, for every vertex u with nearest left cousin l(u):
      - cousin_sum:        size(l(l(u))) + size(l(u)) >= size(u) when l(l(u)) exists
      - cousin_ratio:      2 * size(l(u)) > size(u) when l(u) exists
      - level_dominance:   if u is not rightmost on its level, size(u) >= size(u')
                           for every u' at least one level deeper
      - sibling_fertility: if u has a child and l(u) exists, l(u) has a child
    """
    if tree.balance is not None:
        return tree.balance
    violations: list[tuple] = []
    sizes = tree.sizes

    for row in tree.level_order:
        for i, u in enumerate(row):
            if i >= 1:
                left = row[i - 1]
                if 2 * sizes[left] <= sizes[u]:
                    violations.append((AX_COUSIN_RATIO, (u, left)))
                if tree.children[u] and not tree.children[left]:
                    violations.append((AX_SIBLING_FERTILITY, (u, left)))
            if i >= 2 and sizes[row[i - 2]] + sizes[row[i - 1]] < sizes[u]:
                violations.append((AX_COUSIN_SUM, (u, row[i - 1], row[i - 2])))

    # level_dominance: a vertex two or more levels down has an ancestor on
    # the next level with a strictly larger subtree, so the next level holds
    # the largest deeper subtree, and the first larger vertex below
    for row, below in zip(tree.level_order, tree.level_order[1:]):
        if len(row) < 2:
            continue
        u = min(row[:-1], key=lambda v: sizes[v])
        deeper = next((v for v in below if sizes[v] > sizes[u]), None)
        if deeper is not None:
            violations.append((AX_LEVEL_DOMINANCE, (u, deeper)))

    tree.balance = BalanceReport(tuple(violations))
    return tree.balance

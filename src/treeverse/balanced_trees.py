"""Concrete tree families and the (2,1)-balance axioms the embedder depends on."""

from __future__ import annotations

from dataclasses import dataclass

from .tree_core import RootedTree


def perfect_binary(k: int) -> RootedTree:
    """Perfect binary tree with all leaves at level k (2^(k+1)-1 vertices)."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 0:
        raise ValueError("k must be non-negative")
    children: list[list[int]] = []

    def grow(level: int) -> int:
        u = len(children)
        children.append([])
        if level < k:
            children[u] = [grow(level + 1), grow(level + 1)]
        return u

    grow(0)
    return RootedTree(children)


@dataclass(frozen=True)
class TypedTree:
    """A rooted tree whose vertices carry type 1 or 2."""

    tree: RootedTree
    type_of: tuple


def typed_ternary(k: int) -> TypedTree:
    """The typed family on 3^k vertices: a type-1 vertex gets children typed
    (1, 2), a type-2 vertex gets (1, 2, 1, 2), all leaves at level k."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 0:
        raise ValueError("k must be non-negative")
    children: list[list[int]] = []
    types: list[int] = []

    def grow(level: int, vtype: int) -> int:
        u = len(children)
        children.append([])
        types.append(vtype)
        if level < k:
            kinds = (1, 2) if vtype == 1 else (1, 2, 1, 2)
            children[u] = [grow(level + 1, t) for t in kinds]
        return u

    grow(0, 1)
    return TypedTree(RootedTree(children), tuple(types))


def descendant_count(level: int, vtype: int, k: int) -> int:
    """Closed form for the descendant count of a typed-ternary vertex.  Only
    tests call it; it stays for the pair count per vertex context that the
    ROADMAP plans, which needs the closed form."""
    if not (0 <= level <= k):
        raise ValueError(f"level {level} out of range 0..{k}")
    if vtype not in (1, 2):
        raise ValueError("vertex type must be 1 or 2")
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

    Axioms, for every vertex u with nearest left cousin l(u):
      - cousin_sum:        size(l(l(u))) + size(l(u)) >= size(u) when l(l(u)) exists
      - cousin_ratio:      2 * size(l(u)) > size(u) when l(u) exists
      - level_dominance:   if u is not rightmost on its level, size(u) >= size(u')
                           for every u' at least one level deeper
      - sibling_fertility: if u has a child and l(u) exists, l(u) has a child
    """
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

    return BalanceReport(tuple(violations))

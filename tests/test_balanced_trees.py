import hashlib
import random

import pytest

from treeverse.balanced_trees import (AX_COUSIN_RATIO, AX_LEVEL_DOMINANCE,
                                      descendant_count, perfect_binary,
                                      typed_ternary, validate_balance)
from treeverse.tree_core import RootedTree, build_tree, from_parens

from trees import ordered_trees, prufer_tree, rand_tree, spider_tree


def test_perfect_binary_sizes():
    assert perfect_binary(0).n == 1
    assert perfect_binary(2).n == 7
    assert perfect_binary(10).n == 2047
    with pytest.raises(ValueError, match=r"^k -1 out of range 0\.\.$"):
        perfect_binary(-1)
    for bad, text in ((1.5, "1.5"), (True, "True"), ("2", "'2'")):
        with pytest.raises(ValueError, match=f"^k {text} is not an int$"):
            perfect_binary(bad)
    b = perfect_binary(3)
    for u in range(b.n):
        assert len(b.children[u]) in (0, 2)
        assert (len(b.children[u]) == 0) == (b.levels[u] == 3)


def test_typed_ternary_shape():
    t1 = typed_ternary(1)
    assert t1.tree.n == 3
    assert t1.type_of == (1, 1, 2)

    t2 = typed_ternary(2)
    assert t2.tree.n == 9
    v1, v2 = t2.tree.children[0]
    assert t2.type_of[v1] == 1 and len(t2.tree.children[v1]) == 2
    assert t2.type_of[v2] == 2 and len(t2.tree.children[v2]) == 4

    assert typed_ternary(3).tree.n == 27
    assert typed_ternary(0).tree.n == 1
    with pytest.raises(ValueError, match=r"^k -1 out of range 0\.\.$"):
        typed_ternary(-1)
    for bad, text in ((1.5, "1.5"), (True, "True"), ("2", "'2'")):
        with pytest.raises(ValueError, match=f"^k {text} is not an int$"):
            typed_ternary(bad)


def test_typed_ternary_leaves_at_level_k():
    t = typed_ternary(3)
    for u in range(t.tree.n):
        assert bool(t.tree.children[u]) == (t.tree.levels[u] < 3)


def test_descendant_count_closed_form():
    assert descendant_count(2, 1, 2) == 0
    assert descendant_count(2, 2, 2) == 0
    assert descendant_count(1, 2, 2) == 4
    assert descendant_count(0, 1, 3) == 26
    with pytest.raises(ValueError, match=r"^level 4 out of range 0\.\.3$"):
        descendant_count(4, 1, 3)
    with pytest.raises(ValueError,
                       match=r"^vertex type 3 out of range 1\.\.2$"):
        descendant_count(0, 3, 3)
    # floats gave 4.196... and 14.59, and True passed as type 1
    for args, text in (((1.5, 1, 3), "level 1.5"), ((0, 1, 2.5), "k 2.5"),
                       ((0, True, 2), "vertex type True"),
                       ((0, 2.0, 2), "vertex type 2.0")):
        with pytest.raises(ValueError, match=f"^{text} is not an int$"):
            descendant_count(*args)


def test_descendant_count_matches_tree():
    for k in range(0, 6):
        t = typed_ternary(k)
        for u in range(t.tree.n):
            assert (t.tree.sizes[u] - 1
                    == descendant_count(t.tree.levels[u], t.type_of[u], k))


def test_type_alternation_per_level():
    for k in (2, 3, 4):
        t = typed_ternary(k)
        for row in t.tree.level_order[1:]:
            kinds = [t.type_of[u] for u in row]
            assert kinds == [1, 2] * (len(row) // 2)
            assert kinds.count(1) == kinds.count(2)


def test_balance_of_families():
    for k in range(0, 7):
        assert validate_balance(typed_ternary(k).tree).ok
    for k in range(0, 8):
        assert validate_balance(perfect_binary(k)).ok


def test_balance_admissible_prefixes_stay_balanced():
    t = typed_ternary(3).tree
    for m in range(1, t.n + 1):
        assert validate_balance(t.prefix(m)).ok


def test_ratio_violation_reported():
    # root with subtree sizes (1, 5): the second child is too heavy
    big = build_tree([[1, 2], [], [3, 4], [], []])
    assert big.sizes[1] == 1 and big.sizes[2] in (3, 4)
    lopsided = RootedTree([[1, 2], [], [3, 4, 5, 6], [], [], [], []])
    report = validate_balance(lopsided)
    assert not report.ok
    assert any(ax == AX_COUSIN_RATIO and wit[0] == 2
               for ax, wit in report.violations)


def test_balance_report_is_kept_on_the_tree():
    """The first check fills `tree.balance`; a repeated check returns that
    report, equal to the report of a fresh copy of the tree."""
    lopsided = RootedTree([[1, 2], [], [3, 4, 5, 6], [], [], [], []])
    for tree in (typed_ternary(4).tree, lopsided):
        assert tree.balance is None
        first = validate_balance(tree)
        assert tree.balance is first
        assert validate_balance(tree) == first
        assert validate_balance(RootedTree(tree.children)) == first


def test_exact_fraction_boundary():
    # the cousin ratio needs 2 * size(left) > size(u): sizes (3, 4) pass,
    # sizes (2, 4) sit on the boundary and fail
    t = RootedTree([[1, 4], [2, 3], [], [], [5, 6, 7], [], [], []])
    assert t.sizes[1] == 3 and t.sizes[4] == 4
    assert validate_balance(t).ok
    edge = RootedTree([[1, 3], [2], [], [4, 5, 6], [], [], []])
    assert edge.sizes[1] == 2 and edge.sizes[3] == 4
    assert validate_balance(edge).violations == ((AX_COUSIN_RATIO, (3, 1)),)


def _balance_pool():
    """Every ordered tree on at most 10 vertices, both families for k <= 7,
    and 3000 seeded random, Prüfer and spider trees of 1..300 vertices."""
    for n in range(1, 11):
        yield from map(from_parens, ordered_trees(n))
    for k in range(8):
        yield perfect_binary(k)
        yield typed_ternary(k).tree
    rng = random.Random(1983)
    for i in range(3000):
        n = rng.randint(1, 300)
        if i % 3 == 0:
            yield rand_tree(rng, n)
        elif i % 3 == 1:
            yield prufer_tree(rng, max(n, 2))
        else:
            legs = []
            while sum(legs) < n - 1:
                legs.append(rng.randint(1, n - 1 - sum(legs)))
            yield spider_tree(legs)


# sha256 of the `validate_balance` reports over `_balance_pool()`, recorded
# while level dominance compared each level with every deeper level
PINNED_BALANCE_SHA256 = \
    "50786f76d1b5b8b9740a3e8999f961878b49ece49d1df473fe4e866fc62a3438"


def test_balance_reports_match_the_pinned_hash_and_the_axiom():
    """The reports hash as recorded.  Each level-dominance witness (u, v)
    has v deeper than u with a larger subtree, and a level is reported
    exactly when some non-rightmost vertex on it is smaller than some
    vertex on any deeper level."""
    digest = hashlib.sha256()
    for tree in _balance_pool():
        violations = validate_balance(tree).violations
        digest.update(repr(violations).encode())
        sizes, levels = tree.sizes, tree.levels
        reported = []
        for axiom, witness in violations:
            if axiom == AX_LEVEL_DOMINANCE:
                u, v = witness
                assert levels[v] > levels[u] and sizes[v] > sizes[u]
                reported.append(levels[u])
        deeper_max = 0   # the largest subtree below the level in hand
        violated = []
        for lvl in range(tree.depth, -1, -1):
            row = tree.level_order[lvl]
            if any(sizes[u] < deeper_max for u in row[:-1]):
                violated.append(lvl)
            deeper_max = max(deeper_max, *(sizes[u] for u in row))
        assert reported == violated[::-1]
    assert digest.hexdigest() == PINNED_BALANCE_SHA256

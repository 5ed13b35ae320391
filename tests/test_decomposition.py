import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treeverse.decomposition import (ComponentCollection, _bounded_walk,
                                     _RootedPass, classify,
                                     find_bounded_components,
                                     find_feasible_or_critical)
import treeverse
from treeverse.balanced_trees import perfect_binary
from treeverse.tree_core import Forest, TreeError, build_tree

from trees import (path_tree, rand_tree, random_subset, spider_tree,
                   star_tree)


def check_bounded(forest, coll, u, x):
    """Independent validator: true components, u-free, window respected."""
    assert u not in coll.union
    assert x <= coll.union_size <= 2 * x - 1
    real = {frozenset(c) for c in forest.components(removed=coll.w)}
    for c in coll.components:
        assert c in real
    seen = set()
    for c in coll.components:
        assert not (seen & c)
        seen |= c


def check_feasible_or_critical(forest, coll, kind, u, x, y):
    assert u not in coll.union
    real = {frozenset(c) for c in forest.components(removed=coll.w)}
    for c in coll.components:
        assert c in real
    total = coll.union_size
    if kind == "feasible":
        assert x <= total + 1 <= x + y - 2
    else:
        assert kind == "critical"
        assert len(coll.components) >= 2
        assert x + y - 2 <= total <= 2 * x - 3
        for c in coll.components:
            assert total - len(c) <= x - 2
            assert len(c) >= y


def test_bounded_star_center():
    t = star_tree(5)
    coll = find_bounded_components(t, 0, 2)
    assert coll.w == 0 and coll.union_size == 2
    check_bounded(Forest.from_tree(t), coll, 0, 2)


def test_bounded_path_end():
    t = path_tree(5)
    coll = find_bounded_components(t, 0, 2)
    check_bounded(Forest.from_tree(t), coll, 0, 2)
    assert coll.union_size in (2, 3)


def test_bounded_minimum_size_forest():
    t = path_tree(4)
    coll = find_bounded_components(t, 3, 3)
    check_bounded(Forest.from_tree(t), coll, 3, 3)
    with pytest.raises(ValueError, match="^forest needs at least 5 vertices$"):
        find_bounded_components(t, 0, 4)


def test_finders_refuse_bad_arguments():
    """Each refusal, with its exact text.  An id outside the tree is refused
    before any other check; -1 is refused too, though the tree's parent
    tuple would read it as vertex n-1."""
    t = path_tree(9)
    calls = ((find_bounded_components, (1,), (0,)),
             (find_feasible_or_critical, (3, 2), (0, 0)))
    for find, args, bad_args in calls:
        # a float equal to an id is refused like any other non-int
        for bad in (9, 12, -1, 4.0, 2.5, "4"):
            with pytest.raises(TreeError, match="^induced set is not a "
                                                "subset of the forest$"):
                find(t, 0, *args, within={0, 1, 2, 3, bad})
        with pytest.raises(TreeError, match="^induced set is not a subset"):
            find(t, 0, *args, within={0, 1.0, 2, 3})
        with pytest.raises(TreeError, match="^induced set is not a subset"):
            find(t, 20, *bad_args, within={-1})
        with pytest.raises(ValueError, match="^vertex 5 not in forest$"):
            find(t, 5, *args, within={0, 1, 2, 3, 6, 7})
        with pytest.raises(ValueError,
                           match=r"^forest needs at least 4 vertices$"):
            find(t, 0, 3, *args[1:], within={0, 1, 2})
    for x in (0, -2):
        with pytest.raises(ValueError, match="^x must be positive$"):
            find_bounded_components(t, 0, x, within={0, 1, 2})
    for x, y in ((1, 3), (3, 1), (1, 1), (0, 2)):
        with pytest.raises(ValueError, match="^requires x >= 2 and y >= 2$"):
            find_feasible_or_critical(t, 0, x, y, within={0, 1, 2, 3})
    # a vertex or a size only equal to an int is refused by name: 2.5 ended
    # the search in a bare StopIteration, 1.0 in Python's own TypeError, and
    # True was read as vertex 1 or as 1
    b3 = perfect_binary(3)
    for find, args, text in (
            (find_feasible_or_critical, (b3, 0, 3, 2.5), "y 2.5"),
            (find_feasible_or_critical, (b3, 0, 3.0, 2), "x 3.0"),
            (find_feasible_or_critical, (b3, True, 3, 2), "vertex True"),
            (find_bounded_components, (t, 1.0, 2), "vertex 1.0"),
            (find_bounded_components, (t, True, 2), "vertex True"),
            (find_bounded_components, (t, 0, True), "x True"),
            (find_bounded_components, (t, "0", 2), "vertex '0'")):
        with pytest.raises(TreeError, match=f"^{text} is not an int$"):
            find(*args)


def test_classify_examples():
    mk = lambda comps: ComponentCollection(0, tuple(map(frozenset, comps)))
    # union+pivot lands exactly on both window ends
    assert classify(mk([{1, 2, 3, 4, 5}]), 5, 3) == "feasible"
    assert classify(mk([{1, 2, 3}, {4, 5, 6}]), 5, 3) == "critical"
    # a single component is never critical
    assert classify(mk([{1, 2, 3, 4, 5, 6}]), 5, 3) == "plain"
    # oversized proper subset disqualifies
    assert classify(mk([{1, 2, 3, 4}, {5, 6}]), 5, 3) == "plain"


def test_feasible_small_forest_uses_all_components():
    t = star_tree(6)  # 6 vertices, x=4, y=3: |T| = x+y-1... use x=5,y=3
    coll, kind = find_feasible_or_critical(t, 0, 5, 3)
    assert kind == "feasible"
    assert coll.w == 0 and coll.union_size == 5
    check_feasible_or_critical(Forest.from_tree(t), coll, kind, 0, 5, 3)


def test_feasible_star():
    t = star_tree(12)
    coll, kind = find_feasible_or_critical(t, 0, 5, 3)
    assert kind == "feasible"
    check_feasible_or_critical(Forest.from_tree(t), coll, kind, 0, 5, 3)


def test_spider_two_long_legs():
    t = spider_tree([5, 5])
    coll, kind = find_feasible_or_critical(t, 0, 4, 3)
    check_feasible_or_critical(Forest.from_tree(t), coll, kind, 0, 4, 3)


def test_critical_shape():
    # pivot with three legs of length 3 forces a critical pair for (5, 3)
    t = spider_tree([3, 3, 3])
    coll, kind = find_feasible_or_critical(t, 0, 5, 3)
    check_feasible_or_critical(Forest.from_tree(t), coll, kind, 0, 5, 3)


def random_piece(rng, max_n=60):
    """A random tree on 2..max_n vertices and a random set of at least two
    of its ids, as the embedder hands a piece to the finders."""
    n = rng.randint(2, max_n)
    return rand_tree(rng, n), random_subset(rng, n)


def test_randomized_validation():
    """The finders' collections on random pieces are components of the
    forest `Forest.induced` builds on the piece, within their windows; on
    the whole tree, no `within` and every id as `within` agree."""
    rng = random.Random(2024)
    for _ in range(1500):
        tree, keep = random_piece(rng)
        f = Forest.from_tree(tree).induced(keep)
        n = len(keep)
        u = rng.choice(f.vertices)
        x = rng.randint(1, n - 1)
        coll = find_bounded_components(tree, u, x, within=keep)
        check_bounded(f, coll, u, x)
        x = rng.randint(1, tree.n - 1)
        coll = find_bounded_components(tree, u, x)
        check_bounded(Forest.from_tree(tree), coll, u, x)
        assert coll == find_bounded_components(tree, u, x,
                                               within=range(tree.n))
        if n >= 5:
            y = rng.randint(2, max(2, n // 2))
            x2 = rng.randint(y + 1, n - 1)
            coll, kind = find_feasible_or_critical(tree, u, x2, y,
                                                   within=keep)
            check_feasible_or_critical(f, coll, kind, u, x2, y)
            found = find_feasible_or_critical(tree, u, x2, y)
            check_feasible_or_critical(Forest.from_tree(tree), *found,
                                       u, x2, y)
            assert found == find_feasible_or_critical(tree, u, x2, y,
                                                      within=range(tree.n))


def reference_walk(rooted, x):
    """The bounded walk that ranks every candidate at every step."""
    w = rooted.u
    while True:
        cands = rooted.below(w)
        if cands and rooted.size[cands[0]] >= 2 * x:
            w = cands[0]
            continue
        total = 0
        for j, c in enumerate(cands, 1):
            total += rooted.size[c]
            if total >= x:
                return w, cands[:j]


def test_heavy_child_walk_matches_the_ranking_walk():
    """Stepping to the heavy child off the path to u's top picks the same
    pivot and components as ranking every candidate at every step, ties to
    the smaller id included."""
    rng = random.Random(808)
    for i in range(1500):
        # spiders give many equal-sized children
        if i % 3:
            tree, keep = random_piece(rng)
        else:
            tree = spider_tree([rng.randint(1, 6)] * rng.randint(2, 6))
            keep = set(range(tree.n))
        n = len(keep)
        u = rng.choice(sorted(keep))
        x = rng.randint(1, max(1, n // 2))
        if n < x + 1:
            continue
        rooted = _RootedPass(tree, u, frozenset(keep), x)
        assert _bounded_walk(rooted) == reference_walk(rooted, x)


def test_feasible_when_x_at_most_y():
    """The critical window [x+y-2, 2x-3] is empty for x <= y, so the finder
    returns a feasible collection: the bounded walk at x-1 once the forest
    has more than x+y-2 vertices, every component of forest - u below that."""
    rng = random.Random(1515)
    walked = 0
    for _ in range(1500):
        tree, keep = random_piece(rng)
        n = len(keep)
        if n < 3:
            continue
        x = rng.randint(2, n - 1)
        y = rng.randint(x, x + 6)
        u = rng.choice(sorted(keep))
        coll, kind = find_feasible_or_critical(tree, u, x, y, within=keep)
        assert kind == "feasible"
        check_feasible_or_critical(Forest.from_tree(tree).induced(keep),
                                   coll, kind, u, x, y)
        if n > x + y - 2:
            walked += 1
            assert coll == find_bounded_components(tree, u, x - 1,
                                                   within=keep)
        else:
            assert coll.w == u and coll.union_size == n - 1
    assert walked > 300


@st.composite
def pieces(draw):
    """A tree on 2..30 vertices and a set of at least two of its ids."""
    n = draw(st.integers(min_value=2, max_value=30))
    parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(n - 1)]
    keep = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                        min_size=2))
    children = [[] for _ in range(n)]
    for u, p in enumerate(parents, start=1):
        children[p].append(u)
    return build_tree(children), keep


@settings(max_examples=200, deadline=None)
@given(pieces(), st.data())
def test_bounded_window_property(piece, data):
    tree, keep = piece
    u = data.draw(st.sampled_from(sorted(keep)))
    x = data.draw(st.integers(min_value=1, max_value=len(keep) - 1))
    coll = find_bounded_components(tree, u, x, within=keep)
    check_bounded(Forest.from_tree(tree).induced(keep), coll, u, x)


def test_critical_pair_when_ratio_bounded():
    # whenever 2y > x, critical outputs have exactly two components
    rng = random.Random(7)
    found = 0
    for _ in range(4000):
        tree, keep = random_piece(rng, max_n=40)
        n = len(keep)
        if n < 6:
            continue
        y = rng.randint(2, max(2, n // 3))
        x = rng.randint(y + 1, min(2 * y - 1, n - 1))
        if x <= y:
            continue
        u = rng.choice(sorted(keep))
        coll, kind = find_feasible_or_critical(tree, u, x, y, within=keep)
        if kind == "critical":
            found += 1
            assert len(coll.components) == 2
    assert found > 0


def test_walks_are_linear_in_the_forest():
    # one rooted pass per call: a path walked from one end must not rescan
    # the whole forest at every step, nor read its parent and child tuples
    # more than a few times per vertex, whole or restricted to a subset
    reads = [0]

    class CountingTuple(tuple):
        def __getitem__(self, key):
            reads[0] += 1
            return super().__getitem__(key)

    tree = path_tree(1000)
    base = Forest.from_tree(tree)
    tree.parent = CountingTuple(tree.parent)
    tree.children = CountingTuple(tree.children)
    n = tree.n

    coll = find_bounded_components(tree, 0, 1)
    assert reads[0] <= 6 * n, reads[0]
    check_bounded(base, coll, 0, 1)

    reads[0] = 0
    coll, kind = find_feasible_or_critical(tree, 0, 4, 2)
    assert reads[0] <= 6 * n, reads[0]
    check_feasible_or_critical(base, coll, kind, 0, 4, 2)

    # the whole path, and the path without vertex 500 (two pieces), walked
    # from either end
    for within in (None, frozenset(range(n)) - {500}):
        reference = base if within is None else base.induced(within)
        for u in (0, n - 1):
            reads[0] = 0
            coll = find_bounded_components(tree, u, 1, within=within)
            assert reads[0] <= 6 * n, (within is None, u, reads[0])
            check_bounded(reference, coll, u, 1)

            reads[0] = 0
            coll, kind = find_feasible_or_critical(tree, u, 4, 2,
                                                   within=within)
            assert reads[0] <= 6 * n, (within is None, u, reads[0])
            check_feasible_or_critical(reference, coll, kind, u, 4, 2)


MISCLASSIFIED = textwrap.dedent("""
    import sys
    from treeverse import decomposition
    from treeverse.tree_core import from_parens

    if __debug__:
        sys.exit("asserts are still on")

    decomposition.classify = lambda coll, x, y: "plain"
    # a star gives a feasible pick, three legs of length 3 a critical pair
    for text in ("(" + "()" * 11 + ")", "(" + "((()))" * 3 + ")"):
        tree = from_parens(text)
        try:
            decomposition.find_feasible_or_critical(tree, 0, 5, 3)
        except decomposition.DecompositionBugError as exc:
            print("raised:", exc)
            continue
        print("returned a misclassified collection")
        sys.exit(1)
""")


def test_misclassified_result_raises_under_python_O():
    """With asserts stripped, the finders still refuse a collection that
    their classifier rejects."""
    src = str(Path(treeverse.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", MISCLASSIFIED],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("raised:") == 2
    assert "classifies plain" in proc.stdout

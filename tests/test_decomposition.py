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
from treeverse.tree_core import Forest, build_tree

from trees import cut_forest, path_tree, rand_tree, spider_tree, star_tree


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
    f = Forest.from_tree(star_tree(5))
    coll = find_bounded_components(f, 0, 2)
    assert coll.w == 0 and coll.union_size == 2
    check_bounded(f, coll, 0, 2)


def test_bounded_path_end():
    f = Forest.from_tree(path_tree(5))
    coll = find_bounded_components(f, 0, 2)
    check_bounded(f, coll, 0, 2)
    assert coll.union_size in (2, 3)


def test_bounded_minimum_size_forest():
    t = path_tree(4)
    f = Forest.from_tree(t)
    coll = find_bounded_components(f, 3, 3)
    check_bounded(f, coll, 3, 3)
    with pytest.raises(ValueError):
        find_bounded_components(f, 0, 4)
    # the sweep reads parents before children, so ids out of preorder are
    # refused: the path 3 - 2 - 1 - 0 hung from 3
    upside_down = Forest((0, 1, 2, 3), {0: 1, 1: 2, 2: 3, 3: None},
                         {0: (), 1: (0,), 2: (1,), 3: (2,)}, (3,))
    for find, args in ((find_bounded_components, (0, 1)),
                       (find_feasible_or_critical, (0, 3, 2))):
        with pytest.raises(ValueError, match="larger id"):
            find(upside_down, *args)


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
    f = Forest.from_tree(t)
    coll, kind = find_feasible_or_critical(f, 0, 5, 3)
    assert kind == "feasible"
    assert coll.w == 0 and coll.union_size == 5
    check_feasible_or_critical(f, coll, kind, 0, 5, 3)


def test_feasible_star():
    f = Forest.from_tree(star_tree(12))
    coll, kind = find_feasible_or_critical(f, 0, 5, 3)
    assert kind == "feasible"
    check_feasible_or_critical(f, coll, kind, 0, 5, 3)


def test_spider_two_long_legs():
    t = spider_tree([5, 5])
    f = Forest.from_tree(t)
    coll, kind = find_feasible_or_critical(f, 0, 4, 3)
    check_feasible_or_critical(f, coll, kind, 0, 4, 3)


def test_critical_shape():
    # pivot with three legs of length 3 forces a critical pair for (5, 3)
    t = spider_tree([3, 3, 3])
    f = Forest.from_tree(t)
    coll, kind = find_feasible_or_critical(f, 0, 5, 3)
    check_feasible_or_critical(f, coll, kind, 0, 5, 3)


def cut_tree(rng, max_n=60):
    """A random tree and the forest cut from it, each non-root vertex
    losing its parent edge with probability 0.15."""
    n = rng.randint(2, max_n)
    tree = rand_tree(rng, n)
    return tree, cut_forest(tree, {u for u in range(1, n)
                                   if rng.random() < 0.15})


def random_forest(rng, max_n=60):
    return cut_tree(rng, max_n)[1]


def outcome(find, *args, **kwargs):
    """A finder's result, or the text of the ValueError it raised."""
    try:
        return find(*args, **kwargs)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_randomized_validation():
    rng = random.Random(2024)
    # a vertex subset of each forest, some picks outside it, and window
    # arguments that the finders refuse: `within` must act as `induced`
    sub_rng = random.Random(2025)
    negative = 0
    for _ in range(1500):
        tree, f = cut_tree(rng)
        whole = Forest.from_tree(tree)

        def same_on_the_uncut_tree(find, *args, **kwargs):
            """The finder reads the uncut tree itself as it reads the
            tree's Forest: equal results, or equal refusal texts."""
            got = outcome(find, tree, *args, **kwargs)
            assert got == outcome(find, whole, *args, **kwargs)
            return got

        n = len(f)
        u = rng.choice(f.vertices)
        x = rng.randint(1, n - 1)
        coll = find_bounded_components(f, u, x)
        check_bounded(f, coll, u, x)
        same_on_the_uncut_tree(find_bounded_components, u, x)
        if n >= 5:
            y = rng.randint(2, max(2, n // 2))
            x2 = rng.randint(y + 1, n - 1)
            coll, kind = find_feasible_or_critical(f, u, x2, y)
            check_feasible_or_critical(f, coll, kind, u, x2, y)
            same_on_the_uncut_tree(find_feasible_or_critical, u, x2, y)

        keep = {v for v in f.vertices if sub_rng.random() < 0.8} or {u}
        outside = sub_rng.random()
        if outside < 0.02:
            keep.add(n + 3)
        elif outside < 0.03:
            # a tree's parent tuple would read -1 as vertex n-1
            keep.add(-1)
            negative += 1
        sub = outcome(f.induced, keep)
        if isinstance(sub, str):
            # the same refusal, before any other check
            assert outcome(find_bounded_components, f, u, 1, within=keep) == sub
            assert outcome(find_feasible_or_critical, f, u, 3, 2,
                           within=keep) == sub
            assert same_on_the_uncut_tree(find_bounded_components, u, 1,
                                          within=keep) == sub
            assert same_on_the_uncut_tree(find_feasible_or_critical, u, 3, 2,
                                          within=keep) == sub
            continue
        s = len(keep)
        pick = sub_rng.choice(f.vertices)
        xs = sub_rng.randint(0, s + 1)
        ys = sub_rng.randint(1, max(2, s // 2))
        xf = sub_rng.randint(ys, s + 1)
        assert outcome(find_bounded_components, f, pick, xs, within=keep) == \
            outcome(find_bounded_components, sub, pick, xs)
        assert outcome(find_feasible_or_critical, f, pick, xf, ys,
                       within=keep) == \
            outcome(find_feasible_or_critical, sub, pick, xf, ys)
        same_on_the_uncut_tree(find_bounded_components, pick, xs, within=keep)
        same_on_the_uncut_tree(find_feasible_or_critical, pick, xf, ys,
                               within=keep)
    assert negative > 0


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
        f = random_forest(rng) if i % 3 else Forest.from_tree(spider_tree(
            [rng.randint(1, 6)] * rng.randint(2, 6)))
        n = len(f)
        u = rng.choice(f.vertices)
        x = rng.randint(1, max(1, n // 2))
        if n < x + 1:
            continue
        rooted = _RootedPass(f, u, f.parent, x)
        assert _bounded_walk(rooted) == reference_walk(rooted, x)


def test_feasible_when_x_at_most_y():
    """The critical window [x+y-2, 2x-3] is empty for x <= y, so the finder
    returns a feasible collection: the bounded walk at x-1 once the forest
    has more than x+y-2 vertices, every component of forest - u below that."""
    rng = random.Random(1515)
    walked = 0
    for _ in range(1500):
        f = random_forest(rng)
        n = len(f)
        if n < 3:
            continue
        x = rng.randint(2, n - 1)
        y = rng.randint(x, x + 6)
        u = rng.choice(f.vertices)
        coll, kind = find_feasible_or_critical(f, u, x, y)
        assert kind == "feasible"
        check_feasible_or_critical(f, coll, kind, u, x, y)
        if n > x + y - 2:
            walked += 1
            assert coll == find_bounded_components(f, u, x - 1)
        else:
            assert coll.w == u and coll.union_size == n - 1
    assert walked > 300
    for x, y in ((1, 3), (3, 1), (1, 1), (0, 2)):
        with pytest.raises(ValueError, match="requires x >= 2 and y >= 2"):
            find_feasible_or_critical(Forest.from_tree(path_tree(9)), 0, x, y)


@st.composite
def forests(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(n - 1)]
    cut = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    children = [[] for _ in range(n)]
    for u, p in enumerate(parents, start=1):
        children[p].append(u)
    return cut_forest(build_tree(children),
                      {u for u in range(1, n) if cut[u - 1]})


@settings(max_examples=200, deadline=None)
@given(forests(), st.data())
def test_bounded_window_property(f, data):
    n = len(f)
    u = data.draw(st.sampled_from(f.vertices))
    x = data.draw(st.integers(min_value=1, max_value=n - 1))
    coll = find_bounded_components(f, u, x)
    check_bounded(f, coll, u, x)


def test_critical_pair_when_ratio_bounded():
    # whenever 2y > x, critical outputs have exactly two components
    rng = random.Random(7)
    found = 0
    for _ in range(4000):
        f = random_forest(rng, max_n=40)
        n = len(f)
        if n < 6:
            continue
        y = rng.randint(2, max(2, n // 3))
        x = rng.randint(y + 1, min(2 * y - 1, n - 1))
        if x <= y:
            continue
        u = rng.choice(f.vertices)
        coll, kind = find_feasible_or_critical(f, u, x, y)
        if kind == "critical":
            found += 1
            assert len(coll.components) == 2
    assert found > 0


def test_walks_are_linear_in_the_forest():
    # one rooted pass per call: a path walked from one end must not rescan
    # the whole forest at every step, nor read its parent and child maps
    # more than a few times per vertex, whole or restricted to a subset
    reads = [0]

    class CountingDict(dict):
        def __getitem__(self, key):
            reads[0] += 1
            return super().__getitem__(key)

    base = Forest.from_tree(path_tree(1000))
    f = Forest(base.vertices, CountingDict(base.parent),
               CountingDict(base.children), base.roots)
    n = len(f)

    coll = find_bounded_components(f, 0, 1)
    assert reads[0] <= 6 * n, reads[0]
    check_bounded(base, coll, 0, 1)

    reads[0] = 0
    coll, kind = find_feasible_or_critical(f, 0, 4, 2)
    assert reads[0] <= 6 * n, reads[0]
    check_feasible_or_critical(base, coll, kind, 0, 4, 2)

    # the whole path, and the path without vertex 500 (two pieces), walked
    # from either end
    for within in (None, frozenset(range(n)) - {500}):
        reference = base if within is None else base.induced(within)
        for u in (0, n - 1):
            reads[0] = 0
            coll = find_bounded_components(f, u, 1, within=within)
            assert reads[0] <= 6 * n, (within is None, u, reads[0])
            check_bounded(reference, coll, u, 1)

            reads[0] = 0
            coll, kind = find_feasible_or_critical(f, u, 4, 2, within=within)
            assert reads[0] <= 6 * n, (within is None, u, reads[0])
            check_feasible_or_critical(reference, coll, kind, u, 4, 2)


MISCLASSIFIED = textwrap.dedent("""
    import sys
    from treeverse import decomposition
    from treeverse.tree_core import Forest, from_parens

    if __debug__:
        sys.exit("asserts are still on")

    decomposition.classify = lambda coll, x, y: "plain"
    # a star gives a feasible pick, three legs of length 3 a critical pair
    for text in ("(" + "()" * 11 + ")", "(" + "((()))" * 3 + ")"):
        forest = Forest.from_tree(from_parens(text))
        try:
            decomposition.find_feasible_or_critical(forest, 0, 5, 3)
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

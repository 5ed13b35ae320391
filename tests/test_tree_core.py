import hashlib
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from treeverse import tree_core
from treeverse.tree_core import (Forest, RootedTree, TreeError, TreeView,
                                 build_tree, from_parens, from_parent_csv,
                                 ith_ancestor, nearest_left_cousin, parse_tree,
                                 to_parens, to_parent_csv)
from treeverse.balanced_trees import perfect_binary

from trees import (ordered_trees, path_tree, rand_tree, random_subset,
                   star_tree)


@st.composite
def random_trees(draw, max_n=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parents = [draw(st.integers(min_value=0, max_value=i)) for i in range(n - 1)]
    children = [[] for _ in range(n)]
    for u, p in enumerate(parents, start=1):
        children[p].append(u)
    return build_tree(children)


def test_build_single_vertex():
    t = build_tree([[]])
    assert t.n == 1 and t.parent[0] is None


def test_build_relabels_into_preorder():
    # root 0 with children [1, 4]; 1 has children [2, 3] -- give it scrambled
    children = [[2, 1], [], [3, 4], [], []]
    t = build_tree(children)
    assert t.children[0] == (1, 4)
    assert t.children[1] == (2, 3)
    assert t.parent == (None, 0, 1, 1, 0)


def test_build_path_rooted_at_end():
    t = build_tree([[1], [2], [3], [4], []])
    assert t.children == ((1,), (2,), (3,), (4,), ())


def test_build_rejects_duplicate_child():
    with pytest.raises(TreeError):
        build_tree([[1, 1], []])
    with pytest.raises(TreeError, match="^a tree has at least one vertex$"):
        build_tree([])
    # build_tree refuses first; the tree's own check is reached directly
    with pytest.raises(TreeError, match="^a tree has at least one vertex$"):
        RootedTree([])
    with pytest.raises(TreeError, match="^child id 5 out of range$"):
        build_tree([[5], []])
    # a child id only equal to an int is refused by name: True made a path
    for bad, text in ((True, "True"), (1.0, "1.0"), ("1", "'1'")):
        with pytest.raises(TreeError, match=f"^child id {text} is not an int$"):
            build_tree([[bad], []])


def test_build_rejects_cycle():
    with pytest.raises(TreeError):
        build_tree([[1], [2], [1]])
    # a true cycle, 1 -> 2 -> 1, beside the root 0: never reached from it
    with pytest.raises(TreeError, match="^disconnected input$"):
        build_tree([[], [2], [1]])
    with pytest.raises(TreeError, match="^disconnected input$"):
        from_parent_csv("2,1")


def test_build_rejects_disconnected():
    with pytest.raises(TreeError):
        build_tree([[1], [], [], []])


def dfs_order(children, root=0):
    order, stack = [], [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(children[u]))
    return order


def test_children_lists_must_be_in_preorder():
    # 1's children are 2 and 4, but 3, a child of 0, lies between them
    with pytest.raises(TreeError, match="not in preorder"):
        RootedTree([[1, 3], [2, 4], [], [], []])
    # an id equal to an int in value is still refused, by its type, first
    for bad, children in ((1.0, [[1.0], []]), (True, [[True], []]),
                          ("1", [["1"], []]), (3.0, [[1, 2], [], [3.0], []])):
        with pytest.raises(TreeError,
                           match=f"^child id {bad!r} is not an int$"):
            RootedTree(children)
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(20000):
        n = rng.randint(1, 9)
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[rng.randrange(v)].append(v)
        preorder = dfs_order(children) == list(range(n))
        # what the rule "first child is u + 1" alone lets through
        if all(not c or c[0] == u + 1 for u, c in enumerate(children)):
            seen[preorder] += 1
        try:
            tree = RootedTree(children)
        except TreeError:
            assert not preorder
            continue
        assert preorder
        for u in range(n):
            assert list(tree.descendant_interval(u)) == \
                sorted(dfs_order(children, u))
    assert min(seen.values()) > 500


def scan_verdict(children):
    """RootedTree's refusal message, or None, with the single-tree check
    made by scanning every vertex for a parent."""
    n = len(children)
    parent, sizes = [None] * n, [1] * n
    for u in range(n - 1, -1, -1):
        end = u + 1
        for c in children[u]:
            if c != end or c == n:
                return "children lists are not in preorder"
            if parent[c] is not None:
                return f"vertex {c} has two parents"
            parent[c] = u
            end += sizes[c]
        sizes[u] = end - u
    if any(parent[u] is None for u in range(1, n)):
        return "input is not a single tree in preorder"
    return None


def test_single_tree_check_reads_the_root_size():
    for children in ([[], []], [[1], [], []], [[1], [2], [], [4], []]):
        with pytest.raises(TreeError,
                           match="^input is not a single tree in preorder$"):
            RootedTree(children)
    # every assignment of sorted child lists with n <= 4: the size check
    # refuses exactly what the scan refused, with the same message
    for n in range(1, 5):
        lists = [[c for c in range(n) if mask >> c & 1]
                 for mask in range(1 << n)]
        for children in itertools.product(lists, repeat=n):
            try:
                RootedTree(children)
                got = None
            except TreeError as exc:
                got = str(exc)
            assert got == scan_verdict(children), children


def test_a_vertex_listed_twice_is_refused_as_out_of_order():
    """`RootedTree` has no two-parents check: a child must start where its
    left sibling's subtree ends, and accepted subtrees nest, so a vertex
    listed under two parents always breaks preorder first.  Every input with
    n <= 4 whose lists hold at most two distinct ids either builds the tree
    `build_tree` builds or is refused with one of the two messages."""
    refusals = {"children lists are not in preorder",
                "input is not a single tree in preorder"}
    inputs = 0
    for n in range(1, 5):
        lists = [(), *((c,) for c in range(n)),
                 *itertools.permutations(range(n), 2)]
        for children in itertools.product(lists, repeat=n):
            inputs += 1
            try:
                tree = RootedTree(children)
            except TreeError as exc:
                assert str(exc) in refusals, children
                continue
            assert tree == build_tree(children), children
    assert inputs == 84_548


def test_level_examples():
    assert star_tree(5).levels[0] == 0
    b3 = perfect_binary(3)
    leaf = next(u for u in range(b3.n) if not b3.children[u])
    assert b3.levels[leaf] == 3
    assert path_tree(5).levels[4] == 4


def test_subtree_size_examples():
    t = path_tree(6)
    assert t.sizes[0] == 6
    assert t.sizes[5] == 1


def test_nearest_left_cousin_b2():
    b2 = perfect_binary(2)
    # level-2 vertices in order: 2, 3, 5, 6
    assert nearest_left_cousin(b2, 2) is None
    assert nearest_left_cousin(b2, 3) == 2
    assert nearest_left_cousin(b2, 5) == 3
    assert nearest_left_cousin(b2, 6) == 5
    for bad, text in ((1.0, "1.0"), (True, "True"), ("1", "'1'")):
        with pytest.raises(TreeError, match=f"^vertex {text} is not an int$"):
            nearest_left_cousin(b2, bad)


def test_nearest_left_cousin_sibling_case():
    t = star_tree(4)
    assert nearest_left_cousin(t, 2) == 1
    assert nearest_left_cousin(t, 1) is None


def test_ith_ancestor_clamps():
    b3 = perfect_binary(3)
    assert ith_ancestor(b3, 5, 0) == 5
    leaf = next(u for u in range(b3.n) if not b3.children[u])
    assert ith_ancestor(b3, leaf, 10) == 0
    t = path_tree(5)
    assert ith_ancestor(t, 3, 2) == 1
    with pytest.raises(TreeError,
                       match="^ancestor index must be non-negative$"):
        ith_ancestor(t, 0, -1)
    for bad, text in ((1.5, "1.5"), (True, "True"), ("1", "'1'")):
        with pytest.raises(TreeError,
                           match=f"^ancestor index {text} is not an int$"):
            ith_ancestor(t, 3, bad)
    for bad, text in ((1.0, "1.0"), (True, "True"), ("1", "'1'")):
        with pytest.raises(TreeError, match=f"^vertex {text} is not an int$"):
            ith_ancestor(t, bad, 1)


def _count_deeper_than(monkeypatch):
    """Patch `tree_core.bisect_left` to count its calls, and return a
    `deeper(view, r)` that answers `view.deeper_than(r)` after checking that
    the call made at most one bisect."""
    calls = [0]
    bisect = tree_core.bisect_left

    def counting(*args):
        calls[0] += 1
        return bisect(*args)

    def deeper(view, r):
        calls[0] = 0
        found = view.deeper_than(r)
        assert calls[0] <= 1, (view.n, r, calls[0])
        return found

    monkeypatch.setattr(tree_core, "bisect_left", counting)
    return deeper


def test_view_depth_bisects_the_level_rows(monkeypatch):
    """`TreeView.deeper_than(r)` tells whether a view vertex lies more than r
    levels below the view's root by one bisect of a base level row, not a
    read per level: on views of a 4000-vertex path, each n - 1 levels deep,
    each call makes at most one bisect and is right on both sides of the
    depth."""
    deeper = _count_deeper_than(monkeypatch)
    whole = TreeView(path_tree(4000))
    for view in (whole, whole.prefix(1), whole.prefix(3), whole.prefix(2500),
                 whole.subtree(1000), whole.subtree(1000).prefix(7),
                 whole.subtree(3999), whole.tail(1)):
        depth = view.n - 1
        for r in {0, 1, 2, max(depth - 1, 0), depth, depth + 1, 4000}:
            assert deeper(view, r) == (depth > r), (view.n, r)


def test_view_depth_matches_a_scan_on_every_small_tree(monkeypatch):
    """On every ordered tree with at most 8 vertices, balanced or not, each
    subtree prefix and each tail prefix answers `deeper_than(r)` as its
    deepest vertex, found by reading the level of every vertex, says, for
    each r from 0 to n, with at most one bisect per call."""
    deeper = _count_deeper_than(monkeypatch)
    views = 0
    for n in range(1, 9):
        for tree in map(from_parens, ordered_trees(n)):
            whole = TreeView(tree)
            tails = [whole.tail(c) for c in tree.children[0]]
            for view in (*map(whole.subtree, range(n)), *tails):
                for m in range(1, view.n + 1):
                    cut = view.prefix(m)
                    scan = (max(tree.levels[cut.vertex(i)] for i in range(m))
                            - tree.levels[cut.root])
                    assert ([deeper(cut, r) for r in range(n + 1)]
                            == [scan > r for r in range(n + 1)])
                    views += 1
    assert views == 21_438


def test_u_components_star_center():
    f = Forest.from_tree(star_tree(5))
    comps = f.components(removed=0)
    assert sorted(map(len, comps)) == [1, 1, 1, 1]


def test_u_components_path():
    f = Forest.from_tree(path_tree(5))
    assert sorted(map(len, f.components(removed=2))) == [2, 2]
    assert sorted(map(len, f.components(removed=4))) == [4]
    assert sorted(map(len, f.components(removed=0))) == [4]


def test_forest_induced_splits():
    f = Forest.from_tree(path_tree(6)).induced({0, 1, 3, 4})
    assert sorted(map(sorted, f.components())) == [[0, 1], [3, 4]]


def test_forest_induced_refuses_vertices_outside_the_forest():
    f = Forest.from_tree(path_tree(6)).induced({0, 1, 3, 4})
    with pytest.raises(TreeError):
        f.induced({0, 2})  # 2 is in the tree but not in this forest
    with pytest.raises(TreeError):
        Forest.from_tree(path_tree(6)).induced({5, 6})
    view = TreeView(path_tree(6)).subtree(2)  # vertices 2..5 of the path
    with pytest.raises(TreeError, match=r"^vertex 4 out of range 0\.\.3$"):
        view.subtree(4)
    for m in (0, 5):
        with pytest.raises(TreeError,
                           match=rf"^prefix size {m} out of range 1\.\.4$"):
            view.prefix(m)


# sha256 over 500 seeded induced forests: each one's vertices, and its sorted
# components whole and without each of its vertices, recorded while `Forest`
# still copied its tree's parent and child maps
PINNED_FOREST_COMPONENTS_SHA256 = (
    "8f61679fc426bd25ed2554004c3c0b4a0e811e2d9db0eab747991681b098541b")


def test_forest_components_match_the_pinned_hash():
    rng = random.Random(3001)
    digest = hashlib.sha256()
    for _ in range(500):
        n = rng.randint(2, 40)
        tree = rand_tree(rng, n)
        keep = random_subset(rng, n)
        forest = Forest.from_tree(tree).induced(keep)
        comps = [sorted(map(sorted, forest.components(removed=w)))
                 for w in (None, *sorted(keep))]
        digest.update(repr((forest.vertices, comps)).encode())
    assert digest.hexdigest() == PINNED_FOREST_COMPONENTS_SHA256


@given(random_trees())
def test_descendant_interval_property(t):
    for u in range(t.n):
        desc = {u}
        stack = [u]
        while stack:
            v = stack.pop()
            for c in t.children[v]:
                desc.add(c)
                stack.append(c)
        assert desc == set(t.descendant_interval(u))


@given(random_trees())
def test_levels_and_level_rows_match_a_recount(t):
    levels = []
    for u in range(t.n):
        depth, v = 0, u
        while t.parent[v] is not None:
            depth, v = depth + 1, t.parent[v]
        levels.append(depth)
    assert t.levels == tuple(levels)
    rows = tuple(tuple(u for u in range(t.n) if levels[u] == lvl)
                 for lvl in range(max(levels) + 1))
    assert t.level_order == rows
    before = {b: a for row in rows for a, b in zip(row, row[1:])}
    assert t.left_cousin == tuple(before.get(u) for u in range(t.n))


@given(random_trees())
def test_root_children_sizes_sum(t):
    assert sum(t.sizes[c] for c in t.children[0]) == t.n - 1


@given(random_trees())
def test_nearest_left_cousin_is_tight(t):
    for u in range(t.n):
        v = nearest_left_cousin(t, u)
        if v is None:
            assert all(t.levels[w] != t.levels[u] for w in range(u))
        else:
            assert t.levels[v] == t.levels[u]
            assert all(t.levels[w] != t.levels[u] for w in range(v + 1, u))


@given(random_trees(), st.data())
def test_admissible_prefix_is_connected(t, data):
    m = data.draw(st.integers(min_value=1, max_value=t.n))
    pref = t.prefix(m)
    assert pref.n == m  # RootedTree construction already enforces connectivity


@given(random_trees(), st.data())
def test_u_components_partition(t, data):
    u = data.draw(st.integers(min_value=0, max_value=t.n - 1))
    comps = Forest.from_tree(t).components(removed=u)
    union = set()
    for c in comps:
        assert not (union & c)
        union |= c
    assert union == set(range(t.n)) - {u}


def test_text_formats_roundtrip():
    t = build_tree([[1, 4], [2, 3], [], [], []])
    assert to_parens(t) == "((()())())"
    assert from_parens(to_parens(t)) == t
    assert from_parent_csv(to_parent_csv(t)) == t
    assert parse_tree(to_parens(t)) == t
    assert parse_tree(to_parent_csv(t)) == t
    single = build_tree([[]])
    assert to_parens(single) == "()"
    assert to_parent_csv(single) == ""
    assert parse_tree("()") == single
    # the empty text is the one-vertex tree's parent CSV, not a parens tree
    assert parse_tree(to_parent_csv(single)) == single
    assert parse_tree("") == single


@given(random_trees())
def test_text_formats_roundtrip_random(t):
    assert from_parens(to_parens(t)) == t
    assert from_parent_csv(to_parent_csv(t)) == t


def test_parens_rejects_garbage():
    for bad in ["", "(", "(()", ")(", "(x)"]:
        with pytest.raises(TreeError):
            from_parens(bad)
    with pytest.raises(TreeError, match="^unbalanced parentheses$"):
        from_parens("())")
    for bad in ("9", "-1", " -1 "):
        with pytest.raises(TreeError,
                           match=f"^parent id {bad.strip()} out of range$"):
            from_parent_csv("0," + bad)
    assert from_parent_csv(" 0 , 1 ,0") == from_parens("((())())")
    # `int` reads these too: '1_0' as 10, '+1' as 1, and non-ASCII digits
    for text, token in (("0,x", "'x'"), ("0,1.5", r"'1\.5'"), ("0,,1", "''"),
                        ("0,1_0", "'1_0'"), ("0,+1", r"'\+1'"),
                        ("0,\u0661", "'\u0661'"), ("0,--1", "'--1'"),
                        ("0,- 1", "'- 1'")):
        with pytest.raises(TreeError,
                           match=f"^parent id {token} is not an integer$"):
            parse_tree(text)
    with pytest.raises(TreeError, match="^parent id '1{5000}' is not an"):
        parse_tree("0," + "1" * 5000)   # past `int`'s digit limit

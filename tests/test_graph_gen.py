from itertools import combinations

import pytest

from treeverse.balanced_trees import perfect_binary, typed_ternary
from treeverse.graph_gen import (TAG_COUSIN_SUBTREE, TAG_NAMES,
                                 admissible_induced, count_edges_by_type,
                                 generate, legacy_generate, merged_tree,
                                 prefix_counts, to_dot, to_json, underlying)
from treeverse.oracle import enumerate_free_trees
from treeverse.tree_core import RootedTree, build_tree, nearest_left_cousin


def path_tree(n):
    return RootedTree([[u + 1] if u + 1 < n else [] for u in range(n)])


def naive_rule_edges(tree, radius):
    """Straight transcription of the four rules, independent of generate()."""
    desc = {u: set(tree.descendant_interval(u)) for u in range(tree.n)}
    arcs = set()
    for u in range(tree.n):
        for w in desc[u] - {u}:
            arcs.add((u, w))
        p = tree.parent[u]
        if p is not None:
            for sib in tree.children[p]:
                if sib < u:
                    arcs.update((u, w) for w in desc[sib])
            lc = nearest_left_cousin(tree, p)
            if lc is not None:
                arcs.update((u, w) for w in desc[lc])
        if radius > 0:
            anchor = u
            for _ in range(radius):
                if tree.parent[anchor] is not None:
                    anchor = tree.parent[anchor]
            for t in filter(lambda v: v is not None,
                            (anchor, nearest_left_cousin(tree, anchor))):
                for w in desc[t]:
                    if 1 <= tree.levels[w] - tree.levels[t] <= radius and w != u:
                        arcs.add((u, w))
    return {tuple(sorted(e)) for e in arcs}


def test_path_r0_is_complete():
    g = underlying(generate(path_tree(5), 0))
    assert g.is_complete() and g.edge_count == 10


def test_b2_r0_is_k7():
    g = underlying(generate(perfect_binary(2), 0))
    assert g.n == 7 and g.edge_count == 21 and g.is_complete()


def test_t1_r2_is_k3():
    g = underlying(generate(typed_ternary(1).tree, 2))
    assert g.n == 3 and g.edge_count == 3


def test_generate_matches_naive_expansion():
    trees = [perfect_binary(3), typed_ternary(2).tree, path_tree(7)]
    for guest in enumerate_free_trees(6).trees:
        trees.append(guest)
    for tree in trees:
        for r in (0, 1, 2, 3):
            got = {tuple(sorted(e)) for e in underlying(generate(tree, r)).edges}
            assert got == naive_rule_edges(tree, r)


def test_underlying_dedupes():
    t = build_tree([[1, 2], [], []])
    g = underlying(generate(t, 0))
    assert g.edge_count == 3  # K3 despite overlapping rule arcs
    single = underlying(generate(build_tree([[]]), 2))
    assert single.n == 1 and single.edge_count == 0


def test_count_edges_by_type():
    counts = count_edges_by_type(generate(typed_ternary(1).tree, 0))
    assert counts["undirected_total"] == 3
    b2 = count_edges_by_type(generate(perfect_binary(2), 0))
    assert b2["descendant"] == 10
    assert b2["left_sibling"] == 5
    assert b2["cousin_subtree"] == 6
    assert b2["radius"] == 0
    for guest in enumerate_free_trees(7).trees:
        assert count_edges_by_type(generate(guest, 0))["radius"] == 0


def test_prefix_counts_match_a_recount_at_every_prefix():
    digraphs = [generate(t, r) for t in enumerate_free_trees(7).trees
                for r in (0, 2)]
    digraphs += [legacy_generate(k) for k in range(5)]
    for d in digraphs:
        counts = prefix_counts(d)
        g = underlying(d)
        for m in range(d.n + 1):
            assert counts.pairs[m] == g.induced_prefix(m).edge_count
            assert counts.by_type(m) == {
                name: sum(1 for (u, w), tags in d.arcs.items()
                          if tags & bit and u < m and w < m)
                for bit, name in TAG_NAMES.items()}


def test_legacy_setting_only_weakens_the_cousin_rule():
    for k in range(5):
        tree = perfect_binary(k)
        legacy, corrected = generate(tree, 0, legacy=True), generate(tree, 0)
        assert legacy.legacy and not corrected.legacy
        assert set(legacy.arcs) <= set(corrected.arcs)
        for arc, tags in corrected.arcs.items():
            assert (legacy.arcs.get(arc, 0) | TAG_COUSIN_SUBTREE
                    == tags | TAG_COUSIN_SUBTREE)


def test_legacy_k2_equals_corrected():
    assert (underlying(legacy_generate(2)).edges
            == underlying(generate(perfect_binary(2), 0)).edges)


def test_legacy_k0_single_vertex():
    g = underlying(legacy_generate(0))
    assert g.n == 1 and g.edge_count == 0


def test_legacy_counterexample_slice():
    pref = underlying(legacy_generate(3)).induced_prefix(11)
    ids = (5, 6, 7, 8, 9, 10)
    missing = [(a, b) for a, b in combinations(ids, 2) if not pref.has_edge(a, b)]
    assert missing == [(5, 10), (6, 10), (7, 10)]


def test_admissible_induced():
    dig = generate(perfect_binary(2), 0)
    assert admissible_induced(dig, 7).edge_count == 21
    assert admissible_induced(dig, 1).n == 1
    g3_11 = admissible_induced(legacy_generate(3), 11)
    assert g3_11.n == 11
    with pytest.raises(ValueError):
        admissible_induced(dig, 8)


def test_merged_tree_full_root_run_is_identity():
    t = typed_ternary(2).tree
    tstar, iso = merged_tree(t, t.children[0])
    assert tstar == t
    assert iso == tuple(range(t.n))


def test_merged_tree_b2_children_of_last():
    b2 = perfect_binary(2)
    tstar, iso = merged_tree(b2, (5, 6))
    assert tstar.n == 3 and iso == (4, 5, 6)
    assert underlying(generate(tstar, 0)).is_complete()


def _merged_iso_holds(tree, run, r):
    tstar, iso = merged_tree(tree, run)
    image = {frozenset((iso[a], iso[b]))
             for a, b in underlying(generate(tstar, r)).edges}
    keep = set(iso)
    full = underlying(generate(tree, r))
    induced = {frozenset((a, b)) for a, b in full.edges
               if a in keep and b in keep}
    return image == induced


def test_merged_tree_t2_last_two_children_r2():
    t = typed_ternary(2).tree
    assert _merged_iso_holds(t, (7, 8), 2)


def all_valid_runs(tree):
    for row in tree.level_order[1:]:
        for i in range(len(row)):
            for j in range(i, len(row)):
                run = row[i:j + 1]
                try:
                    merged_tree(tree, run)
                except ValueError:
                    continue
                yield run


def test_merged_tree_iso_exhaustive_small():
    trees = [perfect_binary(3), typed_ternary(2).tree]
    for guest in enumerate_free_trees(6).trees:
        trees.append(guest)
    for tree in trees:
        for run in all_valid_runs(tree):
            for r in (0, 1, 2):
                assert _merged_iso_holds(tree, run, r), (tree.children, run, r)


def test_merged_tree_rejects_bad_runs():
    b3 = perfect_binary(3)
    with pytest.raises(ValueError):
        merged_tree(b3, ())
    with pytest.raises(ValueError):
        merged_tree(b3, (0,))  # the root has no parent
    with pytest.raises(ValueError):
        merged_tree(b3, (2, 1))  # different levels
    with pytest.raises(ValueError):
        merged_tree(b3, (2, 9))  # not consecutive on the level


def test_merged_tree_rejects_undominated_run():
    # 7's parent (a lone child) cannot reach 3's subtree through a sibling or
    # its parent's left cousin, so the merge map cannot be an isomorphism
    t = build_tree([[1, 4, 5], [2], [3], [], [], [6], [7], [8], []])
    assert nearest_left_cousin(t, t.parent[7]) == t.parent[3]
    with pytest.raises(ValueError):
        merged_tree(t, (3, 7))


# -- structural invariants -------------------------------------------------


def _small_tree_pool():
    pool = [perfect_binary(k) for k in (1, 2, 3)]
    pool += [typed_ternary(k).tree for k in (1, 2)]
    for guest in enumerate_free_trees(6).trees:
        pool.append(guest)
    return pool


def test_prefix_compatibility():
    for tree in _small_tree_pool():
        for r in (0, 2):
            full = underlying(generate(tree, r))
            for m in range(1, tree.n + 1):
                direct = underlying(generate(tree.prefix(m), r))
                assert full.induced_prefix(m).edges == direct.edges


def test_root_degree_is_n_minus_1():
    for tree in _small_tree_pool():
        for r in (0, 1, 2):
            g = underlying(generate(tree, r))
            assert g.degree(0) == tree.n - 1


def test_radius_monotonicity_and_collapse():
    for tree in _small_tree_pool():
        prev = underlying(generate(tree, 0)).edges
        assert prev == underlying(generate(tree, 1)).edges  # r in {0,1} agree
        for r in (1, 2, 3):
            cur = underlying(generate(tree, r)).edges
            assert prev <= cur
            prev = cur


def test_tree_edges_always_present():
    for tree in _small_tree_pool():
        g = underlying(generate(tree, 2))
        for u in range(1, tree.n):
            assert g.has_edge(u, tree.parent[u])


def test_exports_mention_every_edge():
    dig = generate(perfect_binary(2), 1)
    dot = to_dot(dig)
    js = to_json(dig)
    for a, b in underlying(dig).edges:
        assert f"{a} -- {b}" in dot
    assert '"n": 7' in js and '"r": 1' in js

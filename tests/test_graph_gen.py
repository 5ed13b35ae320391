import hashlib
import json
import random
from itertools import accumulate, combinations

import pytest

from treeverse import graph_gen
from treeverse.balanced_trees import perfect_binary, typed_ternary
from treeverse.graph_gen import (TAG_COUSIN_SUBTREE, TAG_NAMES, PrefixCounts,
                                 UndirectedGraph, generate, merged_tree,
                                 prefix_counts, to_dot, to_json, underlying)
from treeverse.oracle import enumerate_free_trees
from treeverse.tree_core import (RootedTree, build_tree, from_parens,
                                 nearest_left_cousin)

from trees import (balanced_hosts, ordered_trees, path_tree, rand_tree,
                   spider_tree, star_tree)


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


def test_neighbour_sets_answer_every_pair_query():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 14)
        raw = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
        raw = [(u, w) for u, w in raw if u != w]
        raw += [(w, u) for u, w in raw[:n]]  # duplicates, other orientation
        pairs = {(min(e), max(e)) for e in raw}
        g = UndirectedGraph(n, raw)
        assert g.edges == frozenset(pairs) and g.edge_count == len(pairs)
        for u in range(n):
            assert len(g.adj[u]) == sum(u in e for e in pairs)
            for w in range(n):
                assert g.has_edge(u, w) == ((min(u, w), max(u, w)) in pairs)
        for m in range(n + 1):
            assert g.induced_prefix(m).edges == {e for e in pairs if e[1] < m}
        order = rng.sample(range(n), rng.randint(0, n))
        pos = {v: i for i, v in enumerate(order)}
        sub = g.induced(order)
        assert sub.n == len(order)
        assert sub.edges == {(min(pos[a], pos[b]), max(pos[a], pos[b]))
                             for a, b in pairs if a in pos and b in pos}
        shuffled = list(raw)
        rng.shuffle(shuffled)
        again = UndirectedGraph(n, [(w, u) for u, w in shuffled])
        assert again == g and hash(again) == hash(g)


def test_graph_refuses_self_loops_and_outside_endpoints():
    with pytest.raises(ValueError, match="self-loop"):
        UndirectedGraph(3, [(0, 1), (2, 2)])
    for bad in ((0, 3), (3, 0), (-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="edge endpoint out of range"):
            UndirectedGraph(3, [bad])
    # a negative count made a graph that both deciders called universal
    with pytest.raises(ValueError, match="^vertex count -1 is negative$"):
        UndirectedGraph(-1, [])
    with pytest.raises(ValueError):
        UndirectedGraph(3, [(0, 1)]).induced([2, -1])
    # a repeated vertex would take two labels, the first left isolated
    with pytest.raises(ValueError, match="induced vertex repeated"):
        UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)]).induced([0, 1, 0])


def test_count_edges_by_type():
    assert prefix_counts(typed_ternary(1).tree, 0).pairs[3] == 3
    b2 = prefix_counts(perfect_binary(2), 0).by_type(7)
    assert b2["descendant"] == 10
    assert b2["left_sibling"] == 5
    assert b2["cousin_subtree"] == 6
    assert b2["radius"] == 0
    for guest in enumerate_free_trees(7).trees:
        assert prefix_counts(guest, 0).by_type(7)["radius"] == 0


def test_prefix_counts_match_a_recount_at_every_prefix():
    cases = [(t, r, False) for t in enumerate_free_trees(7).trees
             for r in (0, 2)]
    cases += [(perfect_binary(k), 0, True) for k in range(5)]
    for tree, r, legacy in cases:
        d = generate(tree, r, legacy)
        counts = prefix_counts(tree, r, legacy)
        g = underlying(d)
        for m in range(d.n + 1):
            assert counts.pairs[m] == g.induced_prefix(m).edge_count
            assert counts.by_type(m) == {
                name: sum(1 for (u, w), tags in d.arcs.items()
                          if tags & bit and u < m and w < m)
                for bit, name in TAG_NAMES.items()}


def arc_prefix_counts(d):
    """The one pass over the arcs that `prefix_counts` used to make."""
    n, arcs = d.n, d.arcs
    pairs = [0] * (n + 1)
    tags = {bit: [0] * (n + 1) for bit in TAG_NAMES}
    for (u, w), mask in arcs.items():
        m = max(u, w) + 1
        if u < w or (w, u) not in arcs:
            pairs[m] += 1
        for bit, col in tags.items():
            if mask & bit:
                col[m] += 1
    return PrefixCounts(list(accumulate(pairs)),
                        {TAG_NAMES[bit]: list(accumulate(col))
                         for bit, col in tags.items()})


def _wide_trees():
    """Stars, brooms, spiders, caterpillars and paths of 20 to 60 vertices:
    long level rows, where many vertices share one anchor's radius spans."""
    trees = []
    for n in (20, 37, 57):
        trees += [star_tree(n), path_tree(n)]
        # brooms: a handle of h vertices, the last one holding n - h leaves
        for h in (2, n // 3):
            trees.append(RootedTree([[u + 1] for u in range(h - 1)]
                                    + [list(range(h, n))]
                                    + [[] for _ in range(n - h)]))
        # spiders: legs of `leg` vertices on a centre
        for leg in (2, 3):
            trees.append(spider_tree([leg] * -(-(n - 1) // leg)))
        # caterpillars: a spine with leaves dealt round it, the spine's
        # next vertex first or last among the children
        for spine, first in ((n // 4, True), (n // 2, False)):
            children = [[] for _ in range(n)]
            for leaf in range(spine, n):
                children[leaf % spine].append(leaf)
            for v in range(spine - 1):
                children[v].insert(0 if first else len(children[v]), v + 1)
            trees.append(build_tree(children))
    assert all(20 <= t.n <= 60 for t in trees)
    return trees


def test_prefix_counts_match_the_arc_counter():
    """Counting from block sizes and spans equals counting the arcs, at
    every prefix."""
    trees = [from_parens(s) for n in range(1, 10) for s in ordered_trees(n)]
    assert len(trees) == 2056
    trees += [typed_ternary(k).tree for k in range(6)]
    trees += [perfect_binary(k) for k in range(8)]
    trees += _wide_trees()
    for tree in trees:
        for r in range(4):
            for legacy in (False, True):
                assert prefix_counts(tree, r, legacy) == \
                    arc_prefix_counts(generate(tree, r, legacy))


def test_bound_tables_never_run_the_upward_pair_scan(monkeypatch):
    """At radius <= 2 `prefix_counts` never calls `_new_upward_pair`, so the
    bound tables, which count at radius 0 and 2, never run that scan.  At
    radius 3 it still runs."""
    calls = [0]
    check = graph_gen._new_upward_pair

    def counting(*args):
        calls[0] += 1
        return check(*args)

    monkeypatch.setattr(graph_gen, "_new_upward_pair", counting)
    rng = random.Random(25)
    trees = [typed_ternary(k).tree for k in range(1, 8)]
    trees += [perfect_binary(k) for k in range(10)]
    trees += [rand_tree(rng, rng.randint(1, 200)) for _ in range(200)]
    trees.append(path_tree(200))
    for legacy in (False, True):
        for r in (0, 1, 2):
            for tree in trees:
                prefix_counts(tree, r, legacy)
            assert calls[0] == 0, (r, legacy)
        for tree in trees:
            prefix_counts(tree, 3, legacy)
        assert calls[0] > 0, legacy
        calls[0] = 0


def test_prefix_counts_refuse_a_negative_radius():
    with pytest.raises(ValueError, match="radius must be non-negative"):
        prefix_counts(perfect_binary(2), -1)
    with pytest.raises(ValueError, match="radius must be non-negative"):
        generate(perfect_binary(2), -1)


def test_legacy_setting_only_weakens_the_cousin_rule():
    """At every radius the legacy graph lies inside the corrected one, arc
    for arc, and differs from it only in cousin tags; no prefix has more
    legacy pairs than corrected ones."""
    trees = [perfect_binary(k) for k in range(5)]
    trees += balanced_hosts(8) + _small_tree_pool()
    for tree in trees:
        for r in range(4):
            legacy = generate(tree, r, legacy=True)
            corrected = generate(tree, r)
            assert legacy.legacy and not corrected.legacy
            assert set(legacy.arcs) <= set(corrected.arcs)
            for arc, tags in corrected.arcs.items():
                assert (legacy.arcs.get(arc, 0) | TAG_COUSIN_SUBTREE
                        == tags | TAG_COUSIN_SUBTREE)
            weak = prefix_counts(tree, r, True).pairs
            strong = prefix_counts(tree, r).pairs
            assert all(w <= s for w, s in zip(weak, strong))
            assert len(weak) == len(strong) == tree.n + 1


def test_legacy_k2_equals_corrected():
    assert (underlying(generate(perfect_binary(2), 0, legacy=True)).edges
            == underlying(generate(perfect_binary(2), 0)).edges)


def test_legacy_k0_single_vertex():
    g = underlying(generate(perfect_binary(0), 0, legacy=True))
    assert g.n == 1 and g.edge_count == 0


def test_legacy_counterexample_slice():
    legacy = underlying(generate(perfect_binary(3), 0, legacy=True))
    pref = legacy.induced_prefix(11)
    ids = (5, 6, 7, 8, 9, 10)
    missing = [(a, b) for a, b in combinations(ids, 2) if not pref.has_edge(a, b)]
    assert missing == [(5, 10), (6, 10), (7, 10)]


def test_admissible_induced():
    g = underlying(generate(perfect_binary(2), 0))
    assert g.induced_prefix(7).edge_count == 21
    assert g.induced_prefix(1).n == 1
    assert g.induced_prefix(0).n == 0
    legacy = underlying(generate(perfect_binary(3), 0, legacy=True))
    assert legacy.induced_prefix(11).n == 11
    for m in (8, -1):
        with pytest.raises(ValueError, match=f"prefix size {m} out of range 0..7"):
            g.induced_prefix(m)


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
    with pytest.raises(ValueError, match="consecutive"):
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
    """The graph induced on a preorder prefix is the prefix tree's graph, at
    radii 0 to 3 and under both third rules."""
    for tree in _small_tree_pool():
        for r in range(4):
            for legacy in (False, True):
                full = underlying(generate(tree, r, legacy))
                for m in range(1, tree.n + 1):
                    direct = underlying(generate(tree.prefix(m), r, legacy))
                    assert full.induced_prefix(m) == direct


def test_root_degree_is_n_minus_1():
    for tree in _small_tree_pool():
        for r in (0, 1, 2):
            g = underlying(generate(tree, r))
            assert len(g.adj[0]) == tree.n - 1


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


# sha256 over `list(generate(t, r, legacy).arcs.items())` for every tree of
# `pinned_generator_trees`, r = 0..3 and both legacy settings, recorded while
# generate still expanded each rule inline; it pins the tags and the arcs'
# insertion order
PINNED_ARCS_SHA256 = (
    "e6e3a939480c76b25c12d8c24e48017d4421a06d769a647900f519dd557ce880")


def pinned_generator_trees():
    trees = [typed_ternary(k).tree for k in range(6)]
    trees += [perfect_binary(k) for k in range(7)]
    for n in range(1, 9):
        trees += enumerate_free_trees(n).trees
    return trees


def test_generate_matches_the_pinned_hash():
    digest = hashlib.sha256()
    for tree in pinned_generator_trees():
        for r in range(4):
            for legacy in (False, True):
                arcs = generate(tree, r, legacy).arcs
                digest.update(repr(list(arcs.items())).encode())
    assert digest.hexdigest() == PINNED_ARCS_SHA256


def test_underlying_equals_the_symmetrised_arcs():
    """The graph read from the runs has exactly the pairs of the tagged
    arcs, each in both directions."""
    for tree in pinned_generator_trees():
        for r in range(4):
            for legacy in (False, True):
                d = generate(tree, r, legacy)
                adj = [set() for _ in range(tree.n)]
                for u, w in d.arcs:
                    adj[u].add(w)
                    adj[w].add(u)
                assert underlying(d).adj == tuple(map(frozenset, adj))


def test_arcs_are_built_only_when_read():
    """Neither the undirected view nor the DOT export builds the tagged arc
    dictionary; the JSON export and a direct read do, once."""
    d = generate(typed_ternary(3).tree, 2)
    underlying(d)
    to_dot(d)
    assert "arcs" not in vars(d)
    to_json(d)
    assert vars(d)["arcs"] is d.arcs


def test_json_export_is_the_indented_dump_of_its_payload():
    """The directly written JSON equals `json.dumps(payload, indent=2)` byte
    for byte, for every tree of `pinned_generator_trees`, r = 0..3 and both
    legacy settings."""
    for tree in pinned_generator_trees():
        for r in range(4):
            for legacy in (False, True):
                d = generate(tree, r, legacy)
                arcs = d.arcs
                payload = {
                    "n": d.n,
                    "r": d.radius,
                    "legacy": d.legacy,
                    "edges": sorted({tuple(sorted(a)) for a in arcs}),
                    "arc_types": {
                        f"{u},{w}": [TAG_NAMES[bit] for bit in TAG_NAMES
                                     if tags & bit]
                        for (u, w), tags in sorted(arcs.items())},
                }
                assert to_json(d) == json.dumps(payload, indent=2)

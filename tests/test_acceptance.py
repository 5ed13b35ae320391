"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` (or plain pytest; the lines
are captured unless -s is given).  Counts are exact; the only tolerance is a
1e-6 float guard on the bound side of the edge-count inequalities.
"""

import random
from itertools import combinations

from treeverse.analytics import (FLOAT_GUARD, bound_table_binary,
                                 bound_table_ternary, reproduce_counterexample)
from treeverse.balanced_trees import perfect_binary, typed_ternary, validate_balance
from treeverse.decomposition import (classify, find_bounded_components,
                                     find_feasible_or_critical)
from treeverse.embedder import (embed, host_graph_for, phi2_window,
                                verify_embedding)
from treeverse.graph_gen import generate, merged_tree, underlying
from treeverse.oracle import (enumerate_free_trees, is_interval_universal,
                              is_universal)
from treeverse.tree_core import build_tree, nearest_left_cousin

from trees import _walk, cut_forest, rand_tree, vertex_orbit_reps


def report(criterion, name, ok):
    print(f"ACCEPTANCE {criterion} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


def test_criterion_1_universality_by_construction():
    """Every small tree embeds into the matching admissible slice, verified."""
    failures = 0
    checked = 0
    for k in (1, 2, 3):
        host = typed_ternary(k).tree
        graph = host_graph_for(host)
        for size in range(1, min(3 ** k, 12) + 1):
            for guest in enumerate_free_trees(size).trees:
                for x1 in vertex_orbit_reps(guest):
                    checked += 1
                    emb = embed(host, guest, x1, x1, host_graph=graph)
                    ok, _ = verify_embedding(emb, guest, x1, x1)
                    unused = set(range(host.n)) - set(emb.mapping.values())
                    if not ok or unused != set(range(host.n - size)):
                        failures += 1
    report(1, f"constructive universality, {checked} embeddings",
           failures == 0 and checked > 8000)


def test_criterion_2_oracle_cross_validation():
    graph = host_graph_for(typed_ternary(2).tree)
    ok_u, witness = is_universal(graph)
    ok_i, interval_witness = is_interval_universal(graph)
    report(2, "exhaustive universality and interval-universality of the "
              "9-vertex radius-2 host", ok_u and ok_i)


def test_criterion_3_legacy_counterexample_bit_exact():
    rep = reproduce_counterexample()
    exact = rep.missing_edges == [(5, 10), (6, 10), (7, 10)]
    sixes = all(rep.six_prefix_complete[lvl] for lvl in range(2, 6))
    report(3, "legacy generator misses exactly three slice edges; all "
              "6-vertex admissible graphs complete", exact and sixes)


def test_criterion_4_edge_bounds():
    ternary = bound_table_ternary(7, prefix_sweep=True)
    per_k = {}
    for row in ternary.rows:
        per_k.setdefault(row.k, []).append(row)
    spread_ok = all(len(per_k[k]) >= min(20, 3 ** k - 3 ** (k - 1))
                    for k in range(1, 8))
    window_ok = all(3 ** (r.k - 1) < r.n <= 3 ** r.k for r in ternary.rows)

    binary = bound_table_binary(10)
    ok = (ternary.ok and binary.ok and spread_ok and window_ok
          and all(r.slack >= -FLOAT_GUARD for r in ternary.rows + binary.rows))
    report(4, f"{len(ternary.rows)} ternary and {len(binary.rows)} binary "
              "rows within their bounds", ok)


def test_criterion_5_balance_axioms():
    families_ok = all(validate_balance(typed_ternary(k).tree).ok
                      for k in range(1, 9))
    t5 = typed_ternary(5).tree
    prefixes_ok = all(validate_balance(t5.prefix(m)).ok
                      for m in range(1, t5.n + 1))
    report(5, "balance axioms on the ternary family up to depth 8 and every "
              "admissible prefix at depth 5", families_ok and prefixes_ok)


def test_criterion_6_decomposition_properties():
    rng = random.Random(20240601)
    trials = 10_000
    bad = 0
    for _ in range(trials):
        n = rng.randint(3, 60)
        tree = rand_tree(rng, n)
        forest = cut_forest(tree, {u for u in range(1, n)
                                   if rng.random() < 0.15})
        u = rng.choice(forest.vertices)
        x = rng.randint(1, n - 1)
        coll = find_bounded_components(forest, u, x)
        real = {frozenset(c) for c in forest.components(removed=coll.w)}
        if (u in coll.union or not (x <= coll.union_size <= 2 * x - 1)
                or any(c not in real for c in coll.components)):
            bad += 1
        if n >= 5:
            y = rng.randint(2, max(2, n // 2))
            x2 = rng.randint(y + 1, n - 1)
            coll, kind = find_feasible_or_critical(forest, u, x2, y)
            real = {frozenset(c) for c in forest.components(removed=coll.w)}
            if (u in coll.union or classify(coll, x2, y) != kind
                    or kind not in ("feasible", "critical")
                    or any(c not in real for c in coll.components)):
                bad += 1
    report(6, f"{trials} random forests, both finders within their windows",
           bad == 0)


def _generator_identity_pool():
    pool = []
    for n in range(1, 10):
        for tree in enumerate_free_trees(n).trees:
            for root in range(tree.n):
                # re-rooted: a vertex's children are its neighbours other
                # than the one towards the new root, relabelled into preorder
                up = _walk(tree, root)[1]
                pool.append(build_tree(
                    [[v for v in (*tree.children[u], tree.parent[u])
                      if v is not None and v != up[u]] for u in range(tree.n)]))
    pool += [typed_ternary(k).tree for k in (1, 2, 3)]
    pool += [perfect_binary(k) for k in (1, 2, 3, 4)]
    return pool


def test_criterion_7_generator_identities():
    pool = _generator_identity_pool()
    bad = 0
    for tree in pool:
        graphs = {r: underlying(generate(tree, r)) for r in (0, 1, 2, 3)}
        if graphs[0].edges != graphs[1].edges:
            bad += 1  # the radius rule adds nothing below radius 2
        if not (graphs[1].edges <= graphs[2].edges <= graphs[3].edges):
            bad += 1
        if any(len(graphs[r].adj[0]) != tree.n - 1 for r in (0, 1, 2, 3)):
            bad += 1
        for r in (0, 2):
            full = graphs[r]
            for m in range(1, tree.n + 1):
                if (full.induced_prefix(m).edges
                        != underlying(generate(tree.prefix(m), r)).edges):
                    bad += 1
        for row in tree.level_order[1:]:
            for i, j in combinations(range(len(row)), 2):
                run = row[i:j + 1]
                fp, lp = tree.parent[run[0]], tree.parent[run[-1]]
                if fp != lp and nearest_left_cousin(tree, lp) != fp:
                    continue
                try:
                    tstar, iso = merged_tree(tree, run)
                except ValueError:
                    continue  # the run parent cannot dominate both subtrees
                keep = set(iso)
                for r in (0, 2):
                    image = {frozenset((iso[a], iso[b]))
                             for a, b in underlying(generate(tstar, r)).edges}
                    induced = {frozenset((a, b)) for a, b in graphs[r].edges
                               if a in keep and b in keep}
                    if image != induced:
                        bad += 1
    report(7, f"prefix/collapse/monotonicity/root-degree/merge identities "
              f"over {len(pool)} rooted trees", bad == 0)


def test_criterion_8_phi2_contract():
    bad = 0
    checked = 0

    # depth 2: exhaust the window, guests enumerated, both markers over orbits
    host = typed_ternary(2).tree
    graph = host_graph_for(host)
    x = host.sizes[host.children[0][-1]]
    for size in range(x, host.n - 1):
        assert phi2_window(host, size)
        for guest in enumerate_free_trees(size).trees:
            orbits = vertex_orbit_reps(guest)
            for x1 in orbits:
                for x2 in orbits:
                    checked += 1
                    emb = embed(host, guest, x1, x2, host_graph=graph)
                    ok, _ = verify_embedding(emb, guest, x1, x2)
                    if not ok or host.levels[emb.mapping[x2]] > 2:
                        bad += 1

    # depth 3: the window sizes (17..25) exceed the enumeration guard, so
    # sweep seeded random guests and marker pairs instead
    host = typed_ternary(3).tree
    graph = host_graph_for(host)
    x = host.sizes[host.children[0][-1]]
    rng = random.Random(8)
    for size in range(x, host.n - 1):
        assert phi2_window(host, size)
        for _ in range(40):
            guest = rand_tree(rng, size)
            for _ in range(6):
                x1 = rng.randrange(size)
                x2 = rng.randrange(size)
                checked += 1
                emb = embed(host, guest, x1, x2, host_graph=graph)
                ok, _ = verify_embedding(emb, guest, x1, x2)
                if not ok or host.levels[emb.mapping[x2]] > 2:
                    bad += 1

    report(8, f"second-marker placement at level <= 2 across {checked} "
              "window cases", bad == 0)

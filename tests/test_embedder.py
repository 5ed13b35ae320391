import hashlib
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import treeverse

from treeverse import balanced_trees, embedder
from treeverse.balanced_trees import typed_ternary
from treeverse.embedder import (Embedding, embed, host_graph_for, phi2_window,
                                verify_embedding)
from treeverse.graph_gen import UndirectedGraph, merged_tree
from treeverse.oracle import brute_embed, enumerate_free_trees
from treeverse.tree_core import (RootedTree, TreeError, TreeView, from_parens,
                                 to_parent_csv)

from trees import (balanced_hosts, count_vertex_checks, path_tree,
                   prufer_tree, rand_tree, random_caterpillar, random_spider,
                   star_tree, vertex_orbit_reps)


def test_star_center_lands_on_root(ternary_hosts):
    host, graph = ternary_hosts[2]
    emb = embed(host, star_tree(9), 0, 0, host_graph=graph)
    assert emb.mapping[0] == 0
    assert emb.phi1_ok and emb.admissible_complement and emb.ok
    ok, problems = verify_embedding(emb, star_tree(9), 0, 0)
    assert ok, problems


def test_path_full_embedding(ternary_hosts):
    host, graph = ternary_hosts[2]
    guest = path_tree(9)
    emb = embed(host, guest, 0, 0, host_graph=graph)
    ok, problems = verify_embedding(emb, guest, 0, 0)
    assert ok, problems
    assert set(emb.mapping.values()) == set(range(9))
    assert brute_embed(guest, graph) is not None  # oracle agrees it exists


def test_small_guests_leave_admissible_prefix(ternary_hosts):
    host, graph = ternary_hosts[3]
    for guest in enumerate_free_trees(7).trees:
        emb = embed(host, guest, 0, 0, host_graph=graph)
        unused = set(range(27)) - set(emb.mapping.values())
        assert unused == set(range(20))
        ok, problems = verify_embedding(emb, guest, 0, 0)
        assert ok, problems


def test_identity_embedding_verifies(ternary_hosts):
    host, graph = ternary_hosts[2]
    emb = Embedding(mapping={u: u for u in range(9)}, host_tree=host,
                    host_graph=graph, admissible_complement=True,
                    phi1_ok=True, phi2_applicable=False, phi2_ok=True)
    ok, problems = verify_embedding(emb, host, 0, 0)
    assert ok, problems
    assert emb.ok
    assert not Embedding(emb.mapping, host, graph, True, True,
                         phi2_applicable=True, phi2_ok=False).ok


def test_verifier_rejects_broken_maps(ternary_hosts):
    host, graph = ternary_hosts[2]
    guest = path_tree(3)
    emb = embed(host, guest, 0, 0, host_graph=graph)

    bad = Embedding(dict(emb.mapping), host, graph, True, True, False, True)
    bad.mapping[1] = bad.mapping[2]
    ok, problems = verify_embedding(bad, guest, 0, 0)
    assert not ok and any("injective" in p for p in problems)

    # map an edge onto a non-edge: 2 and 8 are deep cousins in separate
    # subtrees of the depth-2 host, hence adjacent... use a bigger host
    host3, graph3 = ternary_hosts[3]
    emb3 = embed(host3, path_tree(5), 0, 0, host_graph=graph3)
    nonadj = [(a, b) for a in range(27) for b in range(27)
              if a != b and not graph3.has_edge(a, b)]
    a, b = nonadj[0]
    broken = Embedding({0: a, 1: b, 2: 26, 3: 25, 4: 24}, host3, graph3,
                       True, True, False, True)
    ok, problems = verify_embedding(broken, path_tree(5), 0, 0)
    assert not ok

    gap = Embedding({0: 0, 1: 2}, host3, graph3, True, True, False, True)
    ok, problems = verify_embedding(gap, path_tree(2), 0, 0)
    assert not ok and any("prefix" in p for p in problems)


# (host depth, guest, mapping, x1, x2) and the verifier's problem list,
# recorded while it compared the unused ids with a set of all host ids:
# repeated ids with and without a gap below them, and injective gaps
CORRUPTED_IMAGES = [
    ((2, path_tree(2), {0: 8, 1: 8}, 0, 1),
     ["mapping is not injective", "guest edge 0-1 maps to non-edge 8-8"]),
    ((2, path_tree(3), {0: 7, 1: 8, 2: 8}, 0, 2),
     ["mapping is not injective", "guest edge 1-2 maps to non-edge 8-8"]),
    ((2, path_tree(3), {0: 8, 1: 8, 2: 8}, 1, 2),
     ["mapping is not injective", "guest edge 0-1 maps to non-edge 8-8",
      "guest edge 1-2 maps to non-edge 8-8"]),
    ((2, path_tree(3), {0: 6, 1: 8, 2: 8}, 0, 2),
     ["mapping is not injective", "guest edge 1-2 maps to non-edge 8-8",
      "unused host vertices are not a preorder prefix"]),
    ((2, path_tree(3), {0: 0, 1: 8, 2: 0}, 0, 1),
     ["mapping is not injective",
      "unused host vertices are not a preorder prefix"]),
    ((2, path_tree(9), {**{u: u for u in range(8)}, 8: 0}, 0, 8),
     ["mapping is not injective",
      "unused host vertices are not a preorder prefix"]),
    ((2, path_tree(2), {0: 7, 1: 8}, 0, 1), []),
    ((2, path_tree(2), {0: 6, 1: 8}, 0, 1),
     ["unused host vertices are not a preorder prefix"]),
    ((2, star_tree(3), {0: 0, 1: 7, 2: 8}, 0, 2),
     ["unused host vertices are not a preorder prefix"]),
    ((2, path_tree(2), {0: 9, 1: 9}, 0, 1),
     ["mapping is not injective", "image vertex out of range"]),
    ((3, star_tree(4), {0: 26, 1: 26, 2: 25, 3: 24}, 0, 3),
     ["mapping is not injective", "guest edge 0-1 maps to non-edge 26-26"]),
    ((3, star_tree(4), {0: 26, 1: 26, 2: 25, 3: 0}, 0, 3),
     ["mapping is not injective", "guest edge 0-1 maps to non-edge 26-26",
      "unused host vertices are not a preorder prefix",
      "x1 sits at level 3, image minimum is 0"]),
    ((3, path_tree(4), {0: 23, 1: 23, 2: 25, 3: 26}, 2, 3),
     ["mapping is not injective", "guest edge 0-1 maps to non-edge 23-23",
      "unused host vertices are not a preorder prefix"]),
    ((3, path_tree(4), {0: 0, 1: 2, 2: 1, 3: 3}, 0, 3),
     ["unused host vertices are not a preorder prefix"]),
    ((3, path_tree(4), {0: 24, 1: 25, 2: 26, 3: 22}, 1, 0),
     ["unused host vertices are not a preorder prefix",
      "x1 sits at level 3, image minimum is 2"]),
    ((3, star_tree(5), {0: 22, 1: 23, 2: 24, 3: 25, 4: 26}, 0, 4), []),
    ((3, path_tree(3), {0: 26, 1: 27, 2: 26}, 0, 2),
     ["mapping is not injective", "image vertex out of range"]),
]


def test_verifier_problems_on_corrupted_images(ternary_hosts):
    for (k, guest, mapping, x1, x2), expected in CORRUPTED_IMAGES:
        host, graph = ternary_hosts[k]
        emb = Embedding(mapping, host, graph, True, True, False, True)
        assert verify_embedding(emb, guest, x1, x2) == (not expected,
                                                        expected), mapping


def test_verifier_names_each_broken_guarantee(ternary_hosts):
    """A real embedding, corrupted four ways, fails with the message for
    each: `embed` raises EmbeddingBugError on these problems."""
    host, graph = ternary_hosts[3]
    guest = path_tree(20)
    assert phi2_window(host, guest.n)
    emb = embed(host, guest, 0, 10, host_graph=graph)
    level = {g: host.levels[h] for g, h in emb.mapping.items()}

    def problems(mapping):
        bad = Embedding(mapping, host, graph, True, True, True, True)
        ok, found = verify_embedding(bad, guest, 0, 10)
        assert not ok
        return found

    def swapped(a, b):
        out = dict(emb.mapping)
        out[a], out[b] = out[b], out[a]
        return out

    partial = dict(emb.mapping)
    del partial[7]
    assert problems(partial) == ["mapping is not total on the guest"]
    assert problems({**emb.mapping, 7: host.n}) == ["image vertex out of range"]

    deepest = max(level, key=level.get)
    assert level[deepest] > level[0] == min(level.values())
    assert (f"x1 sits at level {level[deepest]}, image minimum is {level[0]}"
            in problems(swapped(0, deepest)))

    third = next(g for g in level if level[g] == 3 and g != 0)
    assert level[10] <= 2
    assert "x2 sits at level 3 > 2" in problems(swapped(10, third))


def test_embed_rejects_bad_inputs(ternary_hosts, monkeypatch):
    host, graph = ternary_hosts[1]
    with pytest.raises(ValueError):
        embed(host, path_tree(4), 0, 0, host_graph=graph)
    lopsided = RootedTree([[1, 2], [], [3, 4, 5, 6], [], [], [], []])
    with pytest.raises(ValueError):
        embed(lopsided, path_tree(3), 0, 0)
    # a graph of the right size that lacks the edges the map uses is the
    # caller's fault, not an embedder bug
    with pytest.raises(ValueError, match="^host graph is not the host's "
                                         "radius-2 graph: guest edge 0-1"):
        embed(ternary_hosts[2][0], path_tree(5), 0, 0,
              host_graph=UndirectedGraph(9, ()))
    # a marker that is not exactly an int is refused, a float or a bool
    # equal to an id too, instead of keying the map
    for bad in (1.0, True, "1"):
        message = f"^marker {re.escape(repr(bad))} is not an int$"
        for markers in ((bad,), (0, bad)):
            with pytest.raises(ValueError, match=message):
                embed(ternary_hosts[2][0], from_parens("(()())"), *markers)

    # the sizes are compared before the balance check reads the host
    def never(tree):
        raise AssertionError("balance checked before the sizes")

    monkeypatch.setattr(embedder, "validate_balance", never)
    with pytest.raises(ValueError, match="guest has 4 vertices, host only 3"):
        embed(host, path_tree(4), 0, 0)
    big, big_graph = ternary_hosts[3]
    for wrong in (ternary_hosts[2][1], big_graph.induced_prefix(20)):
        with pytest.raises(ValueError, match=f"host graph has {wrong.n} "
                                             "vertices, host 27"):
            embed(big, path_tree(4), 0, 0, host_graph=wrong)


def test_each_host_tree_is_walked_for_balance_once(monkeypatch):
    """`embed` checks the host's balance on every call, and the check walks
    each host tree once: `validate_balance` keeps its report on the tree.
    An unbalanced host is refused with the same text on every use."""
    walks = [0]
    report = balanced_trees.BalanceReport

    def counting(violations):
        walks[0] += 1
        return report(violations)

    monkeypatch.setattr(balanced_trees, "BalanceReport", counting)
    host = typed_ternary(5).tree
    graph = host_graph_for(host)
    rng = random.Random(100)
    for _ in range(100):
        guest = rand_tree(rng, rng.randint(1, host.n))
        embed(host, guest, rng.randrange(guest.n), rng.randrange(guest.n),
              host_graph=graph)
    assert walks == [1]
    lopsided = RootedTree([[1, 2], [], [3, 4, 5, 6], [], [], [], []])
    for _ in range(2):
        with pytest.raises(ValueError) as refusal:
            embed(lopsided, path_tree(3), 0, 0)
        assert str(refusal.value) == (
            "host is not (2,1)-balanced: (('cousin_ratio', (2, 1)), "
            "('sibling_fertility', (2, 1)))")
    assert walks == [2]


def test_phi2_window_detection(ternary_hosts):
    host, _ = ternary_hosts[2]
    assert not phi2_window(host, 4)   # below the last subtree size
    assert phi2_window(host, 5)
    assert phi2_window(host, 7)
    assert not phi2_window(host, 8)   # too close to full


def test_oracle_agreement_sample(ternary_hosts):
    host, graph = ternary_hosts[2]
    for guest in enumerate_free_trees(8).trees:
        emb = embed(host, guest, 0, 0, host_graph=graph)
        ok, problems = verify_embedding(emb, guest, 0, 0)
        assert ok, problems
        assert brute_embed(guest, graph) is not None


def test_interval_consequence(ternary_hosts):
    """Embedding into prefix hosts with a forced complement size shows every
    preorder interval hosts all trees of its length; the oracle agrees."""
    from treeverse.oracle import is_interval_universal

    host, graph = ternary_hosts[2]
    for m in range(1, 10):
        trees = enumerate_free_trees(m).trees
        for i in range(9 - m + 1):
            sub_host = host.prefix(i + m)
            sub_graph = graph.induced_prefix(i + m)
            for guest in trees:
                emb = embed(sub_host, guest, 0, 0, host_graph=sub_graph)
                assert set(emb.mapping.values()) == set(range(i, i + m))
                ok, problems = verify_embedding(emb, guest, 0, 0)
                assert ok, problems
    ok, witness = is_interval_universal(graph)
    assert ok, witness


def test_random_hosts_and_guests_verify():
    rng = random.Random(31)
    full = typed_ternary(4).tree
    fg = host_graph_for(full)
    for _ in range(600):
        m = rng.randint(4, full.n)
        host = full.prefix(m)
        guest = rand_tree(rng, rng.randint(1, m))
        x1 = rng.randrange(guest.n)
        x2 = rng.randrange(guest.n)
        emb = embed(host, guest, x1, x2, host_graph=fg.induced_prefix(m))
        ok, problems = verify_embedding(emb, guest, x1, x2)
        assert ok, problems


def test_host_graph_builds_no_tagged_arcs(monkeypatch):
    """The embedder's host graph comes from the rule runs: the digraph it is
    read from never builds its arc dictionary."""
    made = []
    embedder_generate = embedder.generate

    def recording_generate(*args, **kwargs):
        made.append(embedder_generate(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(embedder, "generate", recording_generate)
    host = typed_ternary(4).tree
    graph = host_graph_for(host)
    assert len(made) == 1 and made[0].source is host
    assert "arcs" not in vars(made[0])
    assert graph.edge_count == len({frozenset(a) for a in made[0].arcs})


def test_recursion_reaches_deep_hosts():
    host = typed_ternary(5).tree
    graph = host_graph_for(host)
    rng = random.Random(5)
    guest = rand_tree(rng, 200)
    emb = embed(host, guest, 7, 11, host_graph=graph)
    ok, problems = verify_embedding(emb, guest, 7, 11)
    assert ok, problems


def test_a_seeded_guest_takes_the_critical_split(monkeypatch):
    """A case that requires `_Solver.critical_split`: a seeded 26-vertex
    guest, marked at vertex 0, into `typed_ternary(4)` takes it once."""
    hits = []
    split = embedder._Solver.critical_split

    def critical_split(self, *args):
        hits.append(args)
        return split(self, *args)

    monkeypatch.setattr(embedder._Solver, "critical_split", critical_split)
    guest = rand_tree(random.Random(0), 26)
    emb = embed(typed_ternary(4).tree, guest, 0, 0)
    assert len(hits) == 1
    ok, problems = verify_embedding(emb, guest, 0, 0)
    assert ok, problems


def test_every_small_balanced_host_hosts_every_guest(monkeypatch):
    """Closure sweep: all balanced ordered hosts up to 8 vertices, all
    guests, all anchor orbits, verified from scratch; the wide split and the
    full-host leaf peel with its root swap both run."""
    hits = {"wide x<=y": 0, "full peel": 0, "swap": 0}
    solver = embedder._Solver
    wide, peel, swap = solver.wide_split, solver.leaf_peel, solver.swap_onto_root

    def wide_split(self, view, to_top, piece, anchor, kids):
        # x <= y: the finder's critical window is empty
        hits["wide x<=y"] += view.n - kids[-1] <= kids[-1] - kids[-2]
        return wide(self, view, to_top, piece, anchor, kids)

    def leaf_peel(self, view, to_top, piece, anchor):
        hits["full peel"] += len(piece) == view.n
        return peel(self, view, to_top, piece, anchor)

    def swap_onto_root(self, root, g):
        hits["swap"] += 1
        return swap(self, root, g)

    monkeypatch.setattr(solver, "wide_split", wide_split)
    monkeypatch.setattr(solver, "leaf_peel", leaf_peel)
    monkeypatch.setattr(solver, "swap_onto_root", swap_onto_root)

    hosts = balanced_hosts(8)
    assert [sum(h.n == n for h in hosts) for n in range(1, 9)] == \
        [1, 1, 2, 4, 9, 20, 45, 100]
    guests = {n: [(g, vertex_orbit_reps(g))
                  for g in enumerate_free_trees(n).trees] for n in range(1, 9)}
    for host in hosts:
        graph = host_graph_for(host)
        for size in range(1, host.n + 1):
            for guest, orbits in guests[size]:
                for x1 in orbits:
                    emb = embed(host, guest, x1, x1, host_graph=graph)
                    ok, problems = verify_embedding(emb, guest, x1, x1)
                    assert ok, (host.children, guest.children, x1, problems)
    # 196 wide splits and 7028 full-host leaf peels when this was written
    assert hits["wide x<=y"] > 0, hits
    assert hits["full peel"] > 0 and hits["swap"] >= hits["full peel"], hits


# Swaps two images of the `_solve` result; `embed` calls `_solve` once,
# through the module, and must then refuse the broken map.
SWAPPED_IMAGES = textwrap.dedent("""
    import sys
    from treeverse import embedder
    from treeverse.balanced_trees import typed_ternary
    from treeverse.tree_core import RootedTree

    assert not __debug__ or sys.exit("not running under -O")
    host = typed_ternary(4).tree
    graph = embedder.host_graph_for(host)
    n = 60
    guest = RootedTree([[u + 1] if u + 1 < n else [] for u in range(n)])
    solve = embedder._solve

    def breaks(m):
        return any(not graph.has_edge(m[u - 1], m[u]) for u in range(1, n))

    def swapped(*args):
        mapping = solve(*args)
        for b in range(1, n):
            trial = dict(mapping)
            trial[0], trial[b] = mapping[b], mapping[0]
            if breaks(trial):
                return trial
        return mapping

    embedder._solve = swapped
    try:
        emb = embedder.embed(host, guest, 0, 0, host_graph=graph)
    except embedder.EmbeddingBugError as exc:
        print("raised:", exc)
        sys.exit(0)
    print("returned ok =", emb.ok)
    sys.exit(1)
""")


def test_broken_mapping_raises_under_python_O():
    """With asserts stripped, embed still refuses a map that breaks an edge."""
    src = str(Path(treeverse.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", SWAPPED_IMAGES],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "raised:" in proc.stdout and "maps to non-edge" in proc.stdout


def test_only_cousin_runs_are_merged(monkeypatch):
    """Every sibling-run merge is a tail view, the critical split's too:
    each run that `merged_tree` builds has first and last vertices with
    different parents."""
    runs = []

    def spying(view, run):
        first, last = view.vertex(run[0]), view.vertex(run[-1])
        runs.append((view.base.parent[first], view.base.parent[last]))
        return merged_tree(view, run)

    monkeypatch.setattr(embedder, "merged_tree", spying)
    rng = random.Random(1009)
    shapes = (prufer_tree, rand_tree, random_spider, random_caterpillar)
    for k in (4, 5):
        host = typed_ternary(k).tree
        graph = host_graph_for(host)
        for i in range(160):
            n = rng.randint(2, host.n)
            guest = shapes[i % 4](rng, n)
            embed(host, guest, rng.randrange(n), rng.randrange(n),
                  host_graph=graph)
    assert runs
    assert all(first != last for first, last in runs), \
        sum(first == last for first, last in runs)


LOW_RECURSION_LIMIT = textwrap.dedent("""
    import sys
    from treeverse.embedder import embed, host_graph_for, verify_embedding
    from treeverse.tree_core import RootedTree, parse_tree

    n = 400
    host = RootedTree([[u + 1] if u + 1 < n else [] for u in range(n)])
    graph = host_graph_for(host)
    guest = parse_tree(sys.argv[1])
    sys.setrecursionlimit(150)
    get_limit, touched = sys.getrecursionlimit, []
    sys.getrecursionlimit = lambda: touched.append("get") or get_limit()
    sys.setrecursionlimit = lambda limit: touched.append(("set", limit))
    emb = embed(host, guest, 3, 5, host_graph=graph)
    ok, problems = verify_embedding(emb, guest, 3, 5)
    print("verified:", ok, problems, "touched:", touched,
          "limit:", get_limit())
""")


def test_deep_host_needs_no_recursion_limit():
    """A 400-vertex path host embeds under a recursion limit of 150, and
    embed neither reads nor sets the process-wide limit."""
    guest = prufer_tree(random.Random(400), 400)
    src = str(Path(treeverse.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LOW_RECURSION_LIMIT,
                           to_parent_csv(guest)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "verified: True [] touched: [] limit: 150"


def test_path_host_builds_linear_trees(monkeypatch):
    """Sub-hosts are views: embedding into a path host builds O(n) tree
    vertices in all, not a copy of the host per level."""
    host = path_tree(300)
    graph = host_graph_for(host)
    rng = random.Random(300)
    guests = [path_tree(300), prufer_tree(rng, 300), prufer_tree(rng, 200),
              rand_tree(rng, 299), rand_tree(rng, 150)]
    built = [0, 0]
    init = RootedTree.__init__

    def counting(self, children):
        built[0] += 1
        built[1] += len(children)
        init(self, children)

    monkeypatch.setattr(RootedTree, "__init__", counting)
    for guest in guests:
        built[:] = [0, 0]
        embed(host, guest, 0, guest.n - 1, host_graph=graph)
        assert built[1] <= 2 * host.n, (guest.n, built)


def view_runs(tree):
    """Every consecutive run of every level, plus runs merged_tree refuses."""
    runs = [[], [0], [tree.n], [-1]]
    for row in tree.level_order[1:]:
        runs += [list(row[i:j]) for i in range(len(row))
                 for j in range(i + 1, len(row) + 1)]
        if len(row) >= 3:
            runs.append([row[0], row[2]])
    if tree.depth >= 2:
        runs.append([tree.level_order[1][-1], tree.level_order[2][0]])
    return runs


def merge_or_error(tree, run):
    try:
        return merged_tree(tree, run)
    except ValueError as exc:
        return str(exc)


def assert_view_is(view, tree, ids):
    """The view equals the tree field by field, and its vertex i is base
    vertex ids[i]."""
    m = tree.n
    assert view.n == m
    assert tuple(view.children(i) for i in range(m)) == tree.children
    assert tuple(view.size(i) for i in range(m)) == tree.sizes
    assert ([view.deeper_than(r) for r in range(tree.depth + 1)]
            == [tree.depth > r for r in range(tree.depth + 1)])
    assert [view.vertex(i) for i in range(m)] == list(ids)


# sha256 over `merge_or_error` of every view and tail run that
# `test_views_match_materialised_subtrees_and_merges` merges, recorded while
# `merged_tree` still read the run's parents through the view
PINNED_VIEW_MERGES_SHA256 = (
    "b5c3739cfa646e365b58badd7ecd976fadd8e89b84fe236fe4c5cd5a680817a0")


def test_views_match_materialised_subtrees_and_merges(monkeypatch):
    hosts = [typed_ternary(3).tree, path_tree(40),
             *balanced_hosts(7)]
    digest = hashlib.sha256()
    # a merge reads parents and cousins off the tree, with no checked lookup
    checks = count_vertex_checks(monkeypatch)

    def same_merges(view, tree, run):
        before = checks[0]
        merged = merge_or_error(view, run)
        assert merged == merge_or_error(tree, run)
        assert checks[0] == before
        digest.update(repr(merged if isinstance(merged, str)
                           else (merged[0].children, merged[1])).encode())

    for host in hosts:
        whole = TreeView(host)
        for u in range(host.n):
            sub = host.subtree(u)
            for m in range(1, sub.n + 1):
                tree = sub.prefix(m)
                for view in (whole.subtree(u).prefix(m),
                             whole.prefix(u + m).subtree(u)):
                    assert_view_is(view, tree, range(u, u + m))
                view = whole.subtree(u).prefix(m)
                for run in view_runs(tree):
                    same_merges(view, tree, run)

                # a tail is the merge of the sibling run from c to the end,
                # and so are its prefixes; merges from a tail are the merges
                # from that tree (the tail at the first child is the view)
                kids = tree.children[0]
                for i, c in enumerate(kids):
                    tstar, iso = merged_tree(tree, kids[i:])
                    tail = view.tail(c)
                    # the tail's root is its vertex 0, whatever base vertex
                    # precedes its vertex 1
                    with pytest.raises(TreeError, match="^vertex 0 is not a "
                                                        "child of the view's"):
                        tail.tail(0)
                    for k in range(1, tstar.n + 1):
                        assert_view_is(tail.prefix(k), tstar.prefix(k),
                                       [u + h for h in iso[:k]])
                    for run in view_runs(tstar) if i else ():
                        same_merges(tail, tstar, run)
                for c in (0, *tree.children[kids[0]][:1]) if kids else (0,):
                    with pytest.raises(TreeError):
                        view.tail(c)
    assert digest.hexdigest() == PINNED_VIEW_MERGES_SHA256


# sha256 over the sorted mappings of `pinned_embeddings`, recorded from the
# embedder before sibling merges became tail views
PINNED_MAPPINGS_SHA256 = (
    "170be9245542d1440e1a2b50444e8f422a2812e3164c93efbdeaa7e6302d124b")


def pinned_embeddings():
    """Forty seeded guests of four shapes, some filling the host, embedded
    into the depth-5 typed-ternary host and a 200-vertex path host."""
    rng = random.Random(4099)
    shapes = (rand_tree, prufer_tree, lambda rng, n: path_tree(n),
              lambda rng, n: star_tree(n))
    for host in (typed_ternary(5).tree, path_tree(200)):
        graph = host_graph_for(host)
        for i in range(20):
            n = host.n - i // 2 if i < 8 else rng.randint(2, host.n)
            guest = shapes[i % 4](rng, n)
            x1, x2 = rng.randrange(n), rng.randrange(n)
            yield embed(host, guest, x1, x2, host_graph=graph).mapping


def test_mappings_match_the_pinned_hash():
    """The embedder's choices, not only their validity, stay as recorded."""
    digest = hashlib.sha256()
    for mapping in pinned_embeddings():
        digest.update(repr(sorted(mapping.items())).encode())
    assert digest.hexdigest() == PINNED_MAPPINGS_SHA256


def test_pinned_embeddings_take_every_proof_route(monkeypatch):
    """Every route of the case analysis runs in `pinned_embeddings`: the
    seven case methods, and the two pushes a step makes itself, into its
    last root subtree (descend, a plain view) or into the merge of its last
    two subtrees (tail, a view whose root is not its first vertex)."""
    cases = ("complete", "leaf_peel", "single_child", "pair_merge",
             "pair_full", "wide_split", "critical_split")
    hits = dict.fromkeys((*cases, "descend", "tail"), 0)
    solver = embedder._Solver
    called, pushed = [], []

    def spy(name):
        method = getattr(solver, name)

        def case(self, *args):
            hits[name] += 1
            called.append(name)
            return method(self, *args)
        return case

    step, push = solver.step, solver.push

    def spied_step(self, view, to_top, piece, anchor, low2):
        del called[:], pushed[:]
        step(self, view, to_top, piece, anchor, low2)
        if piece and not called:
            (sub,) = pushed
            hits["descend" if sub.root == sub.lo else "tail"] += 1

    def spied_push(self, view, *args):
        pushed.append(view)
        return push(self, view, *args)

    for name in cases:
        monkeypatch.setattr(solver, name, spy(name))
    monkeypatch.setattr(solver, "step", spied_step)
    monkeypatch.setattr(solver, "push", spied_push)
    for _ in pinned_embeddings():
        pass
    # every route is taken; the counts were recorded when this was written
    assert hits == {"complete": 238, "leaf_peel": 8, "single_child": 2891,
                    "pair_merge": 266, "pair_full": 18, "wide_split": 194,
                    "critical_split": 6, "descend": 1065, "tail": 37}


def test_each_step_reads_the_root_children_once(monkeypatch):
    """A step reads its view's root children once and hands them to the pair
    cases and to the grandchildren merge, which read them no more: over
    `pinned_embeddings`, no step makes a second `children(0)` call, the 284
    pair steps among them."""
    solver = embedder._Solver
    reads, pairs = [0], [0]
    children, step = TreeView.children, solver.step

    def counted_children(self, u):
        reads[0] += u == 0
        return children(self, u)

    def counted_step(self, *args):
        reads[0] = 0
        step(self, *args)
        assert reads[0] <= 1

    def spy(method):
        def case(self, *args):
            pairs[0] += 1
            return method(self, *args)
        return case

    monkeypatch.setattr(TreeView, "children", counted_children)
    monkeypatch.setattr(solver, "step", counted_step)
    for name in ("pair_merge", "pair_full"):
        monkeypatch.setattr(solver, name, spy(getattr(solver, name)))
    for _ in pinned_embeddings():
        pass
    assert pairs[0] == 284

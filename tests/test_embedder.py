import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import treeverse

from treeverse.balanced_trees import typed_ternary
from treeverse.embedder import (Embedding, embed, host_graph_for, phi2_window,
                                verify_embedding)
from treeverse.oracle import brute_embed, enumerate_free_trees
from treeverse.tree_core import RootedTree, build_tree


def path_tree(n):
    return RootedTree([[u + 1] if u + 1 < n else [] for u in range(n)])


def star_tree(n):
    return RootedTree([list(range(1, n))] + [[] for _ in range(n - 1)])


def rand_tree(rng, n):
    if n == 1:
        return RootedTree([[]])
    children = [[] for _ in range(n)]
    for u in range(1, n):
        children[rng.randrange(u)].append(u)
    return build_tree(children)


def test_star_center_lands_on_root(ternary_hosts):
    host, graph = ternary_hosts[2]
    emb = embed(host, star_tree(9), 0, 0, host_graph=graph)
    assert emb.mapping[0] == 0
    assert emb.phi1_ok and emb.admissible_complement
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


def test_embed_rejects_bad_inputs(ternary_hosts):
    host, graph = ternary_hosts[1]
    with pytest.raises(ValueError):
        embed(host, path_tree(4), 0, 0, host_graph=graph)
    lopsided = RootedTree([[1, 2], [], [3, 4, 5, 6], [], [], [], []])
    with pytest.raises(ValueError):
        embed(lopsided, path_tree(3), 0, 0)


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
        emb = embed(host, guest, x1, x2, host_graph=fg.induced_prefix(m),
                    check_balance=False)
        ok, problems = verify_embedding(emb, guest, x1, x2)
        assert ok, problems


def test_recursion_reaches_deep_hosts():
    host = typed_ternary(5).tree
    graph = host_graph_for(host)
    rng = random.Random(5)
    guest = rand_tree(rng, 200)
    emb = embed(host, guest, 7, 11, host_graph=graph)
    ok, problems = verify_embedding(emb, guest, 7, 11)
    assert ok, problems


def reroot_at(tree, root):
    adj = [list(tree.children[u]) for u in range(tree.n)]
    for u in range(1, tree.n):
        adj[u].append(tree.parent[u])
    children = [[] for _ in range(tree.n)]
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                children[u].append(v)
                stack.append(v)
    return build_tree(children)


def test_every_small_balanced_host_hosts_every_guest():
    """Closure sweep: all balanced rooted hosts up to 7 vertices, all guests,
    all anchor orbits, verified from scratch."""
    from treeverse.balanced_trees import validate_balance
    from treeverse.oracle import vertex_orbit_reps

    hosts = {}
    for n in range(1, 8):
        for free in enumerate_free_trees(n).trees:
            for root in range(free.n):
                h = reroot_at(free, root)
                if validate_balance(h, 2, 1).ok:
                    hosts[h.children] = h
    assert len(hosts) > 40
    for host in hosts.values():
        graph = host_graph_for(host)
        for size in range(1, host.n + 1):
            for guest in enumerate_free_trees(size).trees:
                for x1 in vertex_orbit_reps(guest):
                    emb = embed(host, guest, x1, x1, host_graph=graph,
                                check_balance=False)
                    ok, problems = verify_embedding(emb, guest, x1, x1)
                    assert ok, (host.children, guest.children, x1, problems)


# Swaps two images of the top-level `_solve` result; the recursion calls
# `_solve` through the module, so the depth counter keeps inner calls intact.
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
    solve, depth = embedder._solve, [0]

    def breaks(m):
        return any(not graph.has_edge(m[u - 1], m[u]) for u in range(1, n))

    def swapped(*args):
        depth[0] += 1
        try:
            mapping = solve(*args)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
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

import concurrent.futures
import hashlib
import multiprocessing
import os
import random
import sys
import time
from itertools import combinations, product
from math import factorial

import pytest

from treeverse import oracle
from treeverse.balanced_trees import perfect_binary, typed_ternary
from treeverse.graph_gen import UndirectedGraph, generate, underlying
from treeverse.oracle import (ENUM_GUARD, _flatten, _free_parents,
                              _parents_to_tree, _rooted_encodings, _search,
                              _settled, _sorted_neighbours, brute_embed,
                              enumerate_free_trees, is_interval_universal,
                              is_universal)
from treeverse.tree_core import RootedTree, from_parens, to_parens

from trees import (_centers, _tree_to_enc, balanced_hosts, caterpillar_tree,
                   degree_witness, free_canonical_encoding,
                   free_tree_automorphisms, path_tree, prufer_edges,
                   prufer_tree, rand_tree, rooted_at_zero, star_tree,
                   vertex_orbit_reps)

# free trees per vertex count up to the enumeration guard (OEIS A000055)
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23,
                    9: 47, 10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159,
                    15: 7741, 16: 19320}


def complete_graph(n):
    return UndirectedGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return UndirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def test_census_counts():
    assert max(FREE_TREE_COUNTS) == ENUM_GUARD
    for n, count in FREE_TREE_COUNTS.items():
        assert len(enumerate_free_trees(n).trees) == count


def nested_encoding(parent):
    """Reference encoder: each vertex of a preorder parent tuple as the tuple
    of its children's encodings, sorted by (size desc, encoding)."""
    branches = [[] for _ in parent]
    for v in reversed(range(len(parent))):
        enc = tuple(e for _, e in sorted(branches[v]))
        size = 1 - sum(s for s, _ in branches[v])
        if v:
            branches[parent[v]].append((-size, enc))
    return enc


def test_rooted_encodings_are_canonical_and_increasing():
    """Every encoding is its own tree's canonical encoding, so the free key
    can be read off it without rebuilding the tree."""
    for n in range(1, 13):
        encs = _rooted_encodings(n)[0]
        assert all(a < b for a, b in zip(encs, encs[1:]))
        for enc in encs:
            assert len(enc) == 2 * n
            assert _tree_to_enc(_parents_to_tree(_flatten(enc)), 0)[0] == enc


def test_byte_order_is_nested_tuple_order():
    """The flat encodings of all rooted trees up to 10 vertices, pooled
    across sizes, sort exactly as the reference nested tuples do."""
    encs = [enc for n in range(1, 11) for enc in _rooted_encodings(n)[0]]
    refs = [nested_encoding(_flatten(enc)) for enc in encs]
    assert len(set(refs)) == len(encs) == 1205
    by_bytes = sorted(range(len(encs)), key=encs.__getitem__)
    assert by_bytes == sorted(range(len(refs)), key=refs.__getitem__)


def test_free_tree_order_is_pinned():
    """The enumeration order decides every `verify` witness."""
    digest = hashlib.sha256()
    for n in range(1, 13):
        for tree in enumerate_free_trees(n).trees:
            digest.update(to_parens(tree).encode() + b"\n")
    assert digest.hexdigest() == \
        "679ebdc0866bdaa7b513c49074f3f817bf00dbc4818c39432d07e2db8bdd0865"
    digest = hashlib.sha256()
    for n in (13, 14):
        for tree in enumerate_free_trees(n).trees:
            digest.update(to_parens(tree).encode() + b"\n")
    assert digest.hexdigest() == \
        "40af729900500495aa80fadafaa88787e6df8a225cb5f2b01231b5783d880661"


def test_stored_shape_matches_the_encodings():
    """The filter inputs stored with the rooted table agree with the trees
    the encodings flatten to, and the filter keeps exactly the trees rooted
    at a center (at the smaller half's center when there are two), in
    order of free key."""
    for n in range(1, 13):
        table = _rooted_encodings(n)
        assert len(set(map(len, table))) == 1
        kept = []
        for enc, h, a, b, s in zip(*table):
            tree = _parents_to_tree(_flatten(enc))
            branch = [max(tree.levels[c:c + tree.sizes[c]]) - 1
                      for c in tree.children[0]]
            assert h == max(tree.levels)
            assert s == (sorted(branch)[-2] + 1 if len(branch) > 1 else 0)
            if branch:
                c = tree.children[0][branch.index(h - 1)]
                assert (a, b) == (2 * c - 1, 2 * c - 1 + 2 * tree.sizes[c])
                assert enc[a:b] == _tree_to_enc(tree, c, 0)[0]
            centers = _centers(tree)
            if 0 in centers:
                key = free_canonical_encoding(tree)
                if (len(centers) == 1
                        or key[1] == _tree_to_enc(tree, 0, centers[1])[0]):
                    kept.append((key, enc))
        assert len(kept) == FREE_TREE_COUNTS[n]
        assert _free_parents(n) == tuple(_flatten(enc) for _, enc in sorted(kept))


def test_census_guard():
    with pytest.raises(ValueError):
        enumerate_free_trees(0)
    with pytest.raises(ValueError):
        enumerate_free_trees(17)


def test_representatives_are_pairwise_nonisomorphic():
    for n in range(1, 9):
        keys = {free_canonical_encoding(t)
                for t in enumerate_free_trees(n).trees}
        assert len(keys) == FREE_TREE_COUNTS[n]


def test_census_against_prufer_enumeration():
    """Independent pipeline: all labeled trees via their sequences, then
    dedup by the free canonical key."""
    for n in range(3, 8):
        keys = set()
        for seq in product(range(n), repeat=n - 2):
            tree = rooted_at_zero(prufer_edges(list(seq), n), n)
            keys.add(free_canonical_encoding(tree))
        assert len(keys) == FREE_TREE_COUNTS[n]


def test_classes_match_networkx():
    """Independent generator (Wright, Richmond, Odlyzko and McKay)."""
    nx = pytest.importorskip("networkx")
    for n in range(1, 13):
        theirs = {free_canonical_encoding(rooted_at_zero(g.edges, n))
                  for g in nx.nonisomorphic_trees(n)}
        ours = {free_canonical_encoding(t)
                for t in enumerate_free_trees(n).trees}
        assert theirs == ours


def test_census_against_labeled_tree_total():
    """Second independent pipeline: orbit-counting.  Summing n!/|Aut| over
    the representatives must reproduce the labeled-tree total n^(n-2)."""
    for n in range(3, 11):
        total = sum(factorial(n) // free_tree_automorphisms(t)
                    for t in enumerate_free_trees(n).trees)
        assert total == n ** (n - 2)


def test_automorphism_counts_small():
    assert free_tree_automorphisms(path_tree(4)) == 2
    assert free_tree_automorphisms(star_tree(5)) == factorial(4)
    assert free_tree_automorphisms(path_tree(2)) == 2


def test_deep_trees_do_not_recurse():
    """Free keys, automorphism counts and orbits of 400-vertex paths and
    caterpillars under a recursion limit of 150; a 1500-vertex path under
    the default limit."""
    half = b"1" * 200 + b"0" * 200
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        found = [(free_canonical_encoding(tree), free_tree_automorphisms(tree),
                  vertex_orbit_reps(tree))
                 for tree in (path_tree(400), caterpillar_tree(200))]
    finally:
        sys.setrecursionlimit(limit)
    assert found[0] == ((b"b", half, half), 2, list(range(200)))
    key, automorphisms, reps = found[1]
    assert key[0] == b"b" and key[1] == key[2]
    assert automorphisms == 2 and len(reps) == 200
    key = free_canonical_encoding(path_tree(1500))
    assert key == (b"b", b"1" * 750 + b"0" * 750, b"1" * 750 + b"0" * 750)
    assert free_tree_automorphisms(path_tree(1500)) == 2
    assert sys.getrecursionlimit() == limit


def test_vertex_orbit_reps():
    reps = vertex_orbit_reps(path_tree(5))
    assert len(reps) == 3  # two ends, two mid vertices, one center
    assert len(vertex_orbit_reps(star_tree(6))) == 2


def orbit_reps_by_rerooting(tree):
    """The reference for `vertex_orbit_reps`: the smallest vertex per
    distinct encoding of the tree rooted at it, in quadratic time."""
    reps = {}
    for v in range(tree.n):
        reps.setdefault(_tree_to_enc(tree, v)[0], v)
    return sorted(reps.values())


def test_vertex_orbit_reps_match_the_rerooting_reference():
    """The same list on every tree the suite passes it (the free trees up
    to 12 vertices, the 400-vertex path and caterpillar) and on 500 seeded
    random trees, and a 1500-vertex path in well under the 4.6 s that
    re-encoding from every vertex took."""
    rng = random.Random(8)
    trees = [tree for n in range(1, 13)
             for tree in enumerate_free_trees(n).trees]
    trees += [path_tree(5), star_tree(6), path_tree(400),
              caterpillar_tree(200)]
    trees += [(rand_tree, prufer_tree)[i % 2](rng, rng.randint(2, 60))
              for i in range(500)]
    for tree in trees:
        assert vertex_orbit_reps(tree) == orbit_reps_by_rerooting(tree), \
            tree.children
    path = path_tree(1500)
    start = time.perf_counter()
    assert vertex_orbit_reps(path) == list(range(750))
    assert time.perf_counter() - start < 0.2


def test_brute_embed_examples():
    tri = complete_graph(3)
    assert brute_embed(path_tree(3), tri) is not None
    assert brute_embed(star_tree(4), cycle_graph(4)) is None
    found = brute_embed(path_tree(4), cycle_graph(5))
    assert found is not None
    ordered = [found[u] for u in range(4)]
    for a, b in zip(ordered, ordered[1:]):
        assert cycle_graph(5).has_edge(a, b)


def test_brute_embed_is_injective_and_total():
    g = underlying(generate(typed_ternary(2).tree, 2))
    for guest in enumerate_free_trees(7).trees:
        m = brute_embed(guest, g)
        assert m is not None
        assert len(set(m.values())) == guest.n == len(m)


def test_is_universal():
    ok, _ = is_universal(complete_graph(6))
    assert ok
    ok, witness = is_universal(cycle_graph(6))
    assert not ok
    # the stars fail first on a cycle; the witness must not embed
    assert brute_embed(witness, cycle_graph(6)) is None
    with pytest.raises(ValueError):
        is_universal(complete_graph(13))
    # no tree has 0 vertices, so the empty graph holds all of them
    assert is_universal(UndirectedGraph(0, [])) == (True, None)


def test_is_interval_universal():
    ok, _ = is_interval_universal(complete_graph(6))
    assert ok
    # a path graph fails once blocks of four must hold a star
    path_g = UndirectedGraph(6, [(i, i + 1) for i in range(5)])
    ok, witness = is_interval_universal(path_g)
    assert not ok
    i, m, tree = witness
    assert m == 4
    with pytest.raises(ValueError):
        is_interval_universal(complete_graph(12))
    assert is_interval_universal(UndirectedGraph(0, [])) == (True, None)


def test_two_worker_processes_give_the_serial_verdict_and_witness(
        monkeypatch):
    """Real workers, on graphs past the guards that `unsafe_large` admits:
    only there does a decider start its pool."""
    starts = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    cycle = cycle_graph(13)
    assert is_universal(cycle, unsafe_large=True, jobs=2) == \
        is_universal(cycle, unsafe_large=True)
    path_g = UndirectedGraph(12, [(i, i + 1) for i in range(11)])
    parallel = is_interval_universal(path_g, unsafe_large=True, jobs=2)
    assert parallel == is_interval_universal(path_g, unsafe_large=True)
    assert not parallel[0]
    # only the block 2..7 has no vertex that sees the other five, so the
    # 6-vertex star fails there, after every smaller size and after the
    # searched blocks of five at 2 and 3 hold
    missing = {(1, 7), (2, 5), (3, 6), (3, 7), (4, 7)}
    late = UndirectedGraph(12, [(a, b) for b in range(12) for a in range(b)
                                if (a, b) not in missing])
    searched = [block[:2] for block in oracle._blocks(late, range(1, 13))]
    assert searched[:3] == [(2, 5), (3, 5), (2, 6)]
    parallel = is_interval_universal(late, unsafe_large=True, jobs=2)
    assert parallel == is_interval_universal(late, unsafe_large=True)
    i, m, tree = parallel[1]
    assert (i, m, to_parens(tree)) == (2, 6, "(()()()()())")
    # 17 vertices is past the enumeration guard, so a scan that read sizes
    # beyond the failing one would raise instead of returning the witness
    long_path = UndirectedGraph(17, [(i, i + 1) for i in range(16)])
    parallel = is_interval_universal(long_path, unsafe_large=True, jobs=2)
    assert parallel == is_interval_universal(long_path, unsafe_large=True)
    i, m, tree = parallel[1]
    assert (i, m, to_parens(tree)) == (0, 4, "(()()())")
    assert len(starts) == 4
    assert not multiprocessing.active_children()


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker count of each pool a decider starts, recorded by a fake
    pool that maps in this process and starts nothing."""
    starts = []

    class RecordingPool:
        def __init__(self, max_workers):
            starts.append(max_workers)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    return starts


def test_one_pool_per_decider_call(pool_starts):
    """With jobs=2, no pool on any graph the guards admit (the prefixes the
    `verify` benchmark checks, K12 minus a perfect matching and the rest of
    `decider_cases`), and exactly one on a graph past the guard; every
    result is the serial one."""
    for name, decide, graph in decider_cases():
        assert decide(graph, jobs=2) == decide(graph, jobs=1), name
    assert pool_starts == []
    for decide, n in ((is_universal, 13), (is_interval_universal, 12)):
        for graph in (complete_graph(n), cycle_graph(n)):
            serial = decide(graph, unsafe_large=True)
            pool_starts.clear()
            assert decide(graph, unsafe_large=True, jobs=2) == serial
            assert len(pool_starts) == 1


def test_jobs_are_refused_below_one_and_bounded_by_the_cpus(pool_starts):
    """A pool never gets more workers than there are CPUs, and a jobs value
    below 1 is refused on every call, an admitted graph's too."""
    for decide, n in ((is_universal, 13), (is_interval_universal, 12)):
        pool_starts.clear()
        big = cycle_graph(n)
        assert decide(big, unsafe_large=True, jobs=10 ** 6) == \
            decide(big, unsafe_large=True, jobs=1)
        assert pool_starts == [os.cpu_count() or 1]
        for jobs, graph in product((0, -1), (big, cycle_graph(6))):
            with pytest.raises(ValueError,
                               match=rf"^jobs {jobs} out of range 1\.\.$"):
                decide(graph, unsafe_large=True, jobs=jobs)


def decider_cases():
    """(name, decider, graph): the prefixes that `verify` checks, the
    12-vertex graph with no dominating vertex, and seeded random graphs."""
    for k in (3, 4):
        for name, tree, radius in (("ternary-typed", typed_ternary(k).tree, 2),
                                   ("binary", perfect_binary(k), 0)):
            graph = underlying(generate(tree, radius))
            yield f"universal {name} {k}", is_universal, graph.induced_prefix(12)
            yield (f"interval {name} {k}", is_interval_universal,
                   graph.induced_prefix(11))
    n = 12
    matching = {(a, a + 1) for a in range(0, n, 2)}
    yield "no-dominating", is_universal, UndirectedGraph(
        n, [(a, b) for b in range(n) for a in range(b)
            if (a, b) not in matching])
    rng = random.Random(13)
    for s in range(24):
        m, p = rng.randint(6, 10), rng.uniform(0.4, 0.9)
        interval = s % 2  # a path through the ids, so blocks are connected
        graph = UndirectedGraph(m, [(a, b) for b in range(m) for a in range(b)
                                    if (interval and b == a + 1)
                                    or rng.random() < p])
        yield f"random {s}", (is_universal, is_interval_universal)[interval], graph


def result_line(name, result):
    ok, witness = result
    if witness is None:
        shown = "-"
    elif isinstance(witness, tuple):
        shown = f"{witness[0]} {witness[1]} {to_parens(witness[2])}"
    else:
        shown = to_parens(witness)
    return f"{name} {ok} {shown}"


def test_decider_results_are_pinned():
    """Every verdict and witness of the deciders, hashed."""
    digest = hashlib.sha256()
    for name, decide, graph in decider_cases():
        result = decide(graph)
        digest.update(result_line(name, result).encode() + b"\n")
    assert digest.hexdigest() == \
        "52fc1e223f5c26181c8e6074dfd64df6acafc339129205e5a30e3d8d58112076"


def test_degree_witness():
    assert degree_witness(star_tree_graph()) == 0
    assert degree_witness(cycle_graph(5)) is None
    for k in (1, 2, 3):
        g = underlying(generate(perfect_binary(k), 0))
        assert degree_witness(g) == 0


def star_tree_graph():
    return UndirectedGraph(5, [(0, i) for i in range(1, 5)])


def test_universal_implies_degree_witness():
    for n in (4, 5, 6):
        for g in (complete_graph(n), cycle_graph(n)):
            ok, _ = is_universal(g)
            if ok:
                assert degree_witness(g) is not None


def reference_embed(guest, graph):
    """Plain preorder backtracking with no pruning but the degree filter:
    the root tries every host id, each other vertex every neighbour of its
    parent's image, in increasing id.  Returns the first map found."""
    n = guest.n
    deg = [len(guest.children[u]) + (u > 0) for u in range(n)]
    image = {}

    def place(i):
        if i == n:
            return True
        if i == 0:
            candidates = range(graph.n)
        else:
            candidates = sorted(graph.adj[image[guest.parent[i]]])
        for h in candidates:
            if h not in image.values() and len(graph.adj[h]) >= deg[i]:
                image[i] = h
                if place(i + 1):
                    return True
                del image[i]
        return False

    return dict(image) if n <= graph.n and place(0) else None


def assert_valid_map(guest, graph, mapping):
    assert sorted(mapping) == list(range(guest.n))
    assert len(set(mapping.values())) == guest.n
    for u in range(1, guest.n):
        assert graph.has_edge(mapping[guest.parent[u]], mapping[u])


def mirrored(tree):
    """The same tree with every children list reversed, so that leaves come
    before their larger siblings (canonical trees put them last)."""
    children = []

    def grow(u):
        v = len(children)
        children.append([])
        children[v].extend(grow(c) for c in reversed(tree.children[u]))
        return v

    grow(0)
    return RootedTree(children)


def relabelled(graph, seed):
    order = list(range(graph.n))
    random.Random(seed).shuffle(order)
    return graph.induced(order)


def binary_prefix(m):
    """The m-vertex prefix of the radius-0 graph of the depth-3 binary tree."""
    return underlying(generate(perfect_binary(3), 0)).induced_prefix(m)


def test_brute_embed_returns_the_reference_mapping():
    """The twin-leaf rule and the explicit stack change no returned map."""
    rng = random.Random(17)
    hosts = []
    for _ in range(30):
        m, p = rng.randint(5, 9), rng.uniform(0.3, 0.8)
        hosts.append(UndirectedGraph(m, [(a, b) for b in range(m)
                                         for a in range(b) if rng.random() < p]))
    hosts += [cycle_graph(m) for m in range(3, 10)]
    hosts += [relabelled(binary_prefix(9), seed) for seed in range(3)]
    found = absent = 0
    guests = [g for n in range(1, 9) for t in enumerate_free_trees(n).trees
              for g in (t, mirrored(t))]
    for guest in guests:
        for host in hosts:
            mapping = brute_embed(guest, host)
            assert mapping == reference_embed(guest, host)
            if mapping is None:
                absent += 1
            else:
                assert_valid_map(guest, host, mapping)
                found += 1
    assert found > 100 and absent > 100


def test_universality_does_not_depend_on_vertex_labels():
    """A universal graph and a non-universal one, both left to the search,
    decided the same way in ten relabellings.  The universal one is the
    radius-0 graph of an 11-vertex balanced host; no two vertices cover
    its missing edges with two common neighbours."""
    n = 12
    matching = {(a, a + 1) for a in range(0, n, 2)}
    no_dominating = UndirectedGraph(n, [(a, b) for b in range(n) for a in range(b)
                                        if (a, b) not in matching])
    searched = underlying(generate(from_parens("((())(())(()())(()()))"), 0))
    for graph, verdict in ((searched, True), (no_dominating, False)):
        assert not _settled(graph.adj, 0, graph.n)
        want = is_universal(graph)
        assert want[0] is verdict
        for seed in range(10):
            assert is_universal(relabelled(graph, seed)) == want


def test_double_star_in_the_binary_block():
    """Without the twin-leaf rule the search tries every order of the seven
    interchangeable leaves in this block."""
    block = binary_prefix(11).induced(range(1, 11))
    double_star = from_parens("((()()()()()()())())")
    mapping = brute_embed(double_star, block)
    assert mapping is not None
    assert_valid_map(double_star, block, mapping)
    assert is_interval_universal(binary_prefix(11)) == (True, None)


def test_deep_path_guest_does_not_recurse():
    n = 1500
    limit = sys.getrecursionlimit()
    path_graph = UndirectedGraph(n, [(i, i + 1) for i in range(n - 1)])
    mapping = brute_embed(path_tree(n), path_graph)
    assert mapping is not None
    assert_valid_map(path_tree(n), path_graph, mapping)
    assert sys.getrecursionlimit() == limit


def settled_by_definition(nbrs):
    """The degree rule read off the missing edges themselves, by brute force
    over every vertex and every pair: a set S of at most two vertices meets
    all of them, and the vertices of S have |S| common neighbours outside
    S.  With S empty, no edge is missing."""
    m = len(nbrs)
    missing = [(a, b) for b in range(m) for a in range(b) if b not in nbrs[a]]
    for size in (0, 1, 2):
        for cover in combinations(range(m), size):
            common = set(range(m)).difference(cover).intersection(
                *(nbrs[v] for v in cover))
            if (len(common) >= size
                    and all(set(edge) & set(cover) for edge in missing)):
                return True
    return False


def dense_graphs(rng, count):
    """Seeded graphs on 3..9 vertices: half are cliques missing some edges
    at one random vertex, half keep each edge with probability 0.8..1."""
    for s in range(count):
        m = rng.randint(3, 9)
        if s % 2:
            v = rng.randrange(m)
            cut = set(rng.sample([u for u in range(m) if u != v],
                                 rng.randint(0, m - 1)))
            yield UndirectedGraph(m, [(a, b) for b in range(m)
                                      for a in range(b)
                                      if v not in (a, b) or a + b - v not in cut])
        else:
            p = rng.uniform(0.8, 1.0)
            yield UndirectedGraph(m, [(a, b) for b in range(m)
                                      for a in range(b) if rng.random() < p])


def matching_cliques(rng, count):
    """Seeded cliques on 6..9 vertices missing three or more disjoint edges,
    which no two vertices cover, and each other edge with probability at
    most 0.1."""
    for _ in range(count):
        m = rng.randint(6, 9)
        order = rng.sample(range(m), m)
        cut = {frozenset(order[j:j + 2])
               for j in range(0, 2 * rng.randint(3, m // 2), 2)}
        p = rng.uniform(0.9, 1.0)
        yield UndirectedGraph(m, [(a, b) for b in range(m) for a in range(b)
                                  if frozenset((a, b)) not in cut
                                  and rng.random() < p])


def rule_corpus():
    """The radius-0, 1 and 2 graphs, legacy or not, of every balanced host
    up to 8 vertices, and seeded dense graphs and cliques missing a
    matching."""
    graphs = [underlying(generate(host, radius, legacy=legacy))
              for host in balanced_hosts(8) for radius in (0, 1, 2)
              for legacy in (False, True)]
    graphs += dense_graphs(random.Random(29), 1000)
    graphs += matching_cliques(random.Random(31), 300)
    return graphs


def test_degree_rule_settles_only_blocks_that_hold_every_tree():
    """Every block of every graph of `rule_corpus`: the rule agrees with its
    definition, and wherever it settles a block the search embeds every
    free tree of the block's size there."""
    settled, searched = set(), set()
    for graph in rule_corpus():
        for m in range(1, graph.n + 1):
            for i in range(graph.n - m + 1):
                nbrs = _sorted_neighbours(graph.adj, i, m)
                fires = _settled(graph.adj, i, m)
                assert fires == settled_by_definition(nbrs), nbrs
                (settled if fires else searched).add(nbrs)
    for nbrs in settled:
        for parent in _free_parents(len(nbrs)):
            assert _search(parent, nbrs) is not None, (nbrs, parent)
    # 1175 distinct settled blocks and 1119 searched ones when written
    assert len(settled) > 500 and len(searched) > 500


def search_only(graph):
    """`is_universal` without the degree rule: the free trees in order, each
    by the reference search, and the first that does not embed."""
    for tree in enumerate_free_trees(graph.n).trees:
        if reference_embed(tree, graph) is None:
            return False, to_parens(tree)
    return True, None


def shown(result):
    ok, witness = result
    return ok, witness if witness is None else to_parens(witness)


def clique_without(m, cut):
    """K_m less the edges in `cut`, each given as (smaller, larger)."""
    return UndirectedGraph(m, [(a, b) for b in range(m) for a in range(b)
                               if (a, b) not in cut])


def test_degree_rule_leaves_near_misses_to_the_search(monkeypatch):
    """Near misses of the rule are searched, with the verdict and witness
    of a reference decider: a clique plus an isolated vertex (every missing
    edge meets it, and it has no neighbour), a clique missing two disjoint
    edges while their covers have under two common neighbours (m = 4, 5),
    a clique missing three disjoint edges, and a pair that meets every
    missing edge with one common neighbour.  From m = 6 the clique missing
    two disjoint edges is settled, and its verdict is the reference's."""
    calls = []

    def counted(parent, nbrs):
        calls.append(1)
        return _search(parent, nbrs)

    monkeypatch.setattr(oracle, "_search", counted)

    def decide(graph, searched):
        assert _settled(graph.adj, 0, graph.n) is not searched
        calls.clear()
        result = shown(is_universal(graph))
        assert bool(calls) is searched
        assert result == search_only(graph)
        return result

    for m in range(3, 9):
        for lone in (0, m - 1):
            graph = UndirectedGraph(m, [(a, b) for b in range(m)
                                        for a in range(b) if lone not in (a, b)])
            assert decide(graph, True)[0] is False
    for m in range(4, 9):
        decide(clique_without(m, {(0, 1), (2, 3)}), m < 6)
    for m in range(6, 9):
        decide(clique_without(m, {(0, 1), (2, 3), (4, 5)}), True)
    # 0 and 1 meet every missing edge; 7 is their one common neighbour
    decide(clique_without(8, {(0, 2), (0, 3), (0, 4), (1, 5), (1, 6)}), True)


def reference_blocks(graph, sizes):
    """The stream of `_blocks` with `_settled` run on every block, and no
    table of complete blocks."""
    for m in sizes:
        for i in range(graph.n - m + 1):
            if not _settled(graph.adj, i, m):
                yield i, m, _sorted_neighbours(graph.adj, i, m)


def test_the_complete_block_table_changes_no_block_of_the_stream():
    """Over `rule_corpus`, both deciders' streams yield exactly the blocks,
    in the order, of a stream that runs `_settled` on every block, each
    with the free trees of its size."""
    for graph in rule_corpus():
        for sizes in (range(1, graph.n + 1), [graph.n]):
            got = list(oracle._blocks(graph, sizes))
            assert [b[:3] for b in got] == list(reference_blocks(graph, sizes))
            assert all(b[3] == _free_parents(b[1]) for b in got)


def test_complete_blocks_never_reach_the_degree_test(monkeypatch):
    """Interval passes whose every block is complete are decided off the
    table alone: K11, and the 11-vertex prefix of the radius-2 graph of
    typed_ternary(3)."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _settled(*args)

    monkeypatch.setattr(oracle, "_settled", counted)
    ternary = underlying(generate(typed_ternary(3).tree, 2)).induced_prefix(11)
    for graph in (complete_graph(11), ternary):
        assert is_interval_universal(graph) == (True, None)
    assert calls == []


def test_free_trees_are_flattened_once_per_size(monkeypatch):
    """Two decider calls on K12 minus a perfect matching, which has no
    two-vertex cover and so is searched, flatten the 551 free trees on 12
    vertices once between them."""
    calls = []

    def counted(enc):
        calls.append(enc)
        return _flatten(enc)

    monkeypatch.setattr(oracle, "_flatten", counted)
    _free_parents.cache_clear()
    graph = clique_without(12, {(a, a + 1) for a in range(0, 12, 2)})
    first, second = shown(is_universal(graph)), shown(is_universal(graph))
    assert len(calls) == FREE_TREE_COUNTS[12] == 551
    assert first == second


def test_settled_sizes_enumerate_nothing(monkeypatch):
    """Graphs whose every block the degree rule settles are decided without
    enumerating a single free tree or searching, also past the enumeration
    guard."""
    def never(*args):
        raise AssertionError(f"enumerated or searched: {args}")

    monkeypatch.setattr(oracle, "_free_parents", never)
    monkeypatch.setattr(oracle, "_search", never)
    binary = underlying(generate(perfect_binary(4), 0)).induced_prefix(12)
    # four edges missing, all at one vertex
    assert sorted(map(len, binary.adj)) == [7] + [10] * 4 + [11] * 7
    # eight edges missing, all at 10 or 11, whose common neighbours are
    # 0 and 5..9
    depth3 = binary_prefix(12)
    assert sorted(depth3.adj[10] & depth3.adj[11]) == [0, 5, 6, 7, 8, 9]
    assert {a for a in range(10) if not depth3.has_edge(a, 10)} == \
        {a for a in range(10) if not depth3.has_edge(a, 11)} == {1, 2, 3, 4}
    assert is_universal(complete_graph(12)) == (True, None)
    assert is_universal(binary) == (True, None)
    assert is_universal(depth3) == (True, None)
    ternary = underlying(generate(typed_ternary(3).tree, 2)).induced_prefix(11)
    assert is_interval_universal(ternary) == (True, None)
    assert is_universal(complete_graph(17), unsafe_large=True) == (True, None)


def test_every_small_balanced_host_is_interval_universal():
    """The oracle side of the rule sweep: the radius-0, 1 and 2 graphs and
    the legacy radius-2 graph of every ordered (2,1)-balanced host up to 9
    vertices are interval-universal."""
    hosts = balanced_hosts(9)
    assert len(hosts) == 404
    for radius, legacy in ((0, False), (1, False), (2, False), (2, True)):
        for host in hosts:
            graph = underlying(generate(host, radius, legacy=legacy))
            assert is_interval_universal(graph) == (True, None), \
                (radius, legacy, host.children)

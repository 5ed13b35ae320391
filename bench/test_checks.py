"""The benchmark's checks accept the program's real outputs and reject
deliberately corrupted ones; the tracer restores what it wraps."""

import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from treeverse import cli, embedder, oracle, tree_core  # noqa: E402
from treeverse.balanced_trees import perfect_binary, typed_ternary  # noqa: E402
from treeverse.graph_gen import UndirectedGraph, generate, underlying  # noqa: E402


def children_of(tree):
    return [list(c) for c in tree.children]


def rule_edges(reading):
    return {(a, b) for b in range(reading.n) for a in range(b)
            if reading.adjacent(a, b)}


def test_rule_reading_matches_the_generator():
    rng = random.Random(7)
    trees = [typed_ternary(k).tree for k in (1, 2, 3)] + [perfect_binary(3)]
    trees.append(tree_core.RootedTree(workloads.recursive_tree(30, rng)))
    for tree in trees:
        for radius in (0, 1, 2):
            reading = checks.RuleReading(children_of(tree), radius)
            assert rule_edges(reading) == set(underlying(generate(tree, radius)).edges)


def test_own_family_constructions_match_the_program():
    for k in range(5):
        assert checks.typed_ternary_children(k) == children_of(typed_ternary(k).tree)
        assert checks.perfect_binary_children(k) == children_of(perfect_binary(k))


def test_guest_generators_make_trees_of_the_requested_size():
    rng = random.Random(3)
    for n in (1, 2, 3, 40):
        for make in (workloads.prufer_tree, workloads.recursive_tree,
                     workloads.caterpillar_tree):
            assert checks.RuleReading(make(n, rng), 0).n == n
    assert checks.RuleReading(workloads.spider_tree(40, rng), 0).n == 40
    # Prüfer decoding: vertex degrees are the sequence counts plus one
    n = 50
    rr = random.Random(11)
    seq = [rr.randrange(n) for _ in range(n - 2)]
    kids = workloads.prufer_tree(n, random.Random(11))
    degrees = sorted(len(c) + (v != 0) for v, c in enumerate(kids))
    assert degrees == sorted(seq.count(v) + 1 for v in range(n))


def _real_embedding(m=60, seed=1):
    rng = random.Random(seed)
    host = typed_ternary(4).tree
    kids = workloads.prufer_tree(m, rng)
    guest = tree_core.RootedTree(kids)
    x1, x2 = rng.randrange(m), rng.randrange(m)
    emb = embedder.embed(host, guest, x1, x2)
    return checks.RuleReading(children_of(host), 2), kids, emb.mapping, x1, x2


def test_embedding_check_accepts_the_program_output():
    for seed in range(5):
        reading, kids, mapping, x1, x2 = _real_embedding(seed=seed)
        assert reading.second_marker_window(len(kids))
        assert checks.check_embedding(reading, kids, mapping, x1, x2) == []


def test_embedding_check_rejects_corrupted_mappings():
    reading, kids, mapping, x1, x2 = _real_embedding()
    m = len(kids)

    def problems(bad, a=x1, b=x2):
        return checks.check_embedding(reading, kids, bad, a, b)

    def rejected(bad, a=x1, b=x2):
        return problems(bad, a, b) != []

    assert any("non-adjacent" in p
               for u in range(m) for v in range(u + 1, m)
               for p in problems({**mapping, u: mapping[v], v: mapping[u]}))
    assert rejected({g: h for g, h in mapping.items() if g != 0})
    assert rejected({**mapping, 0: mapping[1]})
    assert rejected({**mapping, 0: 0})
    low = min(range(m), key=lambda g: reading.level[mapping[g]])
    high = max(range(m), key=lambda g: reading.level[mapping[g]])
    assert reading.level[mapping[high]] > max(2, reading.level[mapping[low]])
    assert rejected(mapping, a=high)
    assert rejected(mapping, b=high)


def _bounds_csv(*argv, fmt="csv"):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["bounds", *argv, "--format", fmt]) == 0
    return out.getvalue()


def _replace_edges(text, row, delta):
    lines = text.strip().splitlines()
    cells = lines[row].split(",")
    cells[3] = str(int(cells[3]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def test_bounds_check_accepts_and_rejects():
    checker = checks.BoundsChecker()
    tern = _bounds_csv("--family", "ternary-typed", "--k-max", "3", "--prefix-sweep")
    binary = _bounds_csv("--family", "binary", "--k-max", "4")
    assert checker.check(tern, "ternary-typed", 3, True) == []
    assert checker.check(binary, "binary", 4, False) == []

    last = len(tern.strip().splitlines()) - 1
    over = _replace_edges(tern, last, 10 ** 6)
    assert any("over the bound" in p for p in
               checker.check(over, "ternary-typed", 3, True))
    dip = _replace_edges(tern, last - 1, 10 ** 3)
    assert any("decreases" in p for p in
               checker.check(dip, "ternary-typed", 3, True))
    off = _replace_edges(binary, 3, -1)
    assert any("own count" in p for p in checker.check(off, "binary", 4, False))
    assert checker.check(tern, "ternary-typed", 4, True) != []
    assert checker.check("x" + tern, "ternary-typed", 3, True) != []

    table = _bounds_csv("--family", "binary", "--k-max", "4", fmt="table")
    assert checker.check(table, "binary", 4, False, "table") == []
    assert checker.check(table, "binary", 4, False) != []
    lines = table.strip().splitlines()
    cells = lines[3].split()
    cells[3] = str(int(cells[3]) - 1)
    lines[3] = " ".join(cells)
    assert any("own count" in p for p in
               checker.check("\n".join(lines), "binary", 4, False, "table"))


def test_verify_checks_accept_and_reject():
    counts = {m: len(oracle.enumerate_free_trees(m).trees) for m in range(1, 9)}
    assert checks.check_tree_counts(counts) == []
    assert checks.check_tree_counts({**counts, 8: counts[8] - 1}) != []

    n = 6
    edges = [(a, b) for b in range(n) for a in range(b) if not (a % 2 == 0 and b == a + 1)]
    result = oracle.is_universal(UndirectedGraph(n, edges), jobs=1)
    assert checks.check_degree_witness(result, n - 2, n) == []
    path = tree_core.RootedTree(workloads.path_tree(n))
    assert checks.check_degree_witness((False, path), n - 2, n) != []
    assert checks.check_degree_witness((True, None), n - 2, n) != []

    prefix = underlying(generate(typed_ternary(2).tree, 2)).induced_prefix(7)
    result = oracle.is_universal(prefix, jobs=1)
    assert checks.check_universal(result) == []
    assert checks.check_universal((False, path)) != []


def test_tracer_spans_repeat_and_originals_come_back():
    host = typed_ternary(3).tree
    guest = tree_core.RootedTree(workloads.recursive_tree(22, random.Random(2)))
    before = (embedder.embed, tree_core.RootedTree.__init__,
              tree_core.Forest.components, oracle.brute_embed)
    totals = []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            tr.op = "op"
            embedder.embed(host, guest, 0, 1)
        finally:
            tr.uninstall()
        counts = {k: v for k, v in tracing.layer_totals(tr.spans, {"op"}).items()
                  if tracing.LAYER_METRICS[k][1] != "self_s"}
        totals.append(counts)
        assert all(s > -1e-9 for s in tracing.self_times(tr.spans))
    assert totals[0] == totals[1]
    assert totals[0]["embedder.embed_calls"] == 1
    assert totals[0]["embedder.guest_vertices"] == 22
    assert totals[0]["tree_core.trees_built"] > 0
    assert totals[0]["graph_gen.arcs"] > 0
    assert before == (embedder.embed, tree_core.RootedTree.__init__,
                      tree_core.Forest.components, oracle.brute_embed)

"""The four workloads: the program's set-up, the seeded operation list, and
the check of every operation's output.

A workload is an object with three methods.  `setup(tv)` is the program's
one-time work before the first operation and is timed as `setup_s`.
`check_setup(tv, state)` checks what set-up produced, untimed.
`make_ops(tv, state, rng)` builds the fixed operation list from the seeded
generator; only `Op.run` is timed.  `tv` holds the imported program modules;
operations look their functions up through it at call time, so the traced
run sees the calls.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import checks


@dataclass
class Op:
    label: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], list]


# -- guest trees, made by the benchmark -------------------------------------


def preorder_children(adj) -> list:
    """Relabel a tree given as neighbour lists into DFS preorder child lists
    rooted at vertex 0; each vertex keeps its neighbours' order."""
    n = len(adj)
    new_id = [-1] * n
    children: list = []
    stack = [(0, -1)]
    while stack:
        u, p = stack.pop()
        new_id[u] = len(children)
        children.append([])
        if p != -1:
            children[new_id[p]].append(new_id[u])
        stack.extend((v, u) for v in reversed(adj[u]) if v != p)
    if len(children) != n:
        raise ValueError("not a connected tree")
    return children


def _from_parents(parents) -> list:
    adj: list = [[] for _ in parents]
    for v, p in enumerate(parents):
        if p is not None:
            adj[p].append(v)
            adj[v].append(p)
    return preorder_children(adj)


def prufer_tree(n: int, rng) -> list:
    """Uniform random labelled tree on n vertices, rooted at vertex 0."""
    if n <= 2:
        return _from_parents([None] + [0] * (n - 1))
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    adj: list = [[] for _ in range(n)]
    leaf = ptr = degree.index(1)
    for s in seq:
        adj[leaf].append(s)
        adj[s].append(leaf)
        degree[s] -= 1
        if s < ptr and degree[s] == 1:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    last = n - 1
    adj[leaf].append(last)
    adj[last].append(leaf)
    return preorder_children(adj)


def recursive_tree(n: int, rng) -> list:
    """Random recursive tree: vertex v attaches to a uniform earlier vertex."""
    return _from_parents([None] + [rng.randrange(v) for v in range(1, n)])


def path_tree(n: int) -> list:
    return [[v + 1] for v in range(n - 1)] + [[]]


def caterpillar_tree(n: int, rng) -> list:
    """A spine of n//3 vertices with the rest hung as leaves on random spine
    vertices."""
    spine = max(1, n // 3)
    parents = [None] + list(range(spine - 1))
    parents += [rng.randrange(spine) for _ in range(n - spine)]
    return _from_parents(parents)


def spider_tree(n: int, rng) -> list:
    """A centre with 3 to 5 legs; every leg holds at least half its even share."""
    legs = rng.randint(3, 5)
    floor = (n - 1) // (2 * legs)
    lengths = [floor] * legs
    for _ in range(n - 1 - floor * legs):
        lengths[rng.randrange(legs)] += 1
    parents: list = [None]
    for length in lengths:
        prev = 0
        for _ in range(length):
            parents.append(prev)
            prev = len(parents) - 1
    return _from_parents(parents)


def _spread(lo: int, hi: int, count: int) -> list:
    return [round(lo + i * (hi - lo) / (count - 1)) for i in range(count)]


# -- embed-random and embed-deep ---------------------------------------------


class EmbedWorkload:
    """embed(host, guest, x1, x2, host_graph=G) on guests the benchmark makes.

    `build_hosts(tv)` names each host; `plan(rng)` yields (host name, shape,
    guest child lists) in operation order."""

    def setup(self, tv) -> dict:
        return {name: (tree, tv.embedder.host_graph_for(tree))
                for name, tree in self.build_hosts(tv).items()}

    def check_setup(self, tv, state) -> list:
        problems = []
        for name, (tree, _graph) in state.items():
            want = self.host_children(name)
            if [list(c) for c in tree.children] != want:
                problems.append(f"host {name} differs from the benchmark's "
                                "own construction")
        return problems

    def make_ops(self, tv, state, rng) -> list:
        readings = {name: checks.RuleReading(self.host_children(name), 2)
                    for name in state}
        ops = []
        for host_name, shape, children in self.plan(rng):
            host, graph = state[host_name]
            guest = tv.tree_core.RootedTree(children)
            m = len(children)
            x1, x2 = rng.randrange(m), rng.randrange(m)
            ops.append(Op(f"{host_name}/{shape}/{m}", m,
                          self._runner(tv, host, guest, x1, x2, graph),
                          self._checker(readings[host_name], children, x1, x2)))
        return ops

    @staticmethod
    def _runner(tv, host, guest, x1, x2, graph):
        return lambda: tv.embedder.embed(host, guest, x1, x2, host_graph=graph)

    @staticmethod
    def _checker(reading, children, x1, x2):
        def check(emb) -> list:
            problems = checks.check_embedding(reading, children, emb.mapping,
                                              x1, x2)
            if not emb.ok and not problems:
                problems.append("Embedding.ok is False on a valid embedding")
            return problems
        return check


class EmbedRandom(EmbedWorkload):
    """Uniform (Prüfer) and random recursive guests of 729..2187 vertices into
    the typed-ternary host of depth 7."""

    name = "embed-random"
    setup_repeats = 5
    # Many distinct guests in one pass: latency varies more between random
    # guests (and their x1) than between runs, so a run's percentiles need
    # many draws to repeat from seed to seed.
    SIZES = _spread(729, 2187, 96)

    def build_hosts(self, tv) -> dict:
        return {"t7": tv.balanced_trees.typed_ternary(7).tree}

    def host_children(self, name) -> list:
        return checks.typed_ternary_children(7)

    def plan(self, rng):
        for i, m in enumerate(self.SIZES):
            if i % 2:
                yield "t7", "recursive", recursive_tree(m, rng)
            else:
                yield "t7", "prufer", prufer_tree(m, rng)


class EmbedDeep(EmbedWorkload):
    """Paths, caterpillars and spiders into typed-ternary hosts of depth 6 and
    7, and random guests into a 400-vertex path host."""

    name = "embed-deep"
    setup_repeats = 5
    PATH_HOST = 400
    SIZES = {"t6": _spread(100, 729, 24), "t7": _spread(243, 729, 12)}
    PATH_HOST_SIZES = _spread(PATH_HOST // 3, PATH_HOST, 20)

    def build_hosts(self, tv) -> dict:
        return {"t6": tv.balanced_trees.typed_ternary(6).tree,
                "t7": tv.balanced_trees.typed_ternary(7).tree,
                "path": tv.tree_core.RootedTree(path_tree(self.PATH_HOST))}

    def host_children(self, name) -> list:
        if name == "path":
            return path_tree(self.PATH_HOST)
        return checks.typed_ternary_children(int(name[1]))

    def plan(self, rng):
        for host_name, sizes in self.SIZES.items():
            for m in sizes:
                yield host_name, "path", path_tree(m)
                yield host_name, "caterpillar", caterpillar_tree(m, rng)
                yield host_name, "spider", spider_tree(m, rng)
        for i, m in enumerate(self.PATH_HOST_SIZES):
            if i % 2:
                yield "path", "recursive", recursive_tree(m, rng)
            else:
                yield "path", "prufer", prufer_tree(m, rng)


# -- bounds ------------------------------------------------------------------


class Bounds:
    """`treeverse bounds` through cli.main, output parsed back."""

    name = "bounds"
    setup_repeats = 9
    # The median and the tail percentile each fall inside the samples of two
    # operations of the same cost: one table printed with `--format csv` and
    # with `--format table` (`binary --k-max 7`, 7th and 8th of 14 by time,
    # with the median at their middle; the depth-6 ternary sweep, 11th and
    # 12th).  Their neighbours are at least 1.5 times off.  Two operations
    # there give twice the samples that one would, so these order statistics
    # repeat better from run to run.
    TABLES = [("ternary-typed", k, True, "csv") for k in (3, 4, 5, 6, 7)] + \
        [("ternary-typed", k, False, "csv") for k in (4, 5)] + \
        [("binary", k, False, "csv") for k in (5, 6, 7, 8, 10)] + \
        [("binary", 7, False, "table"), ("ternary-typed", 6, True, "table")]

    def setup(self, tv):
        return None

    def check_setup(self, tv, state) -> list:
        return []

    def make_ops(self, tv, state, rng) -> list:
        checker = checks.BoundsChecker()
        tables = list(self.TABLES)
        rng.shuffle(tables)
        ops = []
        for family, k_max, sweep, fmt in tables:
            argv = ["bounds", "--family", family, "--k-max", str(k_max),
                    "--format", fmt] + (["--prefix-sweep"] if sweep else [])
            label = f"{family}/{k_max}" + ("/sweep" if sweep else "") + \
                ("" if fmt == "csv" else f"/{fmt}")
            ops.append(Op(label, k_max, self._runner(tv, argv),
                          self._checker(checker, family, k_max, sweep, fmt)))
        return ops

    @staticmethod
    def _runner(tv, argv):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = tv.cli.main(argv)
            return code, out.getvalue()
        return run

    @staticmethod
    def _checker(checker, family, k_max, sweep, fmt):
        def check(result) -> list:
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            return checker.check(text, family, k_max, sweep, fmt)
        return check


# -- verify ------------------------------------------------------------------


class Verify:
    """The oracle's deciders with jobs=1 on admissible prefixes of the
    radius-2 typed-ternary graph and the radius-0 binary graph, in preorder
    labels as `treeverse verify` passes them, plus a 12-vertex graph with no
    vertex of degree 11: K12 minus a perfect matching drawn from the seed."""

    name = "verify"
    setup_repeats = 5
    UNIVERSAL_N = 12
    INTERVAL_N = 11
    DEPTHS = (3, 4)
    FAMILIES = (("ternary-typed", 2), ("binary", 0))

    def setup(self, tv) -> dict:
        counts = {m: len(tv.oracle.enumerate_free_trees(m).trees)
                  for m in range(1, self.UNIVERSAL_N + 1)}
        prefixes = {}
        for family, radius in self.FAMILIES:
            for k in self.DEPTHS:
                tree = (tv.balanced_trees.typed_ternary(k).tree
                        if family == "ternary-typed"
                        else tv.balanced_trees.perfect_binary(k))
                graph = tv.graph_gen.underlying(tv.graph_gen.generate(tree, radius))
                for m in (self.UNIVERSAL_N, self.INTERVAL_N):
                    prefixes[(family, k, m)] = graph.induced_prefix(m)
        return {"counts": counts, "prefixes": prefixes}

    def check_setup(self, tv, state) -> list:
        problems = checks.check_tree_counts(state["counts"])
        for (family, k, m), graph in state["prefixes"].items():
            children = (checks.typed_ternary_children(k)
                        if family == "ternary-typed"
                        else checks.perfect_binary_children(k))
            reading = checks.RuleReading(children, dict(self.FAMILIES)[family])
            want = {(a, b) for b in range(m) for a in range(b)
                    if reading.adjacent(a, b)}
            if set(graph.edges) != want:
                problems.append(f"{family} k={k} prefix {m}: edges differ "
                                "from the benchmark's own rule reading")
        return problems

    def make_ops(self, tv, state, rng) -> list:
        oracle = tv.oracle
        ops = []
        for (family, k, m), graph in state["prefixes"].items():
            if m == self.UNIVERSAL_N:
                ops.append(Op(f"universal/{family}/{k}", m,
                              self._universal(oracle, graph), checks.check_universal))
            else:
                ops.append(Op(f"interval/{family}/{k}", m,
                              self._interval(oracle, graph), checks.check_universal))
        n = self.UNIVERSAL_N
        order = list(range(n))
        rng.shuffle(order)
        matching = {frozenset(order[i:i + 2]) for i in range(0, n, 2)}
        edges = [(a, b) for b in range(n) for a in range(b)
                 if frozenset((a, b)) not in matching]
        top = max(sum(v in e for e in edges) for v in range(n))
        graph = tv.graph_gen.UndirectedGraph(n, edges)
        ops.append(Op("degree-bounded", n, self._universal(oracle, graph),
                      lambda result: checks.check_degree_witness(result, top, n)))
        return ops

    @staticmethod
    def _universal(oracle, graph):
        return lambda: oracle.is_universal(graph, jobs=1)

    @staticmethod
    def _interval(oracle, graph):
        return lambda: oracle.is_interval_universal(graph, jobs=1)


WORKLOADS = {w.name: w for w in (EmbedRandom(), EmbedDeep(), Bounds(), Verify())}

import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treeverse
from treeverse import (GeneratedDigraph, TreeError, UndirectedGraph,
                       bound_table_binary, bound_table_ternary, build_tree,
                       descendant_count, edge_gap_summary, embed,
                       enumerate_free_trees, find_bounded_components,
                       find_feasible_or_critical, from_parens, generate,
                       is_interval_universal, is_universal, ith_ancestor,
                       nearest_left_cousin, perfect_binary, phi2_window,
                       prefix_counts, typed_ternary)
from treeverse.analytics import BINARY_K_GUARD, GAP_K_GUARD, TERNARY_K_GUARD
from treeverse.embedder import host_graph_for, verify_embedding
from treeverse.oracle import ENUM_GUARD
from treeverse.tree_core import TreeView, check_int

from trees import rand_tree


def test_package_has_no_assert_statements():
    """Correctness checks must survive `python -O`, which strips asserts."""
    found = []
    for path in sorted(Path(treeverse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# each module and the package modules it may import: the generator and the
# oracle know no tree family, and only the front ends see everything
ALLOWED_IMPORTS = {
    "tree_core": set(),
    "graph_gen": {"tree_core"},
    "balanced_trees": {"tree_core"},
    "decomposition": {"tree_core"},
    "oracle": {"tree_core", "graph_gen"},
    "embedder": {"tree_core", "graph_gen", "balanced_trees", "decomposition"},
    "analytics": {"tree_core", "balanced_trees", "graph_gen"},
    "cli": {"tree_core", "graph_gen", "balanced_trees", "decomposition",
            "oracle", "embedder", "analytics"},
    "__init__": {"tree_core", "graph_gen", "balanced_trees", "decomposition",
                 "oracle", "embedder", "analytics"},
}


def package_imports(path):
    """The package modules a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "treeverse":
                found.update(node.module.split(".")[1:2]
                             or (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("treeverse."))
    return found


def test_modules_import_only_their_lower_layers():
    paths = sorted(Path(treeverse.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == set(ALLOWED_IMPORTS)
    for path in paths:
        assert package_imports(path) <= ALLOWED_IMPORTS[path.stem], path.name


def test_package_has_no_runtime_dependencies():
    """Every top-level module a source file imports is in the standard
    library or is the package itself, and the project declares none."""
    package = Path(treeverse.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert (top in sys.stdlib_module_names
                        or top == "treeverse"), (path.name, top)
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())
    assert project["project"]["dependencies"] == []


def test_test_modules_do_not_redefine_shared_builders():
    """No two test modules, `tests/trees.py` and `conftest.py` among them,
    define a top-level helper of the same name: a builder used in two
    modules lives in `tests/trees.py` only, under a name of its own."""
    owners = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("test_")):
                owners.setdefault(node.name, []).append(path.name)
    assert {name: files for name, files in owners.items()
            if len(files) > 1} == {}


def named_modules(name):
    """The package modules whose code names `name`: as a variable, an
    attribute or an imported name, not in a definition or a string."""
    found = set()
    for path in sorted(Path(treeverse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if name == (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None):
                found.add(path.stem)
    return found


def test_only_tree_core_names_forest():
    """`Forest` is the tests' reference for components and the benchmark
    tracer's target: no other package module builds or reads one, so the
    finders take only a `RootedTree` and a vertex set."""
    assert named_modules("Forest") <= {"tree_core"}


def test_only_the_export_names_the_checked_cousin_lookup():
    """Package code reads `RootedTree.left_cousin`; `nearest_left_cousin`,
    which checks its argument, is the public lookup and has no package
    caller."""
    assert named_modules("nearest_left_cousin") == {"__init__"}


def test_only_the_export_names_the_checked_ancestor_lookup():
    """`graph_gen` walks `RootedTree.parent` to each radius anchor;
    `ith_ancestor`, which checks its arguments, is the public lookup and has
    no package caller."""
    assert named_modules("ith_ancestor") == {"__init__"}


def test_modules_read_no_private_name_of_another_module():
    """A non-dunder `_name` attribute is read on `self`, or names a slot or a
    `self._name` assignment of a class in the same module, and no module
    imports a `_name` from another: each private field stays in its module."""
    found = []
    for path in sorted(Path(treeverse.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        own = set()
        for cls in (node for node in nodes if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in node.targets)):
                    own.update(c.value for c in ast.walk(node.value)
                               if isinstance(c, ast.Constant))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"):
                    own.add(node.attr)
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and node.attr.startswith("_")
                  and not node.attr.startswith("__")
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "self")
                  and node.attr not in own):
                found.append(f"{path.name}:{node.lineno} reads {node.attr}")
    assert found == []


def int_type_tests():
    """(module, function) of each package function whose code compares
    `type(...)` with `int`, maps `type` over values or asks
    `isinstance(..., int)`; a nested function or a method is named by its
    dotted path."""
    def calls(node, name):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == name)

    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    def is_type_test(node):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            return (any(map(is_int, sides))
                    and any(calls(side, "type") for side in sides))
        return ((calls(node, "map") and ast.unparse(node.args[0]) == "type")
                or (calls(node, "isinstance")
                    and any(map(is_int, ast.walk(node.args[1])))))

    found = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif is_type_test(child):
                found.add((module, ".".join(scope)))
            visit(child, module, inner)

    for path in sorted(Path(treeverse.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, ())
    return found


def test_int_type_tests_live_in_check_int_and_the_per_element_loops():
    """An int argument is refused by `tree_core.check_int`; only the loops
    that test one element at a time on hot paths, and `verify_embedding`,
    which reports a map's non-int image ids instead of raising, test the
    type inline."""
    assert int_type_tests() == {
        ("tree_core", "check_int"),
        ("tree_core", "RootedTree.__init__"),
        ("graph_gen", "merged_tree"),
        ("decomposition", "_inside"),
        ("embedder", "verify_embedding"),
    }


TREE = perfect_binary(2)   # 7 vertices
VIEW = TreeView(TREE)
GRAPH = UndirectedGraph(3, [(0, 1), (1, 2)])
HOST = typed_ternary(2).tree
GUEST = from_parens("(()())")

def free_trees_once_one_is_cached(n):
    """`enumerate_free_trees(n)` once the size-1 trees are cached, so a
    cache that read True or 1.0 as 1 would answer for them: the cache keys
    an exact int by itself and any other value by a 1-tuple, and the check
    inside it refuses them."""
    enumerate_free_trees(1)
    return enumerate_free_trees(n)


# one row per public callable and int parameter: the call, the name its
# refusal gives, the allowed range (None for an open end; a row with no
# range is checked for its type only) and the error class
INT_ARGUMENTS = {
    "RootedTree.check_vertex": (TREE.check_vertex, "vertex", 0, 6, TreeError),
    "RootedTree.subtree": (TREE.subtree, "vertex", 0, 6, TreeError),
    "RootedTree.prefix": (TREE.prefix, "prefix size", 1, 7, TreeError),
    "TreeView.check_vertex": (VIEW.check_vertex, "vertex", 0, 6, TreeError),
    "TreeView.subtree": (VIEW.subtree, "vertex", 0, 6, TreeError),
    "TreeView.prefix": (VIEW.prefix, "prefix size", 1, 7, TreeError),
    "TreeView.tail": (VIEW.tail, "vertex", 0, 6, TreeError),
    "build_tree child": (lambda c: build_tree([[c], []]), "child id", 0, 1,
                         TreeError),
    "nearest_left_cousin": (lambda u: nearest_left_cousin(TREE, u), "vertex",
                            0, 6, TreeError),
    "ith_ancestor u": (lambda u: ith_ancestor(TREE, u, 1), "vertex", 0, 6,
                       TreeError),
    "ith_ancestor i": (lambda i: ith_ancestor(TREE, 3, i), "ancestor index",
                       0, None, TreeError),
    "UndirectedGraph n": (lambda n: UndirectedGraph(n, []), "vertex count",
                          0, None, ValueError),
    "UndirectedGraph.induced_prefix": (GRAPH.induced_prefix, "prefix size",
                                       0, 3, ValueError),
    "UndirectedGraph.induced": (lambda v: GRAPH.induced([v]),
                                "induced vertex", 0, 2, ValueError),
    "UndirectedGraph.has_edge u": (lambda u: GRAPH.has_edge(u, 0),
                                   "edge endpoint", 0, 2, ValueError),
    "UndirectedGraph.has_edge w": (lambda w: GRAPH.has_edge(0, w),
                                   "edge endpoint", 0, 2, ValueError),
    "generate": (lambda r: generate(TREE, r), "radius", 0, None, ValueError),
    "GeneratedDigraph": (lambda r: GeneratedDigraph(TREE, r), "radius", 0,
                         None, ValueError),
    "prefix_counts": (lambda r: prefix_counts(TREE, r), "radius", 0, None,
                      ValueError),
    "perfect_binary": (perfect_binary, "k", 0, None, ValueError),
    "typed_ternary": (typed_ternary, "k", 0, None, ValueError),
    "descendant_count level": (lambda v: descendant_count(v, 1, 3), "level",
                               0, 3, ValueError),
    "descendant_count type": (lambda t: descendant_count(0, t, 3),
                              "vertex type", 1, 2, ValueError),
    "descendant_count k": (lambda k: descendant_count(0, 1, k), "k", None,
                           None, ValueError),
    "find_bounded_components u": (
        lambda u: find_bounded_components(TREE, u, 2), "vertex", None, None,
        TreeError),
    "find_bounded_components x": (
        lambda x: find_bounded_components(TREE, 0, x), "x", 1, None,
        TreeError),
    "find_feasible_or_critical u": (
        lambda u: find_feasible_or_critical(TREE, u, 3, 2), "vertex", None,
        None, TreeError),
    "find_feasible_or_critical x": (
        lambda x: find_feasible_or_critical(TREE, 0, x, 2), "x", 2, None,
        TreeError),
    "find_feasible_or_critical y": (
        lambda y: find_feasible_or_critical(TREE, 0, 3, y), "y", 2, None,
        TreeError),
    "embed x1": (lambda v: embed(HOST, GUEST, v), "marker", 0, 2,
                 ValueError),
    "embed x2": (lambda v: embed(HOST, GUEST, 0, v), "marker", 0, 2,
                 ValueError),
    "phi2_window": (lambda m: phi2_window(HOST, m), "guest size", 1, None,
                    ValueError),
    "enumerate_free_trees": (free_trees_once_one_is_cached, "n", 1,
                             ENUM_GUARD, ValueError),
    "is_universal jobs": (lambda j: is_universal(GRAPH, jobs=j), "jobs", 1,
                          None, ValueError),
    "is_interval_universal jobs": (
        lambda j: is_interval_universal(GRAPH, jobs=j), "jobs", 1, None,
        ValueError),
    "bound_table_ternary": (bound_table_ternary, "k_max", 1, TERNARY_K_GUARD,
                            ValueError),
    "bound_table_binary": (bound_table_binary, "k_max", 0, BINARY_K_GUARD,
                           ValueError),
    "edge_gap_summary": (edge_gap_summary, "k", 1, GAP_K_GUARD, ValueError),
}


@pytest.mark.parametrize("row", INT_ARGUMENTS, ids=str)
def test_int_arguments_are_refused_by_name(row):
    """A value that is not exactly an int, or that lies outside the range,
    raises the row's class with one of `check_int`'s two texts."""
    call, name, lo, hi, error = INT_ARGUMENTS[row]
    cases = [(v, error, f"{name} {v!r} is not an int")
             for v in (1.5, True, "1")]
    span = f"{'' if lo is None else lo}..{'' if hi is None else hi}"
    cases += [(v, error, f"{name} {v} out of range {span}")
              for v in ((lo - 1,) if lo is not None else ())
              + ((hi + 1,) if hi is not None else ())]
    for value, cls, text in cases:
        with pytest.raises(Exception) as info:
            call(value)
        assert (type(info.value), str(info.value)) == (cls, text), value


# typed_ternary(1..3) with their radius-2 graphs, built once
HOSTS = [(typed_ternary(k).tree, host_graph_for(typed_ternary(k).tree))
         for k in (1, 2, 3)]


def entries(n):
    """A marker or vertex as a caller might pass one: an int just inside or
    outside 0..n-1, a float, a bool or a short string."""
    return st.one_of(st.integers(-2, n + 2), st.floats(), st.booleans(),
                     st.text("-019a", max_size=2))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.data())
def test_markers_and_induced_vertices_are_refused_by_name(data):
    """`verify_embedding` returns (ok, problems) for any markers, a bad one
    as `check_int`'s text, and `induced` returns the induced graph or raises
    ValueError with its own text, never Python's."""
    host, graph = data.draw(st.sampled_from(HOSTS))
    guest = rand_tree(random.Random(data.draw(st.integers(0, 99))),
                      data.draw(st.integers(1, host.n)))
    x1, x2 = data.draw(entries(guest.n)), data.draw(entries(guest.n))
    bad = [x for x in (x1, x2) if type(x) is not int or not 0 <= x < guest.n]
    emb = embed(host, guest, *(0, 0) if bad else (x1, x2), host_graph=graph)
    if not bad:
        assert verify_embedding(emb, guest, x1, x2) == (True, [])
    else:
        with pytest.raises(ValueError) as info:
            check_int("marker", bad[0], 0, guest.n - 1, error=ValueError)
        assert verify_embedding(emb, guest, x1, x2) == \
            (False, [str(info.value)])

    vertices = data.draw(st.lists(entries(graph.n), max_size=6))
    try:
        sub = graph.induced(vertices)
    except ValueError as exc:
        assert str(exc).startswith("induced vertex "), exc
    else:
        assert sub.edges == {
            (i, j) for j, b in enumerate(vertices) for i, a in
            enumerate(vertices[:j]) if b in graph.adj[a]}

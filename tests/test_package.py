import ast
import sys
from pathlib import Path

import pytest

import treeverse


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
    "analytics": {"balanced_trees", "graph_gen"},
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
    """A tree builder or key shared through `tests/trees.py` is defined
    there only: no test module defines a top-level function of that name."""
    here = Path(__file__).parent

    def functions(path):
        return {node.name for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef)}

    shared = functions(here / "trees.py")
    for path in sorted(here.glob("test_*.py")):
        assert not functions(path) & shared, path.name


def test_only_tree_core_names_forest():
    """`Forest` is the tests' reference for components and the benchmark
    tracer's target: no other package module builds or reads one, so the
    finders take only a `RootedTree` and a vertex set."""
    for path in sorted(Path(treeverse.__file__).parent.glob("*.py")):
        if path.stem == "tree_core":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            assert name != "Forest", (path.name, node.lineno)

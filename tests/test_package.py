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

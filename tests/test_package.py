import ast
from pathlib import Path

import treeverse


def test_package_has_no_assert_statements():
    """Correctness checks must survive `python -O`, which strips asserts."""
    found = []
    for path in sorted(Path(treeverse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

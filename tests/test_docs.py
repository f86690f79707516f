"""The package's public names each state their contract in a docstring."""

import ast
from pathlib import Path

import covdet


def test_public_names_have_docstrings():
    # read from the syntax tree, not __doc__: a dataclass makes up a
    # __doc__ of its own
    missing = []
    for path in sorted(Path(covdet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not ast.get_docstring(tree):
            missing.append(path.name)
        missing += [
            f"{path.name}:{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and not ast.get_docstring(node)
        ]
    assert missing == []

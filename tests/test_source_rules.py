"""Rules on the package sources themselves."""

import ast
from pathlib import Path

import chronoforest

# The literal oracles may keep asserts on their own internal bookkeeping.
ASSERTS_ALLOWED = {"forest.py", "lukasiewicz.py"}


def test_no_assert_guards_results():
    # ``python -O`` strips assert statements, so a check that guards a
    # result must raise explicitly.
    root = Path(chronoforest.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name in ASSERTS_ALLOWED and path.parent == root:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(root)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements outside the oracles: " + ", ".join(found)

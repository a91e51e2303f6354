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


def test_stick_laws_only_choose_parts():
    # A named law may only pick a count, a life and an age part in its
    # __init__: the draws and descriptors live on StickLaw and the parts, so
    # every law shares them (and the traced ``laws.sample_batch`` span).
    root = Path(chronoforest.__file__).resolve().parent
    classes = [
        node
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
    ]
    laws = {"StickLaw"}
    grew = True
    while grew:
        found = {c.name for c in classes if any(getattr(b, "id", None) in laws for b in c.bases)}
        grew = not found <= laws
        laws |= found
    extra = [
        f"{c.name}.{getattr(stmt, 'name', type(stmt).__name__)}"
        for c in classes
        if c.name in laws - {"StickLaw"}
        for stmt in c.body
        if not (isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__")
        and not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    assert len(laws) >= 7
    assert not extra, "StickLaw subclasses define more than __init__: " + ", ".join(extra)


def test_grafting_oracle_stays_out_of_hot_paths():
    # ``forest.graft_forest`` is the literal oracle: only its own module and
    # the identity suite in ``spine`` may name it, so no command or
    # experiment can come to run the stick-by-stick loop.
    root = Path(chronoforest.__file__).resolve().parent
    allowed = {root / "forest.py", root / "spine.py"}
    found = []
    for path in sorted(root.rglob("*.py")):
        if path in allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = {
                getattr(node, "id", None),
                getattr(node, "attr", None),
                getattr(node, "name", None),
                getattr(node, "asname", None),
                getattr(node, "value", None) if isinstance(node, ast.Constant) else None,
            }
            if "graft_forest" in names:
                found.append(f"{path.relative_to(root)}:{getattr(node, 'lineno', '?')}")
    assert not found, "graft_forest referenced outside forest.py and spine.py: " + ", ".join(found)

"""Rules on the package sources themselves."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_verify_does_not_depend_on_asserts():
    # the oracles' asserts vanish under ``python -O``; what ``verify``
    # reports must not change with them
    src = str(Path(chronoforest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["-m", "chronoforest", "verify", "--seed", "3", "--forests", "5"]
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, text=True, timeout=120)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert plain.stdout == optimized.stdout
    assert '"ok": true' in plain.stdout


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


def test_public_exports_resolve():
    # a name deleted from a module must leave every ``__all__`` with it, or
    # ``import *`` breaks
    modules = [chronoforest] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(chronoforest.__path__, "chronoforest.")
        if not info.name.endswith(".__main__")  # importing it runs the CLI
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not stale, "exported but not defined: " + ", ".join(stale)
    for package in ("chronoforest", "chronoforest.stochastic"):
        exec(f"from {package} import *", {})


def _named_outside(name: str, allowed: set[str]) -> list[str]:
    """Where a package source other than ``allowed`` names ``name``: as an
    identifier, attribute, definition, import alias or string constant."""
    root = Path(chronoforest.__file__).resolve().parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).as_posix() in allowed:
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
            if name in names:
                found.append(f"{path.relative_to(root)}:{getattr(node, 'lineno', '?')}")
    return found


def test_grafting_oracle_stays_out_of_hot_paths():
    # ``forest.graft_forest`` is the literal oracle: only its own module and
    # the identity suite in ``spine`` may name it, so no command or
    # experiment can come to run the stick-by-stick loop.
    found = _named_outside("graft_forest", {"forest.py", "spine.py"})
    assert not found, "graft_forest referenced outside forest.py and spine.py: " + ", ".join(found)


def test_unchecked_measure_constructor_stays_in_measures():
    # ``PointMeasure._from_sorted`` skips the sort and the checks; only
    # ``measures``, which checks the parts first, may name it.
    found = _named_outside("_from_sorted", {"measures.py"})
    assert not found, "_from_sorted referenced outside measures.py: " + ", ".join(found)


def _imports_scipy(tree: ast.AST) -> list[int]:
    """Lines that import ``scipy`` or a submodule of it: as an ``import``, a
    ``from`` import, or a module name in a string (as given to
    ``importlib.import_module`` or ``__import__``)."""

    def scipy(module: str) -> bool:
        return module == "scipy" or module.startswith("scipy.")

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(scipy(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = scipy(node.module or "")
        else:
            hit = isinstance(node, ast.Constant) and isinstance(node.value, str) and scipy(node.value)
        if hit:
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy():
    # numpy is the one runtime dependency: scipy.special alone costs a
    # process about 0.2 s and 17 MB, and the stable laws compute zeta and
    # their mean ages themselves; scipy serves only the tests
    for snippet in [
        "import scipy",
        "import scipy.special",
        "import scipy.special as sp",
        "from scipy.special import zeta",
        "from scipy.special._basic import zeta",
        "from scipy import special",
        "from scipy import stats, special as sp",
        "from scipy.integrate import quad",
        "import numpy, scipy.integrate",
        "importlib.import_module('scipy.special')",
        "__import__('scipy')",
    ]:
        assert _imports_scipy(ast.parse(snippet)) == [1], snippet
    for snippet in ["import scipyx", "from scipyx import special", "import numpy.scipy", "x = 'scipy_special'"]:
        assert _imports_scipy(ast.parse(snippet)) == [], snippet
    root = Path(chronoforest.__file__).resolve().parent
    found = [
        f"{path.relative_to(root)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _imports_scipy(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, "scipy imported in: " + ", ".join(found)

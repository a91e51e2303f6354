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
ASSERTS_ALLOWED = {"forest.py"}


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


def _names(tree: ast.AST, name: str) -> list[int]:
    """Lines where ``tree`` names ``name``: as an identifier, attribute,
    definition, import alias or string constant."""
    lines = []
    for node in ast.walk(tree):
        names = {
            getattr(node, "id", None),
            getattr(node, "attr", None),
            getattr(node, "name", None),
            getattr(node, "asname", None),
            getattr(node, "value", None) if isinstance(node, ast.Constant) else None,
        }
        if name in names:
            lines.append(getattr(node, "lineno", "?"))
    return lines


def _named_outside(name: str, allowed: set[str]) -> list[str]:
    """Where a package source other than ``allowed`` names ``name``."""
    root = Path(chronoforest.__file__).resolve().parent
    return [
        f"{path.relative_to(root)}:{line}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root).as_posix() not in allowed
        for line in _names(ast.parse(path.read_text(), filename=str(path)), name)
    ]


def test_grafting_oracle_stays_out_of_hot_paths():
    # ``forest.graft_forest`` is the literal oracle: only its own module and
    # the identity suite in ``spine`` may name it, so no command or
    # experiment can come to run the stick-by-stick loop.
    found = _named_outside("graft_forest", {"forest.py", "spine.py"})
    assert not found, "graft_forest referenced outside forest.py and spine.py: " + ", ".join(found)


def test_unchecked_measure_constructor_stays_in_measures():
    # ``PointMeasure._from_sorted`` skips the sort and the checks, and
    # ``_unchecked_stick`` (through the slot setters) skips ``Stick``'s;
    # only ``measures``, which checks the parts first, may name them.
    for name in ("_from_sorted", "_unchecked_stick", "_set_stick_v", "_set_stick_births"):
        for snippet in [
            f"m = measures.{name}(atoms)",
            f"from chronoforest.measures import {name}",
            f"from chronoforest.measures import {name} as make",
            f"make = getattr(measures, '{name}')",
        ]:
            assert _names(ast.parse(snippet), name) == [1], snippet
        for snippet in ["s = Stick(v, births)", f"x = '{name}_'", f"{name}x = 1"]:
            assert _names(ast.parse(snippet), name) == [], snippet
        found = _named_outside(name, {"measures.py"})
        assert not found, f"{name} referenced outside measures.py: " + ", ".join(found)


def _imports(tree: ast.AST, package: str) -> list[int]:
    """Lines that import ``package`` or a submodule of it: as an ``import``,
    a ``from`` import, or a module name in a string (as given to
    ``importlib.import_module`` or ``__import__``)."""

    def named(module: str) -> bool:
        return module == package or module.startswith(package + ".")

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(named(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = named(node.module or "")
        else:
            hit = isinstance(node, ast.Constant) and isinstance(node.value, str) and named(node.value)
        if hit:
            lines.append(node.lineno)
    return lines


def _imported_in_package(package: str) -> list[str]:
    root = Path(chronoforest.__file__).resolve().parent
    return [
        f"{path.relative_to(root)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _imports(ast.parse(path.read_text(), filename=str(path)), package)
    ]


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
        assert _imports(ast.parse(snippet), "scipy") == [1], snippet
    for snippet in ["import scipyx", "from scipyx import special", "import numpy.scipy", "x = 'scipy_special'"]:
        assert _imports(ast.parse(snippet), "scipy") == [], snippet
    found = _imported_in_package("scipy")
    assert not found, "scipy imported in: " + ", ".join(found)


def test_no_module_imports_csv():
    # ``forest.write_rows`` is the one CSV writer: it emulates ``csv.writer``
    # in blocks of rows, where ``csv.writer`` takes one Python step per row
    for snippet in ["import csv", "from csv import writer", "import io, csv as c", "__import__('csv')"]:
        assert _imports(ast.parse(snippet), "csv") == [1], snippet
    for snippet in ["import csvkit", "x = 'rows.csv'", "write_csv = 1"]:
        assert _imports(ast.parse(snippet), "csv") == [], snippet
    found = _imported_in_package("csv")
    assert not found, "csv imported in: " + ", ".join(found)


def _lukasiewicz_imports(tree: ast.AST) -> list[int]:
    """Lines that import ``lukasiewicz`` or from it, absolutely or
    relatively, or name the module."""
    lines = set(_names(tree, "lukasiewicz"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any("lukasiewicz" in module.split(".") for module in modules):
            lines.add(node.lineno)
    return sorted(lines)


def test_experiments_use_no_oracle_types():
    # the experiments run on flat arrays; the exact index-gap formula of
    # result (2) is an identity of ``spine.verify_identities``, which holds
    # the walk, the ladder and the stick objects
    for snippet in [
        "from ..lukasiewicz import ladder_decomp",
        "from chronoforest.lukasiewicz import walk",
        "from .. import lukasiewicz",
        "from chronoforest import lukasiewicz as lk",
        "import chronoforest.lukasiewicz",
        "w = chronoforest.lukasiewicz.walk(s)",
    ]:
        assert _lukasiewicz_imports(ast.parse(snippet)) == [1], snippet
    for snippet in ["from ..spine import height_profile_arrays", "import lukasiewiczx", "x = 'walk'"]:
        assert _lukasiewicz_imports(ast.parse(snippet)) == [], snippet
    for name in ("Stick", "PointMeasure"):
        for snippet in [f"from ..measures import {name}", f"x = measures.{name}(1.0)", f"def f(s: {name}): pass"]:
            assert _names(ast.parse(snippet), name) != [], snippet
    for snippet in ["from ..measures import StickBatch", "sticks = batch.to_sticks()", "Sticks = 1"]:
        assert _names(ast.parse(snippet), "Stick") == [], snippet
    path = Path(chronoforest.__file__).resolve().parent / "stochastic" / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"lukasiewicz:{line}" for line in _lukasiewicz_imports(tree)] + [
        f"{name}:{line}" for name in ("Stick", "PointMeasure") for line in _names(tree, name)
    ]
    assert not found, "stochastic/experiments.py names the oracle types: " + ", ".join(found)


def _walk_input_violations(tree: ast.AST) -> list[str]:
    """Functions of a module that take the marked walk in any form but one
    ``Walk`` first argument: a public module-level function other than
    ``walk`` whose first parameter is not annotated ``Walk``, or any
    function but ``walk`` with a parameter named ``sticks``."""
    public = {
        node.name
        for node in getattr(tree, "body", [])
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name == "walk":
            continue
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if node in getattr(tree, "body", []) and node.name in public:
            first = args[0].annotation if args else None
            if not (isinstance(first, ast.Name) and first.id == "Walk"):
                bad.append(f"{node.name}: first parameter is not a Walk")
        if any(a.arg == "sticks" for a in args):
            bad.append(f"{node.name}: takes sticks")
    return bad


def test_lukasiewicz_functionals_take_the_walk_alone():
    # the marked walk carries the birth measures, so a functional that also
    # took the sticks would read the same marks twice
    for snippet, expected in [
        ("def f(w: Walk, m: int): pass", []),
        ("def walk(sticks): pass", []),
        ("def _helper(x): pass", []),
        ("def f(m: int, w: Walk): pass", ["f: first parameter is not a Walk"]),
        ("def f(): pass", ["f: first parameter is not a Walk"]),
        ("def f(w: Walk, *, sticks=None): pass", ["f: takes sticks"]),
        ("class C:\n    def D(self, level, sticks): pass", ["D: takes sticks"]),
    ]:
        assert _walk_input_violations(ast.parse(snippet)) == expected, snippet
    path = Path(chronoforest.__file__).resolve().parent / "lukasiewicz.py"
    bad = _walk_input_violations(ast.parse(path.read_text(), filename=str(path)))
    assert not bad, "lukasiewicz functions that do not take the walk alone: " + ", ".join(bad)


def _approximate_paths(tree: ast.AST) -> list[str]:
    """Where a module takes an approximate path through float identities: an
    ``isclose`` definition or call, any ``fsum``, or a builtin ``sum`` call.

    Both sides of the identities are built from the same float atoms, and
    ages are summed root first as grafting adds them, so they compare with
    ``==``.  Builtin ``sum`` compensates float sums from Python 3.12, so it
    would not reproduce grafting's order of additions."""
    bad = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.FunctionDef) and node.name == "isclose":
            bad.append(f"{line}: defines isclose")
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "isclose":
                bad.append(f"{line}: calls isclose")
            elif isinstance(func, ast.Name) and func.id == "sum":
                bad.append(f"{line}: calls builtin sum")
        names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
        if "fsum" in names:
            bad.append(f"{line}: names fsum")
    return bad


def test_identity_modules_take_no_approximate_path():
    for snippet, expected in [
        ("def isclose(self, other, tol=1e-9): pass", ["1: defines isclose"]),
        ("ok = a.isclose(b, tol)", ["1: calls isclose"]),
        ("ok = math.isclose(a, b)", ["1: calls isclose"]),
        ("h = math.fsum(ages)", ["1: names fsum"]),
        ("from math import fsum", ["1: names fsum"]),
        ("h = sum(m.sup_support for m in ms)", ["1: calls builtin sum"]),
        ("h = root_first_sum(reversed(ages))", []),
        ("s = np.cumsum(x); t = x.sum(); u = np.sum(x)", []),
    ]:
        assert _approximate_paths(ast.parse(snippet)) == expected, snippet
    root = Path(chronoforest.__file__).resolve().parent
    found = [
        f"{name}:{where}"
        for name in ("spine.py", "measures.py", "lukasiewicz.py")
        for where in _approximate_paths(ast.parse((root / name).read_text(), filename=name))
    ]
    assert not found, "approximate float paths in the identity modules: " + ", ".join(found)

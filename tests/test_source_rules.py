"""Rules on the package sources themselves."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import chronoforest

def _asserts(tree: ast.AST) -> list[int]:
    """Lines of the assert statements in ``tree``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_guards_results():
    # ``python -O`` strips assert statements, so every check in the package,
    # the literal oracles' bookkeeping included, must raise explicitly.
    for snippet, lines in [
        ("assert ok", [1]),
        ("def f(stack):\n    assert all(stack), 'open node'", [2]),
        ("if not ok:\n    raise AssertionError('open node')", []),
        ("x = 'assert ok'", []),
    ]:
        assert _asserts(ast.parse(snippet)) == lines, snippet
    root = Path(chronoforest.__file__).resolve().parent
    found = [
        f"{path.relative_to(root)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _asserts(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, "assert statements in the package: " + ", ".join(found)


def test_verify_does_not_depend_on_asserts():
    # what ``verify`` reports must not change under ``python -O``, which
    # strips assert statements
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


def _node_names(node: ast.AST) -> set:
    """What one node names: an identifier, attribute, definition, import
    alias or string constant."""
    return {
        getattr(node, "id", None),
        getattr(node, "attr", None),
        getattr(node, "name", None),
        getattr(node, "asname", None),
        getattr(node, "value", None) if isinstance(node, ast.Constant) else None,
    }


def _names(tree: ast.AST, name: str) -> list[int]:
    """Lines where ``tree`` names ``name``: as an identifier, attribute,
    definition, import alias or string constant."""
    return [getattr(node, "lineno", "?") for node in ast.walk(tree) if name in _node_names(node)]


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
    # ``PointMeasure._from_sorted`` and the atoms setter skip the sort and
    # the checks, and the slot setters skip ``Stick``'s; only ``measures``,
    # which checks the parts first, may name them.
    for name in ("_from_sorted", "_set_atoms", "_set_stick_v", "_set_stick_births"):
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


def test_a_spine_is_a_plain_tuple():
    # a spine is a tuple of measures and () the empty spine: no module
    # brings back the wrapper class or its empty constant (the names are
    # spelled in halves, so a text search finds only a reintroduction)
    for name in ("Spine" "Seq", "EMPTY" "_SPINE"):
        for snippet in [
            f"class {name}:\n    elements: tuple = ()",
            f"{name} = make_spine()",
            f"from .measures import {name}",
            f"from .measures import PointMeasure, {name} as S",
            f"y = measures.{name}",
        ]:
            assert _names(ast.parse(snippet), name) != [], snippet
        for snippet in ["y = ()", "from .spine import phi, spine_height", f"{name}s = 1"]:
            assert _names(ast.parse(snippet), name) == [], snippet
        found = _named_outside(name, set())
        assert not found, f"{name} named in: " + ", ".join(found)


def _per_stick_codec(tree: ast.AST) -> list[str]:
    """Where the stick JSON form leaves ``StickBatch``: ``to_json`` or
    ``from_json`` named in class ``Stick``, or ``to_sticks``, ``Stick`` or
    ``PointMeasure`` named in ``_cmd_build``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Stick":
            found += [f"Stick.{name}:{line}" for name in ("to_json", "from_json") for line in _names(node, name)]
        elif isinstance(node, ast.FunctionDef) and node.name == "_cmd_build":
            names = ("to_sticks", "Stick", "PointMeasure")
            found += [f"_cmd_build.{name}:{line}" for name in names for line in _names(node, name)]
    return found


def test_stick_files_are_read_and_written_as_batches():
    # a stick file is one ``StickBatch`` from file to forest: ``Stick`` has
    # no JSON form of its own, and ``build`` makes no per-stick objects
    for snippet, expected in [
        ("class Stick:\n    def to_json(self): pass", ["Stick.to_json:2"]),
        ("class Stick:\n    @classmethod\n    def from_json(cls, obj): pass", ["Stick.from_json:3"]),
        ("class Stick:\n    to_json = _stick_json", ["Stick.to_json:2"]),
        ("class StickBatch:\n    def to_json(self): pass\n    def from_json(cls, d): pass", []),
        ("def _cmd_build(args):\n    w(sticks_to_json(forest.batch.to_sticks()))", ["_cmd_build.to_sticks:2"]),
        ("def _cmd_build(args):\n    from .measures import Stick", ["_cmd_build.Stick:2"]),
        ("def _cmd_build(args):\n    m = measures.PointMeasure(a)", ["_cmd_build.PointMeasure:2"]),
        ("def _cmd_build(args):\n    f = build_forest(StickBatch.from_json(d))", []),
        ("def _cmd_verify(args):\n    sticks = batch.to_sticks()", []),
    ]:
        assert _per_stick_codec(ast.parse(snippet)) == expected, snippet
    root = Path(chronoforest.__file__).resolve().parent
    tree = ast.parse((root / "cli.py").read_text(), filename="cli.py")
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_cmd_build" for node in ast.walk(tree))
    found = [
        f"{path.relative_to(root)}:{where}"
        for path in sorted(root.rglob("*.py"))
        for where in _per_stick_codec(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, "per-stick JSON or objects in the stick file path: " + ", ".join(found)


def _sort_outside_arrange(tree: ast.AST) -> list[int]:
    """Lines that name ``_sort_ages_desc`` other than its module-level
    definition and the calls made in the body of an ``arrange`` method."""
    allowed = {
        id(node.func)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "arrange"
        for node in ast.walk(method)
        if isinstance(node, ast.Call)
    }
    allowed |= {id(node) for node in getattr(tree, "body", []) if isinstance(node, ast.FunctionDef)}
    return [
        getattr(node, "lineno", "?")
        for node in ast.walk(tree)
        if id(node) not in allowed and "_sort_ages_desc" in _node_names(node)
    ]


def test_ages_are_sorted_only_by_the_age_parts_arrange():
    # ``StickLaw.draw`` returns ages in draw order and ``StickLaw.layout``
    # arranges them, so the sort has one caller: the age part's ``arrange``
    for snippet, expected in [
        ("def _sort_ages_desc(ages, counts): pass", []),
        ("class U:\n    def arrange(self, a, c):\n        return _sort_ages_desc(a, c)", []),
        ("class U:\n    def sample(self, a, c):\n        return _sort_ages_desc(a, c)", [3]),
        ("def arrange(a, c):\n    return _sort_ages_desc(a, c)", [2]),
        ("class U:\n    arrange = staticmethod(_sort_ages_desc)", [2]),
        ("ages = laws._sort_ages_desc(ages, counts)", [1]),
        ("from .laws import _sort_ages_desc", [1]),
    ]:
        assert _sort_outside_arrange(ast.parse(snippet)) == expected, snippet
    path = Path(chronoforest.__file__).resolve().parent / "stochastic" / "laws.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _names(tree, "_sort_ages_desc")
    found = [f"stochastic/laws.py:{line}" for line in _sort_outside_arrange(tree)]
    found += _named_outside("_sort_ages_desc", {"stochastic/laws.py"})
    assert not found, "_sort_ages_desc named outside an age part's arrange: " + ", ".join(found)


def test_coupling_stream_draws_without_laying_out():
    # the coupling stream keeps each block's ``draw`` and lays a block out
    # only when it reads one of its marks; ``sample_batch`` would lay out
    # every block
    path = Path(chronoforest.__file__).resolve().parent / "stochastic" / "coupling.py"
    found = _names(ast.parse(path.read_text(), filename=str(path)), "sample_batch")
    assert not found, "stochastic/coupling.py names sample_batch at lines " + ", ".join(map(str, found))


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


def test_only_the_laws_make_oracle_objects_in_stochastic():
    # the samplers, the coupling and the experiments run on arrays; in
    # ``stochastic/`` only ``laws.py`` makes a Stick or a PointMeasure (the
    # ``FixedAges`` check)
    for name in ("Stick", "PointMeasure"):
        for snippet in [
            f"from ..measures import StickBatch, {name}",
            f"x = measures.{name}(ages)",
            f"measure: {name}",
            f"def f(law) -> {name}: pass",
        ]:
            assert _names(ast.parse(snippet), name) == [1], snippet
        for snippet in ["from ..measures import StickBatch", "sticks = batch.to_sticks()", f"{name}s = 1"]:
            assert _names(ast.parse(snippet), name) == [], snippet
    root = Path(chronoforest.__file__).resolve().parent / "stochastic"
    found = [
        f"{path.name}:{line}"
        for path in sorted(root.glob("*.py"))
        if path.name != "laws.py"
        for name in ("Stick", "PointMeasure")
        for line in _names(ast.parse(path.read_text(), filename=str(path)), name)
    ]
    assert not found, "stochastic modules other than laws.py name the oracle types: " + ", ".join(found)


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


def _seed_sequences_outside_replicate(tree: ast.AST) -> list[int]:
    """Lines that name ``SeedSequence`` outside the module-level function
    ``simulate_replicate``."""
    inside = {
        id(node)
        for fn in getattr(tree, "body", [])
        if isinstance(fn, ast.FunctionDef) and fn.name == "simulate_replicate"
        for node in ast.walk(fn)
    }
    return [
        getattr(node, "lineno", "?")
        for node in ast.walk(tree)
        if id(node) not in inside and "SeedSequence" in _node_names(node)
    ]


def _dict_fields(tree: ast.AST, cls_name: str) -> list[str]:
    """Fields of class ``cls_name`` whose annotation names ``dict`` or
    ``Dict``, also inside a string annotation."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == cls_name):
            continue
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            ann = stmt.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                ann = ast.parse(ann.value, mode="eval")
            if {"dict", "Dict"} & set().union(*map(_node_names, ast.walk(ann))):
                found.append(f"{cls_name}.{stmt.target.id}:{stmt.lineno}")
    return found


def test_a_scaling_replicate_is_one_call():
    # ``simulate_replicate`` keys its own generator by (p index, replicate),
    # and the per-replicate values travel as one structured array, not as a
    # dict keyed by (p index, replicate)
    for snippet, expected in [
        ("def simulate_replicate(law, config, p_idx, rep):\n    s = np.random.SeedSequence(config.seed)", []),
        ("def _run_task(args):\n    seq = np.random.SeedSequence(seed, spawn_key=key)", [2]),
        ("rng = np.random.default_rng(np.random.SeedSequence(seed))", [1]),
        ("from numpy.random import SeedSequence as Seeds", [1]),
        ("def run():\n    def simulate_replicate():\n        return SeedSequence(0)", [3]),
        ("def simulate_replicate(law, config, p_idx, rep):\n    rng = np.random.default_rng(seed)", []),
    ]:
        assert _seed_sequences_outside_replicate(ast.parse(snippet)) == expected, snippet
    for snippet, expected in [
        ("class ExperimentResult:\n    extras: dict[tuple[int, int], dict]", ["ExperimentResult.extras:2"]),
        ("class ExperimentResult:\n    extras: typing.Dict[int, float]", ["ExperimentResult.extras:2"]),
        ("class ExperimentResult:\n    extras: 'dict[int, float]'", ["ExperimentResult.extras:2"]),
        ("class ExperimentResult:\n    extras: Optional[dict] = None", ["ExperimentResult.extras:2"]),
        ("class ExperimentResult:\n    rows: np.ndarray\n    def summary(self) -> dict: pass", []),
        ("class ExperimentConfig:\n    options: dict", []),
    ]:
        assert _dict_fields(ast.parse(snippet), "ExperimentResult") == expected, snippet
    path = Path(chronoforest.__file__).resolve().parent / "stochastic" / "experiments.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _names(tree, "SeedSequence") and _names(tree, "ExperimentResult")
    found = [f"SeedSequence:{line}" for line in _seed_sequences_outside_replicate(tree)]
    found += _dict_fields(tree, "ExperimentResult")
    assert not found, "stochastic/experiments.py: " + ", ".join(found)


def _optional_sizes(tree: ast.AST) -> list[str]:
    """Where a module gives a draw a second, scalar form: a parameter named
    ``size`` with a default, or a comparison of ``size`` with ``None``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if any(arg.arg == "size" for arg in defaulted):
                found.append(f"{node.lineno}: {node.name} has a default size")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(getattr(x, "id", None) == "size" for x in operands) and any(
                isinstance(x, ast.Constant) and x.value is None for x in operands
            ):
                found.append(f"{node.lineno}: compares size with None")
    return found


def test_a_draw_has_a_size():
    # every draw of the stochastic package takes the shape it returns: one
    # array form per draw, not a scalar form whose type varies with the law
    for snippet, expected in [
        ("def sample(self, rng, size=None): pass", ["1: sample has a default size"]),
        ("def sample(self, rng, *, size=1): pass", ["1: sample has a default size"]),
        ("def draw(rng, n, size=(2, 3), k=0): pass", ["1: draw has a default size"]),
        ("u = rng.random(size if size is not None else 1)", ["1: compares size with None"]),
        ("if None == size:\n    size = ()", ["1: compares size with None"]),
        ("def sample(self, rng, size):\n    return rng.random(size)", []),
        ("def stats(law, rng, n, step_cap=1_000_000): pass", []),
        ("def given(self, rng, counts, size): pass", []),
        ("if shape is None:\n    shape = ()", []),
    ]:
        assert _optional_sizes(ast.parse(snippet)) == expected, snippet
    root = Path(chronoforest.__file__).resolve().parent / "stochastic"
    found = [
        f"stochastic/{path.name}:{where}"
        for path in sorted(root.glob("*.py"))
        for where in _optional_sizes(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, "draws with a scalar form: " + ", ".join(found)


# public names that no module calls, each kept for a reason of its own
UNCALLED_ALLOWED = {
    "max_rise_in_window": "acceptance criterion 7 and the benchmark's families-window workload",
    "ladder_trio_pmf": "acceptance criterion 2's exact law",
}


def _uncalled_public_names(trees: dict[str, ast.AST]) -> list[str]:
    """Public top-level functions and classes, and public methods of
    top-level classes, that no module names in its code outside their own
    definition; imports and ``__all__`` do not count as naming."""

    def named(tree: ast.AST) -> Counter:
        out = Counter()
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                continue
            out.update(filter(None, (getattr(node, "id", None), getattr(node, "attr", None))))
            stack.extend(ast.iter_child_nodes(node))
        return out

    everywhere = sum(map(named, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)] if not node.name.startswith("_") else []
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{stmt.name}", stmt)
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
                ]
            for qualname, definition in defs:
                if everywhere[definition.name] == named(definition)[definition.name]:
                    found.append(f"{module}:{qualname}")
    return found


def test_every_public_name_has_a_caller():
    # a public function, class or method that no module calls is code
    # without a caller: it goes, or it names its reason in UNCALLED_ALLOWED
    for sources, expected in [
        ({"a.py": "def f(): pass"}, ["a.py:f"]),
        ({"a.py": "def f(): pass\n\ndef g():\n    return f()"}, ["a.py:g"]),
        ({"a.py": "def f(n):\n    return f(n - 1)"}, ["a.py:f"]),
        ({"a.py": "__all__ = ['f']\n\ndef f(): pass", "b.py": "from .a import f"}, ["a.py:f"]),
        ({"a.py": "def f(): pass", "b.py": "from .a import f\n\nx = f()"}, []),
        ({"a.py": "class C:\n    def m(self): pass\n    def n(self): pass\n\nx = C().m()"}, ["a.py:C.n"]),
        ({"a.py": "class _C:\n    def __len__(self): return 0\n    def _m(self): pass\n\ndef _f(): pass"}, []),
        ({"a.py": "def f(): pass", "b.py": "def g():\n    def f(): pass"}, ["a.py:f", "b.py:g"]),
    ]:
        trees = {name: ast.parse(text) for name, text in sources.items()}
        assert _uncalled_public_names(trees) == expected, sources
    root = Path(chronoforest.__file__).resolve().parent
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(root.rglob("*.py"))
    }
    uncalled = {where.split(":")[1]: where for where in _uncalled_public_names(trees)}
    found = [where for name, where in uncalled.items() if name not in UNCALLED_ALLOWED]
    assert not found, "public names without a caller: " + ", ".join(found)
    stale = sorted(set(UNCALLED_ALLOWED) - set(uncalled))
    assert not stale, "allowed as uncalled, but called: " + ", ".join(stale)


def _tiny_float_literals(tree: ast.AST) -> list[int]:
    """Lines of the nonzero float literals below 1e-6 in magnitude.  Docstrings
    are string constants and comments are not in the tree, so neither counts."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0.0 < abs(node.value) < 1e-6
    ]


def test_no_guessed_tolerances():
    # a validity check compares exactly, or within a bound derived from its
    # inputs such as len(p) * eps; a tiny constant is a tolerance nobody measured
    for snippet, expected in [
        ("ok = mean <= 1.0 + 1e-12", [1]),
        ("ok = abs(d) <= 1e-9 * max(v, 1.0)", [1]),
        ("if x < -5e-7:\n    raise ValueError(x)", [1]),
        ("tol = 1e-9 + 8.0 * eps\nok = d >= -tol", [1]),
        ('def f():\n    """Agrees to 1e-12."""\n    return 0.0  # not 1e-9', []),
        ("ok = p.sum() <= 1 + len(p) * np.finfo(float).eps", []),
        ("x, y, z = 1e-6, 0.5, 0", []),
    ]:
        assert _tiny_float_literals(ast.parse(snippet)) == expected, snippet
    root = Path(chronoforest.__file__).resolve().parent
    found = [
        f"{path.relative_to(root).as_posix()}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _tiny_float_literals(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, "guessed tolerances (float literals below 1e-6): " + ", ".join(found)


def test_only_the_helper_module_starts_threads():
    # ``_parallel.both`` joins its one helper thread before it returns, so
    # no thread is alive when ``build`` forks its contour writer or
    # ``scale --workers`` its pool; a thread started anywhere else could be
    # alive at a fork
    found = [
        where
        for package in ("threading", "_thread", "concurrent.futures")
        for where in _imported_in_package(package)
    ]
    assert found and all(where.startswith("_parallel.py:") for where in found), ", ".join(found)


def _repeats(tree: ast.AST) -> list[int]:
    """Lines that name ``repeat``: ``np.repeat``, ``a.repeat`` or a bare name."""
    return [getattr(node, "lineno", "?") for node in ast.walk(tree) if "repeat" in _node_names(node)]


def test_no_repeat_in_the_kernel_or_the_age_sort():
    # ``np.repeat`` holds the GIL, so on the helper thread it would stall
    # the caller's numpy work (two threads of it took twice the time of
    # one); the kernel and the age sort spread per-stick values over atoms
    # with a stick index (``cumsum`` over the stick starts) and a gather
    for snippet, expected in [
        ("x = np.repeat(a, c)", [1]),
        ("x = a.repeat(3)", [1]),
        ("from itertools import repeat", [1]),
        ("x = np.cumsum(np.bincount(s))[i]", []),
    ]:
        assert _repeats(ast.parse(snippet)) == expected, snippet
    root = Path(chronoforest.__file__).resolve().parent
    forest = ast.parse((root / "forest.py").read_text())
    laws = ast.parse((root / "stochastic" / "laws.py").read_text())
    defs = {node.name: node for node in laws.body if isinstance(node, ast.FunctionDef)}
    sort = defs["_sort_ages_desc"]
    # the sort and the module functions it calls
    called = {node.id for node in ast.walk(sort) if isinstance(node, ast.Name)}
    parts = [sort] + [defs[name] for name in sorted(called & set(defs) - {sort.name})]
    assert [p.name for p in parts] == ["_sort_ages_desc"]
    found = [f"forest.py:{line}" for line in _repeats(forest)]
    found += [f"stochastic/laws.py:{line}" for part in parts for line in _repeats(part)]
    assert not found, "repeat in the kernel or the age sort: " + ", ".join(map(str, found))

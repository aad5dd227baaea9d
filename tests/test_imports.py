"""Source hygiene: every name a rimflow module imports is used in that module,
only cli reads or writes files or compares grids with a tolerance, only newton
reads meaning into a Newton failure's name, evolve does not depend on bounds,
the time-stepping hot path reduces arrays with their methods, only grid sums
a quadrature, every module global the perfbench tracer wraps still exists,
and every public function, method and property has a caller in rimflow or
outside it."""
import ast
import importlib
from pathlib import Path

import pytest

import rimflow

SOURCES = sorted(Path(rimflow.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import anywhere in tree (function bodies included) and never read."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_module_and_function_level_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom m import a, b as c\n"
        "def f():\n    from n import d as e\n    return os, a\n"
    )
    assert unused_imports(tree) == ["c", "e", "sys"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


FILE_CALLS = {"open", "loadtxt"}


def file_access(tree: ast.Module) -> list:
    """The json imports and the open/loadtxt calls (plain or as attributes) in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
            found.append(node.module)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in FILE_CALLS:
                found.append(name)
    return sorted(found)


def rimflow_imports(tree: ast.Module) -> set:
    """Every module name tree imports, relative imports resolved inside rimflow."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("rimflow" if node.level else "", node.module)))
            names.add(module)
            names.update(f"{module}.{a.name}" for a in node.names)
    return names


def test_finds_json_imports_file_calls_and_relative_modules():
    tree = ast.parse(
        "import json\nfrom json import dumps\nfrom . import bounds\nfrom .grid import Grid\n"
        "def f(p):\n    open(p).close()\n    return np.loadtxt(p), p.open()\n"
    )
    assert file_access(tree) == ["json", "json", "loadtxt", "open", "open"]
    assert {"rimflow.bounds", "rimflow.grid"} <= rimflow_imports(tree)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_only_cli_reads_or_writes_files(path):
    # The output tree's format lives in one module; the solver layers return values.
    assert file_access(ast.parse(path.read_text())) == []


def is_failure(node: ast.expr) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "failure"


def is_strings(node: ast.expr) -> bool:
    """A string literal, or a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(is_strings, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def failure_string_compares(tree: ast.Module) -> list:
    """Lines comparing a failure name or attribute with strings by ==, !=, in or not in."""
    ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for op, a, b in zip(node.ops, [node.left, *node.comparators], node.comparators):
                if isinstance(op, ops) and (is_failure(a) and is_strings(b)
                                            or is_strings(a) and is_failure(b)):
                    lines.append(node.lineno)
    return sorted(lines)


def test_finds_failure_string_compares():
    tree = ast.parse(
        "a = stats.failure == 'budget'\nb = failure not in (None, 'budget', 'stalled')\n"
        "c = 'singular' != s.failure\nd = s.failure is None\ne = s.reason == 'budget'\n"
        "f = s.failure in kinds\n"
    )
    assert failure_string_compares(tree) == [1, 2, 3]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "newton.py"], ids=lambda p: p.name)
def test_only_newton_interprets_failures(path):
    # NewtonStats.diverged and .message say what a failure means; callers read those.
    assert failure_string_compares(ast.parse(path.read_text())) == []


def test_evolve_does_not_import_bounds():
    evolve = next(p for p in SOURCES if p.name == "evolve.py")
    assert "rimflow.bounds" not in rimflow_imports(ast.parse(evolve.read_text()))


REDUCTIONS = {"sum", "max", "min", "all", "any"}


def function_form_reductions(tree: ast.Module) -> list:
    """Lines calling np.sum, np.max, np.min, np.all or np.any (numpy imported as np)."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and getattr(node.func.value, "id", None) == "np" and node.func.attr in REDUCTIONS)


def test_finds_function_form_reductions():
    tree = ast.parse(
        "a = np.sum(x)\nb = float(np.max(np.abs(r)))\nc = x.sum() + np.abs(r).max()\n"
        "d = np.all(np.isfinite(x)) or np.any(x <= 0.0)\ne = np.min(u)\nf = np.maximum(a, b)\n"
    )
    assert function_form_reductions(tree) == [1, 2, 4, 4, 5]


@pytest.mark.parametrize("name", ["evolve.py", "newton.py", "grid.py", "model.py"])
def test_hot_path_reduces_with_array_methods(name):
    # np.sum(x) and x.sum() run the same ufunc reduce, but the function form
    # first passes through numpy's Python-level dispatch, a fixed cost paid
    # about 14 times per evolve step.
    path = next(p for p in SOURCES if p.name == name)
    assert function_form_reductions(ast.parse(path.read_text())) == []


def sum_sites(node: ast.AST, scope: str = "") -> list:
    """The innermost enclosing function of each x.sum( or np.sum( call under node ("" at module level)."""
    sites = []
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "sum":
            sites.append(scope)
        sites += sum_sites(child, inner)
    return sorted(sites)


def test_finds_sum_sites():
    tree = ast.parse(
        "a = np.sum(x)\ndef f(v):\n    return v.sum(axis=-1) + sum(v)\n"
        "class C:\n    def g(self):\n        def h(u):\n            return np.abs(u).sum()\n"
        "        return h, np.add.reduce(self.x)\n"
    )
    assert sum_sites(tree) == ["", "f", "h"]


# The mass projection of evolve's Newton direction is a mean, not a quadrature.
SUMS_OUTSIDE_GRID = {"evolve.py": ["direction"]}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "grid.py"], ids=lambda p: p.name)
def test_only_grid_sums_a_quadrature(path):
    # dx * sum(v) is grid.integrate's rule; every functional calls integrate
    # or gradient_sq instead of summing samples itself.
    assert sum_sites(ast.parse(path.read_text())) == SUMS_OUTSIDE_GRID.get(path.name, [])


ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# Named by the tracer, gone from rimflow: diff_matrix since the banded solver
# replaced it, moffatt_roots since the cubic branch is solved in Viete's form.
DEAD_BINDINGS = {("rimflow.steady", "diff_matrix"), ("rimflow.steady", "moffatt_roots")}


def tracer_bindings() -> tuple:
    """(module, attr, span) triples of the tracer's BINDINGS table."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BINDINGS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BINDINGS table in {TRACER}")


def test_tracer_bindings_resolve():
    # A refactor that renames or moves a traced global would silently drop its span.
    absent = {(module, attr) for module, attr, _ in tracer_bindings()
              if not hasattr(importlib.import_module(module), attr)}
    assert absent == DEAD_BINDINGS


def unreferenced_functions(trees: dict) -> list:
    """(module, name) of each public module-level function no code in trees reads.

    trees maps module names to parsed sources; a read anywhere, as a bare
    name or as an attribute, counts, except the function's own def.
    """
    read = {getattr(node, "id", getattr(node, "attr", None)) for tree in trees.values()
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted((module, node.name) for module, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in read)


def unreferenced_methods(trees: dict, readers: list) -> list:
    """(module, "Class.name") of each public method or property of a
    module-level class in trees that no tree in readers reads as an attribute.
    """
    read = {node.attr for tree in readers for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted((module, f"{cls.name}.{node.name}") for module, tree in trees.items()
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, ast.FunctionDef)
                  and not node.name.startswith("_") and node.name not in read)


def cli_reads(tree: ast.Module) -> set:
    """The attributes tree reads as rimflow.cli.<name>."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "rimflow.cli"}


def test_finds_unreferenced_functions():
    trees = {
        "a": ast.parse("def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\n"
                       "def _p():\n    pass\nclass C:\n    def m(self):\n        pass\n"),
        "b": ast.parse("import a\ndef k():\n    return a.h\n"),
    }
    assert unreferenced_functions(trees) == [("a", "f"), ("b", "k")]
    tree = ast.parse("rimflow.cli.main([])\nx = rimflow.cli.parse_config\ny = cli.write_csv\n")
    assert cli_reads(tree) == {"main", "parse_config"}


def test_finds_unreferenced_methods():
    trees = {"a": ast.parse("class C:\n    def m(self):\n        return self.k()\n"
                            "    def k(self):\n        pass\n    @property\n    def p(self):\n"
                            "        pass\n    def _q(self):\n        pass\n")}
    reader = ast.parse("x = obj.p\n")
    assert unreferenced_methods(trees, [*trees.values()]) == [("a", "C.m"), ("a", "C.p")]
    assert unreferenced_methods(trees, [*trees.values(), reader]) == [("a", "C.m")]


def outside_callers() -> set:
    """(module, name) of what code outside src reaches: the tracer's bindings,
    perfbench's rimflow.cli.<name> reads, and the [project.scripts] targets."""
    tomllib = pytest.importorskip("tomllib")
    reached = {(module, attr) for module, attr, _ in tracer_bindings()}
    for path in (ROOT / "perfbench").glob("*.py"):
        reached.update(("rimflow.cli", name) for name in cli_reads(ast.parse(path.read_text())))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    reached.update(tuple(target.split(":")) for target in scripts.values())
    return reached


def test_every_public_function_has_a_caller():
    # The public API is no wider than the runs: a function, method or
    # property that neither rimflow nor perfbench nor the console script
    # reaches goes, or moves to the tests that use it (tests/oracles.py).
    # perfbench reaches methods and properties by attribute, as the tracer
    # reads EvolveState.newton_iters_last.
    trees = {f"rimflow.{p.stem}": ast.parse(p.read_text()) for p in SOURCES}
    assert sorted(set(unreferenced_functions(trees)) - outside_callers()) == []
    perfbench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_methods(trees, [*trees.values(), *perfbench]) == []

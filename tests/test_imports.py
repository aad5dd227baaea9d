"""Source hygiene: every name a rimflow module imports is used in that module,
and every module global the perfbench tracer wraps still exists."""
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


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# Named by the tracer, gone from rimflow since the banded solver replaced it.
DEAD_BINDINGS = {("rimflow.steady", "diff_matrix")}


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

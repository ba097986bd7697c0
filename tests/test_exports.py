"""Every exported name exists, and every function the benchmark traces resolves.

``perfbench/tracer.py`` wraps kappalab functions by (module, name); a deletion
that drops one of them would only show when the benchmark runs traced. These
tests catch it, and a stale ``__all__`` entry or package re-export, in tier 1.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import kappalab
import kappalab.cli  # noqa: F401  (the tracer wraps cli.main)

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("perms", "graphs", "connectivity", "kappa", "lemmas")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    return importlib.import_module("tracer")


def test_trace_targets_are_callables(tracer):
    for mod_name in tracer.MODULES:
        assert hasattr(kappalab, mod_name), mod_name
    for mod_name, fn_name in tracer.TARGETS:
        fn = getattr(getattr(kappalab, mod_name), fn_name, None)
        assert callable(fn), f"{mod_name}.{fn_name}"


@pytest.mark.parametrize("mod_name", MODULES)
def test_all_names_exist(mod_name):
    module = importlib.import_module(f"kappalab.{mod_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_exist():
    tree = ast.parse((ROOT / "src" / "kappalab" / "__init__.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for mod_name, name in imported:
        module = importlib.import_module(f"kappalab.{mod_name}")
        assert name in module.__all__, f"{mod_name}.{name}"
        assert getattr(kappalab, name) is getattr(module, name)

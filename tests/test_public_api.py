"""The package surface that the benchmark under `bench/` relies on.

`bench/` calls the library through `betalike.<name>`, imports a few names
from its modules, and patches the functions listed in `bench/tracing.TRACED`
by module path. Its own tests do not run with the package's suite, so these
checks keep a removal from the library from breaking the benchmark unseen.
The bench sources are only parsed, never imported or run.
"""
from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

import betalike as bl

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(BENCH.glob("*.py"))}


def _traced() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of `TRACED` in bench/tracing.py;
    a class attribute is written "Class.method"."""
    for node in _bench_trees()["tracing.py"].body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise AssertionError("bench/tracing.py defines no TRACED")


def _resolves(module: str, attr: str) -> bool:
    try:
        functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    except AttributeError:
        return False
    return True


def _importable(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute, or a
    submodule not loaded yet (`from betalike import cli`)."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_exported_name_resolves():
    assert [name for name in bl.__all__ if not hasattr(bl, name)] == []


def test_every_traced_function_exists():
    traced = _traced()
    assert ("betalike.queries", "exact_count") in traced
    assert [entry for entry in traced if not _resolves(*entry)] == []


def test_every_package_name_the_bench_uses_exists():
    used = {(file, node.attr) for file, tree in _bench_trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "bl"}
    assert {"estimate_perturbed", "generalize"} <= {name for _, name in used}
    assert sorted(f"bench/{file}: bl.{name}" for file, name in used if not hasattr(bl, name)) == []


def test_every_name_the_bench_imports_exists():
    imported = {(node.module, alias.name) for tree in _bench_trees().values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("betalike")
                for alias in node.names}
    assert ("betalike", "cli") in imported
    assert sorted(entry for entry in imported if not _importable(*entry)) == []

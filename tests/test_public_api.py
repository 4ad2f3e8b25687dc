"""The package surface that the benchmark under `bench/` relies on, and no
more than its callers use.

`bench/` calls the library through `betalike.<name>`, imports a few names
from its modules, and patches the functions listed in `bench/tracing.TRACED`
by module path. Its own tests do not run with the package's suite, so these
checks keep a removal from the library from breaking the benchmark unseen.
In the other direction, every exported name must have a caller in the
library, the demos or the benchmark, so no name is kept for tests alone.
The bench and demo sources are only parsed, never imported or run.
"""
from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

import betalike as bl

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# The paper's basic beta-likeness, kept as part of the source model though
# nothing calls it; ROADMAP item 5 asks the user whether it goes.
UNCALLED = {"check_basic"}


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


def _uses(tree: ast.AST) -> set[str]:
    """The names a module uses, as a name, an attribute or a string (as
    `TRACED` names the patched functions), outside the body of the function
    or class that defines them."""
    used = set()

    def visit(node: ast.AST, defining: frozenset[str]) -> None:
        name = None
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining |= {node.name}
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in defining:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return used


def test_every_exported_name_has_a_caller():
    callers = [path for folder in (ROOT / "src" / "betalike", ROOT / "demos", BENCH)
               for path in sorted(folder.glob("*.py")) if path != ROOT / "src" / "betalike" / "__init__.py"]
    used = set().union(*(_uses(ast.parse(path.read_text(encoding="utf-8"))) for path in callers))
    assert "generalize" in used and "estimate_perturbed" in used
    assert sorted(set(bl.__all__) - used - UNCALLED) == []

"""Every top-level import in the package and the tests is used: a name bound
by an import must be read in the module's code or listed in its `__all__`.
Every private top-level name of the package is read by the package's own
code, so no private hook serves the tests alone.  No linter runs in CI, so
these scans stand in for its unused-name rules.  The package re-exports
exactly its library modules' `__all__`, and the README's library example
runs against it."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import derivsamp

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = sorted((_ROOT / "src" / "derivsamp").glob("*.py"))
_FILES = sorted([*_PACKAGE, *(_ROOT / "tests").glob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, and the names listed in its __all__ (the
    strings of a literal list; a computed one reads names, found above)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return used


@pytest.mark.parametrize("path", _FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


def _private_defs(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions, classes and assigned names that start with one
    underscore, with the statement that defines each."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defs |= {name: node for name in names if name[:1] == "_" and name[:2] != "__"}
    return defs


def _reads(node: ast.AST) -> set[str]:
    """Names read in node, as a bare name or as a module attribute."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def test_no_private_name_only_tests_read():
    # a read inside the name's own definition (a recursive call) does not count
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in _PACKAGE}
    reads = [(stmt, _reads(stmt)) for tree in trees.values() for stmt in tree.body]
    unread = []
    for name, tree in trees.items():
        for private, node in _private_defs(tree).items():
            if not any(private in names for stmt, names in reads if stmt is not node):
                unread.append(f"{name}: {private} (line {node.lineno})")
    assert not unread, f"private names no package code reads: {unread}"


def test_package_exports_every_module_name():
    # every module of the package but the CLI and the package itself
    names = sorted(p.stem for p in (_ROOT / "src" / "derivsamp").glob("*.py"))
    modules = [importlib.import_module(f"derivsamp.{n}") for n in names if n not in ("__init__", "cli")]
    expected = [name for module in modules for name in module.__all__]
    assert len(set(expected)) == len(expected)
    assert sorted(derivsamp.__all__) == sorted(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(derivsamp, name) is getattr(module, name)


def test_readme_library_example_runs():
    # a renamed export or a changed signature breaks the documented example
    readme = (_ROOT / "README.md").read_text()
    example = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", example], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.split()) == 2  # the two printed errors

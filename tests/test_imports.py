"""Every top-level import in the package and the tests is used: a name bound
by an import must be read in the module's code or listed in its `__all__`.
No linter runs in CI, so this scan stands in for its unused-import rule.
The package re-exports exactly its library modules' `__all__`, and the
README's library example runs against it."""

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
_FILES = sorted([*(_ROOT / "src" / "derivsamp").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


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

"""Packaging and import hygiene.

Every console script declared in pyproject.toml must resolve to a
callable, or the installed command fails on import.  Every name a
package module imports must be used there, so a helper that lost its
last caller does not linger behind an import.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "ovalab"


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11 on
    meta = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in meta.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        fn = importlib.import_module(module)
        for part in attr.split("."):
            fn = getattr(fn, part)
        assert callable(fn), f"{name} = {target!r} is not callable"


def _unused_imports(path):
    """Names bound by an import in the module at path and never read,
    except names in its __all__ and names whose import statement or own
    line carries `# noqa: F401`."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            marked = (lines[node.lineno - 1], lines[alias.lineno - 1])
            if any("# noqa: F401" in line for line in marked):
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_imports():
    unused = [u for path in sorted(PACKAGE.glob("*.py")) for u in _unused_imports(path)]
    assert not unused, unused

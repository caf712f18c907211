"""Packaging and import hygiene.

Every console script declared in pyproject.toml must resolve to a
callable, or the installed command fails on import.  Every name a
package module imports must be used there, so a helper that lost its
last caller does not linger behind an import; every public name must be
used somewhere, so a function nothing calls does not linger at all.
The typed errors carry the exit codes errors.py documents.
"""

import ast
import importlib
import pathlib

import pytest

from ovalab import errors

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


def test_error_exit_codes():
    codes = {
        errors.OvalabError: 1,
        errors.ParameterError: 2,
        errors.ShapeError: 2,
        errors.DomainError: 2,
        errors.CoverageError: 3,
        errors.BudgetError: 3,
        errors.DegeneracyError: 4,
        errors.AccuracyError: 4,
        errors.StepSizeError: 4,
    }
    for cls, code in codes.items():
        assert cls.exit_code == code, cls.__name__


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


def _references(path):
    """(name, line) of every read of a name or attribute, keyword
    argument and identifier-like string constant in the module at path."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            refs.append((node.arg, node.value.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.append((node.value, node.lineno))
    return refs


def _class_members(cls):
    """Public methods, class-level fields and self attributes of cls as
    (name, line, first, last): the line that defines the member and the
    span whose own references do not count.  For methods and fields that
    span is the defining statement; for a self attribute it is the whole
    class body, so an attribute that only its own class reads (setflags
    in __init__ included) counts as unused."""
    members = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.append((node.name, node))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.append((node.target.id, node))
        elif isinstance(node, ast.Assign):
            members += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
    members = [(name, node.lineno, node.lineno, node.end_lineno)
               for name, node in members]
    for fn in cls.body:
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    members += [(t.attr, node.lineno, cls.lineno, cls.end_lineno)
                                for t in node.targets
                                if isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name) and t.value.id == "self"]
    return [m for m in members if not m[0].startswith("_")]


def test_no_dead_public_names():
    """Every public module-level function or class of the package, and
    every public member of those classes, is referenced somewhere: in
    the package outside its own definition, in tests/ or in perfbench/.
    The match is by name, so it catches names nothing mentions at all."""
    files = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    refs = {path: _references(path) for path in files}

    def referenced(name, path, first, last):
        return any(n == name and not (p == path and first <= line <= last)
                   for p, rs in refs.items() for n, line in rs)

    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            if not referenced(node.name, path, node.lineno, node.end_lineno):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{path.name}:{line} {node.name}.{name}"
                         for name, line, first, last in _class_members(node)
                         if not referenced(name, path, first, last)]
    assert not dead, dead


def test_pole_row_has_one_owner():
    """Only grid.py reads pole_jet; every other module takes the pole
    row through frame_jet, so the pole case is written once."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        if "pole_jet" in imported or any(n == "pole_jet" for n, _ in _references(path)):
            readers.append(path.name)
    assert readers == ["grid.py"]

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


def test_angular_transforms_have_one_owner():
    """Only grid.py reaches an FFT (np.fft, or an import of a module or
    name called fft); every other module takes angular derivatives and
    filters from grid's cached ring matrices."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for name in [getattr(node, "module", None) or "",
                                 *(alias.name for alias in node.names)]}
        if any("fft" in name.split(".") for name in imported) or any(
                isinstance(node, ast.Attribute) and node.attr == "fft"
                for node in ast.walk(tree)):
            readers.append(path.name)
    assert readers == ["grid.py"]


def _radial_differences(path):
    """Lines of the module at path that take a radial difference of
    their own: an expression holding X[2:] and X[:-2] of one array X (a
    centred difference), or an np.diff of a node array (.y or v_nodes)."""
    def first_slice(node):
        index = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
        if not isinstance(index, ast.Slice) or index.step is not None:
            return None
        bounds = tuple(None if b is None else ast.unparse(b)
                       for b in (index.lower, index.upper))
        return {("2", None): "2:", (None, "-2"): ":-2"}.get(bounds)

    def terms(node):
        if isinstance(node, ast.BinOp):
            return terms(node.left) + terms(node.right)
        if isinstance(node, ast.UnaryOp):
            return terms(node.operand)
        return [node]

    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.BinOp):
            cuts = {}
            for t in terms(node):
                kind = first_slice(t) if isinstance(t, ast.Subscript) else None
                if kind:
                    cuts.setdefault(ast.unparse(t.value), set()).add(kind)
            if any(kinds == {"2:", ":-2"} for kinds in cuts.values()):
                found.append(f"{path.name}:{node.lineno} centred difference")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "np.diff" \
                and node.args:
            arg = node.args[0]
            name = arg.attr if isinstance(arg, ast.Attribute) else getattr(arg, "id", None)
            if name in ("y", "v_nodes"):
                found.append(f"{path.name}:{node.lineno} np.diff of nodes")
    return sorted(set(found))


def test_radial_stencil_has_one_owner():
    """Only grid.py differences along the radial nodes; every other
    module takes radial derivatives from grid.radial_stencil and the
    node spacing from the grid, so the stencil is written once."""
    found = {path.name: _radial_differences(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"grid.py"}, found


def test_node_layout_has_one_owner():
    """Only grid.py calls linspace: a PolarGrid lays out its radial nodes
    from (n_r, n_phi, y_max) and grid.tip_nodes those of a tip table, so
    no other module builds a node array of its own."""
    callers = sorted({path.name for path in PACKAGE.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func).split(".")[-1] == "linspace"})
    assert callers == ["grid.py"]


def test_quadrature_weights_have_one_reader():
    """Only grid.py reads .weights: every Gaussian pairing is
    PolarGrid.pair, so the quadrature is spelled once."""
    readers = sorted({path.name for path in PACKAGE.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and node.attr == "weights"})
    assert readers == ["grid.py"]


def test_profile_writer_has_one_owner():
    """Only grid.py takes np.sqrt(np.maximum(X, 0.0)): a profile field is
    written from its signed square by ScalarField.from_square alone."""
    def clamped_root(node):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.sqrt"
                and len(node.args) == 1):
            return False
        inner = node.args[0]
        return (isinstance(inner, ast.Call) and ast.unparse(inner.func) == "np.maximum"
                and len(inner.args) == 2 and ast.unparse(inner.args[1]) == "0.0")

    callers = sorted({path.name for path in PACKAGE.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if clamped_root(node)})
    assert callers == ["grid.py"]


def _keyword_defaults(path):
    """Number of parameters with a default value in the module at path,
    positional or keyword-only, over every def and lambda."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_keyword_defaults_do_not_grow():
    """A ratchet on options: the package holds at most 34 parameter
    defaults.  Lower the bound when a change removes one."""
    count = sum(_keyword_defaults(path) for path in PACKAGE.glob("*.py"))
    assert count <= 34, f"{count} keyword defaults in src/ovalab, at most 34 allowed"

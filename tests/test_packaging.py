"""Packaging and import hygiene.

Every console script declared in pyproject.toml must resolve to a
callable, or the installed command fails on import.  Every name a
package module imports must be used there, so a helper that lost its
last caller does not linger behind an import; every public name must be
read by the package or the benchmark, or be listed with the reason a
test reads it, so a function nothing calls does not linger at all.
The typed errors carry the exit codes errors.py documents.
"""

import ast
import importlib
import inspect
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
    """(name, line, bare) of every read of a name or attribute, keyword
    argument and identifier-like string constant in the module at path;
    bare marks a plain name, which can read a module-level name but no
    class member.  The name errors.gate puts in its message reads
    nothing."""
    tree = ast.parse(path.read_text())
    labels = {id(node.args[0]) for node in ast.walk(tree) if isinstance(node, ast.Call)
              and ast.unparse(node.func).split(".")[-1] == "gate" and node.args}
    refs = []
    for node in ast.walk(tree):
        if id(node) in labels:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.append((node.attr, node.lineno, False))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            refs.append((node.arg, node.value.lineno, False))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.append((node.value, node.lineno, False))
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


_EXIT_CODE = "item 4: the CLI maps OvalabError.exit_code to the process exit code"
_ORACLE_STATE = "oracle: a closed-form state the stepper and analysis are checked on"
_RECORD = "item 4: the pipeline writes each report into its JSON record"

# Public names that only tests read, each with the reason it stays: an
# oracle the package is checked against, or the ROADMAP item whose
# output will read it.  A name leaves the table when src/ovalab or
# perfbench/ starts to read it, or when it is deleted.
TEST_ONLY = {
    **{f"errors.{cls}.exit_code": _EXIT_CODE for cls in (
        "OvalabError", "ParameterError", "DomainError", "CoverageError",
        "BudgetError", "DegeneracyError", "AccuracyError")},
    "diagnostics.AsymptoticsReport.epsilon": _RECORD,
    "evolve.TipField.profile_at": "oracle: reads a tip column back as v(y) to "
                                  "check the tip table inverts the graph",
    "evolve.renormalized_state": "item 12: the renormalized ellipsoid inputs",
    "grid.PolarGrid.weights": "oracle: the Gaussian quadrature whose sum and "
                              "pairings the norm tests check",
    "modes.DeviationReport.as_dict": _RECORD,
    "recenter.normal_form_history": "oracle: the closed-form history solve_psi "
                                    "recovers exactly",
    "recenter.SyntheticHistory.fn": "oracle: a test composes a transformed "
                                    "closed-form history from another's fn",
    "recenter.jacobian_det": "oracle: pins det ~ 128 pi^2/|tau0| (1 + 2/|tau0|), "
                             "the theorem behind item 9's error",
    "shrinkers.bubble_sheet_field": _ORACLE_STATE,
    "shrinkers.sphere_field": _ORACLE_STATE,
    "shrinkers.neck_field": _ORACLE_STATE,
    "shrinkers.normal_form_field": _ORACLE_STATE,
    "shrinkers.BowlProfile.dZ": "oracle: the bowl slope checked against an "
                                "independent ODE solve",
    "shrinkers.BowlProfile.rho": "oracle: the bowl nodes the ODE solve is "
                                 "checked at",
    "shrinkers.BowlProfile.slope": "oracle: the bowl slope table checked "
                                   "monotone",
    "shrinkers.BowlProfile.height": "oracle: the bowl table checked monotone "
                                    "and concave",
    "spectral.EigenBasis.gram": "oracle: the exact Gaussian norms of the six modes",
    "spectral.EigenBasis.names": "oracle: labels the mode in the eigenfunction test",
    "spectral.EigenBasis.eigenvalues": "item 8: the spectrum the stepper's "
                                       "linearization is checked against",
    "spectral.SpectralReport.as_dict": _RECORD,
    "spectral.apply_ou": "item 8: oracle, the _w_rhs Jacobian matched it to 1.1e-8",
}


def test_no_dead_public_names():
    """Every public module-level function or class of the package, and
    every public member of those classes, is read by the package outside
    its own definition or by perfbench/; a test is no caller.  The names
    only tests read are listed in TEST_ONLY with a reason, and an entry
    that gained a caller, lost its last test reader or no longer exists
    fails too.  The match is by name; a class member is read only through
    an attribute, a keyword or a string, never by a plain name."""
    callers = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    tests = [*(ROOT / "tests").glob("*.py")]
    refs = {path: _references(path) for path in callers + tests}
    # this file's AST helpers and guards read node.names, alias.name and
    # the like; of its tests only test_error_exit_codes reads the package
    lines, first = inspect.getsourcelines(test_error_exit_codes)
    here = pathlib.Path(__file__).resolve()
    refs[here] = [r for r in refs[here] if first <= r[1] < first + len(lines)]

    def referenced(name, path, first, last, files, member):
        return any(n == name and not (p == path and first <= line <= last)
                   and not (member and bare)
                   for p in files for n, line, bare in refs[p])

    dead, stale, seen = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            names = [(node.name, node.name, node.lineno, node.lineno, node.end_lineno)]
            if isinstance(node, ast.ClassDef):
                names += [(f"{node.name}.{name}", name, line, first, last)
                          for name, line, first, last in _class_members(node)]
            for qual, name, line, first, last in names:
                key = f"{path.stem}.{qual}"
                seen.add(key)
                member = "." in qual
                called = referenced(name, path, first, last, callers, member)
                if key in TEST_ONLY:
                    if called or not referenced(name, path, first, last, tests, member):
                        stale.append(key)
                elif not called:
                    dead.append(f"{path.name}:{line} {qual}")
    stale += sorted(set(TEST_ONLY) - seen)
    assert not dead and not stale, {"no caller": dead, "stale TEST_ONLY entry": stale}


def _public_parameters():
    """{(callable, parameter): inspect.Parameter} of every public callable
    of the package: each module-level function, each class's constructor
    (exceptions, whose constructor takes a message, aside; a dataclass's
    fields are its constructor's parameters) and each public method that
    is not a property, named module.qualname; self, *args and **kwargs
    aside."""
    pairs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"ovalab.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            obj = getattr(module, node.name)
            found = [] if isinstance(obj, type) and issubclass(obj, BaseException) \
                else [(node.name, obj)]
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", getattr(obj, m.name)) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                          and not isinstance(inspect.getattr_static(obj, m.name), property)]
            pairs |= {(f"{path.stem}.{qual}", p.name): p for qual, fn in found
                      for p in inspect.signature(fn).parameters.values()
                      if p.name != "self" and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}
    return pairs


def test_gate_table_lists_every_public_parameter():
    """tests/test_gate.py's GATE names every (callable, parameter) pair of
    the public signatures, and nothing else: a new public float parameter
    fails here until the table says which values it refuses."""
    from test_gate import GATE

    tabled = {(key, param) for key, params in GATE.items() for param in params}
    public = set(_public_parameters())
    assert tabled == public, {"missing from GATE": sorted(public - tabled),
                              "stale in GATE": sorted(tabled - public)}


def test_theta_is_not_a_parameter():
    """No public callable takes theta but FlowState, which admits
    grid.THETA alone: the tip nodes, the spectral cutoff and the collar
    band share that one level, so no caller can set one of them apart."""
    takers = sorted(key for key, param in _public_parameters() if param == "theta")
    assert takers == ["evolve.FlowState"]


def _nan_rules(path):
    """Lines of the module at path that compare a value with math.inf or
    call math.isfinite, math.isinf or math.isnan: a NaN/inf rule of its own."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare) and any(ast.unparse(x).lstrip("-") == "math.inf"
                                                 for x in (node.left, *node.comparators)):
            found.append(f"{path.name}:{node.lineno} compares with math.inf")
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "math.isfinite", "math.isinf", "math.isnan"):
            found.append(f"{path.name}:{node.lineno} calls {ast.unparse(node.func)}")
    return found


def test_nan_and_inf_rule_has_one_owner():
    """Only errors.py states the NaN/inf rule of a float parameter, in
    errors.gate; every other module hands its floats to the gate.  Array
    checks on data (np.isfinite over a table or a step) are not this rule."""
    found = {path.name: _nan_rules(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, lines in found.items() if lines} <= {"errors.py"}, found


def test_no_module_calls_np_gradient():
    """No module takes np.gradient: its end rows are one-sided
    differences, not grid.radial_stencil's pole mirror, so a derivative
    taken with it is a second radial stencil that _radial_differences
    does not see."""
    callers = sorted({path.name for path in PACKAGE.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func).split(".")[-1] == "gradient"})
    assert callers == []


def test_pole_row_has_one_owner():
    """Only grid.py reads pole_jet; every other module takes the pole
    row through frame_jet, so the pole case is written once."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        if "pole_jet" in imported or any(n == "pole_jet" for n, *_ in _references(path)):
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


def test_super_step_pace_has_one_owner():
    """Only _march reads _SUPER_SHARE: the super-step pace, and the cut of
    n to the time grid, are stated once, so a second pace rule cannot sit
    beside the first as a floor bound or a wrapper of its own."""
    readers = sorted({node.name for node in ast.parse((PACKAGE / "evolve.py").read_text()).body
                      if isinstance(node, ast.FunctionDef)
                      and any(isinstance(n, ast.Name) and n.id == "_SUPER_SHARE"
                              for n in ast.walk(node))})
    assert readers == ["_march"]


def _keyword_defaults(path):
    """Number of parameters with a default value in the module at path,
    positional or keyword-only, over every def and lambda."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def test_keyword_defaults_do_not_grow():
    """A ratchet on options: the package holds at most 14 parameter
    defaults.  Lower the bound when a change removes one."""
    count = sum(_keyword_defaults(path) for path in PACKAGE.glob("*.py"))
    assert count <= 14, f"{count} keyword defaults in src/ovalab, at most 14 allowed"


# Public parameters with a default that neither src/ovalab nor perfbench/
# passes, each with the reason it stays a parameter.  An entry leaves the
# table when a caller starts to pass it, or when it is deleted.
TEST_ONLY_DEFAULTS = {
    "diagnostics.huisken_density.tail": "oracle: only the non-compact sheet and "
                                        "neck have closed-form densities, and "
                                        "tail='flat' checks the quadrature on them",
}


def test_every_defaulted_parameter_has_a_setter():
    """Every public parameter with a default, dataclass fields included,
    is passed by keyword somewhere in src/ovalab or perfbench/; a test is
    no setter, and a default that no run changes is a constant.  The ones
    only tests pass are listed in TEST_ONLY_DEFAULTS with a reason, and an
    entry that gained a setter or no longer names a defaulted parameter
    fails too.  The match is by name, as in test_no_dead_public_names: a
    keyword argument of that name in any call counts."""
    passed = {node.arg for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.keyword) and node.arg is not None}
    defaulted = {f"{key}.{name}": name for (key, name), p in _public_parameters().items()
                 if p.default is not p.empty}
    unset = sorted(key for key, name in defaulted.items()
                   if name not in passed and key not in TEST_ONLY_DEFAULTS)
    stale = sorted(key for key in TEST_ONLY_DEFAULTS
                   if key not in defaulted or defaulted[key] in passed)
    assert not unset and not stale, {"no setter": unset, "stale entry": stale}

"""The parameter gate, one table for the whole package.

GATE lists every parameter of every public callable of src/ovalab: each
module-level function and class (its constructor) and each public
method.  A float parameter is a Float whose call applies the callable
with a test value in its place; NaN, +inf and -inf are each refused with
ParameterError or DomainError, unless the entry says the value is
accepted or is a coverage question, and why.  Every other parameter is
marked with what it is.  tests/test_packaging.py checks that the table
and the public signatures agree.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from ovalab import diagnostics, errors, evolve, grid, modes, recenter, shrinkers, spectral
from ovalab.errors import CoverageError, DomainError, ParameterError

REFUSED = "refused"

# marks of the parameters that are not floats
ARRAY, INT, STR, BOOL, PATH, OBJECT = "array", "int", "str", "bool", "path", "object"
RECORD = "record: a result field the package fills from computed values"
QUERY = "array: query points, read as np.interp reads them"


@dataclass(frozen=True)
class Float:
    """A float parameter: call(x) applies its callable with x in place.
    Each of nan, pinf and minf is REFUSED, or "accepted: <why>" (the call
    returns), or "coverage: <why>" (the call raises CoverageError)."""

    call: object
    nan: str = REFUSED
    pinf: str = REFUSED
    minf: str = REFUSED


NOT_HELD = dict.fromkeys(("nan", "pinf", "minf"),
                         "coverage: a time the history does not hold, as any outside its span")
CLAMPED = "accepted: r is clamped to [0, y_max], as resample documents"
EVALUATED = "accepted: the closed form is evaluated as given"

G = grid.build_grid(16, 8, 3.0)
SPHERE = shrinkers.sphere_field(G)  # squared radius 6, extinct at t = 1
STATE = evolve.FlowState(time=0.0, v=SPHERE, renormalized=False)
TIP_BODY = shrinkers.sphere_field(grid.build_grid(64, 8, 3.2))
NF_GRID = grid.build_grid(32, 8, 12.0)
NF = shrinkers.normal_form_field(NF_GRID, -50.0)
NF_STATE = evolve.FlowState(time=-50.0, v=NF)
SYNTH = recenter.normal_form_history(NF_GRID, -100.0)  # span [-125, -75]
HIST = evolve.FlowHistory()
for _tau in (-100.5, -100.0, -99.5):
    HIST.append(evolve.FlowState(time=_tau, v=shrinkers.normal_form_field(NF_GRID, _tau)))
PARAMS = recenter.TransformParams((0.0, 0.0), 0.0, 0.0)


def _record(*fields):
    return dict.fromkeys(fields, RECORD)


GATE = {
    # diagnostics
    "diagnostics.AsymptoticsReport": _record("parabolic", "intermediate", "tip", "epsilon"),
    "diagnostics.asymptotics_report": {
        "state": OBJECT, "bowl": OBJECT,
        "epsilon": Float(lambda x: diagnostics.asymptotics_report(NF_STATE, x, None))},
    "diagnostics.ConcavityReport": _record("margins", "worst", "worst_y", "worst_phi", "delta"),
    "diagnostics.concavity_margin": {
        "field": OBJECT,
        "t": Float(lambda x: diagnostics.concavity_margin(SPHERE, x, 0.0)),
        "delta": Float(lambda x: diagnostics.concavity_margin(SPHERE, -10.0, x))},
    "diagnostics.CollarReport": _record("deviation", "y", "phi", "nodes"),
    "diagnostics.collar_deviation": {
        "field": OBJECT, "tau": Float(lambda x: diagnostics.collar_deviation(NF, x, 1.0)),
        "L": Float(lambda x: diagnostics.collar_deviation(NF, -50.0, x))},
    "diagnostics.cylindrical_estimate": {
        "field": OBJECT, "tau": Float(lambda x: diagnostics.cylindrical_estimate(NF, x, 1.0)),
        "L": Float(lambda x: diagnostics.cylindrical_estimate(NF, -50.0, x))},
    "diagnostics.huisken_density": {
        "field": OBJECT, "tail": STR,
        "r": Float(lambda x: diagnostics.huisken_density(SPHERE, x))},
    # evolve
    "evolve.TipField": {"values": ARRAY},
    "evolve.TipField.profile_at": {"y": QUERY, "j": INT},
    "evolve.TipField.from_profile": {"field": OBJECT},
    "evolve.TipField.save": {"path": PATH},
    "evolve.TipField.load": {"path": PATH},
    "evolve.rhs_renormalized_Y": {"Y": ARRAY},
    "evolve.FlowState": {
        "v": OBJECT, "tip": OBJECT, "renormalized": BOOL,
        "time": Float(lambda x: evolve.FlowState(time=x, v=SPHERE)),
        "theta": Float(lambda x: evolve.FlowState(time=0.0, v=SPHERE, theta=x)),
        "L": Float(lambda x: evolve.FlowState(time=0.0, v=SPHERE, L=x))},
    "evolve.step": {"state": OBJECT, "dtau": Float(lambda x: evolve.step(STATE, x))},
    "evolve.FlowHistory.append": {"state": OBJECT},
    "evolve.FlowHistory.state_at": {"t": Float(HIST.state_at, **NOT_HELD)},
    "evolve.FlowHistory.at": {"t": Float(HIST.at, **NOT_HELD)},
    "evolve.FlowHistory.sample": {
        "r": Float(lambda x: HIST.sample(x, 0.0, -100.0), pinf=CLAMPED, minf=CLAMPED),
        "phi": Float(lambda x: HIST.sample(1.0, x, -100.0)),
        "tau": Float(lambda x: HIST.sample(1.0, 0.0, x), **NOT_HELD)},
    "evolve.FlowHistory.save_dir": {"path": PATH},
    "evolve.FlowHistory.load_dir": {"path": PATH},
    "evolve.cfl_dt": {"grid": OBJECT},
    "evolve.run": {
        "state": OBJECT,
        "t_end": Float(lambda x: evolve.run(STATE, x),
                       pinf="accepted: the march runs until the body dies"),
        "snapshot_every": Float(lambda x: evolve.run(STATE, 0.02, x),
                                pinf="accepted: only the first and the last state are kept")},
    "evolve.ExtinctionResult": _record("t_extinct", "t_last_alive", "t_first_dead", "steps"),
    "evolve.find_extinction": {
        "initial": OBJECT,
        "t_start": Float(lambda x: evolve.find_extinction(SPHERE, x)),
        "rel_tol": Float(lambda x: evolve.find_extinction(SPHERE, 0.0, x))},
    "evolve.renormalize": {
        "field": OBJECT, "grid_out": OBJECT,
        "t": Float(lambda x: evolve.renormalize(SPHERE, x, 1.0)),
        "t_e": Float(lambda x: evolve.renormalize(SPHERE, 0.0, x))},
    "evolve.renormalized_state": {
        "field": OBJECT, "grid_out": OBJECT,
        "t": Float(lambda x: evolve.renormalized_state(TIP_BODY, x, 1.0)),
        "t_e": Float(lambda x: evolve.renormalized_state(TIP_BODY, 0.0, x))},
    "evolve.zoomed_tip": {"state": OBJECT},
    # grid
    "grid.tip_nodes": {"n": INT},
    "grid.radial_stencil": {
        "values": ARRAY, "mirror": ARRAY,
        "h": Float(lambda x: grid.radial_stencil(np.ones((5, 8)), x, np.ones(8)))},
    "grid.PolarGrid": {"n_r": INT, "n_phi": INT,
                       "y_max": Float(lambda x: grid.PolarGrid(16, 8, x))},
    "grid.PolarGrid.pair": {"F": ARRAY, "G": ARRAY},
    "grid.PolarGrid.radial_derivative": {"values": ARRAY},
    "grid.ScalarField": {"grid": OBJECT, "values": ARRAY, "w_signed": ARRAY, "copy": BOOL},
    "grid.ScalarField.from_square": {"grid": OBJECT, "W": ARRAY},
    "grid.ScalarField.with_values": {"values": ARRAY, "w_signed": ARRAY},
    "grid.resample": {
        "F": ARRAY, "grid": OBJECT,
        "r": Float(lambda x: grid.resample(SPHERE.values, G, x, 0.0),
                   pinf=CLAMPED, minf=CLAMPED),
        "phi": Float(lambda x: grid.resample(SPHERE.values, G, 1.0, x))},
    "grid.rim_index": {"W": ARRAY},
    "grid.rebuild_halo": {"W": ARRAY, "grid": OBJECT},
    "grid.signed_square": {"field": OBJECT},
    "grid.inner_product_H": {"f": OBJECT, "g": OBJECT},
    "grid.norm_H": {"f": OBJECT},
    "grid.diff_phi_fft": {"values": ARRAY, "order": INT},
    "grid.angular_derivs": {"F": ARRAY, "Fr": ARRAY},
    "grid.polar_jet": {"grid": OBJECT, "F": ARRAY},
    "grid.pole_jet": {"F0": "data: the pole entry of the array frame_jet differentiates",
                      "ring_spec": ARRAY, "grid": OBJECT},
    "grid.frame_jet": {"grid": OBJECT, "F": ARRAY},
    "grid.sqrt_jet": dict.fromkeys(("W1", "W2", "W11", "W12", "W22", "v"), ARRAY),
    "grid.angular_lowpass": {"values": ARRAY, "m_max": INT},
    "grid.save_field": {"f": OBJECT, "path": PATH},
    "grid.load_field": {"path": PATH, "grid": OBJECT},
    # modes
    "modes.DeviationReport": _record("window", "sup_diagonal", "sup_off_diagonal", "taus"),
    "modes.compare_with_flow": {
        "history": OBJECT,
        "window": Float(lambda x: modes.compare_with_flow(HIST, (x, 0.0)),
                        minf="accepted: a window open to the past")},
    # recenter
    "recenter.TransformParams": {
        "alpha": Float(lambda x: recenter.TransformParams((x, 0.0), 0.0, 0.0)),
        "beta": Float(lambda x: recenter.TransformParams((0.0, 0.0), x, 0.0)),
        "gamma": Float(lambda x: recenter.TransformParams((0.0, 0.0), 0.0, x)),
        "phi_rot": Float(lambda x: recenter.TransformParams((0.0, 0.0), 0.0, 0.0, x))},
    "recenter.TransformParams.a": {"tau": Float(PARAMS.a)},
    "recenter.TransformParams.b": {"tau": Float(PARAMS.b)},
    "recenter.TransformParams.Gamma": {"tau": Float(PARAMS.Gamma)},
    "recenter.TransformParams.from_renormalized": {
        "tau": Float(lambda x: recenter.TransformParams.from_renormalized(x)),
        "a": Float(lambda x: recenter.TransformParams.from_renormalized(-50.0, a=(x, 0.0))),
        "b": Float(lambda x: recenter.TransformParams.from_renormalized(-50.0, b=x)),
        "Gamma": Float(lambda x: recenter.TransformParams.from_renormalized(-50.0, Gamma=x)),
        "phi_rot": Float(
            lambda x: recenter.TransformParams.from_renormalized(-50.0, phi_rot=x))},
    "recenter.SyntheticHistory": {
        "fn": OBJECT, "grid": OBJECT,
        "span": Float(lambda x: recenter.SyntheticHistory(SYNTH.fn, NF_GRID, (x, 0.0)),
                      minf="accepted: a closed form may hold every earlier time")},
    "recenter.SyntheticHistory.sample": {
        "y": Float(lambda x: SYNTH.sample(x, 0.0, -100.0),
                   pinf=EVALUATED, minf=EVALUATED),
        "phi": Float(lambda x: SYNTH.sample(1.0, x, -100.0)),
        "tau": Float(lambda x: SYNTH.sample(1.0, 0.0, x), **NOT_HELD)},
    "recenter.SyntheticHistory.at": {"tau": Float(SYNTH.at, **NOT_HELD)},
    "recenter.normal_form_history": {
        "grid": OBJECT, "tau0": Float(lambda x: recenter.normal_form_history(NF_GRID, x))},
    "recenter.transform_profile": {
        "history": OBJECT,
        "b": Float(lambda x: recenter.transform_profile(SYNTH, x, 0.0, -100.0)),
        "Gamma": Float(lambda x: recenter.transform_profile(SYNTH, 0.0, x, -100.0)),
        "tau0": Float(lambda x: recenter.transform_profile(SYNTH, 0.0, 0.0, x))},
    "recenter.transform_full": {
        "history": OBJECT,
        "a": Float(lambda x: recenter.transform_full(SYNTH, (0.0, x), 0.0, 0.0, 0.0, -100.0)),
        "b": Float(lambda x: recenter.transform_full(SYNTH, (0.0, 0.0), x, 0.0, 0.0, -100.0)),
        "Gamma": Float(
            lambda x: recenter.transform_full(SYNTH, (0.0, 0.0), 0.0, x, 0.0, -100.0)),
        "phi_rot": Float(
            lambda x: recenter.transform_full(SYNTH, (0.0, 0.0), 0.0, 0.0, x, -100.0)),
        "tau0": Float(lambda x: recenter.transform_full(SYNTH, (0.0, 0.0), 0.0, 0.0, 0.0, x))},
    "recenter.psi2": {
        "history": OBJECT,
        "tau0": Float(lambda x: recenter.psi2(SYNTH, x, 0.0, 0.0)),
        "b": Float(lambda x: recenter.psi2(SYNTH, -100.0, x, 0.0)),
        "Gamma": Float(lambda x: recenter.psi2(SYNTH, -100.0, 0.0, x))},
    "recenter.psi4": {
        "history": OBJECT,
        "tau0": Float(lambda x: recenter.psi4(SYNTH, x, (0.0, 0.0), 0.0, 0.0)),
        "a": Float(lambda x: recenter.psi4(SYNTH, -100.0, (x, 0.0), 0.0, 0.0)),
        "b": Float(lambda x: recenter.psi4(SYNTH, -100.0, (0.0, 0.0), x, 0.0)),
        "Gamma": Float(lambda x: recenter.psi4(SYNTH, -100.0, (0.0, 0.0), 0.0, x))},
    "recenter.rotation_angle": {"field": OBJECT},
    "recenter.measure_kappa": {
        "history": OBJECT, "tau0": Float(lambda x: recenter.measure_kappa(SYNTH, x))},
    "recenter.jacobian_det": {
        "history": OBJECT,
        "tau0": Float(lambda x: recenter.jacobian_det(SYNTH, x, 0.0, 0.0)),
        "b": Float(lambda x: recenter.jacobian_det(SYNTH, -100.0, x, 0.0)),
        "Gamma": Float(lambda x: recenter.jacobian_det(SYNTH, -100.0, 0.0, x))},
    "recenter.solve_psi": {
        "history": OBJECT, "mode": STR,
        "tau0": Float(lambda x: recenter.solve_psi(SYNTH, x))},
    # shrinkers
    "shrinkers.bubble_sheet_field": {"grid": OBJECT},
    "shrinkers.sphere_field": {"grid": OBJECT},
    "shrinkers.neck_field": {"grid": OBJECT},
    "shrinkers.normal_form_profile": {
        "y": ARRAY, "tau": Float(lambda x: shrinkers.normal_form_profile(1.0, x))},
    "shrinkers.normal_form_field": {
        "grid": OBJECT, "tau": Float(lambda x: shrinkers.normal_form_field(NF_GRID, x))},
    "shrinkers.EllipsoidSpec": {
        name: Float(lambda x, name=name: shrinkers.EllipsoidSpec(**{name: x}))
        for name in ("a", "ell", "radius", "t_start")},
    "shrinkers.ellipsoid_initial": {"grid": OBJECT, "spec": OBJECT},
    "shrinkers.BowlProfile": {"rho": ARRAY, "height": ARRAY, "slope": ARRAY},
    "shrinkers.BowlProfile.dZ": {"rho": QUERY},
    # spectral
    "spectral.smoothstep_quintic": {"x": ARRAY},
    "spectral.cutoff_profile": {"values": ARRAY},
    "spectral.truncate": {"field": OBJECT},
    "spectral.EigenBasis": {"grid": OBJECT},
    "spectral.get_basis": {"grid": OBJECT},
    "spectral.truncated_deviation": {"field": OBJECT},
    "spectral.pairings": {"u": ARRAY, "basis": OBJECT},
    "spectral.quadratic_distance": {
        "field": OBJECT, "tau": Float(lambda x: spectral.quadratic_distance(NF, x))},
    "spectral.project": {"field": OBJECT},
    "spectral.alpha_from_coeffs": {"coeffs": ARRAY},
    "spectral.bubble_sheet_Q": {
        "alpha": ARRAY, "tau": Float(lambda x: spectral.bubble_sheet_Q((1.0, 1.0, 0.0), x))},
    "spectral.sym2_eigenvalues": {"m": ARRAY},
    "spectral.SpectralReport": _record("tau", "coeffs", "alpha", "S", "D", "xi",
                                       "Q", "q_eigenvalues", "residual_norm"),
    "spectral.sd_to_xi": {
        "tau": Float(lambda x: spectral.sd_to_xi(x, 0.0, 0.0)),
        "S": Float(lambda x: spectral.sd_to_xi(-50.0, x, 0.0)),
        "D": Float(lambda x: spectral.sd_to_xi(-50.0, 0.0, x))},
    "spectral.spectral_report": {
        "field": OBJECT, "tau": Float(lambda x: spectral.spectral_report(NF, x))},
    "spectral.width_ratio": {"field": OBJECT},
    "spectral.apply_ou": {"field": OBJECT},
    # errors
    "errors.gate": {
        "name": STR, "interval": STR, "error": OBJECT,
        "value": Float(lambda x: errors.gate("x", x, "(-inf, inf)", ParameterError))},
}

VALUES = {"nan": math.nan, "pinf": math.inf, "minf": -math.inf}
CASES = [pytest.param(spec, which, id=f"{key}-{param}-{which}")
         for key, params in GATE.items() for param, spec in params.items()
         if isinstance(spec, Float) for which in VALUES]


@pytest.mark.parametrize("spec, which", CASES)
def test_gate_table(spec, which):
    """Each tabled value of each float parameter meets its verdict."""
    verdict, x = getattr(spec, which), VALUES[which]
    if verdict == REFUSED:
        with pytest.raises((ParameterError, DomainError)):
            spec.call(x)
    elif verdict.startswith("coverage: "):
        with pytest.raises(CoverageError):
            spec.call(x)
    else:
        assert verdict.startswith("accepted: ")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec.call(x)


def test_nan_is_refused_everywhere_but_in_history_queries():
    """NaN is never admissible: a NaN is refused as a parameter, except by
    the time queries of a history, whose coverage check names it."""
    for key, params in GATE.items():
        for param, spec in params.items():
            if isinstance(spec, Float) and spec.nan != REFUSED:
                assert spec.nan.startswith("coverage: "), (key, param)
                assert ".sample" in key or key.endswith((".at", ".state_at")), (key, param)

"""Centering transformations and the pairing-map solver.

The synthetic-history path evaluates profiles in closed form, so solver
round trips here are limited only by the Newton tolerance; recorded
histories go through bilinear resampling and are checked at the looser
O(h^2) level.
"""

import math
import re
import warnings

import numpy as np
import pytest

from ovalab.errors import (
    BudgetError,
    CoverageError,
    DegeneracyError,
    ParameterError,
)
from ovalab.evolve import FlowHistory, FlowState
from ovalab import recenter
from ovalab.grid import build_grid
from ovalab.recenter import (
    FOUR_PARAM,
    SQRT2,
    SQRT8,
    TWO_PARAM,
    SyntheticHistory,
    TransformParams,
    _fd_jacobian,
    jacobian_det,
    measure_kappa,
    normal_form_history,
    psi2,
    psi4,
    rotation_angle,
    solve_psi,
    transform_full,
    transform_profile,
)
from ovalab.shrinkers import normal_form_field
from ovalab.spectral import cutoff_profile, get_basis

TAU0 = -100.0


@pytest.fixture(scope="module")
def grid():
    return build_grid(192, 24, 18.0)


@pytest.fixture(scope="module")
def base(grid):
    return normal_form_history(grid, TAU0)


def shifted_history(grid, b, Gamma):
    """Closed-form normal form with (b, Gamma) already applied."""

    def fn(y, phi, tau):
        scaled = (y / (1.0 + b)) ** 2 - 4.0
        return (1.0 + b) * (
            SQRT2 - scaled / (SQRT8 * (1.0 + Gamma) * abs(tau))
        ) + 0.0 * phi

    return SyntheticHistory(fn, grid, (TAU0 * 1.25, TAU0 * 0.75))


# ---------------------------------------------------------------------------
# parameters


def test_parameter_round_trip_is_exact():
    tp = TransformParams.from_renormalized(
        TAU0, a=(0.3, -0.2), b=1.7e-3, Gamma=0.04, phi_rot=0.9
    )
    assert tp.b(TAU0) == pytest.approx(1.7e-3, abs=1.0e-15)
    assert tp.Gamma(TAU0) == pytest.approx(0.04, abs=1.0e-15)
    assert np.allclose(tp.a(TAU0), (0.3, -0.2), atol=1.0e-15)
    assert tp.phi_rot == pytest.approx(0.9)
    # beta = e^{-tau}((1+b)^2 - 1) in the raw coordinates
    assert tp.beta == pytest.approx(
        math.exp(-TAU0) * ((1.0 + 1.7e-3) ** 2 - 1.0), rel=1.0e-13
    )


def test_parameter_guards():
    with pytest.raises(ParameterError):
        TransformParams.from_renormalized(0.0, b=0.1)
    with pytest.raises(ParameterError):
        TransformParams.from_renormalized(TAU0, b=-1.5)
    tp = TransformParams(alpha=(0.0, 0.0), beta=-2.0, gamma=0.0)
    with pytest.raises(ParameterError):
        tp.b(0.0)  # 1 + beta e^0 < 0


# ---------------------------------------------------------------------------
# the transformation


def test_constant_history_scales_by_one_plus_b(grid):
    H = SyntheticHistory(
        lambda y, phi, tau: SQRT2 + 0.0 * y + 0.0 * phi,
        grid,
        (-150.0, -70.0),
    )
    f = transform_profile(H, 0.25, 0.37, TAU0)
    assert np.allclose(f.values, SQRT2 * 1.25, atol=1.0e-14)


def test_identity_transform(base, grid):
    f = transform_profile(base, 0.0, 0.0, TAU0)
    assert np.abs(f.values - normal_form_field(grid, TAU0).values).max() == 0.0


def test_transform_matches_closed_form_substitution(base, grid):
    b, Gamma = 2.0e-3, 1.0e-2
    f = transform_profile(base, b, Gamma, TAU0)
    y = grid.y[:, None]
    want = (1.0 + b) * SQRT2 - ((y / (1.0 + b)) ** 2 - 4.0) * (1.0 + b) / (
        SQRT8 * (1.0 + Gamma) * abs(TAU0)
    )
    assert np.abs(f.values - want).max() < 1.0e-13


def test_group_action_at_the_parameter_level(base, grid):
    """Applying (b1, G1) then (b2, G2) equals one application of the
    multiplied scale factors, through the code's own sampling."""
    b1, G1 = 3.0e-3, 2.0e-2
    b2, G2 = -1.5e-3, -8.0e-3

    def staged(y, phi, tau):
        return (1.0 + b1) * base.fn(
            y / (1.0 + b1), phi, (1.0 + G1) * tau
        )

    H1 = SyntheticHistory(staged, grid, (TAU0 * 1.2, TAU0 * 0.8))
    two_step = transform_profile(H1, b2, G2, TAU0)
    b_net = (1.0 + b1) * (1.0 + b2) - 1.0
    G_net = (1.0 + G1) * (1.0 + G2) - 1.0
    one_step = transform_profile(base, b_net, G_net, TAU0)
    assert np.abs(two_step.values - one_step.values).max() < 1.0e-13


@pytest.mark.parametrize("kind", ["closed-form", "recorded"])
def test_full_transform_reduces_and_rotates(kind, base, grid, recorded_history):
    hist = base if kind == "closed-form" else recorded_history(
        grid, np.arange(-102.0, -97.9, 0.5), normal_form_field)
    f1 = transform_profile(hist, 2.0e-3, 1.0e-2, TAU0)
    f2 = transform_full(hist, (0.0, 0.0), 2.0e-3, 1.0e-2, 0.0, TAU0)
    assert np.abs(f1.values - f2.values).max() < 1.0e-14
    # rotating a radially symmetric profile does nothing
    f3 = transform_full(hist, (0.0, 0.0), 0.0, 0.0, 1.234, TAU0)
    assert np.abs(f3.values - hist.at(TAU0).values).max() < 1.0e-14


def test_translation_shifts_the_constant_mode(grid):
    H = SyntheticHistory(
        lambda y, phi, tau: SQRT2 + 0.01 * y * np.cos(phi) + 0.0 * tau,
        grid,
        (-130.0, -70.0),
    )
    h = 1.0e-3
    p = psi4(H, TAU0, (h, 0.0), 0.0, 0.0)
    assert p[0] / (4.0 * math.pi) == pytest.approx(-0.01 * h, rel=1.0e-5)


def test_flow_history_resampling(grid):
    hist = FlowHistory()
    for k in range(81):
        tau = -102.0 + 0.05 * k
        hist.append(
            FlowState(
                time=tau,
                v=normal_form_field(grid, tau),
                tip=None,
                renormalized=True,
                theta=0.2,
                L=10.0,
            )
        )
    ident = transform_profile(hist, 0.0, 0.0, TAU0)
    assert (
        np.abs(ident.values - normal_form_field(grid, TAU0).values).max()
        < 1.0e-13
    )
    num = transform_profile(hist, 2.0e-3, 1.0e-2, TAU0)
    exact = transform_profile(
        normal_form_history(grid, TAU0), 2.0e-3, 1.0e-2, TAU0
    )
    # bilinear resampling error, O(h^2 v'')
    assert np.abs(num.values - exact.values).max() < 2.0e-5
    with pytest.warns(UserWarning, match="clamped"):
        transform_profile(hist, -0.05, 0.0, TAU0)


def test_transform_guards(base):
    for b in (-1.0, math.nan):
        with pytest.raises(ParameterError):
            transform_profile(base, b, 0.0, TAU0)
    with pytest.raises(CoverageError):
        transform_profile(base, 0.0, 0.5, TAU0)  # 1.5 tau0 out of span
    with pytest.raises(ParameterError):
        transform_full(base, (1.0, 2.0, 3.0), 0.0, 0.0, 0.0, TAU0)


# ---------------------------------------------------------------------------
# pairing maps


def test_psi2_vanishes_on_the_compliant_history(base):
    p = psi2(base, TAU0, 0.0, 0.0)
    assert np.abs(p).max() < 1.0e-12
    assert measure_kappa(base, TAU0) < 1.0e-12


def test_psi2_linear_response(base):
    # first component slope sqrt(2) ||psi_1||^2 = 4 sqrt(2) pi, with a
    # known 2/|tau0| relative correction at finite time
    b = 1.0e-3
    p = psi2(base, TAU0, b, 0.0)
    slope = SQRT2 * 4.0 * math.pi
    assert p[0] == pytest.approx(
        slope * b * (1.0 + 2.0 / abs(TAU0)), rel=1.0e-4
    )
    G = 1.0e-2
    p = psi2(base, TAU0, 0.0, G)
    want = 64.0 * math.pi * G / (SQRT8 * abs(TAU0) * (1.0 + G))
    assert p[1] == pytest.approx(want, rel=1.0e-3)


def test_psi4_parity_and_reduction(base):
    p4 = psi4(base, TAU0, (0.0, 0.0), 1.0e-3, 1.0e-2)
    assert abs(p4[1]) < 1.0e-14
    assert abs(p4[2]) < 1.0e-14
    p2 = psi2(base, TAU0, 1.0e-3, 1.0e-2)
    assert p4[0] == pytest.approx(p2[0], abs=1.0e-13)
    assert p4[3] == pytest.approx(p2[1], abs=1.0e-13)


@pytest.mark.parametrize("b, Gamma", [(0.0, 0.0), (-8.0e-4, -2.9e-2), (1.0e-3, 1.0e-2)])
def test_psi4_at_zero_translation_is_psi2(grid, b, Gamma):
    """Each map pairs only its own modes, and at zero translation psi4's
    rows 0 and 3 are psi2, on a shifted closed-form history whose
    pairings do not vanish."""
    H = shifted_history(grid, 8.0e-4, 3.0e-2)
    p2 = psi2(H, TAU0, b, Gamma)
    p4 = psi4(H, TAU0, (0.0, 0.0), b, Gamma)
    assert p2.shape == (2,) and p4.shape == (4,)
    assert np.abs(p4[[0, 3]] - p2).max() <= 1.0e-10


def test_psi4_expansion_structure(base):
    """First component per unit norm is sqrt(2) b - |a|^2/(sqrt8 |tau|
    (1+Gamma)) up to O(b/|tau|) corrections."""
    a = (0.3, 0.2)
    b, G = 1.0e-3, 5.0e-3
    p = psi4(base, TAU0, a, b, G)
    pred = SQRT2 * b - (a[0] ** 2 + a[1] ** 2) / (
        SQRT8 * abs(TAU0) * (1.0 + G)
    )
    assert p[0] / (4.0 * math.pi) == pytest.approx(
        pred, abs=4.0 * SQRT2 * b / abs(TAU0)
    )


def test_rotation_angle_zeroes_the_sin_pairing(grid):
    phi0 = 0.3

    def fn(y, phi, tau):
        bump = 1.0e-3 * y**2 * np.exp(-(y**2) / 8.0)
        return (
            SQRT2
            - (y**2 - 4.0) / (SQRT8 * abs(tau))
            + bump * np.cos(2.0 * (phi - phi0))
        )

    H = SyntheticHistory(fn, grid, (TAU0 * 1.25, TAU0 * 0.75))
    f = H.at(TAU0)
    ang = rotation_angle(f)
    assert ang == pytest.approx((-phi0) % (2.0 * math.pi), abs=1.0e-12)
    rot = transform_full(H, (0.0, 0.0), 0.0, 0.0, ang, TAU0)
    basis = get_basis(grid)
    u = cutoff_profile(rot.values) * (rot.values - SQRT2)
    s_pair = float(np.sum(grid.weights * u * basis.functions[5]))
    c_pair = float(np.sum(grid.weights * u * basis.functions[4]))
    assert abs(s_pair) < 1.0e-14
    assert c_pair > 0.0
    # featureless fields get the conventional zero
    assert rotation_angle(normal_form_field(grid, TAU0)) == 0.0


# ---------------------------------------------------------------------------
# solver


def test_jacobian_determinant_leading_term(base):
    det = jacobian_det(base, TAU0, 0.0, 0.0)
    ref = 128.0 * math.pi**2 / abs(TAU0)
    assert det > 0.0
    assert abs(det / ref - 1.0) < 0.1
    # the finite-time correction is 2/|tau0|, so the match is much
    # tighter than the headline 10 percent
    assert det == pytest.approx(ref * (1.0 + 2.0 / abs(TAU0)), rel=1.0e-3)


def test_jacobian_scales_inversely_with_time(grid):
    dets = {}
    for tau0 in (-50.0, -100.0, -200.0):
        H = normal_form_history(grid, tau0)
        dets[tau0] = jacobian_det(H, tau0, 0.0, 0.0)
    for tau0, det in dets.items():
        assert abs(det * abs(tau0) / (128.0 * math.pi**2) - 1.0) < 0.1


def test_solver_fixes_the_compliant_history(base):
    sol = solve_psi(base, TAU0)
    assert abs(sol.b(TAU0)) < 1.0e-10
    assert abs(sol.Gamma(TAU0)) < 1.0e-10
    assert sol.alpha == (0.0, 0.0)


def test_solver_round_trip(grid):
    bs, Gs = 8.0e-4, 3.0e-2
    H = shifted_history(grid, bs, Gs)
    sol = solve_psi(H, TAU0)
    assert sol.b(TAU0) == pytest.approx(-bs / (1.0 + bs), abs=1.0e-8)
    assert sol.Gamma(TAU0) == pytest.approx(-Gs / (1.0 + Gs), abs=1.0e-8)
    # the zero sits well inside the search box
    kappa = measure_kappa(H, TAU0)
    assert TAU0**2 * sol.b(TAU0) ** 2 + sol.Gamma(TAU0) ** 2 < 100.0 * kappa**2


def test_solver_multistart_uniqueness(grid):
    H = shifted_history(grid, 8.0e-4, 3.0e-2)
    ref = solve_psi(H, TAU0)
    rb, rG = ref.b(TAU0), ref.Gamma(TAU0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        start = np.array(
            [rng.uniform(-0.02, 0.02), rng.uniform(-0.15, 0.15)]
        )
        sol = solve_psi(H, TAU0, start=start)
        assert abs(sol.b(TAU0) - rb) < 1.0e-8
        assert abs(sol.Gamma(TAU0) - rG) < 1.0e-8


def test_solver_four_param_round_trip(grid):
    astar = np.array([0.08, -0.05])
    bs, Gs = 6.0e-4, 2.0e-2

    def fn(y, phi, tau):
        x1 = y * np.cos(phi) - astar[0]
        x2 = y * np.sin(phi) - astar[1]
        r2 = (x1**2 + x2**2) / (1.0 + bs) ** 2
        return (1.0 + bs) * (
            SQRT2 - (r2 - 4.0) / (SQRT8 * (1.0 + Gs) * abs(tau))
        )

    H = SyntheticHistory(fn, grid, (TAU0 * 1.25, TAU0 * 0.75))
    sol = solve_psi(H, TAU0, mode=FOUR_PARAM)
    assert sol.b(TAU0) == pytest.approx(-bs / (1.0 + bs), abs=1.0e-8)
    assert sol.Gamma(TAU0) == pytest.approx(-Gs / (1.0 + Gs), abs=1.0e-8)
    res = psi4(H, TAU0, sol.a(TAU0), sol.b(TAU0), sol.Gamma(TAU0))
    assert np.linalg.norm(res) < 1.0e-10
    assert sol.phi_rot == 0.0


def _outward_history(grid):
    """The outward-quadratic profile, which reverses the Gamma response
    and so flips the sign of the psi2 Jacobian determinant."""
    return SyntheticHistory(lambda y, phi, tau: SQRT2 + (y**2 - 4.0) / (SQRT8 * abs(tau)),
                            grid, (TAU0 * 1.25, TAU0 * 0.75))


def test_solver_degeneracy_detection(grid):
    with pytest.raises(DegeneracyError):
        solve_psi(_outward_history(grid), TAU0)
    # a constant profile ignores translation and time dilation, so three
    # columns of the psi4 Jacobian vanish and the Newton solve is singular
    flat = SyntheticHistory(lambda y, phi, tau: SQRT2 + 0.0 * y + 0.0 * phi,
                            grid, (TAU0 * 1.25, TAU0 * 0.75))
    with pytest.raises(DegeneracyError):
        solve_psi(flat, TAU0, mode=FOUR_PARAM)


@pytest.mark.parametrize("mode, name", [(TWO_PARAM, "psi2"), (FOUR_PARAM, "psi4")])
def test_solver_evaluates_the_module_maps(mode, name, grid, monkeypatch):
    """Every evaluation of the solver goes through the module-level psi2
    or psi4 of its mode, looked up when called."""
    calls = {"psi2": 0, "psi4": 0}

    def counting(key, inner):
        def wrapper(*args):
            calls[key] += 1
            return inner(*args)
        return wrapper

    for key in calls:
        monkeypatch.setattr(recenter, key, counting(key, getattr(recenter, key)))
    dim = 2 if mode == TWO_PARAM else 4
    solve_psi(shifted_history(grid, 8.0e-4, 3.0e-2), TAU0, mode=mode)
    # the start residual, one Jacobian and one damped trial at least
    assert calls[name] >= 2 + 2 * dim
    assert calls[({"psi2", "psi4"} - {name}).pop()] == 0


def test_solver_budget_and_guards(grid, base):
    H = shifted_history(grid, 8.0e-4, 3.0e-2)
    with pytest.raises(BudgetError):
        solve_psi(H, TAU0, max_iter=0)
    with pytest.raises(ParameterError):
        solve_psi(base, TAU0, mode="five-param")
    with pytest.raises(ParameterError):
        solve_psi(base, 100.0)
    with pytest.raises(ParameterError):
        solve_psi(base, TAU0, start=np.array([10.0, 10.0]))


def _short_history(grid):
    """A recorded history of three snapshots 0.5 apart around TAU0."""
    H = shifted_history(grid, 0.0, -3.0e-2)
    hist = FlowHistory()
    for tau in (TAU0 - 0.5, TAU0, TAU0 + 0.5):
        hist.append(FlowState(time=tau, v=H.at(tau), renormalized=True))
    return hist


@pytest.mark.filterwarnings("ignore:.*clamped to the boundary ring")
def test_solver_reports_the_time_its_first_step_leaves(grid, monkeypatch):
    """A Newton trial outside a recorded history raises that history's
    CoverageError at once, naming the span it holds; it is not halved
    back inside and reported as a spent budget."""
    hist = _short_history(grid)
    calls = []
    inner = recenter.psi2

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(recenter, "psi2", counting)
    # the step toward Gamma = 0.03 asks for tau near 1.03 TAU0
    with pytest.raises(CoverageError, match=r"outside history \[-100\.5, -99\.5\]"):
        solve_psi(hist, TAU0)
    # the start residual, two calls per Jacobian column and one trial
    assert len(calls) == 6


@pytest.mark.filterwarnings("ignore:.*clamped to the boundary ring")
@pytest.mark.parametrize("error, history, max_iter, first", [
    (CoverageError, _short_history, 50, r"time \S+ outside history \[-100\.5, -99\.5\]"),
    (DegeneracyError, _outward_history, 50, r"psi2 Jacobian determinant \S+ <= 0"),
    (BudgetError, lambda g: shifted_history(g, 8.0e-4, 3.0e-2), 0, r"no convergence in 0"),
], ids=["coverage", "degeneracy", "budget"])
def test_solver_errors_name_kappa_and_the_box(grid, error, history, max_iter, first):
    """A refusal of solve_psi keeps its type and its own text first, then
    names kappa and the radius 10 kappa of the search box."""
    H = history(grid)
    kappa = max(measure_kappa(H, TAU0), 1.0e-8)
    with pytest.raises(error) as info:
        solve_psi(H, TAU0, max_iter=max_iter)
    assert type(info.value) is error
    assert re.match(first, str(info.value))
    assert (f"; at tau0=-100, kappa = {kappa:.3g} and the search box tau0^2 b^2 + "
            f"Gamma^2 <= r^2 has radius r = 10 kappa = {10.0 * kappa:.3g}") in str(info.value)


def test_synthetic_history_span(grid):
    with pytest.raises(ParameterError):
        SyntheticHistory(lambda y, p, t: y, grid, (-90.0, -110.0))
    H = normal_form_history(grid, TAU0)
    with pytest.raises(CoverageError):
        H.at(-200.0)


def test_synthetic_history_refuses_a_nan_time(base):
    with pytest.raises(CoverageError, match=r"time nan outside synthetic span"):
        base.at(math.nan)


def test_transform_refuses_a_nan_dilation(base):
    """Gamma = NaN would ask a recorded history for the time NaN; the
    parameter gate refuses it first, as the bad parameter it is."""
    hist = FlowHistory()
    for tau in (TAU0 - 0.5, TAU0, TAU0 + 0.5):
        hist.append(FlowState(time=tau, v=base.at(tau), renormalized=True))
    with pytest.raises(ParameterError, match="Gamma must be finite, got nan"):
        transform_profile(hist, 0.0, math.nan, TAU0)


def test_fd_jacobian_makes_two_calls_per_parameter():
    calls = []

    def F(x):
        calls.append(x.copy())
        return np.array([x[0] * x[1], x[1] ** 2 + x[2], math.sin(x[0])])

    x = np.array([0.3, -1.2, 2.0])
    J = _fd_jacobian(F, x, np.array([1.0e-6, 1.0e-6, 1.0e-7]))
    assert len(calls) == 2 * x.size
    exact = np.array([[x[1], x[0], 0.0], [0.0, 2.0 * x[1], 1.0],
                      [math.cos(x[0]), 0.0, 0.0]])
    np.testing.assert_allclose(J, exact, atol=1.0e-8)

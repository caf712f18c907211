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


def shifted_history(grid, b, Gamma, tau0=TAU0):
    """Closed-form normal form with (b, Gamma) already applied, on
    [1.25 tau0, 0.75 tau0]."""

    def fn(y, phi, tau):
        scaled = (y / (1.0 + b)) ** 2 - 4.0
        return (1.0 + b) * (
            SQRT2 - scaled / (SQRT8 * (1.0 + Gamma) * abs(tau))
        ) + 0.0 * phi

    return SyntheticHistory(fn, grid, (tau0 * 1.25, tau0 * 0.75))


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


def test_translation_is_a_plane_vector(base):
    """alpha lives in the symmetry plane, as transform_full's a does: a
    translation of 0, 1 or 3 components is refused, from the constructor
    and from from_renormalized, and solve_psi's plane vectors pass."""
    for alpha in [(), (1.0,), (1.0, 2.0, 3.0)]:
        with pytest.raises(ParameterError, match="plane vector"):
            TransformParams(alpha=alpha, beta=0.0, gamma=0.0)
        with pytest.raises(ParameterError, match="plane vector"):
            TransformParams.from_renormalized(TAU0, a=alpha)
    for mode in (TWO_PARAM, FOUR_PARAM):
        sol = solve_psi(base, TAU0, mode=mode)
        assert len(sol.alpha) == 2 and sol.a(TAU0).shape == (2,)


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
    """solve_psi's Newton loop, on its pairing map and in its box, finds
    the zero that solve_psi finds from zero from every start in the box."""
    H = shifted_history(grid, 8.0e-4, 3.0e-2)
    ref = solve_psi(H, TAU0)
    F, steps = recenter._pairing_map(H, TAU0, TWO_PARAM)
    radius_sq = 100.0 * max(measure_kappa(H, TAU0), 1.0e-8) ** 2
    rng = np.random.default_rng(11)
    for _ in range(20):
        start = np.array(
            [rng.uniform(-0.02, 0.02), rng.uniform(-0.15, 0.15)]
        )
        assert recenter._in_box(start, TAU0, radius_sq)
        b, Gamma = recenter._newton(F, start, steps, TWO_PARAM, TAU0, radius_sq)
        sol = TransformParams.from_renormalized(TAU0, b=b, Gamma=Gamma)
        assert abs(sol.b(TAU0) - ref.b(TAU0)) < 1.0e-8
        assert abs(sol.Gamma(TAU0) - ref.Gamma(TAU0)) < 1.0e-8


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
    # the start residual and dim one-sided Jacobian columns, then one trial
    # per iteration: two at least, and four as measured (7 psi2 calls, 9
    # psi4), every step after the first from the Broyden-updated Jacobian
    assert 1 + dim + 2 <= calls[name] <= 1 + dim + 4
    assert calls[({"psi2", "psi4"} - {name}).pop()] == 0


def test_solver_budget_and_guards(grid, base, monkeypatch):
    with pytest.raises(ParameterError):
        solve_psi(base, TAU0, mode="five-param")
    with pytest.raises(ParameterError):
        solve_psi(base, 100.0)
    monkeypatch.setattr(recenter, "_MAX_ITER", 0)
    with pytest.raises(BudgetError):
        solve_psi(shifted_history(grid, 8.0e-4, 3.0e-2), TAU0)


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
    # the start residual, one call per column of the fresh one-sided
    # Jacobian and its first trial
    assert len(calls) == 4


@pytest.mark.filterwarnings("ignore:.*clamped to the boundary ring")
@pytest.mark.parametrize("error, history, max_iter, first", [
    (CoverageError, _short_history, 50, r"time \S+ outside history \[-100\.5, -99\.5\]"),
    (DegeneracyError, _outward_history, 50, r"psi2 Jacobian determinant \S+ <= 0"),
    (BudgetError, lambda g: shifted_history(g, 8.0e-4, 3.0e-2), 0, r"no convergence in 0"),
], ids=["coverage", "degeneracy", "budget"])
def test_solver_errors_name_kappa_and_the_box(grid, error, history, max_iter, first,
                                              monkeypatch):
    """A refusal of solve_psi keeps its type and its own text first, then
    names kappa and the radius 10 kappa of the search box."""
    H = history(grid)
    kappa = max(measure_kappa(H, TAU0), 1.0e-8)
    monkeypatch.setattr(recenter, "_MAX_ITER", max_iter)
    with pytest.raises(error) as info:
        solve_psi(H, TAU0)
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


def _recording(F):
    """F, and the list of the points it is evaluated at."""
    points = []

    def wrapped(x):
        points.append(x.copy())
        return F(x)

    return wrapped, points


def test_newton_halves_a_step_that_leaves_the_box():
    """From b = 0.1 the Newton step on b^3 = 1/8 lands at b = 4.23, outside
    the unit box (tau0 = -1); it is halved back in, no point outside the
    box is evaluated, and the loop still finds b = 1/2.  A halved step is
    not carried by Broyden's update: the next Jacobian is fresh."""
    steps = (1.0e-7, 1.0e-6)
    F, points = _recording(lambda x: np.array([x[0] ** 3 - 0.125, x[1]]))
    x = recenter._newton(F, np.array([0.1, 0.0]), steps, TWO_PARAM, -1.0, 1.0)
    assert np.abs(x - [0.5, 0.0]).max() < 1.0e-9
    assert all(recenter._in_box(p, -1.0, 1.0) for p in points)
    assert max(p[0] for p in points) < 1.0
    # the step 0.124/0.03 halved three times, then fresh columns there
    assert points[3][0] == pytest.approx(0.1 + 0.124 / 0.03 / 8.0, rel=1.0e-6)
    assert _columns_at(points, 4, points[3], steps)


def test_newton_pinned_to_the_box_boundary_is_a_budget_error():
    """The zero of x - (2, 0) lies outside the unit box: the first step is
    halved onto the boundary, and the next points out of the box at
    every length."""
    with pytest.raises(BudgetError, match="pinned to the box boundary"):
        recenter._newton(lambda x: x - np.array([2.0, 0.0]), np.zeros(2),
                         (1.0e-7, 1.0e-6), TWO_PARAM, -1.0, 1.0)


def test_newton_damping_gives_up_after_30_halvings():
    """(1 + b^2, Gamma) has no zero.  At b = 1e-6 its one-sided Jacobian
    is 2b + h = 2.1e-6, so the Newton step shoots to b = -4.8e5, and a
    point nearer the minimum at b = 0 needs lam < 4.2e-12: every one of
    the 30 halvings raises the residual, whether they start from lam = 1
    (box radius 1e6, which does not bind) or from the lam = 2^-6 that a
    box of radius 1e4 leaves, and so pass lam = 1e-10 on the way."""
    for radius, lam in ((1.0e6, 1.0), (1.0e4, 2.0**-6)):
        F, points = _recording(lambda x: np.array([1.0 + x[0] ** 2, x[1]]))
        with pytest.raises(BudgetError, match="damping failed to reduce the residual"):
            recenter._newton(F, np.array([1.0e-6, 0.0]), (1.0e-7, 1.0e-6), TWO_PARAM,
                             -1.0, radius**2)
        # the start, one point per Jacobian column and the 30 trials
        assert len(points) == 1 + 2 + 30
        assert points[3][0] == pytest.approx(1.0e-6 - lam / 2.1e-6, rel=1.0e-3)


def test_newton_never_accepts_a_step_that_raises_the_residual():
    """(1 + b^2, Gamma) from b = 1e-6 in the unit box (tau0 = -1): the box
    cuts the first step to lam = 2^-19, and the trials must pass
    lam = 1e-10 before one lowers |F|.  Every iterate the loop moves to
    has a lower |F| than the one before; the loop then stops at b < 0,
    where the one-sided psi2 determinant 2b + h is negative."""
    F, points = _recording(lambda x: np.array([1.0 + x[0] ** 2, x[1]]))
    with pytest.raises(DegeneracyError, match="psi2 Jacobian determinant"):
        recenter._newton(F, np.array([1.0e-6, 0.0]), (1.0e-7, 1.0e-6), TWO_PARAM,
                         -1.0, 1.0)
    # each iterate's Gamma column is the only point with Gamma != 0
    iterates = [p[0] for p in points if p[1] != 0.0]
    assert len(iterates) == 2
    assert abs(iterates[1]) < abs(iterates[0])


@pytest.mark.parametrize("mode", [TWO_PARAM, FOUR_PARAM])
def test_newton_calls_the_map_n_plus_1_times_then_once_per_iteration(mode):
    """On x_k + x_k^3 = c_k with its zero at x = (0.5, -0.25, ...), every
    full step lowers |F|: the loop calls F at the start and at x + h_k e_k
    for each of the n one-sided columns, then once per iteration, at the
    full step from the Jacobian that Broyden's good update carries, which
    becomes the next iterate.  No column is central and none is redone."""
    n = 2 if mode == TWO_PARAM else 4
    zero = np.array([0.5, -0.25, 0.375, -0.125])[:n]
    steps = (1.0e-7, 1.0e-6, 1.0e-7, 1.0e-6)[:n]
    G = lambda x: x + x**3 - (zero + zero**3)
    F, points = _recording(G)
    x = recenter._newton(F, np.zeros(n), steps, mode, -1.0, 1.0e6)
    assert np.abs(x - zero).max() < 1.0e-10
    start, columns, iterates = points[0], points[1:n + 1], points[n + 1:]
    assert _columns_at(points, 1, start, steps)
    assert len(iterates) >= 5
    res = G(start)
    J = np.column_stack([(G(c) - res) / h for c, h in zip(columns, steps)])
    prev = start
    for nxt in iterates:
        s = nxt - prev
        np.testing.assert_allclose(s, np.linalg.solve(J, -res), rtol=1.0e-9, atol=1.0e-15)
        new = G(nxt)
        assert np.linalg.norm(new) < np.linalg.norm(res)
        J = J + np.outer(new - res - J @ s, s) / (s @ s)
        prev, res = nxt, new
    assert np.array_equal(prev, x)


def _in_four(g):
    """The map (a1, a2, g(b, Gamma)) of the psi4 vector (a1, a2, b, Gamma):
    from a = 0 every step keeps a = 0, so the loop runs g's iterates with
    four one-sided columns per fresh Jacobian."""
    return lambda x: np.array([x[0], x[1], *g(x[2], x[3])])


def _columns_at(points, at, x, steps):
    """Whether points[at:] opens with the one-sided Jacobian columns at x,
    x + h_k e_k for each step h_k."""
    n = len(steps)
    return len(points) >= at + n and all(
        np.array_equal(points[at + k], x + steps[k] * np.eye(n)[k]) for k in range(n))


def _steep(b, Gamma):
    """(b - 1, (Gamma - 1)/100 - b^2/10): from 0 the first full step lands
    at b = 1 with |F| = 0.1, and the Broyden update there swaps the sign of
    the Jacobian's determinant, det J1 = (1 - 5) det J0.  The fresh
    Jacobian at b = 1 has determinant 1/100 and reaches the zero
    (1, 11) in one step."""
    return np.array([b - 1.0, 0.01 * (Gamma - 1.0) - 0.1 * b * b])


@pytest.mark.parametrize("refusal", ["uphill", "coverage"])
def test_newton_redoes_a_failed_updated_step_from_fresh_columns(refusal):
    """On _steep in the psi4 vector the updated step from b = 1 goes to
    Gamma = -1.5 and raises |F| from 0.1 to 0.125.  That trial is not
    damped: the iterate is redone from four fresh one-sided columns, whose
    step reaches the zero.  A history that holds only Gamma >= -1.2 refuses
    the same trial with its CoverageError, and the loop redoes it the same
    way: the refusal is raised only from a fresh Jacobian."""
    steps = (1.0e-6, 1.0e-6, 1.0e-7, 1.0e-6)
    G = _in_four(_steep)

    def covered(x):
        if refusal == "coverage" and x[3] < -1.2:
            raise CoverageError(f"time of Gamma = {x[3]:g} outside the history")
        return G(x)

    F, points = _recording(covered)
    x = recenter._newton(F, np.zeros(4), steps, FOUR_PARAM, -1.0, 1.0e6)
    assert np.abs(x - [0.0, 0.0, 1.0, 11.0]).max() < 1.0e-6
    # start, 4 columns, the full first step, the failed updated trial,
    # 4 fresh columns at the first step, and the step to the zero
    assert len(points) == 12
    assert points[6][3] == pytest.approx(-1.5, rel=1.0e-5)
    assert np.linalg.norm(G(points[6])) > np.linalg.norm(G(points[5]))
    assert _columns_at(points, 7, points[5], steps)
    assert np.array_equal(points[-1], x)


def test_newton_refuses_only_a_fresh_nonpositive_determinant():
    """On _steep the updated psi2 Jacobian at b = 1 has a negative
    determinant, so the loop takes no trial from it and forms a fresh one
    there, whose determinant is positive: no DegeneracyError, and the zero
    is found.  With the Gamma slope 1/100 - b/50 the fresh determinant at
    the first step is negative too, after an updated trial that raised
    |F|; that one raises, after the fresh columns."""
    steps = (1.0e-7, 1.0e-6)
    F, points = _recording(lambda x: _steep(*x))
    x = recenter._newton(F, np.zeros(2), steps, TWO_PARAM, -1.0, 1.0e6)
    assert np.abs(x - [1.0, 11.0]).max() < 1.0e-6
    # start, 2 columns, the first step, 2 fresh columns there, the zero
    assert len(points) == 7
    assert _columns_at(points, 4, points[3], steps)

    F, points = _recording(lambda x: _steep(*x) - [0.0, 0.02 * x[0] * (x[1] - 1.0)])
    with pytest.raises(DegeneracyError, match=r"psi2 Jacobian determinant -0\.01 <= 0"):
        recenter._newton(F, np.zeros(2), steps, TWO_PARAM, -1.0, 1.0e6)
    # start, 2 columns, the first step, the uphill updated trial, and the
    # 2 fresh columns whose determinant is refused
    assert len(points) == 7
    assert _columns_at(points, 5, points[3], steps)


def test_newton_damping_budget_comes_only_from_a_fresh_jacobian():
    """(1 + (b - 1)^2, Gamma) in the psi4 vector: the first full step
    lands on the minimum b = 1 of |F|, where no step lowers |F|.  The
    updated step (to b = 2) fails in its one trial and is not halved; the
    fresh Jacobian at b = 1 then spends its 30 halvings and raises the
    damping BudgetError."""
    steps = (1.0e-6, 1.0e-6, 1.0e-7, 1.0e-6)
    F, points = _recording(_in_four(lambda b, Gamma: (1.0 + (b - 1.0) ** 2, Gamma)))
    with pytest.raises(BudgetError, match="damping failed to reduce the residual"):
        recenter._newton(F, np.zeros(4), steps, FOUR_PARAM, -1.0, 1.0e6)
    # start, 4 columns, the first step, the one updated trial, 4 fresh
    # columns and 30 damped trials
    assert len(points) == 1 + 4 + 1 + 1 + 4 + 30
    assert points[6][2] == pytest.approx(2.0, rel=1.0e-6)
    assert _columns_at(points, 7, points[5], steps)


def _full_newton(F, x, steps, mode, tau0, radius_sq):
    """Newton with a fresh one-sided Jacobian at every iteration, the box
    and 30 halvings: the loop solve_psi ran before Broyden's update, kept
    as the oracle of the updated one."""
    res = F(x)
    for _ in range(recenter._MAX_ITER):
        base = float(np.linalg.norm(res))
        if base < recenter.PSI_TOL:
            return x
        J = _fd_jacobian(F, x, steps, res)
        assert mode == FOUR_PARAM or recenter._det2(J) > 0.0
        d = np.linalg.solve(J, -res)
        lam = 1.0
        while not recenter._in_box(x + lam * d, tau0, radius_sq):
            lam *= 0.5
        for _ in range(30):
            trial = F(x + lam * d)
            if float(np.linalg.norm(trial)) < base:
                break
            lam *= 0.5
        else:
            raise AssertionError("oracle damping failed")
        x = x + lam * d
        res = trial
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("mode", [TWO_PARAM, FOUR_PARAM])
@pytest.mark.parametrize("tau0", [-100.0, -80.0, -60.0])
def test_updated_newton_agrees_with_full_newton(grid, tau0, mode):
    """On the shifted normal form solve_psi's (a, b, Gamma) agree with the
    full-Newton oracle to 1e-9, and the pairing map at the returned point
    is below PSI_TOL."""
    H = shifted_history(grid, 8.0e-4, 3.0e-2, tau0)
    sol = solve_psi(H, tau0, mode=mode)
    got = np.array([*sol.a(tau0), sol.b(tau0), sol.Gamma(tau0)])
    F, steps = recenter._pairing_map(H, tau0, mode)
    radius_sq = 100.0 * max(measure_kappa(H, tau0), 1.0e-8) ** 2
    want = _full_newton(F, np.zeros(len(steps)), steps, mode, tau0, radius_sq)
    if mode == TWO_PARAM:
        want = np.concatenate([[0.0, 0.0], want])
    assert np.abs(got - want).max() < 1.0e-9
    assert np.linalg.norm(F(got if mode == FOUR_PARAM else got[2:])) < recenter.PSI_TOL


@pytest.mark.parametrize("one_sided", [False, True], ids=["central", "one-sided"])
def test_fd_jacobian_calls_per_parameter(one_sided):
    """Central columns take two calls each and are O(h^2) accurate;
    given F(x), one-sided columns take one call each, and column k is
    off by at most h_k max|d^2F/dx_k^2| / 2 plus roundoff, here
    (1.5e-7, 1e-6, 0) from sin'' = -sin 0.3 and (x_1^2)'' = 2."""
    calls = []

    def F(x):
        calls.append(x.copy())
        return np.array([x[0] * x[1], x[1] ** 2 + x[2], math.sin(x[0])])

    x = np.array([0.3, -1.2, 2.0])
    steps = np.array([1.0e-6, 1.0e-6, 1.0e-7])
    fx = np.array([x[0] * x[1], x[1] ** 2 + x[2], math.sin(x[0])]) if one_sided else None
    J = _fd_jacobian(F, x, steps, fx)
    exact = np.array([[x[1], x[0], 0.0], [0.0, 2.0 * x[1], 1.0],
                      [math.cos(x[0]), 0.0, 0.0]])
    if not one_sided:
        assert len(calls) == 2 * x.size
        np.testing.assert_allclose(J, exact, atol=1.0e-8)
        return
    assert len(calls) == x.size
    curvature = np.array([math.sin(x[0]), 2.0, 0.0])
    assert np.all(np.abs(J - exact) <= steps * curvature / 2.0 + 1.0e-8)
    # the bound is attained to first order: the error is O(h), not O(h^2)
    assert abs(J[1, 1] - exact[1, 1]) == pytest.approx(steps[1], rel=1.0e-2)

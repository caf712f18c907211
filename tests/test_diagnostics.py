"""Diagnostics against hand-derived closed forms.

The sphere slice V^2 = 6|t| - y^2 and the quadratic profile
w = 2 - (y^2 - 4)/|tau| make every finite-difference stencil exact, so
most checks here compare to pencil-and-paper values at tight
tolerances.  The frozen decimals were computed independently before the
module existed; see the individual docstrings for the derivations.
"""

import math
import os

import numpy as np
import pytest

from ovalab.diagnostics import (
    DENSITY_NECK,
    DENSITY_SHEET,
    SQRT2,
    asymptotics_report,
    collar_deviation,
    concavity_margin,
    cylindrical_estimate,
    huisken_density,
)
from ovalab.errors import CoverageError, DomainError, ParameterError
from ovalab.evolve import V_FLOOR, FlowHistory, FlowState, TipField, run
from ovalab.grid import (
    THETA,
    ScalarField,
    build_grid,
    diff_phi_fft,
    load_field,
    rim_index,
    save_field,
    signed_square,
)
from ovalab.shrinkers import (
    bubble_sheet_field,
    neck_field,
    normal_form_field,
    solve_bowl,
    sphere_field,
)


# Gaussian density of the round shrinking 3-sphere (radius sqrt(6|t|)):
# area 2 pi^2 (6)^(3/2) against (4 pi)^(-3/2) e^(-6/4), which collapses
# to sqrt(pi) 6^(3/2) / 4 * exp(-3/2).
DENSITY_SPHERE = math.sqrt(math.pi) * 6.0**1.5 / 4.0 * math.exp(-1.5)


def quadratic_profile_field(grid, tau):
    """w = 2 - (y^2 - 4)/|tau|, the collar-accurate model body."""
    w = (2.0 - (grid.y[:, None] ** 2 - 4.0) / abs(tau)) * np.ones(
        (1, grid.n_phi)
    )
    return ScalarField(grid, np.sqrt(np.maximum(w, 0.0)), w_signed=w)


def plain_state(field, tau):
    return FlowState(
        time=tau, v=field, tip=None, renormalized=True, L=10.0
    )


# ---------------------------------------------------------------------------
# regions and reference states


def test_normal_form_field_rejects_forward_time():
    g = build_grid(32, 8, 6.0)
    with pytest.raises(ParameterError):
        normal_form_field(g, 1.0)


# ---------------------------------------------------------------------------
# sharp asymptotics


def test_parabolic_distance_vanishes_on_the_quadratic_bulge():
    g = build_grid(192, 48, 12.0)
    st = plain_state(normal_form_field(g, -100.0), -100.0)
    rep = asymptotics_report(st, 0.25, None)
    assert rep.parabolic == 0.0
    assert math.isnan(rep.tip)
    assert rep.epsilon == 0.25


def test_intermediate_distance_vanishes_on_the_sqrt_profile():
    tau = -100.0
    g = build_grid(256, 32, 15.0)
    w = 2.0 - (g.y[:, None] / math.sqrt(-tau)) ** 2 * np.ones((1, 32))
    f = ScalarField(g, np.sqrt(np.maximum(w, 0.0)), w_signed=w)
    rep = asymptotics_report(plain_state(f, tau), 0.25, None)
    assert rep.intermediate == 0.0
    # the same field is far from the quadratic bulge, so the report
    # separates the two regimes
    assert rep.parabolic > 1.0


def test_tip_distance_vanishes_against_the_generating_bowl():
    tau = -50.0
    bowl = solve_bowl()
    v_nodes = np.linspace(0.0, 2.0 * THETA, 33)
    s = math.sqrt(-tau)  # the bowl cap matched at tau: Z(s v) / s
    Y = math.sqrt(2.0 * -tau) + bowl(s * v_nodes) / s
    tip = TipField(Y[:, None] * np.ones((1, 16)))
    g = build_grid(64, 16, 10.0)
    st = FlowState(
        time=tau,
        v=normal_form_field(g, tau),
        tip=tip,
        renormalized=True,
        L=10.0,
    )
    rep = asymptotics_report(st, 0.25, bowl)
    assert rep.tip < 1.0e-12


def test_asymptotics_takes_final_history_state():
    g = build_grid(96, 16, 12.0)
    hist = FlowHistory()
    hist.append(plain_state(normal_form_field(g, -80.0), -80.0))
    rep = asymptotics_report(hist.states[-1], 0.25, None)
    assert rep.parabolic == 0.0


def test_asymptotics_guard_rails():
    g = build_grid(96, 16, 12.0)
    st = plain_state(normal_form_field(g, -80.0), -80.0)
    with pytest.raises(ParameterError):
        asymptotics_report(st, 1.5, None)
    with pytest.raises(CoverageError, match="plane window"):
        asymptotics_report(st, 0.05, None)  # needs y_max >= 20
    # the plane window y <= 4 fits in y_max = 8, the intermediate one,
    # y <= sqrt(80) (sqrt(2) - 1/4) = 10.4, does not
    short = plain_state(normal_form_field(build_grid(48, 16, 8.0), -80.0), -80.0)
    with pytest.raises(CoverageError, match="intermediate window"):
        asymptotics_report(short, 0.25, None)
    fwd = FlowState(
        time=1.0, v=st.v, tip=None, renormalized=True, L=10.0
    )
    with pytest.raises(ParameterError):
        asymptotics_report(fwd, 0.25, None)


# ---------------------------------------------------------------------------
# almost concavity


def test_cylinder_margin_is_minus_gamma_minus_delta():
    """On V = const the corrected Hessian is -(gamma+delta) times the
    flat metric, so every node carries that eigenvalue.  The double
    root costs sqrt(roundoff) through the discriminant."""
    t = -math.e**2
    delta = 0.01
    g = build_grid(96, 24, 8.0)
    V = np.full(g.shape, math.sqrt(2.0 * -t))
    rep = concavity_margin(ScalarField(g, V, w_signed=V**2), t, delta)
    gamma = ((-t) / math.log(-t)) ** 1.5 / math.sqrt(2.0 * -t) ** 3
    assert abs(rep.worst - (-(gamma + delta))) < 1.0e-8
    assert np.nanmax(rep.margins) - np.nanmin(rep.margins) < 1.0e-8


def test_sphere_margin_matches_the_radial_closed_form():
    """For V^2 = 6|t| - y^2 the pencil's eigenvalues are
    2y^2/(3|t|) - 2 - gamma - delta (radial) and
    y^2/(3|t|) - 2 - gamma - delta (tangential); the radial one always
    wins.  The quadric makes the stencils exact, so agreement is at
    roundoff."""
    t = -math.e**2
    delta = 0.01
    g = build_grid(128, 32, 7.5)
    w = 6.0 * -t - g.y[:, None] ** 2 * np.ones((1, 32))
    f = ScalarField(g, np.sqrt(np.maximum(w, 0.0)), w_signed=w)
    rep = concavity_margin(f, t, delta)
    V = np.sqrt(np.maximum(w[:, 0], 0.0))
    gamma = ((-t) / math.log(-t)) ** 1.5 / np.where(V > 0.0, V, 1.0) ** 3
    lam = 2.0 * g.y**2 / (3.0 * -t) - 2.0 - gamma - delta
    sel = V >= 0.5
    assert np.abs(rep.margins[sel, :] - lam[sel, None]).max() < 1.0e-8


def test_sphere_margin_at_the_center_frozen_value():
    """At y = 0 the weight is gamma = (6 log(-t))^(-3/2), independent of
    the radius scale; at t = -e^2 that is 12^(-3/2), so the margin is
    -2 - 12^(-3/2) - delta = -2.0340562612... with delta = 0.01."""
    t = -math.e**2
    g = build_grid(128, 16, 7.5)
    w = 6.0 * -t - g.y[:, None] ** 2 * np.ones((1, 16))
    f = ScalarField(g, np.sqrt(np.maximum(w, 0.0)), w_signed=w)
    rep = concavity_margin(f, t, 0.01)
    assert rep.margins[0, 0] == pytest.approx(-2.0340562612, abs=1.0e-9)


def test_sphere_margin_goes_positive_near_the_rim():
    # spheres are not almost concave in this sense: the radial
    # eigenvalue reaches 2 - gamma - delta at the rim
    t = -math.e**2
    g = build_grid(128, 16, 7.5)
    w = 6.0 * -t - g.y[:, None] ** 2 * np.ones((1, 16))
    f = ScalarField(g, np.sqrt(np.maximum(w, 0.0)), w_signed=w)
    rep = concavity_margin(f, t, 0.01)
    assert rep.worst > 0.5
    assert rep.worst_y > 5.5


def test_concavity_labels_and_guards():
    t = -math.e**2
    g = build_grid(128, 8, 7.5)
    w = 6.0 * -t - g.y[:, None] ** 2 * np.ones((1, 8))
    f = ScalarField(g, np.sqrt(np.maximum(w, 0.0)), w_signed=w)
    rep = concavity_margin(f, t, 0.0)
    # margins are NaN exactly off the body, where the slice has no graph
    outside = f.values <= V_FLOOR
    assert outside.any()
    assert np.array_equal(np.isnan(rep.margins), outside)
    with pytest.raises(DomainError):
        concavity_margin(f, -1.0, 0.01)
    with pytest.raises(ParameterError):
        concavity_margin(f, t, -0.5)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_concavity_refuses_a_non_finite_delta(delta):
    """A NaN delta passed `delta < 0` and gave worst = nan."""
    t = -math.e**2
    g = build_grid(32, 8, 7.5)
    w = 6.0 * -t - g.y[:, None] ** 2 * np.ones((1, 8))
    with pytest.raises(ParameterError, match="finite"):
        concavity_margin(ScalarField.from_square(g, w), t, delta)


def test_concavity_margin_needs_a_body():
    # no node above V_FLOOR: there is no margin to report
    g = build_grid(32, 8, 3.0)
    with pytest.raises(CoverageError):
        concavity_margin(ScalarField(g, np.zeros(g.shape)), -10.0, 0.0)


# ---------------------------------------------------------------------------
# collar and cylindrical estimates


def test_collar_deviation_on_the_quadratic_profile():
    """y w_y + 4 = 4 - 2 y^2/|tau| exactly, and the sup over the collar
    band approaches 2 (2 theta)^2 = 0.32 from below as tau -> -inf."""
    tau = -2000.0
    g = build_grid(768, 16, math.sqrt(-tau) * 1.43)
    f = quadratic_profile_field(g, tau)
    rep = collar_deviation(f, tau, 10.0)
    v = f.values[:, 0]
    band = (v >= 10.0 / math.sqrt(-tau)) & (v <= 2.0 * THETA)
    expected = np.abs(4.0 - 2.0 * g.y[band] ** 2 / -tau).max()
    assert rep.deviation == pytest.approx(expected, abs=1.0e-10)
    assert 0.30 < rep.deviation < 0.32
    assert rep.nodes == int(band.sum()) * g.n_phi


def test_collar_deviation_flags_the_sphere(tmp_path):
    # |4 - 2y^2| is about 8 near the sphere rim where the collar band
    # sits, a loud failure compared with the quadratic profile
    g = build_grid(256, 16, 3.2)
    f = sphere_field(g)
    rep = collar_deviation(f, -3000.0, 10.0)
    assert rep.deviation > 7.0
    # the band reaches the rim row, so a field read back from disk has
    # to see the same continuation of W there
    path = os.path.join(tmp_path, "sphere.npz")
    save_field(f, path)
    back = collar_deviation(load_field(path), -3000.0, 10.0)
    assert abs(back.deviation - rep.deviation) < 1.0e-12


def test_collar_guards():
    g = build_grid(64, 8, 3.2)
    f = sphere_field(g)
    with pytest.raises(ParameterError):
        collar_deviation(f, 0.0, 10.0)
    with pytest.raises(CoverageError):
        collar_deviation(f, -4.0, 10.0)  # band [5, 0.4] is empty


def test_cylindrical_estimate_vanishes_on_the_product_soliton():
    f = bubble_sheet_field(build_grid(128, 32, 9.0))
    assert cylindrical_estimate(f, -100.0, 10.0) < 1.0e-13


def test_cylindrical_estimate_frozen_and_bounded():
    """On the quadratic profile the largest term is |v_y| at the inner
    region edge, which tends to sqrt(2)/L from below as tau -> -inf."""
    vals = {}
    for tau in (-100.0, -200.0, -400.0):
        g = build_grid(512, 32, math.sqrt(-tau) * 1.40)
        est = cylindrical_estimate(quadratic_profile_field(g, tau), tau, 10.0)
        vals[tau] = est
        assert est < SQRT2 / 10.0
    assert vals[-100.0] == pytest.approx(0.1014487691, abs=1.0e-8)
    assert vals[-100.0] < vals[-200.0] < vals[-400.0]


def test_cylindrical_estimate_empty_region():
    g = build_grid(64, 8, 3.2)
    with pytest.raises(CoverageError):
        cylindrical_estimate(sphere_field(g), -1.0, 10.0)
    with pytest.raises(ParameterError):
        cylindrical_estimate(sphere_field(g), 0.0, 10.0)


# ---------------------------------------------------------------------------
# Gaussian density


def test_density_of_the_plane_product_soliton():
    g = build_grid(512, 16, 20.0)
    W = np.full(g.shape, 2.0)
    f = ScalarField(g, np.sqrt(W), w_signed=W)
    assert huisken_density(f, 1.0, tail="flat") == pytest.approx(
        DENSITY_SHEET, abs=2.0e-4
    )


def test_density_flat_tail_restores_the_truncated_disk():
    # without the tail a disk of radius 3 loses exactly
    # exp(-9/4) of the sheet value
    g = build_grid(96, 8, 3.0)
    W = np.full(g.shape, 2.0)
    f = ScalarField(g, np.sqrt(W), w_signed=W)
    missing = DENSITY_SHEET * (1.0 - math.exp(-9.0 / 4.0))
    assert huisken_density(f, 1.0) == pytest.approx(missing, abs=2.0e-4)
    assert huisken_density(f, 1.0, tail="flat") == pytest.approx(
        DENSITY_SHEET, abs=2.0e-4
    )


def test_density_of_the_neck_strip():
    g = build_grid(768, 128, 12.0)
    f = neck_field(g)
    assert huisken_density(f, 1.0, tail="flat") == pytest.approx(
        DENSITY_NECK, abs=5.0e-4
    )


def test_density_of_the_round_sphere():
    g = build_grid(512, 16, 3.2)
    f = sphere_field(g)
    assert huisken_density(f, 1.0) == pytest.approx(
        DENSITY_SPHERE, abs=2.0e-6
    )


def test_density_ordering_of_the_three_models():
    # sphere < neck < sheet; the sphere is the smallest of the three
    assert DENSITY_SPHERE < DENSITY_NECK < DENSITY_SHEET


def test_density_guards():
    g = build_grid(64, 8, 3.2)
    f = sphere_field(g)
    with pytest.raises(ParameterError):
        huisken_density(f, 0.0)
    with pytest.raises(ParameterError):
        huisken_density(f, 1.0, tail="cone")


def test_density_converges_at_fourth_order():
    """Trapezoids of g = f y from the pole miss dy^2 f(0)/12 per angle;
    with that term the density converges at fourth order (it was second
    order without): on the normal form at tau = -50 against 384 cells,
    and on the bubble sheet with its flat tail against the closed form."""
    nf = {n: huisken_density(normal_form_field(build_grid(n, 8, 18.0), -50.0), 1.0)
          for n in (48, 96, 192, 384)}
    sheet = [huisken_density(bubble_sheet_field(build_grid(n, 8, 10.0)), 1.0, tail="flat")
             for n in (32, 64, 128)]
    for err in ([abs(nf[n] - nf[384]) for n in (48, 96, 192)],
                [abs(F - DENSITY_SHEET) for F in sheet]):
        orders = np.log2(np.array(err[:-1]) / np.array(err[1:]))
        assert np.all(orders >= 3.5), orders


def _density_loop(field, r, tail=None):
    """huisken_density as a per-angle loop: each column integrated by
    np.trapezoid up to its own rim crossing, plus the Euler-Maclaurin
    pole term dy^2 f(0)/12 of g = f y.  The pole's gradient is the m = 1
    content of the first ring over its radius, summed by hand."""
    grid, y = field.grid, field.grid.y
    W = signed_square(field)
    wy = grid.radial_derivative(W)[0]
    grad2 = np.empty_like(W)
    grad2[1:] = wy[1:] ** 2 + (diff_phi_fft(W[1:], order=1) / y[1:, None]) ** 2
    m1 = [2.0 / grid.n_phi * float(np.sum(W[1] * trig(grid.phi))) / y[1]
          for trig in (np.cos, np.sin)]
    grad2[0] = m1[0] ** 2 + m1[1] ** 2
    dens = np.where(W > 0.0, 2.0 * np.pi * np.sqrt(np.maximum(W, 0.0) + 0.25 * grad2)
                    * np.exp(-(y[:, None] ** 2 + np.maximum(W, 0.0)) / (4.0 * r**2)), 0.0)
    i0, n, total = rim_index(W), W.shape[0], 0.0
    for j in range(grid.n_phi):
        k = int(i0[j])
        if k == 0:
            continue
        total += (y[1] - y[0]) ** 2 / 12.0 * float(dens[0, j])
        if k >= n:
            total += float(np.trapezoid(dens[:, j] * y, y))
            if tail == "flat":
                total += float(dens[-1, j]) * 2.0 * r**2
            continue
        frac = W[k - 1, j] / (W[k - 1, j] - W[k, j])
        y_rim = y[k - 1] + frac * (y[k] - y[k - 1])
        wy_rim = wy[k - 1, j] + frac * (wy[k, j] - wy[k - 1, j])
        f_rim = np.pi * abs(wy_rim) * math.exp(-(y_rim**2) / (4.0 * r**2))
        ys = np.append(y[:k], y_rim)
        total += float(np.trapezoid(np.append(dens[:k, j], f_rim) * ys, ys))
    return (4.0 * math.pi * r**2) ** -1.5 * total * grid.dphi


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_density_matches_the_per_angle_loop_on_a_wobbled_ellipse(r):
    """Off-centre ellipse with an m = 3 wobble: its rim falls in
    different rows at different angles.  Then the off-centre sphere
    W = 6 - |y - (0.3, 0)|^2: |DW|^2 = 0.36 at the pole, which the radial
    difference down a single column reads as anything from 0 to 0.36."""
    g = build_grid(96, 32, 3.2)
    yy, pp = g.y[:, None], g.phi[None, :]
    w = (2.0 - ((yy * np.cos(pp) - 0.3) / 1.2) ** 2 - (yy * np.sin(pp) + 0.2) ** 2
         + 0.06 * yy**3 * np.cos(3.0 * (pp - 0.4)))
    assert len(set(rim_index(w).tolist())) > 5
    sphere = 6.0 - (yy * np.cos(pp) - 0.3) ** 2 - (yy * np.sin(pp)) ** 2
    for body in (w, sphere):
        f = ScalarField(g, np.sqrt(np.maximum(body, 0.0)), w_signed=body)
        assert huisken_density(f, r) == pytest.approx(_density_loop(f, r), rel=1.0e-12)


@pytest.mark.parametrize("tail", [None, "flat"])
def test_density_matches_the_per_angle_loop_past_the_outer_ring(tail):
    """A long ellipse that reaches the outer ring along its long axis
    and ends inside the grid across it."""
    g = build_grid(64, 16, 3.0)
    yy, pp = g.y[:, None], g.phi[None, :]
    w = 2.0 - 0.1 * (yy * np.cos(pp)) ** 2 - (yy * np.sin(pp)) ** 2
    f = ScalarField(g, np.sqrt(np.maximum(w, 0.0)), w_signed=w)
    k = rim_index(w)
    assert np.any(k > g.n_r) and np.any(k <= g.n_r)
    assert huisken_density(f, 1.0, tail=tail) == pytest.approx(
        _density_loop(f, 1.0, tail), rel=1.0e-12)


def test_density_profile_along_a_sphere_flow():
    """A self-shrinking sphere keeps its density constant; a short
    unrescaled run should reproduce the closed form at every scale and
    stay monotone up to discretization noise."""
    g = build_grid(128, 16, 3.2)
    st = FlowState(
        time=-1.0,
        v=sphere_field(g),
        tip=None,
        renormalized=False,
        L=10.0,
    )
    hist = run(st, -0.9, snapshot_every=0.025)
    dens = np.array([huisken_density(s.v, math.sqrt(-s.time))
                     for s in hist.states[::-1]])
    assert len(dens) == len(hist.states) > 2
    assert np.abs(dens - DENSITY_SPHERE).max() < 5.0e-4
    # states in reverse time order have increasing scales r = sqrt(-t)
    backslide = np.maximum(0.0, dens[:-1] - dens[1:]).max()
    assert backslide < 1.0e-4


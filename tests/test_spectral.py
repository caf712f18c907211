"""Eigenbasis quality, projections, and the derived spectral quantities.

Frozen closed forms used as oracles (hand-derived from the Gaussian
moments m_k = 2 4^k k!):

    ||1||^2 = 4 pi            ||y cos phi||^2 = 8 pi
    ||y^2 - 4||^2 = 64 pi     ||y^2 cos 2phi||^2 = 64 pi
    <y^2 cos 2phi, y^2 cos^2 phi - 2> = 32 pi
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovalab.errors import DegeneracyError, ParameterError
from ovalab.grid import THETA, ScalarField, build_grid, inner_product_H
from ovalab.shrinkers import bubble_sheet_field, normal_form_field
from ovalab.spectral import (
    EigenBasis,
    THEORY_NORMSQ,
    alpha_from_coeffs,
    apply_ou,
    bubble_sheet_Q,
    cutoff_profile,
    get_basis,
    project,
    quadratic_distance,
    spectral_report,
    sym2_eigenvalues,
    truncate,
    truncated_deviation,
    width_ratio,
)

SQRT2 = math.sqrt(2.0)
SQRT8 = math.sqrt(8.0)


@pytest.fixture(scope="module")
def fine_grid():
    return build_grid(1024, 64, 20.0)


@pytest.fixture(scope="module")
def fine_basis(fine_grid):
    return EigenBasis(fine_grid)


def test_gram_diagonals_and_offdiagonals(fine_basis):
    gram = fine_basis.gram()
    for k in range(6):
        rel = abs(gram[k, k] - THEORY_NORMSQ[k]) / THEORY_NORMSQ[k]
        assert rel < 1.0e-4, f"mode {k} norm off by {rel:.2e}"
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1.0e-8


def test_ou_eigenmode_residuals():
    g = build_grid(256, 64, 16.0)
    basis = EigenBasis(g)
    for k in range(6):
        f = basis.mode(k)
        resid = apply_ou(f).values - basis.eigenvalues[k] * f.values
        assert np.max(np.abs(resid[1:, :])) < 1.0e-6, basis.names[k]


def test_ou_discrete_self_adjointness():
    # the symmetry defect of the discrete operator scales as h^2;
    # this resolution puts it safely under the 1e-6 budget
    g = build_grid(6144, 32, 12.0)
    y = g.y[:, None]
    phi = g.phi[None, :]
    bump1 = np.exp(-((y - 4.0) ** 2)) * (1.0 + 0.5 * np.cos(phi))
    bump2 = np.exp(-((y - 5.0) ** 2)) * (1.0 - 0.3 * np.sin(2.0 * phi))
    f = ScalarField(g, bump1)
    h = ScalarField(g, bump2)
    lhs = inner_product_H(apply_ou(f), h)
    rhs = inner_product_H(f, apply_ou(h))
    assert abs(lhs - rhs) < 1.0e-6


def test_truncate_plateaus_and_monotonicity():
    g = build_grid(64, 8, 10.0)
    f = bubble_sheet_field(g)
    assert np.array_equal(truncate(f).values, f.values)
    low = f.with_values(np.full(g.shape, 0.1 * THETA))
    assert np.all(truncate(low).values == 0.0)
    ramp = np.linspace(0.0, 1.0, 201)
    chi = cutoff_profile(ramp)
    assert np.all(np.diff(chi) >= 0.0)
    assert chi.min() == 0.0 and chi.max() == 1.0
    assert np.all(chi[ramp <= 0.625 * THETA] == 0.0)
    assert np.all(chi[ramp >= 0.875 * THETA] == 1.0)


def test_truncated_deviation_is_the_cutoff_times_the_deviation():
    """truncated_deviation skips the cutoff where it is exactly 1, and is
    bit for bit cutoff_profile(v) (v - sqrt(2)): on a ramp through the
    band, at v = 0 and at 5/8 and 7/8 theta and their neighbouring floats."""
    g = build_grid(64, 16, 10.0)
    edges = [0.0, 0.625 * THETA, 0.875 * THETA]
    marks = edges + [np.nextafter(e, s) for e in edges[1:] for s in (0.0, 1.0)]
    v = np.linspace(0.0, 2.0 * SQRT2, g.shape[0] * g.shape[1]).reshape(g.shape)
    v.flat[:len(marks)] = marks
    got = truncated_deviation(ScalarField(g, v))
    want = cutoff_profile(v) * (v - SQRT2)
    assert got.tobytes() == want.tobytes()


def test_project_bubble_sheet_is_zero(fine_grid):
    c = project(bubble_sheet_field(fine_grid))
    assert np.max(np.abs(c)) < 1.0e-12


def test_project_normal_form(fine_grid):
    tau = -100.0
    c = project(normal_form_field(fine_grid, tau))
    target = -1.0 / (SQRT8 * 100.0)
    assert abs(c[3] - target) < 1.0e-6 * abs(target)
    a = alpha_from_coeffs(c)
    assert abs(a[0] - target) < 1.0e-6
    assert abs(a[1] - target) < 1.0e-6
    assert abs(a[0] - a[1]) < 1.0e-8
    assert abs(a[2]) < 1.0e-8


def test_project_unstable_mode(fine_grid):
    y = fine_grid.y[:, None]
    phi = fine_grid.phi[None, :]
    vals = SQRT2 + 0.01 * y * np.cos(phi)
    c = project(ScalarField(fine_grid, vals))
    assert abs(c[1] - 0.01) < 1.0e-8
    others = np.delete(c, 1)
    assert np.max(np.abs(others)) < 1.0e-8


def test_completeness_on_span(fine_grid, fine_basis):
    rng = np.random.default_rng(7)
    coeffs = 1.0e-3 * rng.standard_normal(6)
    vals = SQRT2 + np.tensordot(coeffs, fine_basis.functions, axes=(0, 0))
    f = ScalarField(fine_grid, vals)
    c = project(f)
    recon = np.tensordot(c, fine_basis.functions, axes=(0, 0))
    dev = recon - (vals - SQRT2)
    assert np.max(np.abs(dev)) < 1.0e-8


@pytest.mark.parametrize("tau", [math.nan, -math.inf])
def test_spectral_report_refuses_a_non_finite_time(tau):
    """A NaN tau passed `tau >= 0` and gave xi = (nan, nan)."""
    g = build_grid(32, 8, 6.0)
    with pytest.raises(ParameterError, match="negative and finite"):
        spectral_report(normal_form_field(g, -50.0), tau)


@pytest.mark.parametrize("tau", [math.nan, 0.0])
def test_quadratic_distance_refuses_a_time_off_the_ancient_axis(tau):
    """A NaN tau returned a NaN distance instead of being refused."""
    g = build_grid(32, 8, 8.0)
    with pytest.raises(ParameterError, match="negative and finite"):
        quadratic_distance(normal_form_field(g, -20.0), tau)


def test_spectral_report_consistency(fine_grid):
    tau = -100.0
    rep = spectral_report(normal_form_field(fine_grid, tau), tau)
    a1, a2, a3 = rep.alpha
    assert abs(rep.S - (a1 + a2)) < 1.0e-15
    assert abs(rep.D - (a1 * a2 - a3**2)) < 1.0e-15
    assert rep.Q[0][1] == rep.Q[1][0]
    assert abs(rep.xi[0] - (SQRT2 * tau * rep.S - 1.0)) < 1.0e-12
    assert abs(rep.xi[1] - (8.0 * tau**2 * rep.D - 1.0)) < 1.0e-12
    # the exact inward-quadratic state sits on the attractor
    assert abs(rep.xi[0]) < 1.0e-4
    assert abs(rep.xi[1]) < 1.0e-4
    q_eigs = rep.q_eigenvalues
    assert abs(q_eigs[0] + 1.0 / SQRT8) < 1.0e-4
    assert abs(q_eigs[1] + 1.0 / SQRT8) < 1.0e-4
    assert rep.residual_norm < 1.0e-8
    d = rep.as_dict()
    assert d["alpha"] == list(rep.alpha)


def test_bubble_sheet_Q_values():
    tau = -50.0
    target = -1.0 / (SQRT8 * 50.0)
    Q = bubble_sheet_Q([target, target, 0.0], tau)
    np.testing.assert_allclose(Q, -np.eye(2) / SQRT8, atol=1.0e-15)
    assert np.all(bubble_sheet_Q([0.0, 0.0, 0.0], tau) == 0.0)
    Q3 = bubble_sheet_Q([target, target, 0.5 * target], tau)
    eigs = sym2_eigenvalues(Q3)
    assert abs(eigs[0] - (-1.0 / SQRT8 + 0.5 / SQRT8)) < 1.0e-12
    assert abs(eigs[1] - (-1.0 / SQRT8 - 0.5 / SQRT8)) < 1.0e-12


def test_width_ratio_symmetric_and_perturbed(fine_grid):
    tau = -100.0
    base = normal_form_field(fine_grid, tau)
    assert abs(width_ratio(base) - 1.0) < 1.0e-12

    eps = 1.0e-3
    y2cos2 = fine_grid.y[:, None] ** 2 * np.cos(2.0 * fine_grid.phi[None, :])
    bent = base.with_values(base.values + eps * y2cos2)
    r = width_ratio(bent)
    # widening the y1 axis lowers the ratio: R ~ (base + 32 pi eps) /
    # (base - 32 pi eps) with base = 64 pi c3 / 2 < 0
    base_pair = 32.0 * math.pi * (-1.0 / (SQRT8 * 100.0))
    expect = (base_pair + 32.0 * math.pi * eps) / (base_pair - 32.0 * math.pi * eps)
    assert r < 1.0
    assert abs(r - expect) < 1.0e-3

    # swapping the plane axes (phi -> pi/2 - phi grid reflection) inverts R
    j = np.arange(fine_grid.n_phi)
    j_swap = (fine_grid.n_phi // 4 - j) % fine_grid.n_phi
    swapped = bent.with_values(bent.values[:, j_swap])
    assert abs(width_ratio(swapped) * r - 1.0) < 1.0e-10


def test_width_ratio_degeneracy():
    g = build_grid(64, 8, 10.0)
    f = ScalarField(g, np.zeros(g.shape))
    with pytest.raises(DegeneracyError):
        width_ratio(f)


def test_get_basis_caches(fine_grid):
    b1 = get_basis(fine_grid)
    b2 = get_basis(fine_grid)
    assert b1 is b2


def test_get_basis_does_not_keep_the_grid_alive():
    g = build_grid(32, 8, 10.0)
    get_basis(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


@settings(max_examples=25, deadline=None, database=None)
@given(
    k=st.integers(0, 31),
    shift=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    squeeze=st.floats(-0.3, 0.3),
    twist=st.floats(0.0, math.pi),
)
def test_project_commutes_with_rotation_by_whole_cells(k, shift, squeeze, twist):
    """Rolling a field by k angle cells turns the plane by k dphi: c0 and
    c3 stay, (c1, c2) turn by k dphi and (c4, c5) by 2 k dphi."""
    g = build_grid(96, 32, 10.0)
    x1 = g.y[:, None] * np.cos(g.phi)[None, :] - shift[0]
    x2 = g.y[:, None] * np.sin(g.phi)[None, :] - shift[1]
    c, s = math.cos(twist), math.sin(twist)
    r2 = (1.0 + squeeze) * (c * x1 + s * x2) ** 2 + (1.0 - squeeze) * (
        c * x2 - s * x1
    ) ** 2
    w = 2.0 - (r2 - 4.0) / 20.0
    f = ScalarField(g, np.sqrt(np.maximum(w, 0.0)))
    rolled = f.with_values(np.roll(f.values, k, axis=1))
    before = project(f)
    after = project(rolled)

    def turn(pair, angle):
        ca, sa = math.cos(angle), math.sin(angle)
        return np.array([ca * pair[0] - sa * pair[1], sa * pair[0] + ca * pair[1]])

    expect = np.concatenate([
        before[:1], turn(before[1:3], k * g.dphi),
        before[3:4], turn(before[4:6], 2 * k * g.dphi),
    ])
    np.testing.assert_allclose(after, expect, rtol=0.0,
                               atol=1.0e-12 * np.abs(before).max())

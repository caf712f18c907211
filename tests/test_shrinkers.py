"""Model-surface constructors and the bowl profile table.

The bowl integrator is checked against an independent scipy solve_ivp
integration started from the frozen quartic jet

    Z = -sqrt(2)/8 rho^2 - sqrt(2)/512 rho^4 + O(rho^6),

whose coefficients follow from matching powers of rho in the profile
ODE (derived by hand, frozen below).
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ovalab.errors import AccuracyError, ParameterError
from ovalab.grid import build_grid
from ovalab.shrinkers import (
    BowlProfile,
    EllipsoidSpec,
    bubble_sheet_field,
    ellipsoid_initial,
    neck_field,
    normal_form_field,
    solve_bowl,
    sphere_field,
)

SQRT2 = math.sqrt(2.0)
JET2 = -SQRT2 / 8.0
JET4 = -SQRT2 / 512.0


@pytest.fixture(scope="module")
def bowl():
    return solve_bowl(rho_max=100.0, drho=5.0e-3)


def _ivp_reference(rho0, rho1, drho_eval):
    def rhs(r, u):
        z, p = u
        return [p, -(1.0 + p * p) * (p / r + 1.0 / SQRT2)]

    z0 = JET2 * rho0**2 + JET4 * rho0**4
    p0 = 2.0 * JET2 * rho0 + 4.0 * JET4 * rho0**3
    sol = solve_ivp(
        rhs,
        (rho0, rho1),
        [z0, p0],
        method="RK45",
        rtol=1.0e-12,
        atol=1.0e-13,
        dense_output=True,
    )
    assert sol.success
    return sol


def test_bowl_against_scipy_reference(bowl):
    sol = _ivp_reference(0.05, 10.0, bowl.rho[1] - bowl.rho[0])
    for rho in (0.5, 1.0, 2.0, 5.0, 10.0):
        z_ref, p_ref = sol.sol(rho)
        assert abs(bowl(rho) - z_ref) < 1.0e-8
        assert abs(bowl.dZ(rho) - p_ref) < 1.0e-8


def test_bowl_jet_coefficients(bowl):
    # quadratic coefficient, mirrored from the acceptance gate
    assert abs(bowl(0.01) / 0.01**2 - JET2) < 1.0e-4
    # quartic correction visible once the quadratic part is removed
    rho = 0.05
    quartic = (bowl(rho) - JET2 * rho**2) / rho**4
    assert abs(quartic - JET4) < 5.0e-3 * abs(JET4) + 1.0e-6


def test_bowl_far_field_log_correction(bowl):
    rhos = np.linspace(10.0, 100.0, 46)
    ratio = (bowl(rhos) + SQRT2 * rhos**2 / 4.0) / np.log(rhos)
    assert np.all(np.isfinite(ratio))
    assert np.max(np.abs(ratio)) < 4.0
    # the correction is sqrt(2) log rho + O(1)
    assert abs(ratio[-1] - SQRT2) < 1.0


def test_bowl_monotone_concave(bowl):
    assert bowl.height[0] == 0.0
    assert bowl.slope[0] == 0.0
    assert np.all(bowl.slope[1:] < 0.0)
    assert np.all(np.diff(bowl.slope) < 0.0)
    assert np.all(np.diff(bowl.height) < 0.0)


def test_bowl_parameter_validation():
    with pytest.raises(ParameterError):
        solve_bowl(rho_max=0.5)
    with pytest.raises(AccuracyError):
        solve_bowl(drho=2.0e-2)
    with pytest.raises(ParameterError):
        solve_bowl(drho=0.0)


@pytest.mark.parametrize("kwargs", [{"drho": math.nan}, {"rho_max": math.nan},
                                    {"rho_max": math.inf}],
                         ids=["drho-nan", "rho_max-nan", "rho_max-inf"])
def test_bowl_refuses_non_finite_parameters(kwargs):
    """NaN passed every comparison and came out as a bare ValueError, and
    an infinite rho_max as an OverflowError, from sizing the table."""
    with pytest.raises(ParameterError):
        solve_bowl(**kwargs)


def test_bubble_sheet_constant():
    g = build_grid(32, 8, 10.0)
    f = bubble_sheet_field(g)
    assert np.all(f.values == SQRT2)
    assert np.all(f.w_signed == 2.0)


def test_sphere_profile_and_rim():
    g = build_grid(128, 8, 4.0)
    f = sphere_field(g)
    assert abs(f.values[0, 0] - math.sqrt(6.0)) < 1.0e-14
    outside = g.y > math.sqrt(6.0)
    assert np.all(f.values[outside, :] == 0.0)
    assert np.all(f.w_signed[outside, :] < 0.0)
    inside = g.y < math.sqrt(6.0)
    np.testing.assert_allclose(
        f.values[inside, :] ** 2, f.w_signed[inside, :], atol=1.0e-12
    )


def test_sphere_needs_containing_grid():
    g = build_grid(32, 8, 2.0)
    with pytest.raises(ParameterError):
        sphere_field(g)


def test_neck_axis_and_waist():
    g = build_grid(64, 16, 8.0)
    f = neck_field(g)
    np.testing.assert_allclose(f.values[:, 0], 2.0)
    j_waist = g.n_phi // 4
    assert abs(g.phi[j_waist] - math.pi / 2.0) < 1.0e-14
    waist = f.values[:, j_waist]
    assert np.all(waist[g.y > 2.0] == 0.0)
    expect = 4.0 - (g.y * math.sin(g.phi[1])) ** 2
    np.testing.assert_allclose(f.w_signed[:, 1], expect, atol=1.0e-12)


def test_normal_form_anchor_and_sign():
    g = build_grid(128, 8, 16.0)
    tau = -100.0
    f = normal_form_field(g, tau)
    k = np.argmin(np.abs(g.y - 2.0))
    assert g.y[k] == 2.0
    np.testing.assert_allclose(f.values[k, :], SQRT2, atol=1.0e-14)
    assert f.values[0, 0] > SQRT2
    assert np.all(np.diff(f.values[:, 0]) <= 1.0e-14)
    with pytest.raises(ParameterError):
        normal_form_field(g, 1.0)


def test_normal_form_carries_the_signed_continuation():
    g = build_grid(128, 8, 16.0)
    tau = -20.0
    f = normal_form_field(g, tau)
    v = SQRT2 - (g.y**2 - 4.0) / (math.sqrt(8.0) * abs(tau))
    outside = v < 0.0
    assert outside.any()
    assert np.all(f.values[outside, :] == 0.0)
    assert np.all(f.w_signed[outside, :] < 0.0)
    np.testing.assert_allclose(
        f.w_signed[:, 0], np.sign(v) * v**2, rtol=1.0e-14, atol=0.0
    )


def test_ellipsoid_round_case():
    g = build_grid(96, 8, 3.0)
    spec = EllipsoidSpec(a=0.5, ell=1.0, radius=1.0, t_start=-1.0)
    assert spec.plane_semi_axes() == (2.0, 2.0)
    f = ellipsoid_initial(g, spec)
    assert abs(f.values[0, 0] - 1.0) < 1.0e-14
    assert np.all(f.values[g.y > 2.0, :] == 0.0)
    # round case is phi-independent
    assert np.max(np.abs(f.values - f.values[:, :1])) < 1.0e-14


def test_ellipsoid_anisotropic_axes():
    g = build_grid(128, 16, 6.0)
    spec = EllipsoidSpec(a=0.4, ell=1.0, radius=1.0, t_start=-1.0)
    ax1, ax2 = spec.plane_semi_axes()
    assert abs(ax1 - 2.5) < 1.0e-14
    assert abs(ax2 - 1.0 / 0.6) < 1.0e-14
    f = ellipsoid_initial(g, spec)
    j_half = g.n_phi // 4
    rim_x1 = g.y[np.nonzero(f.values[:, 0])[0][-1]]
    rim_x2 = g.y[np.nonzero(f.values[:, j_half])[0][-1]]
    assert rim_x1 > rim_x2


def test_ellipsoid_validation():
    g = build_grid(32, 8, 1.5)
    with pytest.raises(ParameterError):
        ellipsoid_initial(g, EllipsoidSpec())  # grid too small
    for bad in (
        dict(a=0.0),
        dict(a=1.0),
        dict(ell=-1.0),
        dict(radius=0.0),
        dict(t_start=0.0),
        # each guard is `not (...)`, so NaN fails it as well
        dict(radius=math.nan),
        dict(ell=math.nan),
        dict(t_start=math.nan),
        dict(radius=math.inf),
        dict(ell=math.inf),
        dict(t_start=-math.inf),
    ):
        with pytest.raises(ParameterError):
            EllipsoidSpec(**bad)


def test_bowl_profile_interp_is_linear_table():
    prof = BowlProfile([0.0, 1.0, 2.0], [0.0, -1.0, -4.0], [0.0, -2.0, -4.0])
    assert prof(0.5) == -0.5
    assert prof.dZ(1.5) == -3.0
    assert prof.rho_max == 2.0

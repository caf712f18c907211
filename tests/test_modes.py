"""Model ODE systems: exact solutions, blow-up, convergence order.

The matrix Riccati flow has the closed-form solution
M(tau) = M0 (I + sqrt(8) M0 (tau - tau0))^{-1}, used as the oracle for
the alpha integrator; the scalar reduction provides blow-up times
-1/(sqrt(8) lambda) per negative eigenvalue lambda of M0.
"""

import math

import numpy as np
import pytest

from ovalab.errors import CoverageError, ParameterError
from ovalab.grid import build_grid
from ovalab.modes import (
    XI_LINEARIZATION,
    DeviationReport,
    ModeState,
    alpha_rhs,
    compare_with_flow,
    integrate,
    sd_rhs,
    sd_to_xi,
    xi_adapted_norm,
    xi_rhs,
    xi_to_sd,
)
from ovalab.recenter import normal_form_history
from ovalab.shrinkers import normal_form_field

SQRT2 = math.sqrt(2.0)
SQRT8 = math.sqrt(8.0)


def attractor_alpha(tau):
    """The inward-quadratic attractor alpha_j = 1/(sqrt(8) tau)."""
    return np.array([1.0 / (SQRT8 * tau), 1.0 / (SQRT8 * tau), 0.0])


def riccati_closed_form(alpha0, tau0, tau):
    """Exact Riccati solution M(tau) = M0 (I + sqrt(8) M0 (tau-tau0))^-1."""
    m0 = np.array(
        [[alpha0[0], alpha0[2]], [alpha0[2], alpha0[1]]], dtype=float
    )
    m = m0 @ np.linalg.inv(np.eye(2) + SQRT8 * m0 * (tau - tau0))
    return np.array([m[0, 0], m[1, 1], m[0, 1]])


def test_alpha_attractor_is_exact_solution():
    tau = -7.0
    a = attractor_alpha(tau)
    rhs = alpha_rhs(a)
    assert abs(rhs[0] - (-1.0 / (SQRT8 * tau * tau))) < 1.0e-15
    assert abs(rhs[1] - rhs[0]) < 1.0e-16
    assert rhs[2] == 0.0
    assert np.all(alpha_rhs(np.zeros(3)) == 0.0)


def test_alpha_integration_stays_on_attractor():
    tau0, tau1 = -20.0, -10.0
    tr = integrate("alpha", attractor_alpha(tau0), (tau0, tau1), 0.01)
    assert not tr.blew_up
    for k, t in enumerate(tr.t):
        np.testing.assert_allclose(
            tr.states[k], attractor_alpha(t), atol=1.0e-8
        )


def test_alpha_against_riccati_closed_form():
    rng = np.random.default_rng(3)
    tau0 = -30.0
    for _ in range(5):
        a0 = rng.uniform(-0.05, 0.0, size=3)
        tr = integrate("alpha", a0, (tau0, tau0 + 5.0), 0.005)
        assert not tr.blew_up
        for t in (tau0 + 1.0, tau0 + 2.5, tau0 + 5.0):
            exact = riccati_closed_form(a0, tau0, t)
            np.testing.assert_allclose(tr.sample(t), exact, atol=1.0e-8)


def test_alpha_rotation_equivariance():
    # conjugating the initial matrix commutes with the flow
    a0 = np.array([-0.04, -0.01, 0.02])
    tau0, tau1 = -25.0, -24.0
    ang = 0.7
    c, s = math.cos(ang), math.sin(ang)
    R = np.array([[c, -s], [s, c]])

    def rotate(alpha):
        m = np.array([[alpha[0], alpha[2]], [alpha[2], alpha[1]]])
        mr = R @ m @ R.T
        return np.array([mr[0, 0], mr[1, 1], mr[0, 1]])

    direct = integrate("alpha", rotate(a0), (tau0, tau1), 0.002).final
    swapped = rotate(integrate("alpha", a0, (tau0, tau1), 0.002).final)
    np.testing.assert_allclose(direct, swapped, atol=1.0e-8)


def test_sd_attractor_substitution():
    tau = -9.0
    S = 1.0 / (SQRT2 * tau)
    D = 1.0 / (8.0 * tau * tau)
    dS, dD = sd_rhs((S, D))
    assert abs(dS - (-1.0 / (SQRT2 * tau * tau))) < 1.0e-15
    assert abs(dD - (-1.0 / (4.0 * tau**3))) < 1.0e-15
    # D = 0 reduces to the scalar Riccati equation
    dS0, dD0 = sd_rhs((0.3, 0.0))
    assert abs(dS0 - (-SQRT8 * 0.09)) < 1.0e-15
    assert dD0 == 0.0


def test_sd_consistent_with_alpha():
    tau0 = -15.0
    a0 = np.array([-0.03, -0.015, 0.01])
    tr_a = integrate("alpha", a0, (tau0, tau0 + 1.0), 0.001)
    sd0 = (a0[0] + a0[1], a0[0] * a0[1] - a0[2] ** 2)
    tr_sd = integrate("sd", sd0, (tau0, tau0 + 1.0), 0.001)
    for t in np.linspace(tau0, tau0 + 1.0, 11):
        a = tr_a.sample(t)
        S, D = tr_sd.sample(t)
        assert abs((a[0] + a[1]) - S) < 1.0e-9
        assert abs((a[0] * a[1] - a[2] ** 2) - D) < 1.0e-9


def test_sd_wrong_sign_blows_up_in_ancient_direction():
    # scalar comparison: S' = -sqrt(8) S^2 with S(tau0) > 0 blows up
    # at tau0 - 1/(sqrt(8) S0) when integrated backward in tau
    tau0 = -10.0
    S0 = 0.5
    tr = integrate("sd", (S0, 0.0), (tau0, tau0 - 5.0), 0.0005)
    assert tr.blew_up
    expect = tau0 - 1.0 / (SQRT8 * S0)
    assert abs(tr.blowup_time - expect) < 0.01
    # forward in tau the same data just decays
    fwd = integrate("sd", (S0, 0.0), (tau0, tau0 + 5.0), 0.001)
    assert not fwd.blew_up
    assert abs(fwd.final[0]) < S0


def test_xi_fixed_point_and_linearization():
    assert np.all(xi_rhs(np.zeros(2)) == 0.0)
    eigs = sorted(np.linalg.eigvals(XI_LINEARIZATION).real)
    assert abs(eigs[0] + 2.0) < 1.0e-14
    assert abs(eigs[1] + 1.0) < 1.0e-14
    # central differences are exact on the quadratic nonlinearity
    h = 1.0e-4
    J = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        J[:, j] = (xi_rhs(e) - xi_rhs(-e)) / (2.0 * h)
    np.testing.assert_allclose(J, XI_LINEARIZATION, atol=1.0e-10)


def test_xi_decay_sweep():
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.uniform(0.0, 0.05)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        xi0 = r * np.array([math.cos(ang), math.sin(ang)])
        tr = integrate("xi", xi0, (0.0, 10.0), 0.01)
        assert not tr.blew_up
        norms = np.linalg.norm(tr.states, axis=1)
        sel = tr.t >= 5.0
        envelope = 2.0 * r * np.exp(-0.5 * tr.t[sel]) + 1.0e-15
        assert np.all(norms[sel] <= envelope)
        # monotone decay (adapted norm) after a unit transient
        adapted = np.array([xi_adapted_norm(x) for x in tr.states])
        k = np.searchsorted(tr.t, 1.0)
        assert np.all(np.diff(adapted[k:]) <= 1.0e-12)


def test_xi_ball_residence():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ang = rng.uniform(0.0, 2.0 * math.pi)
        xi0 = 0.1 * np.array([math.cos(ang), math.sin(ang)])
        tr = integrate("xi", xi0, (0.0, 8.0), 0.01)
        norms = np.linalg.norm(tr.states, axis=1)
        # euclidean overshoot is a real transient effect, bounded ~2%
        assert np.max(norms) <= 0.103
        a0 = xi_adapted_norm(xi0)
        assert all(xi_adapted_norm(x) <= a0 * (1.0 + 1.0e-12) for x in tr.states)


def test_xi_fourth_order_convergence():
    xi0 = np.array([0.04, -0.03])
    ref = integrate("xi", xi0, (0.0, 2.0), 0.0005).final
    errs = []
    for dt in (0.04, 0.02):
        errs.append(np.linalg.norm(integrate("xi", xi0, (0.0, 2.0), dt).final - ref))
    ratio = errs[0] / errs[1]
    assert ratio > 12.0, f"observed refinement ratio {ratio:.2f}"


def test_sd_xi_round_trip():
    tau = -35.0
    sigma = math.log(-tau)
    S, D = -0.02, 3.0e-4
    xi = sd_to_xi(tau, S, D)
    S2, D2 = xi_to_sd(sigma, xi)
    assert abs(S2 - S) < 1.0e-16
    assert abs(D2 - D) < 1.0e-18


def test_mode_state_invariants():
    st = ModeState(tau=-12.0, alpha=(-0.03, -0.02, 0.005))
    assert abs(st.S - (-0.05)) < 1.0e-16
    assert abs(st.D - (6.0e-4 - 2.5e-5)) < 1.0e-18
    assert abs(st.sigma - math.log(12.0)) < 1.0e-15
    xi = st.xi
    assert abs(xi[0] - (SQRT2 * st.tau * st.S - 1.0)) < 1.0e-15
    assert abs(xi[1] - (8.0 * st.tau**2 * st.D - 1.0)) < 1.0e-15


def test_integrate_validation():
    with pytest.raises(ParameterError):
        integrate("bogus", np.zeros(2), (0.0, 1.0), 0.01)
    with pytest.raises(ParameterError):
        integrate("xi", np.zeros(3), (0.0, 1.0), 0.01)
    with pytest.raises(ParameterError):
        integrate("xi", np.zeros(2), (0.0, 1.0), -0.1)
    with pytest.raises(ParameterError):
        integrate("xi", np.zeros(2), (1.0, 1.0), 0.1)
    tr = integrate("xi", np.zeros(2), (0.0, 1.0), 0.1)
    with pytest.raises(CoverageError):
        tr.sample(2.0)


def test_noise_hook_stays_near_attractor():
    tau0 = -40.0
    rng = np.random.default_rng(8)

    def noise(t, state):
        bound = np.linalg.norm(state) ** 2 / abs(t) ** 0.05
        return bound * rng.uniform(-1.0, 1.0, size=3)

    tr = integrate("alpha", attractor_alpha(tau0), (tau0, tau0 + 10.0), 0.01, noise=noise)
    assert not tr.blew_up
    for k, t in enumerate(tr.t):
        scaled = abs(t) * tr.states[k]
        assert np.max(np.abs(scaled[:2] + 1.0 / SQRT8)) < 0.05


@pytest.fixture(scope="module")
def proj_grid():
    return build_grid(512, 32, 18.0)


def test_compare_with_flow_normal_form(proj_grid, recorded_history):
    hist = recorded_history(
        proj_grid, np.linspace(-120.0, -80.0, 9), lambda g, t: normal_form_field(g, t)
    )
    rep = compare_with_flow(hist, (-110.0, -90.0))
    assert isinstance(rep, DeviationReport)
    assert rep.sup_diagonal < 1.0e-6
    assert rep.sup_off_diagonal < 1.0e-10
    assert rep.as_dict()["window"] == [-110.0, -90.0]


def test_compare_with_flow_stable_noise_immunity(proj_grid, recorded_history):
    from ovalab.spectral import get_basis

    basis = get_basis(proj_grid)
    w = proj_grid.weights
    # build a stable-space bump by Gram-Schmidt against the six modes
    raw = (proj_grid.y[:, None] ** 4) * np.exp(-0.1 * proj_grid.y[:, None] ** 2)
    raw = raw + 0.0 * proj_grid.phi[None, :]
    for k in range(6):
        psi = basis.functions[k]
        raw = raw - (np.sum(w * raw * psi) / basis.normsq[k]) * psi
    raw = raw / math.sqrt(np.sum(w * raw * raw)) * 1.0e-3

    def maker(g, t):
        base = normal_form_field(g, t)
        return base.with_values(base.values + raw)

    hist = recorded_history(proj_grid, np.linspace(-120.0, -80.0, 9), maker)
    rep = compare_with_flow(hist, (-110.0, -90.0))
    assert rep.sup_diagonal < 1.0e-2


def test_compare_with_flow_errors(proj_grid, recorded_history):
    hist = recorded_history(
        proj_grid, np.linspace(-120.0, -80.0, 9), lambda g, t: normal_form_field(g, t)
    )
    with pytest.raises(ParameterError):
        compare_with_flow(hist, (-90.0, -110.0))
    with pytest.raises(CoverageError):
        compare_with_flow(hist, (-50.0, -40.0))


def test_compare_with_flow_needs_snapshot_times():
    # a closed-form family samples any time but records none
    hist = normal_form_history(build_grid(64, 8, 10.0), -100.0)
    with pytest.raises(ParameterError, match="snapshot times"):
        compare_with_flow(hist, (-110.0, -90.0))

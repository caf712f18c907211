"""Neutral-mode coefficients: the attractor-relative map and the
comparison of a stored flow with the attractor.

The xi system in slow time, written out below as an oracle, is the
model whose linearization at 0 the package states as XI_LINEARIZATION.
"""

import math

import numpy as np
import pytest

from ovalab.errors import CoverageError, ParameterError
from ovalab.grid import build_grid
from ovalab.modes import XI_LINEARIZATION, DeviationReport, compare_with_flow
from ovalab.recenter import normal_form_history
from ovalab.shrinkers import normal_form_field
from ovalab.spectral import sd_to_xi

SQRT2 = math.sqrt(2.0)


def xi_rhs(xi):
    """Attractor-relative system in slow time; fixed point at 0."""
    x1, x2 = xi
    return np.array([-3.0 * x1 + x2 - 2.0 * x1 * x1, -2.0 * x1 - 2.0 * x1 * x2])


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


def test_sd_xi_round_trip():
    tau = -35.0
    sigma = math.log(-tau)
    S, D = -0.02, 3.0e-4
    xi = sd_to_xi(tau, S, D)
    # the inverse map, with tau read back from the slow time
    t = -math.exp(sigma)
    S2, D2 = (xi[0] + 1.0) / (SQRT2 * t), (xi[1] + 1.0) / (8.0 * t * t)
    assert abs(S2 - S) < 1.0e-16
    assert abs(D2 - D) < 1.0e-18


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

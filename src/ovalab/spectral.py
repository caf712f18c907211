"""Gaussian spectral analysis of profile fields.

The linearization of the renormalized flow at the cylindrical state
v = sqrt(2) is the drift Laplacian

    L f = f_yy + f_y / y + f_phiphi / y^2 - (y/2) f_y + f

acting on the Gaussian space H = L^2(e^{-y^2/4} y dy dphi).  Its
nonnegative spectrum is spanned by six explicit modes: three unstable
(1, y cos phi, y sin phi, eigenvalues 1, 1/2, 1/2) and three neutral
(y^2 - 4, y^2 cos 2phi, y^2 sin 2phi, eigenvalue 0).  Everything the
quantitative theory tracks lives in the neutral coefficients, repackaged
as the symmetric matrix of inward-quadratic bending rates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, ParameterError, gate
from .grid import THETA, ScalarField, frame_jet, norm_H
# nothing here calls it, but perfbench/tracer.py wraps spectral.diff_phi_fft
# and tests/test_tracer_targets.py asks for the name
from .grid import diff_phi_fft  # noqa: F401
from .shrinkers import normal_form_profile

SQRT2 = math.sqrt(2.0)

MODE_NAMES = ("const", "y_cos", "y_sin", "y2m4", "y2_cos2", "y2_sin2")
EIGENVALUES = (1.0, 0.5, 0.5, 0.0, 0.0, 0.0)
# closed-form Gaussian norms: 4pi, 8pi, 8pi, 64pi, 64pi, 64pi
THEORY_NORMSQ = (
    4.0 * math.pi,
    8.0 * math.pi,
    8.0 * math.pi,
    64.0 * math.pi,
    64.0 * math.pi,
    64.0 * math.pi,
)


def smoothstep_quintic(x):
    """C^2 ramp 6x^5 - 15x^4 + 10x^3 clamped to [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (x * (6.0 * x - 15.0) + 10.0)


def cutoff_profile(values):
    """Cutoff factor: 0 below (5/8) THETA, 1 above (7/8) THETA."""
    return smoothstep_quintic((np.asarray(values) / THETA - 0.625) * 4.0)


def truncate(field):
    """Suppress the cap region: v -> v * cutoff(v)."""
    return field.with_values(field.values * cutoff_profile(field.values))


class EigenBasis:
    """The six explicit modes of L sampled on a grid.

    Norms are measured with the grid's Gaussian quadrature rather than
    taken from the closed forms, so projections are exact for fields in
    the discrete span.
    """

    def __init__(self, grid):
        y = grid.y[:, None]
        phi = grid.phi[None, :]
        one = np.ones(grid.shape)
        self.grid = grid
        self.functions = np.stack(
            [
                one,
                y * np.cos(phi) * one,
                y * np.sin(phi) * one,
                (y**2 - 4.0) * one,
                y**2 * np.cos(2.0 * phi) * one,
                y**2 * np.sin(2.0 * phi) * one,
            ]
        )
        self.names = MODE_NAMES
        self.eigenvalues = EIGENVALUES
        self.normsq = tuple(grid.pair(f, f) for f in self.functions)

    def mode(self, k):
        return ScalarField(self.grid, self.functions[k], copy=False)

    def gram(self):
        """Full 6x6 Gram matrix under the Gaussian quadrature."""
        return np.array([pairings(f, self) for f in self.functions])


def get_basis(grid):
    """The grid's EigenBasis, built on first use and kept on the grid, so
    it lives exactly as long as the grid does."""
    basis = grid.__dict__.get("_eigenbasis")
    if basis is None:
        basis = grid._eigenbasis = EigenBasis(grid)
    return basis


def truncated_deviation(field):
    """u = chi(v) (v - sqrt(2)): the same cutoff scales both the profile
    and the constant, so the static bubble sheet maps to exactly zero and
    the cap region (where the graph turns vertical) drops out instead of
    polluting the Gaussian pairings.  chi is exactly 1 from (7/8) THETA
    up, so it is evaluated only on the nodes below."""
    v = field.values
    u = v - SQRT2
    low = v < 0.875 * THETA
    u[low] *= cutoff_profile(v[low])
    return u


def pairings(u, basis):
    """Gaussian pairings <u, e_k> of an array with the six modes of basis,
    one stacked PolarGrid.pair."""
    return basis.grid.pair(u, basis.functions)


def quadratic_distance(field, tau):
    """Gaussian norm of chi(v) v minus the inward-quadratic normal form
    at time tau; normal_form_profile refuses a tau outside (-inf, 0)."""
    g = field.grid
    dev = truncate(field).values - normal_form_profile(g.y[:, None], tau)
    return math.sqrt(max(g.pair(dev, dev), 0.0))


def project(field):
    """Six mode coefficients of the truncated deviation from sqrt(2) in
    the grid's basis."""
    basis = get_basis(field.grid)
    return pairings(truncated_deviation(field), basis) / np.array(basis.normsq)


def alpha_from_coeffs(coeffs):
    """Quadratic-bending rates from the raw neutral coefficients.

    In the symmetric-matrix parametrization u0 = sum a_ij (y_i y_j -
    2 delta_ij), the diagonal rates are the sum/difference of the
    coefficients on y^2 - 4 and y^2 cos 2phi, and the off-diagonal rate
    is the coefficient on y^2 sin 2phi.
    """
    c = np.asarray(coeffs)
    return np.array([c[3] + c[4], c[3] - c[4], c[5]])


def bubble_sheet_Q(alpha, tau):
    """Normalized bending matrix |tau| [[a1, a3], [a3, a2]]."""
    a = np.asarray(alpha, dtype=float)
    t = abs(gate("tau", tau, "(-inf, inf)", ParameterError))
    return np.array([[t * a[0], t * a[2]], [t * a[2], t * a[1]]])


def sym2_eigenvalues(m):
    """Eigenvalues of a symmetric 2x2, descending."""
    half_tr = 0.5 * (m[0][0] + m[1][1])
    disc = math.hypot(0.5 * (m[0][0] - m[1][1]), m[0][1])
    return np.array([half_tr + disc, half_tr - disc])


@dataclass(frozen=True)
class SpectralReport:
    """Spectral snapshot of one profile field at renormalized time tau."""

    tau: float
    theta: float
    coeffs: tuple
    alpha: tuple
    S: float
    D: float
    xi: tuple
    Q: tuple
    q_eigenvalues: tuple
    residual_norm: float

    def as_dict(self):
        return {
            "tau": self.tau,
            "theta": self.theta,
            "coefficients": dict(zip(MODE_NAMES, self.coeffs)),
            "alpha": list(self.alpha),
            "S": self.S,
            "D": self.D,
            "xi": list(self.xi),
            "Q": [list(row) for row in self.Q],
            "Q_eigenvalues": list(self.q_eigenvalues),
            "residual_norm": self.residual_norm,
        }


def sd_to_xi(tau, S, D):
    """The attractor-relative coordinate pair (sqrt(2) tau S - 1,
    8 tau^2 D - 1) of the invariants S and D at time tau; both components
    vanish on the exact inward-quadratic state."""
    for name, x in (("tau", tau), ("S", S), ("D", D)):
        gate(name, x, "(-inf, inf)", ParameterError)
    return np.array([SQRT2 * tau * S - 1.0, 8.0 * tau**2 * D - 1.0])


def spectral_report(field, tau):
    """Project a profile and package the derived spectral quantities,
    xi by sd_to_xi."""
    gate("renormalized time tau", tau, "(-inf, 0)", ParameterError)
    basis = get_basis(field.grid)
    u = truncated_deviation(field)
    c = pairings(u, basis) / np.array(basis.normsq)
    a = alpha_from_coeffs(c)
    S = float(a[0] + a[1])
    D = float(a[0] * a[1] - a[2] ** 2)
    Q = bubble_sheet_Q(a, tau)
    recon = np.tensordot(c, basis.functions, axes=(0, 0))
    resid = ScalarField(field.grid, u - recon, copy=False)
    return SpectralReport(
        tau=float(tau),
        theta=THETA,
        coeffs=tuple(float(x) for x in c),
        alpha=tuple(float(x) for x in a),
        S=S,
        D=D,
        xi=tuple(float(x) for x in sd_to_xi(tau, S, D)),
        Q=tuple(tuple(float(x) for x in row) for row in Q),
        q_eigenvalues=tuple(float(x) for x in sym2_eigenvalues(Q)),
        residual_norm=float(norm_H(resid)),
    )


def width_ratio(field):
    """Ratio of the two principal Gaussian width pairings.

    R = <v_C, y^2 cos^2 phi - 2> / <v_C, y^2 sin^2 phi - 2>; swapping
    the plane axes inverts it, so R = 1 detects the round case.
    """
    g = field.grid
    v_c = truncate(field).values
    y2 = g.y[:, None] ** 2
    cos_pair = y2 * np.cos(g.phi[None, :]) ** 2 - 2.0
    sin_pair = y2 * np.sin(g.phi[None, :]) ** 2 - 2.0
    num = g.pair(v_c, cos_pair)
    den = g.pair(v_c, sin_pair)
    if abs(den) <= 1.0e-8:
        raise DegeneracyError(
            f"width pairing denominator {den:.3e} too close to zero"
        )
    return num / den


def apply_ou(field):
    """Discrete drift Laplacian L f = f_11 + f_22 - (y/2) f_1 + f over
    the frame jet: radial stencils, spectral angular derivatives and, on
    the pole row, the Cartesian jet, where the drift vanishes."""
    g = field.grid
    f1, _, f11, _, f22 = frame_jet(g, field.values)
    return field.with_values(f11 + f22 - 0.5 * g.y[:, None] * f1 + field.values)


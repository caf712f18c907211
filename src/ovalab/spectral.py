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
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import CoverageError, DegeneracyError, ParameterError
from .grid import THETA, ScalarField, diff, diff_phi_fft, frame_jet, norm_H
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
    polluting the Gaussian pairings."""
    return cutoff_profile(field.values) * (field.values - SQRT2)


def pairings(u, basis):
    """Gaussian pairings <u, e_k> of an array with the six modes of basis."""
    return np.array([basis.grid.pair(u, f) for f in basis.functions])


def quadratic_distance(field, tau):
    """Gaussian norm of chi(v) v minus the inward-quadratic normal form
    at time tau."""
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
    t = abs(tau)
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


def spectral_report(field, tau):
    """Project a profile and package the derived spectral quantities.

    xi is the attractor-relative coordinate pair (sqrt(2) tau S - 1,
    8 tau^2 D - 1); both components vanish on the exact inward-quadratic
    state.
    """
    if not -math.inf < tau < 0.0:
        raise ParameterError(
            f"renormalized time must be negative and finite, got {tau}")
    basis = get_basis(field.grid)
    u = truncated_deviation(field)
    c = pairings(u, basis) / np.array(basis.normsq)
    a = alpha_from_coeffs(c)
    S = float(a[0] + a[1])
    D = float(a[0] * a[1] - a[2] ** 2)
    xi = (SQRT2 * tau * S - 1.0, 8.0 * tau**2 * D - 1.0)
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
        xi=xi,
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


def c4_norm_proxy(field, radius):
    """Finite-difference stand-in for the C^4 norm on a centered ball.

    Mixed Cartesian derivatives are approximated by radial stencils
    combined with angular derivatives scaled by 1/y; the pole and the
    two innermost rings are excluded because the angular scaling
    degenerates there.
    """
    g = field.grid
    if radius > g.y_max:
        raise CoverageError(
            f"ball radius {radius:.3g} exceeds grid extent {g.y_max:.3g}"
        )
    sel = g.y <= radius
    sel[:3] = False
    if not np.any(sel):
        raise CoverageError("ball too small for the finite-difference proxy")
    y = g.y[:, None]

    def ang(vals, n):
        out = vals
        while n > 0:
            k = 2 if n >= 2 else 1
            out = diff_phi_fft(out, order=k)
            n -= k
        return out

    def rad(fld, n):
        out = fld
        while n > 0:
            k = 2 if n >= 2 else 1
            out = diff(out, k)
            n -= k
        return out

    y_sel = y[sel, :]
    sup = float(np.max(np.abs(field.values[sel, :])))
    for total in range(1, 5):
        for n_rad in range(total + 1):
            n_ang = total - n_rad
            vals = rad(field, n_rad).values
            if n_ang:
                vals = ang(vals, n_ang)[sel, :] / y_sel**n_ang
            else:
                vals = vals[sel, :]
            sup = max(sup, float(np.max(np.abs(vals))))
    return sup


@dataclass(frozen=True)
class KappaVerdict:
    """Outcome of the inward-quadratic precision test at time tau0."""

    passed: bool
    tau0: float
    kappa: float
    kappa_measured: float
    quadratic_ok: bool
    centering_norm: float
    centering_ok: bool
    radius_sup: float
    radius_ok: bool
    details: dict = dc_field(default_factory=dict)

    def as_dict(self):
        d = {
            "passed": self.passed,
            "tau0": self.tau0,
            "kappa": self.kappa,
            "kappa_measured": self.kappa_measured,
            "quadratic_ok": self.quadratic_ok,
            "centering_norm": self.centering_norm,
            "centering_ok": self.centering_ok,
            "radius_sup": self.radius_sup,
            "radius_ok": self.radius_ok,
        }
        d.update(self.details)
        return d


def kappa_quadratic(history, tau0, kappa):
    """Test inward-quadratic precision kappa at time tau0.

    Three sub-verdicts: the Gaussian distance of the truncated profile
    from the inward-quadratic state is at most kappa/|tau0|; the
    unstable-mode content at tau0 vanishes (Gaussian norm within 1e-6);
    and the scaled C^4 bound on the slowly growing central ball holds
    over [2 tau0, tau0].
    """
    if tau0 >= 0.0:
        raise ParameterError(f"tau0 must be negative, got {tau0}")
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    times = history.times
    if times.size == 0:
        raise CoverageError("empty history")
    if times[0] > 2.0 * tau0 + 1.0e-9 or times[-1] < tau0 - 1.0e-9:
        raise CoverageError(
            f"history [{times[0]:.4g}, {times[-1]:.4g}] does not cover "
            f"[{2 * tau0:.4g}, {tau0:.4g}]"
        )
    span = times[(times >= 2.0 * tau0 - 1.0e-9) & (times <= tau0 + 1.0e-9)]
    span = np.unique(np.concatenate([span, [2.0 * tau0, tau0]]))

    snap = history.at(tau0)
    basis = get_basis(snap.grid)
    lhs = quadratic_distance(snap, tau0)
    kappa_measured = lhs * abs(tau0)
    quadratic_ok = lhs <= kappa / abs(tau0)

    c = project(snap)
    centering_norm = float(
        math.sqrt(sum(c[k] ** 2 * basis.normsq[k] for k in range(3)))
    )
    centering_ok = centering_norm <= 1.0e-6

    radius_sup = 0.0
    for t in span:
        f = history.at(float(t))
        ball = 2.0 * abs(t) ** 0.01
        dev_t = f.with_values(f.values - SQRT2)
        radius_sup = max(
            radius_sup, abs(t) ** 0.02 * c4_norm_proxy(dev_t, ball)
        )
    radius_ok = radius_sup <= 1.0

    return KappaVerdict(
        passed=bool(quadratic_ok and centering_ok and radius_ok),
        tau0=float(tau0),
        kappa=float(kappa),
        kappa_measured=float(kappa_measured),
        quadratic_ok=bool(quadratic_ok),
        centering_norm=centering_norm,
        centering_ok=bool(centering_ok),
        radius_sup=float(radius_sup),
        radius_ok=bool(radius_ok),
        details={"quadratic_lhs": float(lhs), "quadratic_bound": kappa / abs(tau0)},
    )

"""Model surfaces: exact solitons and the initial data family.

Everything here is SO(2) x O(2)-symmetric and given by an explicit
radius profile v(y, phi) over the symmetry plane.  The static models
(plane of bubble-sheet type, shrinking sphere, shrinking neck) are the
reference states the evolution tests measure drift against; the
ellipsoid family is the initial data used by the simulation pipeline.

The rotationally symmetric translating bowl enters through its height
function Z(rho), obtained here by direct integration of the profile
ODE

    Z'' / (1 + Z'^2) + Z' / rho + 1/sqrt(2) = 0,   Z(0) = Z'(0) = 0,

which governs the blown-up cap region of the ovals.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, gate
from .grid import ScalarField

SQRT2 = math.sqrt(2.0)


def bubble_sheet_field(grid):
    """Static profile v = sqrt(2): the cylindrical product soliton."""
    return ScalarField.from_square(grid, np.full(grid.shape, 2.0))


def sphere_field(grid):
    """Round sphere slice v = sqrt(6 - y^2), clamped outside.

    6 is the squared self-shrinking radius at t = -1 in R^4.  The grid
    must contain the whole body so the rim is resolved.
    """
    if grid.y_max**2 <= 6.0:
        raise ParameterError(
            f"grid y_max={grid.y_max} does not contain a sphere of "
            "squared radius 6"
        )
    w = 6.0 - grid.y[:, None] ** 2 + 0.0 * grid.phi[None, :]
    return ScalarField.from_square(grid, w)


def neck_field(grid):
    """Shrinking-neck slice v = sqrt(4 - (y sin phi)^2).

    The neck R^2 x S^1(sqrt(2 k)) at t = -1 has k = 2 here; its axis
    lies in the symmetry plane, so the slice is a strip of half-width
    2 around the phi = 0 axis, not a compact body.
    """
    y2 = grid.y[:, None] ** 2
    return ScalarField.from_square(grid, 4.0 - y2 * np.sin(grid.phi[None, :]) ** 2)


def normal_form_profile(y, tau):
    """Inward-quadratic bulge sqrt(2) - (y^2 - 4) / (sqrt(8) |tau|)."""
    gate("tau", tau, "(-inf, 0)", ParameterError)
    return SQRT2 - (y**2 - 4.0) / (math.sqrt(8.0) * abs(tau))


def normal_form_field(grid, tau):
    """Leading-order ancient-oval shape at renormalized time tau < 0.

    v = normal_form_profile(y, tau), clamped at zero far out.  This is
    the state the recentring and spectral layers treat as their origin;
    it is not an exact solution, so only the inner region is meaningful.
    The signed square sign(v) v^2 continues past the zero crossing, but v
    falls through zero linearly, so W has a double zero there: the rim,
    at |y| = sqrt(4 + 4|tau|), is a corner, where a smooth body's W
    crosses zero with nonzero slope.  The W-quadric of the same inner
    expansion, W = 2 - (|y|^2 - 4)/|tau|, has a transversal rim at
    sqrt(4 + 2|tau|); it, not this field, is a start to step.
    """
    v = normal_form_profile(grid.y[:, None], tau) * np.ones((1, grid.n_phi))
    return ScalarField(grid, np.maximum(v, 0.0), w_signed=np.sign(v) * v**2)


@dataclass(frozen=True)
class EllipsoidSpec:
    """Initial ellipsoid V^2 = R^2 - (a x_1 / l)^2 - ((1-a) x_2 / l)^2.

    a in (0, 1) splits the anisotropy between the two plane axes
    (a = 1/2 is round), l sets the in-plane scale, R the rotational
    radius, and t_start < 0 the unrescaled start time.
    """

    a: float = 0.5
    ell: float = 1.0
    radius: float = 1.0
    t_start: float = -1.0

    def __post_init__(self):
        gate("axis split a", self.a, "(0, 1)", ParameterError)
        gate("scale ell", self.ell, "(0, inf)", ParameterError)
        gate("radius", self.radius, "(0, inf)", ParameterError)
        gate("start time t_start", self.t_start, "(-inf, 0)", ParameterError)

    def plane_semi_axes(self):
        """Semi-axes of the body's footprint in the symmetry plane."""
        return (
            self.radius * self.ell / self.a,
            self.radius * self.ell / (1.0 - self.a),
        )


def ellipsoid_initial(grid, spec):
    """Sample the ellipsoid profile of `spec` on an unrescaled grid.

    The grid coordinate is the plane radius at scale t = t_start; the
    caller is responsible for choosing y_max at least the larger plane
    semi-axis, otherwise the body is truncated and a ParameterError is
    raised.
    """
    ax1, ax2 = spec.plane_semi_axes()
    if grid.y_max < max(ax1, ax2):
        raise ParameterError(
            f"grid y_max={grid.y_max} truncates ellipsoid with plane "
            f"semi-axes ({ax1:.3g}, {ax2:.3g})"
        )
    x1 = grid.y[:, None] * np.cos(grid.phi[None, :])
    x2 = grid.y[:, None] * np.sin(grid.phi[None, :])
    w = (
        spec.radius**2
        - (spec.a / spec.ell) ** 2 * x1**2
        - ((1.0 - spec.a) / spec.ell) ** 2 * x2**2
    )
    return ScalarField.from_square(grid, w)


class BowlProfile:
    """Tabulated bowl height Z(rho) <= 0 and slope on a uniform grid."""

    def __init__(self, rho, height, slope):
        self.rho = np.asarray(rho, dtype=float)
        self.height = np.asarray(height, dtype=float)
        self.slope = np.asarray(slope, dtype=float)

    def __call__(self, rho):
        return np.interp(rho, self.rho, self.height)

    def dZ(self, rho):
        return np.interp(rho, self.rho, self.slope)


def _bowl_rhs(rho, z, p):
    return p, -(1.0 + p * p) * (p / rho + 1.0 / SQRT2)


# reach and RK4 step of the bowl table, read when solve_bowl is called
_RHO_MAX = 12.0
_DRHO = 5.0e-3


def solve_bowl():
    """Integrate the bowl ODE from the axis out to _RHO_MAX in steps of
    _DRHO.

    The axis is a regular singular point; the first few steps use the
    quartic jet Z = -sqrt(2)/8 rho^2 + c rho^4, with c fixed by one
    Newton correction of the interior residual, and classical RK4
    carries the solution outward from there.
    """
    rho_max, drho = _RHO_MAX, _DRHO
    a2 = -SQRT2 / 8.0
    rho_jet = 10.0 * drho

    def jet_residual(c, rho):
        p = 2.0 * a2 * rho + 4.0 * c * rho**3
        zpp = 2.0 * a2 + 12.0 * c * rho**2
        return zpp / (1.0 + p * p) + p / rho + 1.0 / SQRT2

    # one Newton step from c = 0 at the edge of the jet region
    c = 0.0
    f0 = jet_residual(c, rho_jet)
    dc = 1.0e-6
    fp = (jet_residual(c + dc, rho_jet) - f0) / dc
    c = -f0 / fp

    n = int(round(rho_max / drho))
    rho = np.arange(n + 1) * drho
    z = np.empty(n + 1)
    p = np.empty(n + 1)
    k_jet = int(round(rho_jet / drho))
    z[: k_jet + 1] = a2 * rho[: k_jet + 1] ** 2 + c * rho[: k_jet + 1] ** 4
    p[: k_jet + 1] = 2.0 * a2 * rho[: k_jet + 1] + 4.0 * c * rho[: k_jet + 1] ** 3

    zi = float(z[k_jet])
    pi = float(p[k_jet])
    for k in range(k_jet, n):
        r = rho[k]
        k1z, k1p = _bowl_rhs(r, zi, pi)
        k2z, k2p = _bowl_rhs(r + 0.5 * drho, zi + 0.5 * drho * k1z, pi + 0.5 * drho * k1p)
        k3z, k3p = _bowl_rhs(r + 0.5 * drho, zi + 0.5 * drho * k2z, pi + 0.5 * drho * k2p)
        k4z, k4p = _bowl_rhs(r + drho, zi + drho * k3z, pi + drho * k3p)
        zi += drho / 6.0 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        pi += drho / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        z[k + 1] = zi
        p[k + 1] = pi

    return BowlProfile(rho, z, p)

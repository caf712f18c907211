"""Pointwise verification of geometric estimates on flow snapshots.

The stepper produces profile fields and tip tables; the functions here
measure how closely a snapshot follows the structures that convex
rotational ancient flows develop, each as a single number or a small
report over the grid:

* ``asymptotics_report``: sup distance to the inward-quadratic bulge
  over the plane, to the square-root intermediate profile, and of the
  zoomed tip to the translating bowl.
* ``concavity_margin``: the almost-concavity of the squared radius as a
  worst generalized eigenvalue of its corrected plane Hessian against
  the induced metric, per node.
* ``collar_deviation``: sup of |y (v^2)_y + 4| over the collar band,
  where a near-Gaussian profile makes that combination vanish.
* ``cylindrical_estimate``: largest scaled derivative over the region
  where the profile is bounded away from zero.
* ``huisken_density``: Gaussian-weighted area of an unrescaled slice,
  the monotone quantity that calibrates extinction scales.

Everything is a pure function of immutable snapshots.  Derivatives are
always taken on the signed squared profile read by ``grid.signed_square``
(stored by every constructor and the stepper, rebuilt for a field read
from disk), never on the square-rooted values whose rim kink would
pollute the stencils.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError, ParameterError, gate
from .evolve import V_FLOOR, zoomed_tip
from .grid import (
    THETA,
    frame_jet,
    polar_jet,
    resample,
    rim_index,
    signed_square,
    sqrt_jet,
)
# nothing here calls it, but perfbench/tracer.py wraps diagnostics.diff_phi_fft
# and tests/test_tracer_targets.py asks for the name
from .grid import diff_phi_fft  # noqa: F401
from .shrinkers import normal_form_profile

SQRT2 = math.sqrt(2.0)

# Gaussian densities of the two product shrinkers, plane x circle and
# line x sphere; closed forms sqrt(2 pi / e) and 4 / e.
DENSITY_SHEET = math.sqrt(2.0 * math.pi / math.e)
DENSITY_NECK = 4.0 / math.e


# ---------------------------------------------------------------------------
# sharp asymptotics


@dataclass(frozen=True)
class AsymptoticsReport:
    """Sup-norm distances to the three model profiles.

    ``tip`` is NaN when the state carries no tip patch.
    """

    parabolic: float
    intermediate: float
    tip: float
    epsilon: float


def asymptotics_report(state, epsilon, bowl):
    """Measure a renormalized snapshot against its three model regions.

    (i) |tau| * sup_{y <= 1/eps} |v - sqrt(2) + (y^2-4)/(sqrt(8)|tau|)|,
    (ii) sup_{z <= sqrt(2)-eps} |v(sqrt(|tau|) z) - sqrt(2 - z^2)|,
    (iii) sup_{rho <= 1/eps} |Z - Z_bowl| for the zoomed tip, against
    bowl, the BowlProfile of shrinkers.solve_bowl; a state without a
    tip patch never reads bowl.

    Takes a FlowState only and never asks what kind of object it was
    given; to measure a history, pass the snapshot wanted, e.g. its
    final state history.states[-1].
    """
    gate("epsilon", epsilon, "(0, 1)", ParameterError)
    tau = gate("asymptotics time tau", state.tau, "(-inf, 0)", ParameterError)
    at = abs(tau)
    grid = state.v.grid
    y = grid.y
    v = state.v.values

    cap = 1.0 / epsilon
    if cap > grid.y_max:
        raise CoverageError(
            f"plane window y <= {cap:g} exceeds the grid (y_max="
            f"{grid.y_max:g})"
        )
    rows = y <= cap
    model = normal_form_profile(y[rows, None], tau)
    parabolic = at * float(np.abs(v[rows, :] - model).max())

    reach = math.sqrt(at) * (SQRT2 - epsilon)
    if reach > grid.y_max:
        raise CoverageError(
            f"intermediate window y <= {reach:g} exceeds the grid"
        )
    rows = y <= reach
    model = np.sqrt(2.0 - (y[rows, None] / math.sqrt(at)) ** 2)
    intermediate = float(np.abs(v[rows, :] - model).max())

    if state.tip is None:
        tip_err = float("nan")
    else:
        rho, Z = zoomed_tip(state)
        sel = rho <= cap
        tip_err = float(np.abs(Z[sel, :] - bowl(rho[sel])[:, None]).max())

    return AsymptoticsReport(parabolic, intermediate, tip_err, epsilon)


# ---------------------------------------------------------------------------
# almost concavity of the squared radius


@dataclass(frozen=True)
class ConcavityReport:
    """Largest generalized eigenvalue of the corrected Hessian pencil
    per node (NaN outside the body), with the worst node singled out."""

    margins: np.ndarray
    worst: float
    worst_y: float
    worst_phi: float
    delta: float


def concavity_margin(field, t, delta):
    """Worst eigenvalue of Hess(V^2) - (gamma+delta) g on plane directions.

    Works on an unrescaled profile V at time t <= -e.  The Hessian is
    the intrinsic one of the surface metric g_ij = delta_ij + V_i V_j
    restricted to directions orthogonal to the rotation (the metric is
    block diagonal, so no angular components enter), with Christoffel
    correction Gamma^k_ij = V_k V_ij / (1+|DV|^2) and weight
    gamma = ((-t)/log(-t))^(3/2) V^(-3).  Derivatives are taken in
    the orthonormal frames of grid.frame_jet; the pencil's eigenvalues
    do not depend on the frame.  A nonpositive margin everywhere is the
    almost-concavity property.  The report holds one margin per node of
    the body V > V_FLOOR, NaN elsewhere; a field without such a node
    raises CoverageError.
    """
    gate("t", t, "(-inf, 0)", DomainError)
    log_t = gate("log(-t) of the weight ((-t)/log(-t))^(3/2)", math.log(-t), "[1, inf)",
                 DomainError)
    gate("delta", delta, "[0, inf)", ParameterError)
    grid = field.grid
    W = signed_square(field)
    V = field.values
    mask = V > V_FLOOR
    if not mask.any():
        raise CoverageError(f"no node of the body V > {V_FLOOR:g}")
    safe = np.where(mask, V, 1.0)

    Q1, Q2, Q11, Q12, Q22 = frame_jet(grid, W)
    V1, V2, V11, V12, V22 = sqrt_jet(Q1, Q2, Q11, Q12, Q22, safe)

    dv2 = V1**2 + V2**2
    slope = (V1 * Q1 + V2 * Q2) / (1.0 + dv2)
    gamma = ((-t) / log_t) ** 1.5 / safe**3
    eps = gamma + delta
    A11 = Q11 - V11 * slope - eps * (1.0 + V1**2)
    A12 = Q12 - V12 * slope - eps * V1 * V2
    A22 = Q22 - V22 * slope - eps * (1.0 + V2**2)

    det_g = 1.0 + dv2
    tr_b = (
        (1.0 + V2**2) * A11
        - 2.0 * V1 * V2 * A12
        + (1.0 + V1**2) * A22
    ) / det_g
    det_b = (A11 * A22 - A12**2) / det_g
    disc = np.maximum(tr_b**2 - 4.0 * det_b, 0.0)
    lam = 0.5 * (tr_b + np.sqrt(disc))
    margins = np.where(mask, lam, np.nan)

    flat = np.nanargmax(np.where(mask, lam, -np.inf))
    i, j = np.unravel_index(flat, lam.shape)
    return ConcavityReport(
        margins=margins,
        worst=float(lam[i, j]),
        worst_y=float(grid.y[i]),
        worst_phi=float(grid.phi[j]),
        delta=float(delta),
    )


# ---------------------------------------------------------------------------
# collar and cylindrical estimates


@dataclass(frozen=True)
class CollarReport:
    """Sup of |y (v^2)_y + 4| over the collar band and its argmax."""

    deviation: float
    y: float
    phi: float
    nodes: int


def collar_deviation(field, tau, L):
    """Sup of |y (v^2)_y + 4| over the band L/sqrt(|tau|) <= v <= 2 THETA.

    Near-Gaussian collars make the combination vanish; spheres fail it
    loudly, which makes this a useful discriminator.
    """
    s = math.sqrt(gate("|tau| of the collar band", abs(tau), "(0, inf)", ParameterError))
    gate("collar scale L", L, "(0, inf)", ParameterError)
    v = field.values
    band = (v >= L / s) & (v <= 2.0 * THETA)
    if not band.any():
        raise CoverageError(
            f"collar band {L / s:.3g} <= v <= {2.0 * THETA:.3g} is empty"
        )
    W = signed_square(field)
    wy = field.grid.radial_derivative(W)[0]
    dev = np.abs(field.grid.y[:, None] * wy + 4.0)
    dev = np.where(band, dev, -np.inf)
    flat = np.argmax(dev)
    i, j = np.unravel_index(flat, dev.shape)
    return CollarReport(
        deviation=float(dev[i, j]),
        y=float(field.grid.y[i]),
        phi=float(field.grid.phi[j]),
        nodes=int(band.sum()),
    )


def cylindrical_estimate(field, tau, L):
    """Largest |v^(k+l-1) y^(-k) d_phi^k d_y^l v| for 1 <= k+l <= 2
    over the region v >= L/sqrt(|tau|).

    Derivatives are taken through the signed square, so the estimate is
    meaningful arbitrarily close to the region boundary.  The pole row
    only contributes the purely radial terms; the angular ones have an
    explicit 1/y weight.
    """
    s = math.sqrt(gate("|tau| of the cylindrical region", abs(tau), "(0, inf)", ParameterError))
    gate("cylindrical scale L", L, "(0, inf)", ParameterError)
    v = field.values
    region = v >= max(L / s, 2.0 * V_FLOOR)
    if not region.any():
        raise CoverageError(
            f"cylindrical region v >= {L / s:.3g} is empty"
        )
    grid = field.grid
    W = signed_square(field)
    safe = np.where(region, v, 1.0)
    (wy, wyy, wp, wpp, wyp), _ = polar_jet(grid, W)
    vy, vp, vyy, vyp, vpp = sqrt_jet(wy, wp, wyy, wyp, wpp, safe)

    best = 0.0
    radial = [np.abs(vy), np.abs(safe * vyy)]
    for term in radial:
        best = max(best, float(term[region].max()))
    y = grid.y[:, None]
    inner = region.copy()
    inner[0, :] = False
    if inner.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            angular = [
                np.abs(vp) / y,
                np.abs(safe * vpp) / y**2,
                np.abs(safe * vyp) / y,
            ]
        for term in angular:
            best = max(best, float(term[inner].max()))
    return best


# ---------------------------------------------------------------------------
# Gaussian density


def huisken_density(field, r, tail=None):
    """Gaussian-weighted area of an unrescaled slice at t = -r^2.

    Computes (4 pi r^2)^(-3/2) times the integral over the plane of
    2 pi sqrt(W + |DW|^2/4) exp(-(y^2 + W)/(4 r^2)), which is the
    rotationally reduced surface measure written in the squared profile
    W = V^2.  Columns are integrated up to the exact rim crossing so the
    integrand's kink there costs nothing.  ``tail="flat"`` continues the
    boundary ring cylindrically to infinity and adds its Gaussian tail
    in closed form, for slices of noncompact model bodies.
    """
    gate("density scale r", r, "(0, inf)", ParameterError)
    if tail not in (None, "flat"):
        raise ParameterError(f"unknown tail treatment {tail!r}")
    grid = field.grid
    W = signed_square(field)
    y = grid.y
    W1, W2 = frame_jet(grid, W)[:2]
    grad2 = W1**2 + W2**2
    # the rim slope is read along each column, the pole row included
    wy = grid.radial_derivative(W)[0]
    body = W > 0.0
    dens = np.where(
        body,
        2.0
        * np.pi
        * np.sqrt(np.maximum(W, 0.0) + 0.25 * grad2)
        * np.exp(-(y[:, None] ** 2 + np.maximum(W, 0.0)) / (4.0 * r**2)),
        0.0,
    )

    # every column at once: trapezoids over its live rows, then one out
    # to its rim, or the whole column and the flat tail where it has none
    k = rim_index(W)
    n = W.shape[0]
    inner = (k > 0) & (k < n)
    last = np.clip(k, 1, n - 1) - 1
    cols = np.arange(grid.n_phi)
    w0 = W[last, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        y_rim = y[last] + np.where(inner, w0 / (w0 - W[last + 1, cols]), 0.0) * grid.dy
    wy_rim = resample(wy, grid, y_rim, grid.phi)
    f_rim = np.pi * np.abs(wy_rim) * np.exp(-(y_rim**2) / (4.0 * r**2))
    fy = dens * y[:, None]
    segs = 0.5 * (fy[:-1] + fy[1:]) * grid.dy
    total = float(np.sum(segs, where=np.arange(1, n)[:, None] < k))
    total += float(np.sum(0.5 * (fy[last, cols] + f_rim * y_rim) * (y_rim - y[last]),
                          where=inner))
    # trapezoids of g = f y miss the Euler-Maclaurin pole term dy^2 g'(0)/12 = dy^2 f(0)/12
    total += grid.dy**2 / 12.0 * float(dens[0].sum())
    if tail == "flat":  # dens is 0 on outer-ring nodes outside the body
        total += float(dens[-1].sum()) * 2.0 * r**2
    return (4.0 * math.pi * r**2) ** -1.5 * total * grid.dphi


"""Model ODE systems for the neutral-mode coefficients.

Projecting the flow onto the neutral modes and discarding the bounded
error terms leaves three nested model systems:

  * the bending rates alpha = (a1, a2, a3), a matrix Riccati flow
    dM/dtau = -sqrt(8) M^2 on symmetric 2x2 matrices;
  * the invariants S = a1 + a2, D = a1 a2 - a3^2 of that flow;
  * the attractor-relative pair xi = (sqrt(2) tau S - 1, 8 tau^2 D - 1)
    in the slow time sigma = log(-tau), whose linearization at 0 is
    A = [[-3, 1], [-2, 0]] with spectrum {-1, -2}.

All integrators are classical 4-stage one-step with cubic Hermite dense
output.  Riccati blow-up for bad data is expected and reported, not
raised.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import spectral  # read as spectral.project so a wrapper installed there is seen
from .errors import CoverageError, ParameterError

SQRT2 = math.sqrt(2.0)
SQRT8 = math.sqrt(8.0)

XI_LINEARIZATION = np.array([[-3.0, 1.0], [-2.0, 0.0]])

# columns are the eigenvectors of the linearization, for -1 and -2
_XI_EIGVECS = np.array([[1.0, 1.0], [2.0, 1.0]])
_XI_EIGVECS_INV = np.linalg.inv(_XI_EIGVECS)


def xi_adapted_norm(xi):
    """Norm in the eigenbasis of the linearization.

    The Euclidean norm of xi is not monotone along trajectories (its
    symmetric part has a positive eigenvalue, giving ~2% transient
    overshoot); in eigencoordinates the small-ball decay is strict.
    """
    return float(np.linalg.norm(_XI_EIGVECS_INV @ np.asarray(xi)))


def alpha_rhs(alpha):
    """Quadratic vector field for the three bending rates."""
    a1, a2, a3 = alpha
    return np.array(
        [
            -SQRT8 * (a1 * a1 + a3 * a3),
            -SQRT8 * (a2 * a2 + a3 * a3),
            -SQRT8 * (a1 + a2) * a3,
        ]
    )


def sd_rhs(sd):
    """Trace/determinant reduction of the Riccati flow."""
    S, D = sd
    return np.array([-SQRT8 * (S * S - 2.0 * D), -SQRT8 * S * D])


def xi_rhs(xi):
    """Attractor-relative system in slow time; fixed point at 0."""
    x1, x2 = xi
    return np.array(
        [-3.0 * x1 + x2 - 2.0 * x1 * x1, -2.0 * x1 - 2.0 * x1 * x2]
    )


_SYSTEMS = {
    "alpha": (alpha_rhs, 3),
    "sd": (sd_rhs, 2),
    "xi": (xi_rhs, 2),
}


def sd_to_xi(tau, S, D):
    return np.array([SQRT2 * tau * S - 1.0, 8.0 * tau * tau * D - 1.0])


def xi_to_sd(sigma, xi):
    tau = -math.exp(sigma)
    return np.array(
        [(xi[0] + 1.0) / (SQRT2 * tau), (xi[1] + 1.0) / (8.0 * tau * tau)]
    )


@dataclass(frozen=True)
class ModeState:
    """Bending rates at one renormalized time, with derived invariants."""

    tau: float
    alpha: tuple

    @property
    def S(self):
        return self.alpha[0] + self.alpha[1]

    @property
    def D(self):
        return self.alpha[0] * self.alpha[1] - self.alpha[2] ** 2

    @property
    def sigma(self):
        return math.log(-self.tau)

    @property
    def xi(self):
        return tuple(sd_to_xi(self.tau, self.S, self.D))


class Trajectory:
    """Dense one-step solution record.

    sample() evaluates the cubic Hermite interpolant built from stored
    states and slopes, preserving the integrator's 4th-order accuracy
    between nodes.
    """

    def __init__(self, system, t, states, derivs, blew_up=False, blowup_time=None):
        self.system = system
        self.t = np.asarray(t)
        self.states = np.asarray(states)
        self._derivs = np.asarray(derivs)
        self.blew_up = blew_up
        self.blowup_time = blowup_time

    @property
    def final(self):
        return self.states[-1]

    def sample(self, t):
        t = float(t)
        ts = self.t
        ascending = ts[-1] >= ts[0]
        lo, hi = (ts[0], ts[-1]) if ascending else (ts[-1], ts[0])
        if not lo - 1.0e-12 <= t <= hi + 1.0e-12:
            raise CoverageError(
                f"sample time {t:.6g} outside trajectory [{lo:.6g}, {hi:.6g}]"
            )
        side = ts if ascending else -ts
        k = int(np.clip(np.searchsorted(side, t if ascending else -t) - 1, 0, len(ts) - 2))
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        return (
            h00 * self.states[k]
            + h10 * h * self._derivs[k]
            + h01 * self.states[k + 1]
            + h11 * h * self._derivs[k + 1]
        )


def integrate(system, init, span, dt, noise=None):
    """March one of the model systems across span = (t0, t1).

    dt is a magnitude; integration direction follows the span (the
    ancient direction t1 < t0 is how Riccati blow-up for wrong-sign
    data shows up).  On blow-up (a non-finite state or a component
    above 1e6) the trajectory is truncated and flagged.
    """
    if system not in _SYSTEMS:
        raise ParameterError(
            f"unknown system {system!r}; expected one of {sorted(_SYSTEMS)}"
        )
    rhs_base, dim = _SYSTEMS[system]
    x = np.asarray(init, dtype=float)
    if x.shape != (dim,):
        raise ParameterError(f"system {system} needs {dim} components")
    t0, t1 = float(span[0]), float(span[1])
    if dt <= 0.0:
        raise ParameterError(f"dt must be a positive magnitude, got {dt}")
    if t1 == t0:
        raise ParameterError("empty integration span")

    n = max(1, int(math.ceil(abs(t1 - t0) / dt - 1.0e-12)))
    h = (t1 - t0) / n

    ts = [t0]
    xs = [x.copy()]

    def f(t, state):
        out = rhs_base(state)
        if noise is not None:
            out = out + np.asarray(noise(t, state), dtype=float)
        return out

    ds = [f(t0, x)]
    blew_up = False
    blowup_time = None
    t = t0
    for _ in range(n):
        k1 = f(t, x)
        k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = f(t + h, x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1.0e6:
            blew_up = True
            blowup_time = t
            if np.all(np.isfinite(x)):
                ts.append(t)
                xs.append(x.copy())
                ds.append(f(t, x))
            break
        ts.append(t)
        xs.append(x.copy())
        ds.append(f(t, x))

    return Trajectory(system, ts, xs, ds, blew_up=blew_up, blowup_time=blowup_time)


@dataclass(frozen=True)
class DeviationReport:
    """Distance of extracted bending rates from the attractor."""

    window: tuple
    sup_diagonal: float
    sup_off_diagonal: float
    taus: tuple

    def as_dict(self):
        return {
            "window": list(self.window),
            "sup_diagonal": self.sup_diagonal,
            "sup_off_diagonal": self.sup_off_diagonal,
            "taus": list(self.taus),
        }


def compare_with_flow(history, window):
    """Sup over the window of | |tau| alpha_j + 1/sqrt(8) | and |tau a3|.

    alpha is extracted from each stored snapshot by Gaussian projection;
    the report quantifies how tightly the simulated flow follows the
    model attractor.
    """
    lo, hi = float(window[0]), float(window[1])
    if lo >= hi:
        raise ParameterError(f"empty window ({lo}, {hi})")
    times = history.times
    sel = times[(times >= lo - 1.0e-9) & (times <= hi + 1.0e-9)]
    if len(sel) == 0:
        raise CoverageError(f"history has no samples in [{lo:.4g}, {hi:.4g}]")

    sup_diag = 0.0
    sup_off = 0.0
    for tau in sel:
        a = spectral.alpha_from_coeffs(spectral.project(history.at(float(tau))))
        sup_diag = max(
            sup_diag,
            abs(abs(tau) * a[0] + 1.0 / SQRT8),
            abs(abs(tau) * a[1] + 1.0 / SQRT8),
        )
        sup_off = max(sup_off, abs(tau * a[2]))
    return DeviationReport(
        window=(lo, hi),
        sup_diagonal=float(sup_diag),
        sup_off_diagonal=float(sup_off),
        taus=tuple(float(t) for t in sel),
    )

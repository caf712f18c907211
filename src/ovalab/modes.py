"""Neutral-mode coefficients of a flow against the model attractor.

Projecting the flow onto the neutral modes and discarding the bounded
error terms leaves a matrix Riccati flow dM/dtau = -sqrt(8) M^2 for the
bending rates alpha = (a1, a2, a3), with the invariants S = a1 + a2 and
D = a1 a2 - a3^2.  Its inward-quadratic attractor is
alpha = (1, 1, 0)/(sqrt(8) tau), and the attractor-relative pair

    xi = (sqrt(2) tau S - 1, 8 tau^2 D - 1)

evolves in the slow time sigma = log(-tau) with linearization
XI_LINEARIZATION = [[-3, 1], [-2, 0]] at 0, spectrum {-1, -2}.

``sd_to_xi`` maps measured invariants to xi, and ``compare_with_flow``
measures how closely a stored history's projected bending rates follow
the attractor.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import spectral  # read as spectral.project so a wrapper installed there is seen
from .errors import CoverageError, ParameterError, gate

SQRT2 = math.sqrt(2.0)
SQRT8 = math.sqrt(8.0)

XI_LINEARIZATION = np.array([[-3.0, 1.0], [-2.0, 0.0]])


def sd_to_xi(tau, S, D):
    for name, x in (("tau", tau), ("S", S), ("D", D)):
        gate(name, x, "(-inf, inf)", ParameterError)
    return np.array([SQRT2 * tau * S - 1.0, 8.0 * tau * tau * D - 1.0])


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
    model attractor.  Either end of the window may be infinite.
    """
    lo, hi = float(window[0]), float(window[1])
    gate(f"window length {hi} - {lo}", hi - lo, "(0, inf]", ParameterError)
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

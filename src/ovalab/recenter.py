"""Centering transformations and the orthogonality solver.

A renormalized flow can be translated, time-shifted, dilated and
rotated; at the profile level all of these act by rescaling the graph
function and its arguments.  This module implements that action, the
Gaussian pairing maps whose zeros single out a canonical member of each
orbit, and a damped Newton solver that finds those zeros.  Its
Jacobian columns are one-sided differences from the residual the loop
already holds, one pullback each, and between fresh Jacobians Broyden's
update carries it at no pullback; jacobian_det, which measures the
derivative itself, stays central.

Raw parameters (alpha, beta, gamma, phi_rot) live at the unrescaled
level; at a renormalized time tau they induce the working triple
(a, b, Gamma) through

    a = e^(tau/2) alpha,   b = sqrt(1 + beta e^tau) - 1,
    Gamma = (gamma - log(1 + beta e^tau)) / tau,

and the profile transforms as

    v'(y, tau) = (1+b) v((R_(-phi) y - a)/(1+b), (1+Gamma) tau).

psi2 over (b, Gamma) and psi4 over (a, b, Gamma) share one locked
pairing, and each map pairs only its own rows: modes 0 and 3 for psi2,
0 to 3 for psi4.  solve_psi runs one Newton loop for both.
The mode picks the map with its finite-difference steps, the paper's
determinant-sign test (two-param only) and the closing rotation
(four-param only).

Everything here reads a history through one interface: its grid, the
field at(tau) and sample(r, phi, tau) at arbitrary polar points.  A
recorded FlowHistory answers by linear interpolation in tau and
grid.resample in space; a SyntheticHistory evaluates a closed-form
profile family exactly.  The closed form is what makes solver validation
sharp: round trips through known parameters are then limited only by
the Newton tolerance, not by resampling error.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetError,
    CoverageError,
    DegeneracyError,
    ParameterError,
    gate,
)
from .grid import ScalarField, _check_points
from .shrinkers import normal_form_profile
from .spectral import get_basis, pairings, quadratic_distance, truncated_deviation

SQRT2 = math.sqrt(2.0)
SQRT8 = math.sqrt(8.0)

# residual norm at which the Newton search of solve_psi stops, and the
# iterations it may take to get there
PSI_TOL = 1.0e-10
_MAX_ITER = 50

TWO_PARAM = "two-param"
FOUR_PARAM = "four-param+rotation"


# ---------------------------------------------------------------------------
# parameter bookkeeping


@dataclass(frozen=True)
class TransformParams:
    """Centering parameters of one flow, stored at the unrescaled level.

    alpha is the spatial translation in the symmetry plane (two
    components, or ParameterError), beta the time shift, gamma the log
    dilation, phi_rot the rotation angle.
    The renormalized working parameters depend on the time at which the
    transformation is read off and are exposed as methods.  Parameters
    and the times handed to the methods are finite, so every derived value is.
    """

    alpha: tuple
    beta: float
    gamma: float
    phi_rot: float = 0.0

    def __post_init__(self):
        if np.shape(self.alpha) != (2,):
            raise ParameterError(f"translation alpha={self.alpha!r} is not a plane vector")
        for name, x in (*(("alpha", a) for a in self.alpha), ("beta", self.beta),
                        ("gamma", self.gamma), ("phi_rot", self.phi_rot)):
            gate(name, x, "(-inf, inf)", ParameterError)

    def _stretch(self, tau):
        s = 1.0 + self.beta * math.exp(gate("tau", tau, "(-inf, inf)", ParameterError))
        if s <= 0.0:
            raise ParameterError(
                f"time shift beta={self.beta:g} empties the flow before "
                f"tau={tau:g} (1 + beta e^tau = {s:g})"
            )
        return s

    def a(self, tau):
        tau = gate("tau", tau, "(-inf, inf)", ParameterError)
        return math.exp(tau / 2.0) * np.asarray(self.alpha, dtype=float)

    def b(self, tau):
        return math.sqrt(self._stretch(tau)) - 1.0

    def Gamma(self, tau):
        gate("|tau| of Gamma", abs(tau), "(0, inf)", ParameterError)
        return (self.gamma - math.log(self._stretch(tau))) / tau

    @classmethod
    def from_renormalized(cls, tau, a=(0.0, 0.0), b=0.0, Gamma=0.0,
                          phi_rot=0.0):
        """Invert the derived triple back to raw parameters at time tau."""
        gate("|tau| of the conversion", abs(tau), "(0, inf)", ParameterError)
        gate("b", b, "(-1, inf)", ParameterError)
        stretch = (1.0 + b) ** 2
        beta = math.exp(-tau) * (stretch - 1.0)
        gamma = Gamma * tau + math.log(stretch)
        a = np.asarray(a, dtype=float)
        alpha = tuple(math.exp(-tau / 2.0) * a)
        return cls(alpha=alpha, beta=beta, gamma=gamma,
                   phi_rot=float(phi_rot) % (2.0 * math.pi))


# ---------------------------------------------------------------------------
# histories


class SyntheticHistory:
    """Closed-form profile family answering the calls of a recorded
    FlowHistory.

    fn(y, phi, tau) must accept array arguments; sample broadcasts its
    result to the shape of (y, phi), so fn may ignore an argument.
    Sampling is exact at any point and any time inside the span, which
    removes every resampling error from solver round trips.  There are
    no snapshots, so asking for their times raises ParameterError.
    """

    def __init__(self, fn, grid, span):
        lo, hi = float(span[0]), float(span[1])
        gate(f"time span length {hi} - {lo}", hi - lo, "(0, inf]", ParameterError)
        self.fn = fn
        self.grid = grid
        self.span = (lo, hi)

    @property
    def times(self):
        raise ParameterError(
            "a closed-form history records no snapshot times for a sweep "
            "over stored states to visit"
        )

    def _check(self, tau):
        lo, hi = self.span
        if not lo - 1.0e-9 <= tau <= hi + 1.0e-9:  # NaN included
            raise CoverageError(
                f"time {tau:.6g} outside synthetic span [{lo:.6g}, {hi:.6g}]"
            )

    def sample(self, y, phi, tau):
        """fn at the points (y, phi), which broadcast together, and time
        tau.  Points are checked by grid._check_points, as a recorded
        history's are; an infinite y is handed to fn as it is."""
        self._check(tau)
        _check_points(y, phi)
        shape = np.broadcast_shapes(np.shape(y), np.shape(phi))
        return np.broadcast_to(np.asarray(self.fn(y, phi, tau), dtype=float), shape)

    def at(self, tau):
        vals = self.sample(self.grid.y[:, None], self.grid.phi[None, :], tau)
        return ScalarField(self.grid, vals)


def normal_form_history(grid, tau0):
    """Synthetic history of the inward-quadratic profile on
    [1.25 tau0, 0.75 tau0]."""
    gate("tau0", tau0, "(-inf, 0)", ParameterError)

    def fn(y, phi, tau):
        return normal_form_profile(y, tau)

    span = (tau0 * 1.25, tau0 * 0.75)
    return SyntheticHistory(fn, grid, span)


# ---------------------------------------------------------------------------
# the transformation


def _pullback(history, q, ang, b, Gamma, tau0):
    """(1+b) v(q/(1+b), ang, (1+Gamma) tau0) as a field on the history's
    grid, where (q, ang) is the polar point each node moves to before
    the 1/(1+b) scaling."""
    gate("b", b, "(-1, inf)", ParameterError)
    gate("Gamma", Gamma, "(-inf, inf)", ParameterError)
    gate("tau0", tau0, "(-inf, 0)", ParameterError)
    vals = history.sample(q / (1.0 + b), ang, (1.0 + Gamma) * tau0)
    return ScalarField(history.grid, (1.0 + b) * vals, copy=False)


def transform_profile(history, b, Gamma, tau0):
    """Scaled and time-dilated profile (1+b) v(y/(1+b), (1+Gamma) tau0)
    resampled onto the history's own grid."""
    grid = history.grid
    return _pullback(history, grid.y[:, None], grid.phi[None, :], b, Gamma, tau0)


def transform_full(history, a, b, Gamma, phi_rot, tau0):
    """Full action with plane translation a and rotation phi_rot:
    (1+b) v((R_(-phi) y - a)/(1+b), (1+Gamma) tau0), resampled onto the
    history's own grid."""
    a = np.asarray(a, dtype=float)
    if a.shape != (2,):
        raise ParameterError("translation a must be a plane vector")
    for name, x in (("a_1", a[0]), ("a_2", a[1]), ("phi_rot", phi_rot)):
        gate(name, x, "(-inf, inf)", ParameterError)
    y = history.grid.y[:, None]
    phi = history.grid.phi[None, :]
    c, s = np.cos(phi - phi_rot), np.sin(phi - phi_rot)
    qx = y * c - a[0]
    qy = y * s - a[1]
    return _pullback(history, np.hypot(qx, qy), np.arctan2(qy, qx), b, Gamma, tau0)


# ---------------------------------------------------------------------------
# pairing maps


def _locked_pairings(history, tau0, modes, transform, *args):
    """Pairings of transform(history, *args, tau0) with the basis modes
    the slice modes picks, and with no others; a slice keeps their stack
    a view.  The last is y^2 - 4 (mode 3), measured against the locked
    inward slope -1/(sqrt(8)|tau0|)."""
    field = transform(history, *args, tau0)
    basis = get_basis(field.grid)
    p = field.grid.pair(truncated_deviation(field), basis.functions[modes])
    p[-1] += basis.normsq[3] / (SQRT8 * abs(tau0))
    return p


def psi2(history, tau0, b, Gamma):
    """Two centering conditions: the constant pairing of the deviation
    and the locked quadratic pairing, modes 0 and 3 alone."""
    return _locked_pairings(history, tau0, slice(0, 4, 3), transform_profile, b, Gamma)


def psi4(history, tau0, a, b, Gamma):
    """Four centering conditions: the two of psi2 plus the translation
    pairings against y cos phi and y sin phi, all at phi_rot = 0."""
    return _locked_pairings(history, tau0, slice(0, 4), transform_full,
                            a, b, Gamma, 0.0)


def rotation_angle(field):
    """Rotation parameter that zeroes the y^2 sin 2phi pairing.

    Of the two half-angle candidates the one leaving the y^2 cos 2phi
    pairing nonnegative is returned, in [0, 2 pi).  A field without
    quadrupole content returns 0.
    """
    basis = get_basis(field.grid)
    c_pair, s_pair = pairings(truncated_deviation(field), basis)[4:]
    scale = max(basis.normsq[4], basis.normsq[5])
    if math.hypot(c_pair, s_pair) < 1.0e-14 * scale:
        return 0.0
    return 0.5 * math.atan2(-s_pair, c_pair) % (2.0 * math.pi)


# ---------------------------------------------------------------------------
# the solver


def measure_kappa(history, tau0):
    """Gaussian distance (scaled by |tau0|) of the truncated profile
    from the inward-quadratic state; sets the search box size."""
    gate("tau0", tau0, "(-inf, 0)", ParameterError)
    return abs(tau0) * quadratic_distance(history.at(tau0), tau0)


def _in_box(x, tau0, radius_sq):
    return tau0**2 * x[-2] ** 2 + x[-1] ** 2 <= radius_sq


def _pairing_map(history, tau0, mode):
    """The pairing map of mode as a function of the Newton vector,
    x = (b, Gamma) for psi2 or (a1, a2, b, Gamma) for psi4, and the
    finite-difference step of each component."""
    if mode == TWO_PARAM:
        return (lambda x: psi2(history, tau0, x[0], x[1])), (1.0e-7, 1.0e-6)
    if mode == FOUR_PARAM:
        return ((lambda x: psi4(history, tau0, x[:2], x[2], x[3])),
                (1.0e-6, 1.0e-6, 1.0e-7, 1.0e-6))
    raise ParameterError(
        f"mode must be {TWO_PARAM!r} or {FOUR_PARAM!r}, got {mode!r}"
    )


def jacobian_det(history, tau0, b, Gamma):
    """Determinant of the central finite-difference Jacobian of psi2
    in the (b, Gamma) plane, with step 1e-6 in both.  Central, not the
    one-sided Jacobian of solve_psi: this is a measurement of the
    derivative, and its O(h^2) error keeps it a sharp one."""
    F, _ = _pairing_map(history, tau0, TWO_PARAM)
    J = _fd_jacobian(F, np.array([b, Gamma], dtype=float), (1.0e-6, 1.0e-6), None)
    return float(_det2(J))


def _det2(J):
    return J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]


def _fd_jacobian(F, x, steps, fx):
    """Finite-difference Jacobian of F at x, column k with step steps[k].

    Given fx = F(x), the columns are one-sided, (F(x + h e_k) - fx)/h:
    one call of F per column, error O(h).  Given None, they are central,
    (F(x + h e_k) - F(x - h e_k))/(2h): two calls per column, error
    O(h^2).  _newton passes the residual it holds, since a Newton step
    needs a Jacobian only good enough to contract, and calls this only for
    its fresh Jacobians; jacobian_det and other measurements of the
    derivative itself pass None.
    """
    cols = []
    for k, h in enumerate(steps):
        xp = x.copy()
        xp[k] += h
        if fx is None:
            xm = x.copy()
            xm[k] -= h
            cols.append((F(xp) - F(xm)) / (2.0 * h))
        else:
            cols.append((F(xp) - fx) / h)
    return np.column_stack(cols)


def _step(F, x, J, res, mode, tau0, radius_sq, halvings):
    """The Newton step from x along J, with res = F(x): (lam, s, F(x + s))
    for s = lam J^-1 (-res).  lam starts at the largest power of 1/2 that
    stays in the box of squared radius radius_sq and is halved until F(x + s)
    has a lower norm than res, `halvings` trials at most.  A nonpositive
    psi2 determinant or a singular J is a DegeneracyError; a direction that
    leaves the box at every length, or no lower trial, is a BudgetError; a
    trial time the history does not hold is its CoverageError."""
    if mode == TWO_PARAM and (det := _det2(J)) <= 0.0:
        raise DegeneracyError(
            f"psi2 Jacobian determinant {det:g} <= 0 inside the box"
        )
    try:
        d = np.linalg.solve(J, -res)
    except np.linalg.LinAlgError as err:
        raise DegeneracyError(f"Jacobian solve failed: {err}") from err
    lam = 1.0
    while not _in_box(x + lam * d, tau0, radius_sq):
        lam *= 0.5
        if lam < 1.0e-12:
            raise BudgetError(
                "Newton direction pinned to the box boundary"
            )
    base = float(np.linalg.norm(res))
    for _ in range(halvings):
        s = lam * d
        trial = F(x + s)
        if float(np.linalg.norm(trial)) < base:
            return lam, s, trial
        lam *= 0.5
    raise BudgetError("damping failed to reduce the residual")


def _newton(F, x, steps, mode, tau0, radius_sq):
    """The damped Newton loop of solve_psi from x: returns the point where
    |F| < PSI_TOL within _MAX_ITER iterations, every iterate inside the box
    of squared radius radius_sq.

    The first iteration forms the one-sided Jacobian (_fd_jacobian, one
    call of F per column from the residual it holds) and takes _step with
    30 halvings.  After a full step (lam = 1) the Jacobian is carried by
    Broyden's good update, J += (dF - J s) s^T / s^T s, from the step s and
    residual change dF already paid for, and the next iteration first tries
    one full step from it, cut only by the box: one call of F.  If that
    step does not lower |F|, or is refused for any reason (a nonpositive
    psi2 determinant, a singular J, the box, or the history's
    CoverageError), the same iterate is redone from a fresh one-sided
    Jacobian.  So every refusal comes from a fresh Jacobian, as in full
    Newton.  A step with lam < 1, cut by the box or the damping, is
    followed by a fresh Jacobian."""
    res = F(x)
    J = None
    for _ in range(_MAX_ITER):
        if float(np.linalg.norm(res)) < PSI_TOL:
            break
        taken = None
        if J is not None:
            try:
                taken = _step(F, x, J, res, mode, tau0, radius_sq, 1)
            except (BudgetError, CoverageError, DegeneracyError):
                pass
        if taken is None:
            J = _fd_jacobian(F, x, steps, res)
            taken = _step(F, x, J, res, mode, tau0, radius_sq, 30)
        lam, s, trial = taken
        J = J + np.outer(trial - res - J @ s, s) / (s @ s) if lam == 1.0 else None
        x = x + s
        res = trial
    if float(np.linalg.norm(res)) >= PSI_TOL:
        raise BudgetError(
            f"no convergence in {_MAX_ITER} Newton iterations "
            f"(|psi| = {float(np.linalg.norm(res)):.3g})"
        )
    return x


def solve_psi(history, tau0, mode=TWO_PARAM):
    """Damped Newton search for the canonical zero of the pairing map.

    Two-param mode solves psi2 over (b, Gamma); four-param mode solves
    psi4 over (a1, a2, b, Gamma) and then fixes the rotation by the
    closed-form half-angle.  Newton starts at zero, the untransformed
    history, and stops once |psi| < PSI_TOL.  Its first Jacobian has
    one-sided columns from the residual it holds, n pullbacks for n
    parameters; after each full step Broyden's update carries it, and each
    iteration costs one pullback while those steps lower |psi| (7 pullbacks
    for a psi2 solve and 9 for psi4 on the shifted normal form at tau0 =
    -100).  An updated step that fails is redone from a fresh Jacobian.  The
    Jacobian only steers the iteration, which contracts with its error too,
    so the result moves only within |psi| < PSI_TOL.  Iterates are confined to
    the box |tau0|^2 b^2 + Gamma^2 <= 100 kappa^2 with kappa measured
    from the history.  A nonpositive psi2 Jacobian determinant inside
    the box, or a singular Jacobian in either mode, is a degeneracy;
    running past _MAX_ITER iterations exhausts the budget.  A trial
    point whose time (1 + Gamma) tau0 the history does not hold raises
    the history's CoverageError, which names the time asked for and the
    span held.  Each of these errors is raised from a fresh Jacobian only,
    keeps its type, and its text goes on to name kappa and the box radius.
    """
    F, steps = _pairing_map(history, tau0, mode)
    kappa = max(measure_kappa(history, tau0), 1.0e-8)
    radius_sq = 100.0 * kappa**2
    try:
        x = _newton(F, np.zeros(len(steps)), steps, mode, tau0, radius_sq)
    except (BudgetError, CoverageError, DegeneracyError) as err:
        raise type(err)(
            f"{err}; at tau0={tau0:g}, kappa = {kappa:.3g} and the search box "
            f"tau0^2 b^2 + Gamma^2 <= r^2 has radius r = 10 kappa = {10.0 * kappa:.3g}"
        ) from err

    if mode == TWO_PARAM:
        return TransformParams.from_renormalized(tau0, b=x[0], Gamma=x[1])
    field = transform_full(history, x[:2], x[2], x[3], 0.0, tau0)
    return TransformParams.from_renormalized(
        tau0, a=x[:2], b=x[2], Gamma=x[3], phi_rot=rotation_angle(field)
    )

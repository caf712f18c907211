"""Time-stepping engine for the profile equations.

Two coordinate patches mirror the geometry: the profile v(y, phi) as a
graph over the symmetry plane wherever v is not too small, and the
per-angle inverse profile Y(v, phi) on a tip patch v in [0, 2 theta]
where the v-graph degenerates.  The renormalized graph equation is

    v_tau = quasilinear(v) - (1/2) y v_y + v/2 - 1/v,

with the quasilinear part the polar mean-curvature operator including
all angular cross terms; dropping the two rescaling terms gives the
unrescaled equation d/dt V = ... - 1/V used for extinction hunting.

The graph patch is never stepped in v.  Its one right-hand side,
_w_rhs, works on the squared profile W = v^2, which obeys the same
equation rewritten as

    W_t = Lap W - [Hess_W(DW, DW) + 2|DW|^2] / (4W + |DW|^2) - 2

(plus -(1/2) y W_y + W in the renormalized gauge).  Every term is
frame-invariant, so _w_rhs is one expression over grid.frame_jet on all
rows, the pole included.  W is the smooth variable: it crosses the free
boundary linearly where v has a square root, every quadric model body
is an exact polynomial state of the discrete operators, and the -1/v
sink becomes the harmless constant -2.  Nodes outside the body hold a
smooth continuation of W rebuilt from the interior after every stage,
so stencils near the rim never see a cliff.  A graph step works on the
rows up to the outermost rim + 2 only, the farthest that a stencil or
ring transform of a body node reaches: rows past them are neither
stepped nor filtered, and carried over unchanged.

The tip patch steps Y(v, phi) by the inverse-profile equation of
rhs_renormalized_Y.  A tip table is (values, theta) and takes its nodes
from grid.tip_nodes, as a PolarGrid is (n_r, n_phi, y_max), so neither
patch is ever handed a node array.  Coupling runs one way: the graph
never reads the tip, and needs no boundary values from it, because its
equation is regular through the rim and the continuation outside the
body is its own.  So the graph steps first, and over the step the tip
rows with v >= theta follow it: they move at the constant rate that
carries them to the new graph's inversion, and end on it.  Both patches
step explicitly under a parabolic CFL bound from their radial spacing,
in second-order Runge-Kutta-Legendre (RKL2) super-steps of one routine,
_rkl2 (Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014).  The graph
takes one two-stage super-step per step, whose stability polynomial
1 + z + z^2/2 is the midpoint step's; a per-ring angular low-pass keeps
the polar axis from tightening its bound.  The tip takes super-steps of
at most three stages, each stretching its bound up to 2.5 times.  Its
default spacing follows the graph's, the finest at which one
three-stage super-step crosses a cfl_dt graph step.  Angular derivatives
and the low-pass are products with ring matrices cached per n_phi, and
radial ones come from grid.radial_stencil, so the tip table, which has
no PolarGrid, shares both with the graph.  Both run and find_extinction
march through _march, which retries a rejected step at half the step
and stops at t_end, at death or at the resolution floor.
"""

import copy
import functools
import json
import math
import os
import warnings
from bisect import bisect_left
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BudgetError,
    CoverageError,
    DegeneracyError,
    DomainError,
    ParameterError,
    ShapeError,
    StepSizeError,
    gate,
)
from .grid import (
    THETA,
    ScalarField,
    _read_table,
    _write_table,
    angular_derivs,
    angular_lowpass,
    build_grid,
    frame_jet,
    load_field,
    radial_stencil,
    rebuild_halo,
    resample,
    rim_index,
    save_field,
    signed_square,
    tip_nodes,
)
from .grid import diff_phi_fft  # noqa: F401  (perfbench's tracer wraps evolve.diff_phi_fft)

V_FLOOR = 1.0e-6
# parabolic step bound dt <= CFL h^2: the graph's two-stage RKL2
# super-step, and the unit that the tip's longer super-steps stretch
CFL = 0.2
# largest stretch of one tip super-step, (s^2 + s - 2)/4 at s = 3 stages,
# and so the bound on (dy/dv)^2 that sets the default tip spacing.  On the
# 128x32 benchmark oval over tau -20 -> -19.75, with the rows v >= theta
# following the graph, the tip table's time error against a CFL 0.025 run
# is 1.19e-5 with the default 9 nodes (3 right-hand-side calls per step);
# four-stage super-steps (stretch 4.5) give 1.19e-5 with 11 nodes (4 calls),
# and 17 nodes give 1.20e-5 at either stretch (12 or 8 calls)
_TIP_STRETCH = 2.5


# ---------------------------------------------------------------------------
# tip patch


class TipField:
    """Per-angle inverse profile Y(v, phi), a 2-d table of values whose n
    rows sit at v_nodes = grid.tip_nodes(n, theta) in [0, 2 theta].  An
    entry that is not finite and positive raises DomainError.

    The smooth-tip boundary condition Y_v(0, phi) = 0 is built into the
    reflection stencils rather than stored.  Y decreasing in v holds for
    convex bodies and is monitored, not enforced.
    """

    def __init__(self, values, theta):
        self.values = np.asarray(values, dtype=float)
        self.theta = float(theta)
        if self.values.ndim != 2:
            raise ParameterError("tip value table must be 2-d")
        self.v_nodes = tip_nodes(self.values.shape[0], self.theta)
        if not np.all((self.values > 0.0) & (self.values < np.inf)):
            raise DomainError("tip radius table must be finite and positive")

    @property
    def n_phi(self):
        return self.values.shape[1]

    @property
    def dv(self):
        return self.v_nodes[1] - self.v_nodes[0]

    def tip_radius(self):
        """Radius of the tip point, per angle."""
        return self.values[0, :]

    def monotone(self):
        return bool(np.all(np.diff(self.values, axis=0) < 0.0))

    def profile_at(self, y, j):
        """Plane radius y -> fiber radius v down the angle-j column, by _interp_columns."""
        col = np.minimum.accumulate(self.values[:, j])
        y = np.asarray(y, dtype=float)
        v = _interp_columns(y.reshape(-1, 1), col[::-1, None], self.v_nodes[::-1, None])
        return v.reshape(y.shape)[()]

    @classmethod
    def from_profile(cls, field, theta=THETA, n_nodes=None):
        """Build the table by monotone inversion of v near the rim: the
        squared profile read by signed_square, inverted at the tip nodes
        by _invert_w, which raises DegeneracyError where that fails.
        grid.tip_nodes raises ParameterError for n_nodes or theta it
        cannot lay out.

        Without n_nodes the spacing follows the graph's: the table takes
        the most nodes whose spacing dv keeps the tip's step ratio
        (dy/dv)^2 within _TIP_STRETCH, with theta on a node.  So n - 1 is
        the largest even integer <= 2 theta sqrt(_TIP_STRETCH) / dy, and 4
        at least, and the tip crosses each cfl_dt graph step in one
        three-stage super-step."""
        W = signed_square(field)
        if n_nodes is None:
            gate("theta of the tip nodes", theta, "(0, inf)", ParameterError)
            # a ceiling 2 theta above the peak is refused by _invert_w, so
            # the count never lays out more nodes than the peak's
            reach = min(theta, 0.5 * math.sqrt(max(float(W.max()), 0.0)))
            n_nodes = 1 + 2 * max(2, int(reach * math.sqrt(_TIP_STRETCH) / field.grid.dy))
        return cls(_invert_w(W, field.grid, tip_nodes(n_nodes, theta)), theta)

    def save(self, path):
        _write_table(
            path,
            f"v_nodes={len(self.v_nodes)} phi_nodes={self.n_phi} "
            f"theta={self.theta:.17g}",
            self.v_nodes,
            2.0 * math.pi * np.arange(self.n_phi) / self.n_phi,
            self.values,
        )

    @classmethod
    def load(cls, path):
        """Read a table written by save; stored nodes that are not the
        header's tip_nodes(v_nodes, theta) raise ParameterError."""
        theta, values = _read_table(path, "tip", lambda m: (
            tip_nodes(int(m["v_nodes"]), float(m["theta"])), float(m["theta"])))
        return cls(values, theta)


def rhs_renormalized_Y(tip):
    """Right-hand side of the inverse-profile equation on the tip patch.

    Y_v and Y_vv are grid.radial_stencil's, with the even reflection
    Y(-v) = Y(v) as the row below the tip.  The (1/v) Y_v factor is
    regular at the tip: by that reflection Y_v / v -> Y_vv at v = 0.
    """
    Y = tip.values
    if np.any(Y <= 0.0):
        raise DomainError("tip radius must stay positive")
    v = tip.v_nodes[:, None]
    Yv = radial_stencil(Y, tip.dv, Y[1], 1)
    Yvv = radial_stencil(Y, tip.dv, Y[1], 2)
    Yp, Ypp, Yvp = angular_derivs(Y, Yv)

    den = Y**2 * (1.0 + Yv**2) + Yp**2
    num = (Y**2 + Yp**2) * Yvv - 2.0 * Yp * Yv * Yvp + (1.0 + Yv**2) * Ypp
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = (1.0 / v - 0.5 * v) * Yv
    drift[0, :] = Yvv[0, :]  # limit of Y_v / v at the smooth tip
    return num / den + drift - Yp**2 / (Y * den) + 0.5 * Y - 1.0 / Y


# ---------------------------------------------------------------------------
# squared-profile stepping core


def _w_rhs(W, grid, renormalized, mask):
    """RHS of the squared-profile equation, zero off mask.

    The equation is regular through the rim (the denominator 4W + |DW|^2
    stays positive where the gradient is transversal), so a caller may
    pass the mask of an earlier stage: cells that dip below zero mid-step
    still get a genuine update instead of freezing at a positive remnant.
    Every term is frame-invariant, so one expression over the frame jet
    covers every row of W, the grid's first rows from the pole out; at
    the pole the radial drift vanishes with y.  step passes the rows up
    to the outermost rim + 2, so rows past them are never evaluated.
    """
    W1, W2, W11, W12, W22 = frame_jet(grid, W)
    g2 = W1**2 + W2**2
    hess = W11 * W1**2 + 2.0 * W12 * W1 * W2 + W22 * W2**2
    # the quotient denominator vanishes only at rim cusps (W ~ 0 with
    # flat gradient, e.g. the saddle between two dying lobes); there
    # the graph quotient is pure noise, so freeze it rather than
    # divide.  Healthy rim columns have |DW| = O(1) and never trip.
    den = 4.0 * W + g2
    rat = np.where(den > 1.0e-4, (hess + 2.0 * g2) / np.where(den > 1.0e-4, den, 1.0), 0.0)
    out = W11 + W22 - rat - 2.0
    if renormalized:
        out += -0.5 * grid.y[:W.shape[0], None] * W1 + W
    return np.where(mask, out, 0.0)


@functools.cache
def _ring_caps(rows, n_phi):
    """Caps max(2, floor(2.5 i)) of the rings i < rows that _filter_w
    cuts, those below n_phi/2; rings further out keep every mode."""
    caps = (max(2, int(2.5 * i)) for i in range(rows))
    return tuple(c for c in caps if c < n_phi // 2)


def _filter_w(W):
    """Per-ring angular low-pass of W in place: ring i keeps modes
    m <= max(2, 2.5 i), which caps the angular diffusion number below the
    radial one near the pole.  Only the rings _ring_caps cuts are handed
    to angular_lowpass, so its set-up is cached per (rows, n_phi).  W is
    smooth across the rim, so filtering whole rings is safe everywhere."""
    caps = _ring_caps(*W.shape)
    W[:len(caps)] = angular_lowpass(W[:len(caps)], caps)
    W[0, :] = W[0, :].mean()


# ---------------------------------------------------------------------------
# flow state and stepping


@dataclass(frozen=True)
class FlowState:
    """One snapshot of the evolving surface in either time gauge.

    theta is the tip patch's handover level, its tip's own when it has
    one, and L the collar scale of the run.  No package computation reads
    L: step, state_at and save_dir/load_dir carry it, while collar_deviation
    and cylindrical_estimate take their own L.
    """

    time: float
    v: ScalarField
    tip: TipField | None = None
    renormalized: bool = True
    theta: float = THETA
    L: float = 10.0

    def __post_init__(self):
        gate("state time", self.time, "(-inf, inf)", ParameterError)
        gate("state theta", self.theta, "(0, inf)", ParameterError)
        gate("state L", self.L, "(0, inf)", ParameterError)
        if self.tip is not None and self.tip.theta != self.theta:
            raise ParameterError(
                f"state theta={self.theta:g} is not its tip's theta={self.tip.theta:g}")

    @property
    def tau(self):
        if not self.renormalized:
            raise ParameterError("state is in unrescaled time")
        return self.time

    def tip_radius(self):
        if self.tip is None:
            raise ParameterError("state has no tip patch")
        return self.tip.tip_radius()


@functools.cache
def _rkl2_coefficients(s):
    """Meyer-Balsara-Aslam RKL2 weights of an s-stage super-step: mu~_1,
    then (mu_j, nu_j, mu~_j, gamma~_j) for stages j = 2..s."""
    w1 = 4.0 / (s * s + s - 2)
    b = [1.0 / 3.0, 1.0 / 3.0] + [(j * j + j - 2) / (2.0 * j * (j + 1))
                                  for j in range(2, s + 1)]
    stages = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * b[j] / b[j - 1]
        nu = -(j - 1) / j * b[j] / b[j - 2]
        stages.append((mu, nu, mu * w1, -(1.0 - b[j - 1]) * mu * w1))
    return b[1] * w1, tuple(stages)


def _rkl2(Y, h, s, rhs, after_stage):
    """One s-stage RKL2 super-step of length h from Y.  rhs gives a
    stage's time derivative; after_stage maps each new stage to the one
    later stages read.  At s = 2 the stability polynomial is the
    midpoint's, 1 + z + z^2/2.  A non-finite end raises StepSizeError."""
    mu1, stages = _rkl2_coefficients(s)
    k0 = h * rhs(Y)
    prev, cur = Y, after_stage(Y + mu1 * k0)
    for mu, nu, mu_t, gamma_t in stages:
        k = rhs(cur)
        prev, cur = cur, after_stage(mu * cur + nu * prev + (1.0 - mu - nu) * Y
                                     + (mu_t * h) * k + gamma_t * k0)
    if not np.all(np.isfinite(cur)):
        raise StepSizeError(f"{s}-stage super-step not finite at dt={h:.3e}")
    return cur


def _substep_tip(tip, dtau, outer_end):
    """Advance the tip table by dtau in m equal _rkl2 super-steps of s
    stages each.  m = ceil(ratio / _TIP_STRETCH) with ratio = dtau /
    (CFL dv^2), and s is the fewest stages whose stable stretch
    (s^2 + s - 2)/4 covers ratio / m, so s <= 3.

    The last len(outer_end) rows are not stepped by their own right-hand
    side: every stage gives them the constant rate that carries them to
    outer_end over dtau, which RKL2 integrates exactly, and they end on
    outer_end.  A tip stepped alone passes a table of no rows."""
    ratio = dtau / (CFL * tip.dv**2)
    m = max(1, math.ceil(ratio / _TIP_STRETCH))
    s = 2
    while (s * s + s - 2) / 4.0 < ratio / m:
        s += 1
    i = tip.values.shape[0] - outer_end.shape[0]
    rate = (outer_end - tip.values[i:]) / dtau
    # stages share one table object, so only rhs_renormalized_Y checks Y > 0
    stage = copy.copy(tip)

    def rhs(Y):
        stage.values = Y
        out = rhs_renormalized_Y(stage)
        out[i:] = rate
        return out

    Y = tip.values
    for _ in range(m):
        Y = _rkl2(Y, dtau / m, s, rhs, lambda Y: Y)
    Y[i:] = outer_end
    return TipField(Y, tip.theta)


def _interp_columns(x, xp, fp):
    """np.interp down every column at once.

    x is (k, c); xp and fp are (m, c) or (m, 1), xp nondecreasing down
    each column.  The node choice (the last xp <= x, also on flat runs),
    the end values and the formula are np.interp's own, so column j is
    bitwise equal to np.interp(x[:, j], xp[:, j], fp[:, j]).

    xp may end in +inf entries, as _invert_w's masked rows above each
    peak do: a finite x below the last finite xp has its bracket among
    the finite entries, so an infinite node is never read.
    """
    m, c = xp.shape[0], x.shape[1]
    xp = np.broadcast_to(xp, (m, c))
    fp = np.broadcast_to(fp, (m, c))
    j = np.clip((xp[None, :, :] <= x[:, None, :]).sum(axis=1) - 1, 0, m - 2)
    cols = np.arange(c)
    x0, f0 = xp[j, cols], fp[j, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (fp[j + 1, cols] - f0) / (xp[j + 1, cols] - x0)
        out = slope * (x - x0) + f0
    out = np.where(x == x0, f0, out)
    out = np.where(x >= xp[-1], fp[-1], out)
    return np.where(x < xp[0], fp[0], out)


def _invert_w(W, grid, v_levels):
    """Plane radius where each column of the squared profile W falls
    through each level v^2, as a (len(v_levels), n_phi) table.

    The levels are located in W, which crosses the rim linearly and so
    keeps the interpolation uniformly second order; the rim lands at the
    zero crossing of W's continuation, not at the last live node.  Rows
    above each column's peak are masked to +inf, so one running minimum
    down the table holds every column's nonincreasing tail from its peak
    outwards, and _interp_columns inverts all tails at once.  A column
    whose peak does not clear the top level, or whose rim lies past the
    grid, raises DegeneracyError naming the first such angle.
    """
    rows = np.arange(W.shape[0])[:, None]
    tail = np.minimum.accumulate(np.where(rows < np.argmax(W, axis=0), np.inf, W), axis=0)
    peak = W.max(axis=0)
    ceiling = peak <= v_levels[-1] ** 2
    bad = ceiling | (tail[-1] > 0.0)
    if np.any(bad):
        j = int(np.argmax(bad))  # first failing angle, as a sweep finds it
        if ceiling[j]:
            raise DegeneracyError(
                f"profile max {math.sqrt(max(peak[j], 0)):.4g} at angle "
                f"{j} does not reach the tip-patch ceiling {v_levels[-1]:.4g}"
            )
        raise DegeneracyError(f"rim not contained in grid at angle {j}")
    levels = np.repeat(v_levels[:, None] ** 2, W.shape[1], axis=1)
    return _interp_columns(levels, tail[::-1], grid.y[::-1, None])


def step(state, dtau):
    """Advance the graph by one two-stage _rkl2 super-step, unsplit at any
    dtau, then the tip by its super-steps.

    The graph step and its filter see only the rows up to the outermost
    rim + 2 (four at least); rows past them are carried over unchanged.

    The tip rows with v >= theta follow the graph over the step: the new
    graph is inverted there once by _invert_w, and _substep_tip carries
    those rows to that table at a constant rate and ends them on it, so
    inverting the new graph again gives them bit for bit.  The graph's W
    is never written from the tip, the rule for overlapping grids that a
    point receiving interpolated values is never read to give values back
    (Chesshire & Henshaw, J. Comput. Phys. 90, 1990)."""
    gate("time step", dtau, "(0, inf)", ParameterError)
    g = state.v.grid
    W0 = signed_square(state.v)
    k = min(max(int(rim_index(W0).max()) + 3, 4), g.n_r + 1)
    rhs = functools.partial(_w_rhs, grid=g, renormalized=state.renormalized,
                            mask=W0[:k] > 0.0)
    W = W0.copy()
    W[:k] = _rkl2(W0[:k], dtau, 2, rhs, functools.partial(rebuild_halo, grid=g))
    w_max = float(W0.max())
    if np.any(W[W0 > 0.5 * w_max] < 0.0) and float(W.max()) > 0.5 * w_max:
        raise StepSizeError(f"interior sign change at dt={dtau:.3e}")
    # the squared profile obeys a maximum principle (growth at most e^dt
    # in the renormalized gauge), so any faster inflation is a blown step
    if float(W.max()) > w_max * (1.0 + 4.0 * dtau) + 1.0e-14:
        raise StepSizeError(f"maximum principle violation at dt={dtau:.3e}")
    _filter_w(W[:k])
    new_tip = state.tip
    if new_tip is not None:
        if not state.renormalized:
            raise ParameterError("tip patch requires the renormalized gauge")
        outer = new_tip.v_nodes >= new_tip.theta - 1.0e-12
        new_tip = _substep_tip(new_tip, dtau, _invert_w(W, g, new_tip.v_nodes[outer]))
    return replace(state, time=state.time + dtau, v=ScalarField.from_square(g, W), tip=new_tip)


class FlowHistory:
    """Snapshots ordered in time with linear interpolation between them.

    A recorded history answers the calls a closed-form SyntheticHistory
    does: grid, at(tau) and sample(r, phi, tau), and in addition the
    snapshot times a sweep over its stored states visits.
    """

    def __init__(self):
        self._times = []
        self._states = []

    @property
    def times(self):
        return np.asarray(self._times)

    @property
    def states(self):
        return list(self._states)

    @property
    def grid(self):
        """Grid of the first snapshot; later ones may have their own."""
        if not self._states:
            raise CoverageError("empty history")
        return self._states[0].v.grid

    def append(self, state):
        """Add a state after the last one; FlowState refuses a non-finite time."""
        if self._times and not state.time > self._times[-1] + 1.0e-15:
            raise ParameterError(f"history time {state.time} is not increasing")
        self._times.append(state.time)
        self._states.append(state)

    def _bracket(self, t):
        """(k, lam) with time t the blend (1 - lam) t_k + lam t_(k+1) of
        two snapshots, lam in [0, 1], or (0, 0.0) for a single one."""
        t = float(t)
        ts = self._times
        if not ts:
            raise CoverageError("empty history")
        if not ts[0] - 1.0e-9 <= t <= ts[-1] + 1.0e-9:  # NaN included
            raise CoverageError(
                f"time {t:.6g} outside history [{ts[0]:.6g}, {ts[-1]:.6g}]"
            )
        if len(ts) == 1:
            return 0, 0.0
        k = min(max(bisect_left(ts, t) - 1, 0), len(ts) - 2)
        lam = (t - ts[k]) / (ts[k + 1] - ts[k])
        return k, min(max(lam, 0.0), 1.0)

    def _blend(self, t, k, lam):
        """Profile field at time t of the bracket (k, lam): a snapshot's own
        at lam 0 or 1, else the blend of the two, which must share a grid.
        When both carry the signed squared profile, that is what is
        blended and the profile is its clamped square root."""
        if lam in (0.0, 1.0):
            return self._states[k + 1 if lam else k].v
        v0, v1 = self._states[k].v, self._states[k + 1].v
        if v0.grid != v1.grid:
            ts = self._times
            raise ShapeError(
                f"snapshots at t={ts[k]:.6g} and t={ts[k + 1]:.6g} lie on "
                f"different grids; time {t:.6g} cannot blend them"
            )
        if v0.w_signed is not None and v1.w_signed is not None:
            return ScalarField.from_square(
                v0.grid, (1.0 - lam) * v0.w_signed + lam * v1.w_signed)
        return ScalarField(v0.grid, (1.0 - lam) * v0.values + lam * v1.values, copy=False)

    def state_at(self, t):
        """State at time t: a stored snapshot at its own time, else the
        linear blend of the two around t, whose profile is at(t)."""
        k, lam = self._bracket(t)
        if len(self._times) == 1:
            return self._states[0]
        s0, s1 = self._states[k], self._states[k + 1]
        if lam in (0.0, 1.0):
            return replace(s1 if lam else s0, time=float(t))
        v = self._blend(t, k, lam)
        tip = None
        if s0.tip is not None and s1.tip is not None:
            tip = TipField((1.0 - lam) * s0.tip.values + lam * s1.tip.values,
                           s0.tip.theta)
        return replace(s0, time=float(t), v=v, tip=tip)

    def at(self, t):
        """Profile field at time t, state_at(t).v without the rest of the
        state: a stored snapshot's own field, else the blend of the two
        around t, the signed squares when both carry them."""
        return self._blend(t, *self._bracket(t))

    def sample(self, r, phi, tau):
        """Profile at time tau at the polar points (r, phi), which broadcast
        together, read by grid.resample on the field of at(tau).  Points
        past its radius read the boundary ring, with a warning beyond
        roundoff."""
        src = self.at(tau)
        g = src.grid
        beyond = np.broadcast_to(r > g.y_max * (1.0 + 1.0e-12), np.broadcast(r, phi).shape)
        clipped = int(np.count_nonzero(beyond))
        if clipped:
            warnings.warn(f"{clipped} pullback points beyond y_max={g.y_max:g} "
                          "clamped to the boundary ring", stacklevel=3)
        return resample(src.values, g, r, phi)

    def save_dir(self, path):
        os.makedirs(path, exist_ok=True)
        index = []
        for k, (t, st) in enumerate(zip(self._times, self._states)):
            name = f"snap_{k:05d}"
            save_field(st.v, os.path.join(path, name + ".csv"))
            entry = {
                "time": t,
                "field": name + ".csv",
                "renormalized": st.renormalized,
                "theta": st.theta,
                "L": st.L,
            }
            if st.tip is not None:
                st.tip.save(os.path.join(path, name + "_tip.csv"))
                entry["tip"] = name + "_tip.csv"
            index.append(entry)
        with open(os.path.join(path, "history.json"), "w") as fh:
            json.dump(index, fh, indent=1)

    @classmethod
    def load_dir(cls, path):
        """Read a history written by save_dir.  An index that is not JSON
        or not a list of entries, or an entry without its field name, with
        a field or tip name that is not a string, a missing or non-boolean
        renormalized flag, a missing or non-numeric time, theta or L or a
        non-finite time, raises ParameterError naming the index file."""
        where = os.path.join(path, "history.json")
        with open(where) as fh:
            try:
                index = json.load(fh)
            except json.JSONDecodeError as err:
                raise ParameterError(f"{where}: index is not JSON ({err})") from None
        if not isinstance(index, list):
            raise ParameterError(f"{where}: index must be a list of snapshots")
        try:
            entries = [(float(e["time"]), e["field"], e.get("tip"),
                        e["renormalized"], float(e["theta"]), float(e["L"]))
                       for e in index]
        except (KeyError, TypeError, ValueError) as err:
            raise ParameterError(
                f"{where}: bad snapshot entry ({type(err).__name__}: {err})"
            ) from None
        if not all(isinstance(e[3], bool) for e in entries):
            raise ParameterError(f"{where}: renormalized must be true or false")
        if not all(isinstance(e[1], str) and isinstance(e[2], (str, type(None)))
                   for e in entries):
            raise ParameterError(f"{where}: field and tip must be file names")
        for e in entries:
            gate(f"{where}: snapshot time", e[0], "(-inf, inf)", ParameterError)
        hist = cls()
        grid = None
        for time, field, tip, renormalized, theta, L in entries:
            # snapshots on one grid share its object
            f = load_field(os.path.join(path, field), grid=grid)
            grid = f.grid
            if tip is not None:
                tip = TipField.load(os.path.join(path, tip))
            hist.append(FlowState(time=time, v=f, tip=tip, renormalized=renormalized,
                                  theta=theta, L=L))
        return hist


def cfl_dt(grid):
    """Parabolic step bound CFL * dy^2 from the radial node spacing.

    With the per-ring angular filter the effective angular spacing never
    drops below the radial one, so the radial spacing governs.
    """
    return CFL * grid.dy**2


def _alive(field):
    """A centered convex body dies at the origin last, so life requires
    the innermost rings positive, not just a scattered node count."""
    vals = field.values
    return (
        int(np.count_nonzero(vals > 2.0 * V_FLOOR)) >= 4
        and float(vals[0:2, :].max()) > 2.0 * V_FLOOR
    )


def _march_step(state, dtau):
    """One forward step, retried at half the step after each rejection
    (13 tries at most, none below 1e-12).

    Returns None when the step cannot be stabilized and the body is
    already at the resolution floor: an anisotropic endgame can become
    unsteppable a few cells before the node count drops, and at that
    point the body is extinct as far as the grid can tell.
    """
    for _ in range(13):
        try:
            return step(state, dtau)
        except StepSizeError as err:
            rejection = err
            dtau *= 0.5
            if dtau < 1.0e-12:
                break
    if float(state.v.values.max()) < 6.0 * state.v.grid.dy:
        return None
    raise rejection


def _march(state, t_end):
    """Step state at cfl_dt, the last step cut to end at t_end, and yield
    each new state.  Stops at t_end, after yielding the first dead state,
    or without yielding when _march_step gives up at the floor."""
    dt = cfl_dt(state.v.grid)
    steps = 0
    while state.time < t_end - 1.0e-12:
        if steps == 5_000_000:
            raise BudgetError(f"5e6-step budget spent at t={state.time:.6g}")
        state = _march_step(state, min(dt, t_end - state.time))
        if state is None:
            return
        steps += 1
        yield state
        if not _alive(state.v):
            return


def run(state, t_end, snapshot_every=0.05):
    """March to t_end, recording snapshots every snapshot_every.

    Returns the history; the final recorded state is at the last time
    reached (t_end, or earlier if the body became extinct or the march
    stopped at the resolution floor).
    """
    gate(f"t_end - t = {t_end} - {state.time}", t_end - state.time, "[0, inf]", ParameterError)
    gate("snapshot_every", snapshot_every, "(0, inf]", ParameterError)
    hist = FlowHistory()
    hist.append(state)
    next_snap = state.time + snapshot_every
    cur = state
    for cur in _march(state, t_end):
        if cur.time >= next_snap - 1.0e-12:
            hist.append(cur)
            while next_snap <= cur.time + 1.0e-12:
                next_snap += snapshot_every
    if cur.time > hist.times[-1]:  # the last state, unless a snapshot took it
        hist.append(cur)
    return hist


# ---------------------------------------------------------------------------
# extinction and renormalization


@dataclass(frozen=True)
class ExtinctionResult:
    t_extinct: float
    t_last_alive: float
    t_first_dead: float
    steps: int


def find_extinction(initial, t_start, rel_tol=1.0e-3):
    """Locate the collapse time of a compact convex body by bisection on
    the predicate "the body survives until t".

    A forward march brackets the death step between the last alive
    state and the first dead one.  Each bisection probe takes one partial
    step from that last alive state, which is where a re-run of the march
    would stand.  The bracket is narrowed until it is below rel_tol of the
    elapsed lifetime (a CFL-step march usually starts below that already).
    """
    gate("rel_tol", rel_tol, "(0, inf)", ParameterError)
    gate("t_start", t_start, "(-inf, inf)", ParameterError)
    if float(initial.values[-1, :].max()) > V_FLOOR:
        raise DomainError("initial body touches the grid boundary; not compact")
    if not _alive(initial):
        raise DomainError("initial body is already extinct")

    prev = cur = FlowState(time=t_start, v=initial, tip=None, renormalized=False)
    steps = 0
    for nxt in _march(cur, math.inf):
        prev, cur = cur, nxt
        steps += 1
    if _alive(cur.v):  # stopped at the floor: one more step counts as death
        prev, cur = cur, replace(cur, time=cur.time + cfl_dt(initial.grid))
    lo, hi = prev.time, cur.time

    def survives(t):
        s = _march_step(prev, t - prev.time)
        return s is not None and _alive(s.v)

    tol = rel_tol * max(hi - t_start, 1.0e-6)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if survives(mid):
            lo = mid
        else:
            hi = mid
    return ExtinctionResult(
        t_extinct=0.5 * (lo + hi),
        t_last_alive=lo,
        t_first_dead=hi,
        steps=steps,
    )


def renormalize(field, t, t_e, grid_out=None):
    """Rescale an unrescaled snapshot to the renormalized gauge.

    v = V / sqrt(t_e - t) read by grid.resample, bilinear in the squared
    profile (smooth through the rim) and in angle, so any grid_out works;
    tau = -log(t_e - t).  Without grid_out the new grid has the input's
    node counts and reaches 15 % past the rescaled rim (at least to 1).
    """
    gap = gate(f"time to extinction t_e - t = {t_e} - {t}", t_e - t, "(0, inf)", DomainError)
    scale = 1.0 / math.sqrt(gap)
    tau = -math.log(gap)
    g_in = field.grid
    if grid_out is None:
        y_rim = g_in.y[rim_index(field.values).max() - 1]  # y_max if none is alive
        grid_out = build_grid(g_in.n_r, g_in.n_phi, max(scale * y_rim * 1.15, 1.0))
    y, phi = grid_out.y[:, None] / scale, grid_out.phi[None, :]
    w_out = scale**2 * resample(signed_square(field), g_in, y, phi)
    return ScalarField.from_square(grid_out, rebuild_halo(w_out, grid_out)), tau


def renormalized_state(field, t, t_e, L=10.0, grid_out=None):
    """Renormalize and attach a freshly inverted tip patch at THETA, with
    from_profile's default node count."""
    v, tau = renormalize(field, t, t_e, grid_out=grid_out)
    return FlowState(time=tau, v=v, tip=TipField.from_profile(v),
                     renormalized=True, L=L)


def zoomed_tip(state, j=None):
    """Zoomed tip profile Z(rho) = sqrt(|tau|) (Y(rho/sqrt(|tau|)) - Y(0)).

    Returns (rho, Z) with Z of shape (n_nodes, n_angles); j selects a
    single angle column.
    """
    if state.tip is None:
        raise ParameterError("state has no tip patch")
    tau = state.tau
    s = math.sqrt(abs(tau))
    rho = s * state.tip.v_nodes
    Z = s * (state.tip.values - state.tip.values[0:1, :])
    if j is not None:
        Z = Z[:, j]
    return rho, Z

"""Time-stepping engine for the profile equations.

Two coordinate patches mirror the geometry: the profile v(y, phi) as a
graph over the symmetry plane wherever v is not too small, and the
per-angle inverse profile Y(v, phi) on a tip patch v in [0, 2 THETA]
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
sink becomes the harmless constant -2.  Nodes outside the body hold
each column's quadratic continuation of W, kept nonpositive and rebuilt
from the interior by grid.rebuild_halo after every stage, so stencils
near the rim never see a cliff.  A graph step works on the
rows up to the outermost rim + 2 only, the farthest that a stencil or
ring transform of a body node reaches: rows past them are neither
stepped nor filtered, and carried over unchanged.

The tip patch steps Y(v, phi) by the inverse-profile equation of
rhs_renormalized_Y.  A tip table is just its values, its n rows at
grid.tip_nodes(n), as a PolarGrid is (n_r, n_phi, y_max), so neither
patch is ever handed a node array; it hands over at the grid.THETA of
the spectral cutoff and the collar band.  Coupling runs one way: the graph
never reads the tip, and needs no boundary values from it, because its
equation is regular through the rim and the continuation outside the
body is its own.  So the graph steps first, and over the step the tip
rows with v >= THETA follow it: they move at the constant rate that
carries them to the new graph's inversion, and end on it.  Both patches
step explicitly under a parabolic CFL bound from their radial spacing,
in second-order Runge-Kutta-Legendre (RKL2) super-steps of one routine,
_rkl2 (Meyer, Balsara & Aslam, J. Comput. Phys. 257, 2014).  The graph
takes one two-stage super-step of _graph_step per step, whose stability
polynomial 1 + z + z^2/2 is the midpoint step's; a per-ring angular
low-pass after every stage but the first, so once per step, keeps the
polar axis from tightening its bound.  The tip takes super-steps of
at most three stages, each stretching its bound up to 2.5 times.  Its
default spacing follows the graph's, the finest at which one
three-stage super-step crosses a cfl_dt graph step.  Angular derivatives
and the low-pass are products with ring matrices cached per n_phi, and
radial ones come from grid.radial_stencil, so the tip table, which has
no PolarGrid, shares both with the graph.

run and find_extinction share one loop, _march, the one place that
paces the longer graph super-steps of a state without tip.  Each is a
_graph_step under step's stage rule spanning n cfl_dt steps: a small
share of the body's own time scale, read from its first stage, cut to
the steps left before the next record time or t_end, and ending on the
last of them, the start plus cfl_dt added n times, as a plain march at
cfl_dt does.  Below two steps, or after a rejected super-step or one
ending dead, the march hands over to plain steps at cfl_dt, which retry a
rejected step at half the step and stop at t_end, at death or at the
resolution floor.
"""

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
# 128x32 benchmark oval over tau -20 -> -19.75, with the rows v >= THETA
# following the graph, the tip table's time error against a CFL 0.025 run
# is 1.19e-5 with the default 9 nodes (3 right-hand-side calls per step);
# four-stage super-steps (stretch 4.5) give 1.19e-5 with 11 nodes (4 calls),
# and 17 nodes give 1.20e-5 at either stretch (12 or 8 calls)
_TIP_STRETCH = 2.5


# ---------------------------------------------------------------------------
# tip patch


class TipField:
    """Per-angle inverse profile Y(v, phi), a 2-d table of values whose n
    rows sit at v_nodes = grid.tip_nodes(n) in [0, 2 THETA].  The table
    is a read-only copy of the values given, so no later write reaches
    it.  An entry that is not finite and positive raises DomainError.

    The smooth-tip boundary condition Y_v(0, phi) = 0 is built into the
    reflection stencils rather than stored.  Y decreasing in v holds for
    convex bodies and is monitored, not enforced.
    """

    def __init__(self, values):
        self.values = np.array(values, dtype=float)
        self.values.setflags(write=False)
        if self.values.ndim != 2:
            raise ParameterError("tip value table must be 2-d")
        self.v_nodes = tip_nodes(self.values.shape[0])
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
    def from_profile(cls, field):
        """Build the table by monotone inversion of v near the rim: the
        squared profile read by signed_square, inverted at the tip nodes
        by _invert_w, which raises DegeneracyError where that fails.

        The spacing follows the graph's: the table takes the most nodes
        whose spacing dv keeps the tip's step ratio (dy/dv)^2 within
        _TIP_STRETCH, with THETA on a node.  So n - 1 is the largest even
        integer <= 2 THETA sqrt(_TIP_STRETCH) / dy, and 4 at least, and the
        tip crosses each cfl_dt graph step in one three-stage super-step.
        Half the peak takes THETA's place if it is lower, so a body too
        small for the tip lays out few nodes."""
        W = signed_square(field)
        reach = min(THETA, 0.5 * math.sqrt(max(float(W.max()), 0.0)))
        n = 1 + 2 * max(2, int(reach * math.sqrt(_TIP_STRETCH) / field.grid.dy))
        return cls(_invert_w(W, field.grid, tip_nodes(n)))

    def save(self, path):
        """Write the table as one npz archive at path: theta and values."""
        _write_table(path, theta=THETA, values=self.values)

    @classmethod
    def load(cls, path):
        """Read a table written by save.  A stored theta other than THETA
        puts the rows off the tip nodes and raises ParameterError naming
        the file, as _read_table's refusals and TipField's do."""
        def build(a):
            if a["theta"].tolist() != THETA:
                raise ParameterError(f"theta={a['theta'].tolist()} is not THETA: "
                                     "rows off the tip nodes")
            return cls(a["values"])
        return _read_table(path, "tip", ({"theta", "values"},), build)


def rhs_renormalized_Y(Y):
    """Right-hand side of the inverse-profile equation on the tip table
    values Y, whose n rows sit at grid.tip_nodes(n); Y <= 0 is a DomainError.

    Y_v and Y_vv are one pass of grid.radial_stencil, with the even reflection
    Y(-v) = Y(v) as the row below the tip.  The (1/v) Y_v factor is
    regular at the tip: by that reflection Y_v / v -> Y_vv at v = 0.
    """
    if np.any(Y <= 0.0):
        raise DomainError("tip radius must stay positive")
    v = tip_nodes(Y.shape[0])[:, None]
    dv = v[1, 0]
    Yv, Yvv = radial_stencil(Y, dv, Y[1])
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
    the pole the radial drift vanishes with y.  _graph_step, for step and
    _march's super-steps alike, passes the rows up to the outermost
    rim + 2, so rows past them are never evaluated.
    """
    W1, W2, W11, W12, W22 = frame_jet(grid, W)
    sq1, sq2 = W1**2, W2**2
    g2 = sq1 + sq2
    # in place in the jet's own arrays, in the formula's order of
    # operations; a cross term added first is the same, as a + b == b + a
    hess = 2.0 * W12
    hess *= W1
    hess *= W2
    hess += np.multiply(sq1, W11, out=sq1)
    hess += np.multiply(sq2, W22, out=sq2)
    den = np.multiply(W, 4.0, out=sq1)
    den += g2
    hess += np.multiply(g2, 2.0, out=g2)
    # the quotient denominator vanishes only at rim cusps (W ~ 0 with
    # flat gradient, e.g. the saddle between two dying lobes); there
    # the graph quotient is pure noise, so freeze it rather than
    # divide.  Healthy rim columns have |DW| = O(1) and never trip.
    rat = np.divide(hess, den, out=np.zeros(den.shape), where=den > 1.0e-4)
    out = np.add(W11, W22, out=W11)
    out -= rat
    out -= 2.0
    if renormalized:
        drift = np.multiply(W1, -0.5 * grid.y[:W.shape[0], None], out=W1)
        out += np.add(drift, W, out=drift)
    np.putmask(out, ~mask, 0.0)
    return out


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
    smooth across the rim, so filtering whole rings is safe everywhere.
    _graph_step runs it after every stage of a super-step but the first:
    once at the end of a two-stage step."""
    caps = _ring_caps(*W.shape)
    W[:len(caps)] = angular_lowpass(W[:len(caps)], caps)
    W[0, :] = W[0].sum() / W.shape[1]  # the pole row's mean, bitwise np.mean's


# ---------------------------------------------------------------------------
# flow state and stepping


@dataclass(frozen=True)
class FlowState:
    """One snapshot of the evolving surface in either time gauge.

    A tip needs the renormalized gauge (or ParameterError) and the
    graph's angles (or ShapeError); theta admits grid.THETA alone.  L is
    the collar scale of the run, which step, state_at and save_dir/load_dir
    carry and no computation reads: collar_deviation and
    cylindrical_estimate take their own L.
    """

    time: float
    v: ScalarField
    tip: TipField | None = None
    renormalized: bool = True
    theta: float = THETA
    L: float = 10.0

    def __post_init__(self):
        gate("state time", self.time, "(-inf, inf)", ParameterError)
        if self.theta != THETA:
            raise ParameterError(
                f"state theta must be finite and equal to grid.THETA={THETA:g}, got {self.theta}")
        gate("state L", self.L, "(0, inf)", ParameterError)
        if self.tip is not None:
            if not self.renormalized:
                raise ParameterError("tip patch requires the renormalized gauge")
            if self.tip.n_phi != self.v.grid.n_phi:
                raise ShapeError(f"tip table of {self.tip.n_phi} angles on a graph of "
                                 f"{self.v.grid.n_phi}")

    @property
    def tau(self):
        if not self.renormalized:
            raise ParameterError("state is in unrescaled time")
        return self.time


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


def _rkl2_stages(stretch):
    """The fewest stages s >= 2 of an _rkl2 super-step whose stable
    stretch (s^2 + s - 2)/4 of the two-stage bound reaches stretch."""
    s = 2
    while (s * s + s - 2) / 4.0 < stretch:
        s += 1
    return s


def _rkl2(Y, h, s, rhs, after_stage):
    """One s-stage RKL2 super-step of length h from Y.  rhs gives a
    stage's time derivative; after_stage(Y, j) maps stage j = 1..s to the
    one later stages read, and is only handed arrays _rkl2 made: Y and
    what rhs returns are never written, so rhs may hand one array out
    again.  At s = 2 the stability polynomial is the midpoint's,
    1 + z + z^2/2.  A non-finite end raises StepSizeError."""
    mu1, stages = _rkl2_coefficients(s)
    k0 = h * rhs(Y)
    prev, cur = Y, after_stage(Y + mu1 * k0, 1)
    term = np.empty_like(k0)
    for j, (mu, nu, mu_t, gamma_t) in enumerate(stages, 2):
        k = rhs(cur)
        # mu cur + nu prev + (1 - mu - nu) Y + mu~ h k + gamma~ k0, left to right
        nxt = mu * cur
        for c, a in ((nu, prev), (1.0 - mu - nu, Y), (mu_t * h, k), (gamma_t, k0)):
            nxt += np.multiply(c, a, out=term)
        prev, cur = cur, after_stage(nxt, j)
    if not np.all(np.isfinite(cur)):
        raise StepSizeError(f"{s}-stage super-step not finite at dt={h:.3e}")
    return cur


def _substep_tip(tip, dtau, outer_end):
    """Advance the tip table by dtau in m equal _rkl2 super-steps of s
    stages each.  m = ceil(ratio / _TIP_STRETCH) with ratio = dtau /
    (CFL dv^2), and s = _rkl2_stages(ratio / m), so s <= 3.

    The last len(outer_end) rows are not stepped by their own right-hand
    side: every stage gives them the constant rate that carries them to
    outer_end over dtau, which RKL2 integrates exactly, and they end on
    outer_end.  A tip stepped alone passes a table of no rows.  Only
    rhs_renormalized_Y checks the bare stage arrays for Y > 0."""
    ratio = dtau / (CFL * tip.dv**2)
    m = max(1, math.ceil(ratio / _TIP_STRETCH))
    s = _rkl2_stages(ratio / m)
    i = tip.values.shape[0] - outer_end.shape[0]
    rate = (outer_end - tip.values[i:]) / dtau

    def rhs(Y):
        out = rhs_renormalized_Y(Y)
        out[i:] = rate
        return out

    Y = tip.values
    for _ in range(m):
        Y = _rkl2(Y, dtau / m, s, rhs, lambda Y, j: Y)
    Y[i:] = outer_end
    return TipField(Y)


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


def _graph_step(state, dt, pace):
    """One _rkl2 super-step of the graph from state: (state, n), or None.

    The step sees only the rows up to the outermost rim + 2 of the start's
    signed square W (four at least), and _w_rhs there keeps the body mask
    of W; rows past them are carried over unchanged.  pace(W, f) is handed
    those rows and their rate f, and gives the number n of steps dt the
    super-step spans, its stage count s and the time it ends at, or None
    for no step.  The first stage reuses f.  Every stage gets a rebuilt
    halo, and every stage but the first _filter_w, so at s = 2 the filter
    runs once, at the end.  The tip is carried over untouched.  A step
    that turns the core negative or inflates the body raises
    StepSizeError."""
    g = state.v.grid
    W0 = signed_square(state.v)
    k = min(max(int(rim_index(W0).max()) + 3, 4), g.n_r + 1)
    live = W0[:k]
    rhs = functools.partial(_w_rhs, grid=g, renormalized=state.renormalized, mask=live > 0.0)
    f0 = rhs(live)
    plan = pace(live, f0)
    if plan is None:
        return None
    n, s, t = plan
    h = n * dt

    def after_stage(Y, j):
        rebuild_halo(Y, g)
        if j > 1:
            _filter_w(Y)
        return Y

    W = W0.copy()
    W[:k] = _rkl2(live, h, s, lambda Y: f0 if Y is live else rhs(Y), after_stage)
    w_max = float(W0.max())
    if np.any(W[W0 > 0.5 * w_max] < 0.0) and float(W.max()) > 0.5 * w_max:
        raise StepSizeError(f"interior sign change at dt={h:.3e}")
    # the squared profile obeys a maximum principle (growth at most e^dt
    # in the renormalized gauge), so any faster inflation is a blown step
    if float(W.max()) > w_max * (1.0 + 4.0 * h) + 1.0e-14:
        raise StepSizeError(f"maximum principle violation at dt={h:.3e}")
    return replace(state, time=t, v=ScalarField.from_square(g, W)), n


def step(state, dtau):
    """Advance the graph by one two-stage _graph_step, unsplit at any
    dtau, then the tip by its super-steps.

    The tip rows with v >= THETA follow the graph over the step: the new
    graph is inverted there once by _invert_w, and _substep_tip carries
    those rows to that table at a constant rate and ends them on it, so
    inverting the new graph again gives them bit for bit.  The graph's W
    is never written from the tip, the rule for overlapping grids that a
    point receiving interpolated values is never read to give values back
    (Chesshire & Henshaw, J. Comput. Phys. 90, 1990)."""
    gate("time step", dtau, "(0, inf)", ParameterError)
    moved, _ = _graph_step(state, dtau, lambda W, f: (1, 2, state.time + dtau))
    tip = state.tip
    if tip is not None:
        outer = tip.v_nodes >= THETA - 1.0e-12
        v = moved.v
        tip = _substep_tip(tip, dtau, _invert_w(v.w_signed, v.grid, tip.v_nodes[outer]))
    return replace(moved, tip=tip)


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
        """State at time t: the snapshot that t hits, a single one
        included, stamped with time t; else the linear blend of the two
        around t, whose profile is at(t)."""
        k, lam = self._bracket(t)
        if lam in (0.0, 1.0):
            return replace(self._states[k + 1 if lam else k], time=float(t))
        s0, s1 = self._states[k], self._states[k + 1]
        v = self._blend(t, k, lam)
        tip = None
        if s0.tip is not None and s1.tip is not None:
            tip = TipField((1.0 - lam) * s0.tip.values + lam * s1.tip.values)
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
        """Write the history to the directory path: each snapshot's field
        by save_field as snap_00000.npz, its tip table, if any, by
        TipField.save as snap_00000_tip.npz (both npz archives, so every
        bit round-trips, W included), and the index history.json."""
        os.makedirs(path, exist_ok=True)
        index = []
        for k, (t, st) in enumerate(zip(self._times, self._states)):
            name = f"snap_{k:05d}"
            save_field(st.v, os.path.join(path, name + ".npz"))
            entry = {
                "time": t,
                "field": name + ".npz",
                "renormalized": st.renormalized,
                "L": st.L,
            }
            if st.tip is not None:
                st.tip.save(os.path.join(path, name + "_tip.npz"))
                entry["tip"] = name + "_tip.npz"
            index.append(entry)
        with open(os.path.join(path, "history.json"), "w") as fh:
            json.dump(index, fh, indent=1)

    @classmethod
    def load_dir(cls, path):
        """Read a history written by save_dir, bitwise the one written.
        An index that is not JSON or not a list of entries, or an entry
        without its field name, with a field or tip name that is not a
        bare file name in the directory (a path, "." or ".."), a missing
        or non-boolean renormalized flag, a missing time or L or one that
        is no JSON number (true and "0.25" are none), or a non-finite
        time, raises ParameterError naming the index file.  A table that
        load_field or TipField.load refuses raises its error naming the
        table's file.  An entry that FlowState or the time order refuses
        keeps its ParameterError or ShapeError, with the index file and
        the snapshot's field name in front of the message."""
        where = os.path.join(path, "history.json")
        with open(where) as fh:
            try:
                # every JSON number a float, so an int past float range reads inf
                index = json.load(fh, parse_int=float)
            except json.JSONDecodeError as err:
                raise ParameterError(f"{where}: index is not JSON ({err})") from None
        if not isinstance(index, list):
            raise ParameterError(f"{where}: index must be a list of snapshots")
        try:
            entries = [(e["time"], e["field"], e.get("tip"), e["renormalized"], e["L"])
                       for e in index]
        except (KeyError, TypeError) as err:
            raise ParameterError(
                f"{where}: bad snapshot entry ({type(err).__name__}: {err})"
            ) from None
        if not all(type(e[0]) is float and type(e[4]) is float for e in entries):
            raise ParameterError(f"{where}: time and L must be numbers")
        if not all(isinstance(e[3], bool) for e in entries):
            raise ParameterError(f"{where}: renormalized must be true or false")
        names = [e[1] for e in entries] + [e[2] for e in entries if e[2] is not None]
        if not all(isinstance(name, str) and os.path.basename(name) == name
                   and name not in ("", ".", "..") for name in names):
            raise ParameterError(f"{where}: field and tip must be file names in its directory")
        for e in entries:
            gate(f"{where}: snapshot time", e[0], "(-inf, inf)", ParameterError)
        hist = cls()
        grid = None
        for time, field, tip, renormalized, L in entries:
            # snapshots on one grid share its object
            f = load_field(os.path.join(path, field), grid=grid)
            grid = f.grid
            if tip is not None:
                tip = TipField.load(os.path.join(path, tip))
            try:
                hist.append(FlowState(time=time, v=f, tip=tip, renormalized=renormalized, L=L))
            except ParameterError as err:  # ShapeError included, and kept
                raise type(err)(f"{where}: snapshot {field}: {err}") from None
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


def _refuse_non_finite(state):
    """ParameterError unless the field of state, and its signed square if
    it keeps one, is finite at every node."""
    arrays = (state.v.values, state.v.w_signed)
    if not all(np.isfinite(a).all() for a in arrays if a is not None):
        raise ParameterError(f"march from t={state.time:.6g}: the field is not finite")


# share of the body's own time scale T = W_max/|W_t|, read at its core,
# that one super-step spans, read by _march's pace alone.  RKL2 is second
# order, so the shift of the death instant (bisected to rel_tol 1e-9) from
# the plain march's grows as the square of the share: on the 96x32 reference
# ellipsoid, in units of its lifetime, 1.1e-6 at 0.01, 1.07e-5 at 0.02 and
# 5.8e-5 at 0.05.  The march itself moves that instant by 2.6e-4 between
# CFL 0.2 and 0.1, and its margin to the edge of the death bracket is
# 2.3e-4, so at 0.02 the super-steps add a twentieth of either.  The
# sphere's shift is 0 at every share, its states being exact.
_SUPER_SHARE = 0.02


def _march(state, t_end, every):
    """Step state towards t_end and yield (state, n, due) per new state: n
    the cfl_dt steps it spans, due whether it is the first at or past the
    next record time, the start plus every, moved on by every (or past the
    state, for an every below the step) at each due state.  Stops at t_end,
    after yielding the first dead state, or when _march_step gives up; a
    field that is not finite raises ParameterError before the first step.

    A full cfl_dt step fits when it starts before the next record time and
    ends by t_end.  Without a tip, where two fit, a step is one _graph_step
    at the pace n = floor(_SUPER_SHARE T / cfl_dt), T = W_max/|W_t| at the
    node of W_max with |W_t| from the first stage and 2 at least (so T
    never exceeds an unrescaled body's lifetime, and a growing renormalized
    core does not lengthen it), cut to the steps that fit.  It ends on the
    last of them, the start plus cfl_dt added n times, in
    _rkl2_stages(n / 0.9) stages.  Every other step is a _march_step at
    cfl_dt cut to t_end.  A pace below 2, a rejected super-step or one
    ending dead hands the rest of the march to plain steps; a cut does
    not.  The 5e6-step budget counts the steps a super-step spans."""
    _refuse_non_finite(state)
    dt = cfl_dt(state.v.grid)
    steps = 0
    due = state.time + every
    paced = state.tip is None

    def ahead(n):  # (k, t): the first k <= n steps that fit, and where the last ends
        k, t = 0, state.time
        while k < n and dt <= t_end - t and t < due - 1.0e-12:
            k, t = k + 1, t + dt
        return k, t

    def pace(W, f):
        core = np.argmax(W)
        n = int(_SUPER_SHARE * W.flat[core] / max(abs(f.flat[core]), 2.0) / dt)
        if n < 2:
            return None
        n, t = ahead(n)
        return n, _rkl2_stages(n / 0.9), t

    while state.time < t_end - 1.0e-12:
        if steps >= 5_000_000:
            raise BudgetError(f"5e6-step budget spent at t={state.time:.6g}")
        out = None
        if paced and ahead(2)[0] == 2:
            try:
                out = _graph_step(state, dt, pace)
            except StepSizeError:
                pass
            if out is None or not _alive(out[0].v):
                paced, out = False, None
        alive = out is not None  # a super-stepped state is kept only alive
        if out is None:
            out = _march_step(state, min(dt, t_end - state.time)), 1
            if out[0] is None:
                return
        state, n = out
        steps += n
        is_due = state.time >= due - 1.0e-12
        if is_due:  # on by every, or past the state for an every below the step
            due = due + every if due + every > state.time + 1.0e-12 else state.time + every
        yield state, n, is_due
        if not (alive or _alive(state.v)):
            return


def run(state, t_end, snapshot_every=0.05):
    """March to t_end, recording snapshots every snapshot_every.

    Returns the history; the final recorded state is at the last time
    reached (t_end, or earlier if the body became extinct or the march
    stopped at the resolution floor).  The snapshots are _march's due
    states, at the plain march's times bit for bit; without a tip they
    come from its super-steps until the hand-over.  On the 128x32
    reference ellipsoid, t = -5 to -4.3 every 0.02, that moves xi after
    renormalize by 1.0e-6, huisken_density by 2.0e-7, concavity_margin by
    5.2e-7 and W in the body by 1.0e-3, against 4.0e-5, 8.5e-7, 1.1e-6 and
    8.2e-4 from 128 to 256 rings.  With a tip, _march is a step loop.
    A field that is not finite raises ParameterError.
    """
    gate(f"t_end - t = {t_end} - {state.time}", t_end - state.time, "[0, inf]", ParameterError)
    gate("snapshot_every", snapshot_every, "(0, inf]", ParameterError)
    hist = FlowHistory()
    hist.append(state)
    cur = state
    for cur, _, due in _march(state, t_end, snapshot_every):
        if due:
            hist.append(cur)
    if cur.time > hist.times[-1]:  # the last state, unless a snapshot took it
        hist.append(cur)
    return hist


# ---------------------------------------------------------------------------
# extinction and renormalization


@dataclass(frozen=True)
class ExtinctionResult:
    """The death bracket of find_extinction.

    t_last_alive and t_first_dead bracket the collapse, t_extinct is their
    midpoint, and steps is the number of cfl_dt steps marched up to the
    first dead state, a super-step counting as the steps it spans and a
    step retried at a shorter length as one.
    """

    t_extinct: float
    t_last_alive: float
    t_first_dead: float
    steps: int


def find_extinction(initial, t_start, rel_tol=1.0e-3):
    """Locate the collapse time of a compact convex body by bisection on
    the predicate "the body survives until t".

    _march takes the resolved part of the life in super-steps at its pace,
    which no record time or end cuts here; after its hand-over, plain
    steps at cfl_dt bracket the death step between the last alive state
    and the first dead one.  Each bisection probe takes one partial step
    from that last alive state, which is where a re-run of the march
    would stand.  The bracket is narrowed until it is below
    rel_tol of the elapsed lifetime (a CFL-step march usually starts below
    that already).  A field that is not finite raises _march's
    ParameterError before the body is checked for compactness and life.
    """
    gate("rel_tol", rel_tol, "(0, inf)", ParameterError)
    gate("t_start", t_start, "(-inf, inf)", ParameterError)
    prev = cur = FlowState(time=t_start, v=initial, tip=None, renormalized=False)
    _refuse_non_finite(cur)
    if float(initial.values[-1, :].max()) > V_FLOOR:
        raise DomainError("initial body touches the grid boundary; not compact")
    if not _alive(initial):
        raise DomainError("initial body is already extinct")

    steps = 0
    for nxt, n, _ in _march(cur, math.inf, math.inf):
        prev, cur = cur, nxt
        steps += n
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


def renormalized_state(field, t, t_e, grid_out=None):
    """Renormalize and attach a tip patch freshly inverted by from_profile."""
    v, tau = renormalize(field, t, t_e, grid_out=grid_out)
    return FlowState(time=tau, v=v, tip=TipField.from_profile(v), renormalized=True)


def zoomed_tip(state):
    """Zoomed tip profile Z(rho) = sqrt(|tau|) (Y(rho/sqrt(|tau|)) - Y(0)).

    Returns (rho, Z) with Z of shape (n_nodes, n_angles).
    """
    if state.tip is None:
        raise ParameterError("state has no tip patch")
    tau = state.tau
    s = math.sqrt(abs(tau))
    rho = s * state.tip.v_nodes
    Z = s * (state.tip.values - state.tip.values[0:1, :])
    return rho, Z

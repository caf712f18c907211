"""The three workloads of the ovalab benchmark.

Every input is generated from the workload seed, and the seed only
changes things whose reference value stays known: the scale and start
time of a sphere (exact extinction time), the rotation of a body by a
whole number of angular cells (the stored reference is rolled back), and
the shift applied to a sampled normal form (the recentering answer).

Workloads (why each one exists)
-------------------------------
extinction  Compact bodies marched to collapse by ``find_extinction``:
            graph-only stepping plus the extinction search, with no tip,
            spectral or recentering work.  It is the bypass case for every
            tip-side and analysis-side change.
oval        A renormalized W-quadric stepped with the two-patch (tip)
            scheme, then the per-snapshot analysis pass.  The tip patch
            takes most of the work only here.
analysis    Post-processing of stored runs with no stepping in the timed
            part: CSV history I/O, ``renormalize``/``build_grid``, the
            basis cache and the spectral, recentering and diagnostics
            layers.  They take a few per cent of either stepping workload
            and all of this one; the never-evicted basis cache shows in
            ``peak_rss_mb`` here.

Pitfalls of the current library
--------------------------------
* The default ``L = 10`` leaves the collar and cylindrical bands empty at
  tau = -20 (the band needs L < 2 theta sqrt|tau|), so the oval pass uses
  ``OVAL_L`` and the renormalized ellipsoid, whose tau is close to 0,
  uses the much smaller ``ELLIPSOID_L``.
* ``spectral_report`` rejects tau >= 0, which ellipsoid snapshots with
  t_e - t <= 1 produce; the ellipsoid history therefore stops at
  ``ELLIPSOID_T_END`` < t_e - 1.
* ``solve_psi`` on the stepped oval history raises (DegeneracyError,
  BudgetError or CoverageError) at every tau0 in the current code.  These
  calls are counted as failed operations, not filtered out.

Layer metrics and what they should move
---------------------------------------
Layers are the package modules; ``tracer.py`` times them from outside.

=====================================================  =====================  ==========================
layer metric                                           should move            on workload
=====================================================  =====================  ==========================
grid.radial_derivative/diff_phi_fft/angular_lowpass    wall_s                 extinction, oval
evolve.step.{calls,self_pct,rejected,accepted_ratio}   wall_s (ref_err holds) extinction, oval
evolve.find_extinction.bisect_steps                    wall_s                 extinction
evolve.tip.{self_pct,substeps_per_step,step_share_pct} wall_s, ref_err        oval only
evolve.renormalize.*, grid.build_grid.*                wall_s, peak_rss_mb    analysis
spectral.get_basis.calls, basis_builds, hit_ratio      peak_rss_mb, wall_s    analysis
spectral.project.*, spectral.spectral_report.self_pct  snapshot_ms_p50        analysis, small in oval
recenter.solve_psi.*, psi_evals, transform_*.self_pct  solve_ms_p50, ok_frac  analysis
diagnostics.<fn>.self_pct                              snapshot_ms_p50        analysis, small in oval
grid.load_field.*, FlowHistory.load_dir, io_bytes      wall_s                 analysis
evolve.FlowHistory.state_at.*                          solve_ms_p50           analysis
=====================================================  =====================  ==========================

Each workload is a ``setup(seed, size, workdir)`` that builds inputs
(counted in ``setup_s``) and a ``run_pass(ctx, log)`` that issues a fixed
list of public calls through ``PassLog.call``, which times each call and
checks its output.  Library functions are always reached as module
attributes (``evolve.step``), so the tracer's wrappers see every call.
"""

import json
import math
import os
import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ovalab import diagnostics, evolve, grid, modes, recenter, spectral
from ovalab.errors import OvalabError
from ovalab.shrinkers import EllipsoidSpec, ellipsoid_initial, solve_bowl

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

SQRT2 = math.sqrt(2.0)
SQRT8 = math.sqrt(8.0)

# reference ellipsoid of the extinction test in tests/test_evolve.py and its
# pinned t_e
REF_ELLIPSOID = EllipsoidSpec(a=0.5, ell=2.0, radius=2.0, t_start=-5.0)
REF_ELLIPSOID_T_E = -3.2426
REF_ELLIPSOID_PIN = 0.02
ANISO_ELLIPSOID = EllipsoidSpec(a=0.4, ell=2.0, radius=2.0, t_start=-5.0)

# renormalized oval W = 2 - ((1+e) y1^2 + (1-e) y2^2 - 4) / |tau0|
OVAL_E = 0.3
OVAL_TAU0 = -20.0
OVAL_L = 1.0
ASYMPTOTICS_EPS = 0.2
SNAPSHOT_EVERY = 0.025

ELLIPSOID_T_END = -4.3
ELLIPSOID_L = 0.05

SHIFT_TAU0S = (-100.0, -80.0, -60.0)
STEPPED_TAU0S = (-19.975, -19.95, -19.925)

# grid sizes and spans; "tiny" is the smoke-test size, whose checks are
# looser because the stored references belong to the full size.  The full
# passes are kept to a few seconds so that a run holds several of them
# (see run.py on wall_s): the ellipsoids use 96 x 32, which still meets
# that test's pin and still takes the step-rejection path (5 rejections of
# the a = 0.4 body), and the oval runs a tau span of 0.25.
SIZES = {
    "full": {
        "sphere": (64, 16),
        "ellipsoid": (96, 32),
        "oval": (128, 32),
        "oval_span": 0.25,
        "history_ellipsoid": (128, 32),
        "history_oval_span": 0.1,
        "shift_grid": (192, 24),
        "shifts": 8,
        "tol_scale": 1.0,
    },
    "tiny": {
        "sphere": (24, 8),
        "ellipsoid": (40, 16),
        "oval": (48, 16),
        "oval_span": 0.05,
        "history_ellipsoid": (40, 16),
        "history_oval_span": 0.05,
        "shift_grid": (96, 16),
        "shifts": 1,
        "tol_scale": 50.0,
    },
}


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# bookkeeping of one pass


@dataclass
class Op:
    kind: str
    seconds: float
    status: str  # "ok", "refused" (typed library error) or "wrong"
    detail: str = ""
    start: float = 0.0  # perf_counter() when the call began ...
    end: float = 0.0  # ... and when it returned


class PassLog:
    """Times and checks every public call a pass issues.

    A raised OvalabError is a refused call; a check that returns a
    message marks a wrong output.  Both count as failed operations.  With
    a running ``hostspeed.HostClock`` the calibration chunks that fell
    inside a call are taken out of its seconds.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.ops = []
        self.errors = {}
        self.groups = {}

    def _op(self, kind, t0, status, detail):
        t1 = perf_counter()
        paused = self.clock.paused(t0, t1) if self.clock is not None else 0.0
        self.ops.append(Op(kind, t1 - t0 - paused, status, detail, t0, t1))

    def call(self, kind, fn, *args, check=None, **kwargs):
        t0 = perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = fn(*args, **kwargs)
        except OvalabError as exc:
            self._op(kind, t0, "refused", type(exc).__name__)
            return None
        self._op(kind, t0, "ok", "")
        problem = check(out) if check is not None else None
        if problem:
            self.ops[-1].status, self.ops[-1].detail = "wrong", problem
        return out

    def group_ms(self, name, start):
        """Record the summed latency of the ops issued since index start."""
        ms = 1.0e3 * sum(op.seconds for op in self.ops[start:])
        self.groups.setdefault(name, []).append(ms)

    def error(self, name, value):
        self.errors[name] = max(self.errors.get(name, 0.0), float(value))

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(op.status != "ok" for op in self.ops)

    @property
    def wrong(self):
        return [op for op in self.ops if op.status == "wrong"]


def _need(cond, message):
    return None if cond else message


# ---------------------------------------------------------------------------
# extinction


@dataclass(frozen=True)
class Body:
    name: str
    field: object
    t_start: float
    t_ref: float
    tol: float


def _sphere(seed_rng, n_r, n_phi):
    """Sphere W = R^2 - |y|^2 at time t0; y_max scales with R so the step
    count does not depend on the seed."""
    r2 = float(seed_rng.uniform(4.0, 8.0))
    t0 = float(seed_rng.uniform(-2.0, -0.5))
    g = grid.build_grid(n_r, n_phi, 3.0 * math.sqrt(r2 / 6.0))
    w = r2 - g.y[:, None] ** 2 + 0.0 * g.phi[None, :]
    field = grid.ScalarField(g, np.sqrt(np.maximum(w, 0.0)), w_signed=w)
    return field, t0, t0 + r2 / 6.0


def _rolled(field, k):
    return field.with_values(np.roll(field.values, k, axis=1),
                             w_signed=np.roll(field.w_signed, k, axis=1))


def extinction_setup(seed, size, workdir):
    cfg = SIZES[size]
    refs = load_references()
    rng = np.random.default_rng(seed)
    sphere, t0, t_exact = _sphere(rng, *cfg["sphere"])
    bodies = [Body("sphere", sphere, t0, t_exact, 1.0e-3 * cfg["tol_scale"])]

    n_r, n_phi = cfg["ellipsoid"]
    g = grid.build_grid(n_r, n_phi, 10.0)
    bodies.append(Body(
        "ellipsoid", ellipsoid_initial(g, REF_ELLIPSOID),
        REF_ELLIPSOID.t_start, refs["ellipsoid_t_e"],
        REF_ELLIPSOID_PIN * cfg["tol_scale"],
    ))
    g = grid.build_grid(n_r, n_phi,
                        1.05 * max(ANISO_ELLIPSOID.plane_semi_axes()))
    k = int(rng.integers(n_phi))
    t_ref = refs["aniso_ellipsoid_t_e"]
    bodies.append(Body(
        "aniso_ellipsoid", _rolled(ellipsoid_initial(g, ANISO_ELLIPSOID), k),
        ANISO_ELLIPSOID.t_start, t_ref,
        0.01 * (t_ref - ANISO_ELLIPSOID.t_start) * cfg["tol_scale"],
    ))
    return {"bodies": bodies, "pinned": REF_ELLIPSOID_T_E}


def check_extinction(body, pinned=None):
    """Output check of one find_extinction call."""

    def check(res):
        if not res.t_last_alive <= res.t_extinct <= res.t_first_dead:
            return f"{body.name}: t_e outside its own bracket"
        target = pinned if pinned is not None else body.t_ref
        return _need(abs(res.t_extinct - target) <= body.tol,
                     f"{body.name}: t_e={res.t_extinct:.6g}, "
                     f"expected {target:.6g} +- {body.tol:.3g}")

    return check


def extinction_pass(ctx, log):
    for body in ctx["bodies"]:
        pinned = ctx["pinned"] if body.name == "ellipsoid" else None
        res = log.call("find_extinction", evolve.find_extinction,
                       body.field, body.t_start,
                       check=check_extinction(body, pinned))
        if res is not None:
            lifetime = body.t_ref - body.t_start
            log.error("t_e_err", abs(res.t_extinct - body.t_ref) / lifetime)


# ---------------------------------------------------------------------------
# oval


def oval_field(n_r, n_phi, k=0):
    """The renormalized W-quadric at OVAL_TAU0, rotated by k angle cells."""
    rim = math.sqrt((2.0 * abs(OVAL_TAU0) + 4.0) / (1.0 - OVAL_E))
    g = grid.build_grid(n_r, n_phi, 1.15 * rim)
    y1 = g.y[:, None] * np.cos(g.phi)[None, :]
    y2 = g.y[:, None] * np.sin(g.phi)[None, :]
    w = 2.0 - ((1.0 + OVAL_E) * y1**2 + (1.0 - OVAL_E) * y2**2 - 4.0) / abs(
        OVAL_TAU0
    )
    field = grid.ScalarField(g, np.sqrt(np.maximum(w, 0.0)), w_signed=w)
    return _rolled(field, k)


def oval_state(field):
    return evolve.FlowState(
        time=OVAL_TAU0, v=field, tip=evolve.TipField.from_profile(field),
        renormalized=True, theta=0.2, L=OVAL_L,
    )


def oval_setup(seed, size, workdir):
    cfg = SIZES[size]
    n_r, n_phi = cfg["oval"]
    k = int(np.random.default_rng(seed).integers(n_phi))
    rim_ref = np.asarray(load_references()["oval_rim"])
    if size != "full":
        # the stored table is for the full grid and span; the tiny run
        # only checks that the rim stays near the initial quadric's
        rim_ref = evolve.TipField.from_profile(
            oval_field(n_r, n_phi)).tip_radius()
    return {
        "state": oval_state(oval_field(n_r, n_phi, k)),
        "roll": k,
        "rim_ref": rim_ref,
        "rim_tol": 5.0e-3 * cfg["tol_scale"],
        "span": cfg["oval_span"],
        "bowl": solve_bowl(),
    }


def z2_asymmetry(w):
    """Largest violation of W(phi) = W(-phi) = W(pi - phi)."""
    n = w.shape[1]
    j = np.arange(n)
    return max(float(np.abs(w - w[:, (-j) % n]).max()),
               float(np.abs(w - w[:, (n // 2 - j) % n]).max()))


def check_oval_history(ctx, tau_end, log):
    """Final time, Z2xZ2 symmetry and monotone tip tables of every
    snapshot, and the final rim table against the stored reference."""
    roll = ctx["roll"]

    def check(hist):
        final = hist.states[-1]
        if abs(final.time - tau_end) > 1.0e-9:
            return f"run stopped at tau={final.time:.6g}, not {tau_end:.6g}"
        for st in hist.states:
            asym = z2_asymmetry(np.roll(st.v.w_signed, -roll, axis=1))
            if asym > 1.0e-10:
                return f"Z2xZ2 symmetry broken by {asym:.3g} at tau={st.time:.6g}"
            if not st.tip.monotone():
                return f"tip table not monotone at tau={st.time:.6g}"
        rim = np.roll(final.tip.tip_radius(), -roll)
        rim_err = float(np.abs(rim - ctx["rim_ref"]).max())
        log.error("rim_err", rim_err)
        return _need(rim_err <= ctx["rim_tol"],
                     f"rim error {rim_err:.3g} > {ctx['rim_tol']:.3g}")

    return check


def check_finite(value):
    return _need(math.isfinite(value), f"non-finite output {value!r}")


def snapshot_pass(log, state, L, eps, bowl):
    """Spectral and pointwise analysis of one renormalized snapshot."""
    start = len(log.ops)
    field, tau = state.v, state.time
    log.call("spectral_report", spectral.spectral_report, field, tau,
             check=lambda r: check_finite(r.residual_norm))
    log.call("width_ratio", spectral.width_ratio, field, check=check_finite)
    log.call("collar_deviation", diagnostics.collar_deviation, field, tau,
             L=L, check=lambda r: check_finite(r.deviation))
    log.call("cylindrical_estimate", diagnostics.cylindrical_estimate, field,
             tau, L=L, check=check_finite)
    log.call("asymptotics_report", diagnostics.asymptotics_report, state,
             eps, bowl=bowl,
             check=lambda r: check_finite(r.parabolic + r.intermediate))
    log.group_ms("snapshot", start)


def oval_pass(ctx, log):
    tau_end = OVAL_TAU0 + ctx["span"]
    hist = log.call("run", evolve.run, ctx["state"], tau_end,
                    snapshot_every=SNAPSHOT_EVERY,
                    check=check_oval_history(ctx, tau_end, log))
    if hist is None:
        return
    for st in hist.states[1:]:
        snapshot_pass(log, st, OVAL_L, ASYMPTOTICS_EPS, ctx["bowl"])
    log.call("compare_with_flow", modes.compare_with_flow, hist,
             (OVAL_TAU0, tau_end), check=lambda r: check_finite(r.sup_diagonal))


# ---------------------------------------------------------------------------
# analysis


def shifted_normal_form_history(g, b, gamma, tau0s):
    """Recorded history of the normal form with (b, Gamma) applied,
    sampled every 0.5 in tau around each tau0 that solve_psi will visit.
    The solver should return b' = -b/(1+b), Gamma' = -Gamma/(1+Gamma)."""
    hist = evolve.FlowHistory()
    times = sorted({
        float(t)
        for tau0 in tau0s
        for t in np.arange(tau0 - 1.0, tau0 / 1.06 + 1.0e-9, 0.5)
    })
    y = g.y[:, None] / (1.0 + b)
    for tau in times:
        v = (1.0 + b) * (SQRT2 - (y**2 - 4.0) / (SQRT8 * (1.0 + gamma) * abs(tau)))
        v = v * np.ones((1, g.n_phi))
        hist.append(evolve.FlowState(time=tau, v=grid.ScalarField(g, np.maximum(v, 0.0)),
                                     renormalized=True))
    return hist


def _history_arrays(hist):
    return [(st.time, st.v.values, None if st.tip is None else st.tip.values)
            for st in hist.states]


def analysis_setup(seed, size, workdir):
    cfg = SIZES[size]
    refs = load_references()
    n_r, n_phi = cfg["history_ellipsoid"]
    g = grid.build_grid(n_r, n_phi, 10.0)
    start = evolve.FlowState(time=REF_ELLIPSOID.t_start,
                             v=ellipsoid_initial(g, REF_ELLIPSOID),
                             renormalized=False)
    ell = evolve.run(start, ELLIPSOID_T_END, snapshot_every=0.02)
    n_r, n_phi = cfg["oval"]
    oval = evolve.run(oval_state(oval_field(n_r, n_phi)),
                      OVAL_TAU0 + cfg["history_oval_span"],
                      snapshot_every=SNAPSHOT_EVERY)
    dirs = {"ellipsoid": os.path.join(workdir, "ellipsoid"),
            "oval": os.path.join(workdir, "oval")}
    ell.save_dir(dirs["ellipsoid"])
    oval.save_dir(dirs["oval"])

    rng = np.random.default_rng(seed)
    g_shift = grid.build_grid(*cfg["shift_grid"], 18.0)
    shifted = []
    for _ in range(cfg["shifts"]):
        b = float(rng.uniform(7.5e-4, 8.5e-4))
        gamma = float(rng.uniform(0.025, 0.03))
        shifted.append((b, gamma, shifted_normal_form_history(
            g_shift, b, gamma, SHIFT_TAU0S)))
    return {
        "dirs": dirs,
        "saved": {"ellipsoid": _history_arrays(ell), "oval": _history_arrays(oval)},
        "t_e": refs["ellipsoid_t_e"],
        "shifted": shifted,
        "psi_tol": 1.0e-4 * cfg["tol_scale"],
        "bowl": solve_bowl(),
    }


def check_round_trip(saved):
    def check(hist):
        loaded = _history_arrays(hist)
        if len(loaded) != len(saved):
            return f"{len(loaded)} snapshots loaded, {len(saved)} saved"
        for (t0, v0, y0), (t1, v1, y1) in zip(saved, loaded):
            if t0 != t1 or np.abs(v0 - v1).max() > 1.0e-14:
                return f"snapshot at t={t0:.6g} did not round-trip"
            if (y0 is None) != (y1 is None) or (
                    y0 is not None and np.abs(y0 - y1).max() > 1.0e-14):
                return f"tip table at t={t0:.6g} did not round-trip"
        return None

    return check


def check_shift(b, gamma, tau0, tol, log):
    want = (-b / (1.0 + b), -gamma / (1.0 + gamma))

    def check(params):
        err = max(abs(params.b(tau0) - want[0]),
                  abs(params.Gamma(tau0) - want[1]),
                  float(np.abs(params.a(tau0)).max()))
        log.error("psi_err", err)
        return _need(err <= tol, f"shift recovered to {err:.3g} > {tol:.3g}")

    return check


def solve(log, hist, tau0, mode, check):
    start = len(log.ops)
    log.call("solve_psi", recenter.solve_psi, hist, tau0, mode=mode, check=check)
    if log.ops[-1].status == "ok":
        log.group_ms("solve", start)


def analysis_pass(ctx, log):
    ell = log.call("load_dir", evolve.FlowHistory.load_dir, ctx["dirs"]["ellipsoid"],
                   check=check_round_trip(ctx["saved"]["ellipsoid"]))
    oval = log.call("load_dir", evolve.FlowHistory.load_dir, ctx["dirs"]["oval"],
                    check=check_round_trip(ctx["saved"]["oval"]))
    t_e = ctx["t_e"]
    for st in ell.states if ell is not None else ():
        log.call("huisken_density", diagnostics.huisken_density, st.v,
                 math.sqrt(t_e - st.time), check=check_finite)
        log.call("concavity_margin", diagnostics.concavity_margin, st.v,
                 st.time, 0.0, check=lambda r: check_finite(r.worst))
        out = log.call("renormalize", evolve.renormalize, st.v, st.time, t_e)
        if out is not None and out[1] < 0.0:
            field, tau = out
            snapshot_pass(log, evolve.FlowState(time=tau, v=field),
                          ELLIPSOID_L, ASYMPTOTICS_EPS, ctx["bowl"])
    for st in oval.states if oval is not None else ():
        snapshot_pass(log, st, OVAL_L, ASYMPTOTICS_EPS, ctx["bowl"])

    for b, gamma, hist in ctx["shifted"]:
        for tau0 in SHIFT_TAU0S:
            for mode in (recenter.TWO_PARAM, recenter.FOUR_PARAM):
                solve(log, hist, tau0, mode,
                      check_shift(b, gamma, tau0, ctx["psi_tol"], log))
    if oval is not None:
        for tau0 in STEPPED_TAU0S:
            for mode in (recenter.TWO_PARAM, recenter.FOUR_PARAM):
                solve(log, oval, tau0, mode,
                      lambda p: check_finite(p.beta + p.gamma))


WORKLOADS = {
    "extinction": (extinction_setup, extinction_pass, "t_e_err"),
    "oval": (oval_setup, oval_pass, "rim_err"),
    "analysis": (analysis_setup, analysis_pass, "psi_err"),
}

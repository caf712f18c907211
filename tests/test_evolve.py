"""Stepping engine: patches, right-hand sides, marching, extinction.

Quadric bodies (bubble sheet, sphere, neck, translated sphere) are
polynomial in the squared profile with angular modes m <= 2, so every
discrete operator in the stepper resolves them exactly; their drift
tolerances below are roundoff-scale and any regression of the stepping
core shows up as an outright failure, not a slow creep.  Non-stationary
accuracy is pinned by a three-grid self-convergence study and by
marching the two time gauges against each other around a measured
extinction time.
"""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovalab import evolve
from ovalab.errors import (
    CoverageError,
    DegeneracyError,
    DomainError,
    ParameterError,
    ShapeError,
    StepSizeError,
)
from ovalab.evolve import (
    ExtinctionResult,
    FlowHistory,
    FlowState,
    TipField,
    cfl_dt,
    find_extinction,
    renormalize,
    renormalized_state,
    rhs_renormalized_Y,
    run,
    step,
    zoomed_tip,
)
from ovalab.grid import (
    THETA,
    ScalarField,
    _write_table,
    build_grid,
    diff_phi_fft,
    norm_H,
    rim_index,
    signed_square,
    tip_nodes,
)
from ovalab.shrinkers import (
    EllipsoidSpec,
    bubble_sheet_field,
    ellipsoid_initial,
    neck_field,
    solve_bowl,
    sphere_field,
)
from ovalab.recenter import _fd_jacobian
from ovalab.spectral import apply_ou

SQRT2 = math.sqrt(2.0)


def _sphere_w(grid, t_e_minus_t=1.0):
    return (6.0 * t_e_minus_t - grid.y[:, None] ** 2) * np.ones((1, grid.n_phi))


def _signed_field(grid, w):
    return ScalarField(grid, np.sqrt(np.maximum(w, 0.0)), w_signed=w)


def _wobble_sphere(grid, eps=0.12):
    yy, pp = grid.y[:, None], grid.phi[None, :]
    w = 6.0 - yy**2 * (1.0 + eps * np.cos(2.0 * pp))
    return _signed_field(grid, w)


def _saved_nodes(path, v_nodes):
    """Write a positive table on the given nodes under a theta = 0.2
    header and read it back."""
    _write_table(path, f"v_nodes={len(v_nodes)} phi_nodes=8 theta=0.2", v_nodes,
                 2.0 * math.pi * np.arange(8) / 8, np.ones((len(v_nodes), 8)))
    return TipField.load(path)


# ---------------------------------------------------------------------------
# tip patch


class TestTipField:
    def test_from_profile_matches_exact_sphere(self):
        g = build_grid(192, 48, 3.2)
        tip = TipField.from_profile(sphere_field(g), theta=0.2, n_nodes=17)
        exact = np.sqrt(6.0 - tip.v_nodes[:, None] ** 2)
        assert np.abs(tip.values - exact).max() < 1.0e-4
        assert tip.monotone()

    def test_profile_at_inverts_columns(self):
        g = build_grid(192, 48, 3.2)
        tip = TipField.from_profile(sphere_field(g), theta=0.2, n_nodes=17)
        for j in (0, 11):
            ys = tip.values[2:-2, j]
            back = tip.profile_at(ys, j)
            assert np.abs(back - tip.v_nodes[2:-2]).max() < 1.0e-12

    def test_save_load_roundtrip(self, tmp_path):
        g = build_grid(160, 32, 3.2)
        tip = TipField.from_profile(_wobble_sphere(g), theta=0.2, n_nodes=17)
        path = os.path.join(tmp_path, "tip.csv")
        tip.save(path)
        back = TipField.load(path)
        assert np.array_equal(back.v_nodes, tip.v_nodes)
        assert np.abs(back.values - tip.values).max() < 1.0e-14
        assert back.theta == tip.theta

    def test_truncated_table_rejected(self, tmp_path):
        g = build_grid(160, 32, 3.2)
        tip = TipField.from_profile(_wobble_sphere(g), theta=0.2, n_nodes=17)
        path = os.path.join(tmp_path, "tip.csv")
        tip.save(path)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])
        with pytest.raises(ShapeError):
            TipField.load(path)

    @pytest.mark.parametrize("line,edit", [
        (0, lambda text: text.replace("theta=", "angle=")),
        (0, lambda text: text.replace("phi_nodes=32", "phi_nodes=four")),
        (5, lambda text: text.rsplit(",", 1)[0] + "\n"),
        (5, lambda text: text.rsplit(",", 1)[0] + ", one\n"),
        (5, lambda text: text.rsplit(",", 1)[0] + ", nan\n"),
    ], ids=["no-theta", "phi-nodes-four", "four-fields", "non-numeric", "nan"])
    def test_malformed_table_is_a_parameter_error(self, tmp_path, line, edit):
        g = build_grid(160, 32, 3.2)
        tip = TipField.from_profile(_wobble_sphere(g), theta=0.2, n_nodes=17)
        path = os.path.join(tmp_path, "tip.csv")
        tip.save(path)
        with open(path) as fh:
            lines = fh.readlines()
        changed = edit(lines[line])
        assert changed != lines[line]
        lines[line] = changed
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ParameterError) as exc:
            TipField.load(path)
        assert path in str(exc.value)

    @pytest.mark.parametrize("row,other", [(2, 3), (5, 40)], ids=["same-ring", "two-rings"])
    def test_swapped_rows_are_a_parameter_error(self, tmp_path, row, other):
        """Every row must be its header's (k, j, node, phi) in row-major
        order; a table with two rows swapped would put radii at the wrong
        nodes."""
        g = build_grid(160, 32, 3.2)
        tip = TipField.from_profile(_wobble_sphere(g), theta=0.2, n_nodes=17)
        path = os.path.join(tmp_path, "tip.csv")
        tip.save(path)
        with open(path) as fh:
            lines = fh.readlines()
        lines[row + 1], lines[other + 1] = lines[other + 1], lines[row + 1]
        with open(path, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(ParameterError, match="by 32 angles") as exc:
            TipField.load(path)
        assert path in str(exc.value)

    @pytest.mark.parametrize("make", [
        lambda path: _saved_nodes(path, np.linspace(0.05, 0.45, 17)),
        lambda path: _saved_nodes(path, -np.linspace(0.0, 0.4, 17)),
        lambda path: _saved_nodes(path, 0.4 * np.linspace(0.0, 1.0, 17) ** 2),
        lambda path: _saved_nodes(path, np.linspace(0.0, 0.4, 3)),
        lambda path: TipField.from_profile(sphere_field(build_grid(64, 8, 3.2)),
                                           n_nodes=3),
        lambda path: TipField.from_profile(sphere_field(build_grid(64, 8, 3.2)),
                                           n_nodes=16.5),
        lambda path: TipField(np.ones((3, 8)), 0.2),
        *[lambda path, theta=theta: TipField(np.ones((9, 8)), theta)
          for theta in (0.0, -0.2, math.inf, math.nan)],
    ], ids=["offset", "decreasing", "stretched", "three-stored", "three-inverted",
            "fractional-count", "three-built", "theta-0", "theta-negative",
            "theta-inf", "theta-nan"])
    def test_bad_nodes_are_a_parameter_error(self, tmp_path, make):
        """The tip stencils need 4 or more uniform nodes up from v = 0: a
        table takes grid.tip_nodes(n, theta), which refuses a count below
        4 or not an integer and a theta outside (0, inf), and a stored
        node column must be those nodes."""
        path = os.path.join(tmp_path, "tip.csv")
        with pytest.raises(ParameterError, match="tip nodes") as exc:
            make(path)
        if os.path.exists(path):  # a stored table names its file
            assert path in str(exc.value)

    def test_rim_must_be_contained(self):
        g = build_grid(96, 32, 3.0)
        with pytest.raises(DegeneracyError):
            TipField.from_profile(neck_field(g))  # rim escapes along phi=0

    def test_profile_must_reach_ceiling(self):
        g = build_grid(96, 32, 3.0)
        w = (0.09 - g.y[:, None] ** 2 / 50.0) * np.ones((1, 32))
        with pytest.raises(DegeneracyError):
            TipField.from_profile(_signed_field(g, w), theta=0.2)

    def test_far_ceiling_lays_out_no_more_nodes_than_the_peak(self, monkeypatch):
        """theta = 1e6 is refused as a DegeneracyError, with the default
        count taken at half the profile's peak 0.3, 15 nodes: taken at
        theta, it would lay out about 1e8 nodes before the refusal."""
        g = build_grid(96, 32, 3.0)
        w = (0.09 - g.y[:, None] ** 2 / 50.0) * np.ones((1, 32))
        counts = []
        monkeypatch.setattr(evolve, "tip_nodes",
                            lambda n, theta: counts.append(n) or tip_nodes(n, theta))
        with pytest.raises(DegeneracyError):
            TipField.from_profile(_signed_field(g, w), theta=1.0e6)
        assert counts == [15]

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -0.1],
                             ids=["nan", "inf", "negative"])
    def test_tip_radius_finite_and_positive_required(self, entry):
        bad = np.ones((9, 8))
        bad[3, 2] = entry
        with pytest.raises(DomainError):
            TipField(bad, 0.2)

    def test_saved_table_format(self, tmp_path):
        path = os.path.join(tmp_path, "tip.csv")
        TipField(np.full((4, 4), 1.5), 0.25).save(path)
        with open(path) as fh:
            assert fh.readlines()[:6] == [
                "# v_nodes=4 phi_nodes=4 theta=0.25\n",
                "0, 0, 0, 0, 1.5\n",
                "0, 1, 0, 1.5707963267948966, 1.5\n",
                "0, 2, 0, 3.1415926535897931, 1.5\n",
                "0, 3, 0, 4.7123889803846897, 1.5\n",
                "1, 0, 0.16666666666666666, 0, 1.5\n",
            ]


# ---------------------------------------------------------------------------
# right-hand sides


class TestWRHS:
    """The squared-profile right-hand side _w_rhs, the one graph equation
    the stepper runs; quadric stationarity is checked through step."""

    def test_polar_reduces_to_radial_formula(self):
        """On a radial W the angular spectra vanish and rows y > 0 are the
        radial W equation with the grid's own stencils."""
        g = build_grid(160, 32, 6.0)
        yy = g.y[:, None]
        W = (2.0 + 0.3 * np.exp(-(yy**2) / 4.0)) * np.ones((1, 32))
        r = evolve._w_rhs(W, g, True, W > 0.0)
        Wy = g.radial_derivative(W, 1)
        Wyy = g.radial_derivative(W, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            radial = (
                Wyy
                + Wy / yy
                - (Wy**2 * Wyy + 2.0 * Wy**2) / (4.0 * W + Wy**2)
                - 2.0
                - 0.5 * yy * Wy
                + W
            )
        assert np.abs(r[1:, :] - radial[1:, :]).max() < 1.0e-12

    def test_unrescaled_drops_gauge_terms(self):
        g = build_grid(128, 32, 4.0)
        W = np.array(_wobble_sphere(g).w_signed)
        live = W > 0.0
        a = evolve._w_rhs(W, g, True, live)
        b = evolve._w_rhs(W, g, False, live)
        gauge = -0.5 * g.y[:, None] * g.radial_derivative(W, 1) + W
        assert np.abs(a - b - gauge)[live].max() < 1.0e-12

    def test_linearization_at_the_sheet_has_the_ou_spectrum(self):
        """The Jacobian of the renormalized _w_rhs at W = 2, the pole one
        unknown whose rate is the pole row's mean as _filter_w takes it,
        has the drift Laplacian's top spectrum {1, 1/2, 1/2, 0, 0, 0} on
        32x16 and 64x16 cells, y_max = 8; its -1/2 block converges at
        second order, and on 32x16 it is the matrix of spectral.apply_ou."""
        block = {}
        for n_r in (32, 64):
            g = build_grid(n_r, 16, 8.0)

            def unfold(x):
                return np.concatenate((np.full((1, 16), x[0]), x[1:].reshape(n_r, 16)))

            def fold(R):
                return np.concatenate(([R[0].mean()], R[1:].ravel()))

            def F(x):
                return fold(evolve._w_rhs(unfold(x), g, True, np.ones(g.shape, bool)))

            x0 = np.full(1 + 16 * n_r, 2.0)
            J = _fd_jacobian(F, x0, (1.0e-6,) * len(x0))
            ev = np.linalg.eigvals(J)
            ev = ev[np.argsort(-ev.real)]
            assert np.abs(ev[:6] - [1.0, 0.5, 0.5, 0.0, 0.0, 0.0]).max() < 1.0e-7
            block[n_r] = np.abs(ev[6:10] + 0.5).max()
            if n_r == 32:
                ou = np.column_stack([fold(apply_ou(ScalarField(g, unfold(e))).values)
                                      for e in np.eye(len(x0))])
                assert np.abs(J - ou).max() < 1.0e-7
        assert abs(math.log2(block[32] / block[64]) - 2.0) < 0.1


class TestTipRHS:
    def test_sphere_inverse_stationary(self):
        v_nodes = np.linspace(0.0, 0.4, 17)
        tip = TipField(np.sqrt(6.0 - v_nodes[:, None] ** 2) * np.ones((1, 48)), 0.2)
        assert np.abs(rhs_renormalized_Y(tip)).max() < 5.0e-4

    def test_positive_radius_enforced(self):
        tip = TipField(np.full((9, 8), 2.0), 0.2)
        tip.values[4, 4] = -1.0
        with pytest.raises(DomainError):
            rhs_renormalized_Y(tip)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n_nodes=st.integers(4, 40),
        n_phi=st.sampled_from([4, 8, 16, 48]),
        top=st.floats(0.05, 1.0),
        base=st.floats(0.3, 3.0),
        slope=st.floats(0.0, 2.0),
        wobble=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stencil_bitwise_equal_to_hand_written(
        self, n_nodes, n_phi, top, base, slope, wobble, seed
    ):
        """The tip takes its radial derivatives from grid.radial_stencil;
        on random positive tables the right-hand side is bit for bit the
        one of the hand-written tip stencil it replaced (_rhs_Y_loop)."""
        v_nodes = np.linspace(0.0, top, n_nodes)
        rng = np.random.default_rng(seed)
        Y = (base - slope * v_nodes[:, None] ** 2) * np.ones((1, n_phi))
        Y = np.abs(Y) * (1.0 + wobble * rng.uniform(-1.0, 1.0, Y.shape)) + 0.01
        tip = TipField(Y, 0.5 * top)
        assert np.array_equal(rhs_renormalized_Y(tip), _rhs_Y_loop(tip))

    def test_inverse_identities_second_order(self):
        """Graph and tip describe one surface: the inverse-function
        identities between (v, v_y, v_phi) and (Y, Y_v, Y_phi) hold to
        the stencil order on the overlap band.  The tip table is built
        analytically so the only errors left are the stencils under
        test; the graph side is differentiated through the smooth
        signed square (v itself is kinked at the rim)."""
        eps = 0.12

        def residuals(n_r, n_nodes):
            g = build_grid(n_r, 64, 3.2)
            yy, pp = g.y[:, None], g.phi[None, :]
            w = 6.0 - yy**2 * (1.0 + eps * np.cos(2.0 * pp))
            v_nodes = np.linspace(0.0, 0.4, n_nodes)
            shade = 1.0 + eps * np.cos(2.0 * g.phi)
            tip = TipField(np.sqrt((6.0 - v_nodes[:, None] ** 2) / shade[None, :]), 0.2)
            dv = tip.dv
            Y = tip.values
            Yv = np.gradient(Y, dv, axis=0)
            Yp = diff_phi_fft(Y, order=1)
            wy = g.radial_derivative(w, 1)
            wp = diff_phi_fft(w, order=1)
            out = np.zeros(6)
            rows = [k for k, v in enumerate(tip.v_nodes)
                    if 0.2 + 2 * dv <= v <= 0.4 - 2 * dv]
            for j in range(0, g.n_phi, 7):
                for k in rows:
                    yk = Y[k, j]
                    vk = tip.v_nodes[k]
                    vi = math.sqrt(np.interp(yk, g.y, w[:, j]))
                    vyi = np.interp(yk, g.y, wy[:, j]) / (2.0 * vk)
                    vpi = np.interp(yk, g.y, wp[:, j]) / (2.0 * vk)
                    out[0] = max(out[0], abs(vi - vk))
                    out[1] = max(out[1], abs(Yv[k, j] * vyi - 1.0))
                    out[2] = max(out[2], abs(Yp[k, j] + Yv[k, j] * vpi))
                    out[3] = max(out[3], abs(tip.profile_at(yk, j) - vk))
                    out[4] = max(out[4], abs(vyi - 1.0 / Yv[k, j]))
                    out[5] = max(out[5], abs(vpi + vyi * Yp[k, j]))
            return out

        coarse = residuals(96, 9)
        fine = residuals(192, 17)
        assert fine.max() < 2.0e-3
        for rc, rf in zip(coarse, fine):
            assert rf < max(rc / 2.5, 1.0e-11)


# ---------------------------------------------------------------------------
# whole-table tip code against per-angle loops
#
# The stepper inverts and differentiates the tip table for all angles
# at once.  These oracles are the per-angle loops it replaced;
# the vectorized code has to reproduce them bit for bit.


def _from_profile_loop(field, theta=THETA, n_nodes=17):
    g = field.grid
    v_nodes = np.linspace(0.0, 2.0 * theta, n_nodes)
    w_levels = v_nodes**2
    w = signed_square(field)
    vals = np.empty((n_nodes, g.n_phi))
    for j in range(g.n_phi):
        col = w[:, j]
        i_peak = int(np.argmax(col))
        tail = np.minimum.accumulate(col[i_peak:])
        if tail[0] <= w_levels[-1]:
            raise DegeneracyError(
                f"profile max {math.sqrt(max(tail[0], 0)):.4g} at angle "
                f"{j} does not reach the tip-patch ceiling {2 * theta:.4g}"
            )
        if tail[-1] > w_levels[0]:
            raise DegeneracyError(f"rim not contained in grid at angle {j}")
        vals[:, j] = np.interp(w_levels, tail[::-1], g.y[i_peak:][::-1])
    return vals


def _rhs_Y_loop(tip):
    Y = tip.values
    dv = tip.dv
    v = tip.v_nodes[:, None]
    ext = np.vstack([Y[1:2, :], Y])
    Yv = (ext[2:, :] - ext[:-2, :]) / (2.0 * dv)
    Yvv = (ext[2:, :] - 2.0 * ext[1:-1, :] + ext[:-2, :]) / dv**2
    last = Y[-4:, :]
    c1 = np.array([-1.0 / 3.0, 1.5, -3.0, 11.0 / 6.0]) / dv
    c2 = np.array([-1.0, 4.0, -5.0, 2.0]) / dv**2
    Yv = np.vstack([Yv, c1 @ last])
    Yvv = np.vstack([Yvv, c2 @ last])
    Yp = diff_phi_fft(Y, order=1)
    Ypp = diff_phi_fft(Y, order=2)
    Yvp = diff_phi_fft(Yv, order=1)
    den = Y**2 * (1.0 + Yv**2) + Yp**2
    num = (Y**2 + Yp**2) * Yvv - 2.0 * Yp * Yv * Yvp + (1.0 + Yv**2) * Ypp
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = (1.0 / v - 0.5 * v) * Yv
    drift[0, :] = Yvv[0, :]
    return num / den + drift - Yp**2 / (Y * den) + 0.5 * Y - 1.0 / Y


def _benchmark_oval(n_r, n_phi):
    """The renormalized W-quadric at tau = -20 that the benchmark's oval
    workload steps, W = 2 - (1.3 y1^2 + 0.7 y2^2 - 4)/20 on a grid
    reaching 15 % past its rim, with its tip table at THETA."""
    rim = math.sqrt(44.0 / 0.7)
    g = build_grid(n_r, n_phi, 1.15 * rim)
    y1 = g.y[:, None] * np.cos(g.phi)[None, :]
    y2 = g.y[:, None] * np.sin(g.phi)[None, :]
    f = _signed_field(g, 2.0 - (1.3 * y1**2 + 0.7 * y2**2 - 4.0) / 20.0)
    return FlowState(time=-20.0, v=f, tip=TipField.from_profile(f), L=1.0)


def _counting_rhs(monkeypatch, first=None, name="rhs_renormalized_Y"):
    """Wrap the right-hand side evolve.<name> with a call counter: by
    default the tip's, the name perfbench's tracer wraps, or the graph's
    _w_rhs.  first, if given, replaces the first call."""
    calls = []
    inner = getattr(evolve, name)

    def counted(*args, **kwargs):
        calls.append(name)
        if first is not None and len(calls) == 1:
            return first(*args, **kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(evolve, name, counted)
    return calls


def _step_alone(tip, dtau):
    """The tip stepped without the graph: no rows follow a graph."""
    return evolve._substep_tip(tip, dtau, tip.values[:0])


class TestTipStep:
    """The tip covers a graph step in RKL2 super-steps: m of them, each of
    the fewest stages s whose stretch (s^2 + s - 2)/4 of CFL dv^2 covers
    dtau / m, with m = ceil(dtau / (2.5 CFL dv^2)).  The default table's
    spacing keeps dtau = cfl_dt within one three-stage super-step, and in
    a step the rows v >= theta follow the graph instead of their own
    right-hand side."""

    def test_time_convergence_second_order(self):
        """A Z2^2-symmetric wobbled table stepped alone over a fixed span
        at dtau = 0.9 CFL dv^2, dtau/2 and dtau/4, each against a run at
        dtau/512.  Measured contraction 4.10 and 4.06 per halving.

        Every step here is one two-stage super-step.  A super-step never
        exceeds 2.5 CFL dv^2, so halving a longer graph step halves only
        the count of equal super-steps; the three-stage polynomial is
        checked on the linear equation below."""
        v = tip_nodes(17, 0.2)[:, None]
        phi = 2.0 * math.pi * np.arange(16) / 16
        Y0 = (np.sqrt((6.0 - v**2) / (1.0 + 0.3 * np.cos(2.0 * phi)))
              * (1.0 + 0.1 * np.cos(4.0 * phi)))
        tip = TipField(Y0, 0.2)
        span = 8 * 0.9 * evolve.CFL * tip.dv**2

        def march(k):
            t = tip
            for _ in range(k):
                t = _step_alone(t, span / k)
            return t.values

        fine = march(8 * 512)
        err = [np.abs(march(8 * 2**j) - fine).max() for j in range(3)]
        assert err[0] / err[1] >= 3.5
        assert err[1] / err[2] >= 3.5

    @pytest.mark.parametrize("ratio, m, s", [(0.9, 1, 2), (2.2, 1, 3), (2.6, 2, 3),
                                             (4.8, 2, 3), (40.0, 16, 3)])
    def test_stages_follow_the_exponential_and_stay_stable(self, monkeypatch,
                                                           ratio, m, s):
        """A step of ratio CFL dv^2 is m super-steps of s stages.  On
        Y_t = lam Y each multiplies by the RKL2 stability polynomial
        R_s(z), z = lam dtau / m: within 0.2 |z|^3 of e^z for small z,
        and in (0, 1] on the whole interval z >= -(s^2 + s - 2)/2 that
        the stretch (s^2 + s - 2)/4 promises."""
        edge = (s * s + s - 2) / 2.0
        z = np.concatenate((-np.geomspace(1.0e-3, 0.1, 8), -np.linspace(0.1, edge, 64)))
        tip = TipField(np.ones((4, z.size)), 0.2)
        dtau = ratio * evolve.CFL * tip.dv**2
        lam = m * z / dtau
        monkeypatch.setattr(evolve, "rhs_renormalized_Y", lambda t: lam * t.values)
        calls = _counting_rhs(monkeypatch)
        R = _step_alone(tip, dtau).values[0]
        assert len(calls) == m * s
        small = np.abs(R[:8] - np.exp(m * z[:8]))
        assert np.all(small <= 0.2 * m * np.abs(z[:8]) ** 3)
        assert np.all((R > 0.0) & (R <= 1.0 + 1.0e-12))

    def test_long_step_keeps_the_stationary_table(self):
        """One step of 40 CFL dv^2, sixteen three-stage super-steps, on
        Y = sqrt(6 - v^2) moves the rows below theta by no more than the
        span times the table's right-hand-side bound.

        In a coupled step the rows at and above theta follow the graph
        instead.  Stepped alone, the outer row on its one-sided stencil
        moves at a mean rate of 1.211e-3 over this step, with explicit
        midpoint substeps of CFL dv^2 as with the super-steps; the rows
        at and above theta are held to that."""
        v_nodes = tip_nodes(17, 0.2)
        tip = TipField(np.sqrt(6.0 - v_nodes[:, None] ** 2) * np.ones((1, 48)), 0.2)
        span = 40.0 * evolve.CFL * tip.dv**2
        moved = _step_alone(tip, span).values - tip.values
        assert np.abs(moved[v_nodes < 0.2]).max() <= span * 5.0e-4
        assert np.abs(moved[v_nodes >= 0.2]).max() <= span * 1.25e-3

    def test_benchmark_oval_step_takes_three_tip_rhs_calls(self, monkeypatch):
        """One cfl_dt step of the 128x32 benchmark oval, whose default tip
        table has 9 nodes, is one three-stage tip super-step, each stage a
        call of evolve.rhs_renormalized_Y, and one two-stage graph
        super-step, each stage a call of _w_rhs."""
        st = _benchmark_oval(128, 32)
        calls = _counting_rhs(monkeypatch)
        graph_calls = _counting_rhs(monkeypatch, name="_w_rhs")
        step(st, cfl_dt(st.v.grid))
        assert len(calls) == 3
        assert len(graph_calls) == 2

    @pytest.mark.parametrize("n_r, n_phi, n_nodes", [(64, 16, 5), (96, 16, 7),
                                                     (128, 32, 9), (256, 64, 17)])
    def test_default_spacing_follows_the_graph(self, n_r, n_phi, n_nodes):
        """The default table on each benchmark oval has the most nodes
        whose step ratio (dy/dv)^2 stays within _TIP_STRETCH, with theta
        on a node: two nodes more would pass it."""
        st = _benchmark_oval(n_r, n_phi)
        tip, dy = st.tip, st.v.grid.dy
        assert tip.values.shape == (n_nodes, n_phi)
        assert (dy / tip.dv) ** 2 <= evolve._TIP_STRETCH
        assert (dy / tip_nodes(n_nodes + 2, tip.theta)[1]) ** 2 > evolve._TIP_STRETCH
        assert tip.v_nodes[(n_nodes - 1) // 2] == tip.theta

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_tip_table_halves_the_step(self, monkeypatch):
        """A super-step that leaves a non-finite table is a StepSizeError,
        so the march retries at half the step.  (The stages after the
        injected inf compute with it, hence the ignored warnings.)"""
        st = _benchmark_oval(64, 16)
        dt = cfl_dt(st.v.grid)
        calls = _counting_rhs(monkeypatch, first=lambda t: np.full_like(t.values, np.inf))
        out = evolve._march_step(st, dt)
        assert len(calls) > 1
        assert out.time == st.time + 0.5 * dt
        assert np.all(np.isfinite(out.tip.values))


class TestWholeTableTip:
    @settings(max_examples=25, deadline=None, database=None)
    @given(
        x0=st.floats(-0.4, 0.4),
        y0=st.floats(-0.4, 0.4),
        a=st.floats(0.7, 1.3),
        eps=st.floats(0.0, 0.08),
        phase=st.floats(0.0, 2.0 * math.pi),
        signed=st.booleans(),
        theta=st.sampled_from([0.1, 0.2, 0.3]),
        n_nodes=st.sampled_from([9, 17, 33]),
        bump=st.floats(0.0, 0.02),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_per_angle_loops(
        self, x0, y0, a, eps, phase, signed, theta, n_nodes, bump, seed
    ):
        """Off-centre ellipse with an m = 3 wobble, given with or without
        its signed continuation.  The inverted table is then shaken so
        its columns lose monotonicity (flat runs after the running
        minimum) and some entries land exactly on grid nodes."""
        g = build_grid(64, 16, 3.0)
        yy, pp = g.y[:, None], g.phi[None, :]
        w = (
            2.0
            - ((yy * np.cos(pp) - x0) / a) ** 2
            - (yy * np.sin(pp) - y0) ** 2
            + eps * yy**3 * np.cos(3.0 * (pp - phase))
        )
        f = _signed_field(g, w) if signed else ScalarField(g, np.sqrt(np.maximum(w, 0.0)))
        tip = TipField.from_profile(f, theta=theta, n_nodes=n_nodes)
        assert np.array_equal(tip.values, _from_profile_loop(f, theta, n_nodes))

        rng = np.random.default_rng(seed)
        shaken = tip.values * (1.0 + bump * rng.uniform(-1.0, 1.0, tip.values.shape))
        on_node = rng.random(shaken.shape) < 0.2
        nearest = np.abs(g.y[:, None, None] - shaken[None]).argmin(axis=0)
        shaken = np.where(on_node, g.y[nearest], shaken)
        for table in (tip, TipField(shaken, theta)):
            assert np.array_equal(rhs_renormalized_Y(table), _rhs_Y_loop(table))

    def test_outer_rows_move_on_a_line_to_the_graph(self, monkeypatch):
        """_substep_tip hands every stage the rows v >= theta on the line
        from their start to the given end table, at one fraction of the
        way for all of them, and ends them on that table bit for bit; the
        rows below take their own right-hand side."""
        tip = _benchmark_oval(128, 32).tip
        outer = tip.v_nodes >= tip.theta
        assert 0 < outer.sum() < len(outer)
        end = 1.01 * tip.values[outer]
        stages = []
        inner = evolve.rhs_renormalized_Y

        def recorded(table):
            stages.append(table.values.copy())
            return inner(table)

        monkeypatch.setattr(evolve, "rhs_renormalized_Y", recorded)
        out = evolve._substep_tip(tip, 2.0 * evolve.CFL * tip.dv**2, end)
        assert np.array_equal(out.values[outer], end)
        assert np.abs(out.values[~outer] - tip.values[~outer]).max() > 0.0
        assert len(stages) == 3
        for Y in stages:
            frac = (Y[outer] - tip.values[outer]) / (end - tip.values[outer])
            assert 0.0 <= frac.min() and frac.max() <= 1.0
            assert np.ptp(frac) <= 1.0e-12

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_rkl2_integrates_a_constant_rate_exactly(self, s):
        """A constant rate c over h ends at Y + h c to roundoff, which is
        why the rows that follow the graph can end on its table."""
        Y = np.linspace(1.0, 2.0, 7)
        c = np.linspace(-0.3, 0.5, 7)
        out = evolve._rkl2(Y, 0.01, s, lambda _: c, lambda Y: Y)
        assert np.abs(out - (Y + 0.01 * c)).max() <= 1.0e-15

    @pytest.mark.parametrize("columns, expected", [
        ({3: "rim", 9: "rim"}, "rim not contained in grid at angle 3"),
        ({2: "low", 6: "rim"}, "at angle 2 does not reach"),
        ({1: "rim", 5: "low"}, "rim not contained in grid at angle 1"),
        ({4: "flat", 7: "rim"}, "at angle 4 does not reach"),
    ])
    def test_degeneracy_names_the_first_failing_angle(self, columns, expected):
        """Rims escaping the grid and columns too low for the ceiling, at
        several angles: the error names the first failing angle, and at
        an angle that fails both ways the ceiling is reported."""
        g = build_grid(96, 16, 3.2)
        w = 6.0 - g.y[:, None] ** 2 * np.ones((1, 16))
        recipes = {"rim": 6.0 - 0.1 * g.y**2, "low": 0.01 - g.y**2,
                   "flat": np.full_like(g.y, 0.01)}
        for j, kind in columns.items():
            w[:, j] = recipes[kind]
        f = _signed_field(g, w)
        with pytest.raises(DegeneracyError) as want:
            _from_profile_loop(f)
        with pytest.raises(DegeneracyError) as got:
            TipField.from_profile(f)
        assert str(got.value) == str(want.value)
        assert expected in str(got.value)


class TestOneWaySeam:
    """The tip reads its rows v >= theta from the graph, and the graph
    never reads the tip, so a sync is a projection."""

    def test_syncing_a_synced_state_leaves_the_tip(self):
        """The benchmark oval after one step, its new graph inverted again
        at the tip's rows v >= theta: those rows come back bit for bit.
        A seam that also blends the tip into the graph moves them by
        1.4e-4."""
        st = _benchmark_oval(64, 16)
        st = step(st, cfl_dt(st.v.grid))
        outer = st.tip.v_nodes >= st.tip.theta
        again = evolve._invert_w(signed_square(st.v), st.v.grid, st.tip.v_nodes[outer])
        assert np.array_equal(again, st.tip.values[outer])

    def test_coupled_graph_is_the_graph_only_graph(self):
        """40 cfl_dt steps of the benchmark oval with and without its tip
        patch give the same W, bit for bit."""
        coupled = _benchmark_oval(64, 16)
        alone = replace(coupled, tip=None)
        dt = cfl_dt(coupled.v.grid)
        for _ in range(40):
            coupled, alone = step(coupled, dt), step(alone, dt)
        assert np.array_equal(coupled.v.w_signed, alone.v.w_signed)

    @staticmethod
    def _rim_orders(monkeypatch, n_r, n_phi, span, cfls):
        """Observed orders of the Cauchy differences of the final tip
        radius of the benchmark oval run over span at each CFL."""
        rims = []
        for cfl in cfls:
            monkeypatch.setattr(evolve, "CFL", cfl)
            st = _benchmark_oval(n_r, n_phi)
            rims.append(run(st, st.time + span, snapshot_every=1.0).states[-1].tip_radius())
        diffs = [np.abs(a - b).max() for a, b in zip(rims, rims[1:])]
        return [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]

    def test_final_rim_converges_in_the_step(self, monkeypatch):
        """The 96x16 benchmark oval (7 tip nodes) run over a tau-span of
        0.1 at CFL 0.2, 0.1, 0.05 and 0.025: the final tip radius settles
        as the step shrinks.  Measured orders of its Cauchy differences
        3.58 and 1.04.  With the tip's rows v >= theta held over the step
        and rebuilt from the graph after it, 17 nodes gave 0.92 and 1.24;
        a seam that also blends the tip into the graph gave 0.18 and 0.21,
        the rim then following the count of syncs."""
        orders = self._rim_orders(monkeypatch, 96, 16, 0.1, (0.2, 0.1, 0.05, 0.025))
        assert min(orders) >= 0.75

    def test_final_rim_converges_at_second_order(self, monkeypatch):
        """The 128x32 benchmark oval (9 tip nodes) run over a tau-span of
        0.2 at CFL 0.2, 0.1 and 0.05: measured order 2.99, and 2.70 on to
        CFL 0.025.  With the tip's rows v >= theta held over the step and
        rebuilt from the graph after it, this case gives 1.09."""
        orders = self._rim_orders(monkeypatch, 128, 32, 0.2, (0.2, 0.1, 0.05))
        assert orders[0] >= 1.8


# ---------------------------------------------------------------------------
# stepping


class TestStep:
    def test_bubble_sheet_fixed_point(self):
        g = build_grid(256, 32, 6.0)
        f = bubble_sheet_field(g)
        st = FlowState(time=0.0, v=f, tip=None, renormalized=True)
        dt = cfl_dt(g)
        for _ in range(50):
            st = step(st, dt)
        assert np.abs(st.v.values - SQRT2).max() < 1.0e-10

    def test_quadric_models_stationary(self):
        g = build_grid(192, 48, 4.0)
        for field, tol in ((sphere_field(g), 1.0e-12), (neck_field(g), 1.0e-6)):
            st = FlowState(time=0.0, v=field, tip=None, renormalized=True)
            dt = cfl_dt(g)
            for _ in range(200):
                st = step(st, dt)
            live = field.values > 0.0
            assert np.abs(st.v.values - field.values)[live].max() < tol

    def test_translated_sphere_exact_unrescaled(self):
        """m = 1 pole content: an off-center round body still follows the
        exact linear law of the squared profile."""
        g = build_grid(160, 48, 4.0)
        yy, pp = g.y[:, None], g.phi[None, :]
        w = 6.0 - (yy * np.cos(pp) - 0.3) ** 2 - (yy * np.sin(pp)) ** 2
        st = FlowState(time=0.0, v=_signed_field(g, w), tip=None,
                       renormalized=False)
        dt = cfl_dt(g)
        for _ in range(100):
            st = step(st, dt)
        exact = w - 6.0 * st.time
        live = st.v.w_signed > 0
        assert np.abs(st.v.w_signed - exact)[live].max() < 1.0e-12

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        k=st.integers(0, 15),
        renormalized=st.booleans(),
        x0=st.floats(-0.3, 0.3),
        y0=st.floats(-0.3, 0.3),
        a=st.floats(0.8, 1.2),
        eps=st.floats(0.0, 0.05),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_rotation_by_whole_cells_commutes_with_step(
        self, k, renormalized, x0, y0, a, eps, phase
    ):
        """Off-center ellipse with an m = 3 wobble: turning the body by k
        angle cells and stepping equals stepping and then turning, which
        the angular spectra, the pole jet and the halo all have to
        respect.  The radial stencils, pole reflection included, commute
        exactly."""
        g = build_grid(48, 16, 3.0)
        yy, pp = g.y[:, None], g.phi[None, :]
        w = (
            1.5
            - ((yy * np.cos(pp) - x0) / a) ** 2
            - (yy * np.sin(pp) - y0) ** 2
            + eps * yy**3 * np.cos(3.0 * (pp - phase))
        )
        for order in (1, 2):
            assert np.array_equal(
                g.radial_derivative(np.roll(w, k, axis=1), order),
                np.roll(g.radial_derivative(w, order), k, axis=1),
            )
        dt = cfl_dt(g)

        def stepped(w0):
            state = FlowState(time=0.0, v=_signed_field(g, w0), tip=None,
                              renormalized=renormalized)
            return step(state, dt).v.w_signed

        turned_after = np.roll(stepped(w), k, axis=1)
        turned_before = stepped(np.roll(w, k, axis=1))
        scale = np.abs(turned_after).max()
        assert np.abs(turned_before - turned_after).max() <= 1.0e-12 * scale

    def test_two_patch_sphere_drift(self):
        g = build_grid(192, 48, 3.2)
        f = sphere_field(g)
        tip = TipField.from_profile(f, theta=0.2, n_nodes=17)
        st = FlowState(time=0.0, v=f, tip=tip, renormalized=True)
        dt = cfl_dt(g)
        for _ in range(300):
            st = step(st, dt)
        live = f.values > 0.0
        assert np.abs(st.v.values - f.values)[live].max() < 1.0e-12
        exact = np.sqrt(6.0 - st.tip.v_nodes[:, None] ** 2)
        assert np.abs(st.tip.values - exact).max() < 1.0e-4

    def test_self_convergence_second_order(self):
        """Non-stationary field: three grids with matched end time.

        Measured contraction factor 3.24 per halving (a mix of the
        second-order space/time error with the resolution-dependent
        angular cap); the floor 2.8 catches any first-order regression.
        """
        T = 0.02

        def march(n):
            g = build_grid(n, 32, 4.0)
            yy, pp = g.y[:, None], g.phi[None, :]
            w = (2.0 + 0.3 * np.exp(-(yy**2) / 4.0)
                 + 0.1 * yy**2 * np.exp(-(yy**2) / 2.0) * np.cos(2 * pp))
            st = FlowState(time=0.0, v=_signed_field(g, w), tip=None,
                           renormalized=True)
            k = int(math.ceil(T / cfl_dt(g)))
            h = T / k
            for _ in range(k):
                st = step(st, h)
            return st.v.values

        v96, v192, v384 = march(96), march(192), march(384)
        e96 = np.abs(v96 - v384[::4, :]).max()
        e192 = np.abs(v192 - v384[::2, :]).max()
        assert e192 < 5.0e-6
        assert e96 / e192 >= 2.8

    def test_z2_square_symmetry_preserved(self):
        g = build_grid(160, 48, 3.4)
        f = _wobble_sphere(g)
        tip = TipField.from_profile(f, theta=0.2, n_nodes=17)
        st = FlowState(time=0.0, v=f, tip=tip, renormalized=True)
        dt = cfl_dt(g)
        for _ in range(100):
            st = step(st, dt)
        W = st.v.w_signed
        n = W.shape[1]
        refl = W[:, (n - np.arange(n)) % n]
        half = W[:, (np.arange(n) + n // 2) % n]
        assert np.abs(W - refl).max() < 1.0e-10
        assert np.abs(W - half).max() < 1.0e-10

    @settings(max_examples=20, deadline=None, database=None)
    @given(
        gauge=st.sampled_from(["tip", "renormalized", "unrescaled"]),
        r2=st.floats(1.2, 2.0),
        a=st.floats(0.8, 1.25),
        e2=st.floats(-0.1, 0.1),
        e4=st.floats(0.0, 0.02),
    )
    def test_z2_square_symmetry_is_a_property(self, gauge, r2, a, e2, e4):
        """A body even under phi -> -phi and phi -> pi - phi stays so,
        to roundoff, through steps with and without the tip patch."""
        g = build_grid(48, 16, 3.0)
        yy, pp = g.y[:, None], g.phi[None, :]
        w = (r2 - (yy * np.cos(pp) / a) ** 2 - (yy * np.sin(pp)) ** 2
             + e2 * yy**2 * np.cos(2.0 * pp) + e4 * yy**4 * np.cos(4.0 * pp))
        j = np.arange(g.n_phi)
        mirror, flip = (-j) % g.n_phi, (g.n_phi // 2 - j) % g.n_phi
        # the sum over the group orbit is invariant bit for bit
        w = 0.25 * ((w + w[:, mirror]) + (w[:, flip] + w[:, mirror][:, flip]))
        f = _signed_field(g, w)
        tip = TipField.from_profile(f) if gauge == "tip" else None
        st = FlowState(time=0.0, v=f, tip=tip,
                       renormalized=gauge != "unrescaled")
        for _ in range(3):
            st = step(st, cfl_dt(g))
        tables = [st.v.w_signed] + ([st.tip.values] if tip is not None else [])
        for table in tables:
            scale = np.abs(table).max()
            for image in (table[:, mirror], table[:, flip]):
                assert np.abs(table - image).max() <= 1.0e-12 * scale

    def test_overlap_round_trip_within_cells(self):
        g = build_grid(160, 48, 3.4)
        f = _wobble_sphere(g)
        tip = TipField.from_profile(f, theta=0.2, n_nodes=17)
        st = FlowState(time=0.0, v=f, tip=tip, renormalized=True)
        dt = cfl_dt(g)
        for _ in range(100):
            st = step(st, dt)
        again = TipField.from_profile(st.v, theta=0.2, n_nodes=17)
        on = st.tip.v_nodes >= 0.2 - 1.0e-12
        gap = np.abs(st.tip.values[on] - again.values[on]).max()
        assert gap < 2.0 * (g.y[1] - g.y[0])

    def test_rejects_nonpositive_dt(self):
        g = build_grid(64, 16, 4.0)
        st = FlowState(time=0.0, v=bubble_sheet_field(g), tip=None)
        with pytest.raises(ParameterError):
            step(st, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        """A NaN step passed `dtau <= 0` and came back as a StepSizeError,
        which _march_step would retry at half of it 13 times."""
        g = build_grid(16, 8, 3.0)
        st = FlowState(time=0.0, v=sphere_field(g), renormalized=False)
        with pytest.raises(ParameterError, match="positive and finite"):
            step(st, dt)

    def test_rejects_tip_in_unrescaled_gauge(self):
        g = build_grid(160, 32, 3.2)
        f = sphere_field(g)
        tip = TipField.from_profile(f, theta=0.2, n_nodes=17)
        st = FlowState(time=0.0, v=f, tip=tip, renormalized=False)
        with pytest.raises(ParameterError):
            step(st, 1.0e-4)

    def test_step_size_error_suggests_half(self, monkeypatch):
        """A rejected step is retried at half the step until one is
        accepted."""
        g = build_grid(128, 32, 4.0)
        w = 2.0 + 8.0 * np.exp(-(((g.y[:, None] - 2.0) / 0.03) ** 2))
        w = w * np.ones((1, 32))
        st = FlowState(time=0.0, v=_signed_field(g, w), tip=None)
        with pytest.raises(StepSizeError):
            step(st, 0.05)
        tried = []
        inner = evolve.step

        def recording_step(state, dtau):
            tried.append(dtau)
            return inner(state, dtau)

        monkeypatch.setattr(evolve, "step", recording_step)
        out = evolve._march_step(st, 0.05)
        assert len(tried) > 2
        assert tried == [0.05 * 0.5**k for k in range(len(tried))]
        assert out.time == tried[-1]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_graph_step_halves_the_step(self, monkeypatch):
        """A graph super-step that ends non-finite is a StepSizeError, so
        the march retries at half the step rather than reading the blown
        state as a dead body.  (The stage after the injected inf computes
        with it, hence the ignored warnings.)"""
        g = build_grid(32, 8, 3.2)
        st = FlowState(time=0.0, v=sphere_field(g), tip=None, renormalized=False)
        dt = cfl_dt(g)
        calls = _counting_rhs(monkeypatch, first=lambda W, *a, **k: np.full_like(W, np.inf),
                              name="_w_rhs")
        out = evolve._march_step(st, dt)
        assert len(calls) == 4
        assert out.time == st.time + 0.5 * dt
        assert np.all(np.isfinite(out.v.w_signed))

    def test_tip_theta_must_match_state(self):
        """The tip table owns the handover level; a state that names
        another one is rejected rather than stepped."""
        f = sphere_field(build_grid(128, 32, 3.2))
        with pytest.raises(ParameterError, match="theta"):
            FlowState(time=0.0, v=f, tip=TipField.from_profile(f), theta=0.3)

    @pytest.mark.parametrize("field", ["time", "theta", "L"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_state_refuses_a_non_finite_field(self, field, value):
        """A NaN or infinite time, theta or L made a state that step
        carried on, at time NaN for a NaN time."""
        f = sphere_field(build_grid(16, 8, 3.0))
        with pytest.raises(ParameterError, match="finite"):
            FlowState(**{"time": 0.0, "v": f, "renormalized": False, field: value})

    @pytest.mark.parametrize("oval", [False, True])
    def test_rows_past_the_rim_are_neither_read_nor_written(self, oval):
        """A graph step works on the rows up to the outermost rim + 2:
        filling every row past them with other nonpositive values changes
        neither the stepped profile and tip nor W on those rows, and the
        rows past them come back as they went in.  Bodies: the benchmark
        oval with its tip patch, and the a = 0.4 ellipsoid on a grid that
        reaches well past it."""
        if oval:
            state = _benchmark_oval(64, 16)
        else:
            spec = EllipsoidSpec(a=0.4, ell=2.0, radius=2.0, t_start=-5.0)
            f = ellipsoid_initial(build_grid(48, 16, 14.0), spec)
            state = FlowState(time=spec.t_start, v=f, renormalized=False)
        g = state.v.grid
        W = signed_square(state.v)
        k = int(rim_index(W).max()) + 3
        assert k < g.n_r
        junk = W.copy()
        junk[k:] = -np.random.default_rng(5).uniform(0.0, 50.0, junk[k:].shape)
        want = step(state, cfl_dt(g))
        got = step(replace(state, v=ScalarField.from_square(g, junk)), cfl_dt(g))
        assert np.array_equal(got.v.values, want.v.values)
        assert (got.tip is None) == (not oval)
        assert not oval or np.array_equal(got.tip.values, want.tip.values)
        assert np.array_equal(got.v.w_signed[:k], want.v.w_signed[:k])
        assert np.array_equal(got.v.w_signed[k:], junk[k:])
        assert np.array_equal(want.v.w_signed[k:], W[k:])


# ---------------------------------------------------------------------------
# run and history


class TestRunHistory:
    def test_zero_length_returns_initial(self):
        g = build_grid(64, 16, 6.0)
        st = FlowState(time=1.5, v=bubble_sheet_field(g), tip=None)
        hist = run(st, 1.5)
        assert len(hist.states) == 1
        assert hist.states[0] is st

    def test_snapshots_monotone_and_spaced(self):
        g = build_grid(96, 16, 6.0)
        st = FlowState(time=0.0, v=bubble_sheet_field(g), tip=None)
        hist = run(st, 0.2, snapshot_every=0.05)
        times = hist.times
        assert np.all(np.diff(times) > 0)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.2, abs=1.0e-9)
        # one snapshot per cadence interval, none skipped
        assert len(times) == 5

    @pytest.mark.parametrize(
        "t_end, every",
        [(0.5, 0.05), (1.1, 0.0), (1.1, -0.1), (1.1, math.nan)],
        ids=["backwards", "zero-cadence", "negative-cadence", "nan-cadence"],
    )
    def test_bad_target_or_cadence_rejected(self, t_end, every):
        g = build_grid(64, 16, 6.0)
        st = FlowState(time=1.0, v=bubble_sheet_field(g), tip=None)
        with pytest.raises(ParameterError):
            run(st, t_end, snapshot_every=every)

    def test_interpolation_and_coverage(self):
        g = build_grid(96, 16, 6.0)
        yy = g.y[:, None]
        w = 2.0 + 0.2 * np.exp(-(yy**2) / 4.0) * np.ones((1, 16))
        st = FlowState(time=0.0, v=_signed_field(g, w), tip=None)
        hist = run(st, 0.1, snapshot_every=0.02)
        mid = hist.state_at(0.05)
        assert mid.time == pytest.approx(0.05)
        lo, hi = hist.state_at(0.04), hist.state_at(0.06)
        assert np.all(mid.v.values <= np.maximum(lo.v.values, hi.v.values) + 1e-12)
        with pytest.raises(CoverageError):
            hist.state_at(0.11)
        with pytest.raises(CoverageError):
            hist.at(-0.01)
        with pytest.raises(CoverageError):
            FlowHistory().grid

    def test_nan_time_is_outside_the_history(self):
        """Every comparison with NaN is False, so a range check written
        as two comparisons let a NaN time through to an all-NaN blend."""
        g = build_grid(16, 8, 3.0)
        hist = FlowHistory()
        for t in (0.0, 0.1, 0.2):
            w = (2.0 - t) - g.y[:, None] ** 2 * np.ones((1, 8))
            hist.append(FlowState(time=t, v=_signed_field(g, w), tip=None))
        with pytest.raises(CoverageError, match=r"time nan outside history"):
            hist.state_at(math.nan)

    def test_append_refuses_a_non_finite_time(self):
        """A NaN time passed the increasing-time check, and a blend
        between it and a later snapshot was all NaN."""
        g = build_grid(16, 8, 3.0)
        hist = FlowHistory()
        with pytest.raises(ParameterError, match="finite"):
            hist.append(FlowState(time=math.nan, v=sphere_field(g), renormalized=False))
        hist.append(FlowState(time=1.0, v=sphere_field(g), renormalized=False))
        assert hist.times.tolist() == [1.0]

    @pytest.mark.parametrize("signed", [True, False], ids=["w_signed", "values"])
    def test_at_is_the_profile_of_state_at(self, signed):
        """at(t) blends the profile alone, as state_at(t) does for its
        field, so the two agree bit for bit: between two snapshots, on a
        snapshot, and with or without the signed squares."""
        g = build_grid(16, 8, 3.0)
        hist = FlowHistory()
        for t, c in ((0.0, 1.0), (0.3, 4.0), (1.0, 2.0)):
            w = _sphere_w(g, c / 6.0)
            v = _signed_field(g, w) if signed else ScalarField(g, np.sqrt(np.maximum(w, 0.0)))
            hist.append(FlowState(time=t, v=v))
        for t in (0.1, 0.3, 0.65, 1.0):
            got, want = hist.at(t), hist.state_at(t).v
            assert got.grid == want.grid
            assert got.values.tobytes() == want.values.tobytes()
            assert (got.w_signed is None) == (want.w_signed is None) == (not signed)
            if signed:
                assert got.w_signed.tobytes() == want.w_signed.tobytes()

    def test_blend_reads_the_profile_off_the_blended_square(self):
        """Between two snapshots with signed squared profiles W = c - y^2,
        c = 1 and 4, the midpoint blends W to 2.5 - y^2 and the profile
        is its clamped square root (sqrt(2.5) = 1.58 at the pole, not
        the blended 1.5)."""
        g = build_grid(16, 8, 3.0)
        hist = FlowHistory()
        for t, c in ((0.0, 1.0), (1.0, 4.0)):
            hist.append(FlowState(time=t, v=_signed_field(g, _sphere_w(g, c / 6.0))))
        mid = hist.state_at(0.5).v
        w = (2.5 - g.y[:, None] ** 2) * np.ones((1, g.n_phi))
        assert np.abs(mid.w_signed - w).max() <= 1.0e-15
        assert np.array_equal(mid.values, np.sqrt(np.maximum(mid.w_signed, 0.0)))

    def test_save_load_roundtrip(self, tmp_path):
        g = build_grid(128, 32, 3.2)
        f = sphere_field(g)
        tip = TipField.from_profile(f, theta=0.2, n_nodes=17)
        st = FlowState(time=0.0, v=f, tip=tip, renormalized=True)
        hist = run(st, 0.01, snapshot_every=0.005)
        out = os.path.join(tmp_path, "hist")
        hist.save_dir(out)
        back = FlowHistory.load_dir(out)
        assert len(back.states) == len(hist.states)
        for a, b in zip(hist.states, back.states):
            assert a.time == pytest.approx(b.time)
            assert np.abs(a.v.values - b.v.values).max() < 1.0e-14
            assert np.abs(a.tip.values - b.tip.values).max() < 1.0e-14

    def test_load_keeps_each_snapshot_grid(self, tmp_path):
        """Snapshots on grids with equal node counts but different nodes
        come back on their own grids."""
        hist = FlowHistory()
        for k, y_max in enumerate((3.0, 3.5)):
            g = build_grid(48, 16, y_max)
            hist.append(FlowState(time=0.1 * k, v=_signed_field(g, _sphere_w(g, 0.25)),
                                  tip=None, renormalized=False))
        out = os.path.join(tmp_path, "hist")
        hist.save_dir(out)
        back = FlowHistory.load_dir(out)
        for a, b in zip(hist.states, back.states):
            assert np.array_equal(b.v.grid.y, a.v.grid.y)
            assert np.array_equal(b.v.values, a.v.values)

    def test_load_reads_each_snapshot_once(self, tmp_path, monkeypatch):
        """Snapshots on grids (16, 8, 3.0), (16, 8, 3.5), (16, 8, 3.5) are
        read once each, and the two on equal grids share one grid."""
        hist = FlowHistory()
        for k, y_max in enumerate((3.0, 3.5, 3.5)):
            g = build_grid(16, 8, y_max)
            hist.append(FlowState(time=0.1 * k, v=_signed_field(g, _sphere_w(g, 0.25)),
                                  renormalized=False))
        out = os.path.join(tmp_path, "hist")
        hist.save_dir(out)
        reads = []
        inner = evolve.load_field
        monkeypatch.setattr(evolve, "load_field",
                            lambda *a, **k: reads.append(a) or inner(*a, **k))
        back = FlowHistory.load_dir(out)
        assert len(reads) == 3
        grids = [st.v.grid for st in back.states]
        assert grids[1] is grids[2] and grids[0] != grids[1]
        for a, b in zip(hist.states, back.states):
            assert np.array_equal(b.v.values, a.v.values)

    def test_blend_across_grids_is_a_shape_error(self):
        """A snapshot time reads that snapshot on its own grid; a time
        between two snapshots on different grids cannot blend them,
        whether their node counts agree or not."""
        hist = FlowHistory()
        for t, n_r, y_max in ((-10.0, 48, 3.0), (-9.0, 48, 3.5), (-8.0, 64, 3.5)):
            g = build_grid(n_r, 16, y_max)
            w = (4.0 - g.y[:, None] ** 2) * np.ones((1, 16))
            hist.append(FlowState(time=t, v=_signed_field(g, w), renormalized=False))
        snap = hist.states[1].v
        got = hist.at(-9.0)
        assert got.grid == snap.grid and np.array_equal(got.values, snap.values)
        for t, between in ((-9.5, "t=-10 and t=-9"), (-8.5, "t=-9 and t=-8")):
            with pytest.raises(ShapeError, match=between):
                hist.at(t)

    @pytest.mark.parametrize("case", ["no-theta", "no-time", "not-a-list", "time-soon",
                                      "renormalized-no", "field-5", "tip-7",
                                      "field-list", "not-json"])
    def test_bad_index_is_a_parameter_error(self, tmp_path, case):
        g = build_grid(8, 4, 3.0)
        hist = FlowHistory()
        for t in (0.0, 0.1):
            hist.append(FlowState(time=t, v=_signed_field(g, _sphere_w(g)),
                                  renormalized=False))
        out = os.path.join(tmp_path, "hist")
        hist.save_dir(out)
        where = os.path.join(out, "history.json")
        with open(where) as fh:
            index = json.load(fh)
        if case == "no-theta":
            del index[1]["theta"]
        elif case == "no-time":
            del index[0]["time"]
        elif case == "not-a-list":
            index = {"snapshots": index}
        elif case == "time-soon":
            index[0]["time"] = "soon"
        elif case == "field-5":
            index[0]["field"] = 5
        elif case == "tip-7":
            index[1]["tip"] = 7
        elif case == "field-list":
            index[1]["field"] = ["a"]
        elif case == "renormalized-no":
            index[1]["renormalized"] = "no"
        with open(where, "w") as fh:
            if case == "not-json":
                fh.write("[{")
            else:
                json.dump(index, fh)
        with pytest.raises(ParameterError, match="history.json"):
            FlowHistory.load_dir(out)

    def test_load_refuses_a_non_finite_time(self, tmp_path):
        """Python's json reads NaN, so a NaN time got through every entry
        check of the index."""
        g = build_grid(8, 4, 3.0)
        hist = FlowHistory()
        for t in (0.0, 0.1):
            hist.append(FlowState(time=t, v=_signed_field(g, _sphere_w(g)),
                                  renormalized=False))
        out = os.path.join(tmp_path, "hist")
        hist.save_dir(out)
        where = os.path.join(out, "history.json")
        with open(where) as fh:
            index = json.load(fh)
        index[1]["time"] = math.nan
        with open(where, "w") as fh:
            json.dump(index, fh)
        with pytest.raises(ParameterError, match=r"history\.json: .* must be finite"):
            FlowHistory.load_dir(out)

    def test_loaded_fields_read_the_written_squared_profile(self, tmp_path):
        """A field read back from disk has no stored continuation; the tip
        inversion of a stepped oval snapshot and the gauge change of the
        reference ellipsoid must still see the W that was written."""
        e, tau0 = 0.3, -20.0
        rim = math.sqrt((2.0 * abs(tau0) + 4.0) / (1.0 - e))
        g = build_grid(64, 16, 1.15 * rim)
        y2 = g.y[:, None] ** 2 * (1.0 + e * np.cos(2.0 * g.phi[None, :]))
        f = _signed_field(g, 2.0 - (y2 - 4.0) / abs(tau0))
        oval = run(FlowState(time=tau0, v=f, tip=TipField.from_profile(f)),
                   tau0 + 0.01, snapshot_every=0.01)
        spec = EllipsoidSpec(a=0.5, ell=2.0, radius=2.0, t_start=-5.0)
        ell = FlowHistory()
        ell.append(FlowState(time=spec.t_start, renormalized=False,
                             v=ellipsoid_initial(build_grid(64, 16, 10.0), spec)))
        loaded = []
        for name, hist in (("oval", oval), ("ellipsoid", ell)):
            out = os.path.join(tmp_path, name)
            hist.save_dir(out)
            loaded.append(FlowHistory.load_dir(out).states[-1].v)
        snap, back = oval.states[-1].v, loaded[0]
        assert snap.w_signed is not None and back.w_signed is None
        want, got = TipField.from_profile(snap), TipField.from_profile(back)
        assert np.abs(got.values - want.values).max() < 1.0e-12
        want, _ = renormalize(ell.states[0].v, spec.t_start, -3.2426)
        got, _ = renormalize(loaded[1], spec.t_start, -3.2426)
        assert np.abs(got.values - want.values).max() < 1.0e-12


# ---------------------------------------------------------------------------
# extinction and gauge change


@pytest.fixture(scope="module")
def ellipsoid_lifecycle():
    """Shared march of the reference ellipsoid (a=1/2, l=2, R=2, T=-5)."""
    spec = EllipsoidSpec(a=0.5, ell=2.0, radius=2.0, t_start=-5.0)
    g = build_grid(160, 32, 10.0)
    f0 = ellipsoid_initial(g, spec)
    res = find_extinction(f0, spec.t_start)
    return spec, g, f0, res


class TestExtinction:
    def test_sphere_extinction_time(self):
        g = build_grid(128, 32, 4.0)
        f = _signed_field(g, _sphere_w(g))
        res = find_extinction(f, -1.0)
        assert abs(res.t_extinct) < 1.0e-3
        assert res.t_last_alive <= res.t_extinct <= res.t_first_dead

    def test_truncated_tube_interior_collapse(self):
        """Capped cylinder of cross-section sqrt(2): the interior clock
        alone would collapse it at 0; the retreating end caps advance
        the pinch somewhat but the scale is set by the tube."""
        g = build_grid(192, 32, 4.6)
        yy = g.y[:, None]
        w = (2.0 - 2.0 * (yy / 3.6) ** 6) * np.ones((1, 32))
        res = find_extinction(_signed_field(g, w), -1.0)
        assert -0.25 < res.t_extinct < 0.02

    def test_ellipsoid_self_oracle_two_resolutions(self, ellipsoid_lifecycle):
        spec, _, _, res = ellipsoid_lifecycle
        g2 = build_grid(128, 32, 10.0)
        res2 = find_extinction(ellipsoid_initial(g2, spec), spec.t_start)
        lifetime = res.t_extinct - spec.t_start
        assert abs(res.t_extinct - res2.t_extinct) < 0.01 * lifetime
        # regression pins from this implementation's own runs: a change
        # to the sequence of steps moves the count
        assert res.t_extinct == pytest.approx(-3.2426, abs=0.02)
        assert res.steps == 2250

    def test_bisection_costs_one_step_per_halving(self, monkeypatch):
        """Each bisection probe is one partial step from the last alive
        state (plus any rejections), not a re-run of the march."""
        g = build_grid(48, 16, 3.0)
        t0 = -1.0
        f = _signed_field(g, 1.5 - g.y[:, None] ** 2 * np.ones((1, g.n_phi)))
        calls = {"all": 0, "rejected": 0}
        inner = evolve.step

        def counting_step(*args, **kwargs):
            calls["all"] += 1
            try:
                return inner(*args, **kwargs)
            except StepSizeError:
                calls["rejected"] += 1
                raise

        monkeypatch.setattr(evolve, "step", counting_step)
        res = find_extinction(f, t0, rel_tol=1.0e-5)
        dt = cfl_dt(g)
        # the search takes its tolerance from the marched bracket, which
        # ends at most one step after t_first_dead
        tol = 1.0e-5 * (res.t_first_dead - t0)
        halvings = math.ceil(math.log2(dt / tol))
        assert calls["all"] <= res.steps + calls["rejected"] + halvings + 1
        assert res.t_last_alive <= res.t_extinct <= res.t_first_dead
        assert res.t_first_dead - res.t_last_alive <= tol + 1.0e-5 * dt

    def test_floor_stop_ends_the_probe(self, monkeypatch):
        """A thin ellipsoid on a coarse grid rejects steps near collapse,
        and a probe that cannot be stepped at the resolution floor counts
        as a death."""
        spec = EllipsoidSpec(a=0.2, ell=2.0, radius=2.0, t_start=-5.0)
        g = build_grid(48, 32, 1.05 * max(spec.plane_semi_axes()))
        calls = {"rejected": 0, "floor": 0}
        inner, inner_march = evolve.step, evolve._march_step

        def counting_step(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except StepSizeError:
                calls["rejected"] += 1
                raise

        def counting_march_step(*args):
            out = inner_march(*args)
            calls["floor"] += out is None
            return out

        monkeypatch.setattr(evolve, "step", counting_step)
        monkeypatch.setattr(evolve, "_march_step", counting_march_step)
        res = find_extinction(ellipsoid_initial(g, spec), spec.t_start)
        assert calls["rejected"] >= 1
        assert calls["floor"] >= 1
        assert res.t_last_alive <= res.t_extinct <= res.t_first_dead
        # regression pin from this implementation's own runs
        assert res.t_extinct == pytest.approx(-3.3605, abs=0.02)

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0e-3, math.nan])
    def test_bad_tolerance_rejected(self, rel_tol):
        g = build_grid(96, 16, 4.0)
        with pytest.raises(ParameterError):
            find_extinction(_signed_field(g, _sphere_w(g)), -1.0, rel_tol=rel_tol)

    def test_rejects_boundary_touching_body(self):
        g = build_grid(96, 16, 2.0)
        f = _signed_field(g, _sphere_w(g))  # rim at sqrt(6) > y_max
        with pytest.raises(DomainError):
            find_extinction(f, -1.0)

    def test_rejects_extinct_body(self):
        g = build_grid(96, 16, 4.0)
        f = _signed_field(g, -np.ones(g.shape))
        with pytest.raises(DomainError):
            find_extinction(f, 0.0)


class TestRenormalize:
    def test_sphere_maps_to_static_profile(self):
        g = build_grid(192, 32, 4.0)
        f = _signed_field(g, _sphere_w(g, 0.25))
        g_out = build_grid(192, 32, 3.0)
        v, tau = renormalize(f, -0.25, 0.0, grid_out=g_out)
        assert tau == pytest.approx(-math.log(0.25))
        exact = np.sqrt(np.maximum(6.0 - g_out.y[:, None] ** 2, 0.0))
        band = exact > 0.1
        assert np.abs(v.values - exact * np.ones((1, 32)))[
            band * np.ones((1, 32), dtype=bool)
        ].max() < 2.0e-3

    def test_bubble_sheet_maps_to_constant(self):
        g = build_grid(128, 16, 6.0)
        v, tau = renormalize(bubble_sheet_field(g), -1.0, 0.0, grid_out=g)
        assert tau == 0.0
        assert np.abs(v.values - SQRT2).max() < 1.0e-12

    def test_commutes_with_parabolic_dilation(self):
        lam = 1.7
        g = build_grid(192, 32, 4.0)
        g_out = build_grid(192, 32, 3.0)
        v1, tau1 = renormalize(_signed_field(g, _sphere_w(g, 0.25)),
                               -0.25, 0.0, grid_out=g_out)
        w_lam = lam**2 * (6.0 * 0.25 - (g.y[:, None] / lam) ** 2)
        v2, tau2 = renormalize(_signed_field(g, w_lam * np.ones((1, 32))),
                               -0.25 * lam**2, 0.0, grid_out=g_out)
        assert np.abs(v2.values - v1.values).max() < 2.0e-3
        assert tau2 - tau1 == pytest.approx(-2.0 * math.log(lam))

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        lam=st.floats(0.5, 2.0),
        t=st.floats(-1.0, -0.2),
        x0=st.floats(-0.3, 0.3),
        a=st.floats(0.8, 1.2),
        eps=st.floats(0.0, 0.05),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_parabolic_dilation_property(self, lam, t, x0, a, eps, phase):
        """V_lam(y) = lam V(y / lam) on the lam-scaled grid, renormalized
        at lam^2 t against lam^2 t_e onto the same grid, is the same field
        to roundoff, and its tau is shifted by -2 log lam."""
        t_e = 0.1
        g = build_grid(48, 16, 3.0)
        g_lam = build_grid(48, 16, 3.0 * lam)
        g_out = build_grid(48, 16, 4.0)
        yy, pp = g.y[:, None], g.phi[None, :]
        w = (
            1.5
            - ((yy * np.cos(pp) - x0) / a) ** 2
            - (yy * np.sin(pp)) ** 2
            + eps * yy**3 * np.cos(3.0 * (pp - phase))
        )
        v1, tau1 = renormalize(_signed_field(g, w), t, t_e, grid_out=g_out)
        v2, tau2 = renormalize(_signed_field(g_lam, lam**2 * w),
                               lam**2 * t, lam**2 * t_e, grid_out=g_out)
        scale = np.abs(v1.w_signed).max()
        assert np.abs(v2.w_signed - v1.w_signed).max() <= 1.0e-12 * scale
        assert tau2 - tau1 == pytest.approx(-2.0 * math.log(lam), abs=1.0e-12)

    @pytest.mark.parametrize("n_phi", [16, 64])
    def test_any_output_angles_read_the_input_at_theirs(self, n_phi):
        """An output grid with other angles reads the input at its own
        angles: on the angles it shares with the input grid it is the
        same-grid result, for a body that is not round."""
        g = build_grid(96, 32, 2.0)
        yy, pp = g.y[:, None], g.phi[None, :]
        f = _signed_field(g, 1.5 - 1.3 * (yy * np.cos(pp)) ** 2
                          - 0.7 * (yy * np.sin(pp)) ** 2)
        same, _ = renormalize(f, 0.0, 0.25, grid_out=build_grid(96, 32, 3.5))
        other, _ = renormalize(f, 0.0, 0.25, grid_out=build_grid(96, n_phi, 3.5))
        shared = min(n_phi, 32)
        diff = other.w_signed[:, ::n_phi // shared] - same.w_signed[:, ::32 // shared]
        assert np.abs(diff).max() < 1.0e-13

    def test_rejects_time_past_extinction(self):
        g = build_grid(96, 16, 4.0)
        f = _signed_field(g, _sphere_w(g))
        with pytest.raises(DomainError):
            renormalize(f, 0.0, 0.0)

    def test_nan_times_refused(self):
        """A NaN time fails every ordering test, so each guard is written
        as the negation of the order it needs."""
        g = build_grid(96, 16, 4.0)
        f = _signed_field(g, _sphere_w(g))
        with pytest.raises(ParameterError, match="t_end"):
            run(FlowState(time=0.0, v=f, tip=None, renormalized=False), math.nan)
        with pytest.raises(ParameterError, match="t_start"):
            find_extinction(f, math.nan)
        with pytest.raises(DomainError, match="extinction"):
            renormalize(f, math.nan, 0.0)

    @pytest.mark.parametrize("t, t_e", [(-1.0, math.inf), (-math.inf, 0.0)])
    def test_infinite_times_refused(self, t, t_e):
        """An infinite gap t_e - t rescales by 0; it is refused instead of
        reaching the resampler."""
        g = build_grid(16, 8, 3.0)
        with pytest.raises(DomainError, match="finite"):
            renormalize(sphere_field(g), t, t_e)

    def test_gauges_commute_around_extinction(self, ellipsoid_lifecycle):
        """Renormalize-then-march equals march-then-renormalize to the
        discretization error, across gauges and a grid change."""
        spec, g, f0, res = ellipsoid_lifecycle
        hist = run(FlowState(time=spec.t_start, v=f0, tip=None,
                             renormalized=False),
                   t_end=-3.6, snapshot_every=0.2)
        s0, s1 = hist.state_at(-4.0), hist.state_at(-3.6)
        g_out = build_grid(192, 32, 12.0)
        vA, tauA = renormalize(s1.v, -3.6, res.t_extinct, grid_out=g_out)
        stB = renormalized_state(s0.v, -4.0, res.t_extinct, grid_out=g_out)
        hB = run(stB, tauA, snapshot_every=1.0)
        vB = hB.states[-1].v
        band = vA.values > 0.25
        assert np.abs(vA.values - vB.values)[band].max() < 5.0e-3
        # bulk plateau: the profile hugs the cylinder while the body lives
        bulk = (g_out.y <= 2.0)[:, None] & band
        assert np.abs(vA.values - SQRT2)[bulk].max() < 0.2


class TestZoomedTip:
    def test_requires_tip_patch(self):
        g = build_grid(64, 16, 6.0)
        st = FlowState(time=-6.0, v=bubble_sheet_field(g), tip=None)
        with pytest.raises(ParameterError):
            zoomed_tip(st)

    def test_bowl_table_round_trips_exactly(self):
        bowl = solve_bowl(4.0)
        tau0 = -6.0
        s = math.sqrt(abs(tau0))
        v_nodes = np.linspace(0.0, 0.4, 17)
        Y = 4.1 + bowl(s * v_nodes)[:, None] / s * np.ones((1, 8))
        tip = TipField(Y, 0.2)
        st = FlowState(time=tau0, v=bubble_sheet_field(build_grid(16, 8, 2.0)),
                       tip=tip)
        rho, Z = zoomed_tip(st, j=0)
        assert Z[0] == 0.0
        assert np.abs(Z - bowl(rho)).max() < 1.0e-13

    def test_renormalized_state_attaches_tip(self, ellipsoid_lifecycle):
        spec, g, f0, res = ellipsoid_lifecycle
        hist = run(FlowState(time=spec.t_start, v=f0, tip=None,
                             renormalized=False),
                   t_end=res.t_extinct - 0.05, snapshot_every=1.0)
        last = hist.states[-1]
        st = renormalized_state(last.v, last.time, res.t_extinct)
        assert st.renormalized and st.tip is not None
        assert st.tau == pytest.approx(-math.log(res.t_extinct - last.time))
        assert st.tip_radius().min() > 0.0
        rho, Z = zoomed_tip(st)
        assert np.all(Z[0, :] == 0.0)
        assert Z.shape == st.tip.values.shape == (len(rho), g.n_phi)

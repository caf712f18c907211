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

import functools
import json
import math
import os
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovalab import evolve
from ovalab import grid as grid_module
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
    angular_derivs,
    build_grid,
    diff_phi_fft,
    frame_jet,
    norm_H,
    rebuild_halo,
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
from ovalab.spectral import apply_ou, spectral_report
from test_grid import halo_by_columns, halo_by_rows, lowpass_by_rings

SQRT2 = math.sqrt(2.0)


def _sphere_w(grid, t_e_minus_t=1.0):
    return (6.0 * t_e_minus_t - grid.y[:, None] ** 2) * np.ones((1, grid.n_phi))


def _signed_field(grid, w):
    return ScalarField(grid, np.sqrt(np.maximum(w, 0.0)), w_signed=w)


def _wobble_sphere(grid, eps=0.12):
    yy, pp = grid.y[:, None], grid.phi[None, :]
    w = 6.0 - yy**2 * (1.0 + eps * np.cos(2.0 * pp))
    return _signed_field(grid, w)


def _tip(field, n):
    """The tip table of field at the n nodes grid.tip_nodes(n), inverted
    as TipField.from_profile inverts at its own count."""
    return TipField(evolve._invert_w(signed_square(field), field.grid, tip_nodes(n)))


# ---------------------------------------------------------------------------
# tip patch


class TestTipField:
    def test_from_profile_matches_exact_sphere(self):
        g = build_grid(192, 48, 3.2)
        tip = _tip(sphere_field(g), 17)
        exact = np.sqrt(6.0 - tip.v_nodes[:, None] ** 2)
        assert np.abs(tip.values - exact).max() < 1.0e-4
        assert tip.monotone()

    def test_profile_at_inverts_columns(self):
        g = build_grid(192, 48, 3.2)
        tip = _tip(sphere_field(g), 17)
        for j in (0, 11):
            ys = tip.values[2:-2, j]
            back = tip.profile_at(ys, j)
            assert np.abs(back - tip.v_nodes[2:-2]).max() < 1.0e-12

    def test_save_load_roundtrip(self, tmp_path):
        g = build_grid(160, 32, 3.2)
        tip = _tip(_wobble_sphere(g), 17)
        path = os.path.join(tmp_path, "tip.npz")
        tip.save(path)
        back = TipField.load(path)
        assert np.array_equal(back.v_nodes, tip.v_nodes)
        assert back.values.tobytes() == tip.values.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: tip_nodes(3),
        lambda: tip_nodes(16.5),
        lambda: TipField(np.ones((3, 8))),
    ], ids=["three-inverted", "fractional-count", "three-built"])
    def test_bad_nodes_are_a_parameter_error(self, make):
        """The tip stencils need 4 or more uniform nodes up from v = 0: a
        table takes grid.tip_nodes(n), which refuses a count below 4 or
        not an integer.  A stored table's refusals, theta included, are
        test_grid's node table refusals."""
        with pytest.raises(ParameterError, match="tip nodes"):
            make()

    def test_table_is_a_frozen_copy(self):
        """A write to the caller's array does not reach the table, so no
        later write puts a negative radius past the DomainError check, and
        the table refuses writes of its own."""
        a = np.ones((9, 8))
        tip = TipField(a)
        a[3, 2] = -1.0
        assert np.all(tip.values == 1.0)
        with pytest.raises(ValueError, match="read-only"):
            tip.values[3, 2] = -1.0

    def test_rim_must_be_contained(self):
        g = build_grid(96, 32, 3.0)
        with pytest.raises(DegeneracyError):
            TipField.from_profile(neck_field(g))  # rim escapes along phi=0

    def test_profile_must_reach_ceiling(self):
        g = build_grid(96, 32, 3.0)
        w = (0.09 - g.y[:, None] ** 2 / 50.0) * np.ones((1, 32))
        with pytest.raises(DegeneracyError):
            TipField.from_profile(_signed_field(g, w))

    def test_far_ceiling_lays_out_no_more_nodes_than_the_peak(self, monkeypatch):
        """A body of peak 0.3, below the ceiling 2 THETA, is refused as a
        DegeneracyError, with the default count taken at half its peak,
        15 nodes, not at THETA: the count follows the peak, so a small
        body on a fine grid lays out no more nodes than its own."""
        g = build_grid(96, 32, 3.0)
        w = (0.09 - g.y[:, None] ** 2 / 50.0) * np.ones((1, 32))
        counts = []
        monkeypatch.setattr(evolve, "tip_nodes", lambda n: counts.append(n) or tip_nodes(n))
        with pytest.raises(DegeneracyError):
            TipField.from_profile(_signed_field(g, w))
        assert counts == [15]

    def test_table_must_be_2d(self):
        with pytest.raises(ParameterError, match="2-d"):
            TipField(np.ones(9))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -0.1],
                             ids=["nan", "inf", "negative"])
    def test_tip_radius_finite_and_positive_required(self, entry):
        bad = np.ones((9, 8))
        bad[3, 2] = entry
        with pytest.raises(DomainError):
            TipField(bad)



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
        Wy, Wyy = g.radial_derivative(W)
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
        gauge = -0.5 * g.y[:, None] * g.radial_derivative(W)[0] + W
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
            J = _fd_jacobian(F, x0, (1.0e-6,) * len(x0), None)
            ev = np.linalg.eigvals(J)
            ev = ev[np.argsort(-ev.real)]
            assert np.abs(ev[:6] - [1.0, 0.5, 0.5, 0.0, 0.0, 0.0]).max() < 1.0e-7
            block[n_r] = np.abs(ev[6:10] + 0.5).max()
            if n_r == 32:
                ou = np.column_stack([fold(apply_ou(ScalarField(g, unfold(e))).values)
                                      for e in np.eye(len(x0))])
                assert np.abs(J - ou).max() < 1.0e-7
        assert abs(math.log2(block[32] / block[64]) - 2.0) < 0.1


# ---------------------------------------------------------------------------
# the graph stage as written before its arithmetic ran in place: one
# radial stencil call per order, out-of-place frame jet, right-hand side
# and stage sum, and rim_index by argmax.  The oracles that the in-place
# kernel must reproduce bit for bit.


# the outer row's one-sided four-point weights, exact on cubics
_EDGE = {1: np.array([-1.0 / 3.0, 1.5, -3.0, 11.0 / 6.0]),
         2: np.array([-1.0, 4.0, -5.0, 2.0])}


def stencil_by_order(values, h, mirror):
    """grid.radial_stencil as one call per order, each building its own
    mirror-extended array."""
    out = []
    for order in (1, 2):
        ext = np.concatenate((mirror[None], values))
        d = np.empty_like(values)
        if order == 1:
            d[:-1] = (ext[2:] - ext[:-2]) / (2.0 * h)
        else:
            d[:-1] = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / h**2
        d[-1] = (_EDGE[order] / h**order) @ values[-4:]
        out.append(d)
    return tuple(out)


def frame_jet_by_copies(g, F):
    """grid.frame_jet with numpy-scalar pole arithmetic and new arrays for
    F_2, F_12 and F_22 (the grids here have 16 angles or more, where the
    4-angle Nyquist weight of pole_jet does not arise)."""
    F1, F11 = stencil_by_order(F, g.dy, F[1, (np.arange(g.n_phi) + g.n_phi // 2) % g.n_phi])
    Fp, Fpp, Fyp = angular_derivs(F, F1)
    y = g.y[1:F.shape[0], None]
    F2, F12, F22 = np.empty_like(F1), np.empty_like(F1), np.empty_like(F1)
    F2[1:] = Fp[1:] / y
    F12[1:] = (Fyp[1:] - F2[1:]) / y
    F22[1:] = Fpp[1:] / y**2 + F1[1:] / y
    y1 = g.y[1]
    spec = np.fft.rfft(F[1])[:3] / g.n_phi
    c1c, c1s = 2.0 * spec[1].real, -2.0 * spec[1].imag
    c2c, c2s = 2.0 * spec[2].real, -2.0 * spec[2].imag
    tr = 4.0 * (spec[0].real - F[0, 0]) / y1**2
    d = 4.0 * c2c / y1**2
    pole = (c1c / y1, c1s / y1, 0.5 * (tr + d), 2.0 * c2s / y1**2, 0.5 * (tr - d))
    jet = (F1, F2, F11, F12, F22)
    for a, p in zip(jet, pole):
        a[0] = p
    return jet


def w_rhs_by_copies(W, grid, renormalized, mask):
    """evolve._w_rhs with every term a new array."""
    W1, W2, W11, W12, W22 = frame_jet_by_copies(grid, W)
    g2 = W1**2 + W2**2
    hess = W11 * W1**2 + 2.0 * W12 * W1 * W2 + W22 * W2**2
    den = 4.0 * W + g2
    rat = np.where(den > 1.0e-4, (hess + 2.0 * g2) / np.where(den > 1.0e-4, den, 1.0), 0.0)
    out = W11 + W22 - rat - 2.0
    if renormalized:
        out += -0.5 * grid.y[:W.shape[0], None] * W1 + W
    return np.where(mask, out, 0.0)


def rim_by_argmax(W):
    """grid.rim_index from the last positive row found by argmax."""
    pos = W > 0.0
    last = W.shape[0] - 1 - np.argmax(pos[::-1, :], axis=0)
    return np.where(pos.any(axis=0), last, -1) + 1


def rkl2_by_copies(Y, h, s, rhs, after_stage):
    """evolve._rkl2 with each stage sum one expression."""
    mu1, stages = evolve._rkl2_coefficients(s)
    k0 = h * rhs(Y)
    prev, cur = Y, after_stage(Y + mu1 * k0, 1)
    for j, (mu, nu, mu_t, gamma_t) in enumerate(stages, 2):
        k = rhs(cur)
        prev, cur = cur, after_stage(mu * cur + nu * prev + (1.0 - mu - nu) * Y
                                     + (mu_t * h) * k + gamma_t * k0, j)
    if not np.all(np.isfinite(cur)):
        raise StepSizeError(f"{s}-stage super-step not finite at dt={h:.3e}")
    return cur


def _kernel_window(body):
    """(W, grid, renormalized) of a graph step's window, the rows up to
    the outermost rim + 2: the sphere on 64x16, the reference ellipsoid
    on 96x32, that ellipsoid with two endgame columns whose rims sit at
    rows 1 and 2, and the renormalized benchmark oval on 128x32."""
    if body == "oval":
        state = _benchmark_oval(128, 32)
        g, W, renormalized = state.v.grid, signed_square(state.v), True
    elif body == "sphere":
        g = build_grid(64, 16, 3.0)
        W, renormalized = _sphere_w(g), False
    else:
        g = build_grid(96, 32, 10.0)
        spec = EllipsoidSpec(a=0.5, ell=2.0, radius=2.0, t_start=-5.0)
        W, renormalized = signed_square(ellipsoid_initial(g, spec)), False
        if body == "endgame":
            W[1:, 5] = -1.0
            W[2:, 6] = -1.0
            rebuild_halo(W, g)
            assert list(rim_index(W)[5:7]) == [1, 2]
    k = int(rim_index(W).max()) + 3
    return W[:k].copy(), g, renormalized


class TestKernelOracles:
    """The in-place graph stage against its oracles above, bit for bit."""

    @pytest.mark.parametrize("body", ["sphere", "ellipsoid", "endgame", "oval"])
    def test_stage_matches_the_oracles(self, body):
        W, g, renormalized = _kernel_window(body)
        before = W.copy()
        mask = W > 0.0
        mirror = W[1, (np.arange(g.n_phi) + g.n_phi // 2) % g.n_phi]
        for got, want in zip(g.radial_derivative(W), stencil_by_order(W, g.dy, mirror)):
            assert np.array_equal(got, want)
        for got, want in zip(frame_jet(g, W), frame_jet_by_copies(g, W)):
            assert np.array_equal(got, want)
        assert np.array_equal(evolve._w_rhs(W, g, renormalized, mask),
                              w_rhs_by_copies(W, g, renormalized, mask))
        assert np.array_equal(rim_index(W), rim_by_argmax(W))
        assert rim_index(W).dtype == rim_by_argmax(W).dtype
        assert np.array_equal(W, before)

    def test_rim_index_matches_the_oracle_on_ragged_tables(self):
        """Columns with no positive node, one at row 0 only, a positive
        node past a gap, and NaN, which is not positive."""
        W = -np.ones((6, 5))
        W[0, 1] = 1.0
        W[[1, 4], 2] = 1.0
        W[:, 3] = 2.0
        W[:3, 4] = [1.0, np.nan, 1.0]
        assert np.array_equal(rim_index(W), rim_by_argmax(W))
        assert list(rim_index(W)) == [0, 1, 5, 6, 3]

    @pytest.mark.parametrize("s", [2, 3, 5])
    def test_rkl2_matches_the_oracle(self, s):
        """The in-place stage sum, on a nonlinear rate whose stages are
        mapped in place as the graph's halo and filter map them."""
        def after_stage(Y, j):
            Y[0] = Y[0].mean() + 0.01 * j
            return Y

        Y = np.random.default_rng(s).uniform(1.0, 2.0, (7, 8))
        rhs = lambda X: np.sin(3.0 * X) - 0.5 * X  # noqa: E731
        assert np.array_equal(evolve._rkl2(Y, 0.03, s, rhs, after_stage),
                              rkl2_by_copies(Y, 0.03, s, rhs, after_stage))

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_rkl2_writes_only_into_its_own_arrays(self, s, shared):
        """Y, the first stage's rate k0 and every array rhs returns come
        back as they were handed over, also when rhs returns one array
        for every stage (as _graph_step returns its f0 for the start);
        after_stage, which writes in place, only ever gets _rkl2's own."""
        Y = np.random.default_rng(s).uniform(1.0, 2.0, (6, 8))
        start = Y.copy()
        rate = np.linspace(-0.3, 0.5, 8) * np.ones((6, 1))
        returned = []

        def rhs(X):
            out = rate if shared else np.cos(X)
            returned.append((out, out.copy()))
            return out

        def after_stage(X, j):
            assert X is not Y and all(X is not out for out, _ in returned)
            X *= 1.0 + 1.0e-3 * j
            return X

        evolve._rkl2(Y, 0.01, s, rhs, after_stage)
        assert np.array_equal(Y, start)
        assert len(returned) == s
        for out, copy in returned:
            assert np.array_equal(out, copy)

    def test_march_matches_the_oracle_kernel(self, monkeypatch):
        """10 coupled steps of the 64x16 benchmark oval (graph and tip)
        and find_extinction on the 48x16 reference ellipsoid, whose
        super-steps take up to s > 2 stages, give W, the tip table and
        the bracket bit for bit with every kernel swapped for its oracle.
        The halo's is halo_by_columns, the closed form one node at a
        time: halo_by_rows's recursion is equal to it to roundoff only,
        and moves this W by about 2e-14."""
        def march():
            st = _benchmark_oval(64, 16)
            for _ in range(10):
                st = step(st, cfl_dt(st.v.grid))
            res = find_extinction(*_small_ellipsoid())
            return st, (res.t_last_alive, res.t_first_dead, res.t_extinct, res.steps)

        fast, fast_res = march()
        monkeypatch.setattr(evolve, "_w_rhs", w_rhs_by_copies)
        monkeypatch.setattr(evolve, "_rkl2", rkl2_by_copies)
        monkeypatch.setattr(evolve, "radial_stencil", stencil_by_order)
        monkeypatch.setattr(evolve, "rim_index", rim_by_argmax)
        monkeypatch.setattr(grid_module, "rim_index", rim_by_argmax)
        monkeypatch.setattr(evolve, "rebuild_halo", halo_by_columns)
        monkeypatch.setattr(grid_module, "rebuild_halo", halo_by_columns)
        monkeypatch.setattr(evolve, "angular_lowpass", lowpass_by_rings)
        slow, slow_res = march()
        assert np.array_equal(fast.v.w_signed, slow.v.w_signed)
        assert np.array_equal(fast.tip.values, slow.tip.values)
        assert fast.time == slow.time and fast_res == slow_res


class TestTipRHS:
    def test_sphere_inverse_stationary(self):
        v_nodes = np.linspace(0.0, 0.4, 17)
        Y = np.sqrt(6.0 - v_nodes[:, None] ** 2) * np.ones((1, 48))
        assert np.abs(rhs_renormalized_Y(Y)).max() < 5.0e-4

    def test_positive_radius_enforced(self):
        Y = np.full((9, 8), 2.0)
        Y[4, 4] = -1.0
        with pytest.raises(DomainError):
            rhs_renormalized_Y(Y)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        n_nodes=st.integers(4, 40),
        n_phi=st.sampled_from([4, 8, 16, 48]),
        base=st.floats(0.3, 3.0),
        slope=st.floats(0.0, 2.0),
        wobble=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stencil_bitwise_equal_to_hand_written(
        self, n_nodes, n_phi, base, slope, wobble, seed
    ):
        """The tip takes its radial derivatives from grid.radial_stencil;
        on random positive tables the right-hand side is bit for bit the
        one of the hand-written tip stencil it replaced (_rhs_Y_loop)."""
        v_nodes = tip_nodes(n_nodes)
        rng = np.random.default_rng(seed)
        Y = (base - slope * v_nodes[:, None] ** 2) * np.ones((1, n_phi))
        Y = np.abs(Y) * (1.0 + wobble * rng.uniform(-1.0, 1.0, Y.shape)) + 0.01
        tip = TipField(Y)
        assert np.array_equal(rhs_renormalized_Y(Y), _rhs_Y_loop(tip))

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
            tip = TipField(np.sqrt((6.0 - v_nodes[:, None] ** 2) / shade[None, :]))
            dv = tip.dv
            Y = tip.values
            Yv = np.gradient(Y, dv, axis=0)
            Yp = diff_phi_fft(Y, order=1)
            wy = g.radial_derivative(w)[0]
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


def _from_profile_loop(field, n_nodes=17):
    g = field.grid
    v_nodes = np.linspace(0.0, 2.0 * THETA, n_nodes)
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
                f"{j} does not reach the tip-patch ceiling {2 * THETA:.4g}"
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
    """Wrap evolve.<name> with a call counter: by default the tip's
    right-hand side, the name perfbench's tracer wraps, or else the
    graph's _w_rhs or _filter_w.  first, if given, replaces the first
    call."""
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
    a step the rows v >= THETA follow the graph instead of their own
    right-hand side."""

    def test_time_convergence_second_order(self):
        """A Z2^2-symmetric wobbled table stepped alone over a fixed span
        at dtau = 0.9 CFL dv^2, dtau/2 and dtau/4, each against a run at
        dtau/512.  Measured contraction 4.10 and 4.06 per halving.

        Every step here is one two-stage super-step.  A super-step never
        exceeds 2.5 CFL dv^2, so halving a longer graph step halves only
        the count of equal super-steps; the three-stage polynomial is
        checked on the linear equation below."""
        v = tip_nodes(17)[:, None]
        phi = 2.0 * math.pi * np.arange(16) / 16
        Y0 = (np.sqrt((6.0 - v**2) / (1.0 + 0.3 * np.cos(2.0 * phi)))
              * (1.0 + 0.1 * np.cos(4.0 * phi)))
        tip = TipField(Y0)
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
        tip = TipField(np.ones((4, z.size)))
        dtau = ratio * evolve.CFL * tip.dv**2
        lam = m * z / dtau
        monkeypatch.setattr(evolve, "rhs_renormalized_Y", lambda Y: lam * Y)
        calls = _counting_rhs(monkeypatch)
        R = _step_alone(tip, dtau).values[0]
        assert len(calls) == m * s
        small = np.abs(R[:8] - np.exp(m * z[:8]))
        assert np.all(small <= 0.2 * m * np.abs(z[:8]) ** 3)
        assert np.all((R > 0.0) & (R <= 1.0 + 1.0e-12))

    def test_long_step_keeps_the_stationary_table(self):
        """One step of 40 CFL dv^2, sixteen three-stage super-steps, on
        Y = sqrt(6 - v^2) moves the rows below THETA by no more than the
        span times the table's right-hand-side bound.

        In a coupled step the rows at and above THETA follow the graph
        instead.  Stepped alone, the outer row on its one-sided stencil
        moves at a mean rate of 1.211e-3 over this step, with explicit
        midpoint substeps of CFL dv^2 as with the super-steps; the rows
        at and above THETA are held to that."""
        v_nodes = tip_nodes(17)
        tip = TipField(np.sqrt(6.0 - v_nodes[:, None] ** 2) * np.ones((1, 48)))
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
        whose step ratio (dy/dv)^2 stays within _TIP_STRETCH, with THETA
        on a node: two nodes more would pass it."""
        st = _benchmark_oval(n_r, n_phi)
        tip, dy = st.tip, st.v.grid.dy
        assert tip.values.shape == (n_nodes, n_phi)
        assert (dy / tip.dv) ** 2 <= evolve._TIP_STRETCH
        assert (dy / tip_nodes(n_nodes + 2)[1]) ** 2 > evolve._TIP_STRETCH
        assert tip.v_nodes[(n_nodes - 1) // 2] == THETA

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_tip_table_halves_the_step(self, monkeypatch):
        """A super-step that leaves a non-finite table is a StepSizeError,
        so the march retries at half the step.  (The stages after the
        injected inf compute with it, hence the ignored warnings.)"""
        st = _benchmark_oval(64, 16)
        dt = cfl_dt(st.v.grid)
        calls = _counting_rhs(monkeypatch, first=lambda Y: np.full_like(Y, np.inf))
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
        n_nodes=st.sampled_from([9, 17, 33]),
        bump=st.floats(0.0, 0.02),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bitwise_equal_to_per_angle_loops(
        self, x0, y0, a, eps, phase, signed, n_nodes, bump, seed
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
        tip = _tip(f, n_nodes)
        assert np.array_equal(tip.values, _from_profile_loop(f, n_nodes))

        rng = np.random.default_rng(seed)
        shaken = tip.values * (1.0 + bump * rng.uniform(-1.0, 1.0, tip.values.shape))
        on_node = rng.random(shaken.shape) < 0.2
        nearest = np.abs(g.y[:, None, None] - shaken[None]).argmin(axis=0)
        shaken = np.where(on_node, g.y[nearest], shaken)
        for table in (tip, TipField(shaken)):
            assert np.array_equal(rhs_renormalized_Y(table.values), _rhs_Y_loop(table))

    def test_outer_rows_move_on_a_line_to_the_graph(self, monkeypatch):
        """_substep_tip hands every stage the rows v >= THETA on the line
        from their start to the given end table, at one fraction of the
        way for all of them, and ends them on that table bit for bit; the
        rows below take their own right-hand side."""
        tip = _benchmark_oval(128, 32).tip
        outer = tip.v_nodes >= THETA
        assert 0 < outer.sum() < len(outer)
        end = 1.01 * tip.values[outer]
        stages = []
        inner = evolve.rhs_renormalized_Y

        def recorded(Y):
            stages.append(Y.copy())
            return inner(Y)

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
        out = evolve._rkl2(Y, 0.01, s, lambda _: c, lambda Y, j: Y)
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
    """The tip reads its rows v >= THETA from the graph, and the graph
    never reads the tip, so a sync is a projection."""

    def test_syncing_a_synced_state_leaves_the_tip(self):
        """The benchmark oval after one step, its new graph inverted again
        at the tip's rows v >= THETA: those rows come back bit for bit.
        A seam that also blends the tip into the graph moves them by
        1.4e-4."""
        st = _benchmark_oval(64, 16)
        st = step(st, cfl_dt(st.v.grid))
        outer = st.tip.v_nodes >= THETA
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
            rims.append(run(st, st.time + span, snapshot_every=1.0).states[-1].tip.tip_radius())
        diffs = [np.abs(a - b).max() for a, b in zip(rims, rims[1:])]
        return [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]

    def test_final_rim_converges_in_the_step(self, monkeypatch):
        """The 96x16 benchmark oval (7 tip nodes) run over a tau-span of
        0.1 at CFL 0.2, 0.1, 0.05 and 0.025: the final tip radius settles
        as the step shrinks.  Measured orders of its Cauchy differences
        3.58 and 1.04.  With the tip's rows v >= THETA held over the step
        and rebuilt from the graph after it, 17 nodes gave 0.92 and 1.24;
        a seam that also blends the tip into the graph gave 0.18 and 0.21,
        the rim then following the count of syncs."""
        orders = self._rim_orders(monkeypatch, 96, 16, 0.1, (0.2, 0.1, 0.05, 0.025))
        assert min(orders) >= 0.75

    def test_final_rim_converges_at_second_order(self, monkeypatch):
        """The 128x32 benchmark oval (9 tip nodes) run over a tau-span of
        0.2 at CFL 0.2, 0.1 and 0.05: measured order 2.99, and 2.70 on to
        CFL 0.025.  With the tip's rows v >= THETA held over the step and
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
        for rolled, d in zip(g.radial_derivative(np.roll(w, k, axis=1)),
                             g.radial_derivative(w)):
            assert np.array_equal(rolled, np.roll(d, k, axis=1))
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
        tip = _tip(f, 17)
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
        tip = _tip(f, 17)
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
        tip = _tip(f, 17)
        st = FlowState(time=0.0, v=f, tip=tip, renormalized=True)
        dt = cfl_dt(g)
        for _ in range(100):
            st = step(st, dt)
        again = _tip(st.v, 17)
        on = st.tip.v_nodes >= THETA - 1.0e-12
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
        """The tip equation is the renormalized one, so a state that pairs
        a tip with the unrescaled gauge is refused when it is built."""
        g = build_grid(160, 32, 3.2)
        f = sphere_field(g)
        tip = _tip(f, 17)
        with pytest.raises(ParameterError, match="renormalized"):
            FlowState(time=0.0, v=f, tip=tip, renormalized=False)

    def test_rejects_tip_of_other_angles(self):
        """A tip of 8 angles on a graph of 16 was stepped until numpy
        refused to broadcast them; the state refuses it when built."""
        f = sphere_field(build_grid(128, 16, 3.2))
        tip = TipField.from_profile(sphere_field(build_grid(128, 8, 3.2)))
        with pytest.raises(ShapeError, match="8 angles"):
            FlowState(time=0.0, v=f, tip=tip)

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

    def test_march_step_gives_up_after_thirteen_tries(self, monkeypatch):
        """A step rejected at every size is tried 13 times, halved after
        each.  Off the resolution floor the last rejection is raised
        again; a body whose peak is below 6 dy counts as extinct, and
        the march step returns None."""
        tried = []

        def reject(state, dtau):
            tried.append(dtau)
            raise StepSizeError(f"rejected {dtau!r}")

        monkeypatch.setattr(evolve, "step", reject)
        g = build_grid(64, 8, 3.2)
        alive = FlowState(time=0.0, v=sphere_field(g), renormalized=False)
        with pytest.raises(StepSizeError) as err:
            evolve._march_step(alive, 1.0e-3)
        assert tried == [1.0e-3 * 0.5**k for k in range(13)]
        assert str(err.value) == f"rejected {tried[-1]!r}"
        tried.clear()
        tiny = FlowState(time=0.0, v=_signed_field(g, _sphere_w(g, 1.0e-3)),
                         renormalized=False)
        assert float(tiny.v.values.max()) < 6.0 * g.dy
        assert evolve._march_step(tiny, 1.0e-3) is None
        assert len(tried) == 13

    def test_tau_needs_the_renormalized_gauge(self):
        state = FlowState(time=0.0, v=sphere_field(build_grid(16, 8, 3.0)),
                          renormalized=False)
        with pytest.raises(ParameterError, match="unrescaled"):
            state.tau

    def test_tip_theta_must_match_state(self):
        """Every tip table hands over at grid.THETA; a state that names
        another level is rejected rather than stepped."""
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

    def test_steps_match_the_row_by_row_halo(self, monkeypatch):
        """With the halo rebuilt one row at a time (test_grid's oracle),
        10 coupled steps of the 48x16 benchmark oval give W and the tip
        table to 1e-12, and find_extinction on the 48x16 reference
        ellipsoid the same bracket and step count, bit for bit."""
        def march():
            st = _benchmark_oval(48, 16)
            for _ in range(10):
                st = step(st, cfl_dt(st.v.grid))
            res = find_extinction(*_small_ellipsoid())
            return st, (res.t_last_alive, res.t_first_dead, res.steps)

        fast, fast_bracket = march()
        monkeypatch.setattr(evolve, "rebuild_halo", halo_by_rows)
        monkeypatch.setattr("ovalab.grid.rebuild_halo", halo_by_rows)
        rows, rows_bracket = march()
        assert np.abs(fast.v.w_signed - rows.v.w_signed).max() < 1.0e-12
        assert np.abs(fast.tip.values - rows.tip.values).max() < 1.0e-12
        assert fast_bracket == rows_bracket

    @staticmethod
    def _step_before_sharing(state, dtau):
        """step as written before it shared its graph body with the
        super-step: the two-stage _rkl2 with the halo rebuilt after each
        stage and one _filter_w at the end, then the tip.  The oracle that
        step must reproduce bit for bit."""
        g = state.v.grid
        W0 = signed_square(state.v)
        k = min(max(int(rim_index(W0).max()) + 3, 4), g.n_r + 1)
        rhs = functools.partial(evolve._w_rhs, grid=g, renormalized=state.renormalized,
                                mask=W0[:k] > 0.0)
        W = W0.copy()
        W[:k] = evolve._rkl2(W0[:k], dtau, 2, rhs, lambda Y, j: rebuild_halo(Y, g))
        evolve._filter_w(W[:k])
        tip = state.tip
        if tip is not None:
            outer = tip.v_nodes >= THETA - 1.0e-12
            tip = evolve._substep_tip(tip, dtau, evolve._invert_w(W, g, tip.v_nodes[outer]))
        return replace(state, time=state.time + dtau, v=ScalarField.from_square(g, W), tip=tip)

    @pytest.mark.parametrize("body", ["oval", "ellipsoid"])
    def test_step_matches_the_step_before_sharing(self, body):
        """10 coupled steps of the 48x16 benchmark oval, and 10 unrescaled
        steps of the 48x16 reference ellipsoid, give W, the tip table and
        the time of the oracle, bit for bit."""
        if body == "oval":
            state = _benchmark_oval(48, 16)
        else:
            f, t0 = _small_ellipsoid()
            state = FlowState(time=t0, v=f, renormalized=False)
        got = want = state
        for _ in range(10):
            got = step(got, cfl_dt(state.v.grid))
            want = self._step_before_sharing(want, cfl_dt(state.v.grid))
        assert got.time == want.time
        assert np.array_equal(got.v.w_signed, want.v.w_signed)
        assert (got.tip is None) == (body == "ellipsoid")
        assert got.tip is None or np.array_equal(got.tip.values, want.tip.values)

    def test_filter_runs_after_every_stage_but_the_first(self, monkeypatch):
        """One step filters once, at its end; one super-step of s stages
        filters s - 1 times, and reads the graph's rate s times, the
        first stage's rate being the one it paced itself by."""
        calls = _counting_rhs(monkeypatch, name="_filter_w")
        rates = _counting_rhs(monkeypatch, name="_w_rhs")
        f, t0 = _small_ellipsoid()
        state = FlowState(time=t0, v=f, renormalized=False)
        step(state, cfl_dt(f.grid))
        assert (len(calls), len(rates)) == (1, 2)
        del calls[:], rates[:]
        _, n, _ = next(evolve._march(state, math.inf, math.inf))
        s = evolve._rkl2_stages(n / 0.9)
        assert s >= 3
        assert (len(calls), len(rates)) == (s - 1, s)

    def test_rkl2_stages_match_the_loops_they_replace(self):
        """_rkl2_stages gives the stage counts of the two loops it
        replaced.  The super-step's, s = 3 raised while 0.9 (s^2 + s - 2)/4
        < n, is run incrementally over n, which finds the same s since it
        grows with n.  Both counts grow with n, so agreeing at the two ends
        of every run of one count of the old loop, they agree at every n in
        2..1e5.  The tip's, s = 2 raised while (s^2 + s - 2)/4 < ratio / m,
        is checked on a grid of the tip's ratios, and just past the
        stretches 1 and 2.5 where it changes s."""
        old, s = {}, 3
        for n in range(2, 100_001):
            while 0.9 * (s * s + s - 2) / 4.0 < n:
                s += 1
            old[n] = s
        ends = [n for n in old if old.get(n - 1) != old[n] or old.get(n + 1) != old[n]]
        assert len(ends) > 600
        assert [evolve._rkl2_stages(n / 0.9) for n in ends] == [old[n] for n in ends]

        def tip_loop(x):
            s = 2
            while (s * s + s - 2) / 4.0 < x:
                s += 1
            return s

        ratios = np.concatenate([np.linspace(0.0, 25.0, 2001), [1.0, 2.5, 5.0, 7.5]])
        stretches = [r / max(1, math.ceil(r / evolve._TIP_STRETCH)) for r in ratios]
        stretches += [np.nextafter(1.0, 2.0), np.nextafter(2.5, 3.0)]
        assert {tip_loop(x) for x in stretches} == {2, 3, 4}
        assert [evolve._rkl2_stages(x) for x in stretches] == [tip_loop(x) for x in stretches]


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

    @pytest.mark.parametrize("every", [1.0e-20, 1.0e-9])
    def test_cadence_below_the_step_records_every_state(self, every):
        """A cadence far below the step records every state.  The record
        cursor used to add the cadence until it passed the state: 1e-9
        took about 1e6 turns a step, and 1e-20, which time + cadence does
        not move, never returned.  A deadline fails the test in its place."""
        def expire(signum, frame):
            raise TimeoutError("run did not return within 1 s")

        st = FlowState(time=-5.0, v=bubble_sheet_field(build_grid(16, 8, 4.0)), tip=None)
        old = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            hist = run(st, -4.95, snapshot_every=every)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        want, t = [-5.0], -5.0
        while t < -4.95 - 1.0e-12:
            t += min(cfl_dt(st.v.grid), -4.95 - t)
            want.append(t)
        assert len(want) == 5
        assert list(hist.times) == want

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("march", ["run", "run_with_tip", "find_extinction"])
    def test_non_finite_field_is_refused_before_a_step(self, monkeypatch, march, bad):
        """A field holding NaN or +-inf at an interior node raises
        ParameterError before the graph's rate is read once.  The pace's
        int() used to raise ValueError or OverflowError, and a state whose
        pace stayed finite halved its step 13 times to a StepSizeError."""
        if march == "run_with_tip":
            state = _benchmark_oval(48, 16)
        else:
            g = build_grid(32, 8, 4.0)
            state = FlowState(time=-1.0, v=_signed_field(g, _sphere_w(g)), renormalized=False)
        W = signed_square(state.v)
        W[3, 2] = bad
        state = replace(state, v=_signed_field(state.v.grid, W))
        rates = _counting_rhs(monkeypatch, name="_w_rhs")
        with pytest.raises(ParameterError, match="not finite"):
            if march == "find_extinction":
                find_extinction(state.v, state.time)
            else:
                run(state, state.time + 0.1)
        assert rates == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, -1], ids=["pole", "boundary"])
    @pytest.mark.parametrize("march", ["run", "find_extinction"])
    def test_non_finite_pole_or_boundary_row_is_refused_as_not_finite(self, march, row, bad):
        """NaN or +-inf on the pole row or the boundary row of a 32x8 sphere
        is _march's ParameterError from run and find_extinction alike.
        find_extinction's own checks read those rows, and used to call a
        NaN pole an extinct body and an infinite boundary a body that is
        not compact."""
        g = build_grid(32, 8, 4.0)
        W = _sphere_w(g)
        W[row, :] = bad
        state = FlowState(time=-1.0, v=_signed_field(g, W), renormalized=False)
        with pytest.raises(ParameterError, match="the field is not finite"):
            if march == "find_extinction":
                find_extinction(state.v, state.time)
            else:
                run(state, state.time + 0.1)

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
        with pytest.raises(CoverageError, match="empty history"):
            FlowHistory().at(0.0)

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

    def test_append_refuses_a_time_that_does_not_increase(self):
        g = build_grid(16, 8, 3.0)
        hist = FlowHistory()
        hist.append(FlowState(time=1.0, v=sphere_field(g), renormalized=False))
        for t in (1.0, 0.5):
            with pytest.raises(ParameterError, match="not increasing"):
                hist.append(FlowState(time=t, v=sphere_field(g), renormalized=False))
        assert hist.times.tolist() == [1.0]

    def test_a_single_snapshot_is_stamped_with_the_time_asked(self):
        """A history of one snapshot answers a time within 1e-9 of its
        own as any snapshot hit is answered: that state, at the time
        asked."""
        g = build_grid(16, 8, 3.0)
        hist = FlowHistory()
        hist.append(FlowState(time=1.0, v=sphere_field(g), renormalized=False))
        got = hist.state_at(1.0 + 5.0e-10)
        assert got.time == 1.0 + 5.0e-10
        assert got.v is hist.states[0].v and not got.renormalized

    def test_state_at_blends_the_tip_tables_linearly(self):
        """Between two snapshots that both carry a tip, the tip table is
        the linear blend of the two; without a tip on both sides there
        is none."""
        g = build_grid(16, 16, 3.0)
        f = bubble_sheet_field(g)
        hist = FlowHistory()
        hist.append(FlowState(time=0.0, v=f, tip=TipField(np.ones((9, 16)))))
        hist.append(FlowState(time=1.0, v=f, tip=TipField(np.full((9, 16), 3.0))))
        hist.append(FlowState(time=2.0, v=f))
        assert np.array_equal(hist.state_at(0.25).tip.values, np.full((9, 16), 1.5))
        assert hist.state_at(1.5).tip is None

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
        tip = _tip(f, 17)
        st = FlowState(time=0.0, v=f, tip=tip, renormalized=True)
        hist = run(st, 0.01, snapshot_every=0.005)
        out = os.path.join(tmp_path, "hist")
        hist.save_dir(out)
        back = FlowHistory.load_dir(out)
        assert len(back.states) == len(hist.states)
        for a, b in zip(hist.states, back.states):
            assert a.time == b.time
            assert np.array_equal(a.v.values, b.v.values)
            assert np.array_equal(a.tip.values, b.tip.values)

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

    @pytest.mark.parametrize("case", ["no-L", "no-time", "not-a-list", "time-soon",
                                      "renormalized-no", "field-5", "tip-7",
                                      "field-list", "not-json", "time-true",
                                      "time-text", "L-true", "L-text", "L-huge",
                                      "field-absolute", "tip-parent-dir"])
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
        if case == "no-L":
            del index[1]["L"]
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
        elif case == "time-true":
            index[1]["time"] = True
        elif case == "time-text":
            index[1]["time"] = "0.25"
        elif case == "L-true":
            index[0]["L"] = True
        elif case == "L-text":
            index[0]["L"] = "3"
        elif case == "L-huge":
            index[0]["L"] = 10**400  # an int past float range
        elif case == "field-absolute":  # the snapshot's own file, by a path
            index[0]["field"] = os.path.join(out, index[0]["field"])
        elif case == "tip-parent-dir":
            index[1]["tip"] = "../a/snap_00000_tip.npz"
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

    def test_load_refuses_a_tip_in_the_unrescaled_gauge(self, tmp_path):
        """An index that pairs a tip table with renormalized: false loads
        into a state that FlowState refuses."""
        f = sphere_field(build_grid(64, 8, 3.2))
        hist = FlowHistory()
        hist.append(FlowState(time=0.0, v=f, tip=TipField.from_profile(f)))
        out = os.path.join(tmp_path, "hist")
        hist.save_dir(out)
        where = os.path.join(out, "history.json")
        with open(where) as fh:
            index = json.load(fh)
        index[0]["renormalized"] = False
        with open(where, "w") as fh:
            json.dump(index, fh)
        with pytest.raises(ParameterError, match="renormalized gauge") as info:
            FlowHistory.load_dir(out)
        assert f"{where}: snapshot snap_00000.npz: " in str(info.value)

    def test_load_keeps_a_shape_refusal_and_names_the_snapshot(self, tmp_path):
        """A tip table on other angles than its graph is refused as a
        ShapeError, with the index file and the field name in front."""
        g = build_grid(64, 8, 3.2)
        hist = FlowHistory()
        hist.append(FlowState(time=0.0, v=sphere_field(g)))
        out = os.path.join(tmp_path, "hist")
        hist.save_dir(out)
        TipField.from_profile(sphere_field(build_grid(64, 16, 3.2))).save(
            os.path.join(out, "wide_tip.npz"))
        where = os.path.join(out, "history.json")
        with open(where) as fh:
            index = json.load(fh)
        index[0]["tip"] = "wide_tip.npz"
        with open(where, "w") as fh:
            json.dump(index, fh)
        with pytest.raises(ShapeError, match="16 angles on a graph of 8") as info:
            FlowHistory.load_dir(out)
        assert str(info.value).startswith(f"{where}: snapshot snap_00000.npz: ")

    def test_loaded_fields_read_the_written_squared_profile(self, tmp_path):
        """A history read back by load_dir is bitwise the one written: its
        times and each snapshot's values, W (or none) and tip table, and so
        at, state_at and sample between two snapshots.  Histories: a
        stepped oval with tip, the unrescaled reference ellipsoid and a
        field of values alone."""
        e, tau0 = 0.3, -20.0
        rim = math.sqrt((2.0 * abs(tau0) + 4.0) / (1.0 - e))
        g = build_grid(64, 16, 1.15 * rim)
        y2 = g.y[:, None] ** 2 * (1.0 + e * np.cos(2.0 * g.phi[None, :]))
        f = _signed_field(g, 2.0 - (y2 - 4.0) / abs(tau0))
        oval = run(FlowState(time=tau0, v=f, tip=TipField.from_profile(f)),
                   tau0 + 0.01, snapshot_every=0.01)
        spec = EllipsoidSpec(a=0.5, ell=2.0, radius=2.0, t_start=-5.0)
        ell = run(FlowState(time=spec.t_start, renormalized=False,
                            v=ellipsoid_initial(build_grid(64, 16, 10.0), spec)),
                  spec.t_start + 0.01, snapshot_every=0.005)
        bare = FlowHistory()
        for t, c in ((0.0, 1.0), (0.5, 0.8)):
            bare.append(FlowState(time=t, v=ScalarField(g, c * f.values), renormalized=False))

        def bits(v, tip=None):
            return (v.grid, v.values.tobytes(),
                    None if v.w_signed is None else v.w_signed.tobytes(),
                    None if tip is None else tip.values.tobytes())

        for name, hist in (("oval", oval), ("ellipsoid", ell), ("bare", bare)):
            assert (hist.states[0].v.w_signed is None) == (name == "bare")
            out = os.path.join(tmp_path, name)
            hist.save_dir(out)
            back = FlowHistory.load_dir(out)
            assert back.times.tobytes() == hist.times.tobytes()
            assert [bits(st.v, st.tip) for st in back.states] == [
                bits(st.v, st.tip) for st in hist.states]
            mid = 0.5 * (hist.times[0] + hist.times[1])
            got, want = back.state_at(mid), hist.state_at(mid)
            assert bits(got.v, got.tip) == bits(want.v, want.tip)
            assert bits(back.at(mid)) == bits(hist.at(mid))
            r, phi = np.meshgrid(np.linspace(0.0, 0.95 * g.y_max, 41), g.phi[:5] + 0.1)
            assert back.sample(r, phi, mid).tobytes() == hist.sample(r, phi, mid).tobytes()


# ---------------------------------------------------------------------------
# extinction and gauge change


def _plain_march(field, t0):
    """(t_last_alive, t_first_dead, steps) of the plain march at cfl_dt
    from an unrescaled body at t0, which must die, not stop at the floor:
    a _march_step loop, with no super-step."""
    prev = cur = FlowState(time=t0, v=field, renormalized=False)
    dt = cfl_dt(field.grid)
    steps = 0
    while evolve._alive(cur.v):
        prev, cur = cur, evolve._march_step(cur, dt)
        assert cur is not None
        steps += 1
    return prev.time, cur.time, steps


def _super_stretch(state):
    """The state where _march's super-steps from state hand over to plain
    steps, and the cfl_dt steps they span."""
    steps = 0
    for nxt, n, _ in evolve._march(state, math.inf, math.inf):
        if n == 1:
            return state, steps
        state, steps = nxt, steps + n
    return state, steps


def _small_ellipsoid():
    """The reference ellipsoid (a=1/2, l=2, R=2, T=-5) on a 48x16 grid
    tight around it: 287 steps, the first 189 in super-steps."""
    spec = EllipsoidSpec(a=0.5, ell=2.0, radius=2.0, t_start=-5.0)
    g = build_grid(48, 16, 1.05 * max(spec.plane_semi_axes()))
    return ellipsoid_initial(g, spec), spec.t_start


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

    def test_super_steps_keep_the_sphere_exact_on_the_time_grid(self):
        """Under the halo after every stage and the filter after every
        stage but the first, the sphere W = 6 - |y|^2
        stays the exact state W0 - 6 (t - t0) through every super-step,
        and the state where super-stepping stops is at t0 plus cfl_dt
        added once per step it spans, as the plain march would reach it."""
        g = build_grid(64, 16, 4.0)
        w0 = _sphere_w(g)
        t0 = -1.0
        end, steps = _super_stretch(
            FlowState(time=t0, v=_signed_field(g, w0), renormalized=False))
        dt, t = cfl_dt(g), t0
        for _ in range(steps):
            t += dt
        assert steps > 1000 and end.time == t
        W = signed_square(end.v)
        assert W.max() < 120.0 * g.dy**2  # n < 2 from here
        body = W > 0.0
        assert np.abs(W - (w0 - 6.0 * (end.time - t0)))[body].max() < 1.0e-12

    def test_super_steps_keep_the_plain_march_bracket(self):
        """find_extinction's death bracket and step count are bitwise the
        plain march's from t_start."""
        f, t0 = _small_ellipsoid()
        _, handed_over = _super_stretch(FlowState(time=t0, v=f, renormalized=False))
        assert handed_over > 0
        res = find_extinction(f, t0, rel_tol=1.0)
        assert (res.t_last_alive, res.t_first_dead, res.steps) == _plain_march(f, t0)

    @pytest.mark.parametrize("rejected", [1, 3])
    def test_rejected_super_step_hands_over(self, monkeypatch, rejected):
        """A super-step that raises StepSizeError leaves the rest of the
        life to the plain march from its start state."""
        f, t0 = _small_ellipsoid()
        want = _plain_march(f, t0)
        inner, calls = evolve._graph_step, []

        def rejecting(state, dt, pace):
            if pace.__qualname__ == "_march.<locals>.pace":  # a super-step, not a step
                calls.append(state.time)
                if len(calls) == rejected:
                    raise StepSizeError("forced")
            return inner(state, dt, pace)

        monkeypatch.setattr(evolve, "_graph_step", rejecting)
        res = find_extinction(f, t0, rel_tol=1.0)
        assert len(calls) == rejected
        assert (res.t_last_alive, res.t_first_dead, res.steps) == want

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

        # the super-steps call no step: only the march after them does
        _, super_steps = _super_stretch(FlowState(time=t0, v=f, renormalized=False))
        monkeypatch.setattr(evolve, "step", counting_step)
        res = find_extinction(f, t0, rel_tol=1.0e-5)
        dt = cfl_dt(g)
        # the search takes its tolerance from the marched bracket, which
        # ends at most one step after t_first_dead
        tol = 1.0e-5 * (res.t_first_dead - t0)
        halvings = math.ceil(math.log2(dt / tol))
        assert super_steps > 0
        assert calls["all"] <= res.steps - super_steps + calls["rejected"] + halvings + 1
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


def _plain_run(state, t_end, every):
    """run's snapshots over the plain march, a _march_step loop at cfl_dt
    with the last step cut to end at t_end: the start, the first state at
    or past each record time, and the last state.  The body must not die."""
    dt = cfl_dt(state.v.grid)
    states, due = [state], state.time + every
    while state.time < t_end - 1.0e-12:
        state = evolve._march_step(state, min(dt, t_end - state.time))
        if state.time >= due - 1.0e-12:
            states.append(state)
            while due <= state.time + 1.0e-12:
                due += every
    if state.time > states[-1].time:
        states.append(state)
    return states


def _w_quadric(n_r, n_phi, tau0=-50.0, dc=10.0):
    """The renormalized W-quadric that matches the normal form, with its
    two directions at tau-shifts (0, dc), on a grid of y_max 16:
    W = 2 - (y1^2 - 2)/|tau0| - (y2^2 - 2)/(|tau0| + dc)."""
    g = build_grid(n_r, n_phi, 16.0)
    y1 = g.y[:, None] * np.cos(g.phi)[None, :]
    y2 = g.y[:, None] * np.sin(g.phi)[None, :]
    w = 2.0 - (y1**2 - 2.0) / abs(tau0) - (y2**2 - 2.0) / (abs(tau0) + dc)
    return FlowState(time=tau0, v=_signed_field(g, w), tip=None)


class TestSuperSteppedRun:
    """A graph-only run takes _march's super-steps and records the plain
    march's times; a run with a tip is the plain march."""

    @pytest.mark.parametrize("every", [0.05, math.inf])
    @pytest.mark.parametrize("body", ["ellipsoid", "w_quadric"])
    def test_snapshot_times_are_the_plain_march(self, body, every):
        """Unrescaled and renormalized, to a t_end off the time grid: the
        same snapshot times, bit for bit, from other states."""
        if body == "ellipsoid":
            f, t0 = _small_ellipsoid()
            state = FlowState(time=t0, v=f, renormalized=False)
        else:
            state = _w_quadric(96, 16)
        t_end = state.time + 0.4321
        hist = run(state, t_end, snapshot_every=every)
        want = _plain_run(state, t_end, every)
        assert len(want) == (2 if every == math.inf else 10)
        assert list(hist.times) == [s.time for s in want]
        assert (t_end - state.time) / cfl_dt(state.v.grid) % 1.0 > 0.1  # a cut last step
        assert not np.array_equal(hist.states[-1].v.w_signed, want[-1].v.w_signed)

    def test_sphere_stays_exact_at_every_snapshot(self, monkeypatch):
        """The sphere W = 6 - |y|^2 is W0 - 6 (t - t0) at every snapshot
        of a super-stepped run."""
        g = build_grid(64, 16, 4.0)
        w0, t0 = _sphere_w(g), -1.0
        rates = _counting_rhs(monkeypatch, name="_w_rhs")
        hist = run(FlowState(time=t0, v=_signed_field(g, w0), renormalized=False), -0.5,
                   snapshot_every=0.05)
        assert len(hist.states) == 11
        assert len(rates) < 0.5 / cfl_dt(g)  # under one rate per cfl_dt step
        for st in hist.states:
            W = signed_square(st.v)
            body = W > 0.0
            assert np.abs(W - (w0 - 6.0 * (st.time - t0)))[body].max() < 1.0e-12

    def test_run_with_a_tip_is_the_plain_march(self):
        """The coupled oval takes no super-step: its snapshots are those
        of a step loop, graph and tip bit for bit."""
        state = _benchmark_oval(48, 16)
        t_end = state.time + 0.1
        hist = run(state, t_end, snapshot_every=0.03)
        want = _plain_run(state, t_end, 0.03)
        assert len(want) == 5
        assert len(hist.states) == len(want)
        for got, ref in zip(hist.states, want):
            assert got.time == ref.time
            assert np.array_equal(got.v.w_signed, ref.v.w_signed)
            assert np.array_equal(got.tip.values, ref.tip.values)

    def test_super_steps_are_inside_the_spatial_error(self):
        """Over one unit of tau on the 96x16 W-quadric, xi of the
        super-stepped run is within a twentieth of the plain march's
        difference between 48x16 and 96x16."""
        def xi(st):
            return np.array(spectral_report(st.v, st.time).xi)

        fine = _w_quadric(96, 16)
        t_end = fine.time + 1.0
        hist = run(fine, t_end, snapshot_every=0.25)
        want = _plain_run(fine, t_end, 0.25)
        assert len(want) == 5
        err = max(np.abs(xi(a) - xi(b)).max() for a, b in zip(hist.states, want))
        spatial = np.abs(xi(want[-1]) - xi(_plain_run(_w_quadric(48, 16), t_end, math.inf)[-1]))
        assert 0.0 < err <= spatial.max() / 20.0

    def test_a_cut_step_is_plain_and_a_slow_pace_hands_over(self, monkeypatch):
        """The n that _march yields from the 48x16 reference ellipsoid, whose
        pace is 3 or 4, with a record time every 1.5 cfl_dt: two steps fit
        before the first, one before the second, and so on.  A record time
        one step ahead takes one plain step, which reads no pace, so a share
        whose pace is below 2 there hands nothing over and the march
        super-steps again after it; the same share where two steps fit
        makes every later step plain.  Rates per step: 3 for a two-step
        super-step, 2 for a plain step, 1 more where a pace is read and
        refused."""
        f, t0 = _small_ellipsoid()
        march = evolve._march(FlowState(time=t0, v=f, renormalized=False), math.inf,
                              1.5 * cfl_dt(f.grid))
        rates = _counting_rhs(monkeypatch, name="_w_rhs")

        def take(share):
            monkeypatch.setattr(evolve, "_SUPER_SHARE", share)
            del rates[:]
            return next(march)[1], len(rates)

        assert [take(0.02) for _ in range(3)] == [(2, 3), (1, 2), (2, 3)]
        assert take(1.0e-6) == (1, 2)  # cut to one step: the share is not read
        assert [take(0.02) for _ in range(2)] == [(2, 3), (1, 2)]
        assert take(1.0e-6) == (1, 3)  # two steps fit: the pace is below 2
        assert [take(0.02) for _ in range(4)] == [(1, 2)] * 4

    def test_graph_only_run_cuts_the_rhs_calls(self, monkeypatch):
        """A guard on the fast path: on the 48x16 reference ellipsoid a
        run reads the graph's rate at most 2/3 as often as the plain
        march, which reads it twice a step (0.61 measured).  The pace is
        3 to 4 steps here, which take 4 stages, so the ratio is above the
        1/2 of finer grids; a march without super-steps reads 1."""
        f, t0 = _small_ellipsoid()
        state = FlowState(time=t0, v=f, renormalized=False)
        rates = _counting_rhs(monkeypatch, name="_w_rhs")
        run(state, t0 + 1.0, snapshot_every=0.05)
        fast = len(rates)
        del rates[:]
        _plain_run(state, t0 + 1.0, 0.05)
        assert fast <= len(rates) * 2 / 3


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
        bowl = solve_bowl()
        tau0 = -6.0
        s = math.sqrt(abs(tau0))
        v_nodes = np.linspace(0.0, 0.4, 17)
        Y = 4.1 + bowl(s * v_nodes)[:, None] / s * np.ones((1, 8))
        tip = TipField(Y)
        st = FlowState(time=tau0, v=bubble_sheet_field(build_grid(16, 8, 2.0)),
                       tip=tip)
        rho, Z = zoomed_tip(st)
        assert Z[0, 0] == 0.0
        assert np.abs(Z[:, 0] - bowl(rho)).max() < 1.0e-13

    def test_renormalized_state_attaches_tip(self, ellipsoid_lifecycle):
        spec, g, f0, res = ellipsoid_lifecycle
        hist = run(FlowState(time=spec.t_start, v=f0, tip=None,
                             renormalized=False),
                   t_end=res.t_extinct - 0.05, snapshot_every=1.0)
        last = hist.states[-1]
        st = renormalized_state(last.v, last.time, res.t_extinct)
        assert st.renormalized and st.tip is not None
        assert st.tau == pytest.approx(-math.log(res.t_extinct - last.time))
        assert st.tip.tip_radius().min() > 0.0
        rho, Z = zoomed_tip(st)
        assert np.all(Z[0, :] == 0.0)
        assert Z.shape == st.tip.values.shape == (len(rho), g.n_phi)

"""Grid, quadrature and finite-difference checks.

The frozen constants below come from the closed-form radial moments
    int_0^inf y^(2k+1) exp(-y^2/4) dy = 2 * 4^k * k!
paired with exact angular integrals of 1, cos, cos2.  The first test
re-derives them with scipy's adaptive quadrature so the rest of the
file can rely on the frozen numbers.
"""

import math
import warnings

import numpy as np
import pytest

from ovalab.errors import ParameterError, ShapeError
from ovalab.grid import (
    ScalarField,
    _write_table,
    angular_derivs,
    angular_lowpass,
    build_grid,
    diff,
    diff_phi_fft,
    frame_jet,
    inner_product_H,
    load_field,
    radial_stencil,
    resample,
    save_field,
)
from ovalab.shrinkers import normal_form_field

M0, M1, M2, M3 = 2.0, 8.0, 64.0, 768.0          # radial moments k = 0..3
IP_CONST = 4.0 * math.pi                        # <1, 1>
IP_YCOS = 8.0 * math.pi                         # <y cos, y cos>
IP_Y2M4 = 64.0 * math.pi                        # <y^2-4, y^2-4>
IP_Y2COS2 = 64.0 * math.pi                      # <y^2 cos2, y^2 cos2>


def test_moment_oracle():
    from scipy.integrate import quad

    for k, frozen in enumerate([M0, M1, M2, M3]):
        val, err = quad(lambda y: y ** (2 * k + 1) * np.exp(-y * y / 4), 0, np.inf)
        assert err < 1e-6 * frozen
        assert abs(val - frozen) < 1e-8 * frozen
        assert frozen == 2.0 * 4.0**k * math.factorial(k)


def _eigenfunctions(g):
    y = g.y[:, None]
    p = g.phi[None, :]
    return {
        "one": np.ones(g.shape),
        "ycos": y * np.cos(p) * np.ones(g.shape),
        "ysin": y * np.sin(p) * np.ones(g.shape),
        "y2m4": (y * y - 4.0) * np.ones(g.shape),
        "y2cos2": y * y * np.cos(2 * p) * np.ones(g.shape),
        "y2sin2": y * y * np.sin(2 * p) * np.ones(g.shape),
    }


def test_total_mass_fine():
    g = build_grid(256, 64, 20.0)
    assert abs(g.weights.sum() - IP_CONST) / IP_CONST < 1e-6


def test_total_mass_coarse():
    g = build_grid(8, 4, 20.0)
    assert abs(g.weights.sum() - IP_CONST) / IP_CONST < 0.05


def test_gram_diagonals():
    g = build_grid(256, 64, 20.0)
    fs = _eigenfunctions(g)
    want = {
        "one": IP_CONST,
        "ycos": IP_YCOS,
        "ysin": IP_YCOS,
        "y2m4": IP_Y2M4,
        "y2cos2": IP_Y2COS2,
        "y2sin2": IP_Y2COS2,
    }
    for name, vals in fs.items():
        f = ScalarField(g, vals)
        got = inner_product_H(f, f)
        assert abs(got - want[name]) / want[name] < 2e-3, name


def test_eigenfunction_orthogonality():
    g = build_grid(256, 64, 20.0)
    fs = {k: ScalarField(g, v) for k, v in _eigenfunctions(g).items()}
    names = list(fs)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            val = inner_product_H(fs[names[a]], fs[names[b]])
            assert abs(val) < 1e-8, (names[a], names[b], val)


def test_mixed_width_pairing():
    # <y^2 cos 2phi, y^2 cos^2 phi - 2> = 32 pi, the anisotropy pairing
    g = build_grid(512, 64, 20.0)
    y = g.y[:, None]
    p = g.phi[None, :]
    a = ScalarField(g, y * y * np.cos(2 * p) * np.ones(g.shape))
    b = ScalarField(g, (y * y * np.cos(p) ** 2 - 2.0) * np.ones(g.shape))
    assert abs(inner_product_H(a, b) - 32 * math.pi) / (32 * math.pi) < 1e-3


@pytest.mark.parametrize("n_r, n_phi, y_max", [(192, 24, 18.0), (64, 16, 10.0)])
@pytest.mark.parametrize("which", ["random", "normal form"])
def test_stacked_pair_matches_the_pairing_of_each_array(n_r, n_phi, y_max, which):
    """PolarGrid.pair of a field with a stack of arrays, one product,
    gives each array's own pairing to 1e-13 of the Cauchy-Schwarz scale
    |F| |G_k|, for the six modes and three random arrays.  Pairing with
    one array stays the quadrature sum, a float."""
    g = build_grid(n_r, n_phi, y_max)
    rng = np.random.default_rng(17)
    F = (rng.normal(size=g.shape) if which == "random"
         else normal_form_field(g, -50.0).values)
    stack = np.concatenate([np.stack(list(_eigenfunctions(g).values())),
                            rng.normal(size=(3, *g.shape))])
    got = g.pair(F, stack)
    want = np.array([g.pair(F, G) for G in stack])
    scale = np.sqrt(g.pair(F, F) * np.array([g.pair(G, G) for G in stack]))
    assert got.shape == (len(stack),)
    assert np.all(np.abs(got - want) <= 1.0e-13 * scale)
    one = g.pair(F, stack[3])
    assert type(one) is float and one == float(np.sum(g.weights * F * stack[3]))


def _smooth_field(g):
    # smooth in Cartesian coordinates, so the pole reflection is honest
    y = g.y[:, None]
    p = g.phi[None, :]
    x1 = y * np.cos(p)
    x2 = y * np.sin(p)
    f = np.exp(-(x1 - 0.4) ** 2 / 6.0 - (x2 + 0.7) ** 2 / 5.0)
    return f * np.ones(g.shape)


def _fd_error(g, order):
    y = g.y[:, None]
    p = g.phi[None, :]
    f = np.exp(-(y * y) / 6.0) * (1.0 + 0.5 * y * y * np.cos(2 * p))
    if order == 1:
        exact = np.exp(-(y * y) / 6.0) * (
            -y / 3.0 * (1.0 + 0.5 * y * y * np.cos(2 * p))
            + y * np.cos(2 * p)
        )
    else:
        base = 1.0 + 0.5 * y * y * np.cos(2 * p)
        exact = np.exp(-(y * y) / 6.0) * (
            (y * y / 9.0 - 1.0 / 3.0) * base
            - 2.0 * y * y / 3.0 * np.cos(2 * p)
            + np.cos(2 * p)
        )
    got = diff(ScalarField(g, f * np.ones(g.shape)), order)
    return np.max(np.abs(got.values - exact * np.ones(g.shape)))


@pytest.mark.parametrize("order", [1, 2], ids=["y-1", "y-2"])
def test_fd_observed_order(order):
    e1 = _fd_error(build_grid(48, 24, 8.0), order)
    e2 = _fd_error(build_grid(96, 48, 8.0), order)
    observed = math.log2(e1 / e2)
    assert observed >= 1.9, (order, observed)


@pytest.mark.parametrize("order", [1, 2])
def test_outer_row_exact_on_cubics(order):
    """The outer row takes one-sided four-point stencils, exact on cubics
    for both orders.  A three-point first derivative there is off by
    dy^2 f'''/3, which is 0.125 on y^3 at 16 cells over 4."""
    g = build_grid(16, 8, 4.0)
    y = g.y[:, None] * np.ones(g.shape)
    f = ScalarField(g, 1.0 - 2.0 * y + 0.5 * y**2 + y**3)
    exact = -2.0 + y + 3.0 * y**2 if order == 1 else 1.0 + 6.0 * y
    got = diff(f, order).values
    assert np.abs(got[-1] - exact[-1]).max() <= 1.0e-12 * np.abs(exact[-1]).max()


@pytest.mark.parametrize("order", [0, 3, -1, 1.5])
def test_radial_derivative_rejects_other_orders(order):
    g = build_grid(16, 8, 4.0)
    with pytest.raises(ParameterError, match="order must be 1 or 2"):
        g.radial_derivative(np.ones(g.shape), order)


def test_radial_derivative_is_the_shared_stencil():
    """The graph's radial derivative is radial_stencil on the grid
    spacing, with the first ring reflected through the pole as the row
    at -dy."""
    g = build_grid(24, 8, 3.0)
    F = np.random.default_rng(3).standard_normal(g.shape)
    mirror = np.roll(F[1], -(g.n_phi // 2))
    for order in (1, 2):
        assert np.array_equal(g.radial_derivative(F, order),
                              radial_stencil(F, g.dy, mirror, order))


def _stretched_nodes(n_r, y_max):
    """Radial nodes from 0 to y_max, clustered towards the origin."""
    return y_max * np.linspace(0.0, 1.0, n_r + 1) ** 2


def _last_step_off(n_r, y_max):
    y = np.array(build_grid(n_r, 6, y_max).y)
    y[-1] += 1.0e-6
    return y


@pytest.mark.parametrize("nodes", [
    _stretched_nodes(12, 5.0),
    np.linspace(0.5, 5.0, 13),
    np.linspace(0.0, 5.0, 3),
    -np.linspace(0.0, 5.0, 13),
    _last_step_off(12, 5.0),
], ids=["stretched", "offset", "three", "decreasing", "last-step-off"])
def test_polar_grid_rejects_nonuniform_nodes(tmp_path, nodes):
    """A PolarGrid lays out its own nodes from (n_r, n_phi, y_max), so
    other nodes could reach one only from a stored table; load_field
    refuses a table whose header names no grid or whose node column is
    not that grid's."""
    path = tmp_path / "field.csv"
    _write_table(path, f"y_nodes={len(nodes) - 1} phi_nodes=6 y_max=5.0", nodes,
                 np.arange(6) * math.pi / 3.0, np.ones((len(nodes), 6)))
    with pytest.raises(ParameterError) as exc:
        load_field(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("y_max", [math.inf, math.nan, 0.0, -1.0, 1.0e-320])
def test_y_max_must_be_positive_and_finite(y_max):
    with pytest.raises(ParameterError, match="y_max"):
        build_grid(16, 8, y_max)


@pytest.mark.parametrize("n_r, n_phi", [(8.5, 8), (16, 8.0)])
def test_counts_must_be_integers(n_r, n_phi):
    with pytest.raises(ParameterError, match="integer"):
        build_grid(n_r, n_phi, 1.0)


def test_grid_is_its_counts_and_radius():
    """numpy integer counts build the same grid, equal and of equal hash
    by (n_r, n_phi, y_max)."""
    g = build_grid(16, 8, 1.0)
    h = build_grid(np.int64(16), np.int32(8), np.float64(1.0))
    assert g == h and hash(g) == hash(h) and np.array_equal(g.y, h.y)
    assert g != build_grid(16, 8, 1.5) and g != build_grid(18, 8, 1.0)


def test_grid_spacing_is_the_smallest_step():
    """dy is the smallest node step, which cfl_dt reads."""
    for g in (build_grid(96, 8, 10.0), build_grid(32, 8, 10.5)):
        assert g.dy == float(np.min(np.diff(g.y)))


def test_pole_reflection_exact_on_linear():
    # x1 = y cos(phi) is globally linear, its radial derivative at the
    # pole must come out as cos(phi) exactly
    g = build_grid(16, 8, 4.0)
    f = ScalarField(g, g.y[:, None] * np.cos(g.phi)[None, :] * np.ones(g.shape))
    d = diff(f, 1)
    assert np.allclose(d.values[0], np.cos(g.phi), atol=1e-13)
    d2 = diff(f, 2)
    assert np.allclose(d2.values[0], 0.0, atol=1e-13)
    # cos(pi - phi) = cos(phi + pi), so x1 cannot tell the antipode from
    # the mirror image phi -> pi - phi; x2 = y sin(phi) can
    x2 = g.y[:, None] * np.sin(g.phi)[None, :]
    assert np.allclose(g.radial_derivative(x2, 1)[0], np.sin(g.phi), atol=1e-13)


def test_frame_jet_invariants_exact_on_quadratic():
    """On a quadratic every stencil and the first-ring Fourier data are
    exact, so the frame-invariant combinations of frame_jet match the
    Cartesian closed forms on every row, the pole included."""
    g = build_grid(32, 16, 2.0)
    x1 = g.y[:, None] * np.cos(g.phi)[None, :]
    x2 = g.y[:, None] * np.sin(g.phi)[None, :]
    F = 1.0 + x1 - 2.0 * x2 + x1**2 + 3.0 * x1 * x2 - 2.0 * x2**2
    F1, F2, F11, F12, F22 = frame_jet(g, F)
    d1, d2 = 1.0 + 2.0 * x1 + 3.0 * x2, -2.0 + 3.0 * x1 - 4.0 * x2
    pairs = [
        (F11 + F22, np.full(g.shape, -2.0)),
        (F1**2 + F2**2, d1**2 + d2**2),
        (F11 * F1**2 + 2.0 * F12 * F1 * F2 + F22 * F2**2,
         2.0 * d1**2 + 6.0 * d1 * d2 - 4.0 * d2**2),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1.0e-10 * np.abs(want).max()


def test_smooth_pole_second_derivative():
    errs = []
    for n_r in (64, 128):
        g = build_grid(n_r, 32, 8.0)
        f = ScalarField(g, _smooth_field(g))
        d2 = diff(f, 2)
        # reference from a much finer radial grid at the same angles
        gref = build_grid(1024, 32, 8.0)
        ref = diff(ScalarField(gref, _smooth_field(gref)), 2)
        errs.append(np.max(np.abs(d2.values[0] - ref.values[0])))
    assert errs[1] < errs[0]


def test_csv_roundtrip(tmp_path):
    g = build_grid(12, 6, 5.0)
    rng = np.random.default_rng(7)
    f = ScalarField(g, rng.normal(size=g.shape))
    path = tmp_path / "field.csv"
    save_field(f, path)
    back = load_field(path)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.grid.y, g.y)
    assert back.grid.n_phi == g.n_phi
    first = path.read_text().splitlines()[0]
    assert first.startswith("# y_nodes=12 phi_nodes=6 y_max=5")


def test_saved_field_format(tmp_path):
    g = build_grid(8, 4, 2.0)
    path = tmp_path / "field.csv"
    save_field(ScalarField(g, np.arange(36.0).reshape(g.shape) / 4), path)
    assert path.read_text().splitlines(keepends=True)[:6] == [
        "# y_nodes=8 phi_nodes=4 y_max=2\n",
        "0, 0, 0, 0, 0\n",
        "0, 1, 0, 1.5707963267948966, 0.25\n",
        "0, 2, 0, 3.1415926535897931, 0.5\n",
        "0, 3, 0, 4.7123889803846897, 0.75\n",
        "1, 0, 0.25, 0, 1\n",
    ]


def test_header_only_table_is_a_shape_error(tmp_path):
    path = tmp_path / "field.csv"
    path.write_text("# y_nodes=8 phi_nodes=4 y_max=2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError):
            load_field(path)


def test_load_field_rejects_non_finite_values(tmp_path):
    g = build_grid(12, 6, 5.0)
    path = tmp_path / "field.csv"
    save_field(ScalarField(g, np.ones(g.shape)), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[20] = lines[20].rsplit(",", 1)[0] + ", nan\n"
    path.write_text("".join(lines))
    with pytest.raises(ParameterError, match="non-finite") as exc:
        load_field(path)
    assert str(path) in str(exc.value)


def test_load_field_checks_the_stored_nodes(tmp_path):
    """A given grid is reused when it is the header's; any other one
    gives way to the header's grid."""
    g = build_grid(12, 6, 5.0)
    path = tmp_path / "field.csv"
    save_field(ScalarField(g, np.ones(g.shape)), path)
    assert load_field(path, grid=g).grid is g
    other = build_grid(12, 6, 5.5)
    back = load_field(path, grid=other)
    assert back.grid is not other and back.grid == g
    assert np.array_equal(back.grid.y, g.y)


def test_load_field_rejects_stretched_nodes(tmp_path):
    """A table whose stored nodes are not uniform from the origin does
    not read back as a grid."""
    g = build_grid(12, 6, 5.0)
    path = tmp_path / "field.csv"
    save_field(ScalarField(g, np.ones(g.shape)), path)
    lines = path.read_text().splitlines(keepends=True)
    stretched = _stretched_nodes(12, 5.0)
    for k, line in enumerate(lines[1:], start=1):
        i, j, _, phi, value = line.split(", ")
        lines[k] = f"{i}, {j}, {stretched[int(i)]:.17g}, {phi}, {value}"
    path.write_text("".join(lines))
    with pytest.raises(ParameterError, match="radial nodes"):
        load_field(path)


@pytest.mark.parametrize("row,other", [(2, 3), (5, 9)], ids=["same-ring", "two-rings"])
def test_load_field_rejects_swapped_rows(tmp_path, row, other):
    """Every row must be its header's (k, j, node, phi) in row-major
    order; a table with two rows swapped would put values at the wrong
    nodes."""
    g = build_grid(8, 4, 2.0)
    path = tmp_path / "field.csv"
    save_field(ScalarField(g, np.arange(36.0).reshape(g.shape) / 4), path)
    lines = path.read_text().splitlines(keepends=True)
    lines[row + 1], lines[other + 1] = lines[other + 1], lines[row + 1]
    path.write_text("".join(lines))
    with pytest.raises(ParameterError, match="by 4 angles") as exc:
        load_field(path)
    assert str(path) in str(exc.value)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        build_grid(192, 3, 18.0)
    with pytest.raises(ParameterError):
        build_grid(192, 5, 18.0)
    with pytest.raises(ParameterError):
        build_grid(4, 48, 18.0)
    with pytest.raises(ParameterError):
        build_grid(192, 48, 0.0)
    f = ScalarField(build_grid(16, 8, 5.0), np.ones((17, 8)))
    with pytest.raises(ParameterError):
        diff(f, 3)


def test_grid_mismatch_is_shape_error():
    a = build_grid(16, 8, 5.0)
    b = build_grid(16, 8, 6.0)
    fa = ScalarField(a, np.ones(a.shape))
    fb = ScalarField(b, np.ones(b.shape))
    with pytest.raises(ShapeError):
        inner_product_H(fa, fb)
    with pytest.raises(ShapeError):
        ScalarField(a, np.ones((3, 3)))


def test_field_immutable():
    g = build_grid(16, 8, 5.0)
    f = ScalarField(g, np.zeros(g.shape))
    with pytest.raises((ValueError, AttributeError)):
        f.values[0, 0] = 1.0


def test_fft_angular_derivative_exact_on_modes():
    g = build_grid(16, 32, 5.0)
    f = np.cos(3 * g.phi)[None, :] * np.ones(g.shape)
    d = diff_phi_fft(f, order=1)
    assert np.allclose(d, -3 * np.sin(3 * g.phi)[None, :], atol=1e-12)
    d2 = diff_phi_fft(f, order=2)
    assert np.allclose(d2, -9 * np.cos(3 * g.phi)[None, :], atol=1e-12)


def test_angular_lowpass():
    g = build_grid(16, 32, 5.0)
    f = np.cos(2 * g.phi) + 0.5 * np.cos(9 * g.phi)
    f = f[None, :] * np.ones(g.shape)
    out = angular_lowpass(f, 4)
    assert np.allclose(out, np.cos(2 * g.phi)[None, :] * np.ones(g.shape), atol=1e-12)
    caps = np.full(g.n_r + 1, 16)
    caps[:4] = 2
    out2 = angular_lowpass(f, caps)
    assert np.allclose(out2[0], np.cos(2 * g.phi), atol=1e-12)
    assert np.allclose(out2[-1], f[-1], atol=1e-12)


RING_SIZES = (4, 6, 8, 16, 24, 32)


def _fft_oracle(values, symbol):
    """Ring operator with the given symbol on the rfft bins, by FFT."""
    n = values.shape[-1]
    return np.fft.irfft(np.fft.rfft(values, axis=-1) * symbol, n=n, axis=-1)


def _close_by_row(got, want, rtol=1.0e-13):
    scale = np.abs(want).max(axis=-1, keepdims=True)
    return bool(np.all(np.abs(got - want) <= rtol * scale))


@pytest.mark.parametrize("n", RING_SIZES)
def test_angular_derivatives_match_fft_oracle(n):
    """The differentiation matrices reproduce the rfft convention: the
    first derivative drops the Nyquist mode, the second keeps it with
    -(n/2)^2; angular_derivs makes the same products."""
    rng = np.random.default_rng(n)
    F = 3.0 + rng.standard_normal((20, n))
    Fr = rng.standard_normal((20, n))
    ik = 1j * np.arange(n // 2 + 1)
    for order in (1, 2):
        assert _close_by_row(diff_phi_fft(F, order), _fft_oracle(F, ik**order))
    Fp, Fpp, Frp = angular_derivs(F, Fr)
    assert np.array_equal(Fp, diff_phi_fft(F, 1))
    assert np.array_equal(Fpp, diff_phi_fft(F, 2))
    assert np.array_equal(Frp, diff_phi_fft(Fr, 1))
    nyquist = np.cos(0.5 * n * 2.0 * math.pi * np.arange(n) / n)
    assert np.abs(diff_phi_fft(nyquist, 1)).max() <= 1.0e-13 * n
    assert _close_by_row(diff_phi_fft(nyquist, 2), -(n / 2) ** 2 * nyquist)


@pytest.mark.parametrize("n", RING_SIZES)
def test_constant_rings_stay_exact(n):
    F = np.outer(np.linspace(-7.0, 11.0, 9), np.ones(n))
    for order in (1, 2):
        assert np.array_equal(diff_phi_fft(F, order), np.zeros_like(F))
    assert all(np.array_equal(d, np.zeros_like(F)) for d in angular_derivs(F, F))
    assert np.array_equal(angular_lowpass(F, np.arange(9) % (n // 2)), F)


@pytest.mark.parametrize("n", RING_SIZES)
def test_angular_lowpass_matches_fft_oracle(n):
    rng = np.random.default_rng(100 + n)
    caps = np.arange(n // 2 + 3)
    F = 2.0 + rng.standard_normal((len(caps), n))
    m = np.arange(n // 2 + 1)
    want = _fft_oracle(F, (m[None, :] <= caps[:, None]).astype(float))
    got = angular_lowpass(F, caps)
    assert _close_by_row(got, want)
    kept = caps >= n // 2
    assert np.array_equal(got[kept], F[kept])
    for cap in (0, n // 4, n // 2):
        assert _close_by_row(angular_lowpass(F, cap), _fft_oracle(F, (m <= cap) * 1.0))


@pytest.mark.parametrize("n", RING_SIZES)
def test_ring_operators_commute_with_rolls(n):
    rng = np.random.default_rng(200 + n)
    F = 1.0 + rng.standard_normal((n // 2 + 1, n))
    caps = np.arange(n // 2 + 1)
    ops = [lambda a: diff_phi_fft(a, 1), lambda a: diff_phi_fft(a, 2),
           lambda a: angular_lowpass(a, caps)]
    for k in range(1, n):
        for op in ops:
            after = np.roll(op(F), k, axis=1)
            assert _close_by_row(op(np.roll(F, k, axis=1)), after)


def test_ring_operators_reject_bad_orders_and_caps():
    f = np.ones((3, 8))
    for order in (0, 1.5, -1, 3):
        with pytest.raises(ParameterError):
            diff_phi_fft(f, order=order)
    with pytest.raises(ParameterError):
        angular_lowpass(f, -1)


# ---------------------------------------------------------------------------
# resampling between nodes


def _random_field(g, seed=3):
    return np.random.default_rng(seed).normal(size=g.shape)


@pytest.mark.parametrize("n_phi", [4, 6, 16, 32, 64, 96])
def test_resample_reads_nodes_exactly(n_phi):
    """At every node, the pole row included, resample returns the stored
    value bit for bit, although phi_j / dphi is not always j in floating
    point (it is not for j = 11 on 32 angles)."""
    g = build_grid(12, n_phi, 3.0)
    F = _random_field(g)
    assert np.array_equal(resample(F, g, g.y[:, None], g.phi[None, :]), F)


def test_resample_is_periodic_in_phi():
    g = build_grid(12, 8, 3.0)
    F = _random_field(g)
    rng = np.random.default_rng(5)
    r, phi = rng.uniform(0.0, 3.0, 200), rng.uniform(0.0, 2.0 * math.pi, 200)
    base = resample(F, g, r, phi)
    for shifted in (phi + 2.0 * math.pi, phi - 2.0 * math.pi, phi - 6.0 * math.pi):
        assert np.abs(resample(F, g, r, shifted) - base).max() < 1.0e-13
    # a negative angle one cell back from 0 is the last column
    assert np.array_equal(resample(F, g, g.y, -g.dphi), F[:, -1])


def test_resample_past_y_max_reads_the_boundary_ring():
    g = build_grid(12, 8, 3.0)
    F = _random_field(g)
    phi = np.linspace(-1.0, 7.0, 25)
    for r in (3.0 * (1.0 + 1.0e-9), 4.5, 1.0e6):
        assert np.array_equal(resample(F, g, r, phi), resample(F, g, 3.0, phi))
    assert np.array_equal(resample(F, g, 4.5, g.phi), F[-1])


def test_resample_is_exact_on_fields_affine_in_y():
    g = build_grid(12, 8, 3.0)
    rng = np.random.default_rng(9)
    c, d = rng.normal(size=(2, g.n_phi))
    r = rng.uniform(0.0, 3.0, (50, 1))
    got = resample(c + d * g.y[:, None], g, r, g.phi[None, :])
    assert np.abs(got - (c + d * r)).max() < 1.0e-14
    # between angles too, when the affine field is the same on every ring
    phi = rng.uniform(-4.0, 10.0, (1, 30))
    got = resample((c[0] + d[0] * g.y[:, None]) * np.ones(g.n_phi), g, r, phi)
    assert np.abs(got - (c[0] + d[0] * r)).max() < 1.0e-14


@pytest.mark.parametrize("n_phi", [8, 32])
def test_resample_matches_per_column_interp_at_node_angles(n_phi):
    """At node angles the read is np.interp down each column, the reader
    renormalize used before resample (kept here as the oracle)."""
    g = build_grid(24, n_phi, 5.0)
    F = _random_field(g)
    r = np.random.default_rng(11).uniform(0.0, 6.0, 80)
    oracle = np.stack([np.interp(r, g.y, F[:, j]) for j in range(g.n_phi)], axis=1)
    got = resample(F, g, r[:, None], g.phi[None, :])
    assert np.abs(got - oracle).max() < 1.0e-14

"""Grid, quadrature and finite-difference checks.

The frozen constants below come from the closed-form radial moments
    int_0^inf y^(2k+1) exp(-y^2/4) dy = 2 * 4^k * k!
paired with exact angular integrals of 1, cos, cos2.  The first test
re-derives them with scipy's adaptive quadrature so the rest of the
file can rely on the frozen numbers.
"""

import math
import os
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovalab.errors import ParameterError, ShapeError
from ovalab.evolve import TipField
from ovalab import grid as grid_module
from ovalab.grid import (
    THETA,
    ScalarField,
    _write_table,
    angular_derivs,
    angular_lowpass,
    build_grid,
    diff_phi_fft,
    frame_jet,
    inner_product_H,
    load_field,
    radial_stencil,
    rebuild_halo,
    resample,
    rim_index,
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
    got = g.radial_derivative(f * np.ones(g.shape))[order - 1]
    return np.max(np.abs(got - exact * np.ones(g.shape)))


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
    got = g.radial_derivative(f.values)[order - 1]
    assert np.abs(got[-1] - exact[-1]).max() <= 1.0e-12 * np.abs(exact[-1]).max()


def test_radial_derivative_is_the_shared_stencil():
    """The graph's radial derivatives, both orders from one call, are
    radial_stencil's on the grid spacing, with the first ring reflected
    through the pole as the row at -dy."""
    g = build_grid(24, 8, 3.0)
    F = np.random.default_rng(3).standard_normal(g.shape)
    mirror = np.roll(F[1], -(g.n_phi // 2))
    for got, want in zip(g.radial_derivative(F), radial_stencil(F, g.dy, mirror)):
        assert np.array_equal(got, want)


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
    d, d2 = g.radial_derivative(f.values)
    assert np.allclose(d[0], np.cos(g.phi), atol=1e-13)
    assert np.allclose(d2[0], 0.0, atol=1e-13)
    # cos(pi - phi) = cos(phi + pi), so x1 cannot tell the antipode from
    # the mirror image phi -> pi - phi; x2 = y sin(phi) can
    x2 = g.y[:, None] * np.sin(g.phi)[None, :]
    assert np.allclose(g.radial_derivative(x2)[0][0], np.sin(g.phi), atol=1e-13)


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


@pytest.mark.parametrize("n_phi", [4, 6, 8])
def test_pole_hessian_exact_on_quadratics(n_phi):
    """The pole row of frame_jet is exact on y1^2 and y2^2 at every even
    n_phi, 4 included, where m = 2 is the Nyquist bin and counts once;
    y1 y2 = y^2 sin(2 phi)/2 is exact from 6 angles on and reads F_12 = 0
    on 4, where sin 2phi vanishes at every node."""
    g = build_grid(16, n_phi, 2.0)
    x1 = g.y[:, None] * np.cos(g.phi)[None, :]
    x2 = g.y[:, None] * np.sin(g.phi)[None, :]
    cases = [(x1**2, (2.0, 0.0, 0.0)), (x2**2, (0.0, 0.0, 2.0)),
             (x1 * x2, (0.0, 1.0 if n_phi >= 6 else 0.0, 0.0))]
    for F, hessian in cases:
        F1, F2, F11, F12, F22 = frame_jet(g, F)
        pole = np.array([F1[0], F2[0], F11[0], F12[0], F22[0]])
        assert np.abs(pole - np.array([0.0, 0.0, *hessian])[:, None]).max() <= 1.0e-12


def test_smooth_pole_second_derivative():
    errs = []
    for n_r in (64, 128):
        g = build_grid(n_r, 32, 8.0)
        d2 = g.radial_derivative(_smooth_field(g))[1]
        # reference from a much finer radial grid at the same angles
        gref = build_grid(1024, 32, 8.0)
        ref = gref.radial_derivative(_smooth_field(gref))[1]
        errs.append(np.max(np.abs(d2[0] - ref[0])))
    assert errs[1] < errs[0]


def test_field_round_trips_every_bit(tmp_path):
    """save_field writes one archive at exactly the path it is given, and
    load_field reads back its grid, values and w_signed (or None) bit for
    bit: -0.0, the least subnormal, a huge value and 0.1 + 0.2 included.
    A tip table round-trips its positive cases the same way."""
    g = build_grid(12, 6, 5.0)
    values = np.random.default_rng(7).normal(size=g.shape)
    values[0, :4] = -0.0, 5.0e-324, 1.0e300, 0.1 + 0.2
    path = str(tmp_path / "field")
    for w in (None, values[::-1]):
        f = ScalarField(g, values, w_signed=w)
        save_field(f, path)
        assert os.listdir(tmp_path) == ["field"]
        back = load_field(path)
        assert back.grid == g
        assert back.values.tobytes() == f.values.tobytes()
        assert back.w_signed is None if w is None else back.w_signed.tobytes() == w.tobytes()
    radii = np.abs(values[:5])
    radii[0, :4] = 1.0, 5.0e-324, 1.0e300, 0.1 + 0.2
    tip = TipField(radii)
    tip.save(path)
    assert TipField.load(path).values.tobytes() == tip.values.tobytes()


def test_load_field_checks_the_stored_nodes(tmp_path):
    """The nodes are the stored grid entry's: a given grid is reused when
    it is that one; any other one gives way to the stored grid."""
    g = build_grid(12, 6, 5.0)
    path = tmp_path / "field.npz"
    save_field(ScalarField(g, np.ones(g.shape)), path)
    assert load_field(path, grid=g).grid is g
    other = build_grid(12, 6, 5.5)
    back = load_field(path, grid=other)
    assert back.grid is not other and back.grid == g
    assert np.array_equal(back.grid.y, g.y)


# a good table of each kind, as _write_table's arrays, and its reader
_TABLES = {
    "field": (load_field, {"grid": np.array([8.0, 4.0, 2.0]), "values": np.ones((9, 4))}),
    "tip": (TipField.load, {"theta": np.array(THETA), "values": np.ones((5, 4))}),
}


def _parent_csv(path, a):
    """The table in the CSV format of the earlier codec: a `#` header,
    then rows k, j, node, phi, value."""
    values = a["values"]
    head = ("y_nodes=8 phi_nodes=4 y_max=2" if "grid" in a
            else f"v_nodes={len(values)} phi_nodes=4 theta={THETA!r}")
    nodes = np.linspace(0.0, 2.0 if "grid" in a else 2.0 * THETA, len(values))
    rows = "".join(f"{k}, {j}, {nodes[k]!r}, {j * math.pi / 2!r}, {x!r}\n"
                   for (k, j), x in np.ndenumerate(values))
    path.write_text(f"# {head}\n{rows}")


def _bare_npy(path, a):
    with open(path, "wb") as fh:
        np.save(fh, a["values"])


def _truncated(path, a):
    _write_table(path, **a)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _edited(**changes):
    """A writer of the table with each change applied: a key set to an
    array, or to a function of the table's values."""
    def make(path, a):
        out = dict(a)
        for key, change in changes.items():
            out[key] = change(a["values"]) if callable(change) else change
        _write_table(path, **out)
    return make


def _nan_at(values):
    out = np.array(values)
    out[1, 2] = math.nan
    return out


_COMMON = [("parent-csv", _parent_csv), ("bare-npy", _bare_npy),
           ("pickle", lambda path, a: path.write_bytes(pickle.dumps(a))),
           ("truncated", _truncated),
           ("missing-key", lambda path, a: _write_table(path, values=a["values"])),
           ("extra-key", _edited(nodes=np.arange(4.0))),
           ("int-array", _edited(values=lambda v: v.astype(int))),
           ("nan", _edited(values=_nan_at)), ("off-shape", _edited(values=np.ravel))]
_REFUSALS = [
    *[(kind, case, make) for kind in _TABLES for case, make in _COMMON],
    ("field", "grid-two-numbers", _edited(grid=np.array([8.0, 4.0]))),
    ("field", "grid-fractional-n_r", _edited(grid=np.array([8.5, 4.0, 2.0]))),
    *[("tip", f"theta-{theta}", _edited(theta=np.array(theta)))
      for theta in (0.0, -0.2, math.inf, math.nan, 0.25)],
    ("tip", "three-rows", _edited(values=np.ones((3, 4)))),
]


@pytest.mark.parametrize("kind,case,make", _REFUSALS,
                         ids=[f"{kind}-{case}" for kind, case, _ in _REFUSALS])
def test_node_table_refusals(tmp_path, kind, case, make):
    """load_field and TipField.load refuse every file that is not a table
    of their own with a typed error naming the file: ShapeError for field
    values off their grid's shape, ParameterError for the rest.  A stored
    theta other than THETA puts a tip table's rows off the tip nodes."""
    load, good = _TABLES[kind]
    path = tmp_path / "table.npz"
    make(path, good)
    want = ShapeError if (kind, case) == ("field", "off-shape") else ParameterError
    with pytest.raises(want) as exc:
        load(path)
    assert type(exc.value) is want
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


def test_grid_mismatch_is_shape_error():
    a = build_grid(16, 8, 5.0)
    b = build_grid(16, 8, 6.0)
    fa = ScalarField(a, np.ones(a.shape))
    fb = ScalarField(b, np.ones(b.shape))
    with pytest.raises(ShapeError):
        inner_product_H(fa, fb)
    with pytest.raises(ShapeError):
        ScalarField(a, np.ones((3, 3)))
    with pytest.raises(ShapeError, match="w_signed"):
        ScalarField(a, np.ones(a.shape), w_signed=np.ones((3, 3)))


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


def lowpass_by_rings(values, m_max):
    """angular_lowpass one ring at a time: each ring its cap cuts less the
    product of its deviation from its first sample with the cap's
    high-pass matrix.  The bitwise oracle of the stacked product."""
    out = np.array(values, dtype=float)
    rings = out.reshape(-1, out.shape[-1])
    n = rings.shape[-1]
    for ring, cap in zip(rings, np.broadcast_to(m_max, rings.shape[:-1])):
        if cap < n // 2:
            ring -= (ring - ring[0]) @ grid_module._highpass_stack(n)[cap]
    return out


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("leading", [True, False], ids=["leading-run", "scattered"])
def test_angular_lowpass_matches_the_ring_loop(n, leading):
    """Bit for bit the ring loop, on a cap table whose cut rings are a
    leading run (taken as a slice, as evolve._filter_w's always are) and
    on one whose cut rings are not (taken by index)."""
    rng = np.random.default_rng(n + leading)
    caps = np.minimum(2 * np.arange(12), n) if leading else rng.permutation(
        np.minimum(2 * np.arange(12), n))
    F = 2.0 + rng.standard_normal((12, n))
    cut = grid_module._lowpass_plan(tuple(caps), F.shape)[0]
    assert isinstance(cut, slice) == leading
    assert np.array_equal(angular_lowpass(F, caps), lowpass_by_rings(F, caps))


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


@pytest.mark.parametrize("phi", [3.0e15, 1.0e16, -1.0e16, 1.0e17, -1.0e17, 1.0e300,
                                 -1.0e300, 2048.0 * math.pi, -1.0e4])
def test_resample_reads_a_far_angle_mod_two_pi(phi):
    """An angle of 1024 turns or more is read at its value mod 2 pi, with
    no warning: a constant field reads its constant (it read NaN from
    1e16 on), and a field that varies in angle reads what the reduced
    angle reads, bit for bit."""
    g = build_grid(16, 8, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resample(np.full(g.shape, 3.0), g, 1.0, phi) == 3.0
        F = _random_field(g)
        r = np.linspace(0.0, 2.0, 7)
        assert np.array_equal(resample(F, g, r, phi), resample(F, g, r, phi % (2.0 * math.pi)))


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


# ---------------------------------------------------------------------------
# halo continuation


def halo_by_rows(W, grid):
    """rebuild_halo as a three-term recursion down each column, one row
    at a time, with each new row clamped to be nonpositive before the
    next reads it: the oracle that the closed form must reproduce."""
    n = W.shape[0]
    i0 = rim_index(W)
    lo = int(i0.min())
    if lo >= n:
        return W
    hi = min(int(i0.max()) + 3, n)
    for i in range(max(lo, 1), hi):
        if i >= 3:
            ext = 3.0 * W[i - 1] - 3.0 * W[i - 2] + W[i - 3]
        elif i == 2:
            ext = 2.0 * W[i - 1] - W[i - 2]
        else:
            ext = W[0] - grid.y[i] ** 2
        np.copyto(W[i], np.minimum(ext, 0.0), where=i0 <= i)
    return W


def halo_by_columns(W, grid):
    """rebuild_halo one column and one node at a time: the sub-cell rows
    as halo_by_rows writes them, then from s = max(rim, 3) row s - 1 + m
    gets the closed form a2 + m (d1 + (m + 1)/2 (d1 - (a1 - a0))) of the
    column's rows s-3, s-2 and s-1, until a node it makes positive is set
    to 0 and the quadratic restarts from the next row.  The same
    arithmetic as the block, so the bitwise oracle of its masks, block
    writes and restart rounds, where halo_by_rows's recursion is equal to
    roundoff only."""
    i0 = rim_index(W)
    hi = min(int(i0.max()) + 3, W.shape[0])
    for col, rim in zip(W.T, i0.tolist()):
        for i in range(max(rim, 1), min(hi, 3)):
            col[i] = min(col[0] - grid.y[1] ** 2 if i == 1 else 2.0 * col[1] - col[0], 0.0)
        s = max(rim, 3)
        while s < hi:
            a0, a1, a2 = col[s - 3], col[s - 2], col[s - 1]
            d1 = a2 - a1
            for row in range(s, hi):
                m = row - (s - 1.0)
                ext = a2 + m * (d1 + (0.5 * (m + 1.0)) * (d1 - (a1 - a0)))
                if ext > 0.0:
                    col[row], s = 0.0, row + 1
                    break
                col[row] = ext
            else:
                break
    return W


HALO_GRID = build_grid(48, 16, 6.0)


def _ragged_table(seed, rows, n_phi, noise):
    """A table of rows x n_phi on HALO_GRID's first rows whose columns
    each have their own rim, row 0 up to rows: a concave quadratic in y
    plus uniform noise of the given amplitude inside, junk <= 0 outside."""
    rng = np.random.default_rng(seed)
    y = HALO_GRID.y[:rows, None]
    rims = rng.integers(0, rows + 1, n_phi)
    peak = rng.uniform(0.5, 3.0, n_phi)
    W = peak * (1.0 - (y * rng.uniform(0.2, 1.0, n_phi)) ** 2)
    W = np.abs(W + noise * rng.uniform(-1.0, 1.0, W.shape)) + 1.0e-3
    return np.where(np.arange(rows)[:, None] < rims, W, -rng.uniform(0.0, 5.0, W.shape))


def _check_against_rows(W):
    """rebuild_halo on W is halo_by_columns bit for bit, matches the row
    recursion to 1e-12 max|W| with the same nodes at 0, leaves every body
    row and every row past the outermost rim + 2 bitwise as it was, and
    returns the array it got."""
    want = halo_by_rows(W.copy(), HALO_GRID)
    got = W.copy()
    assert rebuild_halo(got, HALO_GRID) is got
    assert np.array_equal(got, halo_by_columns(W.copy(), HALO_GRID))
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1.0e-12 * scale
    assert np.array_equal(got == 0.0, want == 0.0)
    i0 = rim_index(W)
    rows = np.arange(W.shape[0])[:, None]
    kept = (rows < i0) | (rows >= i0.max() + 3)
    assert np.array_equal(got[kept], W[kept])
    return got


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(4, 49),
       n_phi=st.integers(1, 16), noise=st.sampled_from([0.0, 0.05, 1.0]))
def test_halo_block_matches_the_row_recursion(seed, rows, n_phi, noise):
    """On random ragged tables, smooth or noisy, with their rims anywhere
    from row 0 to none at all, the closed form is the recursion to
    roundoff and clamps the same nodes to 0."""
    _check_against_rows(_ragged_table(seed, rows, n_phi, noise))


def test_halo_restarts_after_each_clamp():
    """A column whose last body rows are 40, 10, 1 would be continued by
    a rising quadratic: the three halo rows it rebuilds each clamp, each
    in a restart from the one before, as in the recursion.  The noisy ragged tables clamp hundreds of nodes too."""
    W = -np.ones((12, 2))
    W[:6, 0] = [80.0, 60.0, 50.0, 40.0, 10.0, 1.0]
    W[:4, 1] = [4.0, 3.5, 2.5, 1.0]
    got = _check_against_rows(W)
    assert np.array_equal(got[6:9, 0], np.zeros(3))
    assert (got[4:7, 1] < 0.0).all()
    clamped = 0
    for seed in range(20):
        W = _ragged_table(seed, 40, 16, 1.0)
        clamped += int(np.sum((_check_against_rows(W) == 0.0) & (W != 0.0)))
    assert clamped > 100


def test_halo_continues_quadratic_columns_exactly():
    """A column that is a quadratic in y, falling past its rim, is
    continued as that quadratic to roundoff, whatever the halo held."""
    g = HALO_GRID
    y = g.y[:, None]
    rng = np.random.default_rng(3)
    a, b = rng.uniform(4.0, 9.0, g.n_phi), rng.uniform(0.5, 2.0, g.n_phi)
    c = rng.uniform(-0.5, 0.5, g.n_phi)
    exact = a - b * y**2 + c * y
    W = np.where(exact > 0.0, exact, -rng.uniform(0.0, 3.0, exact.shape))
    hi = int(rim_index(W).max()) + 3
    assert rim_index(W).min() >= 3 and hi < g.n_r
    got = rebuild_halo(W, g)
    assert np.abs(got[:hi] - exact[:hi]).max() <= 1.0e-12 * np.abs(exact[:hi]).max()


@pytest.mark.parametrize("rims", [(0, 0), (0, 1, 2, 5), (1, 2), (2, 7, 3)])
def test_halo_endgame_columns(rims):
    """Columns with their rim at rows 0-2 get row 1 as a round cap about
    the pole and row 2 on the line through rows 0 and 1, bitwise as the
    recursion writes them, then the quadratic from row 3 on."""
    rng = np.random.default_rng(len(rims))
    W = -rng.uniform(0.0, 2.0, (10, len(rims)))
    for j, rim in enumerate(rims):
        W[:rim, j] = 0.04 - HALO_GRID.y[:rim] ** 2 + rng.uniform(0.0, 1.0e-3, rim)
    got = _check_against_rows(W)
    assert np.array_equal(got[:3], halo_by_rows(W.copy(), HALO_GRID)[:3])


def test_halo_leaves_a_table_without_halo():
    W = np.ones((6, 4))
    assert np.array_equal(rebuild_halo(W, HALO_GRID), np.ones((6, 4)))

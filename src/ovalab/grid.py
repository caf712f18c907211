"""Polar grids, Gaussian quadrature and finite differences.

Everything downstream works on scalar fields sampled at polar nodes
(y_i, phi_j): y is the distance to the rotation locus in the symmetry
plane, phi the angle around it. The natural pairing for spectral work
carries the backward-heat weight exp(-y^2/4) together with the polar
area element y dy dphi, so the quadrature weights fold both in.

Radial weights are built from exact integrals of the piecewise linear
hat functions against the weighted measure (the weight has an erf-type
antiderivative), which keeps the total mass exact.  On top of that a
rank-1 correction is applied so that the discrete pairing of 1 with
y^2 - 4 vanishes to machine precision; those two functions are
orthogonal in the continuum and a lot of the mode bookkeeping assumes
the discrete version agrees.

Nodes are laid out here alone, uniform from 0: a PolarGrid from
(n_r, n_phi, y_max), a tip table of evolve by tip_nodes(n, theta).
radial_stencil is the one radial finite-difference stencil: centred
three-point differences with a caller's mirror row at -h, and one-sided
four-point ones at the outer row.  The graph mirrors through the pole,
f(-y, phi) = f(y, phi + pi); the tip patch mirrors evenly through its tip.

polar_jet gives a field's derivatives in (y, phi); frame_jet, the one
owner of the pole row, turns them into gradient and Hessian in an
orthonormal frame at every node, so no plane operator has a pole case.
resample, bilinear in (y, phi), is the one reader between the nodes;
the inverse reading, of where a monotone tip or W column crosses a
level, is evolve._interp_columns.

Angular operators act on rings, the last axis of an array, and are
products with real circulant matrices cached per ring size: the Fourier
spectral differentiation matrices (Trefethen, Spectral Methods in
MATLAB, ch. 3) and one high-pass projection per low-pass cap.  On rings
of a few dozen angles one such product costs a fraction of an
rfft/irfft pair, whose time there is call overhead.  The matrices are
applied to each ring's deviation from its first sample, so constant
rings stay exactly constant.  This module is the only one that calls
np.fft.

The module also owns what every layer shares: the cutoff scale THETA,
the Gaussian pairing PolarGrid.pair (the only reader of the weights),
which pairs a field with one array or with a stack of them in one
product, and the squared profile W = v^2, read with its outside
continuation by signed_square and written as a field by
ScalarField.from_square.
"""

import functools
import math
import re
from numbers import Integral

import numpy as np

from .errors import ParameterError, ShapeError, gate

_erf = np.vectorize(math.erf, otypes=[float])

# cutoff scale theta: the truncated deviation ramps in on [5/8, 7/8] theta,
# the collar band is v <= 2 theta and the tip patch covers v in [0, 2 theta]
THETA = 0.2


def _gaussian_antiderivatives(y):
    """Antiderivatives (from 0) of s*exp(-s^2/4) and s^2*exp(-s^2/4)."""
    e = np.exp(-0.25 * y * y)
    i0 = 2.0 * (1.0 - e)
    i1 = -2.0 * y * e + 2.0 * math.sqrt(math.pi) * _erf(0.5 * y)
    return i0, i1


def _hat_weights(nodes, j0, j1):
    """Quadrature weights of linear hat functions for a measure with
    cumulative antiderivatives j0 (mass) and j1 (first moment) at the nodes."""
    h = np.diff(nodes)
    d0 = np.diff(j0)
    d1 = np.diff(j1)
    w = np.zeros_like(nodes)
    w[:-1] += (nodes[1:] * d0 - d1) / h
    w[1:] += (d1 - nodes[:-1] * d0) / h
    return w


@functools.lru_cache(maxsize=None, typed=True)
def tip_nodes(n, theta):
    """The read-only nodes linspace(0, 2 theta, n) of a tip table.  A
    count that is not an integer of at least 4, or theta outside
    (0, inf), raises ParameterError."""
    if not (isinstance(n, Integral) and n >= 4):
        raise ParameterError(f"tip nodes need an integer count >= 4, got {n!r}")
    gate("theta of the tip nodes", theta, "(0, inf)", ParameterError)
    nodes = np.linspace(0.0, 2.0 * theta, n)
    nodes.setflags(write=False)
    return nodes


# one-sided four-point weights at the outer row, exact on cubics
_EDGE = {1: np.array([-1.0 / 3.0, 1.5, -3.0, 11.0 / 6.0]),
         2: np.array([-1.0, 4.0, -5.0, 2.0])}


def radial_stencil(values, h, mirror, order):
    """Radial derivative of the given order (1 or 2) of values, rows h
    apart down the first axis.

    Every row but the last takes the centred three-point difference,
    with mirror standing for the row at -h; the outer row takes the
    one-sided four-point stencil.  Both are second order, and the outer
    row is exact on cubics.
    """
    if order not in _EDGE:
        raise ParameterError("order must be 1 or 2")
    gate("h", h, "(0, inf)", ParameterError)
    ext = np.concatenate((mirror[None], values))
    out = np.empty_like(values)
    if order == 1:
        out[:-1] = (ext[2:] - ext[:-2]) / (2.0 * h)
    else:
        out[:-1] = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / h**2
    out[-1] = (_EDGE[order] / h**order) @ values[-4:]
    return out


class PolarGrid:
    """Immutable tensor grid: the n_r + 1 radial nodes
    y = y_max linspace(0, 1, n_r + 1), dy apart, times n_phi uniform
    periodic angles; grids are equal when (n_r, n_phi, y_max) are.
    Counts that are not integers, n_r < 8, an odd n_phi or one below 4
    and a y_max that is not positive and finite raise ParameterError.

    Carries the Gaussian-weighted quadrature weights of the spectral
    pairing, read by pair.  Radial derivatives take radial_stencil,
    whose pole row uses values reflected through the origin,
    f(-y, phi) = f(y, phi + pi), which is why n_phi must be even.
    """

    def __init__(self, n_r, n_phi, y_max):
        if not (isinstance(n_r, Integral) and n_r >= 8):
            raise ParameterError(f"n_r must be an integer >= 8, got {n_r!r}")
        if not (isinstance(n_phi, Integral) and n_phi >= 4 and n_phi % 2 == 0):
            raise ParameterError(f"n_phi must be an even integer >= 4, got {n_phi!r}")
        gate("y_max", y_max, "(0, inf)", ParameterError)
        nodes = y_max * np.linspace(0.0, 1.0, n_r + 1)
        self.dy = float(np.diff(nodes).min())
        if not self.dy**2 >= np.finfo(float).tiny:  # the stencils divide by it
            raise ParameterError(f"y_max={y_max:g} is too small for {n_r} radial cells")

        self.y = nodes
        self.y.setflags(write=False)
        self.n_r, self.n_phi, self.y_max = int(n_r), int(n_phi), float(y_max)
        self._key = (self.n_r, self.n_phi, self.y_max)
        self.dphi = 2.0 * math.pi / n_phi
        self.phi = np.arange(n_phi) * self.dphi
        self.phi.setflags(write=False)
        # column j of the reflected first ring holds f(y_1, phi_j + pi)
        self._antipode = (np.arange(n_phi) + n_phi // 2) % n_phi
        self._antipode.setflags(write=False)

        j0, j1 = _gaussian_antiderivatives(nodes)
        rw = _hat_weights(nodes, j0, j1)
        # rank-1 correction: make sum w*(y^2-4) vanish exactly
        t = nodes * nodes - 4.0
        for _ in range(2):
            rw = rw * (1.0 - (rw @ t) / (rw @ (t * t)) * t)
        self.weights = np.outer(rw, np.full(n_phi, self.dphi))
        self.weights.setflags(write=False)

    @property
    def shape(self):
        return (self.n_r + 1, self.n_phi)

    def pair(self, F, G):
        """Gaussian pairing sum(weights F G) of two arrays on the grid.

        F is an (n_r+1, n_phi) array.  A G of the same shape gives one
        float; a stack G of shape (m, n_r+1, n_phi) gives its m pairings
        as an array, from one product of the flattened stack with
        weights F."""
        if np.ndim(G) == 2:
            return float(np.sum(self.weights * F * G))
        return G.reshape(len(G), -1) @ (self.weights * F).ravel()

    def radial_derivative(self, values, order):
        """radial_stencil of the grid's first rows, four or more, from the
        pole out: a (rows, n_phi) array, the first ring reflected through
        the pole standing for the row at -dy."""
        return radial_stencil(values, self.dy, values[1, self._antipode], order)

    def __eq__(self, other):
        return isinstance(other, PolarGrid) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"PolarGrid(n_r={self.n_r}, n_phi={self.n_phi}, y_max={self.y_max:g})"


class ScalarField:
    """Values on a PolarGrid. Immutable after construction.

    Fields describing compact bodies clamp to 0 outside; analytic
    constructors additionally stash the smooth signed continuation of
    the squared profile in `w_signed`, which lets derivative-based
    diagnostics stay exact across the free boundary.
    """

    __slots__ = ("grid", "values", "w_signed")

    def __init__(self, grid, values, w_signed=None, copy=True):
        arr = np.array(values, dtype=float, copy=copy)
        if arr.shape != grid.shape:
            raise ShapeError(
                f"field shape {arr.shape} does not match grid {grid.shape}"
            )
        arr.setflags(write=False)
        if w_signed is not None:
            w_signed = np.array(w_signed, dtype=float, copy=copy)
            if w_signed.shape != grid.shape:
                raise ShapeError("w_signed shape does not match grid")
            w_signed.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "w_signed", w_signed)

    def __setattr__(self, name, value):
        raise AttributeError("ScalarField is immutable")

    @classmethod
    def from_square(cls, grid, W):
        """Profile field v = sqrt(max(W, 0)) of a signed square W, which it
        keeps as w_signed and freezes: W must be a fresh array."""
        return cls(grid, np.sqrt(np.maximum(W, 0.0)), w_signed=W, copy=False)

    def with_values(self, values, w_signed=None):
        return ScalarField(self.grid, values, w_signed=w_signed)


def _check_points(r, phi):
    """The check on polar query points that resample and a closed-form
    history's sample share: a NaN r or a phi that is not finite raises
    ParameterError."""
    if np.isnan(r).any() or not np.isfinite(phi).all():
        raise ParameterError("a polar point needs every r a number and every phi finite")


def resample(F, grid, r, phi):
    """A (n_r+1, n_phi) array F on grid read at the polar points (r, phi),
    which broadcast together: bilinear in (y, phi), periodic in phi, r
    clamped to [0, y_max].  Fractions are measured between a cell's own
    nodes, so a point on a node reads that node's value exactly.  Points
    are checked by _check_points."""
    _check_points(r, phi)
    r = np.clip(r, 0.0, grid.y_max)
    i = np.minimum((r / grid.dy).astype(int), grid.n_r - 1)  # uniform nodes: no search
    ty = (r - grid.y[i]) / (grid.y[i + 1] - grid.y[i])
    j = np.floor(phi / grid.dphi)  # grid.phi holds j * dphi
    tphi = (phi - j * grid.dphi) / ((j + 1.0) * grid.dphi - j * grid.dphi)
    n, flat, row, col = grid.n_phi, np.ravel(F), i * grid.n_phi, j.astype(int)
    k0, k1 = row + col % n, row + (col + 1) % n  # flat indices of the cell's inner nodes
    sy, sphi = 1.0 - ty, 1.0 - tphi
    return (flat[k0] * sy * sphi + flat[k0 + n] * ty * sphi
            + flat[k1] * sy * tphi + flat[k1 + n] * ty * tphi)


def rim_index(W):
    """Per-column first row past the last strictly positive node."""
    pos = W > 0.0
    n = W.shape[0]
    last = n - 1 - np.argmax(pos[::-1, :], axis=0)
    last = np.where(pos.any(axis=0), last, -1)
    return last + 1


def rebuild_halo(W, grid):
    """Overwrite nodes outside the body with the interior continuation.

    Three-term recursion along each column extends the last interior
    values exactly for parabolic profiles.  Rows are rebuilt out to two
    past the outermost rim, which is as far as any stencil or ring
    transform containing interior nodes can reach.  Rows beyond are not
    touched: evolve.step hands this only the rows up to the outermost
    rim + 2, and carries the rest over unchanged.
    """
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
            # sub-cell endgame: continue as a round cap
            ext = W[0] - grid.y[i] ** 2
        # the continuation of a convex body is nonpositive outside the
        # rim; clamping keeps ragged endgame columns from seeding fake
        # interior nodes
        np.copyto(W[i], np.minimum(ext, 0.0), where=i0 <= i)
    return W


def signed_square(field):
    """Writable signed squared profile W of a field: its stored
    w_signed, or else the clamped values squared with the outside
    continuation rebuilt, so a field read back from disk gives the same
    W as the one written.  ScalarField.from_square writes W back."""
    if field.w_signed is not None:
        return np.array(field.w_signed)
    return rebuild_halo(field.values**2, field.grid)


# the constructor's public name
build_grid = PolarGrid


def inner_product_H(f, g):
    """Gaussian-weighted pairing of two fields on the same grid."""
    if f.grid != g.grid:
        raise ShapeError("fields live on different grids")
    return f.grid.pair(f.values, g.values)


def norm_H(f):
    return math.sqrt(max(inner_product_H(f, f), 0.0))


def diff(f, order=1):
    """Radial derivative of a field by radial_stencil: centred 3-point
    and second order, one-sided 4-point at the outer edge, and through
    the reflection f(-y, phi) = f(y, phi+pi) at the pole.  Angular
    derivatives are spectral (see diff_phi_fft).
    """
    return ScalarField(f.grid, f.grid.radial_derivative(f.values, order), copy=False)


def _circulant(symbol, n):
    """Real (n, n) matrix R with F @ R = irfft(symbol * rfft(F)) on rings
    of n samples, symbol given on the rfft bins m = 0..n/2.  Row i of R
    is the response to a unit impulse at sample i, so R is exactly
    circulant."""
    c = np.fft.irfft(symbol, n=n)
    k = np.arange(n)
    R = c[(k[None, :] - k[:, None]) % n]
    R.setflags(write=False)
    return R


@functools.cache
def _diff_matrix(n, order):
    """Spectral differentiation matrix of the given order on n angles.
    irfft drops the imaginary Nyquist bin, so the first derivative
    loses the m = n/2 mode and the second keeps it with -(n/2)^2."""
    return _circulant((1j * np.arange(n // 2 + 1)) ** order, n)


@functools.cache
def _highpass_stack(n):
    """Projections onto the angular modes m > cap on n angles, one
    matrix per cap = 0..n/2-1 (larger caps cut nothing)."""
    m = np.arange(n // 2 + 1)
    stack = np.stack([_circulant((m > cap).astype(float), n) for cap in range(n // 2)])
    stack.setflags(write=False)
    return stack


def _ring_deviation(values):
    """Each ring minus its first sample.  The ring operators annihilate
    constants, and applying them to the deviation keeps that exact: a
    constant ring gets exactly zero, not a row-sum roundoff."""
    return values - values[..., :1]


def diff_phi_fft(values, order=1):
    """Spectral (Fourier) angular derivative of a (..., n_phi) array of
    ring samples, one product with the cached differentiation matrix;
    order is 1 or 2."""
    if order not in (1, 2):
        raise ParameterError("order must be 1 or 2")
    return _ring_deviation(values) @ _diff_matrix(values.shape[-1], order)


def angular_derivs(F, Fr):
    """Spectral F_phi, F_phiphi and Fr_phi of two (..., n_phi) arrays, the
    same products diff_phi_fft makes."""
    n = F.shape[-1]
    d1 = _diff_matrix(n, 1)
    dF = _ring_deviation(F)
    return dF @ d1, dF @ _diff_matrix(n, 2), _ring_deviation(Fr) @ d1


def polar_jet(grid, F):
    """Polar first and second derivatives (F_y, F_yy, F_phi, F_phiphi,
    F_yphi) of a (rows, n_phi) array, radial by radial_derivative and
    angular spectrally; also returns the angular spectrum of the first
    ring, F[1, :], which is what pole_jet reads."""
    Fy = grid.radial_derivative(F, 1)
    Fyy = grid.radial_derivative(F, 2)
    Fp, Fpp, Fyp = angular_derivs(F, Fy)
    return (Fy, Fyy, Fp, Fpp, Fyp), np.fft.rfft(F[1])


def pole_jet(F0, ring_spec, grid):
    """Cartesian gradient and Hessian of a field at the origin.

    F0 is the pole value and ring_spec the rfft of the first ring; the
    Fourier coefficients m = 0, 1, 2 of the ring give gradient and
    Hessian to O(dy^2).  Returns (F_1, F_2, F_11, F_12, F_22).
    """
    y1 = grid.y[1]
    spec = ring_spec[:3] / grid.n_phi
    c0 = spec[0].real
    c1c, c1s = 2.0 * spec[1].real, -2.0 * spec[1].imag
    c2c, c2s = 2.0 * spec[2].real, -2.0 * spec[2].imag
    tr = 4.0 * (c0 - F0) / y1**2
    d = 4.0 * c2c / y1**2
    return (c1c / y1, c1s / y1, 0.5 * (tr + d), 2.0 * c2s / y1**2,
            0.5 * (tr - d))


def frame_jet(grid, F):
    """Gradient and Hessian (F_1, F_2, F_11, F_12, F_22) of a
    (rows, n_phi) array in an orthonormal frame at every node: on rows
    y > 0 the polar one, F_2 = F_phi/y, F_12 = (F_yphi - F_2)/y and
    F_22 = F_phiphi/y^2 + F_y/y; on the pole row the Cartesian jet of
    pole_jet.  A frame-invariant combination (F_11 + F_22, |DF|^2,
    Hess(DF, DF)) is thus one expression over all rows.  F holds the
    grid's first rows from the pole out, four or more; the last takes
    the one-sided stencil of radial_stencil."""
    (F1, F11, Fp, Fpp, Fyp), ring_spec = polar_jet(grid, F)
    y = grid.y[1:F.shape[0], None]
    F2, F12, F22 = np.empty_like(F1), np.empty_like(F1), np.empty_like(F1)
    F2[1:] = Fp[1:] / y
    F12[1:] = (Fyp[1:] - F2[1:]) / y
    F22[1:] = Fpp[1:] / y**2 + F1[1:] / y
    jet = (F1, F2, F11, F12, F22)
    for a, pole in zip(jet, pole_jet(F[0, 0], ring_spec, grid)):
        a[0] = pole
    return jet


def sqrt_jet(W1, W2, W11, W12, W22, v):
    """First and second derivatives of v from those of W = v^2 in two
    coordinates: v_a = W_a / 2v and v_ab = W_ab / 2v - W_a W_b / 4v^3.
    Returns (v_1, v_2, v_11, v_12, v_22)."""
    h, c = 2.0 * v, 4.0 * v**3
    return (W1 / h, W2 / h, W11 / h - W1**2 / c, W12 / h - W1 * W2 / c,
            W22 / h - W2**2 / c)


@functools.cache
def _lowpass_plan(m_max, shape):
    """The set-up of angular_lowpass on an array of the given shape: the
    rings m_max cuts and the high-pass matrices of their caps, gathered
    from _highpass_stack.  Cached per (m_max, shape), so a caller that
    filters the same rings every step gathers them once."""
    n = shape[-1]
    caps = np.broadcast_to(m_max, shape[:-1]).ravel()
    if np.any(caps < 0):
        raise ParameterError("m_max must be nonnegative")
    cut = np.flatnonzero(caps < n // 2)
    high = _highpass_stack(n)[caps[cut].astype(int)]
    cut.setflags(write=False)
    high.setflags(write=False)
    return cut, high


def angular_lowpass(values, m_max):
    """Drop angular Fourier content above m_max from a (..., n_phi) array.

    m_max is a nonnegative integer, or a 1-d sequence of caps, one per
    ring.  Each ring it cuts subtracts the product of its deviation from
    its first sample with the cached high-pass matrix of its cap; rings
    with m_max >= n_phi/2 come back unchanged.  The result is a new array.
    """
    cut, high = _lowpass_plan(m_max if isinstance(m_max, Integral) else tuple(m_max),
                              values.shape)
    out = np.array(values, dtype=float)
    rings = out.reshape(-1, values.shape[-1])
    rings[cut] -= np.matmul(_ring_deviation(rings[cut])[:, None, :], high)[:, 0]
    return out


def _write_table(path, header, nodes, phi, values):
    """Write a node table as CSV: the comment line `# header`, then one
    row `k, j, nodes[k], phi[j], values[k, j]` per entry in row-major
    order."""
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for k, node in enumerate(nodes):
            for j, pj in enumerate(phi):
                fh.write(f"{k}, {j}, {node:.17g}, {pj:.17g}, {values[k, j]:.17g}\n")


def _read_table(path, what, header):
    """Read a _write_table file of `what` nodes into (info, values).

    np.loadtxt parses the rows; header(meta) parses the key=value pairs of
    the `#` lines into (nodes, info), nodes being the column the table must
    hold.  A table of other than len(nodes) * phi_nodes rows raises
    ShapeError.  A non-numeric value or ragged row, a bad header entry, a
    row without five fields, a non-finite value or a row whose (k, j,
    node, phi) is not the header's, row-major with node and phi to 1e-9
    of their step, raises ParameterError naming the file.
    """
    with open(path) as fh:
        text = "\n" + fh.read()
    skip = r"\n\s*(?:#(.*))?(?=\n|$)"  # a blank or `#` line, from the newline before it
    meta = dict(re.findall(r"([^\s=]*)=(\S*)", " ".join(re.findall(skip, text))))
    rows = re.sub(skip, "", text)
    try:
        # a header-only table is the ShapeError below, not numpy's no-data warning
        data = (np.loadtxt(rows.splitlines(), delimiter=",", comments=None, ndmin=2)
                if rows.strip() else np.empty((0, 5)))
    except ValueError as err:
        raise ParameterError(f"{path}: malformed {what} table row ({err})") from None
    try:
        (nodes, info), n_phi = header(meta), int(meta["phi_nodes"])
    except (KeyError, ValueError) as err:  # ParameterError is a ValueError
        raise ParameterError(f"{path}: bad {what} table header ({err})") from None
    n = len(nodes)
    if data.shape[0] != n * n_phi:
        raise ShapeError(f"{path}: expected {n * n_phi} rows, got {data.shape[0]}")
    if data.shape[1:] != (5,):
        raise ParameterError(f"{path}: {what} table rows need 5 fields")
    if not np.all(np.isfinite(data)):
        raise ParameterError(f"{path}: {what} table holds a non-finite value")
    data = data.reshape(n, n_phi, -1)
    k, j = np.indices((n, n_phi))
    want = np.stack((k, j, nodes[k], 2.0 * math.pi * j / n_phi), axis=-1)
    tol = 1.0e-9 * np.array([0.0, 0.0, nodes[1], 2.0 * math.pi / n_phi])
    if not np.all(np.abs(data[..., :4] - want) <= tol):
        raise ParameterError(f"{path}: rows are not the header's {n} uniform {what} "
                             f"nodes up to {nodes[-1]:.17g} by {n_phi} angles")
    return info, np.ascontiguousarray(data[:, :, 4])


def save_field(f, path):
    """Write a field as CSV: a comment header with the grid metadata, then
    one row `i, j, y_i, phi_j, value` per node in row-major order."""
    g = f.grid
    _write_table(path, f"y_nodes={g.n_r} phi_nodes={g.n_phi} y_max={g.y_max:.17g}",
                 g.y, g.phi, f.values)


def load_field(path, grid=None):
    """Read a field written by save_field onto the PolarGrid of its header
    (y_nodes, phi_nodes, y_max): the given grid when it is that one, a new
    grid otherwise.  Stored nodes that are not its raise ParameterError."""
    def header(meta):
        key = (int(meta["y_nodes"]), int(meta["phi_nodes"]), float(meta["y_max"]))
        stored = grid if grid is not None and grid._key == key else PolarGrid(*key)
        return stored.y, stored

    stored, values = _read_table(path, "radial", header)
    return ScalarField(stored, values)

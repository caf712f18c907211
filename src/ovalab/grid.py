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
(n_r, n_phi, y_max), a tip table of evolve by tip_nodes(n) on [0, 2 THETA].
radial_stencil is the one radial finite-difference stencil: centred
three-point differences with a caller's mirror row at -h, and one-sided
four-point ones at the outer row.  One pass over one mirror-extended
array gives both the first and the second derivative.  The graph mirrors
through the pole, f(-y, phi) = f(y, phi + pi); the tip patch mirrors
evenly through its tip.

polar_jet gives a field's derivatives in (y, phi), both radial orders
from that one pass; frame_jet, the one owner of the pole row, turns them
into gradient and Hessian in an orthonormal frame at every node, so no
plane operator has a pole case.
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

Node tables, a field's (save_field) or a tip table's, are one codec:
an uncompressed npz archive of float64 arrays, which round-trips every
bit.  No node is stored, since PolarGrid and tip_nodes lay the nodes out
from the counts; _read_table reads an archive without pickles and
refuses one that is not such a table, naming the file.
"""

import functools
import math
import zipfile
from numbers import Integral

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, gate

_erf = np.vectorize(math.erf, otypes=[float])

# the one cutoff scale theta, not an option of any layer: the truncated
# deviation ramps in on [5/8, 7/8] theta, the collar band is v <= 2 theta,
# and the tip patch covers v in [0, 2 theta] and hands over at theta
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
def tip_nodes(n):
    """The read-only nodes linspace(0, 2 THETA, n) of a tip table.  A
    count that is not an integer of at least 4 raises ParameterError."""
    if not (isinstance(n, Integral) and n >= 4):
        raise ParameterError(f"tip nodes need an integer count >= 4, got {n!r}")
    nodes = np.linspace(0.0, 2.0 * THETA, n)
    nodes.setflags(write=False)
    return nodes


@functools.lru_cache(maxsize=16)
def _edge_weights(h):
    """The outer row's one-sided four-point weights of both orders at
    spacing h, exact on cubics: one pair per spacing in use."""
    return (np.array([-1.0 / 3.0, 1.5, -3.0, 11.0 / 6.0]) / h,
            np.array([-1.0, 4.0, -5.0, 2.0]) / h**2)


def radial_stencil(values, h, mirror):
    """First and second radial derivatives of values, rows h apart down
    the first axis, both from one mirror-extended array.

    Every row but the last takes the centred three-point differences,
    with mirror standing for the row at -h; the outer row takes the
    one-sided four-point stencils.  Both are second order, and the outer
    row is exact on cubics.
    """
    gate("h", h, "(0, inf)", ParameterError)
    ext = np.concatenate((mirror[None], values))
    first, second = np.empty_like(values), np.empty_like(values)
    np.divide(ext[2:] - ext[:-2], 2.0 * h, out=first[:-1])
    # (ext[2:] - 2 ext[1:-1] + ext[:-2]) / h^2, left to right in place
    d2 = np.multiply(ext[1:-1], 2.0, out=second[:-1])
    np.subtract(ext[2:], d2, out=d2)
    d2 += ext[:-2]
    d2 /= h**2
    w1, w2 = _edge_weights(h)
    first[-1] = w1 @ values[-4:]
    second[-1] = w2 @ values[-4:]
    return first, second


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

    @functools.cached_property
    def _frame_divisors(self):
        """frame_jet's divisors y and y^2 on rows 1..n_r as read-only
        (n_r, n_phi) tables, built on first use and kept on the grid: a
        division by a full-shape table takes about half the time of one
        broadcast down a (rows, 1) column, with the same quotients."""
        y = np.repeat(self.y[1:, None], self.n_phi, axis=1)
        y2 = y**2
        y.setflags(write=False)
        y2.setflags(write=False)
        return y, y2

    def pair(self, F, G):
        """Gaussian pairing sum(weights F G) of two arrays on the grid.

        F is an (n_r+1, n_phi) array.  A G of the same shape gives one
        float; a stack G of shape (m, n_r+1, n_phi) gives its m pairings
        as an array, from one product of the flattened stack with
        weights F."""
        if np.ndim(G) == 2:
            return float(np.sum(self.weights * F * G))
        return G.reshape(len(G), -1) @ (self.weights * F).ravel()

    def radial_derivative(self, values):
        """radial_stencil of the grid's first rows, four or more, from the
        pole out: a (rows, n_phi) array's F_y and F_yy, the first ring
        reflected through the pole standing for the row at -dy."""
        return radial_stencil(values, self.dy, values[1, self._antipode])

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


# |phi| from which resample reads an angle at its value mod 2 pi: 1024 turns
_FAR_PHI = 2048.0 * math.pi


def resample(F, grid, r, phi):
    """A (n_r+1, n_phi) array F on grid read at the polar points (r, phi),
    which broadcast together: bilinear in (y, phi), periodic in phi, r
    clamped to [0, y_max].  Fractions are measured between a cell's own
    nodes, so a point on a node reads that node's value exactly.  Points
    are checked by _check_points.  An angle of 1024 turns or more is read
    at its value mod 2 pi: far out, the cell edges j dphi and (j + 1) dphi
    round together, and j overflows an integer."""
    _check_points(r, phi)
    if np.abs(phi).max() >= _FAR_PHI:
        phi = np.where(np.abs(phi) < _FAR_PHI, phi, np.mod(phi, 2.0 * math.pi))
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


@functools.cache
def _arange(n):
    """The read-only np.arange(n): row numbers and column indices."""
    out = np.arange(n)
    out.setflags(write=False)
    return out


def rim_index(W):
    """Per-column first row past the last strictly positive node: the
    largest row number 1..n of a positive node, 0 for none."""
    return ((W > 0.0) * _arange(W.shape[0] + 1)[1:, None]).max(axis=0)


# the rows s-3, s-2 and s-1 that a column's quadratic from row s is anchored on
_ANCHORS = np.array([[3], [2], [1]])


def rebuild_halo(W, grid):
    """Overwrite nodes outside the body with the interior continuation.

    A column with its rim at row i0 is continued from row s = max(i0, 3)
    by the quadratic through its rows s-3, s-2 and s-1 (a0, a1, a2): row
    s-1+m becomes a2 + m d1 + m(m+1)/2 d2, with d1 = a2 - a1 and
    d2 = d1 - (a1 - a0).  That is the three-term recursion
    3 W[i-1] - 3 W[i-2] + W[i-3] in closed form, exact for parabolic
    profiles, and all columns are written as one block.

    The continuation of a convex body is nonpositive outside the rim, so
    a node it would make positive is set to 0 instead, which keeps ragged
    endgame columns from seeding fake interior nodes, and the column's
    quadratic restarts from the next row on the rows just written; this
    repeats until no rebuilt node is positive.  The restart is kept
    because the clamped node feeds the rows after it: continuing past it
    with the unclamped quadratic moves the benchmark oval's final W by
    6.3e-4.  A sub-cell endgame column, rim at row 0 to 2, first gets
    row 1 as a round cap about the pole and row 2 on the line through
    rows 0 and 1, each clamped in the same way.

    Rows are rebuilt out to two past the outermost rim, which is as far
    as any stencil or ring transform containing interior nodes can
    reach.  Rows beyond are not touched: evolve._graph_step, the one
    body of step and of _march's super-steps, hands this only the rows up
    to the outermost rim + 2 and carries the rest over unchanged.
    """
    i0 = rim_index(W)
    lo = int(i0.min())
    hi = min(int(i0.max()) + 3, W.shape[0])
    for i in range(max(lo, 1), min(hi, 3)):
        # sub-cell endgame: a round cap on row 1, a line on row 2
        ext = W[0] - grid.y[1] ** 2 if i == 1 else 2.0 * W[1] - W[0]
        np.putmask(W[i], i0 <= i, np.minimum(ext, 0.0))
    top = max(lo, 3)
    if top >= hi:
        return W
    block = W[top:hi]
    # float row numbers: m = row - (s - 1) is exact, so the same bits as
    # integer ones, without a cast in every product of the closed form
    rows = np.arange(top, hi, dtype=float)[:, None]
    cols = _arange(W.shape[1])
    s = np.maximum(i0, 3)
    while True:
        a0, a1, a2 = W[s - _ANCHORS, cols]
        d1 = a2 - a1
        m = rows - (s - 1.0)
        ext = a2 + m * (d1 + (0.5 * (m + 1.0)) * (d1 - (a1 - a0)))
        live = m >= 1.0  # row >= s
        np.putmask(block, live, ext)
        pos = live & (ext > 0.0)
        if not pos.any():
            return W
        hit = pos.any(axis=0)
        first = np.argmax(pos, axis=0)[hit]
        block[first, cols[hit]] = 0.0
        # restart past the clamped node; finished columns move past hi
        s = np.full_like(s, hi)
        s[hit] = top + first + 1


def signed_square(field):
    """Writable signed squared profile W of a field: its stored
    w_signed, or else the clamped values squared with the outside
    continuation rebuilt.  A field read back from disk keeps the W that
    was written.  ScalarField.from_square writes W back."""
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


def diff_phi_fft(values, order):
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
    F_yphi) of a (rows, n_phi) array, both radial ones from one pass of
    radial_derivative and the angular ones spectrally; also returns the
    angular spectrum of the first ring, F[1, :], which is what pole_jet
    reads.  Every array returned is new."""
    Fy, Fyy = grid.radial_derivative(F)
    Fp, Fpp, Fyp = angular_derivs(F, Fy)
    return (Fy, Fyy, Fp, Fpp, Fyp), np.fft.rfft(F[1])


def pole_jet(F0, ring_spec, grid):
    """Cartesian gradient and Hessian of a field at the origin.

    F0 is the pole value and ring_spec the rfft of the first ring; the
    Fourier coefficients m = 0, 1, 2 of the ring give gradient and
    Hessian to O(dy^2).  Returns (F_1, F_2, F_11, F_12, F_22) as floats.
    On 4 angles m = 2 is the Nyquist bin, whose coefficient counts once:
    cos 2phi is resolved there but sin 2phi, zero at every node, is not,
    so F_12 reads 0.
    """
    y1 = float(grid.y[1])
    c0, c1, c2 = (ring_spec[:3] / grid.n_phi).tolist()
    w2 = 1.0 if grid.n_phi == 4 else 2.0
    c1c, c1s = 2.0 * c1.real, -2.0 * c1.imag
    c2c, c2s = w2 * c2.real, -w2 * c2.imag
    tr = 4.0 * (c0.real - float(F0)) / y1**2
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
    the one-sided stencil of radial_stencil.  The arrays are polar_jet's
    own, so a caller may write into them."""
    (F1, F11, F2, F22, F12), ring_spec = polar_jet(grid, F)
    y, y2 = (t[:F.shape[0] - 1] for t in grid._frame_divisors)
    F2[1:] /= y
    F12[1:] -= F2[1:]
    F12[1:] /= y
    F22[1:] /= y2
    F22[1:] += F1[1:] / y
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
    rings m_max cuts, as a slice when they are the leading run that
    evolve._filter_w always hands over, else as their indices, and the
    high-pass matrices of their caps, gathered from _highpass_stack.
    Cached per (m_max, shape), so a caller that filters the same rings
    every step gathers them once."""
    n = shape[-1]
    caps = np.broadcast_to(m_max, shape[:-1]).ravel()
    if np.any(caps < 0):
        raise ParameterError("m_max must be nonnegative")
    cut = np.flatnonzero(caps < n // 2)
    high = _highpass_stack(n)[caps[cut].astype(int)]
    high.setflags(write=False)
    if np.array_equal(cut, _arange(len(cut))):  # a leading run: a view, not a gather
        return slice(len(cut)), high
    cut.setflags(write=False)
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


def _write_table(path, **arrays):
    """Write a node table: its named arrays as one uncompressed npz
    archive, at path itself (np.savez appends .npz to a str path, not to
    an open file)."""
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_table(path, what, keys, build):
    """build(arrays) of the arrays of a _write_table archive of `what`
    nodes, read without pickles.  A file that is no npz archive (text, a
    bare .npy, a pickle, a truncated archive), key names that are none of
    the sets in keys, an array that is not float64 or holds a non-finite
    value raise ParameterError naming the file; so does a refusal of
    build, with its type kept (ShapeError, DomainError)."""
    try:
        # an open file: np.load leaks the one it opens when an archive is refused
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":  # np.load would try a bare .npy or a pickle
                raise ValueError("not a zip file")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as data:
                arrays = {key: data[key] for key in data.files}
    except (ValueError, zipfile.BadZipFile) as err:
        raise ParameterError(f"{path}: not a {what} table archive ({err})") from None
    if set(arrays) not in keys:
        raise ParameterError(f"{path}: {what} table holds {sorted(arrays)}, "
                             f"not {' or '.join(str(sorted(k)) for k in keys)}")
    if not all(type(a) is np.ndarray and a.dtype == np.float64 for a in arrays.values()):
        raise ParameterError(f"{path}: {what} table arrays must be float64")
    if not all(np.isfinite(a).all() for a in arrays.values()):
        raise ParameterError(f"{path}: {what} table holds a non-finite value")
    try:
        return build(arrays)
    except (ParameterError, DomainError) as err:  # ShapeError included, and kept
        raise type(err)(f"{path}: {err}") from None


def save_field(f, path):
    """Write a field as one npz archive at path: grid = [n_r, n_phi,
    y_max], values and, when the field keeps one, w_signed."""
    arrays = {"grid": np.array(f.grid._key, dtype=float), "values": f.values}
    if f.w_signed is not None:
        arrays["w_signed"] = f.w_signed
    _write_table(path, **arrays)


def load_field(path, grid=None):
    """Read a field written by save_field, w_signed included when stored,
    onto the PolarGrid of its grid entry: the given grid when it is that
    one, a new grid otherwise.  A grid entry that is not three numbers
    with integer counts, or one that PolarGrid refuses, raises
    ParameterError, and values or w_signed off its shape ShapeError,
    naming the file."""
    def build(a):
        entry = a["grid"].tolist()
        if not (a["grid"].shape == (3,) and entry[0].is_integer() and entry[1].is_integer()):
            raise ParameterError(f"bad grid entry {entry}: not [n_r, n_phi, y_max]")
        key = (int(entry[0]), int(entry[1]), entry[2])
        if a["values"].shape != (key[0] + 1, key[1]):  # checked before any node is laid out
            raise ShapeError(f"values of shape {a['values'].shape} are not on grid {key}")
        stored = grid if grid is not None and grid._key == key else PolarGrid(*key)
        return ScalarField(stored, a["values"], a.get("w_signed"), copy=False)

    return _read_table(path, "radial", ({"grid", "values"}, {"grid", "values", "w_signed"}),
                       build)

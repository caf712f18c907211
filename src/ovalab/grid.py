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

polar_jet gives a field's derivatives in (y, phi); frame_jet, the one
owner of the pole row, turns them into gradient and Hessian in an
orthonormal frame at every node, so no plane operator has a pole case.

The module also owns the two conventions every layer shares: the cutoff
scale THETA, and the reading of a field's squared profile W = v^2 with
its continuation outside the body (signed_square).
"""

import math

import numpy as np

from .errors import ParameterError, ShapeError

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


def _fd_coeffs(x, target, order):
    """Differentiation weights at `target` from values at abscissae x."""
    x = np.asarray(x, dtype=float)
    k = len(x)
    a = np.vander(x - target, k, increasing=True).T
    b = np.zeros(k)
    b[order] = math.factorial(order)
    return np.linalg.solve(a, b)


class PolarGrid:
    """Immutable tensor grid: radial nodes starting at the origin times a
    uniform periodic angle grid.

    Carries the Gaussian-weighted quadrature weights of the spectral
    pairing and precomputed 3-point differentiation stencils. The pole
    row uses values reflected through the origin, f(-y, phi) =
    f(y, phi + pi), which is why n_phi must be even.
    """

    def __init__(self, nodes, n_phi):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 4:
            raise ParameterError("need at least 4 radial nodes")
        if nodes[0] != 0.0:
            raise ParameterError("first radial node must sit at the origin")
        if np.any(np.diff(nodes) <= 0.0):
            raise ParameterError("radial nodes must be strictly increasing")
        if n_phi < 4 or n_phi % 2 != 0:
            raise ParameterError("n_phi must be even and at least 4")

        self.y = nodes
        self.y.setflags(write=False)
        self.n_r = len(nodes) - 1
        self.n_phi = int(n_phi)
        self.y_max = float(nodes[-1])
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

        self._build_stencils()

    @property
    def shape(self):
        return (self.n_r + 1, self.n_phi)

    def _build_stencils(self):
        n = self.n_r + 1
        y = self.y
        coeff = {1: np.zeros((n, 3)), 2: np.zeros((n, 3))}
        for order in (1, 2):
            c = coeff[order]
            c[0] = _fd_coeffs([-y[1], 0.0, y[1]], 0.0, order)
            for i in range(1, n - 1):
                c[i] = _fd_coeffs(y[i - 1:i + 2], y[i], order)
            c[n - 1] = _fd_coeffs(y[n - 3:n], y[n - 1], order)
            c.setflags(write=False)
        # a 3-point one-sided 2nd derivative is only 1st order accurate,
        # so the outer edge uses 4 points for order 2
        self._edge_d2 = _fd_coeffs(y[n - 4:n], y[n - 1], 2)
        self._edge_d2.setflags(write=False)
        self._radial_coeffs = coeff

    def radial_derivative(self, values, order):
        """Apply the precomputed radial stencils to a (n_r+1, n_phi) array."""
        c = self._radial_coeffs[order]
        out = np.empty_like(values)
        out[1:-1] = (
            c[1:-1, 0:1] * values[:-2]
            + c[1:-1, 1:2] * values[1:-1]
            + c[1:-1, 2:3] * values[2:]
        )
        reflected = values[1, self._antipode]
        out[0] = c[0, 0] * reflected + c[0, 1] * values[0] + c[0, 2] * values[1]
        if order == 2:
            e = self._edge_d2
            out[-1] = (
                e[0] * values[-4] + e[1] * values[-3]
                + e[2] * values[-2] + e[3] * values[-1]
            )
        else:
            out[-1] = (
                c[-1, 0] * values[-3]
                + c[-1, 1] * values[-2]
                + c[-1, 2] * values[-1]
            )
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolarGrid)
            and self.n_phi == other.n_phi
            and len(self.y) == len(other.y)
            and bool(np.array_equal(self.y, other.y))
        )

    def __hash__(self):
        return hash((self.n_r, self.n_phi, self.y_max))

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

    def with_values(self, values, w_signed=None):
        return ScalarField(self.grid, values, w_signed=w_signed)


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
    transform containing interior nodes can reach; beyond that the
    array keeps whatever it held (never read).
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
    W as the one that was written."""
    if field.w_signed is not None:
        return np.array(field.w_signed)
    return rebuild_halo(field.values**2, field.grid)


def build_grid(n_r, n_phi, y_max):
    """Construct a uniform polar grid.

    n_r is the number of radial cells (n_r + 1 equally spaced nodes
    including the origin), n_phi the number of uniformly spaced angles.
    A non-uniform radial grid is built by passing its nodes to PolarGrid.
    """
    if n_r < 8:
        raise ParameterError("n_r must be at least 8")
    if n_phi < 4 or n_phi % 2 != 0:
        raise ParameterError("n_phi must be even and at least 4")
    if not y_max > 0.0:
        raise ParameterError("y_max must be positive")
    return PolarGrid(y_max * np.linspace(0.0, 1.0, n_r + 1), n_phi)


def inner_product_H(f, g):
    """Gaussian-weighted pairing of two fields on the same grid."""
    if f.grid != g.grid:
        raise ShapeError("fields live on different grids")
    return float(np.sum(f.grid.weights * f.values * g.values))


def norm_H(f):
    return math.sqrt(max(inner_product_H(f, f), 0.0))


def diff(f, direction, order=1):
    """Finite-difference radial derivative of a field.

    direction must be "y"; angular derivatives are spectral (see
    diff_phi_fft).  Radial stencils are centered 3-point (2nd order on
    smooth node distributions), one-sided at the outer edge, and use the
    reflection f(-y, phi) = f(y, phi+pi) at the pole.
    """
    if order not in (1, 2):
        raise ParameterError("order must be 1 or 2")
    if direction != "y":
        raise ParameterError(f"unknown direction {direction!r}")
    return ScalarField(f.grid, f.grid.radial_derivative(f.values, order), copy=False)


def diff_phi_fft(values, order=1):
    """Spectral angular derivative of a (..., n_phi) array of ring samples."""
    n = values.shape[-1]
    m = np.fft.rfftfreq(n, d=1.0 / n)
    fh = np.fft.rfft(values, axis=-1)
    fh *= (1j * m) ** order
    return np.fft.irfft(fh, n=n, axis=-1)


def angular_derivs(F, Fr):
    """Spectral F_phi, F_phiphi and Fr_phi of two (rows, n_phi) arrays
    from one forward transform of the stacked pair; also returns that
    spectrum.  Bitwise equal to three diff_phi_fft calls."""
    n = F.shape[-1]
    ik = 1j * np.fft.rfftfreq(n, d=1.0 / n)
    spec = np.fft.rfft(np.stack([F, Fr]), axis=-1)
    derivs = np.fft.irfft(
        spec[[0, 0, 1]] * np.stack([ik, ik**2, ik])[:, None, :], n=n, axis=-1
    )
    return derivs, spec


def polar_jet(grid, F):
    """Polar first and second derivatives (F_y, F_yy, F_phi, F_phiphi,
    F_yphi) of a (n_r+1, n_phi) array, radial by the grid stencils and
    angular spectrally; also returns the angular spectrum of the first
    ring, F[1, :], which is what pole_jet reads."""
    Fy = grid.radial_derivative(F, 1)
    Fyy = grid.radial_derivative(F, 2)
    (Fp, Fpp, Fyp), spec = angular_derivs(F, Fy)
    return (Fy, Fyy, Fp, Fpp, Fyp), spec[0, 1]


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
    (n_r+1, n_phi) array in an orthonormal frame at every node: on rows
    y > 0 the polar one, F_2 = F_phi/y, F_12 = (F_yphi - F_2)/y and
    F_22 = F_phiphi/y^2 + F_y/y; on the pole row the Cartesian jet of
    pole_jet.  A frame-invariant combination (F_11 + F_22, |DF|^2,
    Hess(DF, DF)) is thus one expression over all rows."""
    (F1, F11, Fp, Fpp, Fyp), ring_spec = polar_jet(grid, F)
    y = grid.y[1:, None]
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


def angular_lowpass(values, m_max):
    """Drop angular Fourier content above m_max.

    m_max may be a scalar or a per-ring integer array; rings with
    m_max >= n_phi/2 pass through untouched.
    """
    n = values.shape[-1]
    m = np.fft.rfftfreq(n, d=1.0 / n)
    fh = np.fft.rfft(values, axis=-1)
    cap = np.asarray(m_max)
    if cap.ndim == 0:
        fh[..., m > cap] = 0.0
    else:
        fh[m[None, :] > cap[:, None]] = 0.0
    return np.fft.irfft(fh, n=n, axis=-1)


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
    """Read a _write_table file into (info, nodes, values).

    header(meta) parses the comment-line key=value pairs into (number of
    nodes, info).  The header also promises phi_nodes; a table of any
    other row count raises ShapeError, and a missing or non-numeric
    header entry, a non-numeric value or a row without five fields
    raises ParameterError.
    """
    meta = {}
    rows = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for part in line[1:].split():
                        if "=" in part:
                            k, v = part.split("=", 1)
                            meta[k] = v
                    continue
                rows.append([float(tok) for tok in line.split(",")])
        data = np.asarray(rows)
    except ValueError as err:
        raise ParameterError(f"{path}: malformed {what} row ({err})") from None
    try:
        (n, info), n_phi = header(meta), int(meta["phi_nodes"])
    except (KeyError, ValueError) as err:
        raise ParameterError(f"{path}: bad {what} header ({err})") from None
    if data.shape[0] != n * n_phi:
        raise ShapeError(f"{path}: expected {n * n_phi} rows, got {data.shape[0]}")
    if data.shape[1:] != (5,):
        raise ParameterError(f"{path}: {what} rows need 5 fields")
    data = data.reshape(n, n_phi, -1)
    return info, data[:, 0, 2], np.ascontiguousarray(data[:, :, 4])


def save_field(f, path):
    """Write a field as CSV: a comment header with the grid metadata, then
    one row `i, j, y_i, phi_j, value` per node in row-major order."""
    g = f.grid
    _write_table(path, f"y_nodes={g.n_r} phi_nodes={g.n_phi} y_max={g.y_max:.17g}",
                 g.y, g.phi, f.values)


def load_field(path, grid=None):
    """Read a field written by save_field. If `grid` is given the stored
    nodes must equal its nodes; otherwise the grid is rebuilt from them."""
    _, nodes, values = _read_table(path, "grid",
                                   lambda m: (int(m["y_nodes"]) + 1, None))
    n_phi = values.shape[1]
    if grid is None:
        grid = PolarGrid(nodes, n_phi)
    elif grid.n_phi != n_phi or not np.array_equal(grid.y, nodes):
        raise ShapeError(f"{path}: stored grid does not match the given one")
    return ScalarField(grid, values)

"""Periodic-grid Fourier engine.

Fields live on a cubic periodic grid; spectral coefficients follow the
convention f(x) = sum_k c_k exp(i x . xi_k) with xi_k = 2 pi k / length,
c = fftn(f) / n^d.  All multiplier identities are exact on the discrete
frequency lattice.

A Field holds its coefficients as a dense block on a per-axis support
and is exactly 0 elsewhere; its samples are a cached, read-only view
(see Field), so a band-limited source holds its band.  Every multiplier
here reads the block and the wavevectors of its support (_modes) and
returns a field on the same support (_like), and an L^2 norm is
Parseval's sum over the block, so a chain of multipliers costs the band
and runs no FFT until its samples are read.  The lattice inverse is the
closed-form inverse symbol (multiplier._apply) at every nonzero mode and
1 / (i omega) at the zero mode.  It and the forward operator touch only
the modes where the coefficients are nonzero, block by block
(symbol._blocks), and apply the eigenbasis and the symbol to each mode's
coefficient column from per-mode vectors, with no per-mode matrix
formed; a block of consecutive modes is read and written through
slices, with no copy.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, MeanNotZero, RealFrequency
from . import materials, multiplier, symbol

TAU = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: dim axes, n points per axis, period length."""

    dim: int
    n: int
    length: float = TAU

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer))
                   for v in (self.dim, self.n)):
            raise InvalidArgument("dim and n must be integers, got %r and %r"
                                  % (self.dim, self.n))
        if self.dim not in (2, 3):
            raise InvalidArgument("dim must be 2 or 3")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise InvalidArgument("n must be a power of two, at least 4")
        materials._real('length', self.length)
        if not 0 < self.length <= np.finfo(float).max ** (1 / self.dim):
            raise InvalidArgument("length must be positive with a finite "
                                  "volume length^dim, got %r" % (self.length,))

    @property
    def npoints(self):
        return self.n ** self.dim

    @property
    def cell_volume(self):
        return (self.length / self.n) ** self.dim

    @property
    def volume(self):
        return self.length ** self.dim

    def k_axis(self):
        """Integer frequencies in FFT storage order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)

    def xi_axis(self):
        return (TAU / self.length) * self.k_axis()

    # one entry: a job works on one grid, and a second cached lattice
    # would only raise the peak memory of a process that alternates grids
    @functools.lru_cache(maxsize=1)
    def xi_flat(self):
        """(n^d, dim) array of lattice wavevectors, read-only; built once
        and reused while the same (or an equal) grid asks for it."""
        return self._xi_on(_full_support(self))

    def _xi_on(self, sup):
        """(m, dim) wavevectors of the modes of a per-axis support, in the
        order of its flattened block, read-only."""
        # broadcast views: the stack is the only copy
        mesh = np.meshgrid(*(self.xi_axis()[s] for s in sup), indexing='ij',
                           copy=False)
        xi = np.stack(mesh, axis=-1).reshape(-1, self.dim)
        xi.flags.writeable = False
        return xi

    def x_axis(self):
        return np.arange(self.n) * (self.length / self.n)

    def x_flat(self):
        mesh = np.meshgrid(*([self.x_axis()] * self.dim), indexing='ij')
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)


class Field:
    """Multi-component complex field on a grid, shape (ncomp, n, ..., n),
    component-major.

    A field holds its spectral coefficients on a per-axis support
    S_1 x ... x S_d (sorted storage indices per axis), as a read-only
    block (ncomp, |S_1|, ..., |S_d|) in FFT storage order; every
    coefficient outside the block is exactly 0.  Its samples are a
    cached, read-only view: ``Field(grid, data)`` transforms the given
    samples once (one FFT) into a full-grid block and keeps a read-only
    copy of them; any other field synthesizes its samples on the first
    read (the block scattered into zeros, one inverse FFT).
    """

    # numpy operators defer to the field's, so an array operand is
    # refused, not broadcast over as an object array
    __array_ufunc__ = None

    def __init__(self, grid, data):
        self.grid = grid
        self._data = np.array(data, dtype=complex)
        _check(self._data, (grid.n,) * grid.dim)
        self._data.flags.writeable = False
        # the support's wavevectors, once read
        self._sup, self._xi = _full_support(grid), None
        self._kept = np.fft.fftn(self._data, axes=self._axes, norm='forward')
        self._kept.flags.writeable = False

    @classmethod
    def _on_support(cls, grid, c, sup, xi=None):
        """The field holding the block c on the per-axis support sup
        (through a read-only view, so c must not be written afterwards)
        and, if known, the support's wavevectors xi."""
        f = cls.__new__(cls)
        f.grid, f._data, f._sup, f._xi = grid, None, sup, xi
        f._kept = np.asarray(c, dtype=complex).view()
        f._kept.flags.writeable = False
        _check(f._kept, tuple(map(len, sup)))
        return f

    @classmethod
    def _tight(cls, grid, c, sup):
        """The field with block c on sup, held on the per-axis support of
        c's nonzero modes: c itself when that is all of sup."""
        nz = np.any(c != 0, axis=0)
        keep = [np.any(nz, axis=tuple(b for b in range(nz.ndim) if b != a))
                for a in range(nz.ndim)]
        if not all(k.all() for k in keep):
            c = c[np.ix_(range(len(c)), *(np.nonzero(k)[0] for k in keep))]
            sup = tuple(s[k] for s, k in zip(sup, keep))
        return cls._on_support(grid, c, sup)

    @classmethod
    def from_coeffs(cls, grid, c):
        """The field with the coefficient array ``c``, shape (ncomp, n,
        ..., n), held on the per-axis support of its nonzero modes: a
        copy of that block, or c itself through a read-only view when the
        support is the whole grid, so c must not be written afterwards.
        No FFT runs until the samples are read."""
        c = np.asarray(c, dtype=complex)
        # the values are checked on the block
        _check(c, (grid.n,) * grid.dim, finite=False)
        return cls._tight(grid, c, _full_support(grid))

    @classmethod
    def zeros(cls, grid, ncomp):
        """The zero field: an empty block, with no n^d array built."""
        return cls._on_support(grid, np.zeros((ncomp,) + (0,) * grid.dim),
                               (np.arange(0),) * grid.dim)

    @property
    def _axes(self):
        return tuple(range(1, self.grid.dim + 1))

    @property
    def data(self):
        """The samples, read-only: the ones the field was built from, or
        one inverse FFT of the full coefficient array, made on the first
        read and cached."""
        if self._data is None:
            self._data = np.fft.ifftn(self._spectrum(), axes=self._axes,
                                      norm='forward')
            self._data.flags.writeable = False
        return self._data

    @property
    def shape(self):
        return (self.ncomp,) + (self.grid.n,) * self.grid.dim

    @property
    def ncomp(self):
        return len(self._kept)

    def _spectrum(self):
        """The coefficients, shape (ncomp, n, ..., n), for reading only:
        the block itself when it covers the grid, else the block
        scattered into zeros."""
        if self._kept.shape == self.shape:
            return self._kept
        c = _embed(self._kept, self._sup, _full_support(self.grid))
        c.flags.writeable = False
        return c

    def coeffs(self):
        """Spectral coefficients, shape (ncomp, n, ..., n), as a fresh
        writable array."""
        return _embed(self._kept, self._sup, _full_support(self.grid))

    def _permuted(self, comp, perm, fix):
        """The field with component i taken from component comp[i] and
        grid axis a from axis perm[a], in one fresh copy of the block,
        whose support moves with it; fix(out) runs on the copy before it
        is wrapped."""
        out = np.empty((len(comp),) + tuple(self._kept.shape[1 + p]
                                            for p in perm), complex)
        for i, j in enumerate(comp):
            out[i] = self._kept[j].transpose(perm)
        fix(out)
        return Field._on_support(self.grid, out,
                                 tuple(self._sup[p] for p in perm))

    def _combine(self, other, op):
        # on the blocks, on the union of the supports when they differ
        if not isinstance(other, Field):
            return NotImplemented
        if other.grid != self.grid or other.ncomp != self.ncomp:
            raise InvalidArgument(
                "cannot combine a %d-component field on %r with a "
                "%d-component field on %r"
                % (self.ncomp, self.grid, other.ncomp, other.grid))
        if all(s is t or np.array_equal(s, t)
               for s, t in zip(self._sup, other._sup)):
            return _like(self, op(self._kept, other._kept))
        sup = tuple(np.union1d(s, t) for s, t in zip(self._sup, other._sup))
        return Field._on_support(self.grid,
                                 op(_embed(self._kept, self._sup, sup),
                                    _embed(other._kept, other._sup, sup)),
                                 sup)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, c):
        if np.ndim(c) != 0:
            raise InvalidArgument("a field multiplies by scalars only, not "
                                  "by a %s of shape %r"
                                  % (type(c).__name__, np.shape(c)))
        return _like(self, self._kept * c)

    __rmul__ = __mul__


def _check(a, shape, finite=True):
    """A held array must have shape (ncomp,) + shape and finite values;
    checking a block checks the whole field, whose other values are 0."""
    if a.shape[1:] != shape:
        raise InvalidArgument("field data shape %r does not match %r"
                              % (a.shape, shape))
    if finite and not np.all(np.isfinite(a)):
        raise InvalidArgument("field data must be finite")


def _full_support(grid):
    return (np.arange(grid.n),) * grid.dim


def _embed(c, sup, into):
    """A fresh array (ncomp, |into_1|, ..., |into_d|) holding the block c
    of support sup, per axis a subset of into, and 0 elsewhere."""
    out = np.zeros((len(c),) + tuple(map(len, into)), dtype=complex)
    out[np.ix_(range(len(c)), *(np.searchsorted(t, s)
                                for s, t in zip(sup, into)))] = c
    return out


def _modes(f):
    """(c, xi): f's coefficient block flattened to (ncomp, m), and the m
    wavevectors of its support, (m, dim), read-only and in the same
    order: rows of grid.xi_flat()."""
    if f._xi is None:
        full = all(len(s) == f.grid.n for s in f._sup)
        f._xi = f.grid.xi_flat() if full else f.grid._xi_on(f._sup)
    return f._kept.reshape(len(f._kept), -1), f._xi


def _like(f, c, tight=False):
    """The coefficient field on f's support with the flattened
    coefficients c, (k, m) for any k; ``tight`` holds it on the support
    of c's nonzero modes instead."""
    c = c.reshape((len(c),) + tuple(map(len, f._sup)))
    if tight:
        return Field._tight(f.grid, c, f._sup)
    return Field._on_support(f.grid, c, f._sup, f._xi)


def scalar_field(grid, values):
    """Wrap a plain (n, ..., n) array as a one-component Field."""
    return Field(grid, np.asarray(values)[None])


def lebesgue_norm(f, p):
    """Discrete L^p norm (cell-volume-weighted; p = inf gives the max).

    Vector fields use the pointwise Euclidean magnitude over components.
    p = 2 is Parseval's identity (the 'forward' normalization),
    (volume sum |c|^2)^(1/2), on the block and with no FFT; any other p
    reads the samples.
    """
    materials._real('p', p)
    if p == 2:
        return float(np.sqrt(f.grid.volume * np.vdot(f._kept, f._kept).real))
    mag = np.sqrt(np.sum(np.abs(f.data) ** 2, axis=0))
    if np.isinf(p):
        return float(mag.max())
    if not p >= 1:
        raise InvalidArgument("p must be >= 1, got %r" % (p,))
    # scaled by the largest magnitude, so that mag ** p cannot overflow
    top = mag.max() or 1.0
    return float(top * (np.sum((mag / top) ** p) * f.grid.cell_volume)
                 ** (1.0 / p))


def _support(c):
    """Modes where some component of the flattened coefficients is not
    exactly 0."""
    return np.any(c != 0, axis=0)


def _maxwell(f, mat=None):
    """Refuse a field that is not a Maxwell field: 3 (d - 1) components
    on a d-dimensional grid, and a material, if given, of dimension d."""
    d = f.grid.dim
    if f.ncomp != 3 * (d - 1) or getattr(mat, 'dim', d) != d:
        raise InvalidArgument(
            "a Maxwell field on a %dD grid has %d components and a %dD "
            "material, got %d components and %r"
            % (d, 3 * (d - 1), d, f.ncomp, mat))


def forward_operator(omega, u, mat):
    """Apply the Maxwell operator P(omega, D) as a multiplier; at the zero
    mode the symbol is i omega I.  The symbol acts on u's coefficients
    without being formed (symbol._p_apply), block by block, and modes
    where they are 0 stay 0."""
    _maxwell(u, mat)
    c, xi = _modes(u)
    out = np.zeros_like(c)
    for sel in _selections(np.nonzero(_support(c))[0], u.ncomp):
        out[:, sel] = symbol._p_apply(omega, xi[sel], c[:, sel], mat)
    return _like(u, out)


def _selections(idx, ncomp):
    """The blocks of symbol._blocks over the sorted mode indices idx, each
    a slice where its modes are consecutive, as they are on a block with
    no zero coefficients, so that reading and writing it copies
    nothing, else an index array."""
    for blk in symbol._blocks(idx.size, ncomp):
        sel = idx[blk]
        if sel.size and sel[-1] - sel[0] == sel.size - 1:
            sel = slice(sel[0], sel[-1] + 1)
        yield sel


def _solve_coeffs(omega, f, mat, drop=None):
    """The lattice inverse P(omega)^{-1} of f's coefficients (canonical
    material), flattened over f's held modes (_modes), with the singular
    columns (multiplier._singular_columns) set to 0 on the modes marked
    in ``drop`` (real omega): there it is the smooth background of the
    Sokhotsky split.  Every nonzero mode takes multiplier._apply on its
    coefficient column, per block of symbol._blocks, which contracts it
    with the eigenbasis frame and forms no per-mode matrix; the zero
    mode, where p(omega, 0) = i omega I, is divided by i omega.  Modes
    where the coefficients are exactly 0 are skipped."""
    c, xi = _modes(f)
    out = np.zeros_like(c)
    active = _support(c)
    zero = symbol._top(xi) == 0
    _reciprocal(omega)
    out[:, zero] = c[:, zero] / (1j * omega)
    idx = np.nonzero(active & ~zero)[0]
    if drop is not None:
        cols = list(multiplier._singular_columns(omega, mat))
    for sel in _selections(idx, c.shape[0]):

        def w(rho):
            w = multiplier._scalar_resolvents(omega, rho)
            if drop is not None:
                w[np.ix_(np.nonzero(drop[sel])[0], cols)] = 0
            return w
        rhs = c[:, sel].T[..., None]
        out[:, sel] = multiplier._apply(xi[sel], rhs, mat, w)[..., 0].T
    return out


def solve(omega, J, mat):
    """Invert the Maxwell operator: the (D, B) field with P(omega,D)u = J.

    Requires Im(omega) != 0.  Every nonzero lattice mode uses the
    closed-form inverse symbol, applied through its eigenbasis frame,
    and the zero mode, where the symbol is i omega I, is divided by
    i omega (_solve_coeffs).  The solve runs on J's held block, and only
    on its nonzero modes, so a J built from band-limited coefficients
    costs its band, not the grid, and u is held on the same support.  It
    runs in the canonical frame (symbol.canonicalize), and u is mapped
    back.
    """
    omega = complex(symbol._frequency(omega))
    if omega.imag == 0:
        raise RealFrequency("solve needs Im(omega) != 0; "
                            "use the lap module at real frequency")
    _maxwell(J, mat)
    canon, Jc, record = symbol.canonicalize(mat, J)
    u = _like(Jc, _solve_coeffs(omega, Jc, canon))
    del Jc          # freed before backward_fields allocates
    return record.backward_fields(u)


def _flavor_qform(flavor, mat, dim):
    """The quadratic form of a flavor norm on dim-dimensional wavevectors:
    the identity, or mat.qform of a material of dimension dim."""
    if flavor == 'euclidean':
        return np.eye(dim)
    if (flavor, getattr(mat, 'dim', None)) not in (('eps_prime', 2),
                                                    ('eps_tilde', 3)):
        raise InvalidArgument("flavor %r does not apply to %r: eps_prime "
                              "needs a 2D material, eps_tilde a 3D one"
                              % (flavor, mat))
    if mat.dim != dim:
        raise InvalidArgument("flavor %r of a %dD material does not apply "
                              "to a %dD field" % (flavor, mat.dim, dim))
    return mat.qform


def _sign(sign):
    """Refuse a sign other than +1 or -1."""
    if sign not in (+1, -1):
        raise InvalidArgument("sign must be +1 or -1, got %r" % (sign,))


def _reciprocal(omega):
    """Refuse, naming it, an omega whose reciprocal overflows: the zero
    mode's 1 / omega."""
    if not abs(omega) >= 2.0 ** -1023:
        raise InvalidArgument("omega = %r is too small: 1 / omega "
                              "overflows" % (omega,))


def _count(name, value):
    """Refuse a count that is not a positive integer (a bool is none)."""
    if not (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value > 0):
        raise InvalidArgument("%s must be a positive integer, got %r"
                              % (name, value))


def flavor_norm(xi, flavor, mat, dim):
    return symbol._qnorms(xi, [_flavor_qform(flavor, mat, dim)])[0]


def riesz(f, i, flavor='euclidean', mat=None):
    """Riesz-type transform: multiply coefficients by xi_i / |xi|_flavor.

    The zero mode is sent to 0.  Component index i is 1-based.
    """
    if not (isinstance(i, (int, np.integer)) and 1 <= i <= f.grid.dim):
        raise InvalidArgument("i must be an axis 1, ..., %d, got %r"
                              % (f.grid.dim, i))
    c, xi = _modes(f)
    rho = flavor_norm(xi, flavor, mat, f.grid.dim)
    with np.errstate(divide='ignore', invalid='ignore'):
        mult = np.where(rho > 0, xi[:, i - 1] / np.where(rho > 0, rho, 1.0), 0.0)
    return _like(f, c * mult)


def _project_block(c_block, xi, direction):
    """Remove the ``direction`` component of a coefficient triple/pair so
    that the result is pointwise orthogonal to xi."""
    num = np.einsum('i...,i...->...', xi, c_block)
    den = np.einsum('i...,i...->...', xi, direction)
    safe = np.where(den != 0, den, 1.0)
    coef = np.where(den != 0, num / safe, 0.0)
    return c_block - coef * direction


def leray_project(J, mat=None):
    """Project currents onto the divergence-free subspace.

    Without a material this is the orthogonal (Euclidean) Leray
    projection.  With a material, the removed component points along the
    permittivity-weighted gradient direction eps . xi (electric block)
    and xi (magnetic block); that oblique projection is the one whose
    complement the resolvent maps to pure charge terms.  Both versions
    leave a discretely divergence-free field; the zero mode is kept.
    """
    _maxwell(J, mat)
    c, xi = _modes(J)
    xi = xi.T
    d = J.grid.dim
    direction = xi if mat is None else np.einsum(
        'ij,j...->i...', mat.eps if d == 2 else np.diag(mat.eps_diag), xi)
    out = c.copy()
    out[:d] = _project_block(c[:d], xi, direction)
    if d == 3:
        out[3:] = _project_block(c[3:], xi, xi)
    return _like(J, out)


def fractional_laplacian(f, s):
    """Multiply coefficients by |xi|^s; the zero mode goes to 0.

    Negative orders require a mean-zero field.
    """
    materials._real('s', s)
    c, xi = _modes(f)
    rho = np.sqrt(np.einsum('ki,ki->k', xi, xi))
    zero = rho == 0
    if s < 0 and np.abs(c[:, zero]).max(initial=0.0) > 1e-12:
        raise MeanNotZero("negative-order multiplier on a field with mean")
    mult = np.zeros_like(rho)
    with np.errstate(over='ignore', invalid='ignore'):
        mult[~zero] = rho[~zero] ** s
        c = c * mult
    if not np.isfinite(c).all():
        raise InvalidArgument("s = %r: |xi|^s overflows on this grid" % (s,))
    return _like(f, c)


@dataclass
class Charges:
    """Divergences of the electric and magnetic current blocks."""

    rho_e: Field
    rho_m: Field


def divergence_and_charges(J):
    """Spectral divergence i xi . J per block; zero mode exactly 0."""
    _maxwell(J)
    c, xi = _modes(J)
    xi = xi.T
    d = J.grid.dim
    rho_e = 1j * np.einsum('i...,i...->...', xi, c[:d])
    if d == 2:
        rho_m = np.zeros_like(rho_e)
    else:
        rho_m = 1j * np.einsum('i...,i...->...', xi, c[3:])
    return Charges(_like(J, rho_e[None]), _like(J, rho_m[None]))


def half_laplacian_resolvent(f, omega, sign=+1, flavor='euclidean', mat=None):
    """The scalar multiplier 1 / (omega +- |xi|_flavor)."""
    omega = complex(symbol._frequency(omega))
    if omega.imag == 0:
        raise RealFrequency("half-Laplacian resolvent needs Im(omega) != 0")
    _sign(sign)
    _reciprocal(omega)
    c, xi = _modes(f)
    rho = flavor_norm(xi, flavor, mat, f.grid.dim)
    return _like(f, c * (1.0 / (omega + sign * rho)))


def random_band_limited(grid, ncomp, rng, kmax=None, solenoidal=False,
                        mat=None):
    """Random coefficient field with spectrum in |k| <= kmax per axis
    (default n/4), exactly 0 outside the band, and held on the band.
    Normals are drawn on the band only, indices in FFT storage order,
    real parts then imaginary parts; at kmax >= n/2 the band is the
    whole grid."""
    _count('ncomp', ncomp)
    if kmax is None:
        kmax = grid.n // 4
    materials._real('kmax', kmax)
    if not kmax >= 0:
        raise InvalidArgument("kmax must be >= 0, got %r" % (kmax,))
    band = np.nonzero(np.abs(grid.k_axis()) <= kmax)[0]
    shape = (ncomp,) + (band.size,) * grid.dim
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = Field._on_support(grid, vals, (band,) * grid.dim)
    if solenoidal:
        f = leray_project(f, mat)
    return f

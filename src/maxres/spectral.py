"""Periodic-grid Fourier engine.

Fields live on a cubic periodic grid; spectral coefficients follow the
convention f(x) = sum_k c_k exp(i x . xi_k) with xi_k = 2 pi k / length,
c = fftn(f) / n^d.  All multiplier identities are exact on the discrete
frequency lattice.

A Field holds samples or coefficients and computes the other array only
when it is read.  Every multiplier here reads coefficients and returns a
coefficient field, and an L^2 norm of a coefficient field is Parseval's
sum, so a chain of multipliers runs no FFT until its samples are read.
A band-limited source has exact zeros outside its band, and the lattice
inverse and the forward operator touch only the modes where the
coefficients are nonzero, and build their per-mode matrices block by
block (symbol._blocks): each (block, ncomp, ncomp) array is about 2 MiB,
so it stays in a core's L2 cache between its construction and its use.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import MeanNotZero, OnSingularSet, RealFrequency
from .materials import Material2, Material3
from . import multiplier, symbol

TAU = 2.0 * np.pi


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: dim axes, n points per axis, period length."""

    dim: int
    n: int
    length: float = TAU

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two, at least 4")
        if not self.length > 0:
            raise ValueError("length must be positive")

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

    def xi_lattice(self):
        """(n, ..., n, dim) array of lattice wavevectors, read-only."""
        return self.xi_flat().reshape((self.n,) * self.dim + (self.dim,))

    # one entry: a job works on one grid, and a second cached lattice
    # would only raise the peak memory of a process that alternates grids
    @functools.lru_cache(maxsize=1)
    def xi_flat(self):
        """(n^d, dim) array of lattice wavevectors, read-only; built once
        and reused while the same (or an equal) grid asks for it."""
        # broadcast views: the stack is the lattice's only copy
        mesh = np.meshgrid(*([self.xi_axis()] * self.dim), indexing='ij',
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

    A field holds samples or spectral coefficients and computes the other
    array only when something reads it.  ``Field(grid, data)`` holds the
    samples, writable, and each coefficient read is one FFT.
    ``from_coeffs`` holds the coefficients, read-only; the samples are
    synthesized on the first read and cached read-only, so the two
    cannot drift apart.  Every multiplier here reads coefficients, so a
    solve, its residual and its divergences run no FFT until someone
    reads ``data``.
    """

    def __init__(self, grid, data):
        self.grid = grid
        self._data = data
        # the exact coefficients, when the field was built from them
        self._kept = None
        self._check(data)

    def _check(self, a):
        expect = (self.grid.n,) * self.grid.dim
        if a.shape[1:] != expect:
            raise ValueError("field data shape %r does not match grid %r"
                             % (a.shape, expect))
        if not np.all(np.isfinite(a)):
            raise ValueError("field data must be finite")

    @property
    def _axes(self):
        return tuple(range(1, self.grid.dim + 1))

    @property
    def data(self):
        """The samples; for a coefficient field one inverse FFT, made on
        the first read and cached read-only."""
        if self._data is None:
            self._data = np.fft.ifftn(self._kept, axes=self._axes,
                                      norm='forward')
            self._data.flags.writeable = False
        return self._data

    @property
    def shape(self):
        return (self._data if self._kept is None else self._kept).shape

    @property
    def ncomp(self):
        return self.shape[0]

    @classmethod
    def zeros(cls, grid, ncomp):
        return cls(grid, np.zeros((ncomp,) + (grid.n,) * grid.dim,
                                  dtype=complex))

    def copy(self):
        return Field(self.grid, self.data.copy())

    def _spectrum(self):
        """The coefficients, shape (ncomp, n, ..., n), for reading only:
        the kept array itself, or one FFT of the samples."""
        if self._kept is not None:
            return self._kept
        return np.fft.fftn(self._data, axes=self._axes, norm='forward')

    def coeffs(self):
        """Spectral coefficients, shape (ncomp, n, ..., n), as a fresh
        writable array: a copy of the kept ones, or an FFT of the
        samples."""
        c = self._spectrum()
        return c.copy() if c is self._kept else c

    @classmethod
    def from_coeffs(cls, grid, c):
        """The field with coefficients ``c``, which it keeps through a
        read-only view, so c must not be written afterwards.  No FFT runs
        until the samples are read."""
        f = cls.__new__(cls)
        f.grid = grid
        f._data = None
        f._kept = np.asarray(c, dtype=complex).view()
        f._kept.flags.writeable = False
        f._check(f._kept)
        return f

    def _combine(self, other, op):
        # in coefficients when both operands hold them, else in samples
        if self._kept is not None and other._kept is not None:
            return Field.from_coeffs(self.grid, op(self._kept, other._kept))
        return Field(self.grid, op(self.data, other.data))

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, c):
        if self._kept is not None:
            return Field.from_coeffs(self.grid, self._kept * c)
        return Field(self.grid, self.data * c)

    __rmul__ = __mul__


def scalar_field(grid, values):
    """Wrap a plain (n, ..., n) array as a one-component Field."""
    return Field(grid, np.asarray(values, dtype=complex)[None])


def lebesgue_norm(f, p):
    """Discrete L^p norm (cell-volume-weighted; p = inf gives the max).

    Vector fields use the pointwise Euclidean magnitude over components.
    For p = 2 a coefficient field takes Parseval's identity (the
    'forward' normalization), (volume sum |c|^2)^(1/2), and no FFT.
    """
    if f._kept is not None and p == 2:
        return float(np.sqrt(f.grid.volume * np.vdot(f._kept, f._kept).real))
    mag = np.sqrt(np.sum(np.abs(f.data) ** 2, axis=0))
    if np.isinf(p):
        return float(mag.max())
    if p < 1:
        raise ValueError("p must be >= 1")
    return float((np.sum(mag ** p) * f.grid.cell_volume) ** (1.0 / p))


def _support(c):
    """Modes where some component of the flattened coefficients is not
    exactly 0."""
    return np.any(c != 0, axis=0)


def forward_operator(omega, u, mat):
    """Apply the Maxwell operator P(omega, D) as a multiplier; at the zero
    mode the symbol is i omega I.  Modes where u's coefficients are 0
    stay 0 without building the symbol."""
    c = u._spectrum().reshape(u.ncomp, -1)
    xi = u.grid.xi_flat()
    out = np.zeros_like(c)
    idx = np.nonzero(_support(c))[0]
    for blk in symbol._blocks(idx.size, u.ncomp):
        sel = idx[blk]
        # inline, so each symbol block is freed before the next is built
        out[:, sel] = np.einsum('kij,jk->ik',
                                symbol.symbol_p(omega, xi[sel], mat),
                                c[:, sel])
    return Field.from_coeffs(u.grid, out.reshape(u.shape))


def _solve_coeffs(omegas, c, grid, mat, mask=None, weights=(1.0,), skip=()):
    """The lattice inverse sum_k weights_k P(omegas_k)^{-1} c on flattened
    coefficients (canonical material) and the modes in ``mask`` (default
    all; the others are 0).  Off the axis: multiplier._apply (the
    ``skip`` columns 0) per block of symbol._blocks, cache-sized so each
    (block, ncomp, ncomp) factor stays in L2 while it is applied.
    Near-axis 3D modes and the zero mode, where p(omega, 0) = i omega I,
    get the same combination of direct solves.  Modes where c is exactly
    0 are skipped."""
    xi = grid.xi_flat()
    out = np.zeros_like(c)
    active = _support(c)
    if mask is not None:
        active &= mask
    direct = active & (symbol.near_axis(xi) | ~np.any(xi != 0, axis=-1))
    idx = np.nonzero(active & ~direct)[0]
    for blk in symbol._blocks(idx.size, c.shape[0]):
        sel = idx[blk]
        rhs = c[:, sel].T[..., None]
        out[:, sel] = multiplier._apply(omegas, xi[sel], rhs, mat, weights,
                                        skip)[..., 0].T
    idx = np.nonzero(direct)[0]
    if idx.size == 0:
        return out
    rhs = c[:, idx].T[..., None]
    for a, omega in zip(weights, omegas):
        p = symbol.symbol_p(omega, xi[idx], mat)
        try:
            out[:, idx] += a * np.linalg.solve(p, rhs)[..., 0].T
        except np.linalg.LinAlgError:
            # only at real omega: a near-axis mode on a characteristic
            # sphere, where the symbol has a zero eigenvalue
            k = xi[idx[np.argmin(np.abs(np.linalg.det(p)))]]
            raise OnSingularSet(
                "omega = %g puts the near-axis lattice mode %s on a "
                "characteristic sphere, where the symbol is singular"
                % (omega.real, tuple(int(v) for v in
                                     np.rint(k * grid.length / TAU))))
    return out


def solve(omega, J, mat):
    """Invert the Maxwell operator: the (D, B) field with P(omega,D)u = J.

    Requires Im(omega) != 0.  Lattice modes off the distinguished axis
    use the closed-form inverse symbol, applied through its eigenbasis
    factors; near-axis 3D modes and the zero mode, where the symbol is
    i omega I, fall back to a direct solve (_solve_coeffs).  Only modes
    where J's coefficients are nonzero are touched, so a J built from
    band-limited coefficients costs its band, not the grid.
    Non-canonical 3D materials are routed through canonical form.
    """
    omega = complex(omega)
    if omega.imag == 0:
        raise RealFrequency("solve needs Im(omega) != 0; "
                            "use the lap module at real frequency")
    if isinstance(mat, Material3) and not mat.is_canonical:
        canon, Jc, record = symbol.canonicalize(mat, J)
        u = solve(omega, Jc, canon)
        del Jc          # freed before backward_fields allocates
        return record.backward_fields(u)
    c = J._spectrum().reshape(J.ncomp, -1)
    out = _solve_coeffs([omega], c, J.grid, mat)
    return Field.from_coeffs(J.grid, out.reshape(J.shape))


def _flavor_qform(flavor, mat, dim):
    if flavor == 'euclidean':
        return np.eye(dim)
    if flavor == 'eps_prime':
        if not isinstance(mat, Material2):
            raise ValueError("eps_prime flavor needs a 2D material")
        return mat.qform
    if flavor == 'eps_tilde':
        if not isinstance(mat, Material3):
            raise ValueError("eps_tilde flavor needs a 3D material")
        return mat.qform
    raise ValueError("unknown flavor %r" % (flavor,))


def flavor_norm(xi, flavor, mat, dim):
    q = _flavor_qform(flavor, mat, dim)
    return np.sqrt(np.einsum('...i,ij,...j->...', xi, q, xi))


def riesz(f, i, flavor='euclidean', mat=None):
    """Riesz-type transform: multiply coefficients by xi_i / |xi|_flavor.

    The zero mode is sent to 0.  Component index i is 1-based.
    """
    grid = f.grid
    xi = grid.xi_flat()
    rho = flavor_norm(xi, flavor, mat, grid.dim)
    with np.errstate(divide='ignore', invalid='ignore'):
        mult = np.where(rho > 0, xi[:, i - 1] / np.where(rho > 0, rho, 1.0), 0.0)
    c = f._spectrum().reshape(f.ncomp, -1) * mult
    return Field.from_coeffs(grid, c.reshape(f.shape))


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
    grid = J.grid
    c = J._spectrum()
    xi = np.moveaxis(grid.xi_lattice(), -1, 0)
    d = grid.dim
    direction = xi if mat is None else np.einsum(
        'ij,j...->i...', mat.eps if d == 2 else np.diag(mat.eps_diag), xi)
    out = c.copy()
    out[:d] = _project_block(c[:d], xi, direction)
    if d == 3:
        out[3:] = _project_block(c[3:], xi, xi)
    return Field.from_coeffs(grid, out)


def fractional_laplacian(f, s):
    """Multiply coefficients by |xi|^s; the zero mode goes to 0.

    Negative orders require a mean-zero field.
    """
    grid = f.grid
    c = f._spectrum().reshape(f.ncomp, -1)
    xi = grid.xi_flat()
    rho = np.sqrt(np.einsum('ki,ki->k', xi, xi))
    zero = rho == 0
    if s < 0 and np.abs(c[:, zero]).max(initial=0.0) > 1e-12:
        raise MeanNotZero("negative-order multiplier on a field with mean")
    mult = np.zeros_like(rho)
    mult[~zero] = rho[~zero] ** s
    out = c * mult
    return Field.from_coeffs(grid, out.reshape(f.shape))


@dataclass
class Charges:
    """Divergences of the electric and magnetic current blocks."""

    rho_e: Field
    rho_m: Field


def divergence_and_charges(J):
    """Spectral divergence i xi . J per block; zero mode exactly 0."""
    grid = J.grid
    c = J._spectrum()
    xi = np.moveaxis(grid.xi_lattice(), -1, 0)
    if grid.dim == 2:
        rho_e = 1j * np.einsum('i...,i...->...', xi, c[:2])
        rho_m = np.zeros_like(rho_e)
    else:
        rho_e = 1j * np.einsum('i...,i...->...', xi, c[:3])
        rho_m = 1j * np.einsum('i...,i...->...', xi, c[3:])
    return Charges(Field.from_coeffs(grid, rho_e[None]),
                   Field.from_coeffs(grid, rho_m[None]))


def half_laplacian_resolvent(f, omega, sign=+1, flavor='euclidean', mat=None):
    """The scalar multiplier 1 / (omega +- |xi|_flavor)."""
    omega = complex(omega)
    if omega.imag == 0:
        raise RealFrequency("half-Laplacian resolvent needs Im(omega) != 0")
    grid = f.grid
    xi = grid.xi_flat()
    rho = flavor_norm(xi, flavor, mat, grid.dim)
    mult = 1.0 / (omega + sign * rho)
    c = f._spectrum().reshape(f.ncomp, -1) * mult
    return Field.from_coeffs(grid, c.reshape(f.shape))


def random_band_limited(grid, ncomp, rng, kmax=None, solenoidal=False,
                        mat=None):
    """Random coefficient field with spectrum in |k| <= kmax per axis
    (default n/4), exactly 0 outside the band.  Normals are drawn on the
    band only, indices in FFT storage order, real parts then imaginary
    parts; at kmax >= n/2 the band is the whole grid."""
    if kmax is None:
        kmax = grid.n // 4
    if kmax < 0:
        raise ValueError("kmax must be >= 0, got %r" % (kmax,))
    band = np.nonzero(np.abs(grid.k_axis()) <= kmax)[0]
    shape = (ncomp,) + (band.size,) * grid.dim
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = np.zeros((ncomp,) + (grid.n,) * grid.dim, dtype=complex)
    c[np.ix_(np.arange(ncomp), *([band] * grid.dim))] = vals
    f = Field.from_coeffs(grid, c)
    if solenoidal:
        f = leray_project(f, mat)
    return f

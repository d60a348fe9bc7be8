"""Periodic-grid Fourier engine.

Fields live on a cubic periodic grid; spectral coefficients follow the
convention f(x) = sum_k c_k exp(i x . xi_k) with xi_k = 2 pi k / length,
c = fftn(f) / n^d.  All multiplier identities are exact on the discrete
frequency lattice.

A Field built from coefficients keeps them next to its samples, read-only,
and every multiplier here reads those exact coefficients instead of
transforming the samples again.  A band-limited source then has exact
zeros outside its band, and the lattice inverse and the forward operator
touch only the modes where the coefficients are nonzero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MeanNotZero, OnSingularSet, RealFrequency
from .materials import Material2, Material3
from . import multiplier, symbol

TAU = 2.0 * np.pi

# lattice chunk size for building multiplier matrices or factors
_CHUNK = 1 << 15


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
        """(n, ..., n, dim) array of lattice wavevectors."""
        ax = self.xi_axis()
        mesh = np.meshgrid(*([ax] * self.dim), indexing='ij')
        return np.stack(mesh, axis=-1)

    def xi_flat(self):
        return self.xi_lattice().reshape(-1, self.dim)

    def x_axis(self):
        return np.arange(self.n) * (self.length / self.n)

    def x_flat(self):
        mesh = np.meshgrid(*([self.x_axis()] * self.dim), indexing='ij')
        return np.stack(mesh, axis=-1).reshape(-1, self.dim)


@dataclass
class Field:
    """Multi-component complex field sampled on a grid.

    data has shape (ncomp, n, ..., n), component-major.  A Field made by
    from_coeffs also keeps the coefficients it was made from, and both
    arrays are read-only, so that they cannot drift apart; fields made
    from samples, by copy() or by arithmetic keep none and stay writable.
    """

    grid: Grid
    data: np.ndarray

    # the exact coefficients, when the field was built from them
    _kept = None

    def __post_init__(self):
        expect = (self.grid.n,) * self.grid.dim
        if self.data.shape[1:] != expect:
            raise ValueError("field data shape %r does not match grid %r"
                             % (self.data.shape, expect))
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field data must be finite")

    @property
    def ncomp(self):
        return self.data.shape[0]

    @classmethod
    def zeros(cls, grid, ncomp):
        return cls(grid, np.zeros((ncomp,) + (grid.n,) * grid.dim,
                                  dtype=complex))

    @classmethod
    def _with_coeffs(cls, grid, data, c):
        """A field with samples ``data`` that keeps ``c`` as its exact
        coefficients; both are made read-only (c through a view)."""
        f = cls(grid, data)
        f.data.flags.writeable = False
        f._kept = c.view()
        f._kept.flags.writeable = False
        return f

    def copy(self):
        return Field(self.grid, self.data.copy())

    def _spectrum(self):
        """The coefficients, shape (ncomp, n, ..., n), for reading only:
        the kept array itself, or one FFT of the samples."""
        if self._kept is not None:
            return self._kept
        axes = tuple(range(1, self.grid.dim + 1))
        return np.fft.fftn(self.data, axes=axes, norm='forward')

    def coeffs(self):
        """Spectral coefficients, shape (ncomp, n, ..., n), as a fresh
        writable array: a copy of the kept ones, or an FFT of the
        samples."""
        c = self._spectrum()
        return c.copy() if c is self._kept else c

    @classmethod
    def from_coeffs(cls, grid, c):
        """The field with coefficients ``c``.  It keeps a read-only view
        of c as its exact spectrum, so c must not be written afterwards."""
        c = np.asarray(c, dtype=complex)
        axes = tuple(range(1, grid.dim + 1))
        return cls._with_coeffs(grid, np.fft.ifftn(c, axes=axes,
                                                   norm='forward'), c)

    def __add__(self, other):
        return Field(self.grid, self.data + other.data)

    def __sub__(self, other):
        return Field(self.grid, self.data - other.data)

    def __mul__(self, c):
        return Field(self.grid, self.data * c)

    __rmul__ = __mul__


def scalar_field(grid, values):
    """Wrap a plain (n, ..., n) array as a one-component Field."""
    return Field(grid, np.asarray(values, dtype=complex)[None])


def lebesgue_norm(f, p):
    """Discrete L^p norm (cell-volume-weighted; p = inf gives the max).

    Vector fields use the pointwise Euclidean magnitude over components.
    """
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
    for start in range(0, idx.size, _CHUNK):
        sel = idx[start:start + _CHUNK]
        # inline, so each symbol block is freed before the next is built
        out[:, sel] = np.einsum('kij,jk->ik',
                                symbol.symbol_p(omega, xi[sel], mat),
                                c[:, sel])
    return Field.from_coeffs(u.grid, out.reshape(u.data.shape))


def _solve_coeffs(omegas, c, grid, mat, mask=None, weights=(1.0,), skip=()):
    """The lattice inverse sum_k weights_k P(omegas_k)^{-1} c on flattened
    coefficients (canonical material) and the modes in ``mask`` (default
    all; the others are 0).  Off the axis: one eigenbasis per chunk,
    applied as m (w * (m^{-1} c)) with w from multiplier._scalar_resolvents
    (the ``skip`` columns 0).  Near-axis 3D modes and the zero mode, where
    p(omega, 0) = i omega I, get the same combination of direct solves.
    Modes where c is exactly 0 are skipped."""
    xi = grid.xi_flat()
    out = np.zeros_like(c)
    active = _support(c)
    if mask is not None:
        active &= mask
    direct = active & (symbol.near_axis(xi) | ~np.any(xi != 0, axis=-1))
    idx = np.nonzero(active & ~direct)[0]
    for start in range(0, idx.size, _CHUNK):
        sel = idx[start:start + _CHUNK]
        m, minv, rho = symbol._eigen_basis(xi[sel], mat)
        w = multiplier._scalar_resolvents(omegas, rho, weights, skip)
        v = w * multiplier._rmatmul(minv, c[:, sel].T[..., None])[..., 0]
        out[:, sel] = multiplier._rmatmul(m, v[..., None])[..., 0].T
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
    return Field.from_coeffs(J.grid, out.reshape(J.data.shape))


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
    return Field.from_coeffs(grid, c.reshape(f.data.shape))


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
    return Field.from_coeffs(grid, out.reshape(f.data.shape))


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
    return Field.from_coeffs(grid, c.reshape(f.data.shape))


def random_band_limited(grid, ncomp, rng, kmax=None, solenoidal=False,
                        mat=None):
    """Random field with spectrum in |k| <= kmax per axis (default n/4);
    it keeps its coefficients, which are exactly 0 outside the band."""
    if kmax is None:
        kmax = grid.n // 4
    k = grid.k_axis()
    keep1 = np.abs(k) <= kmax
    mask = keep1
    for _ in range(grid.dim - 1):
        mask = np.multiply.outer(mask, keep1)
    shape = (ncomp,) + (grid.n,) * grid.dim
    c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask
    f = Field.from_coeffs(grid, c)
    if solenoidal:
        f = leray_project(f, mat)
    return f

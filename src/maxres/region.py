"""Lebesgue-exponent arithmetic and frequency-region geometry.

Pairs of Lebesgue exponents are stored as reciprocals (x, y) = (1/p, 1/q)
in the unit square.  The module computes the blow-up exponent gamma, the
frequency weight kappa, membership in the classical admissibility sets,
the level regions where kappa stays below a threshold, and empirical
operator-norm scaling probes on the grid solver.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (EmptyRegion, ExponentOrder, GridTooCoarse,
                     InvalidArgument, OnSingularSet, _count, _frequency,
                     _numbers, _real)
from . import multiplier, spectral, symbol


@dataclass(frozen=True)
class LebesguePair:
    """Reciprocal exponents x = 1/p, y = 1/q and the dimension."""

    x: float
    y: float
    d: int

    def __post_init__(self):
        for name in ('x', 'y'):
            _real(name, getattr(self, name), '[0, 1]')
        if _real('d', self.d) not in (2, 3):
            raise InvalidArgument("d must be 2 or 3, got %r" % (self.d,))

    @property
    def p(self):
        return np.inf if self.x == 0 else 1.0 / self.x

    @property
    def q(self):
        return np.inf if self.y == 0 else 1.0 / self.y

    def dual(self):
        return LebesguePair(1.0 - self.y, 1.0 - self.x, self.d)


def gamma(pair):
    """Blow-up exponent of the frequency weight.

    The largest of four affine terms; zero exactly on the uniform
    boundedness polygon.
    """
    x, y, d = pair.x, pair.y, pair.d
    return max(0.0,
               1.0 - (d + 1) / 2.0 * (x - y),
               (d + 1) / 2.0 - d * x,
               d * y - (d - 1) / 2.0)


def alpha(pair):
    """Modulus exponent: kappa scales like |omega|^(-alpha) on rays."""
    return 1.0 - pair.d * (pair.x - pair.y)


def _ray_distance(omega):
    """Distance from omega to the nonnegative real ray."""
    if omega.real <= 0:
        return abs(omega)
    return abs(omega.imag)


def kappa(pair, omega, variant='real_axis'):
    """Frequency weight |omega|^(-alpha + gamma) * dist^(-gamma).

    variant 'real_axis' measures dist to the real line (|Im omega|);
    'ray' measures dist to [0, inf).
    """
    omega = complex(_frequency(omega))
    g = gamma(pair)
    if variant == 'real_axis':
        dist = abs(omega.imag)
    elif variant == 'ray':
        dist = _ray_distance(omega)
    else:
        raise InvalidArgument("variant must be 'real_axis' or 'ray'")
    if omega == 0 or dist == 0:
        raise OnSingularSet("kappa undefined at omega = %r (%s variant)"
                            % (omega, variant))
    return abs(omega) ** (-alpha(pair) + g) * dist ** (-g)


_SET_IDS = ('R0_half', 'R1', 'P_set')


def membership(pair, set_id):
    """Exact membership in the classical admissibility sets.

    R0_half: fixed-frequency boundedness range of the half Laplacian,
    the strip 0 <= x - y <= 1/d minus its two corner points.
    R1: the uniform boundedness range, 2/(d+1) <= x - y <= 2/d with
    x > (d+1)/(2d), y < (d-1)/(2d), minus the corners of the s = 2 strip.
    P_set: the supercritical polygon x - y >= 2/(d+1), x > (d+1)/(2d),
    y < (d-1)/(2d).
    """
    x, y, d = pair.x, pair.y, pair.d
    t = x - y
    if set_id == 'R0_half':
        if not (0 <= t <= 1.0 / d):
            return False
        excluded = ((1.0, (d - 1.0) / d), (1.0 / d, 0.0))
        return (x, y) not in excluded
    if set_id == 'R1':
        if not (2.0 / (d + 1) <= t <= 2.0 / d):
            return False
        if not (x > (d + 1.0) / (2 * d) and y < (d - 1.0) / (2 * d)):
            return False
        excluded = ((1.0, (d - 2.0) / d), (2.0 / d, 0.0))
        return (x, y) not in excluded
    if set_id == 'P_set':
        return (t >= 2.0 / (d + 1) and x > (d + 1.0) / (2 * d)
                and y < (d - 1.0) / (2 * d))
    raise InvalidArgument("set_id must be one of %r" % (_SET_IDS,))


@dataclass(frozen=True)
class RegionQuery:
    """A pair together with the level ell, estimate constant C and the
    eigenvalue-bound parameter t."""

    pair: LebesguePair
    ell: float
    C: float = 1.0
    t: float = 0.5

    def __post_init__(self):
        for name, domain in (('ell', '(0, inf)'), ('C', '(0, inf)'),
                             ('t', '(0, 1)')):
            _real(name, getattr(self, name), domain)


def _check_empty(pair, ell):
    if alpha(pair) == 0 and ell < 1:
        raise EmptyRegion(
            "kappa = (|omega|/dist)^gamma >= 1 when alpha = 0; "
            "the level set kappa <= %g is empty" % ell)


def z_region(query, omega):
    """Whether omega belongs to the sublevel region kappa <= ell."""
    omega = complex(_frequency(omega))
    if omega.imag == 0:
        raise OnSingularSet("membership is defined off the real axis")
    _check_empty(query.pair, query.ell)
    return kappa(query.pair, omega) <= query.ell


def z_boundary(query, resolution=256):
    """Polyline tracing the level set kappa = ell.

    In polar form omega = r e^{i theta} the level equation reads
    r^(-alpha) |sin theta|^(-gamma) = ell, so for alpha != 0 the radius
    is r(theta) = (ell |sin theta|^gamma)^(-1/alpha); for alpha = 0 the
    set is the cone |sin theta| = ell^(-1/gamma).  The returned array of
    complex points covers the upper half and its conjugate mirror, and
    is symmetric under reflection in both axes.
    """
    _count('resolution', resolution, 2)
    pair, ell = query.pair, query.ell
    a, g = alpha(pair), gamma(pair)
    _check_empty(pair, ell)
    if a == 0:
        # gamma >= (d - 1)/(2d) > 0 on the line alpha = 0
        th = np.arcsin(min(ell ** (-1.0 / g), 1.0))
        rs = np.linspace(0.0, 2.0, resolution)
        upper = np.concatenate([(rs * np.exp(1j * (np.pi - th)))[::-1],
                                rs * np.exp(1j * th)])
        return np.concatenate([upper, np.conj(upper)[::-1]])
    # build one quadrant and mirror it, so the reflection symmetries
    # hold to the last bit
    th = np.linspace(0.0, np.pi / 2, resolution // 4 + 2)[1:]
    with np.errstate(over='ignore', under='ignore', divide='ignore'):
        r = (ell * np.sin(th) ** g) ** (-1.0 / a)
    if not np.all((r > 0) & (r < np.inf)):
        raise InvalidArgument("ell = %g puts the level curve at radii that "
                              "are not finite positive doubles" % ell)
    quarter = r * np.exp(1j * th)
    upper = np.concatenate([-np.conj(quarter), quarter[-2::-1]])
    return np.concatenate([upper, np.conj(upper)[::-1]])


@dataclass
class EnclosureResult:
    """Outcome of the eigenvalue-enclosure criterion."""

    threshold: float
    potential_norm: float
    satisfied: bool
    region_note: str


def eigenvalue_enclosure(query, V, p, q):
    """Check the smallness condition confining eigenvalues to the
    complement of the sublevel region.

    The potential norm is taken in L^r with 1/r = 1/p - 1/q; the
    criterion is ||V||_r <= t / (C ell), non-strict.
    """
    _real('p', p, '[1, inf]')
    if _real('q', q, '(1, inf]') <= p:
        raise ExponentOrder("need q > p, got p=%r q=%r" % (p, q))
    r = 1.0 / (1.0 / p - 1.0 / q)
    norm = spectral.lebesgue_norm(V, r)
    threshold = query.t / (query.C * query.ell)
    note = ("eigenvalues lie outside the region kappa <= %g; "
            "estimate constant C = %g supplied by the caller "
            "(C is not known analytically; the default 1 is arbitrary)"
            % (query.ell, query.C))
    return EnclosureResult(threshold=threshold, potential_norm=norm,
                           satisfied=norm <= threshold, region_note=note)


@dataclass
class FitResult:
    """Least-squares power-law fit on log-log axes."""

    slope: float
    intercept: float
    residual: float
    npoints: int


def loglog_fit(xs, ys):
    """Fit log y = slope * log x + intercept by least squares."""
    xs = _numbers('xs', xs, domain='(0, inf)', least=2)
    ys = _numbers('ys', ys, domain='(0, inf)', least=2)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise InvalidArgument("xs and ys must be two lists of one length, "
                              "got shapes %r and %r" % (xs.shape, ys.shape))
    lx, ly = np.log(xs), np.log(ys)
    A = np.stack([lx, np.ones_like(lx)], axis=-1)
    coef, _, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(np.mean((A @ coef - ly) ** 2)))
    return FitResult(slope=float(coef[0]), intercept=float(coef[1]),
                     residual=resid, npoints=int(xs.size))


def characteristic_radii(xi, mat):
    """Flavor norms whose level-|omega| sets are the singular spheres."""
    return symbol._qnorms(symbol._wavevectors(xi, mat), mat.sphere_qforms)


def on_sphere_frequency(grid, mat):
    """A frequency equal to the flavor radius of the interior lattice
    mode nearest 3, so that mode sits exactly on the first
    characteristic sphere."""
    xi = grid.xi_flat()
    rho = characteristic_radii(xi, mat)[0]
    good = (rho > 0) & (rho < grid.n // 4)
    idx = np.nonzero(good)[0]
    if idx.size == 0:
        raise GridTooCoarse("no lattice flavor radius lies in (0, %d)"
                            % (grid.n // 4))
    pick = idx[np.argmin(np.abs(rho[idx] - 3.0))]
    return float(rho[pick])


def off_sphere_frequency(grid, mat, near=3.0):
    """A frequency maximally separated from every lattice flavor radius
    in a unit window around ``near``, a finite number."""
    _real('near', near, '(-inf, inf)')
    xi = grid.xi_flat()
    radii = np.concatenate([r.ravel() for r in characteristic_radii(xi, mat)])
    radii = np.unique(radii[(radii > 0) & (radii < grid.n // 2)])
    if radii.size == 0:
        raise GridTooCoarse("no lattice flavor radius lies in (0, %d)"
                            % (grid.n // 2))
    cand = np.linspace(near - 0.5, near + 0.5, 1001)
    # the nearest radius is one of the two sorted neighbours
    pos = np.searchsorted(radii, cand)
    below = np.abs(cand - radii[np.maximum(pos - 1, 0)])
    above = np.abs(cand - radii[np.minimum(pos, radii.size - 1)])
    dist = np.minimum(below, above)
    return float(cand[np.argmax(dist)])


def _annulus_modes(xi, omega, mat, thickness):
    """Indices of the lattice modes whose first flavor radius lies within
    ``thickness`` of |omega|, and those radii."""
    rho = characteristic_radii(xi, mat)[0]
    sel = np.nonzero((np.abs(rho - abs(omega)) < thickness) & (rho > 0))[0]
    if sel.size == 0:
        raise GridTooCoarse("annulus contains no lattice modes; "
                            "increase the thickness")
    return sel, rho[sel]


def _polarized(grid, omega, mat, sel, amps):
    """The current with amps_i times the singular eigenvector of the first
    characteristic sphere at lattice mode sel_i, and 0 elsewhere."""
    m = symbol._eigen_basis(grid.xi_flat()[sel], mat)[0]
    col = multiplier._singular_columns(abs(omega), mat)[0]
    c = np.zeros((m.shape[-1], grid.npoints), dtype=complex)
    c[:, sel] = (m[:, :, col] * amps[:, None]).T
    return spectral.Field.from_coeffs(
        grid, c.reshape((-1,) + (grid.n,) * grid.dim))


def annulus_source(grid, omega, mat, thickness=1.0, rng=None):
    """Current supported on a thin spectral annulus around the first
    characteristic sphere, polarized along the singular eigenvector.

    Modes whose flavor radius lies within ``thickness`` of |omega| get
    the eigenvector column whose eigenvalue is i(omega - rho); on those
    modes the resolvent acts as the scalar 1/(i(omega - rho)).
    """
    _frequency(omega)
    _real('thickness', thickness, '(0, inf)')
    sel, _ = _annulus_modes(grid.xi_flat(), omega, mat, thickness)
    amps = np.ones(sel.size, dtype=complex)
    if rng is not None:
        amps = np.exp(2j * np.pi * rng.random(sel.size))
    return _polarized(grid, omega, mat, sel, amps)


def knapp_source(grid, omega, mat):
    """Current concentrated on a cap of the characteristic sphere.

    The cap sits around the third frequency axis with angular width
    theta = |omega|^(-1/2) and radial thickness tau = dist(omega, R),
    at least 0.75; the spectral profile is a smooth window in both
    variables, polarized along the singular eigenvector of the
    euclidean-sphere flavor.  omega must be nonzero.
    """
    omega = complex(_frequency(omega))
    if omega == 0:
        raise InvalidArgument("omega must be nonzero for the cap source, "
                              "got %r" % (omega,))
    if mat.dim != 3:
        raise InvalidArgument("the cap construction is three-dimensional")
    lam = abs(omega)
    theta = lam ** -0.5
    tau = max(abs(omega.imag), 0.75)    # resolve at least one lattice shell
    xi = grid.xi_flat()
    rho = characteristic_radii(xi, mat)[0]
    n = np.sqrt(np.einsum('ki,ki->k', xi, xi))
    with np.errstate(invalid='ignore', divide='ignore'):
        ang = np.arccos(np.clip(np.abs(xi[:, 2]) / np.where(n > 0, n, 1.0),
                                -1, 1))
    window = (np.exp(-0.5 * ((rho - lam) / tau) ** 2)
              * np.exp(-0.5 * (ang / theta) ** 2))
    window[(n == 0) | (ang > 3 * theta)
           | (np.abs(rho - lam) > 3 * tau)] = 0.0
    sel = np.nonzero(window > 0)[0]
    if sel.size == 0:
        raise GridTooCoarse("cap contains no lattice modes")
    return _polarized(grid, omega, mat, sel, window[sel])


def norm_scaling_probe(pair, mat, family, omegas, grid, vary='dist',
                       rng=None):
    """Fit the growth of ||solve(omega)J||_q / ||J||_p over a family.

    family 'radial' uses the spectral annulus source, 'knapp' the cap
    source.  vary selects the fit abscissa: 'dist' fits against
    dist(omega, R) at comparable modulus, 'modulus' against |omega|.
    The families are lower-bound witnesses: fitted slopes may fall short
    of the predicted exponent but should not exceed it.
    """
    if vary not in ('dist', 'modulus'):
        raise InvalidArgument("vary must be 'dist' or 'modulus'")
    xs, ys = [], []
    omegas = _numbers('omegas', omegas, 'iufc')
    if not np.all(np.isfinite(omegas) & (omegas.imag != 0)):
        raise InvalidArgument("omegas must be finite and off the real axis, "
                              "got %r" % (omegas,))
    for omega in omegas:
        omega = complex(omega)
        if family == 'radial':
            J = annulus_source(grid, abs(omega), mat, rng=rng)
        elif family == 'knapp':
            J = knapp_source(grid, omega, mat)
        else:
            raise InvalidArgument("family must be 'radial' or 'knapp'")
        u = spectral.solve(omega, J, mat)
        ratio = (spectral.lebesgue_norm(u, pair.q)
                 / spectral.lebesgue_norm(J, pair.p))
        xs.append(abs(omega.imag) if vary == 'dist' else abs(omega))
        ys.append(ratio)
    return loglog_fit(xs, ys), np.array(xs), np.array(ys)

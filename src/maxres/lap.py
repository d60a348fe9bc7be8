"""Limiting absorption: the resolvent at real frequency.

lap_parts gives both boundary values P_(+-)(omega) J, real omega != 0,
as one pair: P_(+-) J = common +- jump; lap_solve picks a sign.  Its two
routes compute different objects on lattice content near a
characteristic sphere, and agree only when J has none within relative
flavor distance MARGIN of every sphere:

* ``extrapolate`` (a name kept from an earlier, extrapolating version
  of the route) gives the periodic limit lim P(omega +- i0)^{-1} on the
  lattice.  The periodic operator has pure point spectrum, so when no
  mode of J lies on a characteristic sphere both limits are the
  real-frequency lattice inverse P(omega)^{-1} J, one _solve_coeffs
  pass, and the jump is exactly 0.
* ``quadrature`` keeps the lattice inverse away from the spheres and
  replaces the near-sphere lattice values with the continuum principal
  value plus +-i*pi times the coarea measure of the semidiscrete
  transform on each sphere (the Sokhotsky-Plemelj split): the smooth
  background acts on the lattice, the singular scalars
  1/(i(omega - rho)) are evaluated with off-grid quadrature nodes.  The
  surface term is the jump.  Both weight each node by the eigenprojector
  of the sphere's singular column, multiplier._apply on the identity
  with that column's indicator, once per direction of the sphere rule:
  it is zero-homogeneous.  In 3D the sphere rule's pole is the axis
  xi_1, where the spheres touch; lattice modes on the axis stay out of
  the split and take the lattice inverse whole.

lap_parts and surface_terms share one entry, which finds each mode's
distance to the spheres once for the MARGIN split and for the refusal,
with OnSingularSet, of a nonzero mode of J within relative flavor
distance ON_SPHERE of a sphere that its route cannot take: on the
lattice route any such mode, where the periodic limit does not exist;
on the quadrature route an axis one, which bypasses the split.

Each off-grid output (the principal values of all spheres, or their
surface terms) is one separable transform over its terms' nodes, taken
in rings: a ring is one (radius, polar) pair of the sphere rule, whose
2 n_sphere azimuth nodes share xi_1, and in 2D a single node.  Every
phase table e^{i x xi} is kept on the half grid of H = n/2 + 1 axis
coordinates x >= 0 and -L/2 only, as real (cos, sin) pairs: the other
rows are mirrors, e^{-i x xi} = conj(e^{i x xi}).  The forward half
reads the source's coefficients on their per-axis support S_a only
(near-sphere content spans about 10 indices per axis) through Dirichlet
kernels, one real GEMM of each table against the lattice phases folded
onto the half grid (4 H |S_a| real multiply-adds per row), summed over
k_1 once per ring, ncomp * prod |S_a| complex multiply-adds, then over
the later axes per node, ncomp * |S_2| |S_3| in 3D.  The synthesis half
sums (cos, sin)^d blocks on the half grid with real GEMMs: each ring's
plane over the later axes, 8 ncomp H^2 real multiply-adds per node in
3D, then one GEMM of the axis-1 table over the rings, 16 ncomp H^3 per
ring in 3D and 8 ncomp H^2 per node in 2D; the grid is unfolded from the
blocks once per output.  Per node that is 8 ncomp H^2 (1 + H / n_sphere)
real multiply-adds in 3D and 8 ncomp H^2 in 2D, about half the
4 ncomp n^2 (1 + n / (2 n_sphere)) of full complex tables.

Scalar model operators (e_delta, pv_part, surface_part) expose the same
machinery for a single flavor norm, which is where the Sokhotsky limit
e_delta -> pv + i*pi*(surface) is quantitatively verified.  The blow-up
probe reuses the eigenbasis too: its plane-wave samples are
eigenvectors, so its norm ratios are closed forms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (GridTooCoarse, InvalidArgument, MethodsDisagree,
                     OnSingularSet, QuadratureNotConverged)
from .spectral import TAU
from . import materials, multiplier, region, spectral, symbol

MARGIN = 0.35
ON_SPHERE = 1e-12


# ---------------------------------------------------------------------------
# smooth radial cutoff

def _smooth_step(t):
    """C-infinity step: 1 for t <= 0, 0 for t >= 1."""
    t = np.asarray(t, dtype=float)
    lo = np.clip(1.0 - t, 1e-300, None)
    hi = np.clip(t, 1e-300, None)
    with np.errstate(over='ignore'):
        f_lo = np.where(t < 1, np.exp(-1.0 / lo), 0.0)
        f_hi = np.where(t > 0, np.exp(-1.0 / hi), 0.0)
    out = np.where(t <= 0, 1.0, np.where(t >= 1, 0.0, f_lo / (f_lo + f_hi)))
    return out


@dataclass(frozen=True)
class CutoffSpec:
    """Radial bump: 1 on ||xi|| <= r_in, 0 on ||xi|| >= r_out."""

    r_in: float
    r_out: float

    def __post_init__(self):
        for name in ('r_in', 'r_out'):
            materials._real(name, getattr(self, name))
        if not 0 < self.r_in < self.r_out < np.inf:
            raise InvalidArgument("need 0 < r_in < r_out < inf, got r_in = "
                                  "%r, r_out = %r" % (self.r_in, self.r_out))

    def radial(self, r):
        return _smooth_step((np.asarray(r, dtype=float) - self.r_in)
                            / (self.r_out - self.r_in))

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.radial(np.sqrt(np.einsum('...i,...i->...', xi, xi)))


def _band_cutoff(grid):
    """Default bump of the scalar model operators: plateau to 0.55 and
    support to 0.95 of the grid's band radius pi n / L."""
    return CutoffSpec(0.55 * np.pi * grid.n / grid.length,
                      0.95 * np.pi * grid.n / grid.length)


def default_cutoff(grid, omega, mat):
    """Plateau past every characteristic sphere, support inside the
    frequency band of the grid."""
    # largest euclidean radius of the unit sphere of any flavor norm
    stretch = max(1.0 / np.sqrt(np.linalg.eigvalsh(q).min())
                  for q in mat.sphere_qforms)
    r_in = 1.3 * abs(omega) * stretch
    r_out = _band_cutoff(grid).r_out
    if r_in >= r_out:
        raise GridTooCoarse("grid band too small for the cutoff plateau: "
                            "r_in=%g >= r_out=%g; increase n"
                            % (r_in, r_out))
    return CutoffSpec(r_in, r_out)


# ---------------------------------------------------------------------------
# quadrature geometry

def sphere_quadrature(dim, n):
    """Nodes and coefficients of a quadrature rule on the euclidean unit
    sphere.

    2D: n-point trapezoid rule on the circle (spectrally accurate).
    3D: n-point Gauss-Legendre in xi_1 times a 2n-point trapezoid rule in
    the azimuth about it, so the pole is the distinguished axis and no
    node lies on it (Gauss-Legendre has no node at +-1).
    """
    if dim == 2:
        th = TAU * np.arange(n) / n
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return pts, np.full(n, TAU / n)
    c, wc = np.polynomial.legendre.leggauss(n)
    phi = TAU * np.arange(2 * n) / (2 * n)
    s = np.sqrt(1.0 - c ** 2)
    pts = np.stack([np.outer(c, np.ones_like(phi)),
                    np.outer(s, np.cos(phi)),
                    np.outer(s, np.sin(phi))], axis=-1).reshape(-1, 3)
    w = np.outer(wc, np.full(phi.shape, TAU / (2 * n))).ravel()
    return pts, w


# ---------------------------------------------------------------------------
# semidiscrete transform at off-grid wavevectors

# real entries of each per-ring intermediate in one block of rings (4 MiB):
# the (per_ring, 4 ncomp H) products a (x) T_d and, in 3D, the
# (2H, 4 ncomp H) planes, H = n/2 + 1.  lap_parts at 3D 16^3 and 2D 128^2
# (the bench's lap_quad grids) timed within 10 % from 2^18 to 2^21, and
# best about here
_CHUNK = 1 << 19


def _half_table(grid, xi):
    """e^{i x xi} on the half grid x = h (0, 1, ..., n/2 - 1, -n/2), of
    shape xi.shape + (n/2 + 1,).  The grid is a tensor product, so both
    transform directions are real BLAS products with the float views of
    these tables, pairs (cos, sin), and no (grid points x nodes) phase
    matrix is formed.

    Grid coordinates are taken centered in [-L/2, L/2); this halves the
    largest phase gradient and with it the node counts the sphere and
    radial rules need.  The half grid is the storage-order rows 0..n/2;
    the rows n/2 + 1..n - 1 are the mirrors -x of rows n/2 - 1..1, whose
    phases are the conjugates (_fold, _unfold).  Row r is the product of
    e^{i 2^b h xi} over the bits b of r, at most log2(n) - 1 factors:
    one exp per bit, the top one for the row -L/2."""
    n, h = grid.n, grid.length / grid.n
    xi = np.asarray(xi, dtype=float)
    t = np.empty(xi.shape + (n // 2 + 1,), dtype=complex)
    t[..., 0] = 1.0
    m = 1
    while m < n // 2:
        np.multiply(t[..., :m], np.exp(1j * (m * h) * xi)[..., None],
                    out=t[..., m:2 * m])
        m *= 2
    t[..., -1] = np.exp(-1j * (m * h) * xi)
    return t


def _fold(n, s):
    """The lattice phases e^{-i x xi_k} / n, k in the storage indices s,
    folded onto the half grid: a real (2 (n/2 + 1), 2 |s|) matrix F with
    (T_h.view(float) @ F).view(complex) = conj(T @ lat) for a half table
    T_h and its full storage-order table T.  A mirrored row pair -x, x
    adds T lat + conj(T lat) = 2 Re(T lat); the rows 0 and -L/2 have no
    mirror."""
    # x_m xi_k = 2 pi m k / n for lattice xi_k, centered or not
    roots = np.exp(-1j * TAU * np.arange(n) / n) / n
    lat = roots[np.outer(np.arange(n // 2 + 1), s) % n]
    ends = np.zeros((n // 2 + 1, 1))
    ends[[0, -1]] = 1.0
    inner = 2.0 - ends
    # rows (x, cos | sin), columns (k, re | im) of the conjugate
    return np.stack([np.stack([inner * lat.real, -ends * lat.imag], -1),
                     np.stack([-inner * lat.imag, -ends * lat.real], -1)],
                    1).reshape(n + 2, 2 * len(s))


def _unfold(g, axis, pair):
    """The storage-order grid axis from a half-grid one: g holds rows of
    the half grid at ``axis`` and their (cos, sin) parts C, S at ``pair``;
    rows x >= 0 and -L/2 take C + iS, the mirrored rows C - iS."""
    c, s = np.moveaxis(g, pair, 0)
    s = 1j * s
    axis -= pair < axis
    h = c.shape[axis]
    out = np.empty(c.shape[:axis] + (2 * h - 2,) + c.shape[axis + 1:],
                   dtype=complex)
    rows = (slice(None),) * axis
    np.add(c, s, out=out[rows + (slice(None, h),)])
    np.subtract(c[rows + (slice(-2, 0, -1),)], s[rows + (slice(-2, 0, -1),)],
                out=out[rows + (slice(h, None),)])
    return out


def _ring_blocks(grid, ncomp, xi, n_polar=1):
    """Per block of the rings xi (rings, per_ring, d), (slice, tabs):
    tabs[0] = the half table of xi_1 once per ring, (rings, n/2 + 1), and
    for each later axis a the per-node half table (rings, per_ring,
    n/2 + 1).  A block holds about _CHUNK entries of each per-ring
    intermediate, in whole radii of n_polar rings."""
    half, per_ring = grid.n // 2 + 1, xi.shape[1]
    # at least 2 (n/2 + 1) rings, so that the axis-1 GEMM of _apply_offgrid
    # reads no more of its accumulator than of the planes
    step = n_polar * max(-(-2 * half // n_polar), _CHUNK // (
        4 * ncomp * half * (per_ring + 2 * half * (grid.dim - 2)) * n_polar))
    for st in range(0, len(xi), step):
        x = xi[st:st + step]
        yield slice(st, st + len(x)), [_half_table(grid, x[:, 0, 0])] + [
            _half_table(grid, x[:, :, a]) for a in range(1, grid.dim)]


def _support_block(f):
    """f's coefficient block on its per-axis support S_a (spectral.Field)
    as (|S_1|, prod cols) with the components moved before the last axis,
    cols = (|S_2|, ..., ncomp, |S_d|), and per axis the lattice phases on
    S_a folded onto the half grid (_fold)."""
    kept = np.moveaxis(f._kept, 0, -2)
    return (kept.reshape(len(kept), np.prod(kept.shape[1:])), kept.shape[1:],
            [_fold(f.grid.n, s) for s in f._sup])


def _forward(cb, tabs):
    """(1/N) sum_j f(x_j) e^{-i x_j xi_p} at the nodes of a block of rings,
    (rings, per_ring, ncomp), from f's coefficient block (_support_block):
    sum_k c_k prod_a D_a[p, k_a] with the Dirichlet kernels
    D_a = conj(T_a @ lat_a), one real GEMM of the half tables against the
    folded phases, summed over k_1 once per ring (one GEMM) and over the
    later axes per node."""
    block, cols, folds = cb
    ds = [(t.view(float).reshape(-1, len(f)) @ f).view(complex).reshape(
        t.shape[:-1] + (f.shape[1] // 2,)) for t, f in zip(tabs, folds)]
    rings, per_ring = ds[1].shape[:2]
    g = (ds[0] @ block).reshape((rings,) + cols)
    if len(ds) == 3:        # over k_2: (rings, per_ring, ncomp, |S_3|)
        g = (ds[1] @ g.reshape(rings, cols[0], cols[1] * cols[2])).reshape(
            (rings, per_ring) + cols[1:])
    else:
        g = g[:, None]
    return (g @ ds[-1][..., None])[..., 0]


def offgrid_transform(f, xi_pts):
    """Semidiscrete transform (1/N) sum_j f(x_j) e^{-i x_j xi} at
    arbitrary wavevectors xi_pts (npts, d), of shape (ncomp, npts); exact
    coefficients for band-limited f."""
    xi = np.asarray(xi_pts, dtype=float)[:, None]     # rings of one
    cb = _support_block(f)
    out = np.empty((f.ncomp, len(xi)), dtype=complex)
    for sl, tabs in _ring_blocks(f.grid, f.ncomp, xi):
        out[:, sl] = _forward(cb, tabs)[:, 0].T
    return out


def _apply_offgrid(J, terms):
    """sum_p coeffs_p W_p Jhat(xi_p) e^{i x xi_p} over the nodes of every
    term (xi, coeffs, weights) of _polar_points, in rings (rings,
    per_ring, d) whose nodes share xi_1, coeffs (rings, per_ring).  The
    weights W, (n_polar, per_ring, ncomp, ncomp) or None, are one per
    direction: the rings come in radii of n_polar rings, and every radius
    shares them.

    The synthesis sums real (cos, sin)^d blocks on the half grid into one
    accumulator: with a = coeffs W Jhat as (re, im) pairs, each ring's
    plane over the later axes, in 3D T_2^T (a (x) T_3) by a batched matmul
    over the ring's nodes (in 2D a ring is one node, whose plane is
    a (x) T_2), then one GEMM of the axis-1 table over the rings.  The
    grid (n, ..., ncomp, n) is unfolded once per output (_unfold)."""
    grid, ncomp = J.grid, J.ncomp
    half = grid.n // 2 + 1
    # (x_1, cos | sin, [x_2, cos | sin,] ncomp, re | im, cos | sin, x_d)
    blocks = (half, 2) * (grid.dim - 1) + (ncomp, 2, 2, half)
    acc = np.zeros((2 * half, np.prod(blocks[2:])))
    cb = _support_block(J)
    for xi, coeffs, weights in terms:
        n_polar = 1 if weights is None else len(weights)
        for sl, tabs in _ring_blocks(grid, ncomp, xi, n_polar):
            v = _forward(cb, tabs)
            if weights is not None:     # broadcast over the block's radii
                v = (weights @ v.reshape((-1,) + weights.shape[:-1] + (1,))
                     ).reshape(v.shape)
            a = (v * coeffs[sl][..., None]).view(float)
            # (rings, per_ring, ncomp re | im, cos | sin x_d)
            t = np.ascontiguousarray(tabs[-1].view(float).reshape(
                tabs[-1].shape + (2,)).swapaxes(-1, -2))
            plane = np.einsum('rpi,rpkx->rpikx', a, t)
            plane = plane.reshape(plane.shape[:2] + (-1,))
            if grid.dim == 3:
                plane = tabs[1].view(float).swapaxes(1, 2) @ plane
            acc += tabs[0].view(float).T @ plane.reshape(len(plane), -1)
    acc = acc.reshape(blocks)
    g = acc[..., 0, :, :] + 1j * acc[..., 1, :, :]
    g = _unfold(g, g.ndim - 1, g.ndim - 2)
    for axis in range(2 * grid.dim - 4, -1, -2):     # x_(d-1), ..., x_1
        g = _unfold(g, axis, axis + 1)
    return spectral.Field(grid, np.moveaxis(g, -2, 0))


# ---------------------------------------------------------------------------
# radial-singular continuum quadrature

def _gauss(lo, hi, n):
    """n-point Gauss-Legendre nodes and weights on (lo, hi)."""
    s, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * (s + 1.0) + lo, 0.5 * (hi - lo) * w


def _radial_nodes(r0, r_max, n_radial, window=None, pole=None):
    """The radial rule of every LAP integral: (radii, coefficients c_i)
    with int_0^{r_max} g(r) / (r - pole) dr ~= sum_i c_i g(r_i), a
    principal value at the default pole r0.

    Around r0 it takes a middle of half-width T: n_radial Gauss-Legendre
    nodes t on (0, T) paired as r0 +- t; at the complex pole r0 + i s
    delta of e_delta, 2 n_radial nodes in u of r = r0 + delta sinh(u),
    which resolves the delta-wide layer.  Without a window, T = min(r0,
    r_max - r0) / 2 and plain n_radial-node tails cover the rest of
    (0, r_max).
    A window T keeps only the pairing, under a smooth taper even in t, so
    the integrand stays a principal value.  The taper is 1 up to T / 2
    and not analytic there, so the pairing is split at T / 2: ceil(n / 2)
    nodes below and floor(n / 2) above, none for n = 1."""
    T = (0.5 * min(r0, max(r_max - r0, 1e-9)) if window is None
         else min(window, 0.99 * r0))
    if not T >= np.finfo(float).tiny:     # 0 / 0 or subnormal coefficients
        raise InvalidArgument("omega = %r leaves the radial rule a "
                              "half-width of %r" % (r0, T))
    pole = r0 if pole is None else pole
    if pole != r0:
        delta, sign = abs(pole.imag), np.sign(pole.imag)
        S = np.arcsinh(T / delta)
        u, wu = _gauss(-S, S, 2 * n_radial)
        sh = np.sinh(u)
        radii, coefs = [r0 + delta * sh], [wu * np.cosh(u) / (sh - 1j * sign)]
    else:
        if window is None:
            t, wt = _gauss(0.0, T, n_radial)
        else:
            t, wt = map(np.concatenate, zip(*[
                _gauss(lo, hi, m) for lo, hi, m in (
                    (0.0, T / 2, n_radial - n_radial // 2),
                    (T / 2, T, n_radial // 2)) if m]))
            wt = wt * _smooth_step(2.0 * t / T - 1.0)
        radii, coefs = [r0 + t, r0 - t], [wt / t, -wt / t]
    tails = ([(0.0, min(r0 - T, r_max)), (r0 + T, r_max)] if window is None
             else [])
    for lo, hi in tails:
        if hi - lo >= 1e-12:
            r, w = _gauss(lo, hi, n_radial)
            radii.append(r)
            coefs.append(w / (r - pole))
    return np.concatenate(radii), np.concatenate(coefs)


def _polar_points(radii, coefs, qform, beta, grid, n_sphere, weight=None):
    """(points, coefficients, weights) of the polar rule on the radii,
    with the coarea volume element, the cutoff and the continuum
    reproduction scale (L / 2 pi)^d folded into the coefficients.

    The points come in rings, (rings, per_ring, d) with coefficients
    (rings, per_ring): a ring is one (radius, polar) pair of the 3D rule,
    whose 2 n_sphere azimuth nodes share xi_1 because every 3D qform here
    is canonical, diag(a, b, b); in 2D each node is a ring of one.  A
    radius, n_sphere rings, is dropped only if all its coefficients are
    0.  The projectors are zero-homogeneous, so every radius shares the
    weights on the rule's directions, _column_weight(dirs, *weight) of
    shape (n_sphere, per_ring, ncomp, ncomp), or None."""
    u, w = sphere_quadrature(grid.dim, n_sphere)
    lam, V = np.linalg.eigh(np.asarray(qform, dtype=float))
    dirs = (u @ ((V / np.sqrt(lam)) @ V.T).T).reshape(n_sphere, -1, grid.dim)
    pts = radii[:, None, None, None] * dirs     # dirs: unit flavor radius
    dets = np.linalg.det(np.asarray(qform, float)) ** -0.5
    cf = ((coefs * radii ** (grid.dim - 1))[:, None] * (dets * w)).reshape(
        pts.shape[:3]) * beta(pts) * (grid.length / TAU) ** grid.dim
    keep = np.any(cf != 0, axis=(1, 2))
    return (pts[keep].reshape((-1,) + dirs.shape[1:]),
            cf[keep].reshape(-1, dirs.shape[1]),
            None if weight is None else _column_weight(dirs, *weight))


# ---------------------------------------------------------------------------
# scalar model operators

def _model_args(f, omega, beta, flavor, mat, n_sphere, n_radial=None):
    """(beta, qform, n_sphere) of a scalar model operator at omega > 0,
    with the band cutoff and 192 (2D) or 16 (3D) sphere nodes by default;
    the node counts given must be positive integers."""
    if not symbol._frequency(omega, real=True) > 0:
        raise InvalidArgument("need omega > 0")
    for name, value in (('n_sphere', n_sphere), ('n_radial', n_radial)):
        if value is not None:
            spectral._count(name, value)
    dim = f.grid.dim
    return (_band_cutoff(f.grid) if beta is None else beta,
            spectral._flavor_qform(flavor, mat, dim),
            (192 if dim == 2 else 16) if n_sphere is None else n_sphere)


def e_delta(f, omega, delta, sign=+1, beta=None, flavor='euclidean',
            mat=None, method='lattice', n_sphere=None, n_radial=32):
    """The regularized scalar operator with multiplier
    beta(xi) / (||xi||_flavor - (omega + i*sign*delta)).

    'lattice' evaluates the multiplier on the frequency lattice (exact
    for band-limited f); 'quadrature' evaluates the continuum integral
    of the semidiscrete transform, resolving the delta-width layer at
    the singular radius with a sinh substitution.
    """
    materials._real('delta', delta)
    if not 0 < delta < 0.5:
        raise InvalidArgument("need 0 < delta < 1/2")
    spectral._sign(sign)
    beta, qform, n_sphere = _model_args(f, omega, beta, flavor, mat,
                                        n_sphere, n_radial)
    if method == 'lattice':
        c, xi = spectral._modes(f)
        mult = beta(xi) / (symbol._qnorm(xi, qform)
                           - (omega + 1j * sign * delta))
        return spectral._like(f, c * mult)
    if method != 'quadrature':
        raise InvalidArgument("method must be 'lattice' or 'quadrature'")
    return _apply_offgrid(f, [_radial_term(f.grid, omega, beta, qform,
                                           n_sphere, n_radial,
                                           pole=omega + 1j * sign * delta)])


def _radial_term(grid, omega, beta, qform, n_sphere, n_radial, weight=None,
                 window=None, pole=None):
    """The _polar_points term of the radial rule _radial_nodes at omega,
    on (0, r_max) with r_max the largest euclidean radius of the cutoff's
    support."""
    r_max = beta.r_out * np.sqrt(np.linalg.eigvalsh(
        np.asarray(qform, float)).max())
    radii, coefs = _radial_nodes(omega, r_max, n_radial, window, pole)
    return _polar_points(radii, coefs, qform, beta, grid, n_sphere, weight)


def pv_part(f, omega, beta=None, flavor='euclidean', mat=None,
            n_sphere=None, n_radial=32, tol=None):
    """Principal value of the continuum integral with multiplier
    beta(xi)/(||xi||_flavor - omega), by symmetric pairing around the
    singular radius.  With ``tol`` set (finite, > 0), the node counts are
    doubled and QuadratureNotConverged is raised if the result moves by
    more."""
    beta, qform, n_sphere = _model_args(f, omega, beta, flavor, mat,
                                        n_sphere, n_radial)
    if tol is not None and not 0 < materials._real('tol', tol) < np.inf:
        raise InvalidArgument("tol must be finite and > 0, got %r" % (tol,))
    out = _apply_offgrid(f, [_radial_term(f.grid, omega, beta, qform,
                                          n_sphere, n_radial)])
    if tol is not None:
        fine = _apply_offgrid(f, [_radial_term(f.grid, omega, beta, qform,
                                               2 * n_sphere, 2 * n_radial)])
        drift = spectral.lebesgue_norm(fine - out, 2)
        scale = max(spectral.lebesgue_norm(fine, 2), 1e-300)
        if drift > tol * scale:
            raise QuadratureNotConverged(
                "doubling nodes moved pv_part by %.3e relative" %
                (drift / scale))
        return fine
    return out


def surface_part(f, omega, beta=None, flavor='euclidean', mat=None,
                 sign=+1, n_sphere=None):
    """sign * i * pi times the surface integral of beta * fhat over the
    characteristic sphere, synthesized on the grid; sign is +1 or -1."""
    spectral._sign(sign)
    beta, qform, n_sphere = _model_args(f, omega, beta, flavor, mat,
                                        n_sphere)
    return _apply_offgrid(f, [_polar_points(
        np.asarray([omega], float), np.array([sign * 1j * np.pi]), qform,
        beta, f.grid, n_sphere)])


# ---------------------------------------------------------------------------
# full limiting-absorption solves

def _real_resolvent(omega, xi, mat):
    """The scalar resolvents d^{-1} at real omega, one per eigenbasis
    column; unused in maxres, kept because bench/tracing.py wraps it."""
    return multiplier._scalar_resolvents(omega,
                                         symbol._eigen_basis(xi, mat)[2])


def _column_weight(xi, mat, col, scale):
    """scale m[:, col] m^{-1}[col, :] at xi (..., d), (..., ncomp, ncomp):
    _apply on the identity with w = scale on column col, 0 elsewhere."""
    w = scale * np.eye(3 * (mat.dim - 1))[col]
    return multiplier._apply(xi, np.eye(len(w), dtype=complex), mat,
                             lambda rho: w)


def _sphere_distance(xi, omega, mat):
    """Flavor distance of each wavevector xi to the nearest characteristic
    sphere at real omega; the zero vector lies at |omega|."""
    return np.min([np.abs(rho - abs(omega))
                   for rho in region.characteristic_radii(xi, mat)], axis=0)


def _entry(omega, J, mat, method):
    """The start of lap_parts and surface_terms on the route ``method``:
    checks omega, method and J, maps J into the canonical frame once and
    refuses a mode on a sphere (see the module docstring) by each held
    mode's _sphere_distance, computed once.  Returns (omega, canonical
    material, canonical J, record, distances)."""
    omega = symbol._frequency(omega, real=True)
    if method not in ('quadrature', 'extrapolate'):
        raise InvalidArgument("method must be 'quadrature' or 'extrapolate'")
    spectral._maxwell(J, mat)
    canon, Jc, record = symbol.canonicalize(mat, J)
    c, xi = spectral._modes(Jc)
    dist = _sphere_distance(xi, omega, canon)
    on = spectral._support(c) & (dist < ON_SPHERE * abs(omega))
    if method == 'quadrature':
        on &= symbol.on_axis(xi)            # the split takes the others
    if np.any(on):
        k = np.rint(xi[on][0] * J.grid.length / TAU).astype(int)
        raise OnSingularSet(
            "omega = %g puts the lattice mode %s on a characteristic "
            "sphere, where the real-frequency symbol is singular"
            % (omega, tuple(int(k[p]) for p in record.inv_perm[:J.grid.dim])))
    return omega, canon, Jc, record, dist


def _quadrature_parts(omega, J, mat, dist, n_sphere, n_radial):
    """lap_parts' quadrature route on the canonical J, whose held modes lie
    at distances dist from the spheres (_entry): (common, surface),
    surface = surface_terms(sign=+1); n_radial=None computes no
    principal value and gives common None."""
    grid = J.grid
    if n_sphere is None:
        n_sphere = 160 if grid.dim == 2 else 12
    spectral._count('n_sphere', n_sphere)
    beta = default_cutoff(grid, omega, mat)
    c, xi = spectral._modes(J)
    # axis modes bypass the split: off the spheres the lattice inverse is
    # their limit
    near = (dist < MARGIN * abs(omega)) & ~symbol.on_axis(xi)
    common = None
    if n_radial is not None:
        # the real-frequency inverse off the spheres and at the zero mode,
        # the smooth background near them
        common = spectral._like(J, spectral._solve_coeffs(omega, J, mat,
                                                          drop=near))
    if not np.any(near):
        return common, spectral.Field.zeros(grid, J.ncomp)
    # held on its own support, which the off-grid forward reads
    J_near = spectral._like(J, np.where(near, c, 0), tight=True)
    # 1/(i(omega -+ rho)) = (+-i) / (rho - |omega|) near the sphere
    pv_sign = 1j if omega > 0 else -1j
    pv, surface = [], []
    for col, qform in zip(multiplier._singular_columns(omega, mat),
                          mat.sphere_qforms):
        if n_radial is not None:
            pv.append(_radial_term(
                grid, abs(omega), beta, qform, n_sphere, n_radial,
                weight=(mat, col, pv_sign), window=2.0 * MARGIN * abs(omega)))
        surface.append(_polar_points(np.array([abs(omega)]), np.array(
            [-np.pi]), qform, beta, grid, n_sphere, (mat, col, 1.0)))
    if pv:
        common = common + _apply_offgrid(J_near, pv)
    return common, _apply_offgrid(J_near, surface)


def lap_parts(omega, J, mat, method='quadrature', n_sphere=None,
              n_radial=24):
    """Both limiting-absorption solutions at real omega as one pair
    (common, jump), P_(+-)(omega) J = common +- jump, by the route
    ``method`` (see the module docstring).

    quadrature splits lattice modes within relative flavor distance
    MARGIN of a sphere, with default_cutoff and n_sphere by n_radial
    nodes; its jump is surface_terms(sign=+1).  extrapolate is
    the lattice inverse P(omega)^{-1} J with jump 0.  A mode of J on a
    sphere that the route cannot take raises OnSingularSet, naming the
    mode in the caller's axes."""
    omega, canon, Jc, record, dist = _entry(omega, J, mat, method)
    if method == 'quadrature':
        spectral._count('n_radial', n_radial)
        return tuple(map(record.backward_fields, _quadrature_parts(
            omega, Jc, canon, dist, n_sphere, n_radial)))
    u = spectral._like(Jc, spectral._solve_coeffs(omega, Jc, canon))
    return record.backward_fields(u), spectral.Field.zeros(J.grid, J.ncomp)


def lap_solve(omega, J, mat, sign=+1, method='quadrature', n_sphere=None,
              n_radial=24):
    """The limiting-absorption solution P_(+-)(omega) J at real omega:
    common + sign * jump of lap_parts, which describes the arguments;
    sign is +1 or -1."""
    spectral._sign(sign)
    common, jump = lap_parts(omega, J, mat, method, n_sphere, n_radial)
    return common + sign * jump


def surface_terms(omega, J, mat, sign=+1, n_sphere=None):
    """sign times the jump of lap_parts' quadrature route (all
    characteristic spheres), sign +1 or -1; no principal value is
    computed."""
    spectral._sign(sign)
    omega, canon, Jc, record, dist = _entry(omega, J, mat, 'quadrature')
    _, surface = _quadrature_parts(omega, Jc, canon, dist, n_sphere, None)
    return sign * record.backward_fields(surface)


def lap_blowup_probe(omega, pair, mat, deltas, grid):
    """Fit the growth of a resolvent-norm lower bound as delta -> 0.

    For each delta the bound is the best ratio ||u||_q / ||J||_p over
    single-mode currents polarized along the singular eigenvector, with
    wavevectors drawn from a spectral annulus of thickness 0.5 around
    the first characteristic sphere.  Returns (fit, deltas, ratios); the
    fitted slope is compared with -gamma of the Lebesgue pair.

    Each current is a plane wave along an eigenvector of the symbol, so
    u = w_c J with the scalar resolvent w_c(|omega| + i*delta) of the
    singular column c, and the ratio is |w_c| vol^(1/q - 1/p) in closed
    form (one eigenbasis, one _scalar_resolvents call per delta).  One
    grid solve, of the best mode at the smallest delta, checks it:
    MethodsDisagree if the two differ by more than 1e-10 relative.
    """
    omega = symbol._frequency(omega, real=True)
    deltas = materials._numbers('deltas', deltas)
    if deltas.size < 2 or not np.all((deltas > 0) & (deltas < np.inf)):
        raise InvalidArgument("need at least two finite deltas > 0, got %r"
                              % (deltas,))
    xi = grid.xi_flat()
    sel, radii = region._annulus_modes(xi, omega, mat, 0.5)
    sel = sel[np.argsort(np.abs(radii - abs(omega)))[:48]]
    col = multiplier._singular_columns(abs(omega), mat)[0]
    scale = grid.volume ** (pair.y - pair.x)
    omegas = abs(omega) + 1j * deltas
    rho = symbol._eigen_basis(xi[sel], mat)[2]
    w = np.array([np.abs(multiplier._scalar_resolvents(om, rho)[:, col])
                  for om in omegas])
    ratios = w.max(axis=1) * scale
    # the end-to-end check: the best plane wave at the smallest delta
    k = np.argmin(deltas)
    i = np.argmax(w[k])
    J = region._polarized(grid, omega, mat, sel[i:i + 1], np.ones(1))
    u = spectral.solve(omegas[k], J, mat)
    solved = (spectral.lebesgue_norm(u, pair.q)
              / spectral.lebesgue_norm(J, pair.p))
    if abs(solved - ratios[k]) > 1e-10 * ratios[k]:
        raise MethodsDisagree(
            "blow-up ratio at delta = %g: closed form %.17g, grid solve "
            "%.17g" % (deltas[k], ratios[k], solved))
    return region.loglog_fit(deltas, ratios), deltas, ratios

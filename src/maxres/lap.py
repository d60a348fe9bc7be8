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
  of the sphere's singular column, multiplier._apply with the indicator
  of that column.  In 3D the sphere rule's pole is the axis xi_1, where
  the spheres touch.

lap_parts and surface_terms share one entry, which finds each mode's
distance to the spheres once for the MARGIN split and for the refusal,
with OnSingularSet, of a nonzero mode of J within relative flavor
distance ON_SPHERE of a sphere that its route cannot take: on the
lattice route any such mode, where the periodic limit does not exist;
on the quadrature route a near-axis one, which bypasses the split.

Each off-grid term is one separable transform over its nodes, taken in
rings: a ring is one (radius, polar) pair of the sphere rule, whose
2 n_sphere azimuth nodes share xi_1, and in 2D a single node.  The
forward half reads the source's coefficients on their per-axis support
S_a only (near-sphere content spans about 10 indices per axis) through
Dirichlet kernels: over k_1 once per ring, ncomp * prod |S_a|
multiply-adds, then over the later axes per node, ncomp * |S_2| |S_3| in
3D.  The synthesis half writes the whole grid: each ring's plane over
the later axes, ncomp * n^(d-1) per node, then one GEMM of the axis-1
phases over the rings, ncomp * n^d per ring.  Per node that is
ncomp * (n^2 + n^3 / (2 n_sphere)) in 3D and ncomp * n^2 in 2D.

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
from . import multiplier, region, spectral, symbol

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

def _inv_sqrt_spd(Q):
    w, V = np.linalg.eigh(np.asarray(Q, dtype=float))
    return (V / np.sqrt(w)) @ V.T


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

# complex entries of each per-ring intermediate in one block of rings (16
# MiB): the (per_ring, ncomp, n) products and the (ncomp, n^(d-1)) planes
_CHUNK = 1 << 20


def _phase_table(grid, xi):
    """e^{i x xi} on the axis coordinates x, of shape xi.shape + (n,).
    The grid is a tensor product, so both transform directions are BLAS
    products with these tables and no (grid points x nodes) phase matrix
    is formed.

    Grid coordinates are taken centered in [-L/2, L/2); this halves the
    largest phase gradient and with it the node counts the sphere and
    radial rules need.  Blocks of s = 2^floor(log2(n)/2) coordinates never
    straddle L/2, so each table is the outer product of the phases at the
    block starts and at h * arange(s): n/s + s complex exps, not n."""
    n = grid.n
    s = 1 << (n.bit_length() - 1) // 2
    h = grid.length / n
    starts, offsets = h * grid.k_axis()[::s], h * np.arange(s)
    xi = np.asarray(xi, dtype=float)[..., None]
    return (np.exp(1j * xi * starts)[..., None]
            * np.exp(1j * xi * offsets)[..., None, :]).reshape(
                xi.shape[:-1] + (n,))


def _ring_blocks(grid, ncomp, xi):
    """Per block of the rings xi (rings, per_ring, d), (slice, tabs):
    tabs[0] = e^{i x xi_1} once per ring, (rings, n), and for each later
    axis a the per-node table (rings, per_ring, n).  A block holds about
    _CHUNK entries of each per-ring intermediate."""
    n, per_ring = grid.n, xi.shape[1]
    step = max(1, _CHUNK // (ncomp * (per_ring * n + n ** (grid.dim - 1))))
    for st in range(0, len(xi), step):
        x = xi[st:st + step]
        yield slice(st, st + len(x)), [_phase_table(grid, x[:, 0, 0])] + [
            _phase_table(grid, x[:, :, a]) for a in range(1, grid.dim)]


def _support_block(f):
    """f's coefficient block on its per-axis support S_a (spectral.Field)
    as (|S_1|, prod cols) with the components moved before the last axis,
    cols = (|S_2|, ..., ncomp, |S_d|), and per axis the lattice phases
    e^{-i x xi_k} / n, k in S_a, of shape (n, |S_a|)."""
    n, kept = f.grid.n, np.moveaxis(f._kept, 0, -2)
    # x_m xi_k = 2 pi m k / n for lattice xi_k, centered or not
    roots = np.exp(-1j * TAU * np.arange(n) / n) / n
    return (kept.reshape(len(kept), np.prod(kept.shape[1:])), kept.shape[1:],
            [roots[np.outer(np.arange(n), s) % n] for s in f._sup])


def _forward(cb, tabs):
    """(1/N) sum_j f(x_j) e^{-i x_j xi_p} at the nodes of a block of rings,
    (rings, per_ring, ncomp), from f's coefficient block (_support_block):
    sum_k c_k prod_a D_a[p, k_a] with the Dirichlet kernels
    D_a = conj(tabs_a @ lat_a), summed over k_1 once per ring (one GEMM)
    and over the later axes per node."""
    block, cols, lat = cb
    ds = [(t.reshape(-1, t.shape[-1]) @ l).conj().reshape(t.shape[:-1]
                                                           + l.shape[1:])
          for t, l in zip(tabs, lat)]
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


def _apply_offgrid(J, xi, coeffs, weight_fn=None):
    """sum_p coeffs_p W(xi_p) Jhat(xi_p) e^{i x xi_p} in one pass over the
    nodes xi, grouped in rings (rings, per_ring, d) whose nodes share xi_1
    (_polar_points), with coeffs of shape (rings, per_ring) and
    weight_fn(xi, v) = W(xi) v on v of shape (nodes, ncomp).

    The synthesis forms each ring's plane over the later axes, in 3D
    T_2^T diag(v) T_3 per component by a batched matmul over the ring's
    nodes (in 2D a ring is one node, whose plane is its product), then
    writes the grid, laid out (n, ..., ncomp, n), with one GEMM of the
    axis-1 table over the rings."""
    grid, ncomp = J.grid, J.ncomp
    n = grid.n
    out = np.zeros((n, ncomp * (grid.npoints // n)), dtype=complex)
    cb = _support_block(J)
    for sl, tabs in _ring_blocks(grid, ncomp, xi):
        v = _forward(cb, tabs)
        if weight_fn is not None:
            v = weight_fn(xi[sl].reshape(-1, grid.dim),
                          v.reshape(-1, ncomp)).reshape(v.shape)
        # (rings, per_ring, ncomp, n)
        plane = (v * coeffs[sl][..., None])[..., None] * tabs[-1][:, :, None]
        if grid.dim == 3:
            plane = tabs[1].swapaxes(1, 2) @ plane.reshape(
                plane.shape[:2] + (-1,))
        out += tabs[0].T @ plane.reshape(len(plane), -1)
    out = out.reshape((n,) * (grid.dim - 1) + (ncomp, n))
    return spectral.Field(grid, np.moveaxis(out, -2, 0))


# ---------------------------------------------------------------------------
# radial-singular continuum quadrature

def _gauss_tails(r0, T, r_max, n_radial, pole):
    """Plain Gauss-Legendre nodes on (0, r0 - T) and (r0 + T, r_max), with
    coefficients w / (r - pole)."""
    radii, coefs = [], []
    for lo, hi in ((0.0, r0 - T), (r0 + T, r_max)):
        if hi - lo < 1e-12:
            continue
        s, ws = np.polynomial.legendre.leggauss(n_radial)
        r = 0.5 * (hi - lo) * (s + 1.0) + lo
        radii.append(r)
        coefs.append(0.5 * (hi - lo) * ws / (r - pole))
    return radii, coefs


def _radial_nodes(r0, r_max, n_radial, pairing=True, window=None):
    """Symmetric-pairing nodes for the principal value at r0 plus plain
    Gauss-Legendre tails covering (0, r_max).

    Returns (radii, signed coefficients c_i) such that
    p.v. int_0^{r_max} g(r)/(r - r0) dr ~= sum_i c_i g(r_i).
    """
    T = 0.5 * min(r0, max(r_max - r0, 1e-9)) if window is None \
        else min(window, 0.99 * r0)
    if pairing:
        t, wt = np.polynomial.legendre.leggauss(n_radial)
        t = 0.5 * T * (t + 1.0)
        wt = 0.5 * T * wt
        if window is not None:
            # smooth radial taper; the windowed integrand stays a
            # principal value because the taper is even in t
            wt = wt * _smooth_step(2.0 * t / T - 1.0)
        radii = [r0 + t, r0 - t]
        coefs = [wt / t, -wt / t]
        if window is not None:
            return np.concatenate(radii), np.concatenate(coefs)
    else:
        t, wt = np.polynomial.legendre.leggauss(2 * n_radial)
        r = r0 + T * t
        radii = [r]
        coefs = [T * wt / (r - r0)]
    tails = _gauss_tails(r0, T, r_max, n_radial, r0)
    return (np.concatenate(radii + tails[0]),
            np.concatenate(coefs + tails[1]))


def _edelta_nodes(r0, r_max, delta, sign, n_radial):
    """Nodes and coefficients for int_0^{r_max} g(r)/(r - r0 - i s d) dr
    with the singular layer resolved by r = r0 + delta*sinh(u)."""
    T = 0.5 * min(r0, max(r_max - r0, 1e-9))
    S = np.arcsinh(T / delta)
    u, wu = S * np.array(np.polynomial.legendre.leggauss(2 * n_radial))
    sh = np.sinh(u)
    tails = _gauss_tails(r0, T, r_max, n_radial, r0 + 1j * sign * delta)
    return (np.concatenate([r0 + delta * sh] + tails[0]),
            np.concatenate([wu * np.cosh(u) / (sh - 1j * sign)] + tails[1]))


def _polar_points(radii, coefs, qform, beta, grid, n_sphere):
    """Expand radial nodes into full polar quadrature points with the
    coarea volume element, the cutoff and the continuum reproduction
    scale (L / 2 pi)^d folded into the coefficients.

    The points come in rings, (rings, per_ring, d) with coefficients
    (rings, per_ring): a ring is one (radius, polar) pair of the 3D rule,
    whose 2 n_sphere azimuth nodes share xi_1 because every 3D qform here
    is canonical, diag(a, b, b); in 2D each node is a ring of one.  A ring
    is dropped only if all its coefficients are 0."""
    dim = grid.dim
    u, w = sphere_quadrature(dim, n_sphere)
    R = _inv_sqrt_spd(qform)
    dirs = u @ R.T                                   # unit flavor radius
    per_ring = 2 * n_sphere if dim == 3 else 1
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, per_ring, dim)
    dets = np.linalg.det(np.asarray(qform, float)) ** -0.5
    cf = (coefs * radii ** (dim - 1))[:, None] * (dets * w)[None, :]
    cf = cf.reshape(pts.shape[:2]).astype(complex)
    cf *= beta(pts)
    cf *= (grid.length / TAU) ** dim
    keep = np.any(np.abs(cf) > 0, axis=1)
    return pts[keep], cf[keep]


def _shell(f, radii, coefs, qform, beta, n_sphere, weight_fn=None):
    """sum_i coefs_i over the flavor sphere { ||xi||_qform = radii_i } of
    beta W fhat, synthesized on the grid: the polar rule of _polar_points
    applied by _apply_offgrid.  One radius with coefficient c gives c
    times the coarea (delta-shell) integral."""
    pts, cf = _polar_points(np.asarray(radii, dtype=float), np.asarray(coefs),
                            qform, beta, f.grid, n_sphere)
    return _apply_offgrid(f, pts, cf, weight_fn)


def _radial_extent(qform, beta):
    return beta.r_out * np.sqrt(np.linalg.eigvalsh(
        np.asarray(qform, float)).max())


# ---------------------------------------------------------------------------
# scalar model operators

def _count(name, value):
    """Refuse a node count that is not a positive integer."""
    if not (isinstance(value, (int, np.integer)) and value > 0):
        raise InvalidArgument("%s must be a positive integer, got %r"
                              % (name, value))


def _model_args(f, omega, beta, flavor, mat, n_sphere, n_radial=None):
    """(beta, qform, n_sphere) of a scalar model operator at omega > 0,
    with the band cutoff and 192 (2D) or 16 (3D) sphere nodes by default;
    the node counts given must be positive integers."""
    if not symbol._frequency(omega, real=True) > 0:
        raise InvalidArgument("need omega > 0")
    for name, value in (('n_sphere', n_sphere), ('n_radial', n_radial)):
        if value is not None:
            _count(name, value)
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
    r_max = _radial_extent(qform, beta)
    radii, coefs = _edelta_nodes(omega, r_max, delta, sign, n_radial)
    return _shell(f, radii, coefs, qform, beta, n_sphere)


def _pv_once(f, omega, beta, qform, n_sphere, n_radial, weight_fn=None,
             pairing=True, window=None):
    r_max = _radial_extent(qform, beta)
    radii, coefs = _radial_nodes(omega, r_max, n_radial, pairing, window)
    return _shell(f, radii, coefs, qform, beta, n_sphere, weight_fn)


def pv_part(f, omega, beta=None, flavor='euclidean', mat=None,
            n_sphere=None, n_radial=32, tol=None, pairing=True):
    """Principal value of the continuum integral with multiplier
    beta(xi)/(||xi||_flavor - omega), by symmetric pairing around the
    singular radius.  With ``tol`` set (finite, > 0), the node counts are
    doubled and QuadratureNotConverged is raised if the result moves by
    more.
    ``pairing=False`` integrates straight through the singular radius
    (only sensible when the transform of f vanishes there)."""
    beta, qform, n_sphere = _model_args(f, omega, beta, flavor, mat,
                                        n_sphere, n_radial)
    if tol is not None and not 0 < tol < np.inf:
        raise InvalidArgument("tol must be finite and > 0, got %r" % (tol,))
    out = _pv_once(f, omega, beta, qform, n_sphere, n_radial, pairing=pairing)
    if tol is not None:
        fine = _pv_once(f, omega, beta, qform, 2 * n_sphere, 2 * n_radial,
                        pairing=pairing)
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
    return _shell(f, [omega], [sign * 1j * np.pi], qform, beta, n_sphere)


# ---------------------------------------------------------------------------
# full limiting-absorption solves

def _real_resolvent(omega, xi, mat):
    """The scalar resolvents d^{-1} at real omega, one per eigenbasis
    column; unused in maxres, kept because bench/tracing.py wraps it."""
    return multiplier._scalar_resolvents(omega,
                                         symbol._eigen_basis(xi, mat)[2])


def _column_weight(mat, col, scale):
    """weight_fn of _apply_offgrid: v -> scale m[:, col] m^{-1}[col, :] v,
    _apply with w = scale on column col and 0 on the others."""
    w = scale * np.eye(3 * (mat.dim - 1))[col]
    return lambda xi, v: multiplier._apply(xi, v[..., None], mat,
                                           lambda rho: w)[..., 0]


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
        on &= symbol.near_axis(xi)          # the split takes the others
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
    _count('n_sphere', n_sphere)
    beta = default_cutoff(grid, omega, mat)
    c, xi = spectral._modes(J)
    near = dist < MARGIN * abs(omega)
    common = None
    if n_radial is not None:
        # the real-frequency inverse off the spheres and at the zero mode,
        # the smooth background near them; near-axis modes bypass the
        # split (off the spheres the direct inverse is their limit)
        common = spectral._like(J, spectral._solve_coeffs(omega, J, mat,
                                                          drop=near))
    near &= ~symbol.near_axis(xi)
    surface = spectral.Field.zeros(grid, J.ncomp)
    if not np.any(near):
        return common, surface
    # held on its own support, which the off-grid forward reads
    J_near = spectral._like(J, np.where(near, c, 0), tight=True)
    # 1/(i(omega -+ rho)) = (+-i) / (rho - |omega|) near the sphere
    pv_sign = 1j if omega > 0 else -1j
    for col, qform in zip(multiplier._singular_columns(omega, mat),
                          mat.sphere_qforms):
        if n_radial is not None:
            common = common + _pv_once(
                J_near, abs(omega), beta, qform, n_sphere, n_radial,
                weight_fn=_column_weight(mat, col, pv_sign),
                window=2.0 * MARGIN * abs(omega))
        surface = surface + _shell(J_near, [abs(omega)], [-np.pi], qform,
                                   beta, n_sphere,
                                   _column_weight(mat, col, 1.0))
    return common, surface


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
        _count('n_radial', n_radial)
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
    deltas = np.asarray(deltas, float)
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

"""Limiting absorption: the resolvent at real frequency.

lap_parts gives both boundary values P_(+-)(omega) J, real omega != 0,
as one pair: P_(+-) J = common +- jump; lap_solve picks a sign.  Its two
routes compute different objects on lattice content near a
characteristic sphere, and agree only when J has none within relative
flavor distance MARGIN of every sphere:

* ``extrapolate`` gives the periodic limit lim P(omega +- i0)^{-1} on
  the lattice: per sign, the Richardson limit of the resolvent at
  omega + i*sign*delta_k, delta_k = DELTA0 2^(-k), k < LEVELS.  The
  limit is a fixed combination sum_k a_k of the resolvents, so each sign
  is one _solve_coeffs pass with the weights a_k; the half-sum and
  half-difference of the two signs are the pair.
* ``quadrature`` keeps the lattice inverse away from the spheres and
  replaces the near-sphere lattice values with the continuum principal
  value plus +-i*pi times the coarea measure of the semidiscrete
  transform on each sphere (the Sokhotsky-Plemelj split): the smooth
  background acts on the lattice, the singular scalars
  1/(i(omega - rho)) are evaluated with off-grid quadrature nodes.  The
  surface term is the jump.  Both weight each node by the eigenprojector
  of the sphere's singular column, multiplier._apply with the indicator
  of that column.

Each off-grid term is one separable transform over its nodes.  The
forward half reads the source's coefficients on their per-axis support
S_a only (near-sphere content spans about 10 indices per axis) through
Dirichlet kernels, ncomp * prod |S_a| multiply-adds per node; the
synthesis half, ncomp * n^d per node, writes the whole grid.

Scalar model operators (e_delta, pv_part, surface_part) expose the same
machinery for a single flavor norm, which is where the Sokhotsky limit
e_delta -> pv + i*pi*(surface) is quantitatively verified.  The blow-up
probe reuses the eigenbasis too: its plane-wave samples are
eigenvectors, so its norm ratios are closed forms.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDirection, GridTooCoarse, InvalidArgument,
                     MethodsDisagree, QuadratureNotConverged)
from .materials import Material3
from .spectral import TAU
from . import multiplier, region, spectral, symbol

MARGIN = 0.35
DELTA0 = 0.1
LEVELS = 7


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
        if not 0 < self.r_in < self.r_out:
            raise InvalidArgument("need 0 < r_in < r_out")

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
                  for q in multiplier.sphere_qforms(mat))
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
    """Nodes and weights on the euclidean unit sphere.

    2D: n-point trapezoid rule on the circle (spectrally accurate).
    3D: n-point Gauss-Legendre in the polar cosine times a 2n-point
    trapezoid rule in azimuth.
    """
    if dim == 2:
        th = TAU * np.arange(n) / n
        pts = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return pts, np.full(n, TAU / n)
    c, wc = np.polynomial.legendre.leggauss(n)
    phi = TAU * np.arange(2 * n) / (2 * n)
    s = np.sqrt(1.0 - c ** 2)
    pts = np.stack([np.outer(s, np.cos(phi)),
                    np.outer(s, np.sin(phi)),
                    np.outer(c, np.ones_like(phi))], axis=-1).reshape(-1, 3)
    w = np.outer(wc, np.full(phi.shape, TAU / (2 * n))).ravel()
    return pts, w


# ---------------------------------------------------------------------------
# semidiscrete transform at off-grid wavevectors

# nodes per block: bounds the synthesis table (nodes x n^(d-1)) at 32 MiB
# for a 32^3 grid while keeping the BLAS products large.  Per node the
# synthesis costs ncomp * n^d multiply-adds, the forward ncomp * prod |S_a|
_NODE_CHUNK = 2048


def _khatri_rao(tabs):
    """Row-wise Khatri-Rao product of (nodes, m_a) tables, last axis
    fastest."""
    kr = tabs[0]
    for t in tabs[1:]:
        kr = (kr[:, :, None] * t[:, None, :]).reshape(len(kr), -1)
    return kr


def _phase_blocks(grid, xi_pts):
    """Per block of nodes, (slice, tabs): tabs[a] = e^{i x xi_a} of shape
    (nodes, n) on the axis coordinates x.  The grid is a tensor product,
    so both transform directions are BLAS products with these tables and
    no (grid points x nodes) phase matrix is formed.

    Grid coordinates are taken centered in [-L/2, L/2); this halves the
    largest phase gradient and with it the node counts the sphere and
    radial rules need.  Blocks of s = 2^floor(log2(n)/2) coordinates never
    straddle L/2, so each table is the outer product of the phases at the
    block starts and at h * arange(s): n/s + s complex exps, not n."""
    n = grid.n
    s = 1 << (n.bit_length() - 1) // 2
    h = grid.length / n
    starts, offsets = h * grid.k_axis()[::s], h * np.arange(s)
    for st in range(0, len(xi_pts), _NODE_CHUNK):
        pts = xi_pts[st:st + _NODE_CHUNK]
        tabs = [(np.exp(1j * np.outer(p, starts))[:, :, None]
                 * np.exp(1j * np.outer(p, offsets))[:, None, :]
                 ).reshape(len(pts), n) for p in pts.T]
        yield slice(st, st + len(pts)), tabs


def _support_block(f):
    """f's coefficient block on its per-axis support S_a (spectral.Field),
    and per axis the lattice phases e^{-i x xi_k} / n, k in S_a, of shape
    (n, |S_a|)."""
    n = f.grid.n
    # x_m xi_k = 2 pi m k / n for lattice xi_k, centered or not
    roots = np.exp(-1j * TAU * np.arange(n) / n) / n
    return f._kept, [roots[np.outer(np.arange(n), s) % n] for s in f._sup]


def _forward(cb, lat, tabs):
    """(1/N) sum_j f(x_j) e^{-i x_j xi_p} over one block of nodes, from
    f's coefficient block (_support_block): sum_k c_k prod_a D_a[p, k_a]
    with the Dirichlet kernels D_a = conj(tabs_a @ lat_a)."""
    ds = [(t @ l).conj() for t, l in zip(tabs, lat)]
    kr = _khatri_rao(ds[1:])
    ncomp, s1 = cb.shape[:2]
    g = cb.reshape(ncomp * s1, kr.shape[1]) @ kr.T
    return np.einsum('ckp,pk->cp', g.reshape(ncomp, s1, len(kr)), ds[0])


def offgrid_transform(f, xi_pts):
    """Semidiscrete transform (1/N) sum_j f(x_j) e^{-i x_j xi} at
    arbitrary wavevectors; exact coefficients for band-limited f."""
    cb, lat = _support_block(f)
    out = np.empty((f.ncomp, len(xi_pts)), dtype=complex)
    for sl, tabs in _phase_blocks(f.grid, xi_pts):
        out[:, sl] = _forward(cb, lat, tabs)
    return out


def _apply_offgrid(J, xi_pts, coeffs, weight_fn=None):
    """sum_p coeffs_p W(xi_p) Jhat(xi_p) e^{i x xi_p} in one pass, with
    weight_fn(xi, v) = W(xi) v on v of shape (ncomp, nodes)."""
    grid = J.grid
    out = np.zeros((J.ncomp * grid.n, grid.npoints // grid.n),
                   dtype=complex)
    cb, lat = _support_block(J)
    for sl, tabs in _phase_blocks(grid, xi_pts):
        vals = _forward(cb, lat, tabs)
        if weight_fn is not None:
            vals = weight_fn(xi_pts[sl], vals)
        amps = (vals * coeffs[sl])[:, None, :] * tabs[0].T
        out += amps.reshape(len(out), -1) @ _khatri_rao(tabs[1:])
    return spectral.Field(grid, out.reshape(J.shape))


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
    scale (L / 2 pi)^d folded into the coefficients."""
    dim = grid.dim
    u, w = sphere_quadrature(dim, n_sphere)
    R = _inv_sqrt_spd(qform)
    dirs = u @ R.T                                   # unit flavor radius
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, dim)
    dets = np.linalg.det(np.asarray(qform, float)) ** -0.5
    cf = (coefs * radii ** (dim - 1))[:, None] * (dets * w)[None, :]
    cf = cf.reshape(-1).astype(complex)
    cf *= beta(pts)
    cf *= (grid.length / TAU) ** dim
    keep = np.abs(cf) > 0
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

def _model_args(f, omega, beta, flavor, mat, n_sphere, n_2d, n_3d):
    """(beta, qform, n_sphere) of a scalar model operator at omega > 0,
    with the band cutoff and n_2d or n_3d sphere nodes by default."""
    if not omega > 0:
        raise InvalidArgument("need omega > 0")
    dim = f.grid.dim
    return (_band_cutoff(f.grid) if beta is None else beta,
            spectral._flavor_qform(flavor, mat, dim),
            (n_2d if dim == 2 else n_3d) if n_sphere is None else n_sphere)


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
    beta, qform, n_sphere = _model_args(f, omega, beta, flavor, mat,
                                        n_sphere, 192, 16)
    if method == 'lattice':
        c, xi = spectral._modes(f)
        rho = np.sqrt(np.einsum('ki,ij,kj->k', xi, qform, xi))
        mult = beta(xi) / (rho - (omega + 1j * sign * delta))
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
    singular radius.  With ``tol`` set, the node counts are doubled and
    QuadratureNotConverged is raised if the result moves by more.
    ``pairing=False`` integrates straight through the singular radius
    (only sensible when the transform of f vanishes there)."""
    beta, qform, n_sphere = _model_args(f, omega, beta, flavor, mat,
                                        n_sphere, 192, 16)
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
    characteristic sphere, synthesized on the grid."""
    beta, qform, n_sphere = _model_args(f, omega, beta, flavor, mat,
                                        n_sphere, 128, 12)
    return _shell(f, [omega], [sign * 1j * np.pi], qform, beta, n_sphere)


# ---------------------------------------------------------------------------
# full limiting-absorption solves

def _real_resolvent(omega, xi, mat):
    """The scalar resolvents d^{-1} at real omega, one per eigenbasis
    column; unused in maxres, kept because bench/tracing.py wraps it."""
    return multiplier._scalar_resolvents([omega],
                                         symbol._eigen_basis(xi, mat)[2])


def _column_weight(mat, col, scale):
    """weight_fn of _apply_offgrid: v -> scale m[:, col] m^{-1}[col, :] v,
    _apply with w = scale on column col and 0 on the others."""
    w = scale * np.eye(3 * (mat.dim - 1))[col]
    return lambda xi, v: multiplier._apply(xi, v.T[..., None], mat,
                                           lambda rho: w)[..., 0].T


def _mode_masks(xi, omega, mat, margin):
    """Masks (far, near) of the lattice modes xi, split by distance to
    the characteristic spheres; the zero mode is in neither."""
    nz = np.any(xi != 0, axis=-1)
    dist = np.min([np.abs(rho - abs(omega))
                   for rho in region.characteristic_radii(xi, mat)], axis=0)
    near = nz & (dist < margin * abs(omega))
    far = nz & ~near
    return far, near


def richardson_limit(values):
    """Limit of a sequence sampled at delta_k = delta0 * 2^(-k), assuming
    an expansion in integer powers of delta; full Neville table."""
    T = [list(values)]
    for j in range(1, len(values)):
        fac = 2.0 ** j
        prev = T[-1]
        T.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                  for i in range(len(prev) - 1)])
    return T[-1][-1]


def _extrapolate(omega, J, mat):
    """lap_parts' extrapolate route: per sign, richardson_limit of
    solve(omega + i y_k, J), y_k = sign DELTA0 2^(-k), k < LEVELS.  The
    limit is a fixed linear combination sum_k a_k of the solves, so each
    sign is one _solve_coeffs pass with the weights a_k."""
    if isinstance(mat, Material3) and not mat.is_canonical:
        canon, Jc, record = symbol.canonicalize(mat, J)
        return tuple(record.backward_fields(p)
                     for p in _extrapolate(omega, Jc, canon))
    a = richardson_limit(list(np.eye(LEVELS)))
    y = DELTA0 * 0.5 ** np.arange(LEVELS)
    plus, minus = (spectral._solve_coeffs(omega + 1j * s * y, J, mat,
                                          weights=a) for s in (+1, -1))
    return tuple(spectral._like(J, 0.5 * v)
                 for v in (plus + minus, plus - minus))


def _quadrature_parts(omega, J, mat, n_sphere, n_radial, with_pv=True):
    """lap_parts' quadrature route: (common, surface), surface =
    surface_terms(sign=+1); with_pv=False skips common (None)."""
    omega = float(omega)
    if omega == 0:
        raise InvalidArgument("omega must be nonzero real")
    if isinstance(mat, Material3) and not mat.is_canonical:
        canon, Jc, record = symbol.canonicalize(mat, J)
        return tuple(p if p is None else record.backward_fields(p)
                     for p in _quadrature_parts(omega, Jc, canon, n_sphere,
                                                n_radial, with_pv))
    grid = J.grid
    if n_sphere is None:
        n_sphere = 160 if grid.dim == 2 else 12
    if grid.dim == 3 and n_sphere % 2:
        raise DegenerateDirection(
            "n_sphere must be even in 3D (got %d): an odd Gauss-Legendre "
            "order puts a node on the distinguished axis" % n_sphere)
    beta = default_cutoff(grid, omega, mat)
    c, xi = spectral._modes(J)
    _, near = _mode_masks(xi, omega, mat, MARGIN)
    common = None
    if with_pv:
        # the real-frequency inverse off the spheres and at the zero mode,
        # the smooth background near them; near-axis modes bypass the
        # split (off the spheres the direct inverse is their limit)
        out = spectral._solve_coeffs([omega], J, mat, ~near)
        out += spectral._solve_coeffs(
            [omega], J, mat, near,
            skip=multiplier._singular_columns(omega, mat))
        common = spectral._like(J, out)
    near &= ~symbol.near_axis(xi)
    surface = spectral.Field.zeros(grid, J.ncomp)
    if not np.any(near):
        return common, surface
    # held on its own support, which the off-grid forward reads
    J_near = spectral._like(J, np.where(near, c, 0), tight=True)
    # 1/(i(omega -+ rho)) = (+-i) / (rho - |omega|) near the sphere
    pv_sign = 1j if omega > 0 else -1j
    for col, qform in zip(multiplier._singular_columns(omega, mat),
                          multiplier.sphere_qforms(mat)):
        if with_pv:
            common = common + _pv_once(
                J_near, abs(omega), beta, qform, n_sphere, n_radial,
                weight_fn=_column_weight(mat, col, pv_sign),
                window=2.0 * MARGIN * abs(omega))
        surface = surface + _shell(J_near, [abs(omega)], [-np.pi], qform,
                                   beta, n_sphere,
                                   _column_weight(mat, col, 1.0))
    return common, surface


def lap_parts(omega, J, mat, method='quadrature', n_sphere=None,
              n_radial=24, cross_tol=None):
    """Both limiting-absorption solutions at real omega as one pair
    (common, jump), P_(+-)(omega) J = common +- jump, by the route
    ``method`` (see the module docstring).

    quadrature splits lattice modes within relative flavor distance
    MARGIN of a sphere, with default_cutoff and n_sphere (even in 3D) by
    n_radial nodes; its jump is surface_terms(sign=+1).  extrapolate
    takes the limit over delta_k = DELTA0 2^(-k), k < LEVELS.  cross_tol
    (finite, >= 0) runs the other route once too and raises
    MethodsDisagree if they differ by more, relative L2, at either sign."""
    omega = float(omega)
    if omega == 0:
        raise InvalidArgument("omega must be nonzero real")
    if cross_tol is not None and not 0 <= cross_tol < np.inf:
        raise InvalidArgument("cross_tol must be finite and >= 0, got %r"
                              % (cross_tol,))
    routes = {
        'quadrature': lambda: _quadrature_parts(omega, J, mat, n_sphere,
                                                n_radial),
        'extrapolate': lambda: _extrapolate(omega, J, mat)}
    if method not in routes:
        raise InvalidArgument("method must be 'quadrature' or 'extrapolate'")
    common, jump = routes[method]()
    if cross_tol is not None:
        o_common, o_jump = routes['extrapolate' if method == 'quadrature'
                                  else 'quadrature']()
        for sign in (+1, -1):
            u = common + sign * jump
            rel = (spectral.lebesgue_norm(u - (o_common + sign * o_jump), 2)
                   / max(spectral.lebesgue_norm(u, 2), 1e-300))
            if rel > cross_tol:
                raise MethodsDisagree(
                    "extrapolate and quadrature differ by %.3e relative at "
                    "sign %+d" % (rel, sign))
    return common, jump


def lap_solve(omega, J, mat, sign=+1, method='quadrature', n_sphere=None,
              n_radial=24, cross_tol=None):
    """The limiting-absorption solution P_(+-)(omega) J at real omega:
    common + sign * jump of lap_parts, which describes the arguments;
    sign is +1 or -1."""
    if sign not in (+1, -1):
        raise InvalidArgument("sign must be +1 or -1, got %r" % (sign,))
    common, jump = lap_parts(omega, J, mat, method, n_sphere, n_radial,
                             cross_tol)
    return common + sign * jump


def surface_terms(omega, J, mat, sign=+1, n_sphere=None):
    """sign times the jump of lap_parts' quadrature route (all
    characteristic spheres); no principal value is computed."""
    _, surface = _quadrature_parts(omega, J, mat, n_sphere, None,
                                   with_pv=False)
    return sign * surface


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
    xi = grid.xi_flat()
    sel, radii = region._annulus_modes(xi, omega, mat, 0.5)
    sel = sel[np.argsort(np.abs(radii - abs(omega)))[:48]]
    col = multiplier._singular_columns(abs(omega), mat)[0]
    scale = grid.volume ** (pair.y - pair.x)
    deltas = np.asarray(deltas, float)
    omegas = abs(omega) + 1j * deltas
    rho = symbol._eigen_basis(xi[sel], mat)[2]
    w = np.array([np.abs(multiplier._scalar_resolvents([om], rho)[:, col])
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

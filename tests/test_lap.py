import functools

import numpy as np
import pytest

from maxres import lap
from maxres import multiplier as mp
from maxres import region as rg
from maxres import spectral as sp
from maxres import symbol
from maxres.errors import (InvalidArgument, MethodsDisagree, OnSingularSet,
                           QuadratureNotConverged)
from maxres.materials import Material2, Material3, material3_from_diag
from maxres.spectral import TAU
from helpers import PerturbedFactors, near_axis_xi, projectors

RNG = np.random.default_rng(23)

MAT2 = Material2(1.3, 0.25, 0.9, mu=1.4)
MAT3 = Material3(0.5, 1.0 / 0.7)
OMEGA = 3.1


def far_current(grid, mat, ncomp, omega, margin=0.5):
    """Random band-limited current with all near-sphere modes removed."""
    J = sp.random_band_limited(grid, ncomp, RNG)
    c = J.coeffs().reshape(ncomp, -1)
    c[:, lap._sphere_distance(grid.xi_flat(), omega, mat)
      < margin * omega] = 0
    return sp.Field.from_coeffs(grid, c.reshape(J.data.shape))


def test_smooth_step_endpoints():
    assert lap._smooth_step(np.array([-1.0, 0.0]))[0] == 1.0
    assert lap._smooth_step(np.array([1.0, 2.0]))[1] == 0.0
    mid = lap._smooth_step(np.array([0.5]))[0]
    assert 0.0 < mid < 1.0


def test_cutoff_spec():
    beta = lap.CutoffSpec(2.0, 4.0)
    assert beta(np.array([[1.0, 0.0]]))[0] == 1.0
    assert beta(np.array([[5.0, 0.0]]))[0] == 0.0
    with pytest.raises(ValueError):
        lap.CutoffSpec(4.0, 2.0)


def test_surface_quadrature_total_measure():
    # one radius with coefficient 1: the polar rule's weights sum to the
    # coarea (delta-shell) measure; a unit cutoff and L = 2 pi leave it
    g2, g3 = sp.Grid(2, 8), sp.Grid(3, 8)
    beta = lap.CutoffSpec(10.0, 20.0)

    def measure(radius, Q, grid, n):
        _, cf, _ = lap._polar_points(np.array([radius]), np.array([1.0]),
                                     Q, beta, grid, n)
        return cf.sum().real

    assert measure(3.0, np.eye(2), g2, 64) == pytest.approx(2 * np.pi * 3.0)
    assert measure(2.0, np.eye(3), g3, 12) == pytest.approx(4 * np.pi * 4.0)
    # anisotropic ellipsoid: coarea measure carries det(Q)^(-1/2)
    Q = np.diag([0.7, 2.0, 2.0])
    assert measure(2.0, Q, g3, 12) == pytest.approx(
        4 * np.pi * 4.0 / np.sqrt(np.linalg.det(Q)))


def test_offgrid_transform_reproduces_lattice():
    # at exact lattice wavevectors the semidiscrete transform returns
    # the FFT coefficients
    g = sp.Grid(2, 16)
    f = sp.random_band_limited(g, 1, RNG)
    xi_pts = np.array([[1.0, 2.0], [-3.0, 5.0], [0.0, 0.0]])
    amps = lap.offgrid_transform(f, xi_pts)
    c = f.coeffs().reshape(-1)
    xi = g.xi_flat()
    for k, pt in enumerate(xi_pts):
        idx = np.nonzero(np.all(xi == pt, axis=1))[0][0]
        assert abs(amps[0, k] - c[idx]) < 1e-12


def dense_offgrid(J, xi_pts, coeffs, W=None):
    """Reference for lap's off-grid transforms: the full (grid points x
    nodes) phase matrix, and W (nodes, ncomp, ncomp) one weight per node.
    Returns (transform, synthesized field data)."""
    grid = J.grid
    x = grid.x_flat()
    x = np.where(x >= 0.5 * grid.length, x - grid.length, x)
    E = np.exp(-1j * x @ xi_pts.T)
    vals = J.data.reshape(J.ncomp, -1) @ E / grid.npoints
    amps = vals if W is None else np.einsum('pij,jp->ip', W, vals)
    flat = (amps * coeffs) @ np.conj(E).T
    return vals, flat.reshape((-1,) + (grid.n,) * grid.dim)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize('dim,n,npts', [
    # n = 4: the lone row -L/2 is one of the half grid's three rows
    (2, 4, 300),
    (2, 16, 300),
    (3, 4, 200),
    # rings of one on 8^3 with 3 components: more than one block
    (3, 8, 4891),
    (3, 16, 200),
])
def test_offgrid_matches_dense_oracle(dim, n, npts):
    g = sp.Grid(dim, n)
    J = sp.random_band_limited(g, 3, RNG)
    # half the nodes inside the grid's band, half beyond it
    xi = RNG.uniform(-n, n, (npts, dim))
    cf = RNG.standard_normal(npts) + 1j * RNG.standard_normal(npts)
    # one weight per direction (3 components in, 3 out), shared by the
    # npts / n_polar radii; n_polar is the least divisor of npts above
    # 36, so that the 4891 = 67 * 73 nodes on 8^3 still take two blocks
    n_polar = next(k for k in range(37, npts + 1) if npts % k == 0)
    blocks = list(lap._ring_blocks(g, 3, xi[:, None], n_polar))
    assert (len(blocks) > 1) == (npts > 1000)
    W = np.exp(1j * xi[:n_polar] @ RNG.standard_normal((dim, 9))).reshape(
        n_polar, 1, 3, 3)

    vals, plain = dense_offgrid(J, xi, cf)
    assert _rel(lap.offgrid_transform(J, xi), vals) < 1e-12
    assert _rel(lap._apply_offgrid(J, [(xi[:, None], cf[:, None], None)]
                                   ).data, plain) < 1e-12
    _, weighted = dense_offgrid(J, xi, cf,
                                np.tile(W[:, 0], (npts // n_polar, 1, 1)))
    out = lap._apply_offgrid(J, [(xi[:, None], cf[:, None], W)])
    assert _rel(out.data, weighted) < 1e-12


# the 3D qforms lap's rings are built on: both spheres of MAT3, those of
# the isotropic material, and the euclidean and eps_tilde model flavors
RING_QFORMS = {
    'mat3-sphere-1': MAT3.sphere_qforms[0],
    'mat3-sphere-2': MAT3.sphere_qforms[1],
    'isotropic-sphere-1': Material3(1.0, 1.0).sphere_qforms[0],
    'isotropic-sphere-2': Material3(1.0, 1.0).sphere_qforms[1],
    'euclidean': sp._flavor_qform('euclidean', MAT3, 3),
    'eps-tilde': sp._flavor_qform('eps_tilde', MAT3, 3),
}


@pytest.mark.parametrize('qform', RING_QFORMS.values(), ids=RING_QFORMS)
@pytest.mark.parametrize('n_sphere', [1, 2, 5, 12, 31, 32])
def test_every_ring_shares_xi_1(qform, n_sphere):
    g = sp.Grid(3, 16)
    radii = np.array([0.3, 2.0, 3.1, 7.5])
    pts, cf, _ = lap._polar_points(radii, np.ones(4), qform,
                                   lap.CutoffSpec(10.0, 20.0), g, n_sphere)
    assert pts.shape == (4 * n_sphere, 2 * n_sphere, 3)
    assert cf.shape == pts.shape[:2]
    assert np.all(pts[..., 0] == pts[:, :1, 0])         # bit for bit


@pytest.mark.parametrize('mat', [MAT3, Material3(1.0, 1.0)],
                         ids=['mat3', 'isotropic'])
@pytest.mark.parametrize('flavor', [None, 'euclidean', 'eps_tilde'])
def test_polar_rings_match_dense_oracle(mat, flavor):
    # real rings of _polar_points through _apply_offgrid, plain and with
    # the Sokhotsky weights of each sphere, evaluated once per direction,
    # against the dense transform with the projector at every node
    g = sp.Grid(3, 8)
    J = sp.random_band_limited(g, 6, RNG)
    beta = lap.CutoffSpec(3.0, 3.6)
    qforms = (mat.sphere_qforms if flavor is None
              else [sp._flavor_qform(flavor, mat, 3)])
    for qform in qforms:
        radii, coefs = lap._radial_nodes(2.3, 4.0, 3)
        pts, cf, _ = lap._polar_points(radii, coefs, qform, beta, g, 5)
        flat = pts.reshape(-1, 3)
        _, plain = dense_offgrid(J, flat, cf.ravel())
        assert _rel(lap._apply_offgrid(J, [(pts, cf, None)]).data,
                    plain) < 1e-12
        P = projectors(flat, mat)
        for col in mp._singular_columns(OMEGA, mat):
            _, ref = dense_offgrid(J, flat, cf.ravel(), P[col])
            out = lap._apply_offgrid(J, [lap._polar_points(
                radii, coefs, qform, beta, g, 5, (mat, col, 1j))])
            assert _rel(out.data, 1j * ref) < 1e-12


@pytest.mark.parametrize('weighted', [False, True], ids=['plain', 'weighted'])
@pytest.mark.parametrize('mat,n', [(MAT2, 16), (MAT3, 8)], ids=['2d', '3d'])
def test_offgrid_terms_sum_in_one_synthesis(mat, n, weighted):
    # a principal-value term and a surface term, on the two spheres in 3D
    # and on the one sphere twice in 2D, synthesized together equal the
    # sum of their single-term syntheses
    g = sp.Grid(mat.dim, n)
    J = sp.random_band_limited(g, 3 * (mat.dim - 1), RNG)
    beta = lap.CutoffSpec(3.0, 3.6)
    qforms = (mat.sphere_qforms * 2)[:2]
    cols = (list(mp._singular_columns(OMEGA, mat)) * 2)[:2]
    weights = [(mat, col, scale) if weighted else None
               for col, scale in zip(cols, (1j, 1.0))]
    terms = [lap._radial_term(g, 2.3, beta, qforms[0], 5, 3, weights[0]),
             lap._polar_points(np.array([2.3]), np.array([-np.pi]),
                               qforms[1], beta, g, 5, weights[1])]
    one, two = (lap._apply_offgrid(J, [t]) for t in terms)
    assert _rel(lap._apply_offgrid(J, terms).data, (one + two).data) < 1e-14


def test_polar_points_drop_only_whole_rings():
    # a radius holds 6 rings of 12 nodes and is dropped only as a whole
    g = sp.Grid(3, 16)
    qform = MAT3.sphere_qforms[1]
    radii = np.linspace(0.5, 12.0, 24)
    beta = lap.CutoffSpec(4.0, 6.0)
    pts, cf, _ = lap._polar_points(radii, np.ones(24), qform, beta, g, 6)
    every, _, _ = lap._polar_points(radii, np.ones(24), qform,
                                    lap.CutoffSpec(30.0, 40.0), g, 6)
    assert pts.shape[1:] == (12, 3) and 0 < len(pts) < len(every)
    # the radii kept are exactly those with a node inside the cutoff's
    # support, and one of them keeps a ring wholly past the support
    every = every.reshape(24, 6, 12, 3)
    kept = np.any(np.linalg.norm(every, axis=-1) < beta.r_out, axis=(1, 2))
    assert np.array_equal(pts, every[kept].reshape(-1, 12, 3))
    assert np.any(np.all(cf == 0, axis=1))
    # a ring whose nodes straddle the cutoff's edge (round-off makes the
    # cutoff 0 at some nodes of a ring and tiny at others) keeps its
    # zero-coefficient nodes
    def half(xi):
        return (xi[..., 1] > 0).astype(float)

    pts, cf, _ = lap._polar_points(radii, np.ones(24), qform, half, g, 6)
    assert np.array_equal(pts, every.reshape(pts.shape))
    assert np.any(cf == 0, axis=1).all() and np.any(cf != 0, axis=1).all()


@pytest.mark.parametrize('omega', [OMEGA, -OMEGA])
@pytest.mark.parametrize('mat,n,band', [
    (MAT2, 16, False),
    (MAT3, 8, False),
    (MAT3, 8, True),
    (Material3(1.0, 1.0), 8, True),
], ids=['2d', '3d', '3d-guard-band', '3d-isotropic-guard-band'])
def test_offgrid_weights_match_projector_oracle(mat, n, band, omega):
    # the quadrature route's node weights, _apply with a scaled indicator
    # of each sphere's singular column, against the explicit rank-one
    # projector m[:, c] m^{-1}[c, :] times the same scale
    g = sp.Grid(mat.dim, n)
    ncomp = 3 * (mat.dim - 1)
    J = sp.random_band_limited(g, ncomp, RNG)
    npts = 400
    xi = (near_axis_xi(RNG, npts) if band
          else RNG.uniform(-n, n, (npts, mat.dim)))
    assert symbol.on_axis(xi).any() == band
    cf = RNG.standard_normal(npts) + 1j * RNG.standard_normal(npts)
    P = projectors(xi, mat)
    cols = mp._singular_columns(omega, mat)
    assert len(cols) == mat.dim - 1            # one per sphere
    for col in cols:
        _, ref = dense_offgrid(J, xi, cf, P[col])
        for scale in (1.0, 1j if omega > 0 else -1j):
            # one radius whose npts rings of one are the nodes xi
            out = lap._apply_offgrid(J, [(
                xi[:, None], cf[:, None],
                lap._column_weight(xi[:, None], mat, col, scale))])
            assert _rel(out.data, scale * ref) < 1e-12


def _shell_current(g, ncomp, r_lo, r_hi):
    """Random coefficients on the lattice modes with r_lo <= |k| < r_hi,
    the way J_near sits on a characteristic sphere; negative k are
    stored wrapped to n + k."""
    k = g.xi_flat() * (g.length / sp.TAU)
    r = np.linalg.norm(k, axis=1)
    shell = (r >= r_lo) & (r < r_hi)
    c = np.zeros((ncomp, g.npoints), dtype=complex)
    c[:, shell] = (RNG.standard_normal((ncomp, shell.sum()))
                   + 1j * RNG.standard_normal((ncomp, shell.sum())))
    return sp.Field.from_coeffs(g, c.reshape((ncomp,) + (g.n,) * g.dim))


def _sample_current(g, ncomp):
    """A sample field, whose coefficients fill the whole grid."""
    return sp.Field(g, RNG.standard_normal((ncomp,) + (g.n,) * g.dim)
                    + 1j * RNG.standard_normal((ncomp,) + (g.n,) * g.dim))


@pytest.mark.parametrize('dim,n,npts', [(2, 32, 400), (3, 16, 300)])
@pytest.mark.parametrize('make', [
    lambda g: _shell_current(g, 3, 3.0, 4.5),
    lambda g: _sample_current(g, 3),
], ids=['shell', 'samples'])
def test_offgrid_support_inputs_match_dense_oracle(dim, n, npts, make):
    g = sp.Grid(dim, n)
    J = make(g)
    xi = RNG.uniform(-n, n, (npts, dim))
    cf = RNG.standard_normal(npts) + 1j * RNG.standard_normal(npts)
    vals, plain = dense_offgrid(J, xi, cf)
    assert _rel(lap.offgrid_transform(J, xi), vals) < 1e-12
    assert _rel(lap._apply_offgrid(J, [(xi[:, None], cf[:, None], None)]
                                   ).data, plain) < 1e-12


@pytest.mark.parametrize('dim,n', [(2, 32), (3, 16)])
def test_offgrid_zero_field_gives_zeros(dim, n):
    # the empty support: every S_a holds no index
    g = sp.Grid(dim, n)
    J = sp.Field.from_coeffs(g, np.zeros((3,) + (n,) * dim, dtype=complex))
    xi = RNG.uniform(-n, n, (50, dim))
    assert lap.offgrid_transform(J, xi).shape == (3, 50)
    assert not np.any(lap.offgrid_transform(J, xi))
    # rings of one, and in 3D five rings of ten nodes sharing xi_1
    rings = [xi[:, None]] + ([xi.reshape(5, 10, 3)] if dim == 3 else [])
    for pts in rings:
        pts[..., 0] = pts[:, :1, 0]
        cf = RNG.standard_normal(pts.shape[:2]) + 0j
        out = lap._apply_offgrid(J, [(pts, cf, None)])
        assert out.shape == J.shape and not np.any(out.data)


def _half_grid(g):
    """The half grid's coordinates: h (0, 1, ..., n/2 - 1, -n/2), the
    storage-order rows 0..n/2 of the centered grid."""
    x = (g.length / g.n) * g.k_axis()                # centered coordinates
    assert x.min() == -g.length / 2 and x.max() < g.length / 2
    return x[:g.n // 2 + 1]


@pytest.mark.parametrize('n', [2 ** p for p in range(2, 10)])
def test_factored_phase_tables(n):
    # each half table is built from one exp per bit of the row index; it
    # must equal the direct one to 1e-14 per unit of phase (a phase of
    # size t is itself only known to about 1e-16 t)
    g = sp.Grid(2, n)
    x = _half_grid(g)
    band = np.pi * n / g.length
    xi = RNG.uniform(-2 * band, 2 * band, (300, 2))  # half beyond the band
    for a in range(2):
        phase = np.outer(xi[:, a], x)
        err = np.abs(lap._half_table(g, xi[:, a]) - np.exp(1j * phase))
        assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(phase)))


@pytest.mark.parametrize('n', [2 ** p for p in range(2, 10)])
def test_unfolded_half_table_is_the_full_table(n):
    # the half table's (cos, sin) pairs unfold to the table on the whole
    # storage-order grid, to the same 1e-14 per unit of phase
    g = sp.Grid(3, n)
    x = (g.length / n) * g.k_axis()
    band = np.pi * n / g.length
    xi = RNG.uniform(-2 * band, 2 * band, 300)
    half = lap._half_table(g, xi)
    full = lap._unfold(half.view(float).reshape(half.shape + (2,)), 1, 2)
    phase = np.outer(xi, x)
    assert full.shape == phase.shape
    err = np.abs(full - np.exp(1j * phase))
    assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(phase)))
    assert np.array_equal(full[:, :n // 2 + 1], half)
    assert np.array_equal(full[:, n // 2 + 1:],
                          half[:, n // 2 - 1:0:-1].conj())


def test_e_delta_lattice_single_mode():
    g = sp.Grid(2, 32)
    x = g.x_axis()
    X, Y = np.meshgrid(x, x, indexing='ij')
    f = sp.scalar_field(g, np.exp(1j * (2 * X + Y)))
    delta = 0.1
    beta = lap.CutoffSpec(10.0, 14.0)
    out = lap.e_delta(f, OMEGA, delta, +1, beta, 'euclidean', method='lattice')
    rho = np.sqrt(5.0)
    expect = f.data / (rho - (OMEGA + 1j * delta))
    assert np.abs(out.data - expect).max() < 1e-14


def test_e_delta_validation():
    g = sp.Grid(2, 16)
    f = sp.random_band_limited(g, 1, RNG)
    with pytest.raises(ValueError):
        lap.e_delta(f, -1.0, 0.1)
    with pytest.raises(ValueError):
        lap.e_delta(f, 2.0, 0.9)
    with pytest.raises(InvalidArgument, match='method'):
        lap.e_delta(f, 2.0, 0.1, method='lattise')


def test_surface_part_closed_form():
    # a unit-coefficient spectrum is the interpolant of a grid delta;
    # its surface term is i pi beta(omega) |circle of radius omega|
    g = sp.Grid(2, 32)
    c = np.ones((1, 32, 32), dtype=complex)
    f = sp.Field.from_coeffs(g, c)
    beta = lap.CutoffSpec(10.0, 14.0)
    out = lap.surface_part(f, OMEGA, beta, 'euclidean', sign=+1,
                           n_sphere=256)
    val = out.data[0, 0, 0]     # x = 0: all phases are 1
    expect = 1j * np.pi * 2 * np.pi * OMEGA
    assert abs(val - expect) < 1e-10 * abs(expect)
    # opposite limit flips the sign
    out_m = lap.surface_part(f, OMEGA, beta, 'euclidean', sign=-1,
                             n_sphere=256)
    assert abs(out_m.data[0, 0, 0] + expect) < 1e-10 * abs(expect)


# A continuum oracle.  The Gaussian f = exp(-|x|^2 / (2 sigma^2)) at
# index 0 (the grid's centered coordinates), sigma 0.3 on L = 2 pi, has
# tails and aliases below 1e-16 on these grids, so its semidiscrete
# transform is the radial g(|xi|) = L^-d (2 pi sigma^2)^(d/2)
# e^(-sigma^2 |xi|^2 / 2).  On the euclidean sphere of radius r, with the
# cutoff beta, the shell at |x| = rho is then (L / 2 pi)^d H(r, rho) with
# H = r^(d-1) beta(r) g(r) S(r rho), S(z) = 4 pi sinc(z) in 3D and
# 2 pi J_0(z) in 2D (J_0 by the trapezoid rule on its integral).
_SIGMA = 0.3
# (dim, n, n_sphere, bound on the windowed shell at 24 radial nodes); the
# bounds hold the measured 4.4e-7 (2D) and 2.2e-7 (3D), against 4.4e-6
# and 5.0e-6 with one Gauss-Legendre rule across the taper's edge T / 2
_ORACLE_CASES = [(2, 128, 160, 6e-7), (3, 64, 32, 3e-7)]


def _gaussian_oracle(dim, n):
    """(grid, f, samples, H) of the Gaussian: samples index f.data at the
    points (j, .., j, 0, .., 0), j = 0 .. n/2, one run per number of
    nonzero indices, and H(r) holds H at those rho, shape r.shape +
    (samples,)."""
    g = sp.Grid(dim, n)
    x = g.length / n * g.k_axis()
    f = sp.scalar_field(g, np.exp(-sum(np.meshgrid(
        *([x ** 2] * dim), indexing='ij')) / (2 * _SIGMA ** 2)))
    j = np.arange(n // 2 + 1)
    idx = np.concatenate([np.where(np.arange(dim) <= a, j[:, None], 0)
                          for a in range(dim)])
    rho = np.sqrt(np.sum(x[idx] ** 2, axis=1))
    beta = lap._band_cutoff(g)
    th = TAU * np.arange(96) / 96

    def H(r):
        z = np.multiply.outer(r, rho)
        S = (4 * np.pi * np.sinc(z / np.pi) if dim == 3 else
             TAU * np.mean(np.cos(z[..., None] * np.sin(th)), axis=-1))
        g_r = (g.length ** -dim * (TAU * _SIGMA ** 2) ** (dim / 2)
               * np.exp(-_SIGMA ** 2 * r ** 2 / 2))
        return ((g.length / TAU) ** dim
                * (r ** (dim - 1) * beta.radial(r) * g_r)[..., None] * S)

    return g, f, (0,) + tuple(idx.T), H


@pytest.mark.parametrize('dim,n,n_sphere,bound', _ORACLE_CASES,
                         ids=['2d', '3d'])
def test_surface_part_matches_the_continuum(dim, n, n_sphere, bound):
    # measured 8e-16 to 1.5e-15 relative
    g, f, sel, H = _gaussian_oracle(dim, n)
    for omega in (3.0, 5.5):
        want = 1j * np.pi * H(np.array(omega))
        got = lap.surface_part(f, omega, n_sphere=n_sphere).data[sel]
        assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()


@pytest.mark.parametrize('dim,n,n_sphere,bound', _ORACLE_CASES,
                         ids=['2d', '3d'])
def test_windowed_shell_matches_the_continuum(dim, n, n_sphere, bound):
    # the Maxwell route's principal value with weight 1: the windowed
    # radial rule against int_0^T taper(t) (H(omega + t) - H(omega - t))
    # / t dt by 64 Gauss-Legendre panels of 40 nodes, broken at T / 2
    # where the taper stops being 1
    g, f, sel, H = _gaussian_oracle(dim, n)
    omega, window = 3.0, 2 * lap.MARGIN * 3.0
    T = min(window, 0.99 * omega)
    s, w = np.polynomial.legendre.leggauss(40)
    edges = np.concatenate([np.linspace(0, T / 2, 33),
                            np.linspace(T / 2, T, 33)[1:]])
    h = 0.5 * np.diff(edges)[:, None]
    t = (h * (s + 1) + edges[:-1, None]).ravel()
    wt = (h * w).ravel() * lap._smooth_step(2 * t / T - 1)
    want = wt / t @ (H(omega + t) - H(omega - t))
    got = lap._apply_offgrid(f, [lap._radial_term(
        g, omega, lap._band_cutoff(g), np.eye(dim), n_sphere, 24,
        window=window)]).data[sel]
    assert np.abs(got - want).max() < bound * np.abs(want).max()


# (dim, n, n_sphere, omega, bound) of pv_part's unwindowed rule at its
# default 32 radial nodes.  The bounds hold the measured 7.5e-3 / 2.0e-4
# (2D, omega 3 / 5.5) and 2.2e-4 / 1.7e-5 (3D): the plain tails cross the
# cutoff's edges r_in and r_out, where it is not analytic (64 radial nodes
# read 7.4e-9 / 4.0e-10 in 2D; in 3D 6.7e-6 / 1.6e-5, held by the sphere
# rule, and 3.9e-8 / 7.9e-8 with 48 sphere nodes)
_PV_CASES = [(2, 128, 160, 3.0, 1e-2), (2, 128, 160, 5.5, 3e-4),
             (3, 64, 32, 3.0, 3e-4), (3, 64, 32, 5.5, 3e-5)]


@pytest.mark.parametrize('dim,n,n_sphere,omega,bound', _PV_CASES,
                         ids=['2d-3', '2d-5.5', '3d-3', '3d-5.5'])
def test_pv_part_matches_the_continuum(dim, n, n_sphere, omega, bound):
    # PV int_0^r_max H(r) / (r - omega) dr = int (H(r) - H(omega)) /
    # (r - omega) dr + H(omega) log((r_max - omega) / omega), the integral
    # by 16 Gauss-Legendre panels of 40 nodes on each of (0, omega),
    # (omega, r_in) and (r_in, r_max), r_max = r_out
    g, f, sel, H = _gaussian_oracle(dim, n)
    beta = lap._band_cutoff(g)
    s, w = np.polynomial.legendre.leggauss(40)
    H0 = H(np.array(omega))
    want = H0 * np.log((beta.r_out - omega) / omega)
    for lo, hi in ((0, omega), (omega, beta.r_in), (beta.r_in, beta.r_out)):
        edges = np.linspace(lo, hi, 17)
        for a, b in zip(edges[:-1], edges[1:]):
            r = 0.5 * (b - a) * (s + 1) + a
            want = want + (0.5 * (b - a) * w / (r - omega)) @ (H(r) - H0)
    got = lap.pv_part(f, omega, n_sphere=n_sphere).data[sel]
    assert np.abs(got - want).max() < bound * np.abs(want).max()


# (dim, n, n_sphere, omega, bound) of e_delta's quadrature at the complex
# pole, delta 0.05, at its default 32 radial nodes.  The bounds hold the
# measured 3.6e-3 / 1.1e-4 (2D, omega 3 / 5.5) and 1.4e-4 / 6.5e-6 (3D) at
# sign +1: as for pv_part, the plain tails cross the cutoff's edges (128
# radial nodes read 1.6e-10 in 2D)
_EDELTA_CASES = [(2, 128, 160, 3.0, 5e-3), (2, 128, 160, 5.5, 2e-4),
                 (3, 64, 32, 3.0, 2e-4), (3, 64, 32, 5.5, 1e-5)]


@pytest.mark.parametrize('dim,n,n_sphere,omega,bound', _EDELTA_CASES,
                         ids=['2d-3', '2d-5.5', '3d-3', '3d-5.5'])
def test_e_delta_matches_the_continuum(dim, n, n_sphere, omega, bound):
    # int_0^r_out H(r) / (r - (omega + i sign delta)) dr by Gauss-Legendre
    # panels of 40 nodes, cut at 64 even steps of (0, r_out), at r_in and
    # at omega + delta sinh(u), u in 96 even steps of (-12, 12), which
    # resolves the delta-wide layer
    g, f, sel, H = _gaussian_oracle(dim, n)
    beta, delta = lap._band_cutoff(g), 0.05
    s, w = np.polynomial.legendre.leggauss(40)
    layer = omega + delta * np.sinh(np.linspace(-12, 12, 97))
    edges = np.unique(np.concatenate([
        np.linspace(0, beta.r_out, 65), [beta.r_in],
        layer[(layer > 0) & (layer < beta.r_out)]]))
    h = 0.5 * np.diff(edges)[:, None]
    r = (h * (s + 1) + edges[:-1, None]).ravel()
    wr, Hr = (h * w).ravel(), H(r)
    for sign in (1, -1):
        want = wr / (r - (omega + 1j * sign * delta)) @ Hr
        got = lap.e_delta(f, omega, delta, sign, method='quadrature',
                          n_sphere=n_sphere).data[sel]
        assert np.abs(got - want).max() < bound * np.abs(want).max()


def _smooth_annulus(grid, lo, hi, shift=(0.7, -1.1)):
    xi = grid.xi_flat()
    r = np.sqrt(np.einsum('ki,ki->k', xi, xi))
    t = (r - lo) / (hi - lo)
    prof = np.where((t > 0) & (t < 1),
                    np.exp(-1.0 / np.clip(t * (1 - t), 1e-12, None) / 0.25),
                    0.0)
    c = prof * np.exp(1j * (xi @ np.asarray(shift)))
    return sp.Field.from_coeffs(grid, c.reshape((1,) + (grid.n,) * grid.dim))


@pytest.mark.parametrize('n_radial', [1, 2, 5, 24])
def test_windowed_rule_splits_at_the_taper_edge(n_radial):
    # ceil(n/2) paired nodes on (0, T/2), where the taper is 1, and
    # floor(n/2) on (T/2, T); the lower ones form a Gauss-Legendre rule
    # of (0, T/2), exact on t
    r0, T = 3.0, 2.1
    radii, coefs = lap._radial_nodes(r0, 20.0, n_radial, window=T)
    t, c = radii[:n_radial] - r0, coefs[:n_radial]
    assert np.allclose(radii[n_radial:] + radii[:n_radial], 2 * r0,
                       rtol=0, atol=1e-15)
    assert np.array_equal(coefs[n_radial:], -c)
    low = t < T / 2
    assert low.sum() == n_radial - n_radial // 2 and np.all(t < T)
    assert np.sum(c[low] * t[low] ** 2) == pytest.approx(T ** 2 / 8,
                                                         rel=1e-14)


def test_e_delta_norm_monotone_near_sphere():
    # |denominator| shrinks pointwise as delta decreases, so the norm of
    # e_delta f is nondecreasing for spectrum near the sphere
    g = sp.Grid(2, 64)
    f = _smooth_annulus(g, 1.0, 8.0)
    beta = lap.CutoffSpec(18.0, 28.0)
    norms = [sp.lebesgue_norm(
        lap.e_delta(f, OMEGA, d, +1, beta, 'eps_prime', MAT2,
                    method='lattice'), 2)
        for d in (0.4, 0.2, 0.1, 0.05)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))


def test_pv_convergence_tolerance():
    g = sp.Grid(2, 64)
    f = _smooth_annulus(g, 1.0, 8.0)
    beta = lap.CutoffSpec(18.0, 28.0)
    out = lap.pv_part(f, OMEGA, beta, 'eps_prime', MAT2, tol=1e-2)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize('omega', [10.0, 40.0])
def test_pole_past_the_cutoff_integrates_its_support(omega):
    # the band cutoff of 16^2 ends at r_max = 7.6; past it the left tail
    # stops at r_max, where the integrand does, so 32 radial nodes agree
    # with 512 to 4.1e-5 / 3.6e-5 (omega 10 / 40), against 4.6e-4 / 0.43
    # with that tail spread over (0, omega)
    f = sp.random_band_limited(sp.Grid(2, 16), 1, np.random.default_rng(0))
    for op in (lap.pv_part, functools.partial(lap.e_delta, delta=0.1,
                                              method='quadrature')):
        coarse, fine = op(f, omega), op(f, omega, n_radial=512)
        assert (sp.lebesgue_norm(coarse - fine, 2)
                < 1e-4 * sp.lebesgue_norm(fine, 2))


@pytest.mark.parametrize('mat,grid,ncomp', [
    (MAT2, sp.Grid(2, 64), 3),
    (MAT3, sp.Grid(3, 16), 6),
])
def test_lap_solve_far_spectrum(mat, grid, ncomp):
    J = far_current(grid, mat, ncomp, OMEGA)
    uq = lap.lap_solve(OMEGA, J, mat, method='quadrature')
    ue = lap.lap_solve(OMEGA, J, mat, method='extrapolate')
    assert (sp.lebesgue_norm(uq - ue, 2)
            / sp.lebesgue_norm(uq, 2)) < 1e-10
    r = sp.forward_operator(OMEGA, uq, mat) - J
    assert (sp.lebesgue_norm(r, 2) / sp.lebesgue_norm(J, 2)) < 1e-10


@pytest.mark.parametrize('mat,grid,ncomp', [
    (MAT2, sp.Grid(2, 64), 3),
    (MAT3, sp.Grid(3, 16), 6),
])
def test_difference_identity(mat, grid, ncomp):
    J = sp.random_band_limited(grid, ncomp, RNG)
    up = lap.lap_solve(OMEGA, J, mat, sign=+1)
    um = lap.lap_solve(OMEGA, J, mat, sign=-1)
    st = lap.surface_terms(OMEGA, J, mat, sign=+1)
    diff = (up - um) - 2.0 * st
    denom = max(sp.lebesgue_norm(up - um, 2), 1e-300)
    assert sp.lebesgue_norm(diff, 2) / denom < 1e-10


@pytest.mark.parametrize('mat,grid,ncomp', [
    (MAT2, sp.Grid(2, 64), 3),
    (MAT3, sp.Grid(3, 16), 6),
])
def test_lap_solve_is_common_plus_minus_surface(mat, grid, ncomp):
    J = sp.random_band_limited(grid, ncomp, RNG)
    common, surface = lap.lap_parts(OMEGA, J, mat)
    st = lap.surface_terms(OMEGA, J, mat)
    assert _rel(surface.data, st.data) < 1e-14
    for sign in (+1, -1):
        u = lap.lap_solve(OMEGA, J, mat, sign=sign)
        assert _rel(u.data, (common + sign * st).data) < 1e-14


def test_near_sphere_axis_modes_use_direct_inverse():
    # 3D modes on the distinguished axis near a sphere skip the split;
    # the lattice inverse, undropped, still solves them exactly
    g = sp.Grid(3, 16)
    near = lap._sphere_distance(g.xi_flat(), OMEGA, MAT3) < 0.35 * OMEGA
    sel = near & symbol.on_axis(g.xi_flat())
    assert sel.any()
    c = np.zeros((6, g.npoints), dtype=complex)
    c[:, sel] = RNG.standard_normal((6, sel.sum()))
    J = sp.Field.from_coeffs(g, c.reshape((6,) + (16,) * 3))
    u = lap.lap_solve(OMEGA, J, MAT3)
    r = sp.forward_operator(OMEGA, u, MAT3) - J
    assert sp.lebesgue_norm(r, 2) / sp.lebesgue_norm(J, 2) < 1e-12


def test_axis_mode_on_sphere_is_on_singular_set():
    # isotropic 3D at omega = 3: the near-axis mode (3, 0, 0) lies on
    # both spheres, where the real-frequency symbol has no inverse
    g = sp.Grid(3, 16)
    J = sp.random_band_limited(g, 6, RNG)
    with pytest.raises(OnSingularSet, match=r'omega = 3 .*\(3, 0, 0\)'):
        lap.lap_parts(3.0, J, Material3(1.0, 1.0))


def test_lattice_route_refuses_a_mode_on_a_sphere():
    # isotropic 2D at omega = 3: the band holds modes with |k| = 3, where
    # the periodic limit does not exist; the quadrature route splits them
    J = sp.random_band_limited(sp.Grid(2, 32), 3, np.random.default_rng(5),
                               kmax=15)
    mat = Material2(1.0, 0.0, 1.0)
    with pytest.raises(OnSingularSet, match=r'omega = 3 .*\(0, 3\)'):
        lap.lap_parts(3.0, J, mat, method='extrapolate')
    common, jump = lap.lap_parts(3.0, J, mat)
    assert np.isfinite(common.data).all() and np.isfinite(jump.data).all()


@pytest.mark.parametrize('method', ['quadrature', 'extrapolate'])
def test_on_sphere_mode_is_named_in_the_callers_axes(method):
    # distinguished axis 2: the caller's mode (0, 3, 0) is the canonical
    # near-axis mode (3, 0, 0), on both spheres at omega = 3
    g = sp.Grid(3, 16)
    c = np.zeros((6,) + (16,) * 3, dtype=complex)
    c[:, 0, 3, 0] = 1.0
    J = sp.Field.from_coeffs(g, c)
    with pytest.raises(OnSingularSet, match=r'omega = 3 .*\(0, 3, 0\)'):
        lap.lap_parts(3.0, J, Material3(1.0, 1.0, axis=2), method=method)


@pytest.fixture(scope='module')
def full_3d_source():
    return sp.random_band_limited(sp.Grid(3, 16), 6,
                                  np.random.default_rng(5), kmax=8)


@pytest.mark.parametrize('orders', [(31, 32), (32, 48)],
                         ids=['odd-even', 'doubling'])
def test_3d_surface_terms_converge_in_the_sphere_order(full_3d_source,
                                                      orders):
    # the sphere rule's pole is the distinguished axis, so the integrand
    # is smooth in the rule's angles: an odd order is as good as an even
    # one, and 32 -> 48 moves the jump by about 2e-13 (4.7e-4 with the
    # pole on xi_3)
    lo, hi = (lap.surface_terms(OMEGA, full_3d_source, MAT3, n_sphere=n)
              for n in orders)
    assert _rel(lo.data, hi.data) < 1e-10


def test_no_sphere_node_is_near_the_axis():
    # Gauss-Legendre in xi_1 puts no node at +-1, and each sphere's map
    # q^(-1/2) keeps xi_1 as an axis: the smallest transverse fraction of
    # the polar rule's directions (radius 1) over n = 1..64 is about
    # 5e-4, where the spheres are apart
    for n in range(1, 65):
        for qform in MAT3.sphere_qforms:
            dirs, _, _ = lap._polar_points(np.ones(1), np.ones(1), qform,
                                           lap.CutoffSpec(10.0, 20.0),
                                           sp.Grid(3, 8), n)
            frac = (dirs[..., 1:] ** 2).sum(-1) / (dirs ** 2).sum(-1)
            assert frac.min() >= 1e-8, n


def test_lap_solve_negative_omega():
    g = sp.Grid(2, 64)
    J = far_current(g, MAT2, 3, OMEGA)
    u = lap.lap_solve(-OMEGA, J, MAT2, sign=-1)
    r = sp.forward_operator(-OMEGA, u, MAT2) - J
    assert (sp.lebesgue_norm(r, 2) / sp.lebesgue_norm(J, 2)) < 1e-10


@pytest.mark.parametrize('sign', [0, 2, -0.5, np.nan])
def test_lap_solve_refuses_other_signs(sign):
    # common + sign * jump is a boundary value only at sign = +-1;
    # sign = 0 would be the half-sum of the two
    J = sp.random_band_limited(sp.Grid(2, 16), 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match='sign'):
        lap.lap_solve(1.0, J, MAT2, sign=sign)


@pytest.mark.parametrize('grid,mat', [
    (sp.Grid(2, 128), MAT2),
    (sp.Grid(3, 16), Material3(1.0, 1.0)),
], ids=['2d-128', '3d-16-isotropic'])
def test_extrapolate_has_no_jump_off_the_spheres(grid, mat):
    # no lattice mode lies on a sphere, so the periodic limits from the
    # two half planes are one lattice inverse
    omega = rg.off_sphere_frequency(grid, mat)
    J = sp.random_band_limited(grid, 3 if grid.dim == 2 else 6,
                               np.random.default_rng(5), kmax=grid.n // 2)
    common, jump = lap.lap_parts(omega, J, mat, method='extrapolate')
    assert sp.lebesgue_norm(jump, 2) == 0


def test_blowup_probe_slope():
    g = sp.Grid(2, 64)
    mat = Material2(1.0, 0.0, 1.0)
    omega = rg.on_sphere_frequency(g, mat)
    deltas = [2.0 ** -k for k in range(3, 8)]
    fit, ds, ratios = lap.lap_blowup_probe(
        omega, rg.LebesguePair(0.5, 0.5, 2), mat, deltas, grid=g)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


def test_blowup_probe_isotropic_3d_takes_axis_modes():
    # the on-sphere frequency of an isotropic material puts axis modes
    # such as (3, 0, 0) in the annulus; they take the closed-form
    # eigenbasis, as every other mode does
    g = sp.Grid(3, 16)
    mat = Material3(1.0, 1.0)
    omega = rg.on_sphere_frequency(g, mat)
    xi = g.xi_flat()
    rho = rg.characteristic_radii(xi, mat)[0]
    assert (symbol.on_axis(xi) & (np.abs(rho - omega) < 0.5)).any()
    assert symbol.on_axis(xi[rg._annulus_modes(xi, omega, mat, 0.5)[0]]).any()
    deltas = [2.0 ** -k for k in range(3, 7)]
    fit, _, _ = lap.lap_blowup_probe(
        omega, rg.LebesguePair(0.5, 0.5, 3), mat, deltas, grid=g)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


@pytest.mark.parametrize('grid,mat', [
    (sp.Grid(2, 128), MAT2),
    (sp.Grid(3, 32), MAT3),
    (sp.Grid(3, 16), Material3(0.5, 1.4, axis=3, mu=1.3)),
    (sp.Grid(3, 16), Material3(1.0, 1.0)),
], ids=['2d-128', '3d-32', '3d-16-axis3-mu', '3d-16-isotropic'])
def test_extrapolate_matches_full_solve_oracle(grid, mat):
    J = sp.random_band_limited(grid, 3 if grid.dim == 2 else 6, RNG)
    c = J.coeffs().reshape(J.ncomp, -1)
    assert np.abs(c[:, 0]).max() > 0.1          # a nonzero mean
    if grid.n == 16 and mat.is_canonical:
        # the isotropic case: the axis modes in the band, 0 < |k| <= n/4
        # (the source keeps its exact coefficients, which are 0 outside
        # the band)
        assert (symbol.on_axis(grid.xi_flat())
                & (np.abs(c).max(axis=0) > 0)).sum() == 2 * (grid.n // 4)
    # off the spheres both limits are the lattice inverse P(omega)^{-1} J
    common, jump = lap.lap_parts(OMEGA, J, mat, method='extrapolate')
    assert sp.lebesgue_norm(jump, 2) == 0
    for sign in (+1, -1):
        u = lap.lap_solve(OMEGA, J, mat, sign=sign, method='extrapolate')
        r = sp.forward_operator(OMEGA, u, mat) - J
        assert sp.lebesgue_norm(r, 2) <= 1e-13 * sp.lebesgue_norm(J, 2)


@pytest.mark.parametrize('grid,mat', [
    (sp.Grid(2, 64), MAT2),
    (sp.Grid(3, 16), MAT3),
], ids=['2d-64', '3d-16'])
def test_blowup_ratios_are_per_mode_solves(grid, mat):
    # the probe's closed form |w_c| vol^(1/q - 1/p) against the grid
    # solve of every sample
    omega = rg.on_sphere_frequency(grid, mat)
    pair = rg.LebesguePair(0.6, 0.3, grid.dim)
    deltas = [2.0 ** -3, 2.0 ** -6, 2.0 ** -9]
    _, _, ratios = lap.lap_blowup_probe(omega, pair, mat, deltas, grid=grid)
    xi = grid.xi_flat()
    sel, rho = rg._annulus_modes(xi, omega, mat, 0.5)
    sel = sel[np.argsort(np.abs(rho - omega))[:48]]
    col = mp._singular_columns(omega, mat)[0]
    m = symbol._eigen_basis(xi[sel], mat)[0]
    ncomp = 3 if grid.dim == 2 else 6
    for delta, got in zip(deltas, ratios):
        best = 0.0
        for i in range(sel.size):
            c = np.zeros((ncomp, grid.npoints), dtype=complex)
            c[:, sel[i]] = m[i, :, col]
            J = sp.Field.from_coeffs(
                grid, c.reshape((ncomp,) + (grid.n,) * grid.dim))
            u = sp.solve(omega + 1j * delta, J, mat)
            best = max(best, sp.lebesgue_norm(u, pair.q)
                       / sp.lebesgue_norm(J, pair.p))
        assert abs(got - best) <= 1e-12 * best


def test_blowup_probe_checks_closed_form(monkeypatch):
    monkeypatch.setattr(lap, 'multiplier', PerturbedFactors())
    g = sp.Grid(2, 64)
    omega = rg.on_sphere_frequency(g, MAT2)
    with pytest.raises(MethodsDisagree, match='closed form'):
        lap.lap_blowup_probe(omega, rg.LebesguePair(0.5, 0.5, 2), MAT2,
                             [2.0 ** -3, 2.0 ** -6], grid=g)


@pytest.mark.parametrize('mat', [MAT3, Material3(0.5, 1.0 / 0.7, axis=2,
                                                 mu=1.3)],
                         ids=['canonical', 'axis2-mu1.3'])
def test_one_frame_map_per_call(monkeypatch, mat):
    # every entry point maps its current into the canonical frame once
    calls = []
    real = symbol.canonicalize

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symbol, 'canonicalize', counting)
    J = sp.random_band_limited(sp.Grid(3, 16), 6, RNG, kmax=1)
    runs = [lambda: sp.solve(OMEGA + 0.4j, J, mat),
            lambda: lap.surface_terms(OMEGA, J, mat)]
    for method in ('quadrature', 'extrapolate'):
        runs.append(lambda m=method: lap.lap_parts(OMEGA, J, mat, m))
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == 1 and calls[0][1] is J


@pytest.mark.parametrize('dim', [2, 3])
def test_one_offgrid_synthesis_per_output(monkeypatch, dim):
    # every sphere's principal value is one synthesis, added to common,
    # and every sphere's surface term one, the jump
    calls = []
    real = lap._apply_offgrid

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lap, '_apply_offgrid', counting)
    mat = MAT2 if dim == 2 else MAT3
    J = sp.random_band_limited(sp.Grid(dim, 16), 3 * (dim - 1), RNG)
    lap.lap_parts(OMEGA, J, mat)
    assert len(calls) == 2
    calls.clear()
    lap.surface_terms(OMEGA, J, mat)
    assert len(calls) == 1


_F1 = sp.random_band_limited(sp.Grid(2, 16), 1, np.random.default_rng(1))
_J2 = sp.random_band_limited(sp.Grid(2, 16), 3, np.random.default_rng(2))
_J3 = sp.random_band_limited(sp.Grid(3, 16), 6, np.random.default_rng(3))
_F3 = sp.random_band_limited(sp.Grid(3, 8), 1, np.random.default_rng(5))
_Z_QUERY = rg.RegionQuery(rg.LebesguePair(0.6, 0.4, 2), 1.3)
BAD_ARGUMENTS = {
    # riesz(f, 0) read the last axis through xi[:, -1]
    'riesz-axis-0': (lambda: sp.riesz(_F1, 0), 'axis'),
    'riesz-axis-3-in-2d': (lambda: sp.riesz(_F1, 3), 'axis'),
    'riesz-axis-1.5': (lambda: sp.riesz(_F1, 1.5), 'axis'),
    'half-laplacian-sign-5': (
        lambda: sp.half_laplacian_resolvent(_F1, 1 + 1j, sign=5), 'sign'),
    'lap-solve-n-sphere-0': (
        lambda: lap.lap_solve(OMEGA, _J2, MAT2, n_sphere=0), 'n_sphere'),
    'lap-parts-n-sphere-3.5': (
        lambda: lap.lap_parts(OMEGA, _J2, MAT2, n_sphere=3.5), 'n_sphere'),
    'surface-terms-n-sphere-0': (
        lambda: lap.surface_terms(OMEGA, _J3, MAT3, n_sphere=0), 'n_sphere'),
    'surface-terms-n-sphere-3.5': (
        lambda: lap.surface_terms(OMEGA, _J2, MAT2, n_sphere=3.5),
        'n_sphere'),
    # True counted as 1 and ended in numpy's TypeError
    'lap-parts-n-sphere-true': (
        lambda: lap.lap_parts(OMEGA, _J2, MAT2, n_sphere=True), 'n_sphere'),
    'surface-terms-n-sphere-true': (
        lambda: lap.surface_terms(OMEGA, _J3, MAT3, n_sphere=True),
        'n_sphere'),
    'lap-parts-n-radial-true': (
        lambda: lap.lap_parts(OMEGA, _J2, MAT2, n_radial=True), 'n_radial'),
    'lap-solve-n-radial-0': (
        lambda: lap.lap_solve(OMEGA, _J3, MAT3, n_radial=0), 'n_radial'),
    'lap-parts-n-radial-2.5': (
        lambda: lap.lap_parts(OMEGA, _J2, MAT2, n_radial=2.5), 'n_radial'),
    # a negative delta reached LAPACK, which printed DLASCL lines
    'blowup-negative-delta': (
        lambda: lap.lap_blowup_probe(3.0, rg.LebesguePair(0.5, 0.5, 2),
                                     MAT2, [0.1, -0.05], sp.Grid(2, 32)),
        'deltas'),
    'blowup-one-delta': (
        lambda: lap.lap_blowup_probe(3.0, rg.LebesguePair(0.5, 0.5, 2),
                                     MAT2, [0.1], sp.Grid(2, 32)), 'deltas'),
    'surface-terms-omega-0': (
        lambda: lap.surface_terms(0.0, _J2, MAT2), 'nonzero'),
    # sign = 0 gave the zero field, sign = 2 twice the jump
    'surface-terms-sign-0': (
        lambda: lap.surface_terms(OMEGA, _J2, MAT2, sign=0),
        r'sign must be \+1 or -1, got 0'),
    'surface-terms-sign-2': (
        lambda: lap.surface_terms(OMEGA, _J3, MAT3, sign=2), 'sign'),
    'det-diagnostics-material2': (
        lambda: symbol.det_diagnostics(np.ones((2, 3)), MAT2), '3D'),
    # wavevectors of another dimension than the material: a 3x3 symbol
    # that ignored xi_3, or numpy's bare ValueError or IndexError
    'symbol-p-3d-xi-material2': (
        lambda: symbol.symbol_p(1 + 1j, np.ones((5, 3)), MAT2),
        'dimension 3 .* 2D material'),
    'resolvent-matrix-2d-xi-material3': (
        lambda: mp.resolvent_matrix(1 + 1j, np.ones((5, 2)), MAT3),
        'dimension 2 .* 3D material'),
    'eigen-decomposition-3d-xi-material2': (
        lambda: symbol.eigen_decomposition(1 + 1j, np.ones((5, 3)), MAT2),
        'dimension 3 .* 2D material'),
    # eigen_decomposition ran no frequency check: NaN gave an all-NaN d,
    # inf nan+infj entries, 'x' numpy's bare UFuncTypeError and None a
    # bare TypeError
    'eigen-decomposition-omega-nan': (
        lambda: symbol.eigen_decomposition(np.nan, np.ones((5, 3)), MAT3),
        'omega must be a finite number'),
    'eigen-decomposition-omega-inf': (
        lambda: symbol.eigen_decomposition(np.inf, np.ones((5, 3)), MAT3),
        'omega must be a finite number'),
    'eigen-decomposition-omega-str': (
        lambda: symbol.eigen_decomposition('x', np.ones((5, 2)), MAT2),
        'omega must be a finite number'),
    'eigen-decomposition-omega-none': (
        lambda: symbol.eigen_decomposition(None, np.ones((5, 2)), MAT2),
        'omega must be a finite number'),
    'det-diagnostics-2d-xi': (
        lambda: symbol.det_diagnostics(np.ones((5, 2)), MAT3),
        'dimension 2 .* 3D material'),
    'on-sphere-frequency-material3-on-2d': (
        lambda: rg.on_sphere_frequency(sp.Grid(2, 16), MAT3),
        'dimension 2 .* 3D material'),
    'off-sphere-frequency-material2-on-3d': (
        lambda: rg.off_sphere_frequency(sp.Grid(3, 8), MAT2),
        'dimension 3 .* 2D material'),
    'annulus-source-material3-on-2d': (
        lambda: rg.annulus_source(sp.Grid(2, 32), 3.0, MAT3),
        'dimension 2 .* 3D material'),
    # a NaN or infinite wavevector gave NaN matrices and radii
    'symbol-p-nan-xi': (
        lambda: symbol.symbol_p(1 + 1j, [[1.0, np.nan, 0.0]], MAT3), 'xi'),
    'eigen-decomposition-inf-xi': (
        lambda: symbol.eigen_decomposition(1 + 1j, [[np.inf, 1.0]], MAT2),
        'xi'),
    'resolvent-matrix-nan-xi': (
        lambda: mp.resolvent_matrix(1 + 1j, [[np.nan, 0.0, 0.0]], MAT3),
        'xi'),
    'det-diagnostics-inf-xi': (
        lambda: symbol.det_diagnostics([[1.0, 0.0, -np.inf]], MAT3), 'xi'),
    'characteristic-radii-nan-xi': (
        lambda: rg.characteristic_radii([[np.nan, 2.0]], MAT2), 'xi'),
    # a ZeroDivisionError from the cap's width |omega|^(-1/2)
    'knapp-source-omega-0': (
        lambda: rg.knapp_source(sp.Grid(3, 16), 0.0, MAT3), 'omega'),
    'knapp-source-material3-on-2d': (
        lambda: rg.knapp_source(sp.Grid(2, 32), 3.0, MAT3),
        'dimension 2 .* 3D material'),
    'blowup-material3-on-2d': (
        lambda: lap.lap_blowup_probe(3.0, rg.LebesguePair(0.5, 0.5, 2),
                                     MAT3, [0.1, 0.05], sp.Grid(2, 32)),
        'dimension 2 .* 3D material'),
    # -1 gave an empty curve (alpha != 0) or numpy's bare ValueError
    # (alpha = 0), and 2.5 a TypeError
    'z-boundary-resolution-minus-1': (
        lambda: rg.z_boundary(_Z_QUERY, resolution=-1), 'resolution'),
    'z-boundary-cone-resolution-minus-1': (
        lambda: rg.z_boundary(rg.RegionQuery(rg.LebesguePair(0.75, 0.25, 2),
                                             2.0), resolution=-1),
        'resolution'),
    'z-boundary-resolution-1': (
        lambda: rg.z_boundary(_Z_QUERY, resolution=1), 'resolution'),
    'z-boundary-resolution-2.5': (
        lambda: rg.z_boundary(_Z_QUERY, resolution=2.5), 'resolution'),
    # p = 0 divided by zero, and p = 0.5 < q = 0.9 gave a verdict
    'enclosure-p-0': (
        lambda: rg.eigenvalue_enclosure(
            rg.RegionQuery(rg.LebesguePair(0.5, 0.25, 2), 1.0), _F1, 0, 4),
        'p'),
    'enclosure-p-0.5': (
        lambda: rg.eigenvalue_enclosure(
            rg.RegionQuery(rg.LebesguePair(0.5, 0.25, 2), 1.0), _F1, 0.5,
            0.9), 'p'),
    # a NaN slope, and LAPACK DLASCL lines then LinAlgError
    'loglog-fit-zero-y': (lambda: rg.loglog_fit([1, 2], [0, 1]), 'positive'),
    'loglog-fit-negative-x': (
        lambda: rg.loglog_fit([-1, 2], [1, 1]), 'positive'),
    # the model operators dropped the infinite tail with RuntimeWarnings
    'cutoff-infinite-r-out': (lambda: lap.CutoffSpec(1.0, np.inf), 'r_out'),
    # sign = 0 gave "field data must be finite" after RuntimeWarnings on
    # the lattice, a finite field by quadrature and the zero field from
    # surface_part; the other signs gave a field without complaint
    'e-delta-sign-0': (lambda: lap.e_delta(_F1, OMEGA, 0.1, sign=0),
                       r'sign must be \+1 or -1, got 0'),
    'e-delta-sign-0.5': (lambda: lap.e_delta(_F1, OMEGA, 0.1, sign=0.5),
                         'sign'),
    'e-delta-quadrature-sign-0': (
        lambda: lap.e_delta(_F1, OMEGA, 0.1, sign=0, method='quadrature'),
        'sign'),
    'e-delta-quadrature-sign-2': (
        lambda: lap.e_delta(_F1, OMEGA, 0.1, sign=2, method='quadrature'),
        'sign'),
    'surface-part-sign-0': (lambda: lap.surface_part(_F1, OMEGA, sign=0),
                            'sign'),
    'surface-part-sign-minus-3': (
        lambda: lap.surface_part(_F1, OMEGA, sign=-3), 'sign'),
    # tol = nan skipped the doubling check (tol <= 0 always fails it)
    'pv-part-tol-nan': (lambda: lap.pv_part(_F1, OMEGA, tol=np.nan), 'tol'),
    'pv-part-tol-0': (lambda: lap.pv_part(_F1, OMEGA, tol=0.0), 'tol'),
    # GridTooCoarse, "annulus contains no lattice modes; increase the
    # thickness"
    'annulus-source-thickness-nan': (
        lambda: rg.annulus_source(sp.Grid(2, 32), 3.0, MAT2,
                                  thickness=np.nan), 'thickness'),
    'annulus-source-thickness-minus-1': (
        lambda: rg.annulus_source(sp.Grid(2, 32), 3.0, MAT2,
                                  thickness=-1.0), 'thickness'),
    'annulus-source-thickness-0': (
        lambda: rg.annulus_source(sp.Grid(3, 8), 2.0, MAT3, thickness=0.0),
        'thickness'),
    # numpy's bare ValueError, and a field of no components
    'random-band-limited-ncomp-minus-1': (
        lambda: sp.random_band_limited(sp.Grid(2, 16), -1, RNG), 'ncomp'),
    'random-band-limited-ncomp-0': (
        lambda: sp.random_band_limited(sp.Grid(2, 16), 0, RNG), 'ncomp'),
    'random-band-limited-ncomp-true': (
        lambda: sp.random_band_limited(sp.Grid(2, 16), True, RNG), 'ncomp'),
    # an all-zero field
    'random-band-limited-kmax-nan': (
        lambda: sp.random_band_limited(sp.Grid(2, 16), 1, RNG, kmax=np.nan),
        'kmax'),
    # a nan frequency
    'off-sphere-frequency-near-nan': (
        lambda: rg.off_sphere_frequency(sp.Grid(2, 16), MAT2, near=np.nan),
        'near'),
    'off-sphere-frequency-near-inf': (
        lambda: rg.off_sphere_frequency(sp.Grid(2, 16), MAT2, near=np.inf),
        'near'),
    # numpy's bare "matmul: Input operand 1 has a mismatch" ValueError
    'riesz-eps-tilde-on-2d': (
        lambda: sp.riesz(_F1, 1, 'eps_tilde', MAT3),
        '3D material does not apply to a 2D field'),
    'half-laplacian-eps-prime-on-3d': (
        lambda: sp.half_laplacian_resolvent(_F3, 1 + 1j, flavor='eps_prime',
                                            mat=MAT2),
        '2D material does not apply to a 3D field'),
    'e-delta-eps-tilde-on-2d': (
        lambda: lap.e_delta(_F1, OMEGA, 0.1, flavor='eps_tilde', mat=MAT3),
        '3D material .* 2D field'),
    'surface-part-eps-prime-on-3d': (
        lambda: lap.surface_part(_F3, OMEGA, flavor='eps_prime', mat=MAT2),
        '2D material .* 3D field'),
    # '<' not supported between instances of 'int' and 'str' (or
    # 'NoneType')
    'material2-eps11-str': (lambda: Material2('x', 0, 1), 'eps11'),
    'material2-mu-none': (lambda: Material2(2.0, 0.1, 1.0, mu=None), 'mu'),
    'material3-eps-axis-none': (lambda: Material3(None, 1.0), 'eps_axis'),
    'material3-eps-perp-str': (lambda: Material3(1.0, 'x'), 'eps_perp'),
    'grid-length-str': (lambda: sp.Grid(2, 16, 'x'), 'length'),
    'grid-length-none': (lambda: sp.Grid(3, 8, None), 'length'),
    # a float axis failed later as a list index; True was axis 1
    'material3-axis-float': (lambda: Material3(0.5, 1.4, axis=2.0), 'axis'),
    'material3-axis-true': (lambda: Material3(0.5, 1.4, axis=True), 'axis'),
    # '<' not supported between instances of 'str' and 'int', or numpy's
    # "ufunc 'isinf' not supported for the input types"
    'fractional-laplacian-s-str': (
        lambda: sp.fractional_laplacian(_F1, 'x'), 's must be a real number'),
    'random-band-limited-kmax-str': (
        lambda: sp.random_band_limited(sp.Grid(2, 16), 1, RNG, kmax='x'),
        'kmax must be a real number'),
    'lebesgue-norm-p-str': (lambda: sp.lebesgue_norm(_F1, 'x'),
                            'p must be a real number'),
    'lebesgue-norm-p-none': (lambda: sp.lebesgue_norm(_F1, None),
                             'p must be a real number'),
    'cutoff-r-in-str': (lambda: lap.CutoffSpec('x', 2.0),
                        'r_in must be a real number'),
    'e-delta-delta-str': (lambda: lap.e_delta(_F1, 3.0, 'x'),
                          'delta must be a real number'),
    'off-sphere-frequency-near-str': (
        lambda: rg.off_sphere_frequency(sp.Grid(3, 8), MAT3, near='x'),
        'near must be a real number'),
    'lebesgue-pair-x-str': (lambda: rg.LebesguePair('x', 0.5, 3),
                            'x must be a real number'),
    'lebesgue-pair-y-none': (lambda: rg.LebesguePair(0.5, None, 3),
                             'y must be a real number'),
    'lebesgue-pair-d-str': (lambda: rg.LebesguePair(0.5, 0.5, 'x'),
                            'd must be a real number'),
    'region-query-ell-none': (
        lambda: rg.RegionQuery(_Z_QUERY.pair, None),
        'ell must be a real number'),
    'region-query-c-str': (
        lambda: rg.RegionQuery(_Z_QUERY.pair, 1.3, C='x'),
        'C must be a real number'),
    'region-query-t-none': (
        lambda: rg.RegionQuery(_Z_QUERY.pair, 1.3, t=None),
        't must be a real number'),
    'eigenvalue-enclosure-p-str': (
        lambda: rg.eigenvalue_enclosure(_Z_QUERY, _F1, 'x', 4.0),
        'p must be a real number'),
    'eigenvalue-enclosure-q-none': (
        lambda: rg.eigenvalue_enclosure(_Z_QUERY, _F1, 2.0, None),
        'q must be a real number'),
    # '<' not supported between 'int' and 'str' (or 'NoneType')
    'annulus-source-thickness-str': (
        lambda: rg.annulus_source(sp.Grid(2, 32), 3.0, MAT2, thickness='x'),
        'thickness must be a real number'),
    'annulus-source-thickness-none': (
        lambda: rg.annulus_source(sp.Grid(2, 32), 3.0, MAT2,
                                  thickness=None),
        'thickness must be a real number'),
    'pv-part-tol-str': (lambda: lap.pv_part(_F1, 3.0, tol='x'),
                        'tol must be a real number'),
    # could not convert string to float: 'a'
    'blowup-deltas-str': (
        lambda: lap.lap_blowup_probe(3.0, rg.LebesguePair(0.5, 0.5, 2),
                                     MAT2, ['a', 'b'], sp.Grid(2, 32)),
        'deltas must be numbers'),
    'loglog-fit-xs-str': (lambda: rg.loglog_fit(['a', 'b'], [1, 2]),
                          'xs must be numbers'),
    'material3-from-diag-eps1-str': (
        lambda: material3_from_diag('x', 1, 1), 'eps1 must be a real number'),
    # complex('x'): complex() arg is a malformed string
    'scaling-probe-omegas-str': (
        lambda: rg.norm_scaling_probe(rg.LebesguePair(0.5, 0.5, 2), MAT2,
                                      'radial', ['x', 'y'], sp.Grid(2, 32)),
        'omegas must be numbers'),
    # "field data must be finite", after |xi|^s overflowed
    'fractional-laplacian-s-1e300': (
        lambda: sp.fractional_laplacian(_F1, 1e300), r's = 1e\+300'),
    'fractional-laplacian-s-2-on-tiny-grid': (
        lambda: sp.fractional_laplacian(sp.Field(
            sp.Grid(2, 16, 1e-300), np.ones((1, 16, 16))), 2), 's = 2'),
    # "field data must be finite" after RuntimeWarnings: the lattice
    # multiplier at the mode (3, 0) on the sphere overflowed, and the
    # radial rule took arcsinh(T / delta) of inf
    'e-delta-delta-subnormal': (lambda: lap.e_delta(_F1, 3.0, 5e-324),
                                'delta'),
    'e-delta-quadrature-delta-subnormal': (
        lambda: lap.e_delta(_F1, 3.0, 5e-324, method='quadrature'),
        'delta'),
    # numpy's bare LinAlgError
    'loglog-fit-lengths-differ': (
        lambda: rg.loglog_fit([1, 2, 3], [1, 2]), 'xs and ys'),
    # RealFrequency from solve, naming omega
    'scaling-probe-real-omega': (
        lambda: rg.norm_scaling_probe(rg.LebesguePair(0.5, 0.5, 2), MAT2,
                                      'radial', [3 + 0.5j, 3.0],
                                      sp.Grid(2, 32)), 'omegas'),
}


@pytest.mark.parametrize('case', sorted(BAD_ARGUMENTS))
def test_bad_arguments_are_invalid_argument(capfd, case):
    call, word = BAD_ARGUMENTS[case]
    with pytest.raises(InvalidArgument, match=word):
        call()
    assert capfd.readouterr().err == ''


_XI3 = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0]])
_PAIR = rg.LebesguePair(0.6, 0.3, 3)
BAD_FREQUENCIES = {
    # float(3 + 1j) was a bare TypeError
    'lap-parts-complex': lambda: lap.lap_parts(3 + 1j, _J2, MAT2),
    'lap-solve-complex': lambda: lap.lap_solve(3 + 1j, _J2, MAT2),
    'surface-terms-complex': lambda: lap.surface_terms(3 + 1j, _J3, MAT3),
    # numpy's LinAlgError from the direct solve
    'lap-parts-nan-extrapolate-3d': lambda: lap.lap_parts(
        np.nan, _J3, MAT3, 'extrapolate'),
    'solve-inf-imaginary': lambda: sp.solve(complex(1, np.inf), _J3, MAT3),
    # "need 0 < r_in < r_out", or GridTooCoarse, from the cutoff
    'surface-terms-nan': lambda: lap.surface_terms(np.nan, _J2, MAT2),
    'lap-parts-inf': lambda: lap.lap_parts(np.inf, _J2, MAT2),
    # NaN answers
    'resolvent-matrix-nan': lambda: mp.resolvent_matrix(
        complex(1, np.nan), _XI3, MAT3),
    'symbol-p-nan': lambda: symbol.symbol_p(np.nan, _XI3, MAT3),
    'symbol-p-array-nan': lambda: symbol.symbol_p(
        np.array([1 + 1j, np.nan]), _XI3, MAT3),
    'kappa-nan': lambda: rg.kappa(_PAIR, complex(1, np.nan)),
    'half-laplacian-nan': lambda: sp.half_laplacian_resolvent(
        _F1, complex(np.nan, 1)),
    # a zero field, with RuntimeWarnings from the node coefficients
    'e-delta-inf': lambda: lap.e_delta(_F1, np.inf, 0.1),
    'pv-part-inf': lambda: lap.pv_part(_F1, np.inf),
    'surface-part-inf': lambda: lap.surface_part(_F1, np.inf),
    # GridTooCoarse, "annulus contains no lattice modes"
    'blowup-nan': lambda: lap.lap_blowup_probe(
        np.nan, rg.LebesguePair(0.5, 0.5, 2), MAT2, [0.1, 0.05],
        sp.Grid(2, 32)),
    'blowup-inf': lambda: lap.lap_blowup_probe(
        np.inf, _PAIR, MAT3, [0.1, 0.05], sp.Grid(3, 8)),
    'blowup-complex': lambda: lap.lap_blowup_probe(
        3 + 1j, rg.LebesguePair(0.5, 0.5, 2), MAT2, [0.1, 0.05],
        sp.Grid(2, 32)),
    # GridTooCoarse, "annulus contains no lattice modes" or "cap contains
    # no lattice modes"
    'annulus-source-nan': lambda: rg.annulus_source(
        sp.Grid(2, 32), np.nan, MAT2),
    'annulus-source-inf': lambda: rg.annulus_source(
        sp.Grid(3, 16), np.inf, MAT3),
    'knapp-source-nan': lambda: rg.knapp_source(
        sp.Grid(3, 16), complex(np.nan, 0.5), MAT3),
    'knapp-source-inf': lambda: rg.knapp_source(
        sp.Grid(3, 16), np.inf, MAT3),
    'scaling-probe-nan': lambda: rg.norm_scaling_probe(
        rg.LebesguePair(0.5, 0.5, 2), MAT2, 'radial', [3 + 0.5j, np.nan],
        sp.Grid(2, 32)),
    'scaling-probe-knapp-inf': lambda: rg.norm_scaling_probe(
        _PAIR, MAT3, 'knapp', [complex(np.inf, 0.5)], sp.Grid(3, 16)),
    # False, with no error
    'z-region-nan': lambda: rg.z_region(rg.RegionQuery(_PAIR, 2.0),
                                        complex(1, np.nan)),
    # "field data must be finite": 1 / omega overflowed at the zero mode
    # and on the static columns, or the radial rule's half-width
    # underflowed to 0 and its coefficients were 0 / 0
    'lap-solve-subnormal': lambda: lap.lap_solve(5e-324, _J2, MAT2),
    'lap-parts-subnormal-extrapolate': lambda: lap.lap_parts(
        5e-324, _J2, MAT2, 'extrapolate'),
    'solve-subnormal': lambda: sp.solve(1e-320j, _J3, MAT3),
    'pv-part-subnormal': lambda: lap.pv_part(_F1, 5e-324),
    'half-laplacian-subnormal': lambda: sp.half_laplacian_resolvent(
        _F1, 1e-320j),
}


@pytest.mark.parametrize('case', sorted(BAD_FREQUENCIES))
def test_bad_frequencies_are_invalid_argument(capfd, case):
    # omega is finite everywhere, and real and nonzero at the LAP entries
    with pytest.raises(InvalidArgument, match='omega'):
        BAD_FREQUENCIES[case]()
    assert capfd.readouterr().err == ''


def test_lap_entries_accept_a_zero_imaginary_part():
    for method in ('quadrature', 'extrapolate'):
        for got, want in zip(lap.lap_parts(OMEGA + 0j, _J2, MAT2, method),
                             lap.lap_parts(OMEGA, _J2, MAT2, method)):
            assert np.array_equal(got.data, want.data)


_F32 = sp.random_band_limited(sp.Grid(2, 32), 1, np.random.default_rng(4))
MODEL_OPERATORS = {
    'e_delta': lambda **kw: lap.e_delta(_F32, 2.5, 0.1, method='quadrature',
                                        **kw),
    'pv_part': lambda **kw: lap.pv_part(_F32, 2.5, **kw),
    'surface_part': lambda **kw: lap.surface_part(_F32, 2.5, **kw),
}


# n_sphere = 0 divided by zero, 2.5 was a TypeError, n_radial = 0
# reached numpy's leggauss, and True counted as 1
@pytest.mark.parametrize('op,key,value', [
    (op, 'n_sphere', v) for op in MODEL_OPERATORS for v in (0, 2.5, True)] + [
    (op, 'n_radial', v) for op in ('e_delta', 'pv_part')
    for v in (0, 2.5, True)])
def test_model_operators_refuse_bad_node_counts(capfd, op, key, value):
    with pytest.raises(InvalidArgument, match=key):
        MODEL_OPERATORS[op](**{key: value})
    assert capfd.readouterr().err == ''


def test_pv_part_raises_when_doubling_moves_it():
    f = _smooth_annulus(sp.Grid(2, 32), 1.0, 4.0)
    beta = lap.CutoffSpec(6.0, 9.0)
    with pytest.raises(QuadratureNotConverged, match='doubling'):
        lap.pv_part(f, 2.5, beta, n_sphere=8, n_radial=4, tol=1e-12)


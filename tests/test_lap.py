import numpy as np
import pytest

from maxres import lap
from maxres import multiplier as mp
from maxres import region as rg
from maxres import spectral as sp
from maxres import symbol
from maxres.errors import (DegenerateDirection, MethodsDisagree,
                           OnSingularSet)
from maxres.materials import Material2, Material3
from helpers import PerturbedFactors

RNG = np.random.default_rng(23)

MAT2 = Material2(1.3, 0.25, 0.9, mu=1.4)
MAT3 = Material3(0.5, 1.0 / 0.7)
OMEGA = 3.1


def far_current(grid, mat, ncomp, omega, margin=0.5):
    """Random band-limited current with all near-sphere modes removed."""
    J = sp.random_band_limited(grid, ncomp, RNG)
    c = J.coeffs().reshape(ncomp, -1)
    far, near = lap._mode_masks(grid.xi_flat(), omega, mat, margin)
    c[:, near] = 0
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
        _, cf = lap._polar_points(np.array([radius]), np.array([1.0]), Q,
                                  beta, grid, n)
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


def dense_offgrid(J, xi_pts, coeffs, weight_fn=None):
    """Reference for lap's off-grid transforms: the full (grid points x
    nodes) phase matrix.  Returns (transform, synthesized field data)."""
    grid = J.grid
    x = grid.x_flat()
    x = np.where(x >= 0.5 * grid.length, x - grid.length, x)
    E = np.exp(-1j * x @ xi_pts.T)
    vals = J.data.reshape(J.ncomp, -1) @ E / grid.npoints
    amps = vals if weight_fn is None else np.einsum(
        'pij,jp->ip', weight_fn(xi_pts), vals)
    flat = (amps * coeffs) @ np.conj(E).T
    return vals, flat.reshape((-1,) + (grid.n,) * grid.dim)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize('dim,n,npts', [
    (2, 16, 300),
    (3, 8, lap._NODE_CHUNK + 37),     # more than one node block
    (3, 16, 200),
])
def test_offgrid_matches_dense_oracle(dim, n, npts):
    g = sp.Grid(dim, n)
    J = sp.random_band_limited(g, 3, RNG)
    # half the nodes inside the grid's band, half beyond it
    xi = RNG.uniform(-n, n, (npts, dim))
    cf = RNG.standard_normal(npts) + 1j * RNG.standard_normal(npts)
    A = RNG.standard_normal((dim, 15))

    def weight_fn(pts):             # 3 components in, 5 out
        return np.exp(1j * pts @ A).reshape(-1, 5, 3)

    vals, plain = dense_offgrid(J, xi, cf)
    assert _rel(lap.offgrid_transform(J, xi), vals) < 1e-12
    assert _rel(lap._apply_offgrid(J, xi, cf).data, plain) < 1e-12
    _, weighted = dense_offgrid(J, xi, cf, weight_fn)
    out = lap._apply_offgrid(J, xi, cf, weight_fn=weight_fn, out_ncomp=5)
    assert _rel(out.data, weighted) < 1e-12
    if dim == 3:
        # the 6x6 weights of the 3D quadrature route
        J6 = sp.random_band_limited(g, 6, RNG)

        def sing_fn(pts):
            return mp.singular_weights(OMEGA, pts, MAT3)[1][0]

        _, ref = dense_offgrid(J6, xi, cf, sing_fn)
        assert _rel(lap._apply_offgrid(J6, xi, cf, weight_fn=sing_fn).data,
                    ref) < 1e-12


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
    assert _rel(lap._apply_offgrid(J, xi, cf).data, plain) < 1e-12


@pytest.mark.parametrize('dim,n', [(2, 32), (3, 16)])
def test_offgrid_zero_field_gives_zeros(dim, n):
    g = sp.Grid(dim, n)
    J = sp.Field.from_coeffs(g, np.zeros((3,) + (n,) * dim, dtype=complex))
    xi = RNG.uniform(-n, n, (50, dim))
    cf = RNG.standard_normal(50) + 0j
    assert lap.offgrid_transform(J, xi).shape == (3, 50)
    assert not np.any(lap.offgrid_transform(J, xi))
    out = lap._apply_offgrid(J, xi, cf)
    assert out.shape == J.shape and not np.any(out.data)


@pytest.mark.parametrize('n', [2 ** p for p in range(2, 10)])
def test_factored_phase_tables(n):
    # each table is built from n/s + s exps, s = 2^floor(log2(n)/2); it
    # must equal the direct one to 1e-14 per unit of phase (a phase of
    # size t is itself only known to about 1e-16 t)
    g = sp.Grid(2, n)
    x = (g.length / n) * g.k_axis()                  # centered coordinates
    assert x.min() == -g.length / 2 and x.max() < g.length / 2
    band = np.pi * n / g.length
    xi = RNG.uniform(-2 * band, 2 * band, (300, 2))  # half beyond the band
    for sl, tabs in lap._phase_blocks(g, xi):
        for a, tab in enumerate(tabs):
            phase = np.outer(xi[sl, a], x)
            err = np.abs(tab - np.exp(1j * phase))
            assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(phase)))


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


def _smooth_annulus(grid, lo, hi, shift=(0.7, -1.1)):
    xi = grid.xi_flat()
    r = np.sqrt(np.einsum('ki,ki->k', xi, xi))
    t = (r - lo) / (hi - lo)
    prof = np.where((t > 0) & (t < 1),
                    np.exp(-1.0 / np.clip(t * (1 - t), 1e-12, None) / 0.25),
                    0.0)
    c = prof * np.exp(1j * (xi @ np.asarray(shift)))
    return sp.Field.from_coeffs(grid, c.reshape((1,) + (grid.n,) * grid.dim))


def test_pv_pairing_agrees_with_plain():
    g = sp.Grid(2, 64)
    f = _smooth_annulus(g, 6.0, 10.0)
    beta = lap.CutoffSpec(18.0, 28.0)
    pv = lap.pv_part(f, OMEGA, beta, 'eps_prime', MAT2)
    plain = lap.pv_part(f, OMEGA, beta, 'eps_prime', MAT2, pairing=False)
    assert (sp.lebesgue_norm(pv - plain, 2)
            / sp.lebesgue_norm(pv, 2)) < 1e-10


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


def test_richardson_limit():
    # u(delta) = u0 + c delta + d delta^2 is resolved exactly
    u0, c, d = 1.7, -0.4, 2.3
    deltas = [0.1 * 2.0 ** -k for k in range(5)]
    vals = [u0 + c * t + d * t ** 2 for t in deltas]
    lim = lap.richardson_limit([np.array([v]) for v in vals])
    assert abs(lim[0] - u0) < 1e-12


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
    # the direct 6x6 inverse still solves them exactly
    g = sp.Grid(3, 16)
    far, near = lap._mode_masks(g.xi_flat(), OMEGA, MAT3, 0.35)
    sel = near & symbol.near_axis(g.xi_flat())
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


def test_odd_n_sphere_rejected_in_3d():
    # an odd Gauss-Legendre order puts a node on the distinguished axis
    J = sp.random_band_limited(sp.Grid(3, 16), 6, RNG)
    with pytest.raises(DegenerateDirection, match='n_sphere'):
        lap.lap_solve(OMEGA, J, MAT3, n_sphere=13)
    with pytest.raises(DegenerateDirection, match='n_sphere'):
        lap.surface_terms(OMEGA, J, MAT3, n_sphere=13)
    lap.surface_terms(OMEGA, J, MAT3, n_sphere=14)      # even orders run


def test_lap_solve_negative_omega():
    g = sp.Grid(2, 64)
    J = far_current(g, MAT2, 3, OMEGA)
    u = lap.lap_solve(-OMEGA, J, MAT2, sign=-1)
    r = sp.forward_operator(-OMEGA, u, MAT2) - J
    assert (sp.lebesgue_norm(r, 2) / sp.lebesgue_norm(J, 2)) < 1e-10


def test_lap_solve_cross_validation():
    g = sp.Grid(2, 64)
    J = far_current(g, MAT2, 3, OMEGA)
    u = lap.lap_solve(OMEGA, J, MAT2, cross_tol=1e-8)
    assert np.isfinite(u.data).all()
    # either route checks against the other one
    for method in ('quadrature', 'extrapolate'):
        with pytest.raises(MethodsDisagree):
            lap.lap_solve(OMEGA, J, MAT2, method=method, cross_tol=1e-30)


@pytest.mark.parametrize('method', ['quadrature', 'extrapolate'])
@pytest.mark.parametrize('tol', [-1e-8, np.nan, np.inf])
def test_bad_cross_tol_is_refused(method, tol):
    # rel > nan is False, so a NaN tolerance would pass every check
    J = sp.random_band_limited(sp.Grid(2, 16), 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match='cross_tol'):
        lap.lap_parts(1.0, J, MAT2, method=method, cross_tol=tol)
    with pytest.raises(ValueError, match='cross_tol'):
        lap.lap_solve(1.0, J, MAT2, method=method, cross_tol=tol)


@pytest.mark.parametrize('method', ['quadrature', 'extrapolate'])
@pytest.mark.parametrize('key,value', [
    ('levels', 0), ('levels', -1), ('levels', 2.0),
    ('delta0', 0.0), ('delta0', -0.1), ('delta0', np.nan),
    ('delta0', np.inf)])
def test_bad_extrapolate_inputs_are_refused(method, key, value):
    # levels = 0 has no Neville table, delta0 = 0 takes no limit, and a
    # negative delta0 swaps the two boundary values
    J = sp.random_band_limited(sp.Grid(2, 16), 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match=key):
        lap.lap_parts(3.1, J, MAT2, method=method, **{key: value})
    with pytest.raises(ValueError, match=key):
        lap.lap_solve(3.1, J, MAT2, method=method, **{key: value})


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
    # two half planes coincide up to the Richardson error
    omega = rg.off_sphere_frequency(grid, mat)
    J = sp.random_band_limited(grid, 3 if grid.dim == 2 else 6,
                               np.random.default_rng(5), kmax=grid.n // 2)
    common, jump = lap.lap_parts(omega, J, mat, method='extrapolate')
    assert (sp.lebesgue_norm(2.0 * jump, 2)
            / sp.lebesgue_norm(common + jump, 2)) < 1e-5


def test_blowup_probe_slope():
    g = sp.Grid(2, 64)
    mat = Material2(1.0, 0.0, 1.0)
    omega = rg.on_sphere_frequency(g, mat)
    deltas = [2.0 ** -k for k in range(3, 8)]
    fit, ds, ratios = lap.lap_blowup_probe(
        omega, rg.LebesguePair(0.5, 0.5, 2), mat, deltas, grid=g)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


def test_blowup_probe_isotropic_3d_skips_axis_modes():
    # the on-sphere frequency of an isotropic material puts axis modes
    # such as (3, 0, 0) in the annulus; they have no closed-form
    # eigenvector and are dropped instead of raising DegenerateDirection
    g = sp.Grid(3, 16)
    mat = Material3(1.0, 1.0)
    omega = rg.on_sphere_frequency(g, mat)
    xi = g.xi_flat()
    rho = rg.characteristic_radii(xi, mat)[0]
    assert (symbol.near_axis(xi) & (np.abs(rho - omega) < 0.5)).any()
    deltas = [2.0 ** -k for k in range(3, 7)]
    fit, _, _ = lap.lap_blowup_probe(
        omega, rg.LebesguePair(0.5, 0.5, 3), mat, deltas, grid=g)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)


def richardson_oracle(omega, J, mat, sign, delta0=0.1, levels=7):
    """The extrapolate route as a loop: the Neville table over full grid
    solves at omega + i sign delta0 2^(-k), k < levels."""
    return lap.richardson_limit(
        [sp.solve(omega + 1j * sign * delta0 * 0.5 ** k, J, mat).data
         for k in range(levels)])


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
        # the isotropic case: the near-axis modes in the band, the axis
        # modes with 0 < |k| <= n/4, take the direct route (the source
        # keeps its exact coefficients, which are 0 outside the band)
        assert (symbol.near_axis(grid.xi_flat())
                & (np.abs(c).max(axis=0) > 0)).sum() == 2 * (grid.n // 4)
    for sign in (+1, -1):
        u = lap.lap_solve(OMEGA, J, mat, sign=sign, method='extrapolate')
        assert _rel(u.data, richardson_oracle(OMEGA, J, mat, sign)) < 1e-12


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
    sel, rho = rg._annulus_modes(xi, omega, mat, 0.5, 0)
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

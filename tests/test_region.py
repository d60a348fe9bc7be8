import warnings

import numpy as np
import pytest

from maxres import region as rg
from maxres import spectral as sp
from maxres import symbol
from maxres.errors import (EmptyRegion, ExponentOrder, GridTooCoarse,
                           InvalidArgument, OnSingularSet)
from maxres.materials import Material2, Material3
from maxres.region import LebesguePair as P

from helpers import qform_norm

RNG = np.random.default_rng(31)

MAT2 = Material2(1.3, 0.25, 0.9, mu=1.4)

DYADIC = np.arange(129) / 128.0


def test_pair_validation():
    with pytest.raises(ValueError):
        P(1.5, 0.5, 2)
    with pytest.raises(ValueError):
        P(0.5, 0.5, 4)
    pair = P(0.5, 0.0, 3)
    assert pair.p == 2.0 and pair.q == np.inf
    assert pair.dual() == P(1.0, 0.5, 3)


def test_gamma_values():
    # diagonal pairs sit at the tip of the frequency-weight polygon
    assert rg.gamma(P(0.5, 0.5, 2)) == 1.0
    assert rg.gamma(P(0.5, 0.5, 3)) == 1.0
    # the supercritical witness pair is uniformly bounded
    assert rg.gamma(P(0.75, 0.25, 3)) == 0.0
    assert rg.alpha(P(0.75, 0.25, 3)) == pytest.approx(-0.5)
    assert rg.alpha(P(0.5, 0.5, 2)) == pytest.approx(1.0)


def test_gamma_duality_exact_on_dyadic_lattice():
    for d in (2, 3):
        for x in DYADIC:
            g_row = [rg.gamma(P(x, y, d)) for y in DYADIC]
            g_dual = [rg.gamma(P(1.0 - y, 1.0 - x, d)) for y in DYADIC]
            assert g_row == g_dual


def test_kappa_values():
    assert rg.kappa(P(0.5, 0.5, 2), 2.0 + 0.25j) == pytest.approx(4.0)
    assert rg.kappa(P(0.75, 0.25, 3), 4.0j) == pytest.approx(2.0)
    # on the negative real axis the two distance variants differ
    w = -3.0 + 0.3j
    assert rg.kappa(P(0.5, 0.5, 2), w, variant='real_axis') \
        == pytest.approx(1.0 / 0.3)
    assert rg.kappa(P(0.5, 0.5, 2), w, variant='ray') \
        == pytest.approx(1.0 / abs(w))
    # right of 0 the nearest point of [0, inf) is Re(omega): they agree
    for w in (2.0 + 0.25j, 0.5 - 3.0j, 1e-3 + 1e-6j):
        assert rg.kappa(P(0.6, 0.3, 3), w, variant='ray') \
            == rg.kappa(P(0.6, 0.3, 3), w)
    with pytest.raises(OnSingularSet):
        rg.kappa(P(0.5, 0.5, 2), 2.0)
    with pytest.raises(ValueError):
        rg.kappa(P(0.5, 0.5, 2), 1j, variant='bogus')


def test_membership_witnesses():
    assert rg.membership(P(0.75, 0.25, 3), 'P_set')
    assert rg.membership(P(0.75, 0.25, 3), 'R1')
    assert not rg.membership(P(0.75, 0.25, 3), 'R0_half')
    assert rg.membership(P(0.5, 0.5, 2), 'R0_half')
    assert rg.membership(P(0.5, 0.5, 3), 'R0_half')
    # excluded corner points of the fixed-frequency strip
    assert not rg.membership(P(1.0, 2.0 / 3.0, 3), 'R0_half')
    assert not rg.membership(P(1.0 / 3.0, 0.0, 3), 'R0_half')
    # excluded corners of the uniform strip
    assert not rg.membership(P(1.0, 1.0 / 3.0, 3), 'R1')
    assert not rg.membership(P(2.0 / 3.0, 0.0, 3), 'R1')
    # but the open polygon keeps its boundary rays
    assert rg.membership(P(1.0, 0.0, 2), 'P_set')
    with pytest.raises(ValueError):
        rg.membership(P(0.5, 0.5, 2), 'bogus')


def test_membership_duality_on_dyadic_lattice():
    for sid in ('R0_half', 'R1', 'P_set'):
        for d in (2, 3):
            for x in DYADIC[::4]:
                row = [rg.membership(P(x, y, d), sid) for y in DYADIC[::4]]
                dual = [rg.membership(P(1.0 - y, 1.0 - x, d), sid)
                        for y in DYADIC[::4]]
                assert row == dual


def test_region_query_validation():
    with pytest.raises(ValueError):
        rg.RegionQuery(P(0.5, 0.5, 2), ell=-1.0)
    with pytest.raises(ValueError):
        rg.RegionQuery(P(0.5, 0.5, 2), ell=1.0, t=1.5)
    with pytest.raises(ValueError):
        rg.RegionQuery(P(0.5, 0.5, 2), ell=1.0, C=0.0)


def test_z_region_and_emptiness():
    q = rg.RegionQuery(P(0.5, 0.5, 2), ell=2.0)
    assert rg.z_region(q, 1j)            # kappa = 1 <= 2
    assert not rg.z_region(q, 10.0 + 0.01j)
    with pytest.raises(OnSingularSet):
        rg.z_region(q, 2.0)
    # alpha = 0 forces kappa >= 1, so sublevel sets below 1 are empty
    with pytest.raises(EmptyRegion):
        rg.z_region(rg.RegionQuery(P(0.75, 0.25, 2), ell=0.5), 1j)
    with pytest.raises(EmptyRegion):
        rg.z_boundary(rg.RegionQuery(P(2.0 / 3.0, 1.0 / 3.0, 3), ell=0.5))


def test_z_boundary_cone_case():
    # alpha = 0, gamma = 1/4: the level set is the cone
    # |sin theta| = ell^(-1/gamma)
    q = rg.RegionQuery(P(0.75, 0.25, 2), ell=2.0)
    b = rg.z_boundary(q)
    pts = [w for w in b if abs(w) > 1e-9 and w.imag != 0]
    kap = np.array([rg.kappa(q.pair, w) for w in pts])
    assert np.abs(kap - 2.0).max() < 1e-10
    sines = np.array([abs(w.imag) / abs(w) for w in pts])
    assert np.abs(sines - 2.0 ** -4.0).max() < 1e-12


def test_z_boundary_diagonal_pair_is_lines():
    # x = y gives alpha = gamma = 1, so kappa = 1/|Im omega| and the
    # level set is the pair of lines |Im omega| = 1/ell
    b = rg.z_boundary(rg.RegionQuery(P(0.5, 0.5, 3), ell=2.0))
    assert np.abs(np.abs(b.imag) - 0.5).max() < 1e-10


def test_z_boundary_curved_case():
    pair = P(0.6, 0.4, 2)       # alpha = 0.6, gamma = 0.7
    q = rg.RegionQuery(pair, ell=1.3)
    b = rg.z_boundary(q)
    kap = np.array([rg.kappa(pair, w) for w in b])
    assert np.abs(kap - 1.3).max() < 1e-10
    # reflection symmetry in both axes
    assert np.abs(np.sort_complex(b) - np.sort_complex(np.conj(b))).max() == 0
    assert np.abs(np.sort_complex(b)
                  - np.sort_complex(-np.conj(b))).max() < 1e-13


@pytest.mark.parametrize('pair,ell', [
    (P(0.6, 0.4, 2), 1e300),        # radii below the smallest double
    (P(0.6, 0.4, 2), 1e-300),       # radii beyond the largest double
    (P(0.9, 0.1, 2), 1e300),        # alpha < 0: the radius grows with ell
], ids=['underflow', 'overflow', 'negative-alpha'])
def test_z_boundary_refuses_unrepresentable_radii(pair, ell):
    # the curve would be written as signed zeros or +-inf
    with warnings.catch_warnings():
        warnings.simplefilter('error')
        with pytest.raises(InvalidArgument, match='ell'):
            rg.z_boundary(rg.RegionQuery(pair, ell=ell), resolution=16)


def test_eigenvalue_enclosure():
    g = sp.Grid(2, 16)
    V = sp.scalar_field(g, np.full((16, 16), 0.3))
    q = rg.RegionQuery(P(0.5, 0.25, 2), ell=1.0, C=1.0, t=0.5)
    res = rg.eigenvalue_enclosure(q, V, 2, 4)
    # 1/r = 1/2 - 1/4, so ||V||_4 = 0.3 vol^(1/4) with vol = (2 pi)^2
    assert res.potential_norm == pytest.approx(0.3 * (2 * np.pi) ** 0.5)
    assert res.threshold == pytest.approx(0.5)
    assert not res.satisfied
    small = rg.eigenvalue_enclosure(
        rg.RegionQuery(P(0.5, 0.25, 2), ell=1.0, t=0.9), 0.1 * V, 2, 4)
    assert small.satisfied
    with pytest.raises(ExponentOrder):
        rg.eigenvalue_enclosure(q, V, 4, 2)


def test_loglog_fit_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = rg.loglog_fit(xs, 3.0 * xs ** -1.5)
    assert fit.slope == pytest.approx(-1.5)
    assert fit.intercept == pytest.approx(np.log(3.0))
    assert fit.residual < 1e-14
    assert fit.npoints == 4
    with pytest.raises(ValueError):
        rg.loglog_fit([1.0], [1.0])


def test_frequency_pickers():
    g = sp.Grid(2, 64)
    om = rg.on_sphere_frequency(g, MAT2)
    rho = rg.characteristic_radii(g.xi_flat(), MAT2)[0]
    assert np.abs(rho - om).min() == 0.0
    off = rg.off_sphere_frequency(g, MAT2, near=3.0)
    assert np.abs(rho[rho > 0] - off).min() > 1e-2


@pytest.mark.parametrize('mat', [
    MAT2, Material2(1.0, 0.0, 1.0), Material3(0.5, 1.0 / 0.7),
    Material3(1.0, 1.0)], ids=['mat2', 'iso2', 'mat3', 'iso3'])
def test_characteristic_radii_are_the_eigenbasis_offsets(mat):
    d = mat.dim
    xi = np.random.default_rng(11).normal(0.0, 3.0, (2000, d))
    # off the axis by a margin, where the closed-form eigenbasis holds
    xi = xi[np.sum(xi[:, 1:] ** 2, axis=1) > 1e-2 * np.sum(xi ** 2, axis=1)]
    rho = symbol._eigen_basis(xi, mat)[2]
    radii = rg.characteristic_radii(xi, mat)
    assert len(radii) == d - 1
    for k, r in enumerate(radii):
        assert np.abs(r / rho[:, d + 2 * k] - 1).max() <= 1e-15
    # against norms typed out from the material: sqrt(b)|xi|, and the
    # qform norm |xi|_w (2D) or |xi|_e (3D)
    oracle = [qform_norm(xi, mat)]
    if d == 3:
        oracle.insert(0, np.sqrt(mat.b) * np.linalg.norm(xi, axis=1))
    for r, want in zip(radii, oracle):
        assert np.abs(r / want - 1).max() <= 1e-15
    flavor = 'eps_prime' if d == 2 else 'eps_tilde'
    assert np.array_equal(sp.flavor_norm(xi, flavor, mat, d), radii[-1])


def dense_off_sphere_frequency(grid, mat, near=3.0):
    """The distance from each of 1001 candidates to every lattice flavor
    radius, as one (candidates x radii) matrix."""
    xi = grid.xi_flat()
    radii = np.concatenate([r.ravel()
                            for r in rg.characteristic_radii(xi, mat)])
    radii = radii[(radii > 0) & (radii < grid.n // 2)]
    cand = np.linspace(near - 0.5, near + 0.5, 1001)
    dist = np.abs(cand[:, None] - radii[None, :]).min(axis=1)
    return float(cand[np.argmax(dist)])


@pytest.mark.parametrize('mat,ns', [
    (MAT2, (16, 64, 128)),
    (Material2(1.0, 0.0, 1.0), (16, 64)),
    (Material3(0.5, 1.0 / 0.7), (8, 16)),
    (Material3(1.0, 1.0), (8, 16)),
], ids=['mat2', 'iso2', 'mat3', 'iso3'])
def test_off_sphere_frequency_matches_dense_oracle(mat, ns):
    for n in ns:
        g = sp.Grid(mat.dim, n)
        for near in (1.0, 3.0, 5.7):
            assert rg.off_sphere_frequency(g, mat, near) \
                == dense_off_sphere_frequency(g, mat, near)


def test_off_sphere_frequency_needs_a_radius_in_band():
    # eps = 0.01: the smallest lattice flavor radius is 10, beyond n/2
    with pytest.raises(GridTooCoarse):
        rg.off_sphere_frequency(sp.Grid(2, 4), Material2(0.01, 0.0, 0.01))


def test_on_sphere_frequency_needs_a_radius_in_band():
    # n = 4: every nonzero lattice radius is at least 1 = n/4
    with pytest.raises(GridTooCoarse, match=r'\(0, 1\)'):
        rg.on_sphere_frequency(sp.Grid(2, 4), Material2(1.0, 0.0, 1.0))


def test_annulus_source_is_resolvent_eigenvector():
    # on the annulus modes the resolvent acts as the scalar
    # 1/(i(omega - rho)); check against a direct solve
    g = sp.Grid(2, 64)
    om = rg.on_sphere_frequency(g, MAT2)
    J = rg.annulus_source(g, om, MAT2, thickness=1.0, rng=RNG)
    omega = om + 0.125j
    u = sp.solve(omega, J, MAT2)
    cj = J.coeffs().reshape(3, -1)
    cu = u.coeffs().reshape(3, -1)
    rho = rg.characteristic_radii(g.xi_flat(), MAT2)[0]
    sel = np.nonzero(np.abs(cj).max(axis=0) > 0)[0]
    expect = cj[:, sel] / (1j * (omega - rho[sel]))
    assert np.abs(cu[:, sel] - expect).max() < 1e-12


def test_annulus_source_validation():
    g = sp.Grid(2, 16)
    with pytest.raises(ValueError):
        rg.annulus_source(g, 3.0, MAT2, thickness=1e-9)


def test_knapp_source_support():
    from maxres.materials import Material3
    mat = Material3(1.0, 1.0)
    g = sp.Grid(3, 32)
    omega = 6.0 + 0.25j
    J = rg.knapp_source(g, omega, mat)
    c = J.coeffs().reshape(6, -1)
    xi = g.xi_flat()
    sel = np.nonzero(np.abs(c).max(axis=0) > 1e-12 * np.abs(c).max())[0]
    assert sel.size > 0
    n = np.linalg.norm(xi[sel], axis=1)
    # support stays inside the cap: a thin shell near |xi| = |omega|
    assert np.abs(np.sqrt(mat.b) * n - abs(omega)).max() <= 3 * 0.75 + 1e-12
    ang = np.arccos(np.abs(xi[sel, 2]) / n)
    assert ang.max() <= 3 * abs(omega) ** -0.5 + 1e-12
    with pytest.raises(ValueError):
        rg.knapp_source(sp.Grid(2, 16), omega, MAT2)


def test_norm_scaling_probe_blowup_slope():
    g = sp.Grid(2, 64)
    om = rg.on_sphere_frequency(g, MAT2)
    omegas = [om + 1j * 2.0 ** -k for k in range(3, 9)]
    fit, xs, ys = rg.norm_scaling_probe(P(0.5, 0.5, 2), MAT2, 'radial',
                                        omegas, grid=g, vary='dist')
    # the annulus family is a lower-bound witness for the dist^-1 blow-up:
    # its slope approaches but must not exceed the predicted exponent
    assert -1.05 < fit.slope < -0.5
    assert np.all(xs[:-1] > xs[1:]) and np.all(ys[:-1] < ys[1:])


@pytest.mark.parametrize('d', [2, 3])
def test_gamma_is_positive_where_alpha_is_zero(d):
    # z_boundary's cone branch divides by gamma: on the line
    # x - y = 1/d, gamma >= 1 - (d + 1)/(2d) = (d - 1)/(2d) > 0
    for y in DYADIC[DYADIC <= 1 - 1.0 / d]:
        pair = P(y + 1.0 / d, y, d)
        assert abs(rg.alpha(pair)) < 1e-15
        assert rg.gamma(pair) >= (d - 1) / (2.0 * d) - 1e-15


def test_norm_scaling_probe_refuses_an_unknown_family():
    with pytest.raises(InvalidArgument, match='family'):
        rg.norm_scaling_probe(P(0.5, 0.5, 2), MAT2, 'annulus', [3.0 + 0.5j],
                              sp.Grid(2, 16))

import numpy as np
import pytest

from maxres.errors import DegenerateDirection, InvalidArgument
from maxres.materials import Material2, Material3
from maxres.symbol import (canonicalize, det_diagnostics, eigen_decomposition,
                           norm_eps, norm_eps_prime, symbol_p)

RNG = np.random.default_rng(42)

MAT2 = Material2(2.0, 0.3, 1.2, mu=0.8)
MAT3 = Material3(0.5, 1.0 / 0.7)     # a = 2.0, b = 0.7


def _random_xi(n, dim):
    xi = RNG.normal(0.0, 2.0, size=(n, dim))
    xi[np.abs(xi).max(axis=1) < 1e-3] += 1.0
    return xi


def test_norms():
    xi = np.array([1.0, 2.0])
    q = MAT2.qform
    assert norm_eps_prime(xi, MAT2) == pytest.approx(np.sqrt(xi @ q @ xi))
    xi3 = np.array([1.0, 2.0, 3.0])
    expect = np.sqrt(MAT3.b * 1.0 + MAT3.a * (4.0 + 9.0))
    assert norm_eps(xi3, MAT3) == pytest.approx(expect)


@pytest.mark.parametrize('mat', [MAT2, MAT3])
def test_diagonalization_reconstructs_symbol(mat):
    xi = _random_xi(500, mat.dim)
    omega = RNG.normal(size=500) + 1j * RNG.uniform(0.2, 2.0, 500)
    m, d, m_inv = eigen_decomposition(omega, xi, mat)
    p = symbol_p(omega, xi, mat)
    recon = np.einsum('nij,njk,nkl->nil', m, d, m_inv)
    scale = np.abs(p).max(axis=(1, 2))
    assert (np.abs(recon - p).max(axis=(1, 2)) / scale).max() < 1e-12
    eye = np.eye(3 if mat.dim == 2 else 6)
    assert np.abs(np.einsum('nij,njk->nik', m, m_inv) - eye).max() < 1e-12


def test_eigenvalues_are_scalar_resolvrent_poles():
    # diagonal entries are i(omega - lambda) for the six branch values
    xi = _random_xi(50, 3)
    omega = 1.5 + 0.5j
    _, d, _ = eigen_decomposition(omega, xi, MAT3)
    n = np.linalg.norm(xi, axis=1)
    ne = norm_eps(xi, MAT3)
    sb = np.sqrt(MAT3.b)
    branches = np.stack([np.full_like(n, omega, dtype=complex),
                         np.full_like(n, omega, dtype=complex),
                         omega - sb * n, omega + sb * n,
                         omega - ne, omega + ne], axis=1)
    got = np.stack([d[:, i, i] for i in range(6)], axis=1)
    # entries agree as sets per point; the construction orders them fixed
    assert np.abs(np.sort(got.imag, axis=1)
                  - np.sort((1j * branches).imag, axis=1)).max() < 1e-10


def test_det_2d_is_minus_one():
    xi = _random_xi(2000, 2)
    m, _, _ = eigen_decomposition(2.0 + 1.0j, xi, MAT2)
    assert np.abs(np.linalg.det(m) + 1.0).max() < 1e-12


def test_det_3d_renormalized_constant():
    xi = _random_xi(2000, 3)
    alpha, delta, det_m, det_mt = det_diagnostics(xi, MAT3)
    assert np.allclose(det_m / alpha ** 4, det_mt, rtol=1e-12)
    ratio = np.abs(det_mt)
    assert ratio.max() - ratio.min() < 1e-10
    m, _, _ = eigen_decomposition(1.0 + 1.0j, xi, MAT3)
    assert np.allclose(np.abs(np.linalg.det(m)), ratio, rtol=1e-10)


def test_on_axis_raises():
    with pytest.raises(DegenerateDirection):
        eigen_decomposition(1.0 + 1.0j, np.array([[2.0, 0.0, 0.0]]), MAT3)
    with pytest.raises(DegenerateDirection):
        eigen_decomposition(1.0 + 1.0j, np.array([[0.0, 0.0, 0.0]]), MAT3)


def test_canonicalize_round_trip():
    from maxres.spectral import Field, Grid
    mat = Material3(1.5, 0.9, axis=3, mu=1.2)
    grid = Grid(3, 8)
    J = Field(grid, RNG.normal(size=(6, 8, 8, 8))
              + 1j * RNG.normal(size=(6, 8, 8, 8)))
    canon, Jc, record = canonicalize(mat, J)
    assert canon.is_canonical
    # magnetic components absorb 1/mu on the way in
    back = record.backward_fields(Jc)
    assert np.abs(back.data - J.data).max() < 1e-14


def test_canonicalize_symbol_consistency():
    # the canonical symbol at permuted xi matches the original symbol
    mat = Material3(1.5, 0.9, axis=2, mu=1.0)
    canon, _, record = canonicalize(mat)
    assert canon.axis == 1 and canon.mu == 1.0
    assert canon.eps_axis == pytest.approx(1.5)
    assert canon.eps_perp == pytest.approx(0.9)


@pytest.mark.parametrize('mat,dim', [(MAT2, 2), (MAT3, 3)], ids=['2d', '3d'])
def test_canonical_materials_are_their_own_canonical_form(mat, dim):
    from maxres.spectral import Grid, random_band_limited
    J = random_band_limited(Grid(dim, 8), 3 * (dim - 1), RNG)
    canon, Jc, record = canonicalize(mat, J)
    assert canon is mat and Jc is J
    assert (record.perm, record.mu) == ((0, 1, 2), 1.0)
    # the identity map copies nothing, in either direction
    assert record.forward_currents(J) is J
    assert record.backward_fields(J) is J
    assert canonicalize(mat)[1] is None


@pytest.mark.parametrize('bad', [None, 2.0, 'Material3(1, 1)'])
def test_canonicalize_takes_materials_only(bad):
    with pytest.raises(InvalidArgument, match='canonicalize takes a material'):
        canonicalize(bad)


def test_det_diagnostics_refuses_the_zero_wavevector():
    xi = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
    with pytest.raises(DegenerateDirection, match='zero wavevector'):
        det_diagnostics(xi, MAT3)

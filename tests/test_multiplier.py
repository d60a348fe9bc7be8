import numpy as np
import pytest

from maxres.errors import DegenerateDirection, RealFrequency
from maxres.materials import Material2, Material3
from maxres.multiplier import (M3_ZERO_ENTRIES, _m3_coeffs, charge_column_2d,
                               charge_column_3d, m2c_matrix, m3c_matrix,
                               regular_matrix, resolvent_matrix,
                               scalar_resolvent_values, singular_weights)
from maxres.symbol import AXIS_GUARD, near_axis, symbol_p

RNG = np.random.default_rng(7)

MAT2 = Material2(2.0, 0.3, 1.2, mu=0.8)
MAT3 = Material3(0.5, 1.0 / 0.7)


def _random_xi(n, dim):
    xi = RNG.normal(0.0, 2.0, size=(n, dim))
    xi[np.abs(xi).max(axis=1) < 1e-3] += 1.0
    if dim == 3:
        n2 = np.einsum('ni,ni->n', xi, xi)
        bad = xi[:, 1] ** 2 + xi[:, 2] ** 2 < 1e-6 * n2
        xi[bad, 1] += 1.0
    return xi


@pytest.mark.parametrize('mat', [MAT2, MAT3])
def test_inverse_identity(mat):
    xi = _random_xi(500, mat.dim)
    omega = 1.3 + 0.6j
    p = symbol_p(omega, xi, mat)
    M = resolvent_matrix(omega, xi, mat)
    eye = np.eye(3 if mat.dim == 2 else 6)
    prod = np.einsum('nij,njk->nik', p, M)
    assert np.abs(prod - eye).max() < 1e-12


def test_inverse_identity_isotropic_3d():
    mat = Material3(1.0, 1.0)
    xi = _random_xi(200, 3)
    omega = -0.7 + 0.4j
    p = symbol_p(omega, xi, mat)
    M = resolvent_matrix(omega, xi, mat)
    assert np.abs(np.einsum('nij,njk->nik', p, M) - np.eye(6)).max() < 1e-12


@pytest.mark.parametrize('mat', [MAT3, Material3(1.0, 1.0)])
def test_inverse_identity_just_outside_axis_guard(mat):
    # s^2 / |xi|^2 in [AXIS_GUARD, 1e-6): production uses the closed form
    # here, so it must still invert the symbol
    n = 400
    ratio = AXIS_GUARD * 10.0 ** RNG.uniform(0.0, 2.0, n)
    x1 = RNG.normal(0.0, 2.0, n)
    x1[np.abs(x1) < 1e-3] = 1.0
    s = np.abs(x1) * np.sqrt(ratio / (1.0 - ratio))
    phi = RNG.uniform(0.0, 2 * np.pi, n)
    xi = np.stack([x1, s * np.cos(phi), s * np.sin(phi)], axis=-1)
    frac = (xi[:, 1] ** 2 + xi[:, 2] ** 2) / np.einsum('ni,ni->n', xi, xi)
    assert frac.min() >= AXIS_GUARD and frac.max() < 1e-6
    assert not near_axis(xi).any()
    for omega in (1.3 + 0.6j, -2.2 + 0.3j):
        p = symbol_p(omega, xi, mat)
        M = resolvent_matrix(omega, xi, mat)
        prod = np.einsum('nij,njk->nik', p, M)
        assert np.abs(prod - np.eye(6)).max() < 1e-12


def test_real_omega_rejected():
    with pytest.raises(RealFrequency):
        resolvent_matrix(np.complex128(2.0), _random_xi(3, 2), MAT2)


def test_on_axis_rejected_3d():
    with pytest.raises(DegenerateDirection):
        resolvent_matrix(1.0 + 1.0j, np.array([[3.0, 0.0, 0.0]]), MAT3)


@pytest.mark.parametrize('mat', [MAT2, MAT3])
def test_charge_column_matches_mc(mat):
    xi = _random_xi(200, mat.dim)
    omega = 0.9 + 0.8j
    ncomp = 3 if mat.dim == 2 else 6
    J = RNG.normal(size=(200, ncomp)) + 1j * RNG.normal(size=(200, ncomp))
    if mat.dim == 2:
        Mc = m2c_matrix(omega, xi, mat)
        col = charge_column_2d(omega, xi, mat, J)
    else:
        Mc = m3c_matrix(omega, xi, mat)
        col = charge_column_3d(omega, xi, mat, J)
    direct = np.einsum('nij,nj->ni', Mc, J)
    assert np.abs(direct - col).max() < 1e-12


def test_regular_plus_singular_reassembles():
    # at real omega away from the spheres, the resolvent equals
    # regular + sum W / (i (omega - rho))
    omega = 3.1
    for mat in (MAT2, MAT3):
        xi = _random_xi(300, mat.dim)
        reg = regular_matrix(omega, xi, mat)
        total = reg.copy()
        for W, q in singular_weights(omega, xi, mat):
            rho = np.sqrt(np.einsum('ni,ij,nj->n', xi, q, xi))
            total += W / (1j * (omega - rho))[:, None, None]
        p = symbol_p(omega + 0j, xi, mat)
        eye = np.eye(3 if mat.dim == 2 else 6)
        prod = np.einsum('nij,njk->nik', p, total)
        assert np.abs(prod - eye).max() < 1e-9


def test_negative_omega_singular_flavor():
    # for omega < 0 the other scalar branch carries the singularity
    xi = _random_xi(100, 2)
    Wp = singular_weights(2.0, xi, MAT2)[0][0]
    Wm = singular_weights(-2.0, xi, MAT2)[0][0]
    A, B = scalar_resolvent_values(1.0 + 1.0j, xi, MAT2)
    assert not np.allclose(Wp, Wm)
    # reassembly at negative omega still inverts the symbol
    omega = -3.1
    reg = regular_matrix(omega, xi, MAT2)
    W, q = singular_weights(omega, xi, MAT2)[0]
    rho = np.sqrt(np.einsum('ni,ij,nj->n', xi, q, xi))
    total = reg + W / (1j * (omega + rho))[:, None, None]
    p = symbol_p(omega + 0j, xi, MAT2)
    prod = np.einsum('nij,njk->nik', p, total)
    assert np.abs(prod - np.eye(3)).max() < 1e-9


def test_zero_entries_are_zero():
    xi = _random_xi(100, 3)
    WA, WB, WC, WD = _m3_coeffs(xi, MAT3)
    Mc = m3c_matrix(1.0 + 1.0j, xi, MAT3)
    for i, j in M3_ZERO_ENTRIES:
        for W in (WA, WB, WC, WD, Mc):
            assert np.abs(W[:, i, j]).max() == 0.0


def test_flip_entry_breaks_inverse():
    xi = _random_xi(100, 3)
    omega = 1.2 + 0.9j
    p = symbol_p(omega, xi, MAT3)
    M = resolvent_matrix(omega, xi, MAT3, flip_entry=(2, 4))
    prod = np.einsum('nij,njk->nik', p, M)
    assert np.abs(prod - np.eye(6)).max() > 1e-3

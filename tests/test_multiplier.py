import numpy as np
import pytest

from maxres.errors import DegenerateDirection, RealFrequency
from maxres.materials import Material2, Material3
from maxres.multiplier import (_apply, _scalar_resolvents, _singular_columns,
                               resolvent_matrix)
from maxres.symbol import _eigen_basis, on_axis, symbol_p
from maxres.verify import M3_ZERO_ENTRIES, _flip
from helpers import (charge_column_2d, charge_column_3d, near_axis_xi,
                     projectors)

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


def _charge_part(omega, xi, mat):
    """M_c from the eigenbasis: the charge columns of (m w) m_inv."""
    m, minv, rho = _eigen_basis(xi, mat)
    w = _scalar_resolvents(omega, rho)
    c = slice(0, mat.dim - 1)
    return np.einsum('nic,nc,ncj->nij', m[:, :, c], w[:, c], minv[:, c])


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
    # s^2 / |xi|^2 in [1e-8, 1e-6), and 0 on every eighth row: the
    # closed form inverts the symbol up to the axis and on it
    xi = near_axis_xi(RNG, 400)
    frac = (xi[:, 1] ** 2 + xi[:, 2] ** 2) / np.einsum('ni,ni->n', xi, xi)
    axis = on_axis(xi)
    assert axis.sum() == 50 and np.all(frac[axis] == 0)
    assert frac[~axis].min() >= 1e-8 and frac.max() < 1e-6
    for omega in (1.3 + 0.6j, -2.2 + 0.3j):
        p = symbol_p(omega, xi, mat)
        M = resolvent_matrix(omega, xi, mat)
        prod = np.einsum('nij,njk->nik', p, M)
        assert np.abs(prod - np.eye(6)).max() < 1e-12


@pytest.mark.parametrize('mat', [MAT2, MAT3])
def test_resolvent_matrix_takes_one_omega_per_row(mat):
    xi = _random_xi(40, mat.dim)
    omegas = RNG.uniform(-4, 4, 40) + 1j * RNG.uniform(0.2, 2, 40)
    M = resolvent_matrix(omegas, xi, mat)
    rows = [resolvent_matrix(om, x[None], mat)[0] for om, x in zip(omegas, xi)]
    assert np.array_equal(M, np.array(rows))


def test_real_omega_rejected():
    with pytest.raises(RealFrequency):
        resolvent_matrix(np.complex128(2.0), _random_xi(3, 2), MAT2)
    # one real frequency among many is refused too
    with pytest.raises(RealFrequency):
        resolvent_matrix(np.array([1 + 1j, 2.0]), _random_xi(2, 2), MAT2)


def test_only_the_zero_wavevector_rejected_3d():
    # the axis takes the closed form; only xi = 0, where the symbol is
    # i omega I, has no eigenbasis
    xi = np.array([[3.0, 0.0, 0.0], [-0.5, 0.0, 0.0]])
    prod = symbol_p(1.0 + 1.0j, xi, MAT3) @ resolvent_matrix(1.0 + 1.0j, xi,
                                                             MAT3)
    assert np.abs(prod - np.eye(6)).max() < 1e-14
    with pytest.raises(DegenerateDirection, match='zero wavevector'):
        resolvent_matrix(1.0 + 1.0j, np.array([[0.0, 0.0, 0.0]]), MAT3)


@pytest.mark.parametrize('mat', [MAT2, MAT3])
def test_charge_column_matches_mc(mat):
    xi = _random_xi(200, mat.dim)
    omega = 0.9 + 0.8j
    ncomp = 3 if mat.dim == 2 else 6
    J = RNG.normal(size=(200, ncomp)) + 1j * RNG.normal(size=(200, ncomp))
    col = (charge_column_2d if mat.dim == 2 else charge_column_3d)(
        omega, xi, mat, J)
    Mc = _charge_part(omega, xi, mat)
    direct = np.einsum('nij,nj->ni', Mc, J)
    assert np.abs(direct - col).max() < 1e-12


def _regular(omega, xi, mat):
    """The resolvent at real omega with every singular column skipped:
    _apply on the identity."""
    eye = np.eye(3 if mat.dim == 2 else 6, dtype=complex)
    skip = _singular_columns(omega, mat)
    return _apply(xi, eye, mat,
                  lambda rho: _scalar_resolvents(omega, rho, skip=skip))


def test_regular_plus_singular_reassembles():
    # at real omega away from the spheres, the resolvent equals
    # regular + sum W / (i (omega - rho))
    omega = 3.1
    for mat in (MAT2, MAT3):
        xi = _random_xi(300, mat.dim)
        reg = _regular(omega, xi, mat)
        total = reg.copy()
        P = projectors(xi, mat)
        for c, q in zip(_singular_columns(omega, mat), mat.sphere_qforms):
            rho = np.sqrt(np.einsum('ni,ij,nj->n', xi, q, xi))
            total += P[c] / (1j * (omega - rho))[:, None, None]
        p = symbol_p(omega + 0j, xi, mat)
        eye = np.eye(3 if mat.dim == 2 else 6)
        prod = np.einsum('nij,njk->nik', p, total)
        assert np.abs(prod - eye).max() < 1e-9


def test_negative_omega_singular_flavor():
    # for omega < 0 the other scalar branch carries the singularity
    xi = _random_xi(100, 2)
    P = projectors(xi, MAT2)
    Wp = P[_singular_columns(2.0, MAT2)[0]]
    Wm = P[_singular_columns(-2.0, MAT2)[0]]
    assert not np.allclose(Wp, Wm)
    # reassembly at negative omega still inverts the symbol
    omega = -3.1
    reg = _regular(omega, xi, MAT2)
    W = P[_singular_columns(omega, MAT2)[0]]
    q = MAT2.sphere_qforms[0]
    rho = np.sqrt(np.einsum('ni,ij,nj->n', xi, q, xi))
    total = reg + W / (1j * (omega + rho))[:, None, None]
    p = symbol_p(omega + 0j, xi, MAT2)
    prod = np.einsum('nij,njk->nik', p, total)
    assert np.abs(prod - np.eye(3)).max() < 1e-9


def test_zero_entries_are_zero():
    xi = _random_xi(100, 3)
    WA, WB, WC, WD = projectors(xi, MAT3)[2:]
    Mc = _charge_part(1.0 + 1.0j, xi, MAT3)
    M = resolvent_matrix(1.0 + 1.0j, xi, MAT3)
    for i, j in M3_ZERO_ENTRIES:
        for W in (WA, WB, WC, WD, Mc, M):
            assert np.abs(W[:, i, j]).max() == 0.0


def test_flip_entry_breaks_inverse():
    xi = _random_xi(100, 3)
    omega = 1.2 + 0.9j
    p = symbol_p(omega, xi, MAT3)
    M = resolvent_matrix(omega, xi, MAT3)
    _flip(M, omega, xi, MAT3, (2, 4))
    prod = np.einsum('nij,njk->nik', p, M)
    assert np.abs(prod - np.eye(6)).max() > 1e-3


@pytest.mark.parametrize('mat,band', [
    (MAT2, False), (MAT3, False), (Material3(1.0, 1.0), False),
    (MAT3, True), (Material3(1.0, 1.0), True),
])
def test_projectors_resolve_identity(mat, band):
    # the terms W_j and the charge projector sum to I and are mutually
    # orthogonal idempotents, here and near and on the axis
    xi = near_axis_xi(RNG, 300) if band else _random_xi(300, mat.dim)
    P = projectors(xi, mat)
    nc = mat.dim - 1
    family = [sum(P[:nc])] + P[nc:]
    eye = np.eye(3 if mat.dim == 2 else 6)
    assert np.abs(sum(family) - eye).max() < 1e-12
    for j, Pj in enumerate(family):
        for k, Pk in enumerate(family):
            expect = Pj if j == k else 0.0
            assert np.abs(Pj @ Pk - expect).max() < 1e-12


@pytest.mark.parametrize('mat,band', [
    (MAT2, False), (MAT3, False), (Material3(1.0, 1.0), False),
    (MAT3, True), (Material3(1.0, 1.0), True),
])
def test_projectors_are_zero_homogeneous(mat, band):
    # W_j(r u) = W_j(u) for every term W_j, radii 1e-3 to 1e3, here and
    # near and on the axis: the LAP evaluates its Sokhotsky weights
    # once per sphere direction; measured at most 9.2e-16 relative
    xi = near_axis_xi(RNG, 300) if band else _random_xi(300, mat.dim)
    u = xi / np.linalg.norm(xi, axis=1, keepdims=True)
    terms = projectors(u, mat)[mat.dim - 1:]
    for r in 10.0 ** np.arange(-3, 4):
        for Pr, Pu in zip(projectors(r * u, mat)[mat.dim - 1:], terms):
            scale = np.abs(Pu).max(axis=(1, 2))
            assert np.all(np.abs(Pr - Pu).max(axis=(1, 2)) <= 1e-14 * scale)


def test_formula_notes_13_witness():
    # FORMULA_NOTES.md: M[1, 3] is the antisymmetric (A - B) combination
    mat = Material3(0.5, 1.0 / 0.7)
    xi = np.array([[1.7, 0.66, -0.23]])
    omega = 1.5 + 0.5j
    M13 = resolvent_matrix(omega, xi, mat)[0, 1, 3]
    r = np.sqrt(mat.b) * np.linalg.norm(xi)
    A, B = 1.0 / (1j * (omega - r)), 1.0 / (1j * (omega + r))
    closed = (A - B) * (xi[0, 2] / np.linalg.norm(xi)) / (2 * np.sqrt(mat.b))
    assert abs(M13 - closed) < 1e-14
    assert abs(M13 - (0.144764041802858 - 0.035221091370635j)) < 1e-14

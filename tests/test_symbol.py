import numpy as np
import pytest

from maxres import symbol, verify
from maxres.errors import DegenerateDirection, InvalidArgument
from maxres.materials import Material2, Material3
from maxres.symbol import (_qnorm, canonicalize, det_diagnostics,
                           eigen_decomposition, symbol_p)

RNG = np.random.default_rng(42)

MAT2 = Material2(2.0, 0.3, 1.2, mu=0.8)
MAT3 = Material3(0.5, 1.0 / 0.7)     # a = 2.0, b = 0.7


def _random_xi(n, dim):
    xi = RNG.normal(0.0, 2.0, size=(n, dim))
    xi[np.abs(xi).max(axis=1) < 1e-3] += 1.0
    return xi


def _norm_e(xi):
    """|xi|_e of MAT3, sqrt(b xi1^2 + a (xi2^2 + xi3^2)), written out."""
    return np.sqrt(MAT3.b * xi[..., 0] ** 2
                   + MAT3.a * (xi[..., 1] ** 2 + xi[..., 2] ** 2))


def test_norms():
    xi = np.array([1.0, 2.0])
    q = MAT2.qform
    assert _qnorm(xi, q) == pytest.approx(np.sqrt(xi @ q @ xi))
    xi3 = np.array([1.0, 2.0, 3.0])
    expect = np.sqrt(MAT3.b * 1.0 + MAT3.a * (4.0 + 9.0))
    assert _qnorm(xi3, MAT3.qform) == pytest.approx(expect)
    # any leading shape
    xi = np.random.default_rng(7).normal(size=(3, 4, 3))
    assert np.allclose(_qnorm(xi, MAT3.qform), _norm_e(xi), rtol=1e-15,
                       atol=0)


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
    ne = _norm_e(xi)
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
    # rows near the axis, s^2 / |xi|^2 from 1e-16 to 1e-8
    r = np.logspace(-16, -8, 9)
    xi[:9] = np.stack([np.ones(9), np.sqrt(r / (1 - r)), np.zeros(9)], 1)
    alpha, delta, det_m, det_mt = det_diagnostics(xi, MAT3)
    assert np.allclose(det_mt, 4.0 / (MAT3.a * MAT3.b ** 1.5), rtol=1e-12,
                       atol=0)
    assert np.allclose(alpha[:9], np.sqrt(r * delta[:9]), rtol=1e-12)
    xi = xi[9:]
    ratio = np.abs(det_mt[9:])
    assert ratio.max() - ratio.min() < 1e-10
    m, _, _ = eigen_decomposition(1.0 + 1.0j, xi, MAT3)
    assert np.allclose(np.abs(np.linalg.det(m)), ratio, rtol=1e-10)


def test_only_the_zero_wavevector_raises():
    # the axis takes the closed form: both spheres meet there, and any
    # transverse pair is an eigenbasis
    xi = np.array([[2.0, 0.0, 0.0], [-1e-3, 0.0, 0.0]])
    m, d, m_inv = eigen_decomposition(1.0 + 1.0j, xi, MAT3)
    recon = np.einsum('nij,njk,nkl->nil', m, d, m_inv)
    assert np.abs(recon - symbol_p(1.0 + 1.0j, xi, MAT3)).max() < 1e-14
    with pytest.raises(DegenerateDirection, match='zero wavevector'):
        eigen_decomposition(1.0 + 1.0j, np.array([[0.0, 0.0, 0.0]]), MAT3)
    with pytest.raises(DegenerateDirection, match='zero wavevector'):
        eigen_decomposition(1.0 + 1.0j, np.zeros((1, 2)), MAT2)


@pytest.mark.parametrize('mat', verify.MATERIALS_3D,
                         ids=['isotropic', 'a2-b0.7', 'a0.4-b1.25'])
@pytest.mark.parametrize('ratio', [1e-4, 1e-12, 1e-100, 0.0])
def test_basis_identities_up_to_the_axis(mat, ratio):
    # s / |xi| = ratio: p = m d m^{-1}, m^{-1} m = I and det m at its
    # constant hold to round-off, down to the axis and on it
    xi = _random_xi(500, 3)
    xi[:, 1:] *= ratio * np.abs(xi[:, :1]) / np.linalg.norm(
        xi[:, 1:], axis=1, keepdims=True)
    s = np.linalg.norm(xi[:, 1:], axis=1) / np.linalg.norm(xi, axis=1)
    assert np.allclose(s, ratio, rtol=1e-8, atol=0)
    omega = 1.3 - 0.4j
    m, d, m_inv = eigen_decomposition(omega, xi, mat)
    p = symbol_p(omega, xi, mat)
    recon = np.einsum('nij,njk,nkl->nil', m, d, m_inv)
    assert np.abs(recon - p).max() < 1e-14 * np.abs(p).max()
    assert np.abs(m_inv @ m - np.eye(6)).max() < 1e-14
    target = 4 / (mat.a * mat.b ** 1.5)
    assert np.abs(np.linalg.det(m) / target - 1).max() < 1e-14


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


@pytest.mark.parametrize('x1', [1.0, -2.5, 1e-3])
def test_det_diagnostics_answers_on_the_axis(x1):
    # xi_2 = xi_3 = 0: the plain basis vanishes, alpha = 0 and det_m = 0,
    # while the basis the solvers use keeps its constant determinant
    xi = np.array([[1.0, 2.0, 0.5], [x1, 0.0, 0.0]])
    alpha, delta, det_m, det_mt = det_diagnostics(xi, MAT3)
    assert alpha[1] == 0 and det_m[1] == 0
    assert delta[1] == pytest.approx(1 / np.sqrt(MAT3.b), rel=1e-15)
    assert np.allclose(det_mt, 4.0 / (MAT3.a * MAT3.b ** 1.5), rtol=1e-14,
                       atol=0)


@pytest.mark.parametrize('mat,xi', [
    (MAT3, [1e-300, 0.0, 0.0]), (MAT3, [1.0, 1e200, 1.0]),
    (MAT3, [1e-200] * 3), (MAT3, [5e-324, 0.0, 5e-324]),
    (MAT3, [-1e300, 3e299, 0.0]), (MAT2, [1e-300, 2e-300]),
    (MAT2, [1.0, -1e200])],
    ids=['3d-1e-300-axis', '3d-1e200', '3d-1e-200', '3d-subnormal',
         '3d-1e300', '2d-1e-300', '2d-1e200'])
def test_frame_is_scale_free(mat, xi):
    # |xi| is measured on xi scaled by a power of two, so no square
    # overflows or underflows: a nonzero wavevector of any finite size
    # has a finite eigenbasis with p = m d m^{-1}
    xi = np.array([xi])
    omega = 3.0
    m, d, m_inv = eigen_decomposition(omega, xi, mat)
    assert all(np.all(np.isfinite(a)) for a in (m, d, m_inv))
    p = symbol_p(omega, xi, mat)
    recon = np.einsum('nij,njk,nkl->nil', m, d, m_inv)
    assert np.abs(recon - p).max() <= 1e-12 * np.abs(p).max()
    # the offsets are the flavor norms, scaled back
    rho = symbol._frame(xi, mat).rho
    top = np.abs(xi).max()
    u = xi / top
    want = [np.sqrt(u @ q @ u.T)[0, 0] * top for q in mat.sphere_qforms]
    assert np.allclose(rho[0, mat.dim::2], want, rtol=1e-15, atol=0)
    if mat.dim == 3:
        alpha, delta, det_m, det_mt = det_diagnostics(xi, mat)
        assert all(np.all(np.isfinite(a)) for a in (alpha, delta, det_m))
        assert np.allclose(det_mt, 4.0 / (mat.a * mat.b ** 1.5),
                           rtol=1e-14, atol=0)


@pytest.mark.parametrize('mat', [MAT2, MAT3])
def test_frame_scaling_keeps_every_bit(mat):
    # scaling by a power of two is exact: the frame of xi and of 2^k xi
    # agree bit for bit, and their offsets differ by exactly 2^k
    xi = _random_xi(300, mat.dim)
    f = symbol._frame(xi, mat)
    for k in (-600, -7, 9, 700):
        g = symbol._frame(np.ldexp(xi, k), mat)
        for name in f._fields[:-1]:
            assert np.array_equal(getattr(f, name), getattr(g, name)), name
        assert np.array_equal(np.ldexp(f.rho, k), g.rho)


@pytest.mark.parametrize('mat', [MAT2, MAT3, verify.MATERIALS_3D[0],
                                 Material3(1.5, 0.9, axis=2, mu=1.3)],
                         ids=['2d', '3d', '3d-isotropic', '3d-rotated'])
def test_p_apply_matches_symbol_p(mat):
    # the matrix-free symbol against the dense reference, at one omega
    # and at one omega per wavevector, and at xi = 0
    xi = _random_xi(400, mat.dim)
    xi[:3] = 0.0
    xi[3:6, 1:] = 0.0
    ncomp = 3 * (mat.dim - 1)
    c = RNG.normal(size=(ncomp, 400)) + 1j * RNG.normal(size=(ncomp, 400))
    for omega in (1.3 - 0.4j, RNG.normal(size=400) + 1j):
        ref = (symbol_p(omega, xi, mat) @ c.T[..., None])[..., 0].T
        got = symbol._p_apply(omega, xi, c, mat)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

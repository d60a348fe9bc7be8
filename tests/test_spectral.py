import tracemalloc

import numpy as np
import pytest

from maxres import lap
from maxres import region as rg
from maxres import spectral as sp
from maxres import symbol
from maxres.errors import InvalidArgument, MeanNotZero, RealFrequency
from maxres.materials import Material2, Material3
from helpers import charge_column_2d, charge_column_3d

RNG = np.random.default_rng(19)

MAT2 = Material2(2.0, 0.3, 1.2, mu=0.8)
MAT3 = Material3(0.5, 1.0 / 0.7)
OMEGA = 2.0 + 0.6j


def test_grid_basics():
    g = sp.Grid(2, 8)
    assert g.npoints == 64
    assert g.cell_volume == pytest.approx((2 * np.pi / 8) ** 2)
    with pytest.raises(ValueError):
        sp.Grid(2, 12)          # not a power of two
    with pytest.raises(ValueError):
        sp.Grid(4, 8)
    # dim and n are integers; numpy integers are accepted
    for dim, n in ((2, 16.0), (2, '16'), (2.0, 8)):
        with pytest.raises(InvalidArgument, match='integers'):
            sp.Grid(dim, n)
    assert sp.Grid(np.int64(2), np.int32(16)).npoints == 256


def test_xi_lattice_built_once_and_read_only():
    g = sp.Grid(3, 8, length=3.0)
    xi = g.xi_flat()
    assert sp.Grid(3, 8, length=3.0).xi_flat() is xi     # equal grids share
    ax = (2 * np.pi / 3.0) * g.k_axis()
    mesh = np.stack(np.meshgrid(ax, ax, ax, indexing='ij'), axis=-1)
    assert np.array_equal(xi, mesh.reshape(-1, 3))
    with pytest.raises(ValueError):
        xi[0, 0] = 1.0
    assert sp.Grid(2, 8).xi_flat().shape == (64, 2)


def test_fft_convention_plane_wave():
    # exp(i k.x) has a single unit coefficient at mode k
    g = sp.Grid(2, 16)
    x = g.x_axis()
    X, Y = np.meshgrid(x, x, indexing='ij')
    f = sp.scalar_field(g, np.exp(1j * (3 * X - 2 * Y)))
    c = f.coeffs().reshape(-1)
    xi = g.xi_flat()
    hit = np.nonzero(np.abs(c) > 1e-12)[0]
    assert hit.size == 1
    assert np.allclose(xi[hit[0]], [3.0, -2.0])
    assert c[hit[0]] == pytest.approx(1.0)


def test_field_round_trip_and_arithmetic():
    g = sp.Grid(3, 8)
    f = sp.random_band_limited(g, 6, RNG)
    back = sp.Field.from_coeffs(g, f.coeffs())
    assert np.abs(back.data - f.data).max() < 1e-13
    h = 2.0 * f - f
    assert np.abs(h.data - f.data).max() < 1e-13


def test_lebesgue_norm_constant():
    g = sp.Grid(2, 8)
    f = sp.scalar_field(g, np.full((8, 8), 3.0))
    # |f| = 3 on a cell of total volume (2 pi)^2
    assert sp.lebesgue_norm(f, 2) == pytest.approx(3.0 * 2 * np.pi)
    assert sp.lebesgue_norm(f, np.inf) == pytest.approx(3.0)


@pytest.mark.parametrize('p', [1e3, 1e300])
def test_lebesgue_norm_large_exponent(p):
    # 3^p overflows from p of about 640; the norm is 3 vol^(1/p)
    g = sp.Grid(3, 8)
    f = sp.scalar_field(g, np.full((8, 8, 8), 3.0))
    assert sp.lebesgue_norm(f, p) == pytest.approx(
        3.0 * g.volume ** (1.0 / p), rel=1e-14)


@pytest.mark.parametrize('mat,ncomp', [(MAT2, 3), (MAT3, 6)])
def test_solve_residual(mat, ncomp):
    g = sp.Grid(2, 32) if mat.dim == 2 else sp.Grid(3, 16)
    J = sp.random_band_limited(g, ncomp, RNG)
    u = sp.solve(OMEGA, J, mat)
    r = sp.forward_operator(OMEGA, u, mat) - J
    assert sp.lebesgue_norm(r, 2) / sp.lebesgue_norm(J, 2) < 1e-12


def test_solve_noncanonical_material():
    mat = Material3(1.5, 0.9, axis=3, mu=1.2)
    g = sp.Grid(3, 16)
    J = sp.random_band_limited(g, 6, RNG)
    u = sp.solve(OMEGA, J, mat)
    r = sp.forward_operator(OMEGA, u, mat) - J
    assert sp.lebesgue_norm(r, 2) / sp.lebesgue_norm(J, 2) < 1e-12


def test_solve_real_omega_rejected():
    g = sp.Grid(2, 16)
    J = sp.random_band_limited(g, 3, RNG)
    with pytest.raises(RealFrequency):
        sp.solve(2.0, J, MAT2)


@pytest.mark.parametrize('mat,ncomp', [(MAT2, 3), (MAT3, 6)])
def test_solenoidal_preserved(mat, ncomp):
    g = sp.Grid(2, 32) if mat.dim == 2 else sp.Grid(3, 16)
    J = sp.random_band_limited(g, ncomp, RNG, solenoidal=True)
    u = sp.solve(OMEGA, J, mat)
    ch = sp.divergence_and_charges(u)
    scale = sp.lebesgue_norm(u, 2)
    assert sp.lebesgue_norm(ch.rho_e, 2) / scale < 1e-11
    assert sp.lebesgue_norm(ch.rho_m, 2) / scale < 1e-11


def test_leray_projection():
    g = sp.Grid(3, 16)
    J = sp.random_band_limited(g, 6, RNG)
    P = sp.leray_project(J)
    ch = sp.divergence_and_charges(P)
    assert sp.lebesgue_norm(ch.rho_e, np.inf) < 1e-11
    assert sp.lebesgue_norm(ch.rho_m, np.inf) < 1e-11
    # idempotent
    PP = sp.leray_project(P)
    assert np.abs(PP.data - P.data).max() < 1e-12


@pytest.mark.parametrize('mat', [Material3(0.5, 1.0 / 0.7, axis=2, mu=1.3),
                                 Material3(2.5, 0.8, axis=3, mu=0.7)])
def test_oblique_leray_noncanonical_matches_canonical_frame(mat):
    # projecting along eps . xi in the stored frame is the canonical-frame
    # projection mapped back
    g = sp.Grid(3, 16)
    J = sp.random_band_limited(g, 6, RNG)
    canon, Jc, record = symbol.canonicalize(mat, J)
    ref = record.backward_fields(sp.leray_project(Jc, canon))
    got = sp.leray_project(J, mat)
    assert np.abs(got.data - ref.data).max() < 1e-13 * np.abs(ref.data).max()
    ch = sp.divergence_and_charges(sp.solve(OMEGA, got, mat))
    scale = sp.lebesgue_norm(got, 2)
    assert sp.lebesgue_norm(ch.rho_e, 2) / scale < 1e-11
    assert sp.lebesgue_norm(ch.rho_m, 2) / scale < 1e-11


def test_oblique_leray_annihilates_charge_part():
    # removing the eps-oblique projection reproduces exactly the charge
    # contribution of the solve
    for mat, ncomp in ((MAT2, 3), (MAT3, 6)):
        g = sp.Grid(2, 32) if mat.dim == 2 else sp.Grid(3, 16)
        J = sp.random_band_limited(g, ncomp, RNG)
        diff = sp.solve(OMEGA, J, mat) - sp.solve(OMEGA,
                                                  sp.leray_project(J, mat),
                                                  mat)
        c = J.coeffs().reshape(ncomp, -1)
        xi = g.xi_flat()
        nz = np.nonzero(np.any(xi != 0, axis=-1))[0]
        expect = np.zeros_like(c)
        fn = charge_column_2d if mat.dim == 2 else charge_column_3d
        expect[:, nz] = fn(OMEGA, xi[nz], mat, c[:, nz].T).T
        got = diff.coeffs().reshape(ncomp, -1)
        assert np.abs(got - expect).max() < 1e-12


def test_riesz_is_isometry_on_mean_zero():
    g = sp.Grid(2, 32)
    f = sp.random_band_limited(g, 1, RNG)
    f = f - sp.scalar_field(g, np.full((32, 32), complex(f.data.mean())))
    r1 = sp.riesz(f, 1)
    r2 = sp.riesz(f, 2)
    # the multiplier is xi_i/|xi|, so R1^2 + R2^2 = Id on mean-zero fields
    s = sp.riesz(r1, 1) + sp.riesz(r2, 2)
    assert np.abs(s.data - f.data).max() < 1e-12


def test_fractional_laplacian_composition():
    g = sp.Grid(2, 32)
    f = sp.random_band_limited(g, 1, RNG)
    f = f - sp.scalar_field(g, np.full((32, 32), complex(f.data.mean())))
    g1 = sp.fractional_laplacian(sp.fractional_laplacian(f, 0.5), -0.5)
    assert np.abs(g1.data - f.data).max() < 1e-11


def test_fractional_laplacian_mean_guard():
    g = sp.Grid(2, 16)
    f = sp.scalar_field(g, np.ones((16, 16)))
    with pytest.raises(MeanNotZero):
        sp.fractional_laplacian(f, -1.0)


def test_half_laplacian_resolvent():
    g = sp.Grid(2, 16)
    f = sp.random_band_limited(g, 1, RNG)
    u = sp.half_laplacian_resolvent(f, 1.0 + 1.0j, sign=-1)
    c_in = f.coeffs().reshape(-1)
    c_out = u.coeffs().reshape(-1)
    rho = np.sqrt(np.einsum('ki,ki->k', g.xi_flat(), g.xi_flat()))
    assert np.abs(c_out - c_in / (1.0 + 1.0j - rho)).max() < 1e-13
    with pytest.raises(RealFrequency):
        sp.half_laplacian_resolvent(f, 1.0)


def test_random_band_limited_support():
    g = sp.Grid(2, 32)
    f = sp.random_band_limited(g, 3, RNG, kmax=5)
    c = f.coeffs().reshape(3, -1)
    xi = g.xi_flat()
    outside = np.abs(xi).max(axis=1) > 5
    assert np.abs(c[:, outside]).max() < 1e-12 * np.abs(c).max()


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _kept_sources():
    g2, g3 = sp.Grid(2, 32), sp.Grid(3, 16)
    yield sp.random_band_limited(g2, 3, RNG)
    yield sp.random_band_limited(g3, 6, RNG, solenoidal=True, mat=MAT3)
    yield rg.annulus_source(g3, 2.5, MAT3)
    yield rg.knapp_source(g3, 2.5 + 0.5j, MAT3)
    for mat in (Material3(0.5, 1.4, axis=2, mu=1.3),
                Material3(2.5, 0.8, axis=3, mu=0.7)):
        canon, Jc, record = symbol.canonicalize(
            mat, sp.random_band_limited(g3, 6, RNG))
        yield Jc
        yield record.backward_fields(sp.solve(OMEGA, Jc, canon))


def test_kept_coefficients_are_the_fft_of_the_samples():
    for f in _kept_sources():
        kept = f._spectrum()
        assert f._kept is not None and f._data is None
        axes = tuple(range(1, f.grid.dim + 1))
        fft = np.fft.fftn(f.data, axes=axes) / f.grid.npoints
        assert _rel(fft, kept) < 1e-15


def test_kept_coefficients_are_read_only():
    g = sp.Grid(2, 16)
    c = RNG.standard_normal((3, 16, 16)) + 0j
    f = sp.Field.from_coeffs(g, c)
    with pytest.raises(ValueError, match='read-only'):
        f.data[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match='read-only'):
        f._spectrum()[0, 0, 0] = 1.0
    # coeffs() is a fresh writable copy, and the caller's array is as
    # writable as it was
    got = f.coeffs()
    assert got.flags.writeable and c.flags.writeable
    assert not np.shares_memory(got, f._spectrum())
    assert np.array_equal(got, c)
    got[0, 0, 0] = 7.0
    assert f._spectrum()[0, 0, 0] == c[0, 0, 0]
    # a field built from samples holds their FFT, and keeps a read-only
    # copy of the caller's samples
    s = f.data.copy()
    h = sp.Field(g, s)
    assert np.array_equal(h._kept, np.fft.fftn(s, axes=(1, 2),
                                               norm='forward'))
    assert np.array_equal(h.data, s) and not np.shares_memory(h.data, s)
    for a in (h.data, h._kept):
        with pytest.raises(ValueError, match='read-only'):
            a[0, 0, 0] = 1.0
    assert s.flags.writeable
    # arithmetic on coefficient fields stays in coefficients
    for h, kept, samples in ((f + f, c + c, f.data + f.data),
                             (2.0 * f, 2.0 * c, 2.0 * f.data)):
        assert np.array_equal(h._spectrum(), kept)
        assert np.abs(h.data - samples).max() <= 1e-15 * np.abs(samples).max()


def test_block_boundaries_change_no_bit(monkeypatch):
    g = sp.Grid(3, 16)
    c = sp.random_band_limited(g, 6, np.random.default_rng(23),
                               kmax=8)._spectrum().reshape(6, -1)
    xi = g.xi_flat()
    # the full band holds the zero mode and the near-axis modes
    assert np.all(c[:, 0] != 0) and np.all(c[:, symbol.near_axis(xi)] != 0)
    u = sp.Field.from_coeffs(g, c.reshape((6,) + (16,) * 3))

    def run():
        return (sp._solve_coeffs(OMEGA, u, MAT3),
                sp._solve_coeffs(2.7 + 0.1j, u, MAT3, skip=(3, 5),
                                 mask=np.abs(xi).max(axis=1) > 2),
                sp.forward_operator(OMEGA, u, MAT3)._spectrum())

    ref = run()
    monkeypatch.setattr(symbol, '_block_rows', lambda ncomp: 97)
    for got, want in zip(run(), ref):
        assert np.array_equal(got, want)


def test_solve_touches_only_the_source_band(monkeypatch):
    g = sp.Grid(3, 16)
    J = sp.random_band_limited(g, 6, RNG, kmax=3)
    rows = []
    basis = symbol._eigen_basis

    def counted(xi, mat, *args):
        rows.append(len(xi))
        return basis(xi, mat, *args)

    monkeypatch.setattr(symbol, '_eigen_basis', counted)
    u = sp.solve(OMEGA, J, MAT3)
    xi = g.xi_flat()
    band = (np.any(J._spectrum().reshape(6, -1) != 0, axis=0)
            & ~symbol.near_axis(xi) & np.any(xi != 0, axis=-1))
    assert sum(rows) == band.sum() == 7 ** 3 - 7
    monkeypatch.undo()
    # the same samples without kept coefficients: every mode is solved
    ref = sp.solve(OMEGA, sp.Field(g, J.data.copy()), MAT3)
    assert _rel(u.data, ref.data) < 1e-14


def test_forward_operator_on_kept_coefficients():
    g = sp.Grid(3, 16)
    u = sp.solve(OMEGA, sp.random_band_limited(g, 6, RNG), MAT3)
    assert u._kept is not None
    got = sp.forward_operator(OMEGA, u, MAT3)
    ref = sp.forward_operator(OMEGA, sp.Field(g, u.data.copy()), MAT3)
    assert _rel(got.data, ref.data) < 1e-14


@pytest.mark.parametrize('grid,ncomp', [(sp.Grid(2, 32), 3),
                                        (sp.Grid(3, 16), 6)])
def test_parseval_norm_matches_the_sample_sum(grid, ncomp):
    f = sp.random_band_limited(grid, ncomp, RNG, kmax=grid.n // 2)
    ref = np.sqrt(np.sum(np.abs(f.data) ** 2) * grid.cell_volume)
    samples = sp.Field(grid, f.data)
    for h in (f, samples):
        got = sp.lebesgue_norm(h, 2)
        assert abs(got - ref) <= 1e-14 * ref
    # other exponents read the samples
    assert sp.lebesgue_norm(f, 4) == sp.lebesgue_norm(samples, 4)


def test_coefficient_field_synthesizes_its_samples_once(monkeypatch):
    g = sp.Grid(3, 8)
    calls = []
    ifftn = np.fft.ifftn

    def counted(*args, **kw):
        calls.append(1)
        return ifftn(*args, **kw)

    monkeypatch.setattr(sp.np.fft, 'ifftn', counted)
    c = RNG.standard_normal((6, 8, 8, 8)) + 1j * RNG.standard_normal(
        (6, 8, 8, 8))
    f = sp.Field.from_coeffs(g, c)
    assert f._data is None and f.shape == c.shape and f.ncomp == 6
    assert not calls
    first = f.data
    assert f.data is first and len(calls) == 1
    assert not first.flags.writeable
    with pytest.raises(ValueError, match='read-only'):
        f.data[0, 0, 0, 0] = 1.0
    monkeypatch.undo()
    ref = np.fft.ifftn(c, axes=(1, 2, 3)) * g.npoints
    assert _rel(first, ref) < 1e-15


def test_full_band_source_is_the_full_grid_draw():
    # at kmax = n/2 the band is the whole grid: the same normals, in the
    # same order, as a draw over the full grid times the band mask
    for grid, ncomp in ((sp.Grid(2, 16), 3), (sp.Grid(3, 8), 6)):
        f = sp.random_band_limited(grid, ncomp, np.random.default_rng(5),
                                   kmax=grid.n // 2)
        rng = np.random.default_rng(5)
        keep1 = np.abs(grid.k_axis()) <= grid.n // 2
        mask = keep1
        for _ in range(grid.dim - 1):
            mask = np.multiply.outer(mask, keep1)
        shape = (ncomp,) + (grid.n,) * grid.dim
        old = (rng.standard_normal(shape)
               + 1j * rng.standard_normal(shape)) * mask
        assert np.array_equal(f._spectrum(), old)
        assert f._spectrum().tobytes() == old.tobytes()


def test_random_band_limited_draws_the_band_only():
    g = sp.Grid(3, 16)
    f = sp.random_band_limited(g, 6, np.random.default_rng(4), kmax=2)
    band = np.abs(g.k_axis()) <= 2
    inside = f._spectrum()[np.ix_(range(6), band, band, band)]
    rng = np.random.default_rng(4)
    shape = (6, 5, 5, 5)
    assert np.array_equal(inside, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
    assert np.count_nonzero(f._spectrum()) == inside.size
    with pytest.raises(ValueError, match='kmax'):
        sp.random_band_limited(g, 6, RNG, kmax=-1)


def test_canonical_form_moves_only_the_held_array():
    mat = Material3(0.5, 1.4, axis=2, mu=1.3)
    J = sp.random_band_limited(sp.Grid(3, 8), 6, RNG)
    canon, Jc, record = symbol.canonicalize(mat, J)
    assert Jc._data is None and Jc._kept is not None
    back = record.backward_fields(Jc)
    assert back._data is None and _rel(back._spectrum(),
                                       J._spectrum()) < 1e-15
    # a field built from samples moves its full-grid block the same way
    _, Js, _ = symbol.canonicalize(mat, sp.Field(J.grid, J.data))
    assert Js._data is None and Js._kept.shape == Js.shape
    assert _rel(Js.data, Jc.data) < 1e-15


@pytest.mark.parametrize('grid,mat', [
    (sp.Grid(2, 32), MAT2),
    (sp.Grid(3, 16), Material3(0.5, 1.4, axis=2, mu=1.3))])
def test_band_held_samples_are_the_inverse_fft_of_the_coefficients(grid,
                                                                   mat):
    J = sp.random_band_limited(grid, 3 * (grid.dim - 1), RNG)
    u = sp.solve(OMEGA, J, mat)
    # held on the band |k| <= n/4, through canonical form and back
    assert u._kept.shape[1:] == (grid.n // 2 + 1,) * grid.dim
    axes = tuple(range(1, grid.dim + 1))
    for f in (J, u, sp.forward_operator(OMEGA, u, mat) - J):
        assert np.array_equal(f.data, np.fft.ifftn(f.coeffs(), axes=axes,
                                                   norm='forward'))


def test_band_chain_allocates_less_than_one_full_array():
    # the solve, its residual norm, the charges and the potentials of a
    # kmax = n/4 source run on its band: before any sample read nothing
    # as large as one full (6, n^3) complex array is allocated
    g = sp.Grid(3, 64)
    tracemalloc.start()
    try:
        J = sp.random_band_limited(g, 6, np.random.default_rng(8))
        u = sp.solve(OMEGA, J, MAT3)
        rel = (sp.lebesgue_norm(sp.forward_operator(OMEGA, u, MAT3) - J, 2)
               / sp.lebesgue_norm(J, 2))
        charges = sp.divergence_and_charges(J)
        pots = [sp.lebesgue_norm(sp.fractional_laplacian(rho, -1.0), 2)
                for rho in (charges.rho_e, charges.rho_m)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u._data is None and rel < 1e-12 and min(pots) > 0
    full = 6 * g.npoints * np.dtype(complex).itemsize
    assert peak < full, (peak / 2 ** 20, full / 2 ** 20)


def test_from_coeffs_holds_the_support_of_the_nonzero_modes():
    g = sp.Grid(2, 16)
    c = np.zeros((3, 16, 16), dtype=complex)
    c[:, 3, 5], c[1, 14, 5] = 1.0, 2.0j
    f = sp.Field.from_coeffs(g, c)
    assert f._kept.shape == (3, 2, 1)
    assert np.array_equal(f.coeffs(), c) and np.array_equal(f._spectrum(), c)
    assert sp.lebesgue_norm(f, 2) == pytest.approx(
        sp.lebesgue_norm(sp.Field(g, f.data.copy()), 2), rel=1e-14)
    # a full support is held without a copy
    full = RNG.standard_normal((3, 16, 16)) + 0j
    assert np.shares_memory(sp.Field.from_coeffs(g, full)._kept, full)


def test_fields_on_different_supports_combine_on_their_union():
    g = sp.Grid(3, 16)
    a = sp.random_band_limited(g, 6, RNG, kmax=2)
    b = sp.random_band_limited(g, 6, RNG, kmax=5)
    for h, want in ((a + b, a.coeffs() + b.coeffs()),
                    (b - a, b.coeffs() - a.coeffs())):
        assert h._kept.shape == b._kept.shape
        assert np.array_equal(h._spectrum(), want)


def test_field_sums_need_one_grid_and_one_component_count():
    a = sp.random_band_limited(sp.Grid(2, 16), 3, RNG)
    for b in (sp.random_band_limited(sp.Grid(2, 32), 3, RNG),
              sp.random_band_limited(sp.Grid(2, 16, length=3.0), 3, RNG),
              sp.random_band_limited(sp.Grid(2, 16), 1, RNG)):
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(InvalidArgument) as err:
                op(a, b)
            msg = str(err.value)
            assert repr(a.grid) in msg and repr(b.grid) in msg
            assert '%d-component' % a.ncomp in msg
            assert '%d-component' % b.ncomp in msg
    # a non-field operand is Python's TypeError, not an AttributeError
    for other in (1.0, np.ones(3)):
        with pytest.raises(TypeError):
            a + other


def test_fields_multiply_by_scalars_only():
    g = sp.Grid(2, 16)
    w = RNG.standard_normal((16, 16))
    for f in (sp.random_band_limited(g, 3, RNG, kmax=8),
              sp.random_band_limited(g, 3, RNG)):
        for bad in (w, w[None], [1.0, 2.0], f):
            with pytest.raises(InvalidArgument, match='scalars'):
                f * bad
            with pytest.raises(InvalidArgument, match='scalars'):
                bad * f
        for a in (2.0, np.float64(-1.5), np.array(0.5j), 3):
            assert np.array_equal((f * a).coeffs(), f.coeffs() * a)
            assert np.array_equal((a * f).coeffs(), f.coeffs() * a)


def _plane_wave(grid, k):
    """The scalar field exp(i k . x), k an integer mode."""
    x = np.stack(np.meshgrid(*[grid.x_axis()] * grid.dim, indexing='ij'))
    return sp.scalar_field(grid, np.exp(1j * np.einsum('i,i...->...', k, x)))


@pytest.mark.parametrize('grid,flavor,mat,q', [
    # eps / (mu det eps), det eps = 2.0 * 1.2 - 0.3^2
    (sp.Grid(2, 16), 'eps_prime', MAT2,
     np.array([[2.0, 0.3], [0.3, 1.2]]) / (0.8 * 2.31)),
    # diag(b, a, a) with a = 1 / eps_axis, b = 1 / eps_perp
    (sp.Grid(3, 8), 'eps_tilde', MAT3, np.diag([0.7, 2.0, 2.0])),
])
def test_flavored_multipliers_on_a_plane_wave(grid, flavor, mat, q):
    # on exp(i xi . x) the multipliers are the closed forms at xi:
    # xi_i / |xi|_q and 1 / (omega +- |xi|_q), |xi|_q^2 = <xi, q xi>
    k = np.array([2, -1, 3][:grid.dim])
    f = _plane_wave(grid, k)
    rho = np.sqrt(k @ q @ k)
    for i in range(1, grid.dim + 1):
        got = sp.riesz(f, i, flavor, mat)
        assert np.abs(got.data - k[i - 1] / rho * f.data).max() < 1e-13
    for sign in (+1, -1):
        got = sp.half_laplacian_resolvent(f, OMEGA, sign, flavor, mat)
        want = f.data / (OMEGA + sign * rho)
        assert np.abs(got.data - want).max() < 1e-13


def test_flavor_needs_a_material_of_its_dimension():
    f = sp.random_band_limited(sp.Grid(2, 16), 1, RNG)
    for flavor, mat in (('eps_tilde', MAT2), ('eps_prime', MAT3),
                        ('eps_prime', None), ('other', MAT2)):
        with pytest.raises(InvalidArgument, match='flavor'):
            sp.riesz(f, 1, flavor, mat)


def test_field_data_needs_the_grid_shape_and_finite_values():
    g = sp.Grid(2, 8)
    with pytest.raises(InvalidArgument, match='shape'):
        sp.Field(g, np.zeros((3, 8, 4)))
    for bad in (np.nan, np.inf):
        data = np.zeros((3, 8, 8), dtype=complex)
        data[1, 2, 3] = bad
        with pytest.raises(InvalidArgument, match='finite'):
            sp.Field(g, data)


@pytest.mark.parametrize('p', [0.5, 0.0, -1.0, np.nan])
def test_lebesgue_norm_needs_p_at_least_one(p):
    f = sp.random_band_limited(sp.Grid(2, 8), 1, RNG)
    with pytest.raises(InvalidArgument, match='p must be >= 1'):
        sp.lebesgue_norm(f, p)


_MAXWELL_CALLS = {
    'solve': lambda J, mat: sp.solve(OMEGA, J, mat),
    'forward_operator': lambda J, mat: sp.forward_operator(OMEGA, J, mat),
    'leray_project': lambda J, mat: sp.leray_project(J, mat),
    'divergence_and_charges': lambda J, mat: sp.divergence_and_charges(J),
    'lap_parts': lambda J, mat: lap.lap_parts(3.1, J, mat),
    'surface_terms': lambda J, mat: lap.surface_terms(3.1, J, mat),
}


@pytest.mark.parametrize('entry', sorted(_MAXWELL_CALLS))
def test_entry_points_need_a_maxwell_field(entry):
    # 3 (d - 1) components on a d-dimensional grid, and a material of
    # dimension d; a 1-component field would reach numpy's matmul
    call = _MAXWELL_CALLS[entry]
    g2 = sp.Grid(2, 16)
    bad = [(sp.random_band_limited(g2, 1, RNG), MAT2),
           (sp.random_band_limited(sp.Grid(3, 8), 3, RNG), MAT3)]
    if entry != 'divergence_and_charges':      # it takes no material
        bad += [(sp.random_band_limited(g2, 6, RNG), MAT2),
                (sp.random_band_limited(g2, 3, RNG), MAT3)]
    for J, mat in bad:
        with pytest.raises(InvalidArgument,
                           match='Maxwell field on a %dD grid has %d '
                           'components' % (J.grid.dim, 3 * J.grid.dim - 3)):
            call(J, mat)
    call(sp.random_band_limited(g2, 3, RNG), MAT2)       # the rule holds

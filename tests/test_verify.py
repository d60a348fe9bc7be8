"""The randomized verification suites: block boundaries, witnesses and
memory that does not grow with the number of points."""

import re
import tracemalloc

import numpy as np
import pytest

from maxres import multiplier, spectral, symbol, verify
from maxres.materials import Material3


def _fields(rep):
    return (rep.count, rep.max_defect, rep.extras, rep.passed, rep.witness)


def _run(suite, dim, **kw):
    return suite(np.random.default_rng(31), 30_000, dim=dim, **kw)


@pytest.mark.parametrize('dim', [2, 3])
@pytest.mark.parametrize('suite,kw', [
    (verify.diagonalization_suite, {}),
    # every point fails, so the witness is the worst point of all blocks
    (verify.diagonalization_suite, {'tol': 0.0, 'det_tol': 0.0}),
    (verify.inverse_suite, {}),
    (verify.inverse_suite, {'tol': 0.0}),
])
def test_block_boundaries_change_no_report(monkeypatch, suite, kw, dim):
    ref = _run(suite, dim, **kw)
    monkeypatch.setattr(symbol, '_block_rows', lambda ncomp: 97)
    assert _fields(_run(suite, dim, **kw)) == _fields(ref)
    if kw:
        assert not ref.passed and ref.witness


def test_block_boundaries_change_no_mutation_witness(monkeypatch):
    ref = _run(verify.inverse_suite, 3, flip_entry=(1, 4))
    monkeypatch.setattr(symbol, '_block_rows', lambda ncomp: 97)
    got = _run(verify.inverse_suite, 3, flip_entry=(1, 4))
    assert not ref.passed
    assert _fields(got) == _fields(ref)


def test_blocks_are_equal_and_cover_the_range():
    assert symbol._block_rows(3) == 16_384
    assert symbol._block_rows(6) == 4_096
    assert symbol._blocks(0, 6) == []
    for count in (1, 4_096, 4_097, 4_913, 33_333):
        sizes = [b.stop - b.start for b in symbol._blocks(count, 6)]
        assert sum(sizes) == count
        assert max(sizes) <= 4_096 and max(sizes) - min(sizes) <= 1
    assert len(symbol._blocks(4_097, 6)) == 2


def test_det_witness_names_the_failing_material(monkeypatch):
    key = (2.0, 0.7)
    monkeypatch.setitem(verify.DET3_BRACKETS, key, (3.5, 3.6))
    rep = verify.diagonalization_suite(np.random.default_rng(5), 3_000,
                                       dim=3)
    assert not rep.passed
    assert rep.max_defect < rep.tolerance     # the reconstructions passed
    w = rep.witness
    assert w['material'] == repr(verify.MATERIALS_3D[1])
    assert verify._bracket_key(verify.MATERIALS_3D[1]) == key
    assert w['bracket'] == (3.5, 3.6)
    assert abs(w['det_ratio'] - 3.4149388838125) < 1e-9
    lo, hi = rep.extras['det_ratio_2.0']
    assert lo <= w['det_ratio'] <= hi


@pytest.mark.parametrize('suite,kw,key,dim', [
    (verify.diagonalization_suite, {'tol': 0.0, 'det_tol': 1.0}, 'omega', 2),
    (verify.diagonalization_suite, {'tol': 0.0, 'det_tol': 1.0}, 'omega', 3),
    # the 3D determinant check has no tolerance
    (verify.diagonalization_suite, {'tol': 1.0, 'det_tol': 0.0},
     'det_defect', 2),
    (verify.inverse_suite, {'tol': 0.0}, 'entry', 2),
    (verify.inverse_suite, {'tol': 0.0}, 'entry', 3),
])
def test_failed_check_with_exact_zero_defects_has_a_witness(
        monkeypatch, suite, kw, key, dim):
    # every defect exactly 0, which fails a tolerance of 0
    monkeypatch.setattr(verify, '_worst', lambda defect: (0, 0.0))
    rep = suite(np.random.default_rng(5), 3_000, dim=dim, **kw)
    assert not rep.passed
    assert rep.witness['material'] == repr(
        (verify.MATERIALS_2D if dim == 2 else verify.MATERIALS_3D)[0])
    assert key in rep.witness


def test_2d_det_witness_names_its_defect():
    rep = verify.diagonalization_suite(np.random.default_rng(5), 3_000,
                                       dim=2, det_tol=1e-17)
    assert not rep.passed
    assert rep.max_defect < rep.tolerance
    w = rep.witness
    assert w['det_defect'] == rep.extras['det_defect'] > 0
    assert w['material'] in [repr(m) for m in verify.MATERIALS_2D]
    assert len(w['xi']) == 2


def _peak_bytes(n_points):
    tracemalloc.start()
    try:
        reports = verify.run_all(0, n_points)
        return tracemalloc.get_traced_memory()[1], reports
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_points():
    small, _ = _peak_bytes(20_000)
    large, reports = _peak_bytes(80_000)
    assert all(r.passed for r in reports)
    assert large <= 1.3 * small, (large / 2 ** 20, small / 2 ** 20)


@pytest.mark.parametrize('dim', [2, 3])
@pytest.mark.parametrize('suite', [verify.diagonalization_suite,
                                   verify.inverse_suite])
def test_nan_symbol_fails_the_suite(monkeypatch, suite, dim):
    symbol_p = verify.symbol_p

    def poisoned(omega, xi, mat):
        p = symbol_p(omega, xi, mat)
        p[-1, 0, 0] = np.nan
        return p

    monkeypatch.setattr(verify, 'symbol_p', poisoned)
    rep = suite(np.random.default_rng(7), 3_000, dim=dim)
    assert not rep.passed
    assert rep.max_defect == np.inf
    assert len(rep.witness['xi']) == dim


@pytest.mark.parametrize('suite,n_points,dim,kw,name', [
    # fewer than eight points per material leave no frequency batch
    (verify.inverse_suite, 20, 2, {}, 'n_points = 20'),
    # no point at all for a material: an empty check must not pass
    (verify.diagonalization_suite, 2, 3, {}, 'n_points = 2'),
    (verify.diagonalization_suite, 2, 2, {}, 'n_points = 2'),
    (verify.inverse_suite, 3_000, 3, {'flip_entry': (0, 3)}, '(0, 3)'),
    (verify.inverse_suite, 3_000, 3, {'flip_entry': (9, 9)}, '(9, 9)'),
    (verify.inverse_suite, 3_000, 3, {'flip_entry': (1,)}, '(1,)'),
    (verify.inverse_suite, 3_000, 2, {'flip_entry': (1, 2)}, '(1, 2)'),
])
def test_bad_suite_input_names_itself(suite, n_points, dim, kw, name):
    with pytest.raises(ValueError, match=re.escape(name)):
        suite(np.random.default_rng(0), n_points, dim=dim, **kw)


def test_run_all_checks_its_inputs_first(monkeypatch):
    monkeypatch.setattr(verify, 'diagonalization_suite', None)
    with pytest.raises(ValueError, match='n_points = 23'):
        verify.run_all(0, 23)
    with pytest.raises(ValueError, match=re.escape('(3, 0)')):
        verify.run_all(0, 3_000, flip_entry=(3, 0))


def _sign_flipped_apply(omegas, xi, c, mat, weights=(1.0,), skip=()):
    """multiplier._apply with the first propagating column of w negated."""
    m, minv, rho = symbol._eigen_basis(xi, mat)
    w = multiplier._scalar_resolvents(omegas, rho, weights, skip)
    w[..., mat.dim - 1] *= -1
    return multiplier._rmatmul(m, w[..., None] * multiplier._rmatmul(minv, c))


@pytest.mark.parametrize('broken', [False, True])
def test_suite_and_solver_share_one_apply(monkeypatch, broken):
    # a fault in the one inverse apply fails both the suite and the solve
    if broken:
        monkeypatch.setattr(multiplier, '_apply', _sign_flipped_apply)
    rep = verify.inverse_suite(np.random.default_rng(3), 3_000, dim=3)
    assert rep.passed is not broken
    assert bool(rep.witness) is broken
    mat = Material3(0.5, 1.0 / 0.7)
    J = spectral.random_band_limited(spectral.Grid(3, 16), 6,
                                     np.random.default_rng(3), mat=mat)
    omega = 2.1 + 0.4j
    u = spectral.solve(omega, J, mat)
    resid = spectral.forward_operator(omega, u, mat) - J
    rel = spectral.lebesgue_norm(resid, 2) / spectral.lebesgue_norm(J, 2)
    # the CLI's default residual tolerance
    assert (rel < 1e-10) is not broken, rel


def test_inverse_suite_checks_hard_points_at_every_frequency(monkeypatch):
    # the near-axis draws and the guard-band draws of each 3D material
    # are spread over all 8 per-omega batches; 30,001 points leave a
    # remainder, which joins the last batch rather than a ninth omega
    seen = []
    symbol_p = verify.symbol_p

    def recorded(omega, xi, mat):
        seen.append((repr(mat), omega, np.array(xi)))
        return symbol_p(omega, xi, mat)

    monkeypatch.setattr(verify, 'symbol_p', recorded)
    rep = verify.inverse_suite(np.random.default_rng(2), 30_001, dim=3)
    assert rep.passed and rep.count == 30_000
    for mat in verify.MATERIALS_3D:
        calls = [(om, xi) for m, om, xi in seen if m == repr(mat)]
        assert sum(len(xi) for _, xi in calls) == 10_000
        assert len({om for om, _ in calls}) == 8
        axis, band = set(), set()
        for om, xi in calls:
            s2 = (xi[:, 1:] ** 2).sum(axis=1) / (xi ** 2).sum(axis=1)
            if np.any(symbol.near_axis(xi)):
                axis.add(om)
            if np.any((s2 >= symbol.AXIS_GUARD) & (s2 < 1e-6)):
                band.add(om)
        assert len(axis) == len(band) == 8

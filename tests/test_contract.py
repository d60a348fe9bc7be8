"""The argument contract of the public API, scalar part: at each edge value
(NaN, +-inf, a bool, a string, None) a public callable gives a finite
answer or a MaxresError whose message names the argument."""

import dataclasses
import re

import numpy as np
import pytest

from maxres import lap
from maxres import multiplier as mp
from maxres import region as rg
from maxres import spectral as sp
from maxres import symbol, verify
from maxres.errors import MaxresError
from maxres.materials import Material2, Material3, material3_from_diag

EDGES = (np.nan, np.inf, -np.inf, True, 'x', None)

MAT2 = Material2(1.3, 0.25, 0.9, mu=1.4)
MAT3 = Material3(0.5, 1.4)
G2, G3 = sp.Grid(2, 16), sp.Grid(3, 8)
F1 = sp.random_band_limited(G2, 1, np.random.default_rng(1))
J2 = sp.random_band_limited(G2, 3, np.random.default_rng(2))
XI3 = np.array([[1.0, 2.0, 0.5]])
PAIR = rg.LebesguePair(0.5, 0.25, 2)
QUERY = rg.RegionQuery(PAIR, 1.3)

# (public callable, argument): the call with that argument set to v
ROWS = {
    ('Material2', 'eps11'): lambda v: Material2(v, 0.1, 1.0),
    ('Material2', 'eps12'): lambda v: Material2(1.0, v, 1.0),
    ('Material2', 'eps22'): lambda v: Material2(1.0, 0.1, v),
    ('Material2', 'mu'): lambda v: Material2(1.0, 0.1, 1.0, mu=v),
    ('Material3', 'eps_axis'): lambda v: Material3(v, 1.4),
    ('Material3', 'eps_perp'): lambda v: Material3(0.5, v),
    ('Material3', 'axis'): lambda v: Material3(0.5, 1.4, axis=v),
    ('Material3', 'mu'): lambda v: Material3(0.5, 1.4, mu=v),
    ('material3_from_diag', 'eps1'): lambda v: material3_from_diag(v, 1, 2),
    ('material3_from_diag', 'eps2'): lambda v: material3_from_diag(1, v, 2),
    ('material3_from_diag', 'eps3'): lambda v: material3_from_diag(1, 1, v),
    ('material3_from_diag', 'mu'): lambda v: material3_from_diag(1, 1, 2, v),
    ('Grid', 'length'): lambda v: sp.Grid(2, 16, v),
    ('lebesgue_norm', 'p'): lambda v: sp.lebesgue_norm(F1, v),
    ('fractional_laplacian', 's'): lambda v: sp.fractional_laplacian(F1, v),
    ('random_band_limited', 'ncomp'): lambda v: sp.random_band_limited(
        G2, v, np.random.default_rng(0)),
    ('random_band_limited', 'kmax'): lambda v: sp.random_band_limited(
        G2, 1, np.random.default_rng(0), kmax=v),
    ('half_laplacian_resolvent', 'omega'):
        lambda v: sp.half_laplacian_resolvent(F1, v),
    ('half_laplacian_resolvent', 'sign'):
        lambda v: sp.half_laplacian_resolvent(F1, 1 + 1j, sign=v),
    ('solve', 'omega'): lambda v: sp.solve(v, J2, MAT2),
    ('forward_operator', 'omega'):
        lambda v: sp.forward_operator(v, J2, MAT2),
    ('symbol_p', 'omega'): lambda v: symbol.symbol_p(v, XI3, MAT3),
    ('eigen_decomposition', 'omega'):
        lambda v: symbol.eigen_decomposition(v, XI3, MAT3),
    ('resolvent_matrix', 'omega'): lambda v: mp.resolvent_matrix(v, XI3, MAT3),
    ('CutoffSpec', 'r_in'): lambda v: lap.CutoffSpec(v, 2.0),
    ('CutoffSpec', 'r_out'): lambda v: lap.CutoffSpec(1.0, v),
    ('e_delta', 'omega'): lambda v: lap.e_delta(F1, v, 0.1),
    ('e_delta', 'delta'): lambda v: lap.e_delta(F1, 3.0, v),
    ('e_delta', 'sign'): lambda v: lap.e_delta(F1, 3.0, 0.1, sign=v),
    ('e_delta', 'n_sphere'): lambda v: lap.e_delta(
        F1, 3.0, 0.1, method='quadrature', n_sphere=v),
    ('e_delta', 'n_radial'): lambda v: lap.e_delta(
        F1, 3.0, 0.1, method='quadrature', n_radial=v),
    ('pv_part', 'omega'): lambda v: lap.pv_part(F1, v),
    ('pv_part', 'tol'): lambda v: lap.pv_part(F1, 3.0, tol=v),
    ('surface_part', 'sign'): lambda v: lap.surface_part(F1, 3.0, sign=v),
    ('lap_parts', 'omega'): lambda v: lap.lap_parts(v, J2, MAT2),
    ('lap_parts', 'n_sphere'):
        lambda v: lap.lap_parts(3.1, J2, MAT2, n_sphere=v),
    ('lap_parts', 'n_radial'):
        lambda v: lap.lap_parts(3.1, J2, MAT2, n_radial=v),
    ('lap_solve', 'sign'): lambda v: lap.lap_solve(3.1, J2, MAT2, sign=v),
    ('surface_terms', 'sign'):
        lambda v: lap.surface_terms(3.1, J2, MAT2, sign=v),
    ('lap_blowup_probe', 'omega'): lambda v: lap.lap_blowup_probe(
        v, PAIR, MAT2, [0.1, 0.05], sp.Grid(2, 32)),
    ('lap_blowup_probe', 'deltas'): lambda v: lap.lap_blowup_probe(
        3.0, PAIR, MAT2, [0.1, v], sp.Grid(2, 32)),
    ('LebesguePair', 'x'): lambda v: rg.LebesguePair(v, 0.5, 3),
    ('LebesguePair', 'y'): lambda v: rg.LebesguePair(0.5, v, 3),
    ('LebesguePair', 'd'): lambda v: rg.LebesguePair(0.5, 0.5, v),
    ('RegionQuery', 'ell'): lambda v: rg.RegionQuery(PAIR, v),
    ('RegionQuery', 'C'): lambda v: rg.RegionQuery(PAIR, 1.3, C=v),
    ('RegionQuery', 't'): lambda v: rg.RegionQuery(PAIR, 1.3, t=v),
    ('kappa', 'omega'): lambda v: rg.kappa(PAIR, v),
    ('z_region', 'omega'): lambda v: rg.z_region(QUERY, v),
    ('z_boundary', 'resolution'):
        lambda v: rg.z_boundary(QUERY, resolution=v),
    ('eigenvalue_enclosure', 'p'):
        lambda v: rg.eigenvalue_enclosure(QUERY, F1, v, 4.0),
    ('eigenvalue_enclosure', 'q'):
        lambda v: rg.eigenvalue_enclosure(QUERY, F1, 2.0, v),
    ('loglog_fit', 'xs'): lambda v: rg.loglog_fit([1.0, v], [1.0, 2.0]),
    ('loglog_fit', 'ys'): lambda v: rg.loglog_fit([1.0, 2.0], [v, 2.0]),
    ('off_sphere_frequency', 'near'):
        lambda v: rg.off_sphere_frequency(G2, MAT2, near=v),
    ('annulus_source', 'omega'):
        lambda v: rg.annulus_source(sp.Grid(2, 32), v, MAT2),
    ('annulus_source', 'thickness'):
        lambda v: rg.annulus_source(sp.Grid(2, 32), 3.0, MAT2, thickness=v),
    ('knapp_source', 'omega'): lambda v: rg.knapp_source(G3, v, MAT3),
    ('norm_scaling_probe', 'omegas'): lambda v: rg.norm_scaling_probe(
        PAIR, MAT2, 'radial', [3 + 0.5j, v], sp.Grid(2, 32)),
    ('run_all', 'n_points'): lambda v: verify.run_all(0, v),
}


def _finite(out):
    """Whether every number in a returned value is finite."""
    if isinstance(out, (tuple, list)):
        return all(map(_finite, out))
    if isinstance(out, sp.Field):
        return bool(np.isfinite(out.data).all())
    if dataclasses.is_dataclass(out):
        return all(_finite(getattr(out, f.name))
                   for f in dataclasses.fields(out))
    if isinstance(out, (str, bool)):
        return True
    return bool(np.all(np.isfinite(out)))


@pytest.mark.parametrize('row', sorted(ROWS), ids='-'.join)
def test_edge_values_are_answered_or_refused_by_name(capfd, row):
    name = re.compile(r'(?<!\w)%s(?!\w)' % re.escape(row[1]))
    wrong = []
    for value in EDGES:
        try:
            out = ROWS[row](value)
        except Exception as exc:        # any other kind is listed as wrong
            if not (isinstance(exc, MaxresError) and name.search(str(exc))):
                wrong.append('%r: %s: %s' % (value, type(exc).__name__, exc))
            continue
        if not _finite(out):
            wrong.append('%r: a result that is not finite' % (value,))
    assert not wrong
    assert capfd.readouterr().err == ''

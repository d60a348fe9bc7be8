import configparser
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from maxres import cli, fieldfile, lap, spectral
from helpers import PerturbedFactors


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding='utf-8')
    return str(path)


SOLVE_INI = """
[grid]
dim = 2
n = 32

[material]
eps11 = 2.0
eps12 = 0.3
eps22 = 1.2
mu = 0.8

[frequency]
re = 2.0
im = 0.6

[source]
kind = random
kmax = 6
"""


def test_solve_writes_field_and_report(tmp_path, capsys):
    cfg = _write(tmp_path, 'job.ini', SOLVE_INI)
    out = tmp_path / 'out'
    code = cli.main(['solve', '--config', cfg, '--out', str(out),
                     '--seed', '3'])
    assert code == 0
    text = capsys.readouterr().out
    assert 'residual_rel_l2 = ' in text
    rel = float(text.split('residual_rel_l2 = ')[1].splitlines()[0])
    assert rel < 1e-10
    u = fieldfile.read_field(out / 'fields.mxfd')
    assert u.data.shape == (3, 32, 32)
    report = (out / 'solve_report.txt').read_text()
    assert report in text or text.endswith(report)


SOLVE3 = """
[grid]
dim = 3
n = 16

[material]
eps_axis = 0.5
eps_perp = 1.4
axis = 3
mu = 0.7

[frequency]
re = 2.1
im = 0.4

[source]
kind = %s
"""


def _count_ffts(monkeypatch):
    """The list that every numpy FFT spectral calls appends its name to."""
    calls = []
    for name in ('fft', 'ifft', 'fftn', 'ifftn', 'fft2', 'ifft2'):
        fn = getattr(spectral.np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(spectral.np.fft, name, counted)
    return calls


@pytest.mark.parametrize('kind', ['random', 'solenoidal'])
def test_solve_runs_no_fft(tmp_path, capsys, monkeypatch, kind):
    # the source, the solve, the written field, the residual and the
    # charge norms all stay in coefficients
    calls = _count_ffts(monkeypatch)
    cfg = _write(tmp_path, 'job.ini', SOLVE3 % kind)
    out = tmp_path / 'out'
    assert cli.main(['solve', '--config', cfg, '--out', str(out),
                     '--seed', '4']) == 0
    monkeypatch.undo()
    assert calls == []
    # the written field is the in-memory solve, bit for bit and on the
    # source's band, and satisfies P u = J to the CLI's tolerance
    cp = cli.load_config(cfg)
    grid, mat = cli.parse_grid(cp), cli.parse_material(cp)
    J = cli.build_source(cp, grid, mat, np.random.default_rng(4))
    u = fieldfile.read_field(out / 'fields.mxfd')
    kept = spectral.solve(complex(2.1, 0.4), J, mat)._kept
    assert u._kept.shape == kept.shape == (6, 9, 9, 9)
    assert np.array_equal(u._kept, kept)
    assert not u.data.flags.writeable and not u._kept.flags.writeable
    resid = spectral.forward_operator(complex(2.1, 0.4), u, mat) - J
    rel = spectral.lebesgue_norm(resid, 2) / spectral.lebesgue_norm(J, 2)
    assert rel < 1e-10
    # and the reported Parseval residual is this one, relative to |J|
    text = capsys.readouterr().out
    reported = float(text.split('residual_rel_l2 = ')[1].splitlines()[0])
    assert abs(reported - rel) < 1e-14


def test_file_source_solve_runs_no_fft(tmp_path, capsys, monkeypatch):
    # the source is read band-held; the solve, the written field, the
    # residual and the charge norms read its coefficients
    first = tmp_path / 'first'
    cfg = _write(tmp_path, 'job.ini', SOLVE3 % 'random')
    assert cli.main(['solve', '--config', cfg, '--out', str(first)]) == 0
    path = first / 'fields.mxfd'
    cfg = _write(tmp_path, 'file.ini', SOLVE3 % ('file\npath = %s' % path))
    calls = _count_ffts(monkeypatch)
    out = tmp_path / 'out'
    assert cli.main(['solve', '--config', cfg, '--out', str(out)]) == 0
    monkeypatch.undo()
    assert calls == []
    # the written field is the in-memory solve of the file's field, on
    # the band, and the reported residual is its residual
    mat = cli.parse_material(cli.load_config(cfg))
    J = fieldfile.read_field(path)
    u = fieldfile.read_field(out / 'fields.mxfd')
    assert J._kept.shape == (6, 9, 9, 9)
    assert np.array_equal(u._kept, spectral.solve(complex(2.1, 0.4), J,
                                                  mat)._kept)
    resid = spectral.forward_operator(complex(2.1, 0.4), u, mat)
    rel = (spectral.lebesgue_norm(resid - J, 2)
           / spectral.lebesgue_norm(J, 2))
    text = capsys.readouterr().out.split('residual_rel_l2 = ')[-1]
    assert rel < 1e-10
    assert abs(float(text.splitlines()[0]) - rel) < 1e-14


def test_version_1_file_source_runs_one_forward_fft(tmp_path, capsys,
                                                    monkeypatch):
    # a version-1 file holds samples: they are transformed once, and
    # the rest of the job stays in coefficients
    grid = spectral.Grid(3, 16)
    J = spectral.random_band_limited(grid, 6, np.random.default_rng(9))
    path = tmp_path / 'v1.mxfd'
    path.write_bytes(fieldfile.MAGIC + struct.pack('<3I', 1, 3, 6)
                     + struct.pack('<3I', 16, 16, 16)
                     + struct.pack('<3d', *([grid.length] * 3))
                     + np.ascontiguousarray(J.data, '<c16').tobytes())
    cfg = _write(tmp_path, 'v1.ini', SOLVE3 % ('file\npath = %s' % path))
    calls = _count_ffts(monkeypatch)
    assert cli.main(['solve', '--config', cfg,
                     '--out', str(tmp_path / 'out')]) == 0
    monkeypatch.undo()
    assert calls == ['fftn']
    text = capsys.readouterr().out.split('residual_rel_l2 = ')[-1]
    assert float(text.splitlines()[0]) < 1e-10


def test_solve_is_deterministic(tmp_path):
    cfg = _write(tmp_path, 'job.ini', SOLVE_INI)
    outs = []
    for name in ('a', 'b'):
        out = tmp_path / name
        assert cli.main(['solve', '--config', cfg, '--out', str(out),
                         '--seed', '7']) == 0
        outs.append((out / 'fields.mxfd').read_bytes())
    assert outs[0] == outs[1]


def test_solve_rejects_real_frequency(tmp_path, capsys):
    cfg = _write(tmp_path, 'job.ini',
                 SOLVE_INI.replace('im = 0.6', 'im = 0.0'))
    assert cli.main(['solve', '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 1
    assert 'lap subcommand' in capsys.readouterr().err


def test_missing_config_is_failure(tmp_path, capsys):
    assert cli.main(['solve', '--config', str(tmp_path / 'nope.ini')]) == 1
    assert cli.main(['solve']) == 1


def test_verify_passes_and_flip_fails(tmp_path, capsys):
    cfg = _write(tmp_path, 'v.ini', "[verify]\npoints = 4000\n")
    out = tmp_path / 'v'
    assert cli.main(['verify', '--config', cfg, '--out', str(out),
                     '--seed', '0']) == 0
    capsys.readouterr()
    cfg2 = _write(tmp_path, 'v2.ini',
                  "[verify]\npoints = 4000\nflip_entry = 2,4\n")
    assert cli.main(['verify', '--config', cfg2, '--out', str(out),
                     '--seed', '0']) == 1
    text = capsys.readouterr().out
    assert 'passed = false' in text
    assert 'witness = ' in text
    # entries that are identically zero cannot be flipped meaningfully
    cfg3 = _write(tmp_path, 'v3.ini',
                  "[verify]\npoints = 1000\nflip_entry = 0,3\n")
    assert cli.main(['verify', '--config', cfg3, '--out', str(out)]) == 1


LAP_INI = """
[grid]
dim = 2
n = 32

[material]
eps11 = 1.3
eps12 = 0.25
eps22 = 0.9
mu = 1.4

[frequency]
re = 3.1

[source]
kind = random
kmax = 6
"""


def test_lap_writes_both_signs(tmp_path, capsys):
    cfg = _write(tmp_path, 'lap.ini', LAP_INI)
    out = tmp_path / 'lap'
    assert cli.main(['lap', '--config', cfg, '--out', str(out),
                     '--seed', '1']) == 0
    text = capsys.readouterr().out
    defect = float(text.split('difference_identity_defect = ')[1]
                   .splitlines()[0])
    assert defect < 1e-8
    for name in ('fields_plus.mxfd', 'fields_minus.mxfd'):
        assert fieldfile.read_field(out / name).data.shape == (3, 32, 32)


def test_lap_extrapolate_runs_no_quadrature(tmp_path, capsys, monkeypatch):
    # the extrapolate route builds no off-grid term and reports no
    # difference-identity defect
    def refuse(*args, **kw):
        raise AssertionError('quadrature pass on the extrapolate route')

    monkeypatch.setattr(lap, '_quadrature_parts', refuse)
    cfg = _write(tmp_path, 'lap.ini',
                 LAP_INI + "\n[lap]\nmethod = extrapolate\n")
    assert cli.main(['lap', '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 0
    text = capsys.readouterr().out
    assert text == 'omega = 3.1\nmethod = extrapolate\n'


def test_lap_noncanonical_material(tmp_path, capsys):
    # distinguished axis 3 and mu != 1: both quadrature parts go through
    # canonical form and agree with lap_solve
    cfg = _write(tmp_path, 'lap.ini', """
[grid]
dim = 3
n = 16

[material]
eps_axis = 0.5
eps_perp = 1.4
axis = 3
mu = 1.2

[frequency]
re = 2.9

[source]
kind = random
kmax = 8
""")
    out = tmp_path / 'lap'
    assert cli.main(['lap', '--config', cfg, '--out', str(out),
                     '--seed', '2']) == 0
    cp = cli.load_config(cfg)
    grid, mat = cli.parse_grid(cp), cli.parse_material(cp)
    J = cli.build_source(cp, grid, mat, np.random.default_rng(2))
    for sign, name in ((+1, 'fields_plus.mxfd'), (-1, 'fields_minus.mxfd')):
        u = lap.lap_solve(2.9, J, mat, sign=sign)
        got = fieldfile.read_field(out / name).data
        assert np.abs(got - u.data).max() < 1e-12 * np.abs(u.data).max()


def test_lap_rejects_complex_frequency(tmp_path):
    cfg = _write(tmp_path, 'lap.ini',
                 LAP_INI.replace('re = 3.1', 're = 3.1\nim = 0.5'))
    assert cli.main(['lap', '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 1


def test_region_gamma_map_csv(tmp_path, capsys):
    cfg = _write(tmp_path, 'r.ini',
                 "[region]\nmode = gamma_map\ndim = 3\nresolution = 5\n")
    out = tmp_path / 'r'
    assert cli.main(['region', '--config', cfg, '--out', str(out)]) == 0
    lines = (out / 'gamma_map.csv').read_text().split('\n')
    assert lines[0] == 'x,y,gamma'
    assert len(lines) == 27          # header + 25 rows + trailing newline
    # decimal separator '.', field separator ',', shortest round trip
    row = dict(zip(lines[0].split(','),
                   (float(v) for v in lines[1].split(','))))
    assert row['gamma'] == 2.0       # (x, y) = (0, 0), d = 3


def test_region_membership_csv(tmp_path, capsys):
    cfg = _write(tmp_path, 'r.ini',
                 "[region]\nmode = membership\ndim = 3\n"
                 "points = 0.75,0.25; 0.5,0.5\n")
    out = tmp_path / 'r'
    assert cli.main(['region', '--config', cfg, '--out', str(out)]) == 0
    lines = (out / 'membership.csv').read_text().splitlines()
    assert lines[0] == 'x,y,r0_half,r1,p_set'
    assert lines[1] == '0.75,0.25,false,true,true'
    assert lines[2] == '0.5,0.5,true,false,false'


def test_region_boundary_and_empty(tmp_path, capsys):
    cfg = _write(tmp_path, 'r.ini',
                 "[region]\nmode = boundary\nx = 0.6\ny = 0.4\ndim = 2\n"
                 "ell = 1.3\nresolution = 64\n")
    out = tmp_path / 'r'
    assert cli.main(['region', '--config', cfg, '--out', str(out)]) == 0
    lines = (out / 'z_boundary.csv').read_text().splitlines()
    assert lines[0] == 're_omega,im_omega'
    assert len(lines) > 10
    capsys.readouterr()
    # an empty sublevel region is reported, not an error
    cfg2 = _write(tmp_path, 'r2.ini',
                  "[region]\nmode = boundary\nx = 0.75\ny = 0.25\ndim = 2\n"
                  "ell = 0.5\n")
    assert cli.main(['region', '--config', cfg2, '--out', str(out)]) == 0
    assert 'empty' in capsys.readouterr().out


def test_probe_blowup_slope(tmp_path, capsys):
    cfg = _write(tmp_path, 'p.ini',
                 "[grid]\ndim = 2\nn = 64\n"
                 "[material]\neps11 = 1.0\neps22 = 1.0\n"
                 "[probe]\nfamily = blowup\n")
    out = tmp_path / 'p'
    assert cli.main(['probe', '--config', cfg, '--out', str(out)]) == 0
    text = capsys.readouterr().out
    slope = float(text.split('fitted_slope = ')[1].splitlines()[0])
    assert slope == pytest.approx(-1.0, abs=0.1)
    lines = (out / 'probe.csv').read_text().splitlines()
    assert lines[0] == 'delta,norm_ratio'
    assert len(lines) == 8


def test_probe_annulus_reports_its_family(tmp_path, capsys):
    cfg = _write(tmp_path, 'p.ini',
                 "[grid]\ndim = 2\nn = 16\n"
                 "[material]\neps11 = 1.0\neps22 = 1.0\n"
                 "[probe]\nfamily = annulus\n")
    out = tmp_path / 'p'
    assert cli.main(['probe', '--config', cfg, '--out', str(out)]) == 0
    assert 'family = annulus' in capsys.readouterr().out.splitlines()
    assert len((out / 'probe.csv').read_text().splitlines()) == 7


def test_probe_knapp_needs_3d(tmp_path, capsys):
    cfg = _write(tmp_path, 'p.ini',
                 "[grid]\ndim = 2\nn = 16\n"
                 "[material]\neps11 = 1.0\neps22 = 1.0\n"
                 "[probe]\nfamily = knapp\n")
    assert cli.main(['probe', '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 1
    err = capsys.readouterr().err
    assert err == 'error: probe family knapp needs a 3D grid\n'


def test_unknown_source_kind(tmp_path):
    cfg = _write(tmp_path, 'bad.ini',
                 SOLVE_INI.replace('kind = random', 'kind = mystery'))
    assert cli.main(['solve', '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 1


@pytest.mark.parametrize('cmd,text', [
    # the cutoff plateau past the sphere does not fit in an 8^3 band
    ('lap', "[grid]\ndim = 3\nn = 8\n"
            "[material]\neps_axis = 0.5\neps_perp = 1.4\n"
            "[frequency]\nre = 3.1\n"),
    # no lattice mode within 0.1 of |omega| = 30 on a 16^2 grid
    ('solve', "[grid]\ndim = 2\nn = 16\n"
              "[material]\neps11 = 1.0\neps22 = 1.0\n"
              "[frequency]\nre = 30.0\nim = 0.5\n"
              "[source]\nkind = annulus\nthickness = 0.1\n"),
    # nor near the cap of an 8^3 grid
    ('solve', "[grid]\ndim = 3\nn = 8\n"
              "[material]\neps_axis = 1.0\neps_perp = 1.0\n"
              "[frequency]\nre = 30.0\nim = 0.5\n"
              "[source]\nkind = knapp\n"),
    # no lattice radius in (0, n/4) = (0, 1) for the on-sphere frequency
    ('probe', "[grid]\ndim = 2\nn = 4\n"
              "[material]\neps11 = 1.0\neps22 = 1.0\n"
              "[probe]\nfamily = blowup\n"),
    ('probe', "[grid]\ndim = 2\nn = 4\n"
              "[material]\neps11 = 1.0\neps22 = 1.0\n"
              "[probe]\nfamily = annulus\n"),
])
def test_unresolvable_spectrum_is_one_line_failure(tmp_path, capsys, cmd,
                                                   text):
    cfg = _write(tmp_path, 'job.ini', text)
    assert cli.main([cmd, '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 1
    err = capsys.readouterr().err
    assert err.startswith('GridTooCoarse: ') and err.count('\n') == 1


AXIS2 = ("[grid]\ndim = 3\nn = 16\n"
         "[material]\neps_axis = 0.5\neps_perp = 1.4\naxis = 2\n"
         "[frequency]\nre = 2.9\nim = 0.3\n")
SOLVE16 = ("[grid]\ndim = 2\nn = 16\n"
           "[material]\neps11 = 2.0\neps22 = 1.2\n"
           "[frequency]\nre = 2\nim = 0.5\n")
PROBE16 = ("[grid]\ndim = 2\nn = 16\n"
           "[material]\neps11 = 1.0\neps22 = 1.0\n"
           "[probe]\nfamily = annulus\n")
REGION_BOUNDARY = ("[region]\nmode = boundary\nx = 0.6\ny = 0.4\ndim = 2\n"
                   "ell = 1.3\nresolution = 16\n")


@pytest.mark.parametrize('cmd,text', [
    # the eigenbasis behind the probes and the annulus and cap sources
    # is built in the canonical frame only
    ('probe', AXIS2 + "[probe]\nfamily = blowup\n"),
    ('probe', AXIS2 + "[probe]\nfamily = annulus\n"),
    ('probe', AXIS2 + "[probe]\nfamily = knapp\n"),
    ('solve', AXIS2 + "[source]\nkind = annulus\n"),
    ('solve', AXIS2 + "[source]\nkind = knapp\n"),
    ('verify', "[verify]\nflip_entry = 1\n"),
    ('verify', "[verify]\nflip_entry = 9,9\n"),
    ('verify', "[verify]\npoints = 5\n"),
    ('region', "[region]\nmode = membership\npoints = 0.5\n"),
    ('region', "[region]\nmode = gamma_map\nresolution = 1\n"),
    ('region', "[region]\nmode = gamma_map\ndim = 4\n"),
    ('region', "[region]\nmode = boundary\nx = 0.6\ny = 0.4\ndim = 2\n"
               "ell = -1\n"),
    # the boundary's resolution rule is region.z_boundary's
    ('region', REGION_BOUNDARY.replace('resolution = 16', 'resolution = 1')),
    ('lap', LAP_INI.replace('re = 3.1', 're = 0')),
    ('lap', LAP_INI + "[lap]\nmethod = bogus\n"),
    # the lattice route is the exact periodic limit, with no second
    # route to cross-check it against: cross_tol is an unknown key,
    # whatever its value
    ('lap', LAP_INI + "[lap]\nmethod = quadrature\ncross_tol = -1e-8\n"),
    ('lap', LAP_INI + "[lap]\nmethod = extrapolate\ncross_tol = -1e-8\n"),
    ('lap', LAP_INI + "[lap]\ncross_tol = nan\n"),
    ('lap', LAP_INI + "[lap]\nmethod = extrapolate\ncross_tol = inf\n"),
    # non-finite frequencies, a charge exponent below 1 and a NaN
    # residual tolerance (a check that could never pass)
    ('solve', SOLVE16.replace('re = 2', 're = nan')),
    ('solve', SOLVE16.replace('im = 0.5', 'im = inf')),
    ('solve', SOLVE16 + "[tolerances]\ncharge_q = 0.5\n"),
    ('solve', SOLVE16 + "[tolerances]\ncharge_q = nan\n"),
    ('solve', SOLVE16 + "[tolerances]\nresidual = nan\n"),
    # an empty band, and a zero source whose relative residual is 0/0
    ('solve', SOLVE16 + "[source]\nkind = random\nkmax = -3\n"),
    ('solve', SOLVE16 + "[source]\nkind = file\npath = ZERO_MXFD\n"),
    # a file source is a Maxwell field on the [grid] of the config
    ('solve', SOLVE16 + "[source]\nkind = file\npath = ONE_COMPONENT_MXFD\n"),
    ('lap', SOLVE16.replace('im = 0.5', 'im = 0')
     + "[source]\nkind = file\npath = ONE_COMPONENT_MXFD\n"),
    ('solve', SOLVE16.replace('n = 16', 'n = 32')
     + "[source]\nkind = file\npath = ZERO_MXFD\n"),
    # a header that ends in the grid sizes was a bare struct.error
    ('solve', SOLVE16 + "[source]\nkind = file\npath = TRUNCATED_MXFD\n"),
    # a missing key, and an unknown one with no close match
    ('solve', SOLVE16.replace('eps22 = 1.2\n', '')),
    ('solve', SOLVE16 + "[source]\nzzz = 1\n"),
    # a slope needs two samples; vary has two values
    ('probe', PROBE16 + "samples = 1\n"),
    ('probe', PROBE16 + "vary = other\n"),
    # the material rules hold for every subcommand; a huge eps12 makes
    # the determinant -inf, not an OverflowError
    ('solve', SOLVE16.replace('eps11 = 2.0', 'eps11 = inf')),
    ('solve', SOLVE16.replace('eps11 = 2.0', 'eps11 = 2.0\neps12 = 1e300')),
    ('solve', SOLVE16.replace('eps22 = 1.2', 'eps22 = 1.2\nmu = inf')),
    ('lap', "[grid]\ndim = 3\nn = 8\n[material]\neps_axis = inf\n"
            "eps_perp = 1.4\n[frequency]\nre = 3.1\n"),
    ('probe', PROBE16.replace('eps11 = 1.0', 'eps11 = inf')),
    ('region', "[region]\nmode = boundary\nx = 0.6\ny = 0.4\ndim = 2\n"
               "ell = inf\n"),
    # finite levels whose curve lies below or beyond the doubles
    ('region', "[region]\nmode = boundary\nx = 0.6\ny = 0.4\ndim = 2\n"
               "resolution = 16\nell = 1e300\n"),
    ('region', "[region]\nmode = boundary\nx = 0.6\ny = 0.4\ndim = 2\n"
               "resolution = 16\nell = 1e-300\n"),
    # malformed files: no section header, a repeated key, and a '%' that
    # is text, not interpolation
    ('solve', "dim = 2\n"),
    ('solve', "[grid]\ndim = 2\ndim = 3\n"),
    ('solve', SOLVE16 + "[source]\nkind = file\npath = 100%\n"),
], ids=['probe-blowup-axis2', 'probe-annulus-axis2', 'probe-knapp-axis2',
        'solve-annulus-axis2', 'solve-knapp-axis2', 'flip-one-index',
        'flip-out-of-range', 'verify-too-few-points', 'membership-one-value',
        'gamma-map-resolution-1', 'gamma-map-dim-4', 'boundary-negative-ell',
        'boundary-resolution-1',
        'lap-re-0', 'lap-unknown-method', 'lap-negative-cross-tol-quadrature',
        'lap-negative-cross-tol-extrapolate', 'lap-nan-cross-tol',
        'lap-inf-cross-tol', 'solve-nan-re', 'solve-inf-im',
        'solve-charge-q-half', 'solve-charge-q-nan', 'solve-residual-nan',
        'solve-negative-kmax', 'solve-zero-source',
        'solve-one-component-file', 'lap-one-component-file',
        'solve-file-grid-mismatch', 'solve-truncated-file',
        'solve-missing-key',
        'solve-unknown-key-no-match', 'probe-one-sample',
        'probe-unknown-vary', 'solve-inf-eps11', 'solve-huge-eps12',
        'solve-inf-mu', 'lap-inf-eps-axis', 'probe-inf-eps11',
        'boundary-inf-ell', 'boundary-huge-ell', 'boundary-tiny-ell',
        'no-section-header', 'repeated-key',
        'percent-in-value'])
def test_bad_input_is_one_line_failure(tmp_path, capsys, cmd, text):
    if 'ZERO_MXFD' in text:
        zero = tmp_path / 'zero.mxfd'
        fieldfile.write_field(zero, spectral.Field.zeros(spectral.Grid(2, 16),
                                                         3))
        text = text.replace('ZERO_MXFD', str(zero))
    one_component = 'ONE_COMPONENT_MXFD' in text
    if one_component:
        one = tmp_path / 'one.mxfd'
        fieldfile.write_field(one, spectral.scalar_field(
            spectral.Grid(2, 16), np.ones((16, 16))))
        text = text.replace('ONE_COMPONENT_MXFD', str(one))
    truncated = 'TRUNCATED_MXFD' in text
    if truncated:
        short = tmp_path / 'short.mxfd'
        short.write_bytes(fieldfile.MAGIC + struct.pack('<3I', 1, 3, 6)
                          + struct.pack('<2I', 16, 16))
        text = text.replace('TRUNCATED_MXFD', str(short))
    cfg = _write(tmp_path, 'job.ini', text)
    assert cli.main([cmd, '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 1
    err = capsys.readouterr().err
    assert err.startswith('error: ') and err.count('\n') == 1
    if truncated:
        assert 'file ends in the grid sizes n' in err
    if 'axis = 2' in text:
        assert 'axis = 1 and mu = 1' in err
    if 'cross_tol' in text:
        assert 'unknown key in [lap]: cross_tol' in err
    if one_component:
        assert 'Maxwell field on a 2D grid has 3 components' in err


@pytest.mark.parametrize('cmd,text', [
    # at |omega| near 3 the default cap reaches the distinguished axis,
    # whose modes the cap leaves out
    ('probe', "[grid]\ndim = 3\nn = 16\n"
              "[material]\neps_axis = 0.5\neps_perp = 1.4\n"
              "[probe]\nfamily = knapp\n"),
    ('solve', "[grid]\ndim = 3\nn = 32\n"
              "[material]\neps_axis = 0.5\neps_perp = 1.4\n"
              "[frequency]\nre = 2.9\nim = 0.3\n"
              "[source]\nkind = knapp\n"),
], ids=['probe', 'solve'])
def test_knapp_cap_near_the_axis_runs(tmp_path, capsys, cmd, text):
    cfg = _write(tmp_path, 'job.ini', text)
    assert cli.main([cmd, '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 0
    assert capsys.readouterr().err == ''


def test_probe_blowup_closed_form_disagreement_exits_2(tmp_path, capsys,
                                                       monkeypatch):
    # the closed form is off by 1e-8 relative, the grid solve is not
    monkeypatch.setattr(lap, 'multiplier', PerturbedFactors())
    cfg = _write(tmp_path, 'p.ini',
                 "[grid]\ndim = 2\nn = 64\n"
                 "[material]\neps11 = 1.0\neps22 = 1.0\n"
                 "[probe]\nfamily = blowup\n")
    assert cli.main(['probe', '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 2
    assert capsys.readouterr().err.startswith(
        'method cross-validation failed: blow-up ratio')


def test_solenoidal_source_noncanonical(tmp_path, capsys):
    # the oblique Leray projection works in the stored frame
    cfg = _write(tmp_path, 'job.ini',
                 AXIS2 + "[source]\nkind = solenoidal\nkmax = 4\n")
    assert cli.main(['solve', '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 0
    text = capsys.readouterr().out
    rho = float(text.split('divergence_rho_e_l2 = ')[1].splitlines()[0])
    assert rho < 1e-9


def test_lap_axis_mode_on_sphere_is_one_line_failure(tmp_path, capsys):
    # the near-axis mode (3, 0, 0) lies on the sphere of omega = 3
    cfg = _write(tmp_path, 'job.ini',
                 "[grid]\ndim = 3\nn = 16\n"
                 "[material]\neps_axis = 1.0\neps_perp = 1.0\n"
                 "[frequency]\nre = 3.0\n")
    assert cli.main(['lap', '--config', cfg,
                     '--out', str(tmp_path / 'o')]) == 1
    err = capsys.readouterr().err
    assert err.startswith('OnSingularSet: ') and err.count('\n') == 1
    assert '(3, 0, 0)' in err and 'Traceback' not in err


def test_lap_lattice_route_on_sphere_is_one_line_failure(tmp_path, capsys):
    # isotropic 2D at omega = 3: the band holds the mode (0, 3) on the
    # sphere, where the periodic limit does not exist
    cfg = _write(tmp_path, 'job.ini',
                 "[grid]\ndim = 2\nn = 32\n"
                 "[material]\neps11 = 1.0\neps22 = 1.0\n"
                 "[frequency]\nre = 3.0\n"
                 "[source]\nkind = random\nkmax = 15\n"
                 "[lap]\nmethod = extrapolate\n")
    out = tmp_path / 'o'
    assert cli.main(['lap', '--config', cfg, '--out', str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('OnSingularSet: omega = 3 ') and err.count('\n') == 1
    assert not (out / 'fields_plus.mxfd').exists()


def _key_job(section, key):
    """(subcommand, config) of a small job that reads [section] key."""
    if section == 'verify':
        return 'verify', "[verify]\npoints = 240\n"
    if section == 'lap':
        return 'lap', LAP_INI.replace('n = 32', 'n = 16')
    if section == 'probe':
        return 'probe', PROBE16 + "x = 0.5\ny = 0.5\n"
    if section == 'region':
        return 'region', {
            'x': REGION_BOUNDARY, 'y': REGION_BOUNDARY,
            'ell': REGION_BOUNDARY,
            'points': "[region]\nmode = membership\npoints = 0.5,0.5\n",
        }.get(key, "[region]\nmode = gamma_map\nresolution = 5\n")
    if key in ('eps_axis', 'eps_perp', 'axis'):
        return 'solve', AXIS2.replace('n = 16', 'n = 8')
    if key in ('path', 'thickness'):
        return 'solve', SOLVE16 + "[source]\nkind = %s\n" % (
            'file' if key == 'path' else 'annulus')
    return 'solve', SOLVE16 + "[source]\nkind = random\nkmax = 4\n"


NONFINITE = re.compile(r'(?<![A-Za-z_])(?:nan|inf)', re.I)


@pytest.mark.parametrize('section,key', [(s, k) for s in cli.KEYS
                                         for k in cli.KEYS[s]])
def test_every_key_takes_any_value(tmp_path, capsys, section, key):
    # each value either runs to finite numbers or is one error line
    cmd, text = _key_job(section, key)
    wrong = []
    for value in ('nan', 'inf', '-1', '1e300', '', 'abc'):
        cp = configparser.ConfigParser()
        cp.read_string(text)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
        cfg = tmp_path / 'job.ini'
        with open(cfg, 'w', encoding='utf-8') as fh:
            cp.write(fh)
        code = cli.main([cmd, '--config', str(cfg),
                         '--out', str(tmp_path / 'o')])
        out, err = capsys.readouterr()
        if not (code == 0 and err == '' and not NONFINITE.search(out)
                or code == 1 and err.count('\n') == 1
                and 'Traceback' not in err):
            wrong.append('%s = %r: exit %d, %r %r' % (key, value, code, out,
                                                      err))
    assert not wrong


def test_unknown_key_names_the_closest(tmp_path, capsys):
    cfg = _write(tmp_path, 'lap.ini',
                 LAP_INI + "\n[lap]\nmetod = extrapolate\n")
    out = tmp_path / 'o'
    assert cli.main(['lap', '--config', cfg, '--out', str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith('error: ') and err.count('\n') == 1
    assert 'metod' in err and 'method' in err
    assert not out.exists()


def test_readme_lists_every_key():
    # the README's config block names exactly the keys the CLI reads
    text = (Path(__file__).parents[1] / 'README.md').read_text('utf-8')
    block = text.split('```ini\n')[1].split('```')[0]
    cp = configparser.ConfigParser(inline_comment_prefixes=(';',))
    cp.read_string(block)
    assert {s: sorted(cp.options(s)) for s in cp.sections()} \
        == {s: sorted(k) for s, k in cli.KEYS.items()}

"""Golden figures of fixed CLI jobs: the jobs, how their figures are read,
and a rewrite of figures.json.

Each job is one ``maxres`` subcommand on a fixed config and seed, at
Tier-1 sizes (3D grids of at most 16^3); a config naming SOURCE_MXFD
reads a source field that the job first writes into its temp dir.  Its
figures are the values the report prints, every row of each CSV file it
writes and, for each field file it writes, the L2 norm and the
coefficients at a few fixed modes.  test_golden.py recomputes them and
compares each against figures.json:

* an O(1) figure to GOLDEN_RTOL relative; a string, integer or boolean
  exactly;
* a round-off figure (a residual or a defect), whose bits depend on the
  BLAS build, only against its bound (ROUNDOFF).

Run ``PYTHONPATH=src python tests/golden/regen.py`` to rewrite
figures.json after a change that moves outputs on purpose.  It prints
every figure that moved, old and new, at full precision, and rewrites
only those: every other figure keeps its stored value, and with none
moved the file is left as it is.  The change states that list.  A
figure that moved by accident is a fault to mend, never a figure to
rewrite.
"""

import contextlib
import copy
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

from maxres import cli, fieldfile, spectral

HERE = os.path.dirname(os.path.abspath(__file__))
FIGURES = os.path.join(HERE, 'figures.json')
GOLDEN_RTOL = 1e-12

MAT2 = "[material]\neps11 = 1.3\neps12 = 0.25\neps22 = 0.9\nmu = 1.4\n"
ROTATED3 = ("[material]\neps_axis = 0.5\neps_perp = 1.4\naxis = 2\n"
            "mu = 1.3\n")
LAP2 = ("[grid]\ndim = 2\nn = 32\n" + MAT2
        + "[frequency]\nre = 3.1\n[source]\nkind = random\nkmax = 8\n")
LAP3 = ("[grid]\ndim = 3\nn = 16\n" + ROTATED3
        + "[frequency]\nre = 3.1\n[source]\nkind = random\n")
# the canonical material of the bench's 3D jobs, Material3(0.5, 1 / 0.7)
CANON3 = ("[grid]\ndim = 3\nn = 16\n"
          "[material]\neps_axis = 0.5\neps_perp = 1.4285714285714286\n")

# name: (subcommand, config text, seed)
JOBS = {
    'solve_2d': ('solve', "[grid]\ndim = 2\nn = 32\n"
                 "[material]\neps11 = 2.0\neps12 = 0.3\neps22 = 1.2\n"
                 "mu = 0.8\n[frequency]\nre = 2.0\nim = 0.6\n"
                 "[source]\nkind = random\nkmax = 6\n", 3),
    'solve_3d_rotated_solenoidal': (
        'solve', "[grid]\ndim = 3\nn = 16\n"
        "[material]\neps_axis = 0.5\neps_perp = 1.4\naxis = 3\nmu = 0.7\n"
        "[frequency]\nre = 2.1\nim = 0.4\n[source]\nkind = solenoidal\n", 4),
    'solve_3d': ('solve', CANON3 + "[frequency]\nre = 2.3\nim = 0.5\n"
                 "[source]\nkind = random\n", 9),
    # the source's samples are read back and transformed once, then
    # mapped into the canonical frame
    'solve_3d_rotated_file': (
        'solve', "[grid]\ndim = 3\nn = 16\n" + ROTATED3
        + "[frequency]\nre = 2.1\nim = 0.4\n"
        "[source]\nkind = file\npath = SOURCE_MXFD\n", 11),
    'lap_quadrature_2d': ('lap', LAP2 + "[lap]\nmethod = quadrature\n", 1),
    'lap_extrapolate_2d': ('lap', LAP2 + "[lap]\nmethod = extrapolate\n", 1),
    'lap_quadrature_3d_rotated': (
        'lap', LAP3 + "[lap]\nmethod = quadrature\n", 2),
    'lap_extrapolate_3d_rotated': (
        'lap', LAP3 + "[lap]\nmethod = extrapolate\n", 2),
    # the shape of the bench's quadrature3 job: full spectrum, axis 1
    'lap_quadrature_3d': ('lap', CANON3 + "[frequency]\nre = 3.1\n"
                          "[source]\nkind = random\nkmax = 8\n"
                          "[lap]\nmethod = quadrature\n", 10),
    'probe_blowup': ('probe', "[grid]\ndim = 2\nn = 64\n"
                     "[material]\neps11 = 1.0\neps22 = 1.0\n"
                     "[probe]\nfamily = blowup\nx = 0.6\ny = 0.3\n", 5),
    'probe_annulus': ('probe', "[grid]\ndim = 2\nn = 32\n" + MAT2
                      + "[probe]\nfamily = annulus\nx = 0.6\ny = 0.3\n", 6),
    'probe_knapp': ('probe', "[grid]\ndim = 3\nn = 16\n"
                    "[material]\neps_axis = 0.5\neps_perp = 1.4\n"
                    "[probe]\nfamily = knapp\nx = 0.6\ny = 0.3\n", 7),
    'verify_2e4': ('verify', "[verify]\npoints = 20000\n", 8),
    'region_gamma_map': ('region', "[region]\nmode = gamma_map\ndim = 3\n"
                         "resolution = 5\n", 0),
    'region_boundary': ('region', "[region]\nmode = boundary\nx = 0.6\n"
                        "y = 0.4\ndim = 2\nell = 1.3\nresolution = 16\n", 0),
    # each set both holds and fails, and the last point lies on the
    # corner that R0_half leaves out
    'region_membership': ('region', "[region]\nmode = membership\ndim = 3\n"
                          "points = 0.5,0.25;0.8,0.2;0.9,0.1;0.3,0.4;"
                          "1,0.6666666666666666\n", 0),
}

# the source field of a SOURCE_MXFD job: band-limited on this grid, drawn
# from the job's seed
SOURCE_GRID = spectral.Grid(3, 16)

# fixed modes (per-axis integer frequencies) whose coefficients are kept;
# all lie inside the source bands above
MODES = {2: ((1, 2), (-2, 1), (0, -3)), 3: ((1, 2, 0), (-2, 1, 3),
                                          (0, -1, -2))}

# round-off figures, by the end of their name: the bound each must stay
# below, or the report key whose value is its bound
ROUNDOFF = {
    'residual_rel_l2': 1e-10,               # [tolerances] residual default
    'difference_identity_defect': 1e-8,     # the CLI test's bound
    'max_defect': 'tolerance',              # each verify suite's own
    'det_defect': 1e-12,                    # diagonalization_suite det_tol
}
# round-off figures of one job: a solenoidal source's charges, and the
# fit of the blow-up probe's exact power law 1/delta (measured near 1e-13
# and 1e-15)
JOB_ROUNDOFF = {
    'solve_3d_rotated_solenoidal': {
        'divergence_rho_e_l2': 1e-10, 'divergence_rho_m_l2': 1e-10,
        'halfinv_laplacian_rho_e_l2.0': 1e-10,
        'halfinv_laplacian_rho_m_l2.0': 1e-10},
    'probe_blowup': {'fit_residual': 1e-10},
}


def _value(text):
    """A report value as a JSON figure: a number, a list of numbers for a
    printed tuple, a boolean, or the text itself."""
    if text in ('true', 'false'):
        return text == 'true'
    if re.fullmatch(r'\(.*,.*\)', text):
        return [float(v) for v in text[1:-1].split(',')]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _report(stdout):
    """The report's key = value lines, keyed section.key under a [section]
    header (verify's suites)."""
    out, section = {}, ''
    for line in stdout.splitlines():
        if re.fullmatch(r'\[\w+\]', line):
            section = line[1:-1] + '.'
        elif ' = ' in line:
            key, text = line.split(' = ', 1)
            out[section + key] = _value(text)
    return out


def _field(path):
    """L2 norm and the coefficients at MODES of a written field."""
    f = fieldfile.read_field(path)
    c, n = f._spectrum(), f.grid.n
    coeffs = {}
    for mode in MODES[f.grid.dim]:
        for comp in (0, f.ncomp - 1):
            z = c[(comp,) + tuple(k % n for k in mode)]
            coeffs['%d@%s' % (comp, ','.join(map(str, mode)))] = [
                float(z.real), float(z.imag)]
    return {'l2': spectral.lebesgue_norm(f, 2), 'coeffs': coeffs}


def _csv(path):
    with open(path, encoding='utf-8') as fh:
        rows = fh.read().splitlines()[1:]
    return [[_value(v) for v in row.split(',')] for row in rows]


def run(name):
    """The figures of job ``name``: its exit code, report values, written
    fields and CSV rows."""
    command, ini, seed = JOBS[name]
    with tempfile.TemporaryDirectory() as tmp:
        if 'SOURCE_MXFD' in ini:
            source = os.path.join(tmp, 'source.mxfd')
            fieldfile.write_field(source, spectral.random_band_limited(
                SOURCE_GRID, 6, np.random.default_rng(seed)))
            ini = ini.replace('SOURCE_MXFD', source)
        cfg = os.path.join(tmp, 'job.ini')
        with open(cfg, 'w', encoding='utf-8') as fh:
            fh.write(ini)
        out = os.path.join(tmp, 'out')
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([command, '--config', cfg, '--out', out,
                             '--seed', str(seed)])
        figures = {'exit': code, 'report': _report(buf.getvalue())}
        for fname in sorted(os.listdir(out)):
            path = os.path.join(out, fname)
            if fname.endswith('.mxfd'):
                figures[fname] = _field(path)
            elif fname.endswith('.csv'):
                figures[fname] = _csv(path)
    return figures


def roundoff_bound(job, key, report):
    """The bound of a round-off report figure of ``job``, or None for an
    O(1) one."""
    if key in JOB_ROUNDOFF.get(job, {}):
        return JOB_ROUNDOFF[job][key]
    section, _, end = key.rpartition('.')
    bound = ROUNDOFF.get(end)
    if isinstance(bound, str):
        return report[section + '.' + bound]
    return bound


def _leaves(tree, path=()):
    """(path, value) of every figure: dicts are walked, lists of numbers
    are leaves."""
    if isinstance(tree, dict):
        for k in sorted(tree):
            yield from _leaves(tree[k], path + (k,))
    else:
        yield path, tree


def differences(old, new):
    """(path, old, new) of every figure that moved from the stored
    figures ``old`` to the computed ``new``: a number by more than
    GOLDEN_RTOL relative, any other value at all, a figure missing on
    either side, and a round-off figure at or above its bound (old is
    then the bound).  A round-off figure may be missing: the report
    leaves out a charge potential when the charge is exactly 0."""
    out = []
    for job, fig in new.items():
        report = fig['report']
        for key, value in report.items():
            bound = roundoff_bound(job, key, report)
            if bound is not None and not (isinstance(value, float)
                                          and value < bound):
                out.append(((job, 'report', key), bound, value))
    old_leaves = dict(_leaves(old))
    new_leaves = dict(_leaves(_stored(copy.deepcopy(new))))
    for path in sorted(set(old_leaves) | set(new_leaves)):
        a, b = old_leaves.get(path), new_leaves.get(path)
        if not (_close(a, b) or (path[-1] == 'bound' and b is None)):
            out.append((path, a, b))
    return out


def _close(a, b):
    """Whether the figure b is a: a float or a list of floats to
    GOLDEN_RTOL relative in the euclidean norm (a complex coefficient as
    one vector), a table row by row, anything else exactly."""
    if isinstance(a, list) and a and isinstance(a[0], list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(map(_close, a, b)))
    if not (type(a) is type(b) and isinstance(a, (float, list))):
        return a == b
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.shape == b.shape and bool(np.all(np.isfinite(b)))
            and np.linalg.norm(b - a) <= GOLDEN_RTOL * np.linalg.norm(a))


def load():
    with open(FIGURES, encoding='utf-8') as fh:
        return json.load(fh)


def _stored(figures):
    """figures with each round-off report value replaced by its bound, so
    the file holds no BLAS-dependent bits."""
    for job, fig in figures.items():
        report = fig['report']
        for key in list(report):
            bound = roundoff_bound(job, key, report)
            if bound is not None:
                report[key] = {'bound': bound}
    return figures


def _rewrite(old, new, moved):
    """The stored new figures with every figure that did not move kept at
    its old value, so that round-off below GOLDEN_RTOL leaves the file's
    bits alone."""
    out, kept = _stored(new), dict(_leaves(old))
    moved = {path for path, _, _ in moved}
    for path, _ in list(_leaves(out)):
        if path in kept and path not in moved:
            tree = out
            for key in path[:-1]:
                tree = tree[key]
            tree[path[-1]] = kept[path]
    return out


def main():
    new = {name: run(name) for name in JOBS}
    old = load() if os.path.exists(FIGURES) else {}
    moved = differences(old, new)
    for path, a, b in moved:
        print('%s: %r -> %r' % ('/'.join(path), a, b))
    print('%d figure(s) moved' % len(moved))
    if moved:
        with open(FIGURES, 'w', encoding='utf-8') as fh:
            json.dump(_rewrite(old, new, moved), fh, indent=1, sort_keys=True)
            fh.write('\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())

"""Seeded job mixes for the maxres benchmark.

A workload is a fixed list of CLI jobs.  The workload seed picks the
frequencies, the source seeds and the probe exponents; the job kinds and
grid sizes never change with the seed.  Each job carries a check that
reads the job's outputs and returns its error figure (or None when the
job has only a pass/fail criterion), raising ``JobFailed`` otherwise.

``tiny=True`` shrinks every job to a small grid.  The benchmark runs the
tiny mix as its warm-up, and the self-check runs it as the whole
workload.
"""

import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from maxres import fieldfile, lap, region, spectral
from maxres.errors import FieldFormatError
from maxres.materials import Material2, Material3

WORKLOADS = ('solve', 'freq_sweep', 'lap_quad', 'verify')

# the anisotropic materials of the acceptance suite
MAT2 = Material2(1.3, 0.25, 0.9, mu=1.4)
MAT3 = Material3(0.5, 1.0 / 0.7)

SOLVE_TOL = 1e-10          # the CLI's own default residual tolerance
EXTRAPOLATE_TOL = 1e-4     # |P(omega) u - J| / |J| of an extrapolated field
DRIFT_TOL = 1e-4           # quadrature doubling drift
BLOWUP_SLOPE_TOL = 0.1     # |slope + 1|, acceptance criterion 7
ANNULUS_MIN_SLOPE = -1.1   # |R(omega)| <= 1/dist bounds the decay rate


class JobFailed(Exception):
    """A job's output failed its correctness check."""


@dataclass
class Job:
    """One CLI job: ``maxres <command> --config <ini> --seed <seed>``."""

    name: str
    command: str
    ini: str
    seed: int
    check: Callable[[str, str], Optional[float]]


def _ini(sections):
    lines = []
    for name, keys in sections.items():
        lines.append('[%s]' % name)
        lines.extend('%s = %r' % (k, float(v)) if isinstance(v, float)
                     else '%s = %s' % (k, v) for k, v in keys.items())
        lines.append('')
    return '\n'.join(lines)


def _material_keys(mat, axis=1):
    if mat.dim == 2:
        return {'eps11': mat.eps11, 'eps12': mat.eps12, 'eps22': mat.eps22,
                'mu': mat.mu}
    return {'eps_axis': mat.eps_axis, 'eps_perp': mat.eps_perp,
            'axis': axis}


def _report_value(stdout, key):
    m = re.search(r'^%s = (\S+)$' % re.escape(key), stdout, re.M)
    if m is None:
        raise JobFailed('report has no %s' % key)
    value = float(m.group(1))
    if not math.isfinite(value):
        raise JobFailed('%s is not finite: %r' % (key, value))
    return value


def _read(outdir, name, grid):
    path = os.path.join(outdir, name)
    try:
        f = fieldfile.read_field(path)
    except (FieldFormatError, ValueError) as exc:   # ValueError: non-finite
        raise JobFailed('%s: %s' % (name, exc))
    if f.grid.dim != grid.dim or f.grid.n != grid.n:
        raise JobFailed('%s has grid %r, expected %r' % (name, f.grid, grid))
    return f


def _source(grid, mat, seed, kmax):
    """The random source the CLI builds for [source] kind = random."""
    return spectral.random_band_limited(
        grid, 3 if grid.dim == 2 else 6, np.random.default_rng(seed),
        kmax=kmax, mat=mat)


# ---------------------------------------------------------------------------
# job builders


def _solve_job(name, rng, grid, mat, im_sign, axis=1, kind='random'):
    omega = complex(rng.uniform(-4.0, 4.0), im_sign * rng.uniform(0.2, 1.0))

    def check(outdir, stdout):
        rel = _report_value(stdout, 'residual_rel_l2')
        _read(outdir, 'fields.mxfd', grid)
        if rel > SOLVE_TOL:
            raise JobFailed('residual %.3e above %.0e' % (rel, SOLVE_TOL))
        return rel

    ini = _ini({'grid': {'dim': grid.dim, 'n': grid.n},
                'material': _material_keys(mat, axis),
                'frequency': {'re': omega.real, 'im': omega.imag},
                'source': {'kind': kind}})
    return Job(name, 'solve', ini, int(rng.integers(2 ** 31)), check)


def _lap_extrapolate_job(name, rng, grid, mat):
    # the lattice frequency farthest from every characteristic radius
    # near 3: Richardson extrapolation loses digits on modes close to a
    # sphere, so a free omega would make the error figure a lottery
    omega = rng.choice([-1.0, 1.0]) * region.off_sphere_frequency(grid, mat)
    seed = int(rng.integers(2 ** 31))
    kmax = grid.n // 4

    def check(outdir, stdout):
        J = _source(grid, mat, seed, kmax)
        scale = spectral.lebesgue_norm(J, 2)
        worst = 0.0
        for fname in ('fields_plus.mxfd', 'fields_minus.mxfd'):
            u = _read(outdir, fname, grid)
            resid = spectral.forward_operator(omega, u, mat) - J
            worst = max(worst, spectral.lebesgue_norm(resid, 2) / scale)
        if not worst <= EXTRAPOLATE_TOL:
            raise JobFailed('|P u - J|/|J| = %.3e above %.0e'
                            % (worst, EXTRAPOLATE_TOL))
        return worst

    ini = _ini({'grid': {'dim': grid.dim, 'n': grid.n},
                'material': _material_keys(mat),
                'frequency': {'re': omega},
                'source': {'kind': 'random', 'kmax': kmax},
                'lap': {'method': 'extrapolate'}})
    return Job(name, 'lap', ini, seed, check)


def _probe_pair(rng):
    return {'x': rng.uniform(0.3, 0.7), 'y': rng.uniform(0.3, 0.7)}


def _csv_rows(outdir, expect):
    with open(os.path.join(outdir, 'probe.csv'), encoding='utf-8') as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != expect:
        raise JobFailed('probe.csv has %d rows, expected %d'
                        % (len(rows), expect))
    values = [float(v) for row in rows for v in row.split(',')]
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise JobFailed('probe.csv holds a non-finite or non-positive value')


def _blowup_job(name, rng, grid, mat):
    def check(outdir, stdout):
        slope = _report_value(stdout, 'fitted_slope')
        _csv_rows(outdir, 7)
        if abs(slope + 1.0) > BLOWUP_SLOPE_TOL:
            raise JobFailed('blow-up slope %.4f, expected -1 +- %.1f'
                            % (slope, BLOWUP_SLOPE_TOL))
        return None

    ini = _ini({'grid': {'dim': grid.dim, 'n': grid.n},
                'material': _material_keys(mat),
                'probe': dict(family='blowup', **_probe_pair(rng))})
    return Job(name, 'probe', ini, int(rng.integers(2 ** 31)), check)


def _annulus_job(name, rng, grid, mat):
    def check(outdir, stdout):
        slope = _report_value(stdout, 'fitted_slope')
        _csv_rows(outdir, 6)
        if slope < ANNULUS_MIN_SLOPE:
            raise JobFailed('annulus slope %.4f below %.1f'
                            % (slope, ANNULUS_MIN_SLOPE))
        return None

    ini = _ini({'grid': {'dim': grid.dim, 'n': grid.n},
                'material': _material_keys(mat),
                'probe': dict(family='annulus', vary='dist',
                              **_probe_pair(rng))})
    return Job(name, 'probe', ini, int(rng.integers(2 ** 31)), check)


def _lap_quadrature_job(name, rng, grid, mat, omega, drift):
    seed = int(rng.integers(2 ** 31))
    kmax = grid.n // 2               # the full spectrum

    def check(outdir, stdout):
        u_plus = _read(outdir, 'fields_plus.mxfd', grid)
        _read(outdir, 'fields_minus.mxfd', grid)
        if not drift:
            return None
        # twice lap_solve's default node counts (160 sphere, 24 radial)
        fine = lap.lap_solve(omega, _source(grid, mat, seed, kmax), mat,
                             sign=+1, n_sphere=320, n_radial=48)
        rel = (spectral.lebesgue_norm(fine - u_plus, 2)
               / spectral.lebesgue_norm(fine, 2))
        if not rel <= DRIFT_TOL:
            raise JobFailed('doubling drift %.3e above %.0e'
                            % (rel, DRIFT_TOL))
        return rel

    ini = _ini({'grid': {'dim': grid.dim, 'n': grid.n},
                'material': _material_keys(mat),
                'frequency': {'re': omega},
                'source': {'kind': 'random', 'kmax': kmax},
                'lap': {'method': 'quadrature'}})
    return Job(name, 'lap', ini, seed, check)


def _verify_job(name, rng, points):
    def check(outdir, stdout):
        defects = [float(v) for v in
                   re.findall(r'^max_defect = (\S+)$', stdout, re.M)]
        passed = re.findall(r'^passed = (\S+)$', stdout, re.M)
        if len(defects) != 4 or passed != ['true'] * 4:
            raise JobFailed('expected four passing suites, got %r' % passed)
        if not all(math.isfinite(d) for d in defects):
            raise JobFailed('non-finite defect')
        return max(defects)

    ini = _ini({'verify': {'points': points}})
    return Job(name, 'verify', ini, int(rng.integers(2 ** 31)), check)


# ---------------------------------------------------------------------------
# the mixes


def build(workload, seed, tiny=False):
    """The job list of ``workload`` for ``seed``; same seed, same jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    G = spectral.Grid
    if workload == 'solve':
        g3, g2 = (G(3, 8), G(2, 32)) if tiny else (G(3, 64), G(2, 512))
        return [_solve_job('solve3_axis1', rng, g3, MAT3, +1),
                _solve_job('solve3_axis3', rng, g3, MAT3, -1, axis=3),
                _solve_job('solve3_solenoidal', rng, g3, MAT3, +1,
                           kind='solenoidal'),
                _solve_job('solve2', rng, g2, MAT2, -1)]
    if workload == 'freq_sweep':
        # lap's cutoff plateau needs 1.3 |omega| stretch < 0.95 n / 2,
        # so the tiny lap grids stay at n = 16.  The 3D probes run at
        # 16^3: at 32^3 the blow-up probe alone takes 9 s, one or two
        # samples a run, and the mix's timings did not settle
        gx3, gx2, gp2, gp3 = (G(3, 16), G(2, 16), G(2, 16), G(3, 8)) \
            if tiny else (G(3, 32), G(2, 128), G(2, 64), G(3, 16))
        return [_lap_extrapolate_job('extrapolate3', rng, gx3, MAT3),
                _lap_extrapolate_job('extrapolate2', rng, gx2, MAT2),
                _blowup_job('blowup2', rng, gp2, MAT2),
                _blowup_job('blowup3', rng, gp3, MAT3),
                _annulus_job('annulus3', rng, gp3, MAT3)]
    if workload == 'lap_quad':
        # the tiny 8^3 grid meets the cutoff condition at a lower omega
        omega3 = rng.uniform(0.9, 1.1) if tiny else rng.uniform(3.05, 3.15)
        omega2 = rng.uniform(3.05, 3.15)
        g3, g2 = (G(3, 8), G(2, 16)) if tiny else (G(3, 16), G(2, 128))
        return [_lap_quadrature_job('quadrature3', rng, g3, MAT3, omega3,
                                    drift=False),
                _lap_quadrature_job('quadrature2', rng, g2, MAT2, omega2,
                                    drift=True)]
    if workload == 'verify':
        return [_verify_job('verify', rng, 2400 if tiny else 100_000)]
    raise ValueError('unknown workload %r' % (workload,))

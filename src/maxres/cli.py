"""Command-line surface: ``maxres <subcommand> --config job.ini``.

Subcommands:

* ``solve``   complex-frequency solve, writes a field file, prints the
              residual, divergence defect and charge norms.
* ``verify``  randomized symbol/multiplier invariant suites; exit 0 iff
              every suite passes, otherwise exit 1 with the first
              failing witness.
* ``lap``     real-frequency limiting solutions for both signs from one
              lap.lap_parts call, writes both fields and, on the
              quadrature route, prints the difference-identity defect; a
              source mode on a characteristic sphere is refused
              (OnSingularSet, exit 1).
* ``region``  exponent-region arithmetic: gamma maps, membership
              tables and Z-region boundaries as CSV.
* ``probe``   empirical operator-norm scaling probes, CSV of
              (parameter, norm) pairs plus a fitted slope.

Configuration is INI-style UTF-8 text (see the README for the keys); an
unknown section or key (KEYS) is a configuration error.
Exit codes: 0 success, 1 failure (including configuration errors),
2 when the blow-up probe's closed form disagrees with its grid solve.
A fixed ``--seed`` makes reports and output files byte-identical
between runs.
"""

import argparse
import configparser
import difflib
import os
import sys

import numpy as np

from . import fieldfile, lap, region, spectral, verify
from .errors import (ConfigError, EmptyRegion, InvalidArgument, MaxresError,
                     MethodsDisagree)
from .materials import Material2, Material3
from .region import LebesguePair, RegionQuery
from .spectral import Grid

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_DISAGREE = 2


# ---------------------------------------------------------------------------
# configuration


# The known keys of each section.  Casts and defaults live where a key is
# read (_get), and every rule on a value lives in the library, which
# raises InvalidArgument.
KEYS = {
    'grid': ('dim', 'n', 'length'),
    'material': ('eps11', 'eps12', 'eps22', 'eps_axis', 'eps_perp', 'axis',
                 'mu'),
    'frequency': ('re', 'im'),
    'source': ('kind', 'path', 'kmax', 'thickness'),
    'tolerances': ('charge_q', 'residual'),
    'verify': ('points', 'flip_entry'),
    'lap': ('method',),
    'region': ('mode', 'dim', 'resolution', 'x', 'y', 'ell', 'points'),
    'probe': ('family', 'x', 'y', 'vary', 'samples'),
}


def _known(what, name, known):
    if name not in known:
        close = difflib.get_close_matches(name, known, n=1)
        raise ConfigError("unknown %s %s; %s" % (what, name, (
            "did you mean %s?" % close[0]) if close
            else "known: " + ", ".join(known)))


def load_config(path):
    """The parsed config; an unknown section or key is refused here,
    before any work runs, with the closest known name."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path, encoding='utf-8')
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(' '.join(str(exc).split()))
    if not read:
        raise ConfigError("cannot read config file %r" % path)
    for section in cp.sections():
        _known('section', section, list(KEYS))
        for key in cp.options(section):
            _known('key in [%s]:' % section, key, KEYS[section])
    return cp


def _get(cp, section, key, cast=str, default=None):
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError("missing [%s] %s" % (section, key))
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError("bad value for [%s] %s: %r (%s)"
                          % (section, key, raw, exc))


def parse_grid(cp):
    dim = _get(cp, 'grid', 'dim', int)
    n = _get(cp, 'grid', 'n', int)
    length = _get(cp, 'grid', 'length', float, default=2 * np.pi)
    return Grid(dim, n, length)


def parse_material(cp):
    """The [material] of a config whose [grid] parse_grid accepted."""
    if _get(cp, 'grid', 'dim', int) == 2:
        return Material2(_get(cp, 'material', 'eps11', float),
                         _get(cp, 'material', 'eps12', float, default=0.0),
                         _get(cp, 'material', 'eps22', float),
                         mu=_get(cp, 'material', 'mu', float, default=1.0))
    return Material3(_get(cp, 'material', 'eps_axis', float),
                     _get(cp, 'material', 'eps_perp', float),
                     axis=_get(cp, 'material', 'axis', int, default=1),
                     mu=_get(cp, 'material', 'mu', float, default=1.0))


def parse_omega(cp):
    re = _get(cp, 'frequency', 're', float)
    im = _get(cp, 'frequency', 'im', float, default=0.0)
    if not (np.isfinite(re) and np.isfinite(im)):
        raise ConfigError("[frequency] re and im must be finite, got "
                          "re = %r, im = %r" % (re, im))
    return complex(re, im)


def build_source(cp, grid, mat, rng):
    """Source field from [source]: a file, or a builtin random family."""
    kind = _get(cp, 'source', 'kind', str, default='random')
    ncomp = 3 if grid.dim == 2 else 6
    if kind == 'file':
        path = _get(cp, 'source', 'path')
        f = fieldfile.read_field(path)
        if f.grid.dim != grid.dim or f.grid.n != grid.n:
            raise ConfigError("source file grid does not match [grid]")
        return f
    if kind in ('random', 'solenoidal'):
        kmax = _get(cp, 'source', 'kmax', int, default=grid.n // 4)
        return spectral.random_band_limited(
            grid, ncomp, rng, kmax=kmax,
            solenoidal=(kind == 'solenoidal'), mat=mat)
    if kind == 'annulus':
        omega = parse_omega(cp)
        thickness = _get(cp, 'source', 'thickness', float, default=1.0)
        return region.annulus_source(grid, omega.real, mat,
                                     thickness=thickness, rng=rng)
    if kind == 'knapp':
        omega = parse_omega(cp)
        return region.knapp_source(grid, omega, mat)
    raise ConfigError("unknown source kind %r" % kind)


# ---------------------------------------------------------------------------
# output helpers


def format_float(x):
    """Shortest round-trip decimal form."""
    return repr(float(x))


def write_csv(path, header, rows):
    with open(path, 'w', encoding='utf-8', newline='\n') as fh:
        fh.write(','.join(header) + '\n')
        for row in rows:
            fh.write(','.join(format_float(v) if isinstance(v, float)
                              else str(v) for v in row) + '\n')


def _outdir(args):
    out = args.out or '.'
    os.makedirs(out, exist_ok=True)
    return out


def _emit(lines, path=None):
    text = '\n'.join(lines) + '\n'
    sys.stdout.write(text)
    if path is not None:
        with open(path, 'w', encoding='utf-8', newline='\n') as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args, cp):
    grid = parse_grid(cp)
    mat = parse_material(cp)
    omega = parse_omega(cp)
    if omega.imag == 0:
        raise ConfigError("Im(omega) = 0: use the lap subcommand for "
                          "real-frequency limiting solutions")
    q = _get(cp, 'tolerances', 'charge_q', float, default=2.0)
    tol = _get(cp, 'tolerances', 'residual', float, default=1e-10)
    if not (1 <= q <= np.inf and 0 < tol < np.inf):
        raise ConfigError("[tolerances] needs 1 <= charge_q <= inf and a "
                          "finite residual > 0, got %r and %r" % (q, tol))
    rng = np.random.default_rng(args.seed)
    J = build_source(cp, grid, mat, rng)
    scale = spectral.lebesgue_norm(J, 2)
    if scale == 0:
        raise ConfigError("the source is zero: its L2 norm is 0, so the "
                          "relative residual is undefined")
    u = spectral.solve(omega, J, mat)
    out = _outdir(args)
    # the only samples the job needs; the norms below are Parseval sums
    # of coefficients when J holds them (q = 2 for the potentials)
    fieldfile.write_field(os.path.join(out, 'fields.mxfd'), u)
    resid = spectral.forward_operator(omega, u, mat) - J
    rel = spectral.lebesgue_norm(resid, 2) / scale
    charges = spectral.divergence_and_charges(J)
    lines = ['omega = %s' % omega,
             'residual_rel_l2 = %s' % format_float(rel)]
    for name, rho in (('rho_e', charges.rho_e), ('rho_m', charges.rho_m)):
        div = spectral.lebesgue_norm(rho, 2)
        lines.append('divergence_%s_l2 = %s' % (name, format_float(div)))
        if div > 0:
            pot = spectral.fractional_laplacian(rho, -1.0)
            nrm = spectral.lebesgue_norm(pot, q)
            lines.append('halfinv_laplacian_%s_l%s = %s'
                         % (name, format_float(q), format_float(nrm)))
    _emit(lines, os.path.join(out, 'solve_report.txt'))
    if rel < tol:
        return EXIT_OK
    sys.stderr.write('error: residual_rel_l2 is not below [tolerances] '
                     'residual = %s\n' % format_float(tol))
    return EXIT_FAIL


def cmd_verify(args, cp):
    n_points = _get(cp, 'verify', 'points', int, default=100_000)
    flip = _get(cp, 'verify', 'flip_entry',
                lambda raw: tuple(int(v) for v in raw.split(',')), default=())
    reports = verify.run_all(args.seed, n_points, flip or None)
    out = _outdir(args)
    lines = []
    code = EXIT_OK
    for r in reports:
        lines.append('[%s]' % r.name)
        lines.append('count = %d' % r.count)
        lines.append('max_defect = %s' % format_float(r.max_defect))
        lines.append('tolerance = %s' % format_float(r.tolerance))
        lines.append('passed = %s' % str(r.passed).lower())
        for k in sorted(r.extras):
            lines.append('%s = %s' % (k, r.extras[k]))
        if not r.passed and code == EXIT_OK:
            code = EXIT_FAIL
            lines.append('witness = %s' % (r.witness,))
        lines.append('')
    _emit(lines, os.path.join(out, 'verify_report.txt'))
    return code


def cmd_lap(args, cp):
    grid = parse_grid(cp)
    mat = parse_material(cp)
    omega = parse_omega(cp)
    if omega.imag != 0:
        raise ConfigError("lap needs im = 0; use solve for complex omega")
    rng = np.random.default_rng(args.seed)
    J = build_source(cp, grid, mat, rng)
    method = _get(cp, 'lap', 'method', str, default='quadrature')
    out = _outdir(args)
    common, jump = lap.lap_parts(omega.real, J, mat, method)
    u_plus, u_minus = common + jump, common - jump
    fieldfile.write_field(os.path.join(out, 'fields_plus.mxfd'), u_plus)
    fieldfile.write_field(os.path.join(out, 'fields_minus.mxfd'), u_minus)
    lines = ['omega = %s' % format_float(omega.real),
             'method = %s' % method]
    if method == 'quadrature':
        # the jump is the quadrature surface term; the other route's jump
        # is a different method's, and the defect against it reads ~1
        diff = (u_plus - u_minus) - 2.0 * jump
        denom = max(spectral.lebesgue_norm(u_plus, 2),
                    spectral.lebesgue_norm(u_minus, 2), 1e-300)
        defect = spectral.lebesgue_norm(diff, 2) / denom
        lines.append('difference_identity_defect = %s'
                     % format_float(defect))
    _emit(lines, os.path.join(out, 'lap_report.txt'))
    return EXIT_OK


def _resolution(cp, default):
    n = _get(cp, 'region', 'resolution', int, default=default)
    if n < 2:
        raise ConfigError("[region] resolution must be at least 2, got %d"
                          % n)
    return n


def cmd_region(args, cp):
    mode = _get(cp, 'region', 'mode', str, default='gamma_map')
    out = _outdir(args)
    if mode == 'gamma_map':
        d = _get(cp, 'region', 'dim', int, default=3)
        n = _resolution(cp, 101)
        rows = [(i / (n - 1), j / (n - 1)) for i in range(n) for j in range(n)]
        rows = [(x, y, float(region.gamma(LebesguePair(x, y, d))))
                for x, y in rows]
        write_csv(os.path.join(out, 'gamma_map.csv'),
                  ('x', 'y', 'gamma'), rows)
        _emit(['wrote gamma_map.csv (%d rows)' % len(rows)])
        return EXIT_OK
    if mode == 'boundary':
        dim = _get(cp, 'grid', 'dim', int) if cp.has_section('grid') \
            else _get(cp, 'region', 'dim', int)
        pair = LebesguePair(_get(cp, 'region', 'x', float),
                            _get(cp, 'region', 'y', float), dim)
        query = RegionQuery(pair, _get(cp, 'region', 'ell', float))
        n = _resolution(cp, 256)
        try:
            pts = region.z_boundary(query, resolution=n)
        except EmptyRegion as exc:
            _emit(['Z region is empty: %s' % exc])
            return EXIT_OK
        rows = [(float(w.real), float(w.imag)) for w in pts]
        write_csv(os.path.join(out, 'z_boundary.csv'),
                  ('re_omega', 'im_omega'), rows)
        _emit(['wrote z_boundary.csv (%d rows)' % len(rows)])
        return EXIT_OK
    if mode == 'membership':
        pair_dim = _get(cp, 'region', 'dim', int, default=3)
        pts = _get(cp, 'region', 'points')
        rows = []
        for tok in pts.split(';'):
            try:
                x, y = map(float, tok.split(','))
            except ValueError as exc:
                raise ConfigError("bad [region] points entry %r, want x,y "
                                  "(%s)" % (tok.strip(), exc))
            p = LebesguePair(x, y, pair_dim)
            rows.append((float(p.x), float(p.y),
                         str(region.membership(p, 'R0_half')).lower(),
                         str(region.membership(p, 'R1')).lower(),
                         str(region.membership(p, 'P_set')).lower()))
        write_csv(os.path.join(out, 'membership.csv'),
                  ('x', 'y', 'r0_half', 'r1', 'p_set'), rows)
        _emit(['wrote membership.csv (%d rows)' % len(rows)])
        return EXIT_OK
    raise ConfigError("unknown region mode %r" % mode)


def cmd_probe(args, cp):
    grid = parse_grid(cp)
    mat = parse_material(cp)
    family = _get(cp, 'probe', 'family', str, default='annulus')
    pair = LebesguePair(_get(cp, 'probe', 'x', float, default=0.5),
                        _get(cp, 'probe', 'y', float, default=0.5), grid.dim)
    out = _outdir(args)
    rng = np.random.default_rng(args.seed)
    if family == 'blowup':
        omega = region.on_sphere_frequency(grid, mat)
        deltas = [2.0 ** -k for k in range(3, 10)]
        fit, ds, ratios = lap.lap_blowup_probe(omega, pair, mat, deltas, grid)
        write_csv(os.path.join(out, 'probe.csv'), ('delta', 'norm_ratio'),
                  list(zip(map(float, ds), map(float, ratios))))
        _emit(['family = blowup', 'omega = %s' % format_float(omega),
               'fitted_slope = %s' % format_float(fit.slope),
               'fit_residual = %s' % format_float(fit.residual)])
        return EXIT_OK
    if family == 'knapp' and grid.dim != 3:
        raise ConfigError("probe family knapp needs a 3D grid")
    if family in ('annulus', 'knapp'):
        vary = _get(cp, 'probe', 'vary', str, default='dist')
        count = _get(cp, 'probe', 'samples', int, default=6)
        if count < 2:
            raise ConfigError("[probe] samples must be at least 2 to fit "
                              "a slope, got %d" % count)
        if vary == 'dist':
            base = region.on_sphere_frequency(grid, mat)
            omegas = [base + 1j * 2.0 ** -k for k in range(2, 2 + count)]
        else:
            omegas = [lam + 0.25j for lam in
                      np.linspace(4.0, 10.0, count)]
        # the library calls the annulus family 'radial'
        fit, xs, ys = region.norm_scaling_probe(
            pair, mat, 'radial' if family == 'annulus' else family, omegas,
            grid, vary, rng)
        write_csv(os.path.join(out, 'probe.csv'), ('parameter', 'norm_ratio'),
                  list(zip(map(float, xs), map(float, ys))))
        _emit(['family = %s' % family, 'vary = %s' % vary,
               'fitted_slope = %s' % format_float(fit.slope),
               'fit_residual = %s' % format_float(fit.residual)])
        return EXIT_OK
    raise ConfigError("unknown probe family %r" % family)


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {'solve': cmd_solve, 'verify': cmd_verify, 'lap': cmd_lap,
            'region': cmd_region, 'probe': cmd_probe}


def build_parser():
    ap = argparse.ArgumentParser(
        prog='maxres',
        description='Spectral Maxwell resolvent toolkit')
    ap.add_argument('command', choices=sorted(COMMANDS))
    ap.add_argument('--config', help='INI job configuration file')
    ap.add_argument('--out', help='output directory (default: cwd)')
    ap.add_argument('--seed', type=int, default=0,
                    help='RNG seed; fixed seed gives byte-identical output')
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config is None and args.command != 'verify':
            raise ConfigError("--config is required for %r" % args.command)
        cp = configparser.ConfigParser() if args.config is None \
            else load_config(args.config)
        return COMMANDS[args.command](args, cp)
    except MethodsDisagree as exc:
        sys.stderr.write('method cross-validation failed: %s\n' % exc)
        return EXIT_DISAGREE
    except (ConfigError, InvalidArgument, OSError) as exc:
        sys.stderr.write('error: %s\n' % exc)
        return EXIT_FAIL
    except MaxresError as exc:
        sys.stderr.write('%s: %s\n' % (type(exc).__name__, exc))
        return EXIT_FAIL


if __name__ == '__main__':
    sys.exit(main())

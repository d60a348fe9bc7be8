"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its pinned tolerance and
prints a one-line PASS/FAIL verdict (outside output capture) so the
verdicts are visible in plain ``pytest -v`` runs.
"""

import sys
import time

import numpy as np
import pytest

from maxres import lap, region as rg, spectral as sp, verify
from maxres.errors import EmptyRegion
from maxres.materials import Material2, Material3
from maxres.region import LebesguePair as P
from helpers import charge_column_2d, charge_column_3d

MAT2 = Material2(1.3, 0.25, 0.9, mu=1.4)
MAT3 = Material3(0.5, 1.0 / 0.7)


@pytest.fixture(autouse=True)
def _verdict(capsys):
    """Collect the verdict line and print it outside pytest's capture."""
    lines = []
    yield lines
    with capsys.disabled():
        for line in lines:
            sys.stdout.write('\n' + line)
            sys.stdout.flush()


def _report(sink, num, name, passed, detail, elapsed):
    sink.append('[criterion %d] %-26s %s (%s; %.1fs)' % (
        num, name, 'PASS' if passed else 'FAIL', detail, elapsed))


def _scalar_mult(f, values):
    """Apply a per-mode scalar multiplier given on the flat spectrum."""
    c = f.coeffs().reshape(f.data.shape[0], -1) * values
    return sp.Field.from_coeffs(f.grid, c.reshape(f.data.shape))


def _far_current(grid, mat, ncomp, omega, rng, margin=0.5):
    J = sp.random_band_limited(grid, ncomp, rng)
    c = J.coeffs().reshape(ncomp, -1)
    far, near = lap._mode_masks(grid, omega, mat, margin)
    c[:, near] = 0
    return sp.Field.from_coeffs(grid, c.reshape(J.data.shape))


def test_criterion_1_diagonalization(_verdict):
    t0 = time.time()
    rng = np.random.default_rng(101)
    reports = [verify.diagonalization_suite(rng, 100_000, dim=d,
                                            tol=1e-12, det_tol=1e-12)
               for d in (2, 3)]
    elapsed = time.time() - t0
    worst = max(r.max_defect for r in reports)
    passed = all(r.passed for r in reports) and elapsed < 30.0
    _report(_verdict, 1, 'diagonalization', passed,
            'max defect %.2e over 2x100000 points' % worst, elapsed)
    for r in reports:
        assert r.passed, r.witness
    assert elapsed < 30.0


def test_criterion_2_inverse_symbol(_verdict):
    t0 = time.time()
    rng = np.random.default_rng(102)
    reports = [verify.inverse_suite(rng, 100_000, dim=d, tol=1e-10)
               for d in (2, 3)]
    elapsed = time.time() - t0
    worst = max(r.max_defect for r in reports)
    passed = all(r.passed for r in reports) and elapsed < 60.0
    _report(_verdict, 2, 'inverse symbol', passed,
            'max relative defect %.2e' % worst, elapsed)
    for r in reports:
        assert r.passed, r.witness
    assert elapsed < 60.0


def test_criterion_3_resolvent_solver(_verdict):
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst_res, worst_sol = 0.0, 0.0
    for mat, grid, ncomp in ((MAT2, sp.Grid(2, 64), 3),
                             (MAT3, sp.Grid(3, 32), 6)):
        for trial in range(50):
            omega = complex(rng.uniform(-4, 4),
                            rng.uniform(0.2, 2.0) * (1 if trial % 2 else -1))
            solenoidal = trial % 2 == 0
            J = sp.random_band_limited(grid, ncomp, rng,
                                       solenoidal=solenoidal)
            u = sp.solve(omega, J, mat)
            r = sp.forward_operator(omega, u, mat) - J
            worst_res = max(worst_res, sp.lebesgue_norm(r, 2)
                            / sp.lebesgue_norm(J, 2))
            if solenoidal:
                ch = sp.divergence_and_charges(u)
                scale = sp.lebesgue_norm(u, 2)
                worst_sol = max(worst_sol,
                                sp.lebesgue_norm(ch.rho_e, 2) / scale,
                                sp.lebesgue_norm(ch.rho_m, 2) / scale)
    elapsed = time.time() - t0
    passed = worst_res < 1e-10 and worst_sol < 1e-11 and elapsed < 120.0
    _report(_verdict, 3, 'resolvent solver', passed,
            '100 currents, residual %.2e, solenoidal defect %.2e'
            % (worst_res, worst_sol), elapsed)
    assert worst_res < 1e-10
    assert worst_sol < 1e-11
    assert elapsed < 120.0


def test_criterion_4_closed_form_displays(_verdict):
    t0 = time.time()
    rng = np.random.default_rng(104)
    omega = 2.0 + 0.6j

    # 2D: transverse current built from eps'-Riesz transforms
    g = sp.Grid(2, 32)
    mat = MAT2
    f = sp.random_band_limited(g, 1, rng).coeffs().reshape(-1)
    xi = g.xi_flat()
    rho = sp.flavor_norm(xi, 'eps_prime', mat, 2)
    rp = np.where(rho > 0, 1.0, 0.0)[:, None] \
        * xi / np.where(rho > 0, rho, 1.0)[:, None]
    ep, em = 1.0 / (omega + rho), 1.0 / (omega - rho)
    cJ = np.stack([-2 * rp[:, 1] * f, 2 * rp[:, 0] * f,
                   np.zeros_like(f)])
    cu = -1j * np.stack([-rp[:, 1] * (em + ep) * f,
                         rp[:, 0] * (em + ep) * f,
                         mat.mu * (ep - em) * f])
    J = sp.Field.from_coeffs(g, cJ.reshape(3, 32, 32))
    u = sp.solve(omega, J, mat)
    err2 = (np.abs(u.coeffs().reshape(3, -1) - cu).max()
            / np.abs(cu).max())

    # 3D isotropic-in-a-a=b slice: euclidean-Riesz cap current
    g3 = sp.Grid(3, 16)
    mat3 = Material3(1.0 / 0.8, 1.0 / 0.8)        # a = b = 0.8
    sb = np.sqrt(mat3.b)
    f3 = sp.random_band_limited(g3, 1, rng).coeffs().reshape(-1)
    xi3 = g3.xi_flat()
    n = np.sqrt(np.einsum('ki,ki->k', xi3, xi3))
    r = np.where(n > 0, 1.0, 0.0)[:, None] \
        * xi3 / np.where(n > 0, n, 1.0)[:, None]
    ep3, em3 = 1.0 / (omega + sb * n), 1.0 / (omega - sb * n)
    z = np.zeros_like(f3)
    cJ3 = np.stack([z, -r[:, 2] * f3, r[:, 1] * f3, z, z, z])
    s = em3 + ep3
    d = em3 - ep3
    cu3 = -0.5j * np.stack([
        z,
        -r[:, 2] * s * f3,
        r[:, 1] * s * f3,
        sb * -(r[:, 1] ** 2 + r[:, 2] ** 2) * d * f3,
        sb * r[:, 0] * r[:, 1] * d * f3,
        sb * r[:, 0] * r[:, 2] * d * f3])
    J3 = sp.Field.from_coeffs(g3, cJ3.reshape(6, 16, 16, 16))
    u3 = sp.solve(omega, J3, mat3)
    err3 = (np.abs(u3.coeffs().reshape(6, -1) - cu3).max()
            / np.abs(cu3).max())

    elapsed = time.time() - t0
    passed = err2 < 1e-10 and err3 < 1e-10 and elapsed < 30.0
    _report(_verdict, 4, 'closed-form displays', passed,
            '2D err %.2e, 3D err %.2e' % (err2, err3), elapsed)
    assert err2 < 1e-10
    assert err3 < 1e-10
    assert elapsed < 30.0


def test_criterion_5_charge_split(_verdict):
    t0 = time.time()
    rng = np.random.default_rng(105)
    omega = 2.0 + 0.6j
    worst = 0.0
    for mat, grid, ncomp in ((MAT2, sp.Grid(2, 32), 3),
                             (MAT3, sp.Grid(3, 16), 6)):
        J = sp.random_band_limited(grid, ncomp, rng)
        diff = sp.solve(omega, J, mat) \
            - sp.solve(omega, sp.leray_project(J, mat), mat)
        c = J.coeffs().reshape(ncomp, -1)
        xi = grid.xi_flat()
        nz = np.nonzero(np.any(xi != 0, axis=-1))[0]
        expect = np.zeros_like(c)
        fn = charge_column_2d if mat.dim == 2 else charge_column_3d
        expect[:, nz] = fn(omega, xi[nz], mat, c[:, nz].T).T
        got = diff.coeffs().reshape(ncomp, -1)
        worst = max(worst, np.abs(got - expect).max() / np.abs(c).max())

    # the half-inverse Laplacian of the charge is finite and linear
    J = sp.random_band_limited(sp.Grid(2, 32), 3, rng)
    rho = sp.divergence_and_charges(J).rho_e
    pot = sp.fractional_laplacian(rho, -1.0)
    nq = sp.lebesgue_norm(pot, 4)
    nq2 = sp.lebesgue_norm(sp.fractional_laplacian(2.0 * rho, -1.0), 4)
    lin = abs(nq2 - 2.0 * nq) / nq
    elapsed = time.time() - t0
    passed = worst < 1e-11 and np.isfinite(nq) and nq > 0 \
        and lin < 1e-12 and elapsed < 30.0
    _report(_verdict, 5, 'charge split', passed,
            'split defect %.2e, ||pot||_4 = %.3g, linearity %.1e'
            % (worst, nq, lin), elapsed)
    assert worst < 1e-11
    assert np.isfinite(nq) and nq > 0
    assert lin < 1e-12
    assert elapsed < 30.0


def test_criterion_6_limiting_absorption(_verdict):
    t0 = time.time()
    rng = np.random.default_rng(106)
    omega = 3.1
    g = sp.Grid(2, 64)
    beta = lap.CutoffSpec(18.0, 28.0)

    # Sokhotsky first-order convergence: || e_delta f - (pv + surface) ||
    # shrinks linearly in delta
    xi = g.xi_flat()
    r = np.sqrt(np.einsum('ki,ki->k', xi, xi))
    t = (r - 1.0) / 7.0
    prof = np.where((t > 0) & (t < 1),
                    np.exp(-1.0 / np.clip(t * (1 - t), 1e-12, None) / 0.25),
                    0.0)
    c = prof * np.exp(1j * (xi @ np.array([0.7, -1.1])))
    fcov = sp.Field.from_coeffs(g, c.reshape(1, 64, 64))
    pv = lap.pv_part(fcov, omega, beta, 'eps_prime', MAT2,
                     n_sphere=256, n_radial=48)
    lim = pv + lap.surface_part(fcov, omega, beta, 'eps_prime', MAT2,
                                sign=+1)
    deltas = [2.0 ** -k for k in range(3, 10)]
    errs = [sp.lebesgue_norm(
        lap.e_delta(fcov, omega, d, +1, beta, 'eps_prime', MAT2,
                    method='quadrature', n_sphere=256, n_radial=48) - lim, 2)
        / sp.lebesgue_norm(lim, 2) for d in deltas]
    slope = rg.loglog_fit(deltas, errs).slope

    # cross-method agreement and limiting residual on far-spectrum input
    agree, resid = 0.0, 0.0
    for mat, grid, ncomp in ((MAT2, g, 3), (MAT3, sp.Grid(3, 32), 6)):
        J = _far_current(grid, mat, ncomp, omega, rng)
        uq = lap.lap_solve(omega, J, mat, method='quadrature')
        ue = lap.lap_solve(omega, J, mat, method='extrapolate')
        agree = max(agree, sp.lebesgue_norm(uq - ue, 2)
                    / sp.lebesgue_norm(uq, 2))
        rr = sp.forward_operator(omega, uq, mat) - J
        resid = max(resid, sp.lebesgue_norm(rr, 2) / sp.lebesgue_norm(J, 2))

    # difference identity u+ - u- = 2 * surface terms on full spectra
    ident = 0.0
    for mat, grid, ncomp in ((MAT2, g, 3), (MAT3, sp.Grid(3, 16), 6)):
        J = sp.random_band_limited(grid, ncomp, rng)
        up = lap.lap_solve(omega, J, mat, sign=+1)
        um = lap.lap_solve(omega, J, mat, sign=-1)
        st = lap.surface_terms(omega, J, mat, sign=+1)
        ident = max(ident, sp.lebesgue_norm((up - um) - 2.0 * st, 2)
                    / sp.lebesgue_norm(up - um, 2))

    elapsed = time.time() - t0
    passed = slope >= 0.9 and agree < 1e-5 and resid < 1e-6 \
        and ident < 1e-6 and elapsed < 300.0
    _report(_verdict, 6, 'limiting absorption', passed,
            'sokhotsky slope %.3f, methods %.2e, residual %.2e, '
            'identity %.2e' % (slope, agree, resid, ident), elapsed)
    assert slope >= 0.9
    assert agree < 1e-5
    assert resid < 1e-6
    assert ident < 1e-6
    assert elapsed < 300.0


def test_criterion_7_scaling_probes(_verdict):
    t0 = time.time()
    g2 = sp.Grid(2, 64)
    deltas = [2.0 ** -k for k in range(3, 10)]

    # resonant blow-up: norm ratio grows like dist^-1
    blow = []
    for mat in (Material2(1.0, 0.0, 1.0), MAT2):
        omega = rg.on_sphere_frequency(g2, mat)
        fit, _, _ = lap.lap_blowup_probe(omega, P(0.5, 0.5, 2), mat,
                                         deltas, grid=g2)
        blow.append(fit.slope)

    # gamma = 0 pair: ratios stay bounded as dist -> 0
    mat3 = Material3(1.0, 1.0)
    g3 = sp.Grid(3, 32)
    base = rg.off_sphere_frequency(g3, mat3)
    omegas = [base + 1j * 2.0 ** -k for k in range(4, 11)]
    flat_fit, _, _ = rg.norm_scaling_probe(P(0.75, 0.25, 3), mat3,
                                           'radial', omegas, grid=g3,
                                           vary='dist')

    # Knapp caps: |omega|^(1/2) growth along a ray at fixed distance
    g64 = sp.Grid(3, 64)
    omegas = [lam + 0.25j for lam in np.linspace(4.0, 14.0, 6)]
    knapp_fit, _, _ = rg.norm_scaling_probe(P(0.75, 0.25, 3), mat3,
                                            'knapp', omegas, grid=g64,
                                            vary='modulus')

    elapsed = time.time() - t0
    # each probe is a lower-bound witness: it must approach but not
    # exceed the predicted exponent
    ok_blow = all(abs(s + 1.0) <= 0.1 for s in blow)
    ok_flat = abs(flat_fit.slope) <= 0.1
    ok_knapp = abs(knapp_fit.slope - 0.5) <= 0.15
    no_excess = all(s >= -1.1 for s in blow) \
        and flat_fit.slope >= -0.1 and knapp_fit.slope <= 0.65
    passed = ok_blow and ok_flat and ok_knapp and no_excess \
        and elapsed < 300.0
    _report(_verdict, 7, 'scaling probes', passed,
            'blowup %s, gamma=0 %.3f, knapp %.3f'
            % (['%.3f' % s for s in blow], flat_fit.slope,
               knapp_fit.slope), elapsed)
    assert ok_blow, blow
    assert ok_flat, flat_fit
    assert ok_knapp, knapp_fit
    assert no_excess
    assert elapsed < 300.0


def test_criterion_8_exponent_regions(_verdict):
    t0 = time.time()
    xs = np.arange(100) / 128.0
    dual_exact = True
    for d in (2, 3):
        for x in xs:
            for y in xs:
                if rg.gamma(P(x, y, d)) \
                        != rg.gamma(P(1.0 - y, 1.0 - x, d)):
                    dual_exact = False

    table_ok = (
        not rg.membership(P(0.75, 0.25, 3), 'R0_half')
        and rg.membership(P(0.75, 0.25, 3), 'R1')
        and rg.membership(P(0.75, 0.25, 3), 'P_set')
        and rg.membership(P(0.5, 0.5, 2), 'R0_half')
        and not rg.membership(P(0.5, 0.5, 3), 'R1')
        and rg.membership(P(1.0, 0.0, 2), 'P_set')
        and not rg.membership(P(1.0, 2.0 / 3.0, 3), 'R0_half')
        and not rg.membership(P(2.0 / 3.0, 0.0, 3), 'R1'))

    empty_ok = True
    for pair in (P(0.75, 0.25, 2), P(2.0 / 3.0, 1.0 / 3.0, 3)):
        assert rg.alpha(pair) == 0.0
        try:
            rg.z_region(rg.RegionQuery(pair, ell=0.5), 1j)
            empty_ok = False
        except EmptyRegion:
            pass

    cone = rg.RegionQuery(P(0.75, 0.25, 2), ell=2.0)
    b = rg.z_boundary(cone)
    kap = [rg.kappa(cone.pair, w) for w in b
           if abs(w) > 1e-9 and w.imag != 0]
    cone_defect = max(abs(k - 2.0) for k in kap)

    elapsed = time.time() - t0
    passed = dual_exact and table_ok and empty_ok \
        and cone_defect < 1e-10 and elapsed < 10.0
    _report(_verdict, 8, 'exponent regions', passed,
            'duality exact on 100x100 dyadic lattice, cone defect %.2e'
            % cone_defect, elapsed)
    assert dual_exact
    assert table_ok
    assert empty_ok
    assert cone_defect < 1e-10
    assert elapsed < 10.0


def test_criterion_9_mutation_detection(_verdict):
    t0 = time.time()
    rng = np.random.default_rng(109)
    entries = [(i, j) for i in range(6) for j in range(6)
               if (i, j) not in verify.M3_ZERO_ENTRIES]
    picks = [entries[k] for k in
             rng.choice(len(entries), size=10, replace=False)]
    caught = []
    for entry in picks:
        rep = verify.inverse_suite(rng, 20_000, dim=3, flip_entry=entry)
        # the witness records where p.M - I is worst, which need not be
        # the mutated coefficient entry; catching means the suite fails
        caught.append(not rep.passed and rep.witness['entry'] is not None)
    elapsed = time.time() - t0
    passed = all(caught) and elapsed < 120.0
    _report(_verdict, 9, 'mutation detection', passed,
            '%d/10 sign mutations caught with matching witness'
            % sum(caught), elapsed)
    assert all(caught), list(zip(picks, caught))
    assert elapsed < 120.0

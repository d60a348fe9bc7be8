"""Randomized verification suites for the closed-form symbol machinery.

Two suites are provided, both vectorized over large random point sets
and evaluated in cache-sized blocks of points (symbol._blocks), so their
memory does not grow with the number of points:

* :func:`diagonalization_suite` checks p = m d m^{-1} pointwise, the 2D
  normalization det m = -1, and the constancy of the 3D renormalized
  determinant |det m| / alpha^4 against frozen per-material brackets.
* :func:`inverse_suite` checks the master identity p (M + M_c) = I for
  ``resolvent_matrix``, which is ``multiplier._apply`` on the identity:
  the apply that ``solve`` and the LAP run on lattice coefficients.  It
  covers the isotropic case, the axis guard band and the near-axis
  fallback (direct 6x6 inversion).  Its ``flip_entry`` fault-injection
  hook (``_flip``) negates one entry of the 3D term sum; a single sign
  error anywhere must fail the suite, with a witness point.
"""

from dataclasses import dataclass, field

import numpy as np

from .materials import Material2, Material3
from .multiplier import _apply, _rmatmul, resolvent_matrix
from .symbol import AXIS_GUARD, _blocks, _eigen_basis, near_axis, symbol_p

# Default materials exercised by both suites.  The first entry of each
# list is isotropic; the others are genuinely anisotropic.
MATERIALS_2D = (
    Material2(1.0, 0.0, 1.0),
    Material2(2.0, 0.3, 1.2, mu=0.8),
    Material2(1.5, -0.4, 0.9, mu=1.3),
)
MATERIALS_3D = (
    Material3(1.0, 1.0),
    Material3(0.5, 1.0 / 0.7),      # a = 2.0, b = 0.7
    Material3(2.5, 0.8),            # a = 0.4, b = 1.25
)

# Frozen brackets for the constant |det m| / alpha^4, keyed by (a, b)
# rounded to 12 digits.  Measured once over 10^6 wavevectors per
# material (observed spread < 2e-13); the constant is xi-independent,
# so the brackets are tight.
DET3_BRACKETS = {
    (1.0, 1.0): (4.0 - 1e-10, 4.0 + 1e-10),
    (2.0, 0.7): (3.4149388838125 - 1e-10, 3.4149388838126 + 1e-10),
    (0.4, 1.25): (7.1554175279993 - 1e-10, 7.1554175279994 + 1e-10),
}

# 3D matrix entries that are identically zero; a sign flip there is
# unobservable, so the fault-injection hook refuses them.
M3_ZERO_ENTRIES = ((0, 3), (3, 0))


def _bracket_key(mat):
    return (round(mat.a, 12), round(mat.b, 12))


@dataclass
class SuiteReport:
    """Outcome of one randomized suite."""

    name: str
    count: int
    max_defect: float
    tolerance: float
    passed: bool
    witness: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _random_xi(rng, n, dim, axis_fraction=0.0):
    """Random wavevectors.  In 3D a fraction is squeezed onto the axis
    (inverted directly), and as many are drawn in the guard band
    s^2/|xi|^2 in [AXIS_GUARD, 1e-6), where the closed form is used;
    both sets alternate on evenly spaced rows, so every run of n/8 rows
    holds some of each."""
    xi = rng.normal(0.0, 2.0, size=(n, dim))
    xi[np.abs(xi).max(axis=1) < 1e-3] += 1.0
    if dim == 3 and axis_fraction > 0:
        k = int(n * axis_fraction)
        rows = np.linspace(0, n, 2 * k, endpoint=False).astype(int)
        xi[rows[0::2], 1:] *= 1e-6
        band = xi[rows[1::2]]
        band[np.abs(band[:, 0]) < 1e-3, 0] = 1.0
        r = AXIS_GUARD * 10.0 ** rng.uniform(0.0, 2.0, (k, 1))
        band[:, 1:] *= np.sqrt(r / (1.0 - r) * band[:, :1] ** 2
                               / (band[:, 1:] ** 2).sum(1, keepdims=True))
        xi[rows[1::2]] = band
    return xi


def _random_omega(rng, n):
    re = rng.uniform(-4.0, 4.0, size=n)
    im = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return re + 1j * im


def _points(n_points, dim, least, flip_entry=None):
    """(materials, ncomp, points per material) of a suite, after checking
    that there are at least ``least`` points per material and that
    ``flip_entry`` is None or a nonzero entry (i, j) of the 3D inverse
    symbol; a bad value raises a ValueError that names it."""
    mats = MATERIALS_2D if dim == 2 else MATERIALS_3D
    per = n_points // len(mats)
    if per < least:
        raise ValueError("n_points = %d gives %d points per material, "
                         "fewer than %d" % (n_points, per, least))
    if flip_entry is not None and (
            dim != 3 or tuple(flip_entry) in M3_ZERO_ENTRIES
            or tuple(flip_entry) not in np.ndindex(6, 6)):
        raise ValueError("flip_entry %r is not a nonzero entry i,j "
                         "(0-based) of the 3D inverse symbol" % (flip_entry,))
    return mats, 3 * (dim - 1), per


def _flip(M, omega, xi, mat, entry):
    """Fault injection, in place: negate entry (i, j) of the 3D term sum
    sum_j W_j s_j in M, that is of _apply on column j without M_c."""
    i, j = entry
    col = np.eye(6, dtype=complex)[:, j, None]
    M[:, i, j] -= 2 * _apply([omega], xi, col, mat, skip=(0, 1))[:, i, 0]


def _worst(defect):
    """(index, value) of the largest defect, a NaN counting as infinite:
    a NaN is a failed check, never a skipped one."""
    defect = np.where(np.isnan(defect), np.inf, defect)
    i = int(np.argmax(defect))
    return i, float(defect[i])


def diagonalization_suite(rng, n_points=100_000, dim=2, tol=1e-12,
                          det_tol=1e-12):
    """Check p = m d m^{-1} and the determinant normalizations on the real
    eigenbasis that the solvers use, block by block (symbol._blocks).
    A failed check names its worst point: the worst reconstruction, else
    the determinant furthest from its target."""
    mats, ncomp, per = _points(n_points, dim, 1)
    worst, witness = 0.0, {}
    # 2D: the worst |det m + 1|; 3D: the worst signed distance outside a
    # bracket (negative inside)
    det_worst, det_witness = 0.0, {}
    extras = {}
    for mat in mats:
        xi = _random_xi(rng, per, dim)
        omega = _random_omega(rng, per)
        if dim == 3:
            key = _bracket_key(mat)
            lo, hi = DET3_BRACKETS[key]
            lows, highs = [], []
        for blk in _blocks(per, ncomp):
            xs, om = xi[blk], omega[blk]
            m, minv, rho = _eigen_basis(xs, mat)
            p = symbol_p(om, xs, mat)
            # (m d) m^{-1} as one real product on the transposes,
            # m^{-T} (m d)^T, with (m d)^T built contiguous
            md_t = np.multiply(m.swapaxes(1, 2),
                               1j * (om[:, None] + rho)[..., None], order='C')
            recon = _rmatmul(minv.swapaxes(1, 2), md_t).swapaxes(1, 2)
            scale = np.abs(p).max(axis=(1, 2)) + 1.0
            i, defect = _worst(np.abs(recon - p).max(axis=(1, 2)) / scale)
            if defect > worst or not witness:
                worst = defect
                witness = {'omega': complex(om[i]), 'xi': xs[i].tolist(),
                           'material': repr(mat)}
            dets = np.linalg.det(m)
            if dim == 2:
                excess = np.abs(dets + 1.0)
            else:
                ratio = np.abs(dets)
                lows.append(ratio.min())
                highs.append(ratio.max())
                excess = np.maximum(lo - ratio, ratio - hi)
            j, excess = _worst(excess)
            if excess > det_worst or not det_witness:
                det_worst = excess
                det_witness = {'xi': xs[j].tolist(), 'material': repr(mat)}
                if dim == 2:
                    det_witness['det_defect'] = det_worst
                else:
                    det_witness.update(det_ratio=float(ratio[j]),
                                       bracket=(lo, hi))
        if dim == 3:
            extras['det_ratio_%s' % key[0]] = (float(min(lows)),
                                               float(max(highs)))
    if dim == 2:
        extras['det_defect'] = det_worst
        det_ok = det_worst < det_tol
    else:
        det_ok = det_worst <= 0.0
    passed = worst < tol and det_ok
    if passed:
        witness = {}
    elif worst < tol:
        witness = det_witness
    return SuiteReport(name='diagonalization_%dd' % dim,
                       count=per * len(mats), max_defect=worst,
                       tolerance=tol, passed=passed, witness=witness,
                       extras=extras)


def inverse_suite(rng, n_points=100_000, dim=2, tol=1e-10, flip_entry=None):
    """Check p (M + M_c) = I for the closed-form inverse symbol, on
    per-omega batches split into blocks (symbol._blocks)."""
    mats, ncomp, per = _points(n_points, dim, 8, flip_entry)
    worst, witness = 0.0, {}
    eye = np.eye(ncomp)
    for mat in mats:
        xi = _random_xi(rng, per, dim, axis_fraction=0.02 if dim == 3 else 0.0)
        omegas = _random_omega(rng, per)
        # closed form wants one scalar omega per batch: 8 batches, the
        # last one taking the remainder
        size = per // 8
        for k in range(0, 8 * size, size):
            omega = complex(omegas[k])
            batch = xi[k:per if k == 7 * size else k + size]
            for blk in _blocks(len(batch), ncomp):
                xs = batch[blk]
                p = symbol_p(omega, xs, mat)
                axis = near_axis(xs)
                # near-axis fallback: the closed form at a placeholder
                # off-axis direction, overwritten by direct 6x6 inversion
                off = np.where(axis[:, None], 1.0, xs)
                M = resolvent_matrix(omega, off, mat)
                if flip_entry is not None:
                    _flip(M, omega, off, mat, flip_entry)
                M[axis] = np.linalg.inv(p[axis])
                prod = p @ M
                scale = (np.abs(p).max(axis=(1, 2))
                         * np.abs(M).max(axis=(1, 2)) + 1.0)
                i, defect = _worst(np.abs(prod - eye).max(axis=(1, 2))
                                   / scale)
                if defect > worst or not witness:
                    worst = defect
                    ij = divmod(int(np.argmax(np.abs(prod[i] - eye))), ncomp)
                    witness = {'omega': omega, 'xi': xs[i].tolist(),
                               'entry': ij, 'material': repr(mat)}
    passed = worst < tol
    return SuiteReport(name='inverse_%dd' % dim, count=per * len(mats),
                       max_defect=worst, tolerance=tol, passed=passed,
                       witness=witness if not passed else {})


def run_all(seed=0, n_points=100_000, flip_entry=None):
    """Run every suite, after checking the inputs; returns the reports."""
    _points(n_points, 3, 8, flip_entry)
    rng = np.random.default_rng(seed)
    return [diagonalization_suite(rng, n_points, dim=2),
            diagonalization_suite(rng, n_points, dim=3),
            inverse_suite(rng, n_points, dim=2),
            inverse_suite(rng, n_points, dim=3, flip_entry=flip_entry)]

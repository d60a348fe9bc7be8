"""Randomized verification suites for the closed-form symbol machinery.

Two suites are provided, both vectorized over large random point sets:

* :func:`diagonalization_suite` checks p = m d m^{-1} pointwise, the 2D
  normalization det m = -1, and the constancy of the 3D renormalized
  determinant |det m| / alpha^4 against frozen per-material brackets.
* :func:`inverse_suite` checks the master identity p (M + M_c) = I for
  the closed-form inverse (m d^{-1} m^{-1} through the eigenprojectors
  of ``multiplier``), including the isotropic case and the near-axis
  fallback (direct 6x6 inversion).

``inverse_suite`` accepts a ``flip_entry`` fault-injection hook that
negates one entry of the 3D term sum sum_j W_j s_j, leaving the charge
part M_c as it is; a single sign error anywhere must blow the identity
far past tolerance and be reported with a witness point.
"""

from dataclasses import dataclass, field

import numpy as np

from .materials import Material2, Material3
from .multiplier import M3_ZERO_ENTRIES, resolvent_matrix
from .symbol import eigen_decomposition, near_axis, symbol_p

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
    """Random wavevectors; a fraction is squeezed onto the axis (3D)."""
    xi = rng.normal(0.0, 2.0, size=(n, dim))
    xi[np.abs(xi).max(axis=1) < 1e-3] += 1.0
    if dim == 3 and axis_fraction > 0:
        k = int(n * axis_fraction)
        xi[:k, 1:] *= 1e-6
    return xi


def _random_omega(rng, n):
    re = rng.uniform(-4.0, 4.0, size=n)
    im = rng.uniform(0.2, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return re + 1j * im


def diagonalization_suite(rng, n_points=100_000, dim=2, tol=1e-12,
                          det_tol=1e-12):
    """Check p = m d m^{-1} and the determinant normalizations."""
    mats = MATERIALS_2D if dim == 2 else MATERIALS_3D
    per = n_points // len(mats)
    worst = 0.0
    witness = {}
    det_defect = 0.0
    det_ok = True
    extras = {}
    for mat in mats:
        xi = _random_xi(rng, per, dim)
        omega = _random_omega(rng, per)
        m, d, m_inv = eigen_decomposition(omega, xi, mat)
        p = symbol_p(omega, xi, mat)
        # m d m^{-1} as (m * diag d) m^{-1}, written into d's buffer so
        # that no further (n, m, m) array is held
        recon = np.matmul(m * np.diagonal(d, axis1=1, axis2=2)[:, None, :],
                          m_inv, out=d)
        scale = np.abs(p).max(axis=(1, 2)) + 1.0
        defect = np.abs(recon - p).max(axis=(1, 2)) / scale
        i = int(np.argmax(defect))
        if defect[i] > worst:
            worst = float(defect[i])
            witness = {'omega': complex(omega[i]), 'xi': xi[i].tolist(),
                       'material': repr(mat)}
        dets = np.linalg.det(m)
        if dim == 2:
            det_defect = max(det_defect, float(np.abs(dets + 1.0).max()))
        else:
            lo, hi = DET3_BRACKETS[_bracket_key(mat)]
            ratio = np.abs(dets)
            extras['det_ratio_%s' % _bracket_key(mat)[0]] = (
                float(ratio.min()), float(ratio.max()))
            if ratio.min() < lo or ratio.max() > hi:
                det_ok = False
    if dim == 2:
        extras['det_defect'] = det_defect
        det_ok = det_defect < det_tol
    passed = worst < tol and det_ok
    return SuiteReport(name='diagonalization_%dd' % dim,
                       count=per * len(mats), max_defect=worst,
                       tolerance=tol, passed=passed,
                       witness=witness if not passed else {},
                       extras=extras)


def inverse_suite(rng, n_points=100_000, dim=2, tol=1e-10, flip_entry=None):
    """Check p (M + M_c) = I for the closed-form inverse symbol."""
    mats = MATERIALS_2D if dim == 2 else MATERIALS_3D
    per = n_points // len(mats)
    worst = 0.0
    witness = {}
    ncomp = 3 if dim == 2 else 6
    eye = np.eye(ncomp)
    for mat in mats:
        xi = _random_xi(rng, per, dim, axis_fraction=0.02 if dim == 3 else 0.0)
        omegas = _random_omega(rng, per)
        # closed form wants one scalar omega per batch; stratify
        for k in range(0, per, per // 8):
            sl = slice(k, k + per // 8)
            omega = complex(omegas[k])
            xs = xi[sl]
            p = symbol_p(omega, xs, mat)
            axis = near_axis(xs)
            M = np.empty_like(p)
            M[~axis] = resolvent_matrix(omega, xs[~axis], mat,
                                        flip_entry=flip_entry)
            # near-axis fallback: direct 6x6 inversion
            M[axis] = np.linalg.inv(p[axis])
            prod = np.einsum('nij,njk->nik', p, M)
            scale = (np.abs(p).max(axis=(1, 2))
                     * np.abs(M).max(axis=(1, 2)) + 1.0)
            defect = np.abs(prod - eye).max(axis=(1, 2)) / scale
            i = int(np.argmax(defect))
            if defect[i] > worst:
                worst = float(defect[i])
                ij = np.unravel_index(np.argmax(np.abs(prod[i] - eye)),
                                      prod[i].shape)
                witness = {'omega': omega, 'xi': xs[i].tolist(),
                           'entry': tuple(int(v) for v in ij),
                           'material': repr(mat)}
    passed = worst < tol
    return SuiteReport(name='inverse_%dd' % dim, count=per * len(mats),
                       max_defect=worst, tolerance=tol, passed=passed,
                       witness=witness if not passed else {})


def run_all(seed=0, n_points=100_000, flip_entry=None):
    """Run every suite; returns the list of reports."""
    rng = np.random.default_rng(seed)
    reports = [diagonalization_suite(rng, n_points, dim=2),
               diagonalization_suite(rng, n_points, dim=3),
               inverse_suite(rng, n_points, dim=2),
               inverse_suite(rng, n_points, dim=3, flip_entry=flip_entry)]
    return reports

"""Closed-form inverse symbol (resolvent) from the symbol's eigenbasis.

``symbol`` diagonalizes the Maxwell symbol as p = m d m^{-1} with a real,
frequency-independent eigenbasis m(xi), so the inverse symbol is
m d^{-1} m^{-1}.  Split by eigenvector column it is one list of terms
plus a charge part,

    M + M_c = sum_j W_j(xi) s_j(omega, xi) + M_c,

with the rank-one eigenprojectors W_j = m[:, c] m^{-1}[c, :] of the
propagating columns c = j + d - 1, their scalar resolvents s_j = 1/d_c,

    2D:  s = (A, B),  A = 1/(i(omega - |xi|_w)),  B = 1/(i(omega + |xi|_w))
    3D:  s = (A, B, C, D),  A, B as above with sqrt(b)|xi|; C, D with |xi|_e

and M_c = sum_{c < d-1} m[:, c] m^{-1}[c, :] / (i omega) the charge
(non-solenoidal) part.  Columns d - 1 + 2k and d + 2k are singular on
sphere k, { <xi, q_k xi> = omega^2 } with q_k from ``sphere_qforms``;
at real omega != 0 the singular one is d - 1 + 2k + (omega < 0).

Every evaluator starts from the factors (m, w, m^{-1}) of ``_factors``,
w = d^{-1} with the skipped columns set to 0: ``resolvent_matrix`` and
``regular_matrix`` (singular columns skipped) assemble (m w) m^{-1},
``singular_weights`` returns the projectors of the singular columns, which
the limiting-absorption machinery weights by principal values and
surface deltas, and ``spectral`` applies the factors to lattice
coefficients without assembling matrices.  Every evaluator is
vectorized over a leading batch of wavevectors.
"""

import numpy as np

from .errors import RealFrequency
from .symbol import _eigen_basis

# 3D matrix entries that are identically zero; a sign flip there is
# unobservable, so fault-injection sampling skips them.
M3_ZERO_ENTRIES = ((0, 3), (3, 0))


def _rmatmul(a, z):
    """a @ z for real a and complex z, as one real product on the
    interleaved (re, im) pairs of z's last axis."""
    return (a @ np.ascontiguousarray(z).view(float)).view(complex)


def _factors(omega, xi, mat, skip=()):
    """(m, w, m_inv): the real eigenbasis and w = d^{-1} per column, with
    the columns in ``skip`` set to 0."""
    m, minv, rho = _eigen_basis(xi, mat)
    # at real omega a lattice mode can sit exactly on the singular
    # sphere; the inf lands in a skipped column
    with np.errstate(divide='ignore', invalid='ignore'):
        w = 1.0 / (1j * (omega + rho))
    w[..., list(skip)] = 0
    return m, w, minv


def sphere_qforms(mat):
    """Quadratic forms q_k of the characteristic spheres: sphere k is
    { <xi, q_k xi> = omega^2 }, where columns d - 1 + 2k and d + 2k of
    the eigenbasis are singular."""
    if mat.dim == 2:
        return [mat.qform]
    return [mat.b * np.eye(3), mat.qform]


def _singular_columns(omega, mat):
    """Eigenbasis columns d - 1 + 2k + (omega < 0), one per sphere k,
    whose eigenvalue vanishes on the sphere at real omega; one sphere in
    2D, two in 3D."""
    return range(mat.dim - 1 + int(omega < 0), 3 * (mat.dim - 1), 2)


def _assemble(omega, xi, mat, skip=(), flip_entry=None):
    """(m w) m_inv: sum_j W_j s_j over the columns not in ``skip``, plus
    M_c.  flip_entry=(i, j) negates entry (i, j) of the term sum (M_c is
    left as it is); this fault-injection hook exists for the verification
    suite's mutation test and must stay None in production use."""
    m, w, minv = _factors(omega, xi, mat, skip)
    M = _rmatmul(m, w[..., :, None] * minv)
    if flip_entry is not None:
        i, j = flip_entry
        c = slice(mat.dim - 1, None)
        M[..., i, j] -= 2 * np.einsum('...c,...c,...c->...', m[..., i, c],
                                      w[..., c], minv[..., c, j])
    return M


def resolvent_matrix(omega, xi, mat, flip_entry=None):
    """Full inverse symbol M + M_c at Im(omega) != 0.

    Raises DegenerateDirection at xi = 0 and near the 3D distinguished
    axis, where the caller inverts the symbol directly.  ``flip_entry``
    is the fault-injection hook of _assemble.
    """
    if omega.imag == 0:
        raise RealFrequency("unsplit resolvent needs Im(omega) != 0")
    return _assemble(omega, xi, mat, flip_entry=flip_entry)


def regular_matrix(omega, xi, mat):
    """Resolvent at real omega with every singular term removed: the
    smooth background, to which the singular spheres add principal-value
    and surface terms through their singular_weights."""
    omega = float(omega)
    return _assemble(omega, xi, mat, skip=_singular_columns(omega, mat))


def singular_weights(omega, xi, mat):
    """[(W, q_k)] per characteristic sphere k: the real eigenprojector
    W = m[:, c] m_inv[c, :] of the column c singular at real omega, and
    the sphere's quadratic form."""
    m, minv, _ = _eigen_basis(xi, mat)
    cols = _singular_columns(omega, mat)
    return [(m[..., :, c, None] * minv[..., None, c, :], q)
            for c, q in zip(cols, sphere_qforms(mat))]

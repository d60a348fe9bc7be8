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
sphere k, { <xi, q_k xi> = omega^2 } with q_k = mat.sphere_qforms[k];
at real omega != 0 the singular one is d - 1 + 2k + (omega < 0).

``_apply(xi, c, mat, w)`` is the one apply of a function of the
symbol's eigenvalues: m (w(rho) * (m^{-1} c)) on columns c, with one
scalar per eigenbasis column from w.  The inverse symbol is w = d^{-1}
= 1 / (i(omega + rho)) from ``_scalar_resolvents`` (skipped columns 0):
``solve`` and the LAP run it on lattice coefficients
(``spectral._solve_coeffs``), and
``resolvent_matrix``, which ``verify`` checks, on the identity.  The
LAP's Sokhotsky factors are the indicator of a singular column times
a constant.  All are vectorized over a leading batch of wavevectors.
"""

import numpy as np

from . import symbol
from .errors import RealFrequency


def _rmatmul(a, z):
    """a @ z for real a and complex z, as one real product on the
    interleaved (re, im) pairs of z's last axis."""
    return (a @ np.ascontiguousarray(z).view(float)).view(complex)


def _scalar_resolvents(omega, rho, skip=()):
    """w = 1 / (i(omega + rho)) per column, at one omega or one per row
    of rho, with the columns in ``skip`` set to 0."""
    # the inf of a mode exactly on a sphere (real omega) is in a skipped column
    with np.errstate(divide='ignore', invalid='ignore'):
        w = 1 / (1j * (np.asarray(omega)[..., None] + rho))
    w[..., list(skip)] = 0
    return w


def _singular_columns(omega, mat):
    """Eigenbasis columns d - 1 + 2k + (omega < 0), one per sphere k,
    whose eigenvalue vanishes on the sphere at real omega; one sphere in
    2D, two in 3D."""
    return range(mat.dim - 1 + int(omega < 0), 3 * (mat.dim - 1), 2)


def _apply(xi, c, mat, w):
    """m (w(rho) * (m^{-1} c)) off the axis on c of shape (..., ncomp, k):
    w maps rho (..., ncomp), the symbol's eigenvalues i(omega + rho), to
    one scalar per eigenbasis column."""
    m, minv, rho = symbol._eigen_basis(xi, mat)
    return _rmatmul(m, w(rho)[..., None] * _rmatmul(minv, c))


def resolvent_matrix(omega, xi, mat):
    """Full inverse symbol M + M_c at Im(omega) != 0: _apply on I, at one
    omega or one per wavevector of xi, as symbol_p.

    Raises DegenerateDirection at xi = 0 and near the 3D distinguished
    axis, where the caller inverts the symbol directly.
    """
    if np.any(np.imag(symbol._frequency(omega)) == 0):
        raise RealFrequency("unsplit resolvent needs Im(omega) != 0")
    return _apply(xi, np.eye(3 * (mat.dim - 1), dtype=complex), mat,
                  lambda rho: _scalar_resolvents(omega, rho))


"""Closed-form inverse-symbol (resolvent) matrices.

The inverse of the Maxwell symbol is one list of terms plus a charge
part,

    M + M_c = sum_j W_j(xi) s_j(omega, xi) + M_c,

with the scalar resolvents

    2D:  s = (A, B),  A = 1/(i(omega - |xi|_w)),  B = 1/(i(omega + |xi|_w))
    3D:  s = (A, B, C, D),  A, B as above with sqrt(b)|xi|; C, D with |xi|_e

zero-homogeneous, frequency-independent coefficient matrices W_j, and
M_c carrying the charge (non-solenoidal) contribution with a plain
1/(i omega) factor.  Term pair (2k, 2k+1) is singular on sphere k,
{ <xi, q_k xi> = omega^2 } with q_k from ``sphere_qforms``; at real
omega != 0 the singular term is 2k + (omega < 0).  Every evaluator is a
selection over the list: ``resolvent_matrix`` sums all of it,
``regular_matrix`` drops the singular terms and ``singular_weights``
returns their coefficient matrices, which is what the
limiting-absorption machinery needs: at real omega each singular scalar
factors into a principal value plus a surface-delta term.

Every evaluator is vectorized over a leading batch of wavevectors.
"""

import numpy as np

from .errors import RealFrequency
from .symbol import _check_offaxis, norm_eps, norm_eps_prime

# 3D matrix entries that are identically zero; a sign flip there is
# unobservable, so fault-injection sampling skips them.
M3_ZERO_ENTRIES = ((0, 3), (3, 0))


def scalar_resolvent_values(omega, xi, mat):
    """The scalar resolvents (A, B) in 2D or (A, B, C, D) in 3D."""
    xi = np.asarray(xi, dtype=float)
    # at real omega a lattice mode can sit exactly on the singular
    # sphere; the inf lands in a scalar the caller discards
    with np.errstate(divide='ignore', invalid='ignore'):
        if mat.dim == 2:
            n = norm_eps_prime(xi, mat)
            return 1.0 / (1j * (omega - n)), 1.0 / (1j * (omega + n))
        n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
        ne = norm_eps(xi, mat)
        sb = np.sqrt(mat.b)
        return (1.0 / (1j * (omega - sb * n)), 1.0 / (1j * (omega + sb * n)),
                1.0 / (1j * (omega - ne)), 1.0 / (1j * (omega + ne)))


def _m2_coeffs(xi, mat):
    """Coefficient matrices (WA, WB) of the scalar resolvents A, B."""
    e = mat.eps_inv
    e11, e12, e22 = e[0, 0], e[0, 1], e[1, 1]
    mu = mat.mu
    n = norm_eps_prime(xi, mat)
    x1p = xi[..., 0] / n
    x2p = xi[..., 1] / n
    shape = xi.shape[:-1]
    WA = np.zeros(shape + (3, 3), dtype=complex)
    WB = np.zeros(shape + (3, 3), dtype=complex)
    sym00 = (x2p ** 2 * e11 - x1p * x2p * e12) / (2 * mu)
    sym01 = (x2p ** 2 * e12 - x1p * x2p * e22) / (2 * mu)
    sym10 = (x1p ** 2 * e12 - x1p * x2p * e11) / (2 * mu)
    sym11 = (x1p ** 2 * e22 - x1p * x2p * e12) / (2 * mu)
    for W in (WA, WB):
        W[..., 0, 0] = sym00
        W[..., 0, 1] = sym01
        W[..., 1, 0] = sym10
        W[..., 1, 1] = sym11
        W[..., 2, 2] = 0.5
    WA[..., 0, 2] = x2p / (2 * mu)
    WB[..., 0, 2] = -x2p / (2 * mu)
    WA[..., 1, 2] = -x1p / (2 * mu)
    WB[..., 1, 2] = x1p / (2 * mu)
    anti20 = (x2p * e11 - x1p * e12) / 2
    anti21 = (x1p * e22 - x2p * e12) / 2
    WA[..., 2, 0] = anti20
    WB[..., 2, 0] = -anti20
    WA[..., 2, 1] = -anti21
    WB[..., 2, 1] = anti21
    return WA, WB


def m2c_matrix(omega, xi, mat):
    """Charge part M_c of the 2D inverse symbol."""
    xi = np.asarray(xi, dtype=float)
    e = mat.eps_inv
    e11, e12, e22 = e[0, 0], e[0, 1], e[1, 1]
    n = norm_eps_prime(xi, mat)
    x1p = xi[..., 0] / n
    x2p = xi[..., 1] / n
    M = np.zeros(xi.shape[:-1] + (3, 3), dtype=complex)
    M[..., 0, 0] = e22 * x1p ** 2 - e12 * x1p * x2p
    M[..., 0, 1] = e22 * x1p * x2p - e12 * x2p ** 2
    M[..., 1, 0] = e11 * x1p * x2p - e12 * x1p ** 2
    M[..., 1, 1] = e11 * x2p ** 2 - e12 * x1p * x2p
    M *= 1.0 / (1j * omega * mat.mu)
    return M


def _m3_coeffs(xi, mat, flip_entry=None):
    """Coefficient matrices (WA, WB, WC, WD) of the 3D scalar resolvents.

    flip_entry=(i, j) negates entry (i, j) of the assembled matrix; this
    fault-injection hook exists for the verification suite's mutation
    test and must stay None in production use.
    """
    a, b = mat.a, mat.b
    sb = np.sqrt(b)
    n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
    ne = norm_eps(xi, mat)
    x1, x2, x3 = xi[..., 0], xi[..., 1], xi[..., 2]
    s = x2 ** 2 + x3 ** 2
    x1p, x2p, x3p = x1 / n, x2 / n, x3 / n
    t1, t2, t3 = x1 / ne, x2 / ne, x3 / ne
    sp = x2p ** 2 + x3p ** 2
    st = t2 ** 2 + t3 ** 2
    shape = xi.shape[:-1]
    WA = np.zeros(shape + (6, 6), dtype=complex)
    WB = np.zeros(shape + (6, 6), dtype=complex)
    WC = np.zeros(shape + (6, 6), dtype=complex)
    WD = np.zeros(shape + (6, 6), dtype=complex)

    def sym(W1, W2, i, j, val):
        W1[..., i, j] = W1[..., i, j] + val
        W2[..., i, j] = W2[..., i, j] + val

    def anti(W1, W2, i, j, val):
        W1[..., i, j] = W1[..., i, j] + val
        W2[..., i, j] = W2[..., i, j] - val

    # row 0 (electric 1)
    sym(WC, WD, 0, 0, a * st / 2)
    sym(WC, WD, 0, 1, -b * t1 * t2 / 2)
    sym(WC, WD, 0, 2, -b * t1 * t3 / 2)
    anti(WD, WC, 0, 4, t3 / 2)
    anti(WC, WD, 0, 5, t2 / 2)
    # row 1 (electric 2)
    sym(WC, WD, 1, 0, -a * t1 * t2 / 2)
    sym(WA, WB, 1, 1, x3 ** 2 / (2 * s))
    sym(WC, WD, 1, 1, b * t1 ** 2 * x2 ** 2 / (2 * s))
    sym(WA, WB, 1, 2, -x2 * x3 / (2 * s))
    sym(WC, WD, 1, 2, b * t1 ** 2 * x2 * x3 / (2 * s))
    anti(WA, WB, 1, 3, x3p / (2 * sb))
    anti(WB, WA, 1, 4, x1p * x2 * x3 / (2 * sb * s))
    anti(WC, WD, 1, 4, t1 * x2 * x3 / (2 * s))
    anti(WB, WA, 1, 5, x1p * x3 ** 2 / (2 * sb * s))
    anti(WD, WC, 1, 5, t1 * x2 ** 2 / (2 * s))
    # row 2 (electric 3)
    sym(WC, WD, 2, 0, -a * t1 * t3 / 2)
    sym(WA, WB, 2, 1, -x2 * x3 / (2 * s))
    sym(WC, WD, 2, 1, b * t1 ** 2 * x2 * x3 / (2 * s))
    sym(WA, WB, 2, 2, x2 ** 2 / (2 * s))
    sym(WC, WD, 2, 2, b * t1 ** 2 * x3 ** 2 / (2 * s))
    anti(WB, WA, 2, 3, x2p / (2 * sb))
    anti(WA, WB, 2, 4, x1p * x2 ** 2 / (2 * sb * s))
    anti(WC, WD, 2, 4, t1 * x3 ** 2 / (2 * s))
    anti(WA, WB, 2, 5, x1p * x2 * x3 / (2 * sb * s))
    anti(WD, WC, 2, 5, t1 * x2 * x3 / (2 * s))
    # row 3 (magnetic 1)
    anti(WA, WB, 3, 1, sb * x3p / 2)
    anti(WB, WA, 3, 2, sb * x2p / 2)
    sym(WA, WB, 3, 3, sp / 2)
    sym(WA, WB, 3, 4, -x1p * x2p / 2)
    sym(WA, WB, 3, 5, -x1p * x3p / 2)
    # row 4 (magnetic 2)
    anti(WD, WC, 4, 0, a * t3 / 2)
    anti(WB, WA, 4, 1, sb * x1p * x2 * x3 / (2 * s))
    anti(WC, WD, 4, 1, b * t1 * x2 * x3 / (2 * s))
    anti(WA, WB, 4, 2, sb * x1p * x2 ** 2 / (2 * s))
    anti(WC, WD, 4, 2, b * t1 * x3 ** 2 / (2 * s))
    sym(WA, WB, 4, 3, -x1p * x2p / 2)
    sym(WA, WB, 4, 4, x1p ** 2 * x2 ** 2 / (2 * s))
    sym(WC, WD, 4, 4, x3 ** 2 / (2 * s))
    sym(WA, WB, 4, 5, x1p ** 2 * x2 * x3 / (2 * s))
    sym(WC, WD, 4, 5, -x2 * x3 / (2 * s))
    # row 5 (magnetic 3)
    anti(WC, WD, 5, 0, a * t2 / 2)
    anti(WB, WA, 5, 1, sb * x1p * x3 ** 2 / (2 * s))
    anti(WD, WC, 5, 1, b * t1 * x2 ** 2 / (2 * s))
    anti(WA, WB, 5, 2, sb * x1p * x2 * x3 / (2 * s))
    anti(WD, WC, 5, 2, b * t1 * x2 * x3 / (2 * s))
    sym(WA, WB, 5, 3, -x1p * x3p / 2)
    sym(WA, WB, 5, 4, x1p ** 2 * x2 * x3 / (2 * s))
    sym(WC, WD, 5, 4, -x2 * x3 / (2 * s))
    sym(WA, WB, 5, 5, x1p ** 2 * x3 ** 2 / (2 * s))
    sym(WC, WD, 5, 5, x2 ** 2 / (2 * s))

    if flip_entry is not None:
        i, j = flip_entry
        for W in (WA, WB, WC, WD):
            W[..., i, j] = -W[..., i, j]
    return WA, WB, WC, WD


def m3c_matrix(omega, xi, mat):
    """Charge part M_c of the 3D inverse symbol."""
    xi = np.asarray(xi, dtype=float)
    a, b = mat.a, mat.b
    n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
    ne = norm_eps(xi, mat)
    xp = xi / n[..., None]
    xt = xi / ne[..., None]
    M = np.zeros(xi.shape[:-1] + (6, 6), dtype=complex)
    w = np.stack([b * xt[..., 0], a * xt[..., 1], a * xt[..., 2]], axis=-1)
    M[..., :3, :3] = w[..., :, None] * xt[..., None, :]
    M[..., 3:, 3:] = xp[..., :, None] * xp[..., None, :]
    M *= 1.0 / (1j * omega)
    return M


def charge_column_2d(omega, xi, mat, J_hat):
    """M_c applied to J, expressed through the charge rho_e = i xi . J_e."""
    xi = np.asarray(xi, dtype=float)
    J_hat = np.asarray(J_hat, dtype=complex)
    e = mat.eps_inv
    e11, e12, e22 = e[0, 0], e[0, 1], e[1, 1]
    n = norm_eps_prime(xi, mat)
    x1p = xi[..., 0] / n
    x2p = xi[..., 1] / n
    rho_e = 1j * (xi[..., 0] * J_hat[..., 0] + xi[..., 1] * J_hat[..., 1])
    col = np.stack([e12 * x2p - e22 * x1p,
                    e12 * x1p - e11 * x2p,
                    np.zeros_like(x1p)], axis=-1)
    return col * (rho_e / (mat.mu * omega * n))[..., None]


def charge_column_3d(omega, xi, mat, J_hat):
    """M_c applied to J through the charges rho_e, rho_m of both triples."""
    xi = np.asarray(xi, dtype=float)
    J_hat = np.asarray(J_hat, dtype=complex)
    a, b = mat.a, mat.b
    n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
    ne = norm_eps(xi, mat)
    xp = xi / n[..., None]
    xt = xi / ne[..., None]
    rho_e = 1j * np.einsum('...i,...i->...', xi, J_hat[..., :3])
    rho_m = 1j * np.einsum('...i,...i->...', xi, J_hat[..., 3:])
    fe = -(rho_e / (omega * ne))[..., None]
    fm = -(rho_m / (omega * n))[..., None]
    ecol = np.stack([b * xt[..., 0], a * xt[..., 1], a * xt[..., 2]], axis=-1)
    return np.concatenate([ecol * fe, xp * fm], axis=-1)


def sphere_qforms(mat):
    """Quadratic forms q_k of the characteristic spheres: sphere k is
    { <xi, q_k xi> = omega^2 }, where term pair (2k, 2k+1) is singular."""
    if mat.dim == 2:
        return [mat.qform]
    return [mat.b * np.eye(3), mat.qform]


def _coeffs(xi, mat, flip_entry=None):
    """The coefficient matrices (W_0, W_1, ...) of the term list."""
    if mat.dim == 2:
        return _m2_coeffs(xi, mat)
    return _m3_coeffs(xi, mat, flip_entry=flip_entry)


def _singular_terms(omega, mat):
    """Indices 2k + (omega < 0) of the terms singular at real omega; one
    sphere in 2D, two in 3D."""
    return range(int(omega < 0), 2 * (mat.dim - 1), 2)


def _term_sum(omega, xi, mat, skip=(), flip_entry=None):
    """sum_j W_j s_j over the terms j not in ``skip``, plus M_c."""
    xi = np.asarray(xi, dtype=float)
    W = _coeffs(xi, mat, flip_entry)
    s = scalar_resolvent_values(omega, xi, mat)
    charge = m2c_matrix if mat.dim == 2 else m3c_matrix
    return sum(W[j] * s[j][..., None, None]
               for j in range(len(W)) if j not in skip) \
        + charge(omega, xi, mat)


def resolvent_matrix(omega, xi, mat, flip_entry=None):
    """Full inverse symbol M + M_c at Im(omega) != 0.

    Raises DegenerateDirection at xi = 0 and near the 3D distinguished
    axis, where the caller inverts the symbol directly.  ``flip_entry``
    is the 3D fault-injection hook of _m3_coeffs.
    """
    if omega.imag == 0:
        raise RealFrequency("unsplit resolvent needs Im(omega) != 0")
    xi = np.asarray(xi, dtype=float)
    _check_offaxis(xi)
    return _term_sum(omega, xi, mat, flip_entry=flip_entry)


def regular_matrix(omega, xi, mat):
    """Resolvent at real omega with every singular term removed: the
    smooth background, to which the singular spheres add principal-value
    and surface terms through their singular_weights."""
    omega = float(omega)
    return _term_sum(omega, xi, mat, skip=_singular_terms(omega, mat))


def singular_weights(omega, xi, mat):
    """[(W_{2k + (omega < 0)}, q_k)] per characteristic sphere k: the
    coefficient matrix of the term singular at real omega, and the
    sphere's quadratic form."""
    W = _coeffs(np.asarray(xi, dtype=float), mat)
    return [(W[j], q) for j, q in zip(_singular_terms(omega, mat),
                                      sphere_qforms(mat))]

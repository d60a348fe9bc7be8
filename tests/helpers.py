"""Helpers shared by the test modules.

charge_column_2d / _3d are an independent oracle: the charge part M_c
of the inverse symbol, typed through the charges rho_e = i xi . J_e and
rho_m = i xi . J_m instead of the eigenbasis that maxres builds it from.
"""

import numpy as np

from maxres import multiplier
from maxres.symbol import norm_eps, norm_eps_prime


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


class PerturbedFactors:
    """Stands in for the multiplier module inside ``lap`` (monkeypatch
    ``lap.multiplier``): _factors is off by 1e-8 relative there, while
    spectral.solve keeps the true factors."""

    def __getattr__(self, name):
        return getattr(multiplier, name)

    @staticmethod
    def _factors(omega, xi, mat, skip=()):
        m, w, minv = multiplier._factors(omega, xi, mat, skip)
        return m, w * (1 + 1e-8), minv

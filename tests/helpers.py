"""Helpers shared by the test modules.

charge_column_2d / _3d are an independent oracle: the charge part M_c
of the inverse symbol, typed through the charges rho_e = i xi . J_e and
rho_m = i xi . J_m instead of the eigenbasis that maxres builds it from.
projectors gives the rank-one eigenprojectors as explicit matrices, the
reference for the weights that maxres applies without forming them.
"""

import numpy as np

from maxres import multiplier
from maxres.symbol import AXIS_GUARD, _eigen_basis


def projectors(xi, mat):
    """Rank-one eigenprojectors m[:, c] m_inv[c, :], one per column c:
    the d - 1 charge columns, then the terms W_j."""
    m, minv, _ = _eigen_basis(xi, mat)
    return [m[:, :, c, None] * minv[:, None, c, :]
            for c in range(m.shape[-1])]


def guard_band_xi(rng, n):
    """3D wavevectors with s^2 / |xi|^2 in [AXIS_GUARD, 1e-6)."""
    ratio = AXIS_GUARD * 10.0 ** rng.uniform(0.0, 2.0, n)
    x1 = rng.normal(0.0, 2.0, n)
    x1[np.abs(x1) < 1e-3] = 1.0
    s = np.abs(x1) * np.sqrt(ratio / (1.0 - ratio))
    phi = rng.uniform(0.0, 2 * np.pi, n)
    return np.stack([x1, s * np.cos(phi), s * np.sin(phi)], axis=-1)


def qform_norm(xi, mat):
    """sqrt(<xi, Q xi>) with Q = mat.qform, typed out here so that the
    oracles below do not share maxres's norm helper: |xi|_w in 2D,
    |xi|_e in 3D."""
    return np.sqrt(np.einsum('...i,ij,...j->...', xi, mat.qform, xi))


def charge_column_2d(omega, xi, mat, J_hat):
    """M_c applied to J, expressed through the charge rho_e = i xi . J_e."""
    xi = np.asarray(xi, dtype=float)
    J_hat = np.asarray(J_hat, dtype=complex)
    e = mat.eps_inv
    e11, e12, e22 = e[0, 0], e[0, 1], e[1, 1]
    n = qform_norm(xi, mat)
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
    ne = qform_norm(xi, mat)
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
    ``lap.multiplier``): _scalar_resolvents is off by 1e-8 relative there,
    while spectral.solve keeps the true scalar resolvents."""

    def __getattr__(self, name):
        return getattr(multiplier, name)

    @staticmethod
    def _scalar_resolvents(*args, **kwargs):
        return multiplier._scalar_resolvents(*args, **kwargs) * (1 + 1e-8)

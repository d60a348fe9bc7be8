"""Operator symbols and their diagonalization.

The first-order symbol p(omega, xi) of the time-harmonic Maxwell system is
assembled as a dense matrix (3x3 in 2D, 6x6 in 3D, acting on the (D, B)
field components).  Away from the degenerate directions it factors as
p = m d m^{-1} with an explicit frequency-independent eigenbasis m(xi) and
the diagonal

    2D:  d = i diag(omega, omega - |xi|_w, omega + |xi|_w)
    3D:  d = i diag(omega, omega, omega -+ sqrt(b)|xi|, omega -+ |xi|_e)

where |xi|_w is the weighted 2D norm <xi, eps xi / (mu det eps)>^(1/2) and
|xi|_e^2 = b xi1^2 + a (xi2^2 + xi3^2).  Each is a flavor norm
sqrt(<xi, q xi>), measured by the one helper ``_qnorm(xi, q)``: q is
mat.qform for |xi|_w and |xi|_e, and b I for sqrt(b)|xi|
(mat.sphere_qforms gives the form of each characteristic sphere).

All evaluators are vectorized: ``xi`` may have any leading shape (..., d)
and matrices come back as (..., m, m).
"""

import numpy as np

from .errors import DegenerateDirection, InvalidArgument
from .materials import Material2, Material3

# Below this fraction of |xi|^2 in the transverse plane the 3D closed-form
# eigenbasis is refused and callers invert the 6x6 symbol directly.
AXIS_GUARD = 1e-8

SQ2 = np.sqrt(2.0)


def _block_rows(ncomp):
    """Points per block of a per-point symbol evaluation: the power of two
    at which one (rows, ncomp, ncomp) complex array takes about 2 MiB,
    a common per-core L2 cache size (4,096 points in 3D, 16,384 in
    2D)."""
    return 1 << ((1 << 17) // ncomp ** 2 - 1).bit_length()


def _blocks(count, ncomp):
    """Slices splitting range(count) into the fewest blocks of at most
    _block_rows(ncomp) points, equal up to one point, so that no small
    tail block is left over."""
    k = -(-count // _block_rows(ncomp))
    return [slice(count * i // k, count * (i + 1) // k) for i in range(k)]


def _qnorm(xi, q):
    """The flavor norm sqrt(<xi, q xi>) of each wavevector of xi (..., d)
    under the quadratic form q (d, d); every characteristic-sphere radius
    is one, with q from mat.sphere_qforms."""
    # the row sums as a product with ones: np.sum over a last axis of
    # length d took 4x as long on 4,096 3D points
    return np.sqrt(((xi @ q) * xi) @ np.ones(len(q)))


def _symbol_2d(omega, xi, mat):
    e = mat.eps_inv
    e11, e12, e22 = e[0, 0], e[0, 1], e[1, 1]
    x1, x2 = xi[..., 0], xi[..., 1]
    p = np.zeros(xi.shape[:-1] + (3, 3), dtype=complex)
    p[..., 0, 0] = 1j * omega
    p[..., 1, 1] = 1j * omega
    p[..., 2, 2] = 1j * omega
    p[..., 0, 2] = -1j * x2 / mat.mu
    p[..., 1, 2] = 1j * x1 / mat.mu
    p[..., 2, 0] = 1j * (x1 * e12 - x2 * e11)
    p[..., 2, 1] = 1j * (x1 * e22 - x2 * e12)
    return p


def _cross_blocks(xi):
    """Entries of the curl symbol B(xi), (curl u)^ = -i B(xi) u^."""
    x1, x2, x3 = xi[..., 0], xi[..., 1], xi[..., 2]
    B = np.zeros(xi.shape[:-1] + (3, 3), dtype=float)
    B[..., 0, 1] = x3
    B[..., 0, 2] = -x2
    B[..., 1, 0] = -x3
    B[..., 1, 2] = x1
    B[..., 2, 0] = x2
    B[..., 2, 1] = -x1
    return B


def _symbol_3d(omega, xi, mat):
    einv = 1.0 / mat.eps_diag
    B = _cross_blocks(xi)
    p = np.zeros(xi.shape[:-1] + (6, 6), dtype=complex)
    for i in range(6):
        p[..., i, i] = 1j * omega
    p[..., :3, 3:] = 1j * B / mat.mu
    # right block of the lower row: -i B(xi) eps^{-1} (columnwise scaling)
    p[..., 3:, :3] = -1j * B * einv
    return p


def _frequency(omega, real=False):
    """omega, a frequency or an array of them, if finite; with ``real``
    one nonzero real number (an imaginary part of exactly 0 is accepted),
    returned as a float.  Anything else raises InvalidArgument."""
    w = np.asarray(omega)
    if not (np.issubdtype(w.dtype, np.number) and np.all(np.isfinite(w))):
        raise InvalidArgument("omega must be a finite number, got %r"
                              % (omega,))
    if not real:
        return omega
    if w.ndim or w.imag != 0 or w.real == 0:
        raise InvalidArgument("omega must be a nonzero real number here, "
                              "got %r" % (omega,))
    return float(w.real)


def _wavevectors(xi, mat):
    """xi as a float array of mat.dim-dimensional wavevectors (on its last
    axis); any other dimension raises InvalidArgument."""
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[-1] if xi.ndim else 0
    if d != mat.dim:
        raise InvalidArgument("wavevectors of dimension %d do not apply to "
                              "a %dD material" % (d, mat.dim))
    return xi


def symbol_p(omega, xi, mat):
    """Maxwell symbol p(omega, xi); p(omega, 0) = i omega I."""
    _frequency(omega)
    xi = _wavevectors(xi, mat)
    if mat.dim == 2:
        return _symbol_2d(omega, xi, mat)
    return _symbol_3d(omega, xi, mat)


def near_axis(xi):
    """3D wavevectors too close to the distinguished axis for the
    closed-form eigenbasis: transverse |.|^2 below AXIS_GUARD * |xi|^2.  The
    zero vector is not near the axis, and no 2D wavevector is."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 3:
        return np.zeros(xi.shape[:-1], dtype=bool)
    n2 = np.einsum('...i,...i->...', xi, xi)
    return xi[..., 1] ** 2 + xi[..., 2] ** 2 < AXIS_GUARD * n2


def _check_offaxis(xi):
    """Raise DegenerateDirection at xi = 0 or near the 3D axis."""
    if np.any(near_axis(xi)) or not np.all(np.any(xi, axis=-1)):
        raise DegenerateDirection(
            "wavevector too close to the distinguished axis (or zero); "
            "use direct 6x6 inversion")


def _basis_2d(xi, mat):
    e = mat.eps_inv
    e11, e12, e22 = e[0, 0], e[0, 1], e[1, 1]
    n = _qnorm(xi, mat.qform)
    x1p = xi[..., 0] / n
    x2p = xi[..., 1] / n
    mu = mat.mu
    shape = xi.shape[:-1]
    m = np.zeros(shape + (3, 3))
    m[..., 0, 0] = e22 * x1p - e12 * x2p
    m[..., 1, 0] = e11 * x2p - e12 * x1p
    # the two propagating columns carry a 1/sqrt(2) normalization so that
    # det m = -1 exactly
    m[..., 0, 1] = -x2p / (mu * SQ2)
    m[..., 1, 1] = x1p / (mu * SQ2)
    m[..., 2, 1] = -1.0 / SQ2
    m[..., 0, 2] = x2p / (mu * SQ2)
    m[..., 1, 2] = -x1p / (mu * SQ2)
    m[..., 2, 2] = -1.0 / SQ2

    minv = np.zeros(shape + (3, 3))
    minv[..., 0, 0] = x1p / mu
    minv[..., 0, 1] = x2p / mu
    minv[..., 1, 0] = (x1p * e12 - x2p * e11) / SQ2
    minv[..., 1, 1] = (e22 * x1p - e12 * x2p) / SQ2
    minv[..., 1, 2] = -1.0 / SQ2
    minv[..., 2, 0] = (x2p * e11 - x1p * e12) / SQ2
    minv[..., 2, 1] = (x2p * e12 - x1p * e22) / SQ2
    minv[..., 2, 2] = -1.0 / SQ2
    return m, minv, np.stack([0.0 * n, -n, n], axis=-1)


def _eigvecs_3d(xi, mat):
    """Plain (unrenormalized) eigenvector columns v1..v6 plus norms."""
    a, b = mat.a, mat.b
    n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
    ne = _qnorm(xi, mat.qform)
    xp = xi / n[..., None]
    xt = xi / ne[..., None]
    sb = np.sqrt(b)
    shape = xi.shape[:-1]
    m = np.zeros(shape + (6, 6))
    # v1: magnetic gradient direction, eigenvalue i omega
    m[..., 3:, 0] = xp
    # v2: electric (eps-weighted) gradient direction, eigenvalue i omega
    m[..., 0, 1] = xt[..., 0] / a
    m[..., 1, 1] = xt[..., 1] / b
    m[..., 2, 1] = xt[..., 2] / b
    # v3, v4: the sqrt(b)|xi| pair
    sp = xp[..., 1] ** 2 + xp[..., 2] ** 2
    m[..., 1, 2] = -xp[..., 2] / sb
    m[..., 2, 2] = xp[..., 1] / sb
    m[..., 3, 2] = -sp
    m[..., 4, 2] = xp[..., 0] * xp[..., 1]
    m[..., 5, 2] = xp[..., 0] * xp[..., 2]
    m[..., 1, 3] = xp[..., 2] / sb
    m[..., 2, 3] = -xp[..., 1] / sb
    m[..., 3, 3] = -sp
    m[..., 4, 3] = xp[..., 0] * xp[..., 1]
    m[..., 5, 3] = xp[..., 0] * xp[..., 2]
    # v5, v6: the |xi|_e pair
    st = xt[..., 1] ** 2 + xt[..., 2] ** 2
    m[..., 0, 4] = st
    m[..., 1, 4] = -xt[..., 0] * xt[..., 1]
    m[..., 2, 4] = -xt[..., 0] * xt[..., 2]
    m[..., 4, 4] = -xt[..., 2]
    m[..., 5, 4] = xt[..., 1]
    m[..., 0, 5] = -st
    m[..., 1, 5] = xt[..., 0] * xt[..., 1]
    m[..., 2, 5] = xt[..., 0] * xt[..., 2]
    m[..., 4, 5] = -xt[..., 2]
    m[..., 5, 5] = xt[..., 1]
    return m, n, ne, xp, xt


def _minv_3d_renormalized(xi, mat, n, ne, xp, xt):
    """Closed-form inverse of the renormalized eigenbasis."""
    a, b = mat.a, mat.b
    sb = np.sqrt(b)
    sp = xp[..., 1] ** 2 + xp[..., 2] ** 2
    st = xt[..., 1] ** 2 + xt[..., 2] ** 2
    alpha = np.sqrt(xi[..., 1] ** 2 + xi[..., 2] ** 2) / np.sqrt(n * ne)
    shape = xi.shape[:-1]
    mi = np.zeros(shape + (6, 6))
    mi[..., 0, 3:] = xp
    mi[..., 1, 0] = a * b * xt[..., 0]
    mi[..., 1, 1] = a * b * xt[..., 1]
    mi[..., 1, 2] = a * b * xt[..., 2]
    c = sb * n / (2.0 * ne)
    mi[..., 2, 1] = -c * xt[..., 2] / st
    mi[..., 2, 2] = c * xt[..., 1] / st
    mi[..., 2, 3] = -0.5
    mi[..., 2, 4] = xp[..., 0] * xp[..., 1] / (2.0 * sp)
    mi[..., 2, 5] = xp[..., 0] * xp[..., 2] / (2.0 * sp)
    mi[..., 3, 1] = c * xt[..., 2] / st
    mi[..., 3, 2] = -c * xt[..., 1] / st
    mi[..., 3, 3] = -0.5
    mi[..., 3, 4] = mi[..., 2, 4]
    mi[..., 3, 5] = mi[..., 2, 5]
    mi[..., 4, 0] = a / 2.0
    mi[..., 4, 1] = -b * xt[..., 0] * xt[..., 1] / (2.0 * st)
    mi[..., 4, 2] = -b * xt[..., 0] * xt[..., 2] / (2.0 * st)
    mi[..., 4, 4] = -xp[..., 2] * ne / (2.0 * n * sp)
    mi[..., 4, 5] = ne * xp[..., 1] / (2.0 * n * sp)
    mi[..., 5, 0] = -a / 2.0
    mi[..., 5, 1] = -mi[..., 4, 1]
    mi[..., 5, 2] = -mi[..., 4, 2]
    mi[..., 5, 4] = mi[..., 4, 4]
    mi[..., 5, 5] = mi[..., 4, 5]
    # renormalization: columns 3..6 of m are divided by alpha, so the
    # matching rows of the inverse are multiplied by it
    mi[..., 2:, :] *= alpha[..., None, None]
    return mi, alpha


def _basis_3d(xi, mat):
    m, n, ne, xp, xt = _eigvecs_3d(xi, mat)
    mi, alpha = _minv_3d_renormalized(xi, mat, n, ne, xp, xt)
    # renormalize: the four propagating columns are divided by alpha
    m[..., :, 2:] /= alpha[..., None, None]
    r = _qnorm(xi, mat.sphere_qforms[0])
    return m, mi, np.stack([0.0 * n, 0.0 * n, -r, r, -ne, ne], axis=-1)


def _eigen_basis(xi, mat):
    """The frequency-independent part of p = m d m_inv: the real
    eigenbasis m, m_inv and the branch offsets rho
    with d = i diag(omega + rho),

        2D:  rho = (0, -|xi|_w, |xi|_w)
        3D:  rho = (0, 0, -sqrt(b)|xi|, sqrt(b)|xi|, -|xi|_e, |xi|_e).

    Raises DegenerateDirection at xi = 0 or (3D) too close to the axis.
    """
    xi = _wavevectors(xi, mat)
    if mat.dim == 3:
        mat.require_canonical('the closed-form eigenbasis')
    _check_offaxis(xi)
    if mat.dim == 2:
        return _basis_2d(xi, mat)
    return _basis_3d(xi, mat)


def eigen_decomposition(omega, xi, mat):
    """Return (m, d, m_inv) with p = m d m_inv.

    2D: det m = -1 for every nonzero xi.  3D: the renormalized basis whose
    determinant stays bounded away from 0 off the distinguished axis.
    Raises DegenerateDirection at xi = 0 or (3D) too close to the axis.
    """
    m, minv, rho = _eigen_basis(xi, mat)
    d = np.zeros(m.shape, dtype=complex)
    np.einsum('...ii->...i', d)[...] = 1j * (np.asarray(omega)[..., None]
                                             + rho)
    return m.astype(complex), d, minv.astype(complex)


def det_diagnostics(xi, mat):
    """Renormalization diagnostics for the 3D eigenbasis.

    Returns (alpha, delta, det_m, det_m_tilde) where alpha is the
    transverse renormalization factor, delta = |xi| / |xi|_e, det_m the
    determinant of the plain eigenvector matrix and det_m_tilde that of
    the renormalized one (det_m_tilde = det_m / alpha^4).
    """
    if not isinstance(mat, Material3):
        raise InvalidArgument("det_diagnostics applies to 3D materials, got "
                              "%r" % (mat,))
    xi = _wavevectors(xi, mat)
    n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
    if np.any(n == 0):
        raise DegenerateDirection("zero wavevector")
    ne = _qnorm(xi, mat.qform)
    alpha = np.sqrt(xi[..., 1] ** 2 + xi[..., 2] ** 2) / np.sqrt(n * ne)
    delta = n / ne
    m_plain, _, _, _, _ = _eigvecs_3d(xi, mat)
    det_m = np.linalg.det(m_plain).astype(complex)
    with np.errstate(divide='ignore', invalid='ignore'):
        det_mt = det_m / alpha ** 4
    return alpha, delta, det_m, det_mt


# canonical-axis cyclic permutations (0-based): new axis i is old axis perm[i]
_AXIS_PERMS = {1: (0, 1, 2), 2: (1, 2, 0), 3: (2, 0, 1)}


class TransformRecord:
    """How a material/current pair was brought to canonical form.

    Stores the cyclic axis permutation and the permeability that was
    folded into the permittivity; knows how to map currents into the
    canonical frame and solution fields back out.  Both maps move the
    field's coefficient block and permute its support: the lattice has
    the same permutation symmetry as the grid.
    """

    def __init__(self, perm, mu):
        self.perm = tuple(perm)
        self.mu = float(mu)
        inv = [0, 0, 0]
        for i, p in enumerate(self.perm):
            inv[p] = i
        self.inv_perm = tuple(inv)

    def _permute(self, field, perm, op):
        """The field with axes and components moved by ``perm`` and the
        magnetic block combined with mu by the ufunc ``op``, in one copy
        of the field's coefficient block (Field._permuted); the identity
        map returns the field itself."""
        if perm == (0, 1, 2) and self.mu == 1.0:
            return field
        comp = list(perm) + [3 + p for p in perm]
        return field._permuted(
            comp, perm, lambda out: op(out[3:], self.mu, out=out[3:]))

    def forward_currents(self, J):
        """Permute axes/components and rescale the magnetic current."""
        return self._permute(J, self.perm, np.true_divide)

    def backward_fields(self, u):
        """Undo the permutation and restore the magnetic components."""
        return self._permute(u, self.inv_perm, np.multiply)


def canonicalize(mat, currents=None):
    """Bring a material to axis=1, mu=1 form; a Material2 or a canonical
    Material3 is its own, with ``currents`` itself and the identity map.

    Returns (canonical_material, transformed_currents, record).  The
    permutation is cyclic so the curl symbol is equivariant; the
    permeability is folded into the permittivity, with the magnetic
    components of currents divided by mu on the way in and solution
    fields multiplied by mu on the way out.
    """
    if not isinstance(mat, (Material2, Material3)):
        raise InvalidArgument("canonicalize takes a material, got %r" % (mat,))
    if mat.dim == 2 or mat.is_canonical:
        return mat, currents, TransformRecord((0, 1, 2), 1.0)
    record = TransformRecord(_AXIS_PERMS[mat.axis], mat.mu)
    canon = Material3(eps_axis=mat.mu * mat.eps_axis,
                      eps_perp=mat.mu * mat.eps_perp, axis=1, mu=1.0)
    out = None if currents is None else record.forward_currents(currents)
    return canon, out, record

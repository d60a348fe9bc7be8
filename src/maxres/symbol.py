"""Operator symbols and their diagonalization.

The first-order symbol p(omega, xi) of the time-harmonic Maxwell system is
assembled as a dense matrix (3x3 in 2D, 6x6 in 3D, acting on the (D, B)
field components).  At every nonzero xi it factors as p = m d m^{-1}
with an explicit frequency-independent eigenbasis m(xi) and the diagonal

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
    """xi as a float array of finite mat.dim-dimensional wavevectors (on
    its last axis); any other dimension or a NaN or infinite entry raises
    InvalidArgument."""
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[-1] if xi.ndim else 0
    if d != mat.dim:
        raise InvalidArgument("wavevectors of dimension %d do not apply to "
                              "a %dD material" % (d, mat.dim))
    if not np.all(np.isfinite(xi)):
        raise InvalidArgument("xi must be finite, got a NaN or infinite "
                              "entry")
    return xi


def symbol_p(omega, xi, mat):
    """Maxwell symbol p(omega, xi); p(omega, 0) = i omega I."""
    _frequency(omega)
    xi = _wavevectors(xi, mat)
    if mat.dim == 2:
        return _symbol_2d(omega, xi, mat)
    return _symbol_3d(omega, xi, mat)


def on_axis(xi):
    """Nonzero 3D wavevectors on the distinguished axis, xi_2 = xi_3 = 0,
    where the two characteristic spheres touch.  The zero vector is not
    on the axis, and no 2D wavevector is."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 3:
        return np.zeros(xi.shape[:-1], dtype=bool)
    return ~np.any(xi[..., 1:], axis=-1) & (xi[..., 0] != 0)


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


def _put_pair(m, j, e, h):
    """Columns j and j + 1 of m (..., 6, 6), one propagating pair: (e, h)
    and (-e, h), with e the electric and h the magnetic part."""
    m[..., :3, j] = e
    m[..., :3, j + 1] = -e
    m[..., 3:, j] = m[..., 3:, j + 1] = h


def _basis_3d(xi, mat):
    """The 3D eigenbasis m and its inverse with each propagating pair in
    its final normalization (FORMULA_NOTES.md, "Pair form"): with the
    unit vectors az = (0, -xi_3, xi_2) / s and mer = (-s, xi_1 xi_2 / s,
    xi_1 xi_3 / s) / |xi|, s = |(xi_2, xi_3)|, g = sqrt(|xi|_e / |xi|)
    and r = |xi| mer / |xi|_e, the columns are g (+-az / sqrt b, mer)
    and (-+r, az) / g, the rows (+-sqrt(b) az, mer) / 2g and
    g (-+diag(a, b, b) r, az) / 2.  On the axis, s = 0, both spheres
    meet and any transverse pair will do: the limit along xi_2 > 0,
    az = (0, 0, 1) and mer = (0, xi_1 / |xi|, 0)."""
    a, b = mat.a, mat.b
    sb = np.sqrt(b)
    n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
    ne = _qnorm(xi, mat.qform)
    s = np.sqrt(xi[..., 1] ** 2 + xi[..., 2] ** 2)
    g = np.sqrt(ne / n)[..., None]
    with np.errstate(divide='ignore', invalid='ignore'):
        az = (np.stack([0.0 * s, -xi[..., 2], xi[..., 1]], axis=-1)
              / s[..., None])
        mer = xi[..., :1] * xi / (s * n)[..., None]
    mer[..., 0] = -s / n
    # the rows 0 / 0 on the axis take their limit along xi_2 > 0
    axis = np.nonzero(s == 0)
    az[axis] = (0.0, 0.0, 1.0)
    mer[axis] = xi[axis][:, :1] / n[axis][:, None] * (0.0, 1.0, 0.0)
    r = (n / ne)[..., None] * mer
    xt = xi / ne[..., None]
    m = np.zeros(xi.shape[:-1] + (6, 6))
    mi = np.zeros(xi.shape[:-1] + (6, 6))
    # the charge pair: the magnetic and the eps-weighted electric gradient
    m[..., 3:, 0] = mi[..., 0, 3:] = xi / n[..., None]
    m[..., :3, 1] = xt / (a, b, b)
    mi[..., 1, :3] = a * b * xt
    # rows of mi are the columns of its transpose
    mit = mi.swapaxes(-1, -2)
    _put_pair(m, 2, g / sb * az, g * mer)
    _put_pair(mit, 2, sb / (2 * g) * az, mer / (2 * g))
    _put_pair(m, 4, -r / g, az / g)
    _put_pair(mit, 4, -g / 2 * r * (a, b, b), g / 2 * az)
    rho = _qnorm(xi, mat.sphere_qforms[0])
    return m, mi, np.stack([0.0 * n, 0.0 * n, -rho, rho, -ne, ne], axis=-1)


def _eigen_basis(xi, mat):
    """The frequency-independent part of p = m d m_inv: the real
    eigenbasis m, m_inv and the branch offsets rho
    with d = i diag(omega + rho),

        2D:  rho = (0, -|xi|_w, |xi|_w)
        3D:  rho = (0, 0, -sqrt(b)|xi|, sqrt(b)|xi|, -|xi|_e, |xi|_e).

    Raises DegenerateDirection at xi = 0.
    """
    xi = _wavevectors(xi, mat)
    if mat.dim == 3:
        mat.require_canonical('the closed-form eigenbasis')
    if not np.all(np.any(xi, axis=-1)):
        raise DegenerateDirection("zero wavevector")
    if mat.dim == 2:
        return _basis_2d(xi, mat)
    return _basis_3d(xi, mat)


def eigen_decomposition(omega, xi, mat):
    """Return (m, d, m_inv) with p = m d m_inv.

    2D: det m = -1 and 3D: det m = 4 / (a b^(3/2)), the pair-form basis,
    for every nonzero xi.  Raises DegenerateDirection at xi = 0.
    """
    _frequency(omega)
    m, minv, rho = _eigen_basis(xi, mat)
    d = np.zeros(m.shape, dtype=complex)
    np.einsum('...ii->...i', d)[...] = 1j * (np.asarray(omega)[..., None]
                                             + rho)
    return m.astype(complex), d, minv.astype(complex)


def det_diagnostics(xi, mat):
    """Renormalization diagnostics for the 3D eigenbasis.

    Returns (alpha, delta, det_m, det_m_tilde): alpha = s / sqrt(|xi|
    |xi|_e), delta = |xi| / |xi|_e, det_m_tilde = det of the eigenbasis
    the solvers use, 4 / (a b^(3/2)), and det_m = det_m_tilde alpha^4 that
    of the plain basis, whose propagating columns are alpha times these:
    0 on the axis, s = 0.  Raises DegenerateDirection at xi = 0.
    """
    if not isinstance(mat, Material3):
        raise InvalidArgument("det_diagnostics applies to 3D materials, got "
                              "%r" % (mat,))
    xi = _wavevectors(xi, mat)
    n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
    if np.any(n == 0):
        raise DegenerateDirection("zero wavevector")
    s = np.sqrt(xi[..., 1] ** 2 + xi[..., 2] ** 2)
    ne = _qnorm(xi, mat.qform)
    alpha = s / np.sqrt(n * ne)
    det_mt = np.linalg.det(_basis_3d(xi, mat)[0]).astype(complex)
    return alpha, n / ne, det_mt * alpha ** 4, det_mt


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

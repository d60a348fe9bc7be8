"""Operator symbols and their diagonalization.

The first-order symbol p(omega, xi) of the time-harmonic Maxwell system
(3x3 in 2D, 6x6 in 3D, acting on the (D, B) field components) is i omega I
plus the curl symbol.  ``symbol_p`` assembles it as a dense matrix, the
reference; ``_p_apply`` applies it to coefficient columns as i omega c
plus cross products, without forming it.  At every nonzero xi it factors
as p = m d m^{-1} with an explicit frequency-independent eigenbasis m(xi)
and the diagonal

    2D:  d = i diag(omega, omega - |xi|_w, omega + |xi|_w)
    3D:  d = i diag(omega, omega, omega -+ sqrt(b)|xi|, omega -+ |xi|_e)

where |xi|_w is the weighted 2D norm <xi, eps xi / (mu det eps)>^(1/2) and
|xi|_e^2 = b xi1^2 + a (xi2^2 + xi3^2).  Each is a flavor norm
sqrt(<xi, q xi>), measured by the one helper ``_qnorm(xi, q)``: q is
mat.qform for |xi|_w and |xi|_e, and b I for sqrt(b)|xi|
(mat.sphere_qforms gives the form of each characteristic sphere).

The eigenbasis is held as its frame (``_frame``): a few per-mode vectors
and the offsets rho of d = i diag(omega + rho), measured on each
wavevector scaled by a power of two, so any nonzero finite xi has one.
``_eigen_basis`` fills the dense m and m^{-1} from it; ``_rows`` and
``_columns`` apply m^{-1} and m to coefficient columns as dot products
with the frame's vectors and sums of them (FORMULA_NOTES.md, "Pair
form").

All evaluators are vectorized: ``xi`` may have any leading shape (..., d)
and matrices come back as (..., m, m).
"""

from collections import namedtuple

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


def _p_apply(omega, xi, c, mat):
    """p(omega, xi) c on columns c (ncomp, ...) held component-major, one
    per wavevector of xi (..., d), without forming p: i omega c plus the
    curl symbol's cross products (xi x u = -B(xi) u in 3D).  symbol_p is
    the dense reference."""
    _frequency(omega)
    x = _wavevectors(xi, mat)
    x = [x[..., i] for i in range(mat.dim)]
    iw = 1j * np.asarray(omega)
    if mat.dim == 2:
        e = mat.eps_inv
        e11, e12, e22 = e[0, 0], e[0, 1], e[1, 1]
        h = 1j * c[2] / mat.mu
        out = [iw * c[0] - x[1] * h, iw * c[1] + x[0] * h,
               iw * c[2] + 1j * ((x[0] * e12 - x[1] * e11) * c[0]
                                 + (x[0] * e22 - x[1] * e12) * c[1])]
        return _stack(out)
    einv = 1.0 / mat.eps_diag
    ch = [1j * c[3 + i] / mat.mu for i in range(3)]
    ce = [-1j * einv[i] * c[i] for i in range(3)]
    out = [iw * c[i] + _cross(ch, x, i) for i in range(3)]
    out += [iw * c[3 + i] + _cross(ce, x, i) for i in range(3)]
    return _stack(out)


def _cross(u, x, i):
    """Component i of u x x = B(x) u, the curl symbol's product."""
    j, k = (i + 1) % 3, (i + 2) % 3
    return u[j] * x[k] - u[k] * x[j]


def on_axis(xi):
    """Nonzero 3D wavevectors on the distinguished axis, xi_2 = xi_3 = 0,
    where the two characteristic spheres touch.  The zero vector is not
    on the axis, and no 2D wavevector is."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 3:
        return np.zeros(xi.shape[:-1], dtype=bool)
    return ~np.any(xi[..., 1:], axis=-1) & (xi[..., 0] != 0)


# The frame: the per-mode vectors of the pair form and the offsets rho,
# from which the dense factors (_basis_2d, _basis_3d) are filled and the
# matrix-free actions (_rows, _columns) are evaluated
_Frame2 = namedtuple('_Frame2', 'xp q rho')
_Frame3 = namedtuple('_Frame3', 'xp xt az mer r delta g rho')


def _top(xi):
    """The largest entry of each wavevector of xi (..., d) in size."""
    # one maximum per axis: max over a last axis of length d took 15-45x
    # as long on 4,096 3D and 16,384 2D points
    top = np.abs(xi[..., 0])
    for i in range(1, xi.shape[-1]):
        np.maximum(top, np.abs(xi[..., i]), out=top)
    return top


def _frame(xi, mat):
    """The frame of the eigenbasis at each nonzero wavevector of xi.

    2D (_Frame2): xp = xi / |xi|_w and q, the electric part of the charge
    column.  3D (_Frame3): xp = xi / |xi|, xt = xi / |xi|_e, the unit
    vectors az and mer, r = delta mer with delta = |xi| / |xi|_e, and
    g = sqrt(|xi|_e / |xi|) (FORMULA_NOTES.md, "Pair form"), with az
    and mer at their limit on the axis.  rho (..., ncomp) holds the
    offsets of d = i diag(omega + rho).  Every entry but rho is
    homogeneous of degree 0, so it is taken on the wavevector scaled by
    a power of two, which leaves the bits of an ordinary wavevector as
    they are and keeps every entry finite for any nonzero finite xi; rho
    is scaled back.  Raises DegenerateDirection at xi = 0.
    """
    xi = _wavevectors(xi, mat)
    if mat.dim == 3:
        mat.require_canonical('the closed-form eigenbasis')
    top = _top(xi)
    if not top.all():
        raise DegenerateDirection("zero wavevector")
    # each wavevector divided by the power of two 2^e at or just above its
    # largest entry, exactly: one entry is at least 1/2 in size and none
    # reaches 1, so no sum of squares overflows or underflows
    e = np.frexp(top)[1]
    xi = np.ldexp(xi, -e[..., None])
    return (_frame_2d if mat.dim == 2 else _frame_3d)(xi, e, mat)


def _frame_2d(xi, e, mat):
    ei = mat.eps_inv
    e11, e12, e22 = ei[0, 0], ei[0, 1], ei[1, 1]
    n = _qnorm(xi, mat.qform)
    xp = xi / n[..., None]
    x1p, x2p = xp[..., 0], xp[..., 1]
    q = np.empty_like(xp)
    np.subtract(e22 * x1p, e12 * x2p, out=q[..., 0])
    np.subtract(e11 * x2p, e12 * x1p, out=q[..., 1])
    rho = np.zeros(n.shape + (3,))
    np.ldexp(n, e, out=rho[..., 2])
    np.negative(rho[..., 2], out=rho[..., 1])
    return _Frame2(xp, q, rho)


def _frame_3d(xi, e, mat):
    n = np.sqrt(np.einsum('...i,...i->...', xi, xi))
    ne = _qnorm(xi, mat.qform)
    s = np.sqrt(xi[..., 1] ** 2 + xi[..., 2] ** 2)
    az = np.zeros_like(xi)
    with np.errstate(divide='ignore', invalid='ignore'):
        np.divide(xi[..., 2], s, out=az[..., 1])
        np.negative(az[..., 1], out=az[..., 1])
        np.divide(xi[..., 1], s, out=az[..., 2])
        mer = xi[..., :1] * xi / (s * n)[..., None]
    mer[..., 0] = -s / n
    # the rows 0 / 0 on the axis take their limit along xi_2 > 0
    axis = np.nonzero(s == 0)
    az[axis] = (0.0, 0.0, 1.0)
    mer[axis] = xi[axis][:, :1] / n[axis][:, None] * (0.0, 1.0, 0.0)
    delta = n / ne
    rho = np.zeros(n.shape + (6,))
    np.ldexp(_qnorm(xi, mat.sphere_qforms[0]), e, out=rho[..., 3])
    np.ldexp(ne, e, out=rho[..., 5])
    np.negative(rho[..., 3::2], out=rho[..., 2::2])
    return _Frame3(xi / n[..., None], xi / ne[..., None], az, mer,
                  delta[..., None] * mer, delta, np.sqrt(ne / n), rho)


def _basis_2d(f, mat):
    """The dense 2D eigenbasis m and its inverse from the frame."""
    x1p, x2p = f.xp[..., 0], f.xp[..., 1]
    q1, q2 = f.q[..., 0], f.q[..., 1]
    mu = mat.mu
    shape = x1p.shape
    m = np.zeros(shape + (3, 3))
    m[..., 0, 0] = q1
    m[..., 1, 0] = q2
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
    minv[..., 1, 0] = -q2 / SQ2
    minv[..., 1, 1] = q1 / SQ2
    minv[..., 1, 2] = -1.0 / SQ2
    minv[..., 2, 0] = q2 / SQ2
    minv[..., 2, 1] = -q1 / SQ2
    minv[..., 2, 2] = -1.0 / SQ2
    return m, minv


def _put_pair(m, j, e, h):
    """Columns j and j + 1 of m (..., 6, 6), one propagating pair: (e, h)
    and (-e, h), with e the electric and h the magnetic part."""
    m[..., :3, j] = e
    np.negative(e, out=m[..., :3, j + 1])
    m[..., 3:, j] = m[..., 3:, j + 1] = h


def _basis_3d(f, mat):
    """The dense 3D eigenbasis m and its inverse from the frame, each
    propagating pair in its final normalization (FORMULA_NOTES.md, "Pair
    form"): the columns are g (+-az / sqrt b, mer) and (-+r, az) / g, the
    rows (+-sqrt(b) az, mer) / 2g and g (-+diag(a, b, b) r, az) / 2."""
    a, b = mat.a, mat.b
    sb = np.sqrt(b)
    g = f.g[..., None]
    m = np.zeros(f.g.shape + (6, 6))
    mi = np.zeros(f.g.shape + (6, 6))
    # the charge pair: the magnetic and the eps-weighted electric gradient
    m[..., 3:, 0] = mi[..., 0, 3:] = f.xp
    m[..., :3, 1] = f.xt / (a, b, b)
    mi[..., 1, :3] = a * b * f.xt
    # rows of mi are the columns of its transpose
    mit = mi.swapaxes(-1, -2)
    _put_pair(m, 2, g / sb * f.az, g * f.mer)
    _put_pair(mit, 2, sb / (2 * g) * f.az, f.mer / (2 * g))
    _put_pair(m, 4, -f.r / g, f.az / g)
    _put_pair(mit, 4, -g / 2 * f.r * (a, b, b), g / 2 * f.az)
    return m, mi


def _dense(f, mat):
    """(m, m^{-1}), the dense eigenbasis and its inverse, from the frame."""
    return (_basis_2d if mat.dim == 2 else _basis_3d)(f, mat)


def _dot(v, c):
    """v . c per mode: v (..., k) a frame vector, c (k, ...) component-major."""
    return sum(v[..., i] * c[i] for i in range(v.shape[-1]))


def _rows(f, mat, c):
    """m^{-1} c on columns c (ncomp, ...) held component-major, one row of
    the result per eigenbasis row, without forming m^{-1}: the rows of
    _basis_2d and _basis_3d as dot products with the frame."""
    if mat.dim == 2:
        t = f.q[..., 0] * c[1] - f.q[..., 1] * c[0]
        z = [_dot(f.xp, c) / mat.mu, (t - c[2]) / SQ2, (-t - c[2]) / SQ2]
    else:
        sb = np.sqrt(mat.b)
        ce, ch = c[:3], c[3:]
        # sqrt(b) az . c_e, mer . c_h, D r . c_e and az . c_h
        A = sb * _dot(f.az, ce)
        M = _dot(f.mer, ch)
        R = _dot(f.r * (mat.a, mat.b, mat.b), ce)
        Z = _dot(f.az, ch)
        h = 2 * f.g
        z = [_dot(f.xp, ch), mat.a * mat.b * _dot(f.xt, ce),
             (M + A) / h, (M - A) / h, f.g * (Z - R) / 2, f.g * (Z + R) / 2]
    return _stack(z)


def _columns(f, mat, y):
    """m y on coefficients y (ncomp, ...) of the eigenbasis columns, held
    component-major, without forming m: sums of the columns of
    _basis_2d and _basis_3d, weighted by y."""
    if mat.dim == 2:
        t = (y[1] - y[2]) / (mat.mu * SQ2)
        u = [y[0] * f.q[..., 0] - t * f.xp[..., 1],
             y[0] * f.q[..., 1] + t * f.xp[..., 0],
             -(y[1] + y[2]) / SQ2]
    else:
        # the pairs' sums and differences weight az, mer and r
        p = f.g / np.sqrt(mat.b) * (y[2] - y[3])
        t = f.g * (y[2] + y[3])
        q = (y[5] - y[4]) / f.g
        v = (y[4] + y[5]) / f.g
        dab = (mat.a, mat.b, mat.b)
        u = [y[1] * (f.xt[..., i] / dab[i]) + p * f.az[..., i]
             + q * f.r[..., i] for i in range(3)]
        u += [y[0] * f.xp[..., i] + t * f.mer[..., i] + v * f.az[..., i]
              for i in range(3)]
    return _stack(u)


def _stack(rows):
    """The rows, each broadcast to their common shape, as one complex
    array (len(rows), ...)."""
    out = np.empty((len(rows),) + np.broadcast_shapes(
        *(np.shape(r) for r in rows)), dtype=complex)
    for i, r in enumerate(rows):
        out[i] = r
    return out


def _eigen_basis(xi, mat):
    """The frequency-independent part of p = m d m_inv: the real
    eigenbasis m, m_inv and the branch offsets rho
    with d = i diag(omega + rho),

        2D:  rho = (0, -|xi|_w, |xi|_w)
        3D:  rho = (0, 0, -sqrt(b)|xi|, sqrt(b)|xi|, -|xi|_e, |xi|_e),

    as dense (..., ncomp, ncomp) arrays filled from the frame (_frame).
    Raises DegenerateDirection at xi = 0.
    """
    f = _frame(xi, mat)
    return _dense(f, mat) + (f.rho,)


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
    f = _frame(xi, mat)
    # alpha = s / (g |xi|), with mer_1 = -s / |xi|
    alpha = -f.mer[..., 0] / f.g
    det_mt = np.linalg.det(_basis_3d(f, mat)[0]).astype(complex)
    return alpha, f.delta, det_mt * alpha ** 4, det_mt


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

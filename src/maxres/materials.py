"""Material descriptions for homogeneous anisotropic media.

Two material classes are provided.  ``Material2`` is a full symmetric
positive definite 2x2 permittivity together with a scalar permeability.
``Material3`` is the partially anisotropic 3D case: a diagonal
permittivity with a distinguished axis carrying one value and the two
remaining axes sharing another, plus a scalar permeability.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NotPartiallyAnisotropic


def _real(name, value):
    """value, refused if it is not a real number (a bool is none), naming
    the argument, before any comparison can raise a bare TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgument("%s must be a real number, got %r"
                              % (name, value))
    return value


def _numbers(name, values, kinds='iuf'):
    """values as a float array (complex if kinds, numpy dtype kinds, has
    'c'), refusing an entry of another kind (a string, None, a bool) by
    name, before numpy can raise a bare TypeError or ValueError."""
    a = np.asarray(values)
    if a.dtype.kind not in kinds:
        raise InvalidArgument("%s must be numbers, got %r" % (name, values))
    return a.astype(complex if 'c' in kinds else float)


@dataclass(frozen=True)
class Material2:
    """SPD 2x2 permittivity (eps11, eps12, eps22) and permeability mu."""

    eps11: float
    eps12: float
    eps22: float
    mu: float = 1.0

    dim = 2

    def __post_init__(self):
        for name in ('eps11', 'eps12', 'eps22', 'mu'):
            _real(name, getattr(self, name))
        # a finite eps11 and determinant leave eps12 and eps22 finite
        if not (0 < self.eps11 < np.inf and 0 < self.det_eps < np.inf
                and 0 < self.mu < np.inf):
            raise InvalidArgument("need a finite, positive definite eps and "
                                  "a finite mu > 0, got %r" % (self,))

    @property
    def eps(self):
        return np.array([[self.eps11, self.eps12], [self.eps12, self.eps22]])

    @property
    def det_eps(self):
        # a product, not ** 2: a huge eps12 gives -inf, not OverflowError
        return self.eps11 * self.eps22 - self.eps12 * self.eps12

    @property
    def eps_inv(self):
        """Inverse permittivity by the 2x2 cofactor formula."""
        d = self.det_eps
        return np.array([[self.eps22 / d, -self.eps12 / d],
                         [-self.eps12 / d, self.eps11 / d]])

    @property
    def qform(self):
        """Matrix Q of the weighted norm: |xi|_w^2 = <xi, Q xi>,
        Q = eps / (mu det eps)."""
        return self.eps / (self.mu * self.det_eps)

    @property
    def sphere_qforms(self):
        """Quadratic form q_k of each characteristic sphere
        { <xi, q_k xi> = omega^2 }: the one sphere |xi|_w = |omega|."""
        return [self.qform]


@dataclass(frozen=True)
class Material3:
    """Partially anisotropic 3D material.

    ``eps_axis`` is the permittivity on the distinguished coordinate axis
    (1-based index ``axis``); the two remaining axes share ``eps_perp``.
    After :func:`maxres.symbol.canonicalize` the distinguished axis is 1
    and mu is 1, and the closed-form machinery applies with
    a = 1/(mu*eps_axis), b = 1/(mu*eps_perp).
    """

    eps_axis: float
    eps_perp: float
    axis: int = 1
    mu: float = 1.0

    dim = 3

    def __post_init__(self):
        for name in ('eps_axis', 'eps_perp', 'mu'):
            _real(name, getattr(self, name))
        if not all(0 < v < np.inf
                   for v in (self.eps_axis, self.eps_perp, self.mu)):
            raise InvalidArgument("material parameters must be finite and "
                                  "positive, got %r" % (self,))
        # 1.0 would fail later as a list index, and True would be axis 1
        if not (isinstance(self.axis, (int, np.integer))
                and not isinstance(self.axis, bool)
                and self.axis in (1, 2, 3)):
            raise InvalidArgument("axis must be 1, 2 or 3, got %r"
                                  % (self.axis,))

    @property
    def is_canonical(self):
        return self.axis == 1 and self.mu == 1.0

    def require_canonical(self, what):
        """Refuse a material outside the frame where ``what`` exists."""
        if not self.is_canonical:
            raise InvalidArgument("%s needs axis = 1 and mu = 1 (got axis = "
                                  "%d, mu = %g)" % (what, self.axis, self.mu))

    @property
    def a(self):
        """Inverse permittivity along the distinguished axis, after
        folding the permeability in (the mu -> 1 reduction)."""
        return 1.0 / (self.mu * self.eps_axis)

    @property
    def b(self):
        return 1.0 / (self.mu * self.eps_perp)

    @property
    def eps_diag(self):
        """Diagonal of the permittivity in the stored axis ordering."""
        d = [self.eps_perp] * 3
        d[self.axis - 1] = self.eps_axis
        return np.array(d)

    @property
    def qform(self):
        """Matrix of the anisotropic norm |xi|^2 = b xi1^2 + a (xi2^2+xi3^2)
        (canonical materials only)."""
        self.require_canonical('qform')
        return np.diag([self.b, self.a, self.a])

    @property
    def sphere_qforms(self):
        """Quadratic form q_k of each characteristic sphere
        { <xi, q_k xi> = omega^2 }: b I for sqrt(b)|xi| = |omega|, then
        qform for |xi|_e = |omega| (canonical materials only)."""
        return [self.b * np.eye(3), self.qform]


def material3_from_diag(eps1, eps2, eps3, mu=1.0, rtol=1e-12):
    """Build a Material3 from three diagonal permittivity values.

    Exactly one value may differ from the other two (that axis becomes the
    distinguished one).  Three pairwise distinct values are rejected.
    """
    vals = [float(_real(name, value)) for name, value in
            zip(('eps1', 'eps2', 'eps3'), (eps1, eps2, eps3))]
    same = [np.isclose(vals[i], vals[j], rtol=rtol)
            for i, j in ((0, 1), (0, 2), (1, 2))]
    if all(same):
        return Material3(vals[0], vals[0], axis=1, mu=mu)
    if same[2]:          # eps2 == eps3
        return Material3(vals[0], vals[1], axis=1, mu=mu)
    if same[1]:          # eps1 == eps3
        return Material3(vals[1], vals[0], axis=2, mu=mu)
    if same[0]:          # eps1 == eps2
        return Material3(vals[2], vals[0], axis=3, mu=mu)
    raise NotPartiallyAnisotropic(
        "all three permittivity values are pairwise distinct: %r" % (vals,))

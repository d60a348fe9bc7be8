"""Material descriptions for homogeneous anisotropic media.

Two material classes are provided.  ``Material2`` is a full symmetric
positive definite 2x2 permittivity together with a scalar permeability.
``Material3`` is the partially anisotropic 3D case: a diagonal
permittivity with a distinguished axis carrying one value and the two
remaining axes sharing another, plus a scalar permeability.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidArgument, NotPartiallyAnisotropic, _count,
                     _real)

# relative tolerance under which material3_from_diag reads two
# permittivity values as one
_SAME_RTOL = 1e-12


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
            _real(name, getattr(self, name),
                  '(-inf, inf)' if name == 'eps12' else '(0, inf)')
        if not 0 < self.det_eps < np.inf:
            raise InvalidArgument("need a positive definite eps with a "
                                  "finite determinant, got %r" % (self,))

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
            _real(name, getattr(self, name), '(0, inf)')
        # 1.0 would fail later as a list index, and True would be axis 1
        if _count('axis', self.axis) > 3:
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


def material3_from_diag(eps1, eps2, eps3, mu=1.0):
    """Build a Material3 from three diagonal permittivity values.

    Exactly one value may differ from the other two (that axis becomes the
    distinguished one).  Three pairwise distinct values are rejected.
    """
    vals = [float(_real(name, value, '(0, inf)')) for name, value in
            zip(('eps1', 'eps2', 'eps3'), (eps1, eps2, eps3))]
    same = [np.isclose(vals[i], vals[j], rtol=_SAME_RTOL)
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

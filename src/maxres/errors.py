"""Exception types shared across the package."""


class MaxresError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgument(MaxresError, ValueError):
    """An argument outside the domain where the package's formulas hold."""


class DegenerateDirection(MaxresError):
    """The zero wavevector, where the symbol is i omega I and the
    closed-form eigenbasis does not exist."""


class NotPartiallyAnisotropic(MaxresError):
    """All three permittivity eigenvalues are pairwise distinct."""


class RealFrequency(MaxresError):
    """An operation requiring Im(omega) != 0 was called at real omega."""


class MeanNotZero(MaxresError):
    """Negative-order multiplier applied to a field with nonzero mean."""


class QuadratureNotConverged(MaxresError):
    """Doubling quadrature nodes moved the result by more than the
    requested tolerance."""


class MethodsDisagree(MaxresError):
    """Cross-validation of two evaluation methods exceeded tolerance."""


class OnSingularSet(MaxresError):
    """Frequency lies on the singular set of the requested quantity."""


class EmptyRegion(MaxresError):
    """The requested frequency region is empty."""


class ExponentOrder(MaxresError):
    """Lebesgue exponents supplied in the wrong order (q <= p)."""


class GridTooCoarse(MaxresError, ValueError):
    """The grid's frequency lattice cannot resolve a requested spectral
    set: no lattice modes in a source's annulus or cap, or no room for a
    cutoff plateau inside the grid's band."""


class FieldFormatError(MaxresError):
    """Malformed field file."""


class ConfigError(MaxresError):
    """Invalid or inconsistent job configuration."""

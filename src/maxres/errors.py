"""Exception types shared across the package, and the checks of one
scalar or one array argument, each of which refuses a value outside its
domain with an InvalidArgument that names the argument."""

import numbers

import numpy as np


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


def _real(name, value, domain=None):
    """value, refused by name if it is not a real number (a bool is none),
    before any comparison can raise a bare TypeError, or if it lies
    outside ``domain``, an interval written as '(0, inf)' or '[0, 1]'; a
    NaN lies in no interval."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidArgument("%s must be a real number, got %r"
                              % (name, value))
    if domain is not None:
        _inside(name, value, domain)
    return value


def _numbers(name, values, kinds='iuf', domain=None, least=1):
    """values as a float array (complex if kinds, numpy dtype kinds, has
    'c'), refusing by name an entry of another kind (a string, None, a
    bool), before numpy can raise a bare TypeError or ValueError, fewer
    than ``least`` entries, or an entry outside ``domain`` (as in
    _real)."""
    a = np.asarray(values)
    if a.dtype.kind not in kinds:
        raise InvalidArgument("%s must be numbers, got %r" % (name, values))
    a = a.astype(complex if 'c' in kinds else float)
    if a.size < least:
        raise InvalidArgument("%s must hold at least %d numbers, got %r"
                              % (name, least, values))
    if domain is not None:
        _inside(name, a, domain)
    return a


def _inside(name, value, domain):
    """Refuse by name a value, or an array with an entry, outside the
    interval ``domain``.  The message reads '(0, inf)' as 'finite and
    positive', '[1, inf]' as '>= 1', '(-inf, inf)' as 'finite' and a
    bounded interval as itself."""
    lo, hi = domain[1:-1].split(', ')
    if np.all((value > float(lo) if domain[0] == '(' else value >= float(lo))
              & (value < float(hi) if domain[-1] == ')'
                 else value <= float(hi))):
        return
    words = 'in ' + domain
    if hi == 'inf':
        words = ('positive' if domain[:2] == '(0' else '' if lo == '-inf'
                 else ('> ' if domain[0] == '(' else '>= ') + lo)
        if domain[-1] == ')':
            words = 'finite and ' + words if words else 'finite'
    raise InvalidArgument("%s must be %s, got %r" % (name, words, value))


def _count(name, value, least=1):
    """value, refused by name unless it is an integer >= least, not a bool."""
    if not (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least):
        raise InvalidArgument("%s must be an integer >= %d, got %r"
                              % (name, least, value))
    return value


def _sign(sign):
    """Refuse a sign other than +1 or -1."""
    if sign not in (+1, -1):
        raise InvalidArgument("sign must be +1 or -1, got %r" % (sign,))


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


def _reciprocal(omega):
    """Refuse, naming it, an omega whose reciprocal overflows: the zero
    mode's 1 / omega."""
    if not abs(omega) >= 2.0 ** -1023:
        raise InvalidArgument("omega = %r is too small: 1 / omega "
                              "overflows" % (omega,))

"""Exception types shared across the package."""


class SupercongError(Exception):
    """Base class for every error raised by this package."""


class CompositeModulus(SupercongError):
    """The requested base is not an odd prime."""


class BadExponent(SupercongError):
    """Prime-power exponent outside the supported range {1, 2, 3}."""


class NotPIntegral(SupercongError):
    """Rational has p in its denominator and cannot be reduced mod p^e."""


class RangeError(SupercongError):
    """Integer argument outside the range a computation supports."""


class NTooLarge(SupercongError):
    """Polynomial degree would force a division by p."""


class BoundExceeded(SupercongError):
    """Requested size is beyond the configured exact-arithmetic bound."""


class ZeroM(SupercongError):
    """Scale parameter m vanishes mod p."""


class ExcludedU(SupercongError):
    """Parameter u falls in a residue class excluded by the hypothesis."""

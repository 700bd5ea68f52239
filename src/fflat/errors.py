"""Exception types shared across the package.

Every error message names the offending field, value, or the precision
depth that would have been required, so callers (and the CLI) can act
on it without re-deriving context.
"""


class FFLatError(Exception):
    """Base class for all package-specific errors."""


class ParseError(FFLatError):
    """Malformed element string or instance file field."""


class SingularInput(FFLatError):
    """A matrix required to be invertible has zero determinant."""


class InsufficientPrecision(FFLatError):
    """A truncated series does not reach deep enough to decide the query.

    `needed_floor`, when set, is the exponent floor that would suffice.
    """

    def __init__(self, message, needed_floor=None):
        super().__init__(message)
        self.needed_floor = needed_floor


class PrecisionTooCoarse(FFLatError):
    """An oracle search hit its precision floor before certifying a value."""


class NRational(FFLatError):
    """alpha admits a nonzero Q of degree <= N with Q*alpha in the lattice.

    `witness` is such a Q (a Poly).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CapExceeded(FFLatError):
    """The input lies past the sizes a method is exact for (dinv: N > 2)."""


class BudgetExceeded(FFLatError):
    """An oracle enumeration would exceed the point budget."""


class UndefinedValue(FFLatError):
    """The requested invariant has no defined value for this input."""

"""Exception taxonomy shared across the package."""


class RSRError(Exception):
    """Base class for all rsrforge errors."""


class RationalOverflow(RSRError):
    """Exact rational arithmetic exceeded the checked 128-bit integer range."""


class DomainError(RSRError):
    """Evaluation left the mathematical domain (log of a nonpositive value,
    division by zero, even root of a negative, pole of tan/gamma, ...)."""


class ExpansionTooLarge(RSRError):
    """An exact polynomial expansion would multiply more terms than its
    fixed budget allows."""


class UnboundSymbol(RSRError):
    """An expression references a variable or function symbol the
    environment does not bind."""


class ParseError(RSRError):
    """Expression text does not conform to the grammar.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BasisError(RSRError, ValueError):
    """Queries or atoms do not form a term basis: a query group repeats
    or misses a coordinate, or two atoms coincide.  Also a ValueError,
    what these checks raised before they had a class of their own."""


class CombinatorialBlowup(RSRError):
    """Monomial enumeration would exceed the configured cap."""


class SamplingExhausted(RSRError):
    """Too many consecutive rejected draws; the sampling box is not
    usefully contained in the oracle's domain."""


class TooFewRows(RSRError):
    """Not enough rows for the requested train/test split."""


class NoSparseModel(RSRError):
    """The full regression model already misses the error bound, so no
    sparsification can succeed."""


class UnknownEntry(RSRError, KeyError):
    """No benchmark entry matches a requested name or category.

    Also a KeyError, the exception a failed lookup raises; its message
    reads as written, without the quotes KeyError puts around it.
    """

    __str__ = RSRError.__str__


class UnknownSeries(RSRError):
    """No truncated-series program is registered under that name."""


class NotSolvable(RSRError):
    """The identity cannot be solved for f(x) as a rational expression."""

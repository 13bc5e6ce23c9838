"""Exception types shared by every subsystem.

Each error carries a stable ``code`` string so the CLI can render module
errors uniformly and scripts can match on them.
"""


class SchemeError(Exception):
    code = "error"

    def __init__(self, message=""):
        super().__init__(message or self.__class__.__name__)


class ZeroPolynomial(SchemeError):
    code = "zero-polynomial"


class ConstantPolynomial(SchemeError):
    code = "constant-polynomial"


class NotHomogeneous(SchemeError):
    code = "not-homogeneous"


class UnsupportedDomain(SchemeError):
    code = "unsupported-domain"


class InfiniteDomain(SchemeError):
    code = "infinite-domain"


class NonFieldBase(SchemeError):
    code = "non-field-base"


class Undecidable(SchemeError):
    code = "undecidable"


class UndecidableContext(SchemeError):
    code = "undecidable-context"


class NoCanonicalMap(SchemeError):
    code = "no-canonical-map"


class NotCatalogued(SchemeError):
    code = "not-catalogued"


class FactorizationUnavailable(SchemeError):
    code = "factorization-unavailable"


class Unsupported(SchemeError):
    code = "unsupported"


class ResidueFieldNotRepresentable(SchemeError):
    code = "residue-field-not-representable"


class IntegralityNotWitnessed(SchemeError):
    code = "integrality-not-witnessed"


class UnitIdeal(SchemeError):
    code = "unit-ideal"


class NilpotentCoordinate(SchemeError):
    code = "nilpotent-coordinate"


class AllZero(SchemeError):
    code = "all-zero"


class NonInvertibleUnit(SchemeError):
    code = "non-invertible-unit"


class InfiniteSpectrum(SchemeError):
    code = "infinite-spectrum"


class NotInvertible(SchemeError):
    code = "not-invertible"


class UndefinedRing(SchemeError):
    """A statement names a ring that no earlier ``ring`` statement defined."""

    code = "undefined-ring"


class UnsupportedLocation(SchemeError):
    """A fiber location other than ``p=N``."""

    code = "unsupported-location"


class UnsupportedSpace(SchemeError):
    """A sheaf space that is not spec(ZZ/n) or spec(GF(p)[x]/(f))."""

    code = "unsupported-space"


class InvalidCover(SchemeError):
    """A twist cover that is not two members, each X or D(n)."""

    code = "invalid-cover"


class BudgetExceeded(SchemeError):
    """An exhaustive enumeration would go over its size budget."""

    code = "budget-exceeded"


class ExponentOverflow(SchemeError):
    """A monomial with an exponent past the packed field width (2^31)."""

    code = "exponent-overflow"


class InvalidArgument(SchemeError, ValueError):
    """An argument outside the domain of the call; also a ValueError."""

    code = "invalid-argument"


class DslSyntaxError(SchemeError):
    code = "syntax-error"

    def __init__(self, message, line=None, column=None, expected=None):
        self.line = line
        self.column = column
        self.expected = expected or []
        loc = f" at line {line}, column {column}" if line is not None else ""
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{loc}{exp}")

"""Exception and warning types shared across the package.

Every error carries a stable ``code`` string; the CLI maps it into the
JSON error envelope.
"""


class TkError(Exception):
    code = "error"


class ZeroPolynomial(TkError):
    code = "zero-polynomial"


class ZeroFunction(TkError):
    code = "zero-function"


class ZeroDenominator(TkError):
    code = "zero-denominator"


class OutOfRange(TkError):
    code = "out-of-range"


class NotInvertibleOnCircle(TkError):
    code = "not-invertible-on-circle"


class NotInHardySpace(TkError):
    code = "not-in-hardy-space"


class NotInKernel(TkError):
    code = "not-in-kernel"


class NotOuter(TkError):
    code = "not-outer"


class TrivialKernel(TkError):
    code = "trivial-kernel"


class CarlesonFailure(TkError):
    code = "carleson-failure"


class PreconditionViolation(TkError):
    code = "precondition-violation"


class PoleOnCircle(TkError):
    code = "pole-on-circle"


class NotSquareIntegrable(TkError):
    code = "not-square-integrable"


class UnboundedSymbol(TkError):
    code = "unbounded-symbol"


class BlaschkeParameterOutOfDisc(TkError):
    code = "blaschke-parameter-out-of-disc"


class ExpressionSyntaxError(TkError):
    """Parse failure; ``position`` is a 0-based offset into the source text."""

    code = "syntax-error"

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class ClassificationWarning(UserWarning):
    """A root sits close to the |z| = 1 classification band boundary."""


class ResolutionWarning(UserWarning):
    """Poles or zeros near the circle slow coefficient decay; results may be
    under-resolved at the default sampling parameters."""


class DimensionMismatchWarning(UserWarning):
    """Subspaces of different dimensions were compared; the reported angle
    covers only the overlap."""

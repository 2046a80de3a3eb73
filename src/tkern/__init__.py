"""Toeplitz kernels, multipliers and factorizations on rational data.

The package computes, in closed form, kernels of Toeplitz operators with
rational symbols on the Hardy space of the disc: explicit bases, minimal
kernels and maximal vectors, multiplier spaces between two kernels,
surjective multipliers and their companion inner functions, Wiener-Hopf
and inner-outer factorizations, and the Cayley bridge to the upper
half-plane. A numeric oracle (FFT coefficients, SVD null spaces,
principal angles) cross-checks every symbolic result. Numpy is loaded
only with the oracle, the verification suite and its random instances, and
by the few steps that work on arrays: a root solve of degree 3 or more
(degree 2 is solved in closed form) or with a near-multiple root, Taylor
series, and evaluation at an array of points.
"""

from .errors import (
    BlaschkeParameterOutOfDisc,
    CarlesonFailure,
    ClassificationWarning,
    DimensionMismatchWarning,
    ExpressionSyntaxError,
    NotInHardySpace,
    NotInKernel,
    NotInvertibleOnCircle,
    NotOuter,
    NotSquareIntegrable,
    OutOfRange,
    PoleOnCircle,
    PreconditionViolation,
    ResolutionWarning,
    TkError,
    TrivialKernel,
    UnboundedSymbol,
    ZeroDenominator,
    ZeroFunction,
    ZeroPolynomial,
)
from .expressions import SymbolExpression, parse_expression
from .factorization import (
    BlaschkeProduct,
    InnerOuterFactorization,
    WienerHopfFactorization,
    blaschke_divides,
    blaschke_from_rational,
    inner_outer,
    wiener_hopf,
)
from .halfplane import (
    HalfPlaneRational,
    cayley_function,
    cayley_symbol,
    circle_norm_squared,
    halfplane_multiplier_test,
    inverse_cayley_symbol,
    line_norm_squared,
    transfer_multiplier,
)
from .kernels import (
    EquivalenceWitness,
    MaximalityCertificate,
    ToeplitzKernel,
    dim_from_factorization,
    equals,
    in_kernel,
    includes,
    is_equivalent,
    is_maximal,
    is_rigid,
    kernel,
    minimal_kernel,
)
from .multipliers import (
    MultiplierSpace,
    SurjectivityReport,
    carleson_check,
    crofoot_companion,
    image_kernel,
    is_multiplier,
    is_surjective_multiplier,
    multiplier_space,
    multiplier_space_bounded,
    smirnov_multiplier_test,
)
from .rational import (
    ComplexPolynomial,
    RationalFunction,
    RootClassification,
    ToeplitzSymbol,
    as_rational,
    as_symbol,
    classify_roots,
    format_complex,
    format_rational,
    monomial,
    poly_roots,
    winding_number,
)

# The oracle and the verification suite need numpy, which nothing above
# imports: they load on first access (PEP 562), so that ``import tkern`` and
# every command that runs no oracle stay free of numpy. A name is looked up
# in its module on each access and never cached here, so the package hands
# out whatever that module holds at the time.
_LAZY = {
    "oracle": (
        "BoundarySampling",
        "NumericSubspace",
        "boundary_sampling",
        "circle_samples",
        "fourier_coefficients",
        "numeric_kernel",
        "principal_angle",
        "subspace_from_rationals",
    ),
    "verify": ("run_suite",),
    "random_instances": (),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module

            loaded = import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += [*_LAZY, *(name for names in _LAZY.values() for name in names)]

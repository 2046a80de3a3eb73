"""Toeplitz kernels, multipliers and factorizations on rational data.

The package computes, in closed form, kernels of Toeplitz operators with
rational symbols on the Hardy space of the disc: explicit bases, minimal
kernels and maximal vectors, multiplier spaces between two kernels,
surjective multipliers and their companion inner functions, Wiener-Hopf
and inner-outer factorizations, and the Cayley bridge to the upper
half-plane. A numeric oracle (FFT coefficients, SVD null spaces,
principal angles) cross-checks every symbolic result.
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
    UndefinedQuotient,
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
from .oracle import (
    BoundarySampling,
    NumericSubspace,
    boundary_sampling,
    circle_samples,
    fourier_coefficients,
    numeric_kernel,
    principal_angle,
    quadrature_norm_squared,
    subspace_from_rationals,
    winding_by_quadrature,
)
from .rational import (
    ComplexPolynomial,
    RationalFunction,
    RootClassification,
    ToeplitzSymbol,
    as_rational,
    as_symbol,
    circle_conjugate,
    classify_roots,
    format_complex,
    format_rational,
    monomial,
    poly_roots,
    winding_number,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

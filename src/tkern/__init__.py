"""Toeplitz kernels, multipliers and factorizations on rational data.

The package computes, in closed form, kernels of Toeplitz operators with
rational symbols on the Hardy space of the disc: explicit bases, minimal
kernels and maximal vectors, multiplier spaces between two kernels,
surjective multipliers and their companion inner functions, Wiener-Hopf
and inner-outer factorizations, and the Cayley bridge to the upper
half-plane. A numeric oracle (FFT coefficients, SVD null spaces,
principal angles) cross-checks every symbolic result.

``import tkern`` imports no submodule: each loads on the first access to
it or to one of its names (PEP 562), so a caller compiles only the
modules it uses. Numpy is loaded only with the oracle, the verification
suite and its random instances, and by the few steps that work on arrays:
a root solve of degree 3 or more (degree 2 is solved in closed form) or
with a near-multiple root, Taylor series, and evaluation at an array of
points.
"""

# Each submodule and the public names it defines.
_MODULES = {
    "errors": (
        "BlaschkeParameterOutOfDisc", "CarlesonFailure", "ClassificationWarning",
        "DimensionMismatchWarning", "ExpressionSyntaxError", "NotInHardySpace", "NotInKernel",
        "NotInvertibleOnCircle", "NotOuter", "NotSquareIntegrable", "OutOfRange", "PoleOnCircle",
        "PreconditionViolation", "ResolutionWarning", "TkError", "TrivialKernel",
        "UnboundedSymbol", "ZeroDenominator", "ZeroFunction", "ZeroPolynomial",
    ),
    "expressions": ("SymbolExpression", "parse_expression"),
    "factorization": (
        "BlaschkeProduct", "InnerOuterFactorization", "WienerHopfFactorization",
        "blaschke_divides", "blaschke_from_rational", "inner_outer", "wiener_hopf",
    ),
    "halfplane": (
        "HalfPlaneRational", "cayley_function", "cayley_symbol", "circle_norm_squared",
        "halfplane_multiplier_test", "inverse_cayley_symbol", "line_norm_squared",
        "transfer_multiplier",
    ),
    "kernels": (
        "EquivalenceWitness", "MaximalityCertificate", "ToeplitzKernel",
        "dim_from_factorization", "equals", "in_kernel", "includes", "is_equivalent",
        "is_maximal", "is_rigid", "kernel", "minimal_kernel",
    ),
    "multipliers": (
        "MultiplierSpace", "SurjectivityReport", "carleson_check", "crofoot_companion",
        "image_kernel", "is_multiplier", "is_surjective_multiplier", "multiplier_space",
        "smirnov_multiplier_test",
    ),
    "oracle": (
        "BoundarySampling", "NumericSubspace", "boundary_sampling", "circle_samples",
        "fourier_coefficients", "numeric_kernel", "principal_angle", "subspace_from_rationals",
    ),
    "random_instances": (),
    "rational": (
        "ComplexPolynomial", "RationalFunction", "RootClassification", "ToeplitzSymbol",
        "as_rational", "as_symbol", "classify_roots", "format_complex", "format_rational",
        "monomial", "poly_roots", "winding_number",
    ),
    "verify": ("run_suite",),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULES, *_HOME]


def __getattr__(name):
    """Import the module that ``name`` is or belongs to, and bind all of that
    module's names here at once: later reads of them are plain attributes.
    The import itself binds the module (``tkern.kernels``)."""
    module = _HOME.get(name, name if name in _MODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    for attr in _MODULES[module]:
        globals()[attr] = getattr(loaded, attr)
    return globals()[name]


def __dir__():
    return __all__

"""Multipliers between Toeplitz kernels.

The membership test uses a single maximal vector of the source kernel as
a test function, guarded by a Carleson condition which, for rational data,
is exact and reads w alone: w has no circle pole. An independent route,
conjugate-Smirnov pole bookkeeping on its own ratio with no kernel built,
is provided for cross-checking, together with multiplier spaces,
surjective multipliers, image kernels and the companion inner function of
a surjective multiplier between model spaces.
"""

from __future__ import annotations

from typing import Optional

from .errors import (
    CarlesonFailure,
    NotInvertibleOnCircle,
    NotOuter,
    PreconditionViolation,
    TrivialKernel,
    ZeroFunction,
)
from .factorization import BlaschkeProduct, blaschke_from_rational
from .kernels import ToeplitzKernel, _in_span, equals, is_maximal, kernel, minimal_kernel
from .rational import (
    RationalFunction,
    Record,
    ToeplitzSymbol,
    _quotient_zero_count,
    as_rational,
    as_symbol,
    monomial,
)

class MultiplierSpace(Record):
    """Multipliers from ker T_g into ker T_h as an explicit kernel.

    ``test_symbol`` is the reduction of (1/z) * h / g; the space is its
    Toeplitz kernel. The class constant ``carleson_filtered`` records
    that every basis element satisfies the Carleson condition for the
    source kernel. This holds by construction: both kernels consist of
    rational Hardy-space functions, which have no poles on the closed
    disc, and neither has a product of two of them. Each is bounded there
    too, which ``multiplier_space_bounded`` marks as ``bounded_verified``.
    """

    source: ToeplitzSymbol
    target: ToeplitzSymbol
    test_symbol: ToeplitzSymbol
    space: ToeplitzKernel
    bounded_verified: bool = False

    carleson_filtered = True
    note = (
        "for rational symbols every Smirnov-class multiplier with Carleson "
        "control is rational, so the unrestricted and square-integrable "
        "multiplier spaces coincide here"
    )

    @property
    def dimension(self) -> int:
        return self.space.dimension

    @property
    def basis(self):
        return self.space.basis


class SurjectivityReport(Record):
    """Flag breakdown for w * ker T_g = ker T_h.

    ``holds`` is the conjunction of the four component checks: w outer,
    the Carleson condition for w against the source kernel, the Carleson
    condition for 1/w against the target kernel, and the symbol identity
    ker T_h = ker T_{g * conj(w)/w}.
    """

    multiplier: RationalFunction
    outer_ok: bool
    carleson_forward_ok: bool
    carleson_inverse_ok: bool
    symbol_identity_ok: bool

    @property
    def holds(self) -> bool:
        return (
            self.outer_ok
            and self.carleson_forward_ok
            and self.carleson_inverse_ok
            and self.symbol_identity_ok
        )


def carleson_check(w, K: ToeplitzKernel) -> bool:
    """Rational Carleson condition: w maps the kernel plus * P_{d-1} into
    L2 of the circle iff w has no circle pole, since plus has no zero or
    pole in the closed disc. No product is built."""
    return K.plus is None or not as_rational(w).pole_classification().on_circle


def _require_nontrivial(s: ToeplitzSymbol) -> None:
    if s.winding >= 0:  # raises NotInvertibleOnCircle when undefined
        raise TrivialKernel("operation requires a nontrivial kernel")


def _nontrivial_kernel(s: ToeplitzSymbol) -> ToeplitzKernel:
    _require_nontrivial(s)
    return kernel(s)


def is_multiplier(w, g, h, test_vector=None) -> bool:
    """Membership of ``w`` in the multiplier space from ker T_g to ker T_h.

    True iff w has no pole in the open disc, satisfies the Carleson
    condition for the source kernel, and w * k lands in ker T_h for the
    canonical maximal vector k (the top ladder element), read from the
    roots of w, k and the plus factor of ker T_h. A user-supplied
    maximal vector may be passed instead; it is verified before use.
    """
    w = as_rational(w)
    g, h = as_symbol(g), as_symbol(h)
    Kg = _nontrivial_kernel(g)
    _require_nontrivial(h)
    if w.pole_classification().inside:
        return False
    if not carleson_check(w, Kg):
        return False
    if test_vector is None:
        k = Kg.maximal_vector()
    else:
        k = as_rational(test_vector)
        if not is_maximal(k, g).is_maximal:
            raise PreconditionViolation("supplied test vector is not maximal for the source kernel")
    # w has no pole on the closed disc and k lies in the Hardy space, so
    # w * k does too: its membership reads the roots of w and k, with no
    # product or gain formed
    Kh = kernel(h)
    return w.is_zero or _in_span(w._zeros + k._zeros, w._poles + k._poles, Kh)


def smirnov_multiplier_test(w, g, h) -> bool:
    """Independent route to the same decision: w analytic on the open
    disc and h * w / g, reduced once, in the conjugate Hardy space. Its
    circle poles are w's, since g and h have no circle root, so it also
    decides the Carleson condition, with no kernel built."""
    w = as_rational(w)
    g, h = as_symbol(g), as_symbol(h)
    _require_nontrivial(g)
    _require_nontrivial(h)
    if w.pole_classification().inside:
        return False
    ratio = RationalFunction._product((h.value, w), (g.value,), unit_gain=True)
    return ratio.in_conjugate_hardy2()


def multiplier_space(g, h) -> MultiplierSpace:
    """The square-integrable multipliers from ker T_g into ker T_h,
    computed as the kernel of the symbol (1/z) * h / g, reduced once.
    The source kernel must be nontrivial (TrivialKernel otherwise), and
    the test symbol free of circle roots (NotInvertibleOnCircle)."""
    g, h = as_symbol(g), as_symbol(h)
    _require_nontrivial(g)
    t = ToeplitzSymbol(RationalFunction._product((monomial(-1), h.value), (g.value,)))
    if not t.circle_invertible:
        raise NotInvertibleOnCircle("reduced multiplier test symbol has circle zeros or poles")
    return MultiplierSpace(g, h, t, kernel(t))


def multiplier_space_bounded(g, h) -> MultiplierSpace:
    """Same space, marked bounded: every element plus * p is pole-free on
    the closed disc by construction of plus; for rational data with a
    finite-dimensional target this coincides with ``multiplier_space``."""
    ms = multiplier_space(g, h)
    return MultiplierSpace(ms.source, ms.target, ms.test_symbol, ms.space, bounded_verified=True)


def image_kernel(w, g) -> Optional[ToeplitzKernel]:
    """Decide whether w * ker T_g is itself a Toeplitz kernel.

    The only candidate is the minimal kernel K = plus_v * P_{d-1} of w * k
    for a maximal vector k. The image w * plus_g * P_{d-1} is K exactly
    when dim K = d and w * plus_g / plus_v is a constant (a rational r with
    r and r * z**(d-1) in P_{d-1} is one): its roots cancel to none
    (``_quotient_zero_count``). Otherwise it is a proper subspace of every
    Toeplitz kernel containing it and None is returned.
    """
    w = as_rational(w)
    if w.is_zero:
        raise ZeroFunction("the zero multiplier has no image kernel")
    g = as_symbol(g)
    Kg = _nontrivial_kernel(g)
    if not carleson_check(w, Kg):
        raise CarlesonFailure("w fails the Carleson condition for the source kernel")
    wk = w * Kg.maximal_vector()
    if not wk.in_hardy2():
        return None
    K = minimal_kernel(wk)[1]
    if K.dimension != Kg.dimension:
        return None
    zeros, poles = w._zeros + Kg.plus._zeros, w._poles + Kg.plus._poles
    return K if _quotient_zero_count(zeros + K.plus._poles, poles + K.plus._zeros) == 0 else None


def is_surjective_multiplier(w, g, h) -> SurjectivityReport:
    """Test w * ker T_g = ker T_h and report each component condition.

    Surjectivity holds iff w is outer, w and 1/w satisfy the Carleson
    conditions for source and target, and the target symbol has the same
    kernel as g * circle_conjugate(w) / w, reduced once.
    """
    w = as_rational(w)
    if w.is_zero:
        raise ZeroFunction("the zero function is not a surjective multiplier")
    g, h = as_symbol(g), as_symbol(h)
    Kg = _nontrivial_kernel(g)
    _require_nontrivial(h)

    zc, pc = w.zero_classification(), w.pole_classification()
    outer_ok = not zc.inside and not pc.inside
    forward_ok = carleson_check(w, Kg)
    inverse_ok = not zc.on_circle  # carleson_check of 1/w: w's zeros are its poles
    candidate = RationalFunction._product((g.value, w.circle_conjugate()), (w,), unit_gain=True)
    identity_ok = equals(h, ToeplitzSymbol(candidate))
    return SurjectivityReport(w, outer_ok, forward_ok, inverse_ok, identity_ok)


def crofoot_companion(theta: BlaschkeProduct, w) -> Optional[BlaschkeProduct]:
    """Companion inner function of a surjective multiplier between model
    spaces: theta * w / circle_conjugate(w), reduced once, returned
    when it is a finite Blaschke product and None otherwise."""
    w = as_rational(w)
    if w.is_zero:
        raise ZeroFunction("the zero function is not a multiplier")
    zc, pc = w.zero_classification(), w.pole_classification()
    if zc.inside or pc.inside:
        raise NotOuter("companion construction expects an outer multiplier")
    phi = RationalFunction._product((theta.to_rational(), w), (w.circle_conjugate(),))
    return blaschke_from_rational(phi)

"""Multipliers between Toeplitz kernels.

The membership test uses a single maximal vector of the source kernel as
a test function, guarded by a Carleson condition which, for rational data,
is exact: a product stays square-integrable on the circle iff its reduced
form has no circle poles. An independent route through conjugate-Smirnov
pole bookkeeping is provided for cross-checking, together with multiplier
spaces, surjective multipliers, image kernels and the companion inner
function of a surjective multiplier between model spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    CarlesonFailure,
    NotInvertibleOnCircle,
    NotOuter,
    PreconditionViolation,
    TrivialKernel,
    UndefinedQuotient,
    ZeroDenominator,
    ZeroFunction,
)
from .factorization import BlaschkeProduct, blaschke_from_rational
from .kernels import ToeplitzKernel, equals, in_kernel, is_maximal, kernel, minimal_kernel
from .rational import (
    RationalFunction,
    ToeplitzSymbol,
    as_rational,
    as_symbol,
    monomial,
)

_RATIONAL_SCALE_NOTE = (
    "for rational symbols every Smirnov-class multiplier with Carleson "
    "control is rational, so the unrestricted and square-integrable "
    "multiplier spaces coincide here"
)


@dataclass(frozen=True)
class MultiplierSpace:
    """Multipliers from ker T_g into ker T_h as an explicit kernel.

    ``test_symbol`` is the reduction of (1/z) * h / g; the space is its
    Toeplitz kernel. ``carleson_filtered`` records that every basis
    element satisfies the Carleson condition for the source kernel. This
    holds by construction: both kernels consist of rational Hardy-space
    functions, which have no poles on the closed disc, and neither has a
    product of two of them.
    """

    source: ToeplitzSymbol
    target: ToeplitzSymbol
    test_symbol: ToeplitzSymbol
    space: ToeplitzKernel
    carleson_filtered: bool
    bounded_verified: bool = False
    note: str = field(default=_RATIONAL_SCALE_NOTE, repr=False)

    @property
    def dimension(self) -> int:
        return self.space.dimension

    @property
    def basis(self):
        return self.space.basis


@dataclass(frozen=True)
class SurjectivityReport:
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
    """Rational Carleson condition: w maps the kernel into L2 of the
    circle iff no reduced product w * basis-element has a circle pole."""
    w = as_rational(w)
    for b in K.basis:
        if (w * b).pole_classification().on_circle:
            return False
    return True


def _require_nontrivial(s: ToeplitzSymbol) -> None:
    if s.winding >= 0:  # raises NotInvertibleOnCircle when undefined
        raise TrivialKernel("operation requires a nontrivial kernel")


def _nontrivial_kernel(s: ToeplitzSymbol) -> ToeplitzKernel:
    _require_nontrivial(s)
    return kernel(s)


def is_multiplier(w, g, h, test_vector=None) -> bool:
    """Membership of ``w`` in the multiplier space from ker T_g to ker T_h.

    True iff w satisfies the Carleson condition for the source kernel and
    w * k lands in ker T_h for the canonical maximal vector k (the top
    ladder element). A user-supplied maximal vector may be passed instead;
    it is verified before use.
    """
    w = as_rational(w)
    g, h = as_symbol(g), as_symbol(h)
    Kg = _nontrivial_kernel(g)
    _require_nontrivial(h)
    if not carleson_check(w, Kg):
        return False
    if test_vector is None:
        k = Kg.maximal_vector()
    else:
        k = as_rational(test_vector)
        if not is_maximal(k, g).is_maximal:
            raise PreconditionViolation("supplied test vector is not maximal for the source kernel")
    return in_kernel(w * k, h)


def smirnov_multiplier_test(w, g, h) -> bool:
    """Independent route to the same decision: w analytic on the open
    disc, Carleson condition, and circle_conjugate(h * w / g) without
    poles in the open unit disc (conjugate-Smirnov membership)."""
    w = as_rational(w)
    g, h = as_symbol(g), as_symbol(h)
    Kg = _nontrivial_kernel(g)
    _require_nontrivial(h)
    if w.pole_classification().inside:
        return False
    if not carleson_check(w, Kg):
        return False
    ratio = (h.value * w / g.value).circle_conjugate()
    return not ratio.pole_classification().inside


def multiplier_space(g, h) -> MultiplierSpace:
    """The square-integrable multipliers from ker T_g into ker T_h,
    computed as the kernel of the reduced symbol (1/z) * h / g."""
    g, h = as_symbol(g), as_symbol(h)
    try:
        t = ToeplitzSymbol(monomial(-1) * h.value / g.value)
    except (ZeroDenominator, ZeroFunction) as exc:
        raise UndefinedQuotient(str(exc)) from exc
    if not t.circle_invertible:
        raise NotInvertibleOnCircle("reduced multiplier test symbol has circle zeros or poles")
    if not g.circle_invertible:
        raise NotInvertibleOnCircle("source symbol has circle zeros or poles")
    return MultiplierSpace(g, h, t, kernel(t), carleson_filtered=True)


def multiplier_space_bounded(g, h) -> MultiplierSpace:
    """Same space with each basis element re-verified to be bounded
    (pole-free on the closed disc); for rational data with a
    finite-dimensional target this coincides with ``multiplier_space``."""
    ms = multiplier_space(g, h)
    for b in ms.space.basis:
        pc = b.pole_classification()
        if pc.inside or pc.on_circle:
            raise PreconditionViolation("multiplier basis element is unbounded on the closed disc")
    return MultiplierSpace(
        ms.source, ms.target, ms.test_symbol, ms.space,
        carleson_filtered=ms.carleson_filtered, bounded_verified=True,
    )


def image_kernel(w, g) -> Optional[ToeplitzKernel]:
    """Decide whether w * ker T_g is itself a Toeplitz kernel.

    The only candidate is the minimal kernel of w * k for a maximal vector
    k. When its dimension matches dim ker T_g and every transported basis
    element lies inside, the image is exactly that kernel; otherwise the
    image is a proper subspace of every Toeplitz kernel containing it and
    None is returned.
    """
    w = as_rational(w)
    if w.is_zero:
        raise ZeroFunction("the zero multiplier has no image kernel")
    g = as_symbol(g)
    Kg = _nontrivial_kernel(g)
    if not carleson_check(w, Kg):
        raise CarlesonFailure("w fails the Carleson condition for the source kernel")
    wk = w * Kg.maximal_vector()
    if wk.is_zero or not wk.in_hardy2():
        return None
    v, K = minimal_kernel(wk)
    if K.dimension != Kg.dimension:
        return None
    for b in Kg.basis:
        if not in_kernel(w * b, v):
            return None
    return K


def is_surjective_multiplier(w, g, h) -> SurjectivityReport:
    """Test w * ker T_g = ker T_h and report each component condition.

    Surjectivity holds iff w is outer, w and 1/w satisfy the Carleson
    conditions for source and target, and the target symbol has the same
    kernel as g * circle_conjugate(w) / w.
    """
    w = as_rational(w)
    if w.is_zero:
        raise ZeroFunction("the zero function is not a surjective multiplier")
    g, h = as_symbol(g), as_symbol(h)
    Kg = _nontrivial_kernel(g)
    Kh = _nontrivial_kernel(h)

    zc, pc = w.zero_classification(), w.pole_classification()
    outer_ok = not zc.inside and not pc.inside
    forward_ok = carleson_check(w, Kg)
    inverse_ok = carleson_check(RationalFunction(1.0) / w, Kh)
    candidate = ToeplitzSymbol(g.value * w.circle_conjugate() / w)
    identity_ok = equals(h, candidate)
    return SurjectivityReport(w, outer_ok, forward_ok, inverse_ok, identity_ok)


def crofoot_companion(theta: BlaschkeProduct, w) -> Optional[BlaschkeProduct]:
    """Companion inner function of a surjective multiplier between model
    spaces: the reduction of theta * w / circle_conjugate(w), returned
    when it is a finite Blaschke product and None otherwise."""
    w = as_rational(w)
    if w.is_zero:
        raise ZeroFunction("the zero function is not a multiplier")
    zc, pc = w.zero_classification(), w.pole_classification()
    if zc.inside or pc.inside:
        raise NotOuter("companion construction expects an outer multiplier")
    phi = theta.to_rational() * w / w.circle_conjugate()
    return blaschke_from_rational(phi)

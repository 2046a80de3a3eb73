"""Multipliers between Toeplitz kernels.

The membership test uses the top ladder vector of the source kernel, a
maximal vector, as a test function, guarded by a Carleson condition which,
for rational data, is exact and reads w alone: w has no circle pole. An
independent route, conjugate-Smirnov pole bookkeeping on its own ratio
with no kernel built, is provided for cross-checking. The multiplier space
from ker T_g = plus_g * P_{d_g-1} into ker T_h = plus_h * P_{d_h-1} is
read from the two parametrisations: (plus_h / plus_g) * P_{d_h-d_g}. The
module also decides surjective multipliers and image kernels, and builds
the companion inner function of a surjective multiplier between model
spaces.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .errors import CarlesonFailure, NotOuter, TrivialKernel, ZeroFunction
from .factorization import BlaschkeProduct, blaschke_from_rational
from .kernels import ToeplitzKernel, _in_span, _ladder, equals, kernel, minimal_kernel
from .rational import (
    RationalFunction,
    Record,
    ToeplitzSymbol,
    _quotient_zero_count,
    as_rational,
    as_symbol,
)

class MultiplierSpace(Record):
    """Multipliers from ker T_g = plus_g * P_{d_g-1} into ker T_h =
    plus_h * P_{d_h-1}: the space factor * P_{d_h-d_g}, held as its
    dimension max(0, d_h - d_g + 1) and its factor plus_h / plus_g (None
    when the dimension is 0). Every element is rational and free of poles
    on the closed disc, so bounded there and Carleson for the source
    kernel. The basis, the ladder ``factor * z**j``, is built on its first
    read."""

    source: ToeplitzSymbol
    target: ToeplitzSymbol
    dimension: int
    factor: Optional[RationalFunction]

    @cached_property
    def basis(self) -> tuple:
        return _ladder(self.factor, self.dimension)


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


def is_multiplier(w, g, h) -> bool:
    """Membership of ``w`` in the multiplier space from ker T_g to ker T_h.

    True iff w has no pole in the open disc, satisfies the Carleson
    condition for the source kernel, and w * k lands in ker T_h for the
    canonical maximal vector k (the top ladder element), read from the
    roots of w, k and the plus factor of ker T_h. Any other maximal vector
    would decide the same.
    """
    w = as_rational(w)
    g, h = as_symbol(g), as_symbol(h)
    Kg = _nontrivial_kernel(g)
    _require_nontrivial(h)
    if w.pole_classification().inside:
        return False
    if not carleson_check(w, Kg):
        return False
    k = Kg.maximal_vector()
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
    """The multipliers from ker T_g into ker T_h, read from the two
    kernels, which stay kept on their symbols: w * plus_g * p lies in
    plus_h * P_{d_h-1} for every p of degree below d_g exactly when w is
    plus_h / plus_g times a polynomial of degree at most d_h - d_g. The
    source kernel must be nontrivial (TrivialKernel otherwise), and g
    and h free of circle roots (NotInvertibleOnCircle)."""
    g, h = as_symbol(g), as_symbol(h)
    Kg = _nontrivial_kernel(g)
    Kh = kernel(h)
    d = max(0, Kh.dimension - Kg.dimension + 1)
    factor = RationalFunction._product((Kh.plus,), (Kg.plus,)) if d else None
    return MultiplierSpace(g, h, d, factor)


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

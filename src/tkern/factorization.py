"""Inner-outer and Wiener-Hopf factorization of rational functions.

Every rational function in the disc Hardy space splits as a finite
Blaschke product times a rational outer factor. Every circle-invertible
rational symbol splits as ``minus * z**k * plus**-1`` where ``plus`` is
invertible-analytic on the closed disc, ``minus`` is invertible-analytic
on the closed exterior (including infinity), and ``k`` is the winding
number.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

from .errors import (
    BlaschkeParameterOutOfDisc,
    NotInHardySpace,
    ZeroFunction,
)
from .rational import (
    BLASCHKE_RADIUS,
    Frozen,
    RationalFunction,
    Record,
    ToeplitzSymbol,
    _multiplicity,
    _nonzero_gain,
    _power,
    _quotient_zero_count,
    _reflect,
    _sorted_roots,
    as_rational,
    as_symbol,
    format_complex,
    monomial,
)

# How far |r| may stray from 1 on the circle for r to count as inner.
INNER_TOL = 1e-8


class BlaschkeProduct(Frozen):
    """Finite Blaschke product: unimodular constant times factors
    (z - a)/(1 - conj(a) z) over zeros ``a`` in the open unit disc, far
    enough inside that no zero cancels its own pole (|a| <
    ``BLASCHKE_RADIUS``), each with an integer multiplicity of at least 1."""

    __slots__ = ("constant", "zeros")

    def __init__(self, constant=1.0, zeros=()):
        constant = complex(constant)
        if abs(abs(constant) - 1.0) > 1e-12:
            raise ValueError(f"Blaschke constant must be unimodular, got |c| = {abs(constant)}")
        norm = []
        for item in zeros:
            a, m = item if isinstance(item, tuple) else (item, 1)
            a = complex(a)
            if abs(a) >= BLASCHKE_RADIUS:
                raise BlaschkeParameterOutOfDisc(
                    f"Blaschke zero {format_complex(a)} is not inside |a| < {BLASCHKE_RADIUS:.8g}"
                )
            norm.append((a, _multiplicity(m)))
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "zeros", tuple(_sorted_roots(norm)))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    def to_rational(self) -> RationalFunction:
        # 1 - conj(a) z = -conj(a) (z - 1/conj(a)): each zero a != 0 gives
        # the pole 1/conj(a) and divides the gain by -conj(a) (``_reflect``)
        reflected_gain, poles = _reflect(1.0, self.zeros)
        return RationalFunction._from_roots(self.constant / reflected_gain, self.zeros, poles)

    def __repr__(self):
        return f"BlaschkeProduct({self.constant!r}, {list(self.zeros)})"


class InnerOuterFactorization(Record):
    inner: BlaschkeProduct
    outer: RationalFunction


class WienerHopfFactorization(Record):
    symbol: ToeplitzSymbol
    index: int
    plus: RationalFunction

    @cached_property
    def minus(self) -> RationalFunction:
        """symbol * plus * z**(-index), reduced once."""
        return RationalFunction._product((self.symbol.value, self.plus, monomial(-self.index)))


def inner_outer(f) -> InnerOuterFactorization:
    """Split a rational Hardy-space function into a finite Blaschke product
    and a rational outer factor.

    The inner factor collects exactly the zeros strictly inside the disc;
    circle and exterior zeros, and all poles, stay with the outer factor.
    The unimodular constant is fixed so that the outer factor is positive
    at the origin.
    """
    f = as_rational(f)
    if f.is_zero:
        raise ZeroFunction("cannot factor the zero function")
    if not f.in_hardy2():
        raise NotInHardySpace(
            "poles inside or on the unit circle: not in the disc Hardy space"
        )
    zc = f.zero_classification()
    outer = f / BlaschkeProduct(1.0, zc.inside).to_rational()
    v = complex(outer(0.0))
    u = v / abs(v)  # outer(0) != 0: no inside zeros, no pole at 0
    return InnerOuterFactorization(BlaschkeProduct(u, zc.inside), outer / u)


def wiener_hopf(s) -> WienerHopfFactorization:
    """Factor a circle-invertible rational symbol as minus * z**k / plus.

    ``plus`` carries the zeros and poles strictly outside the circle and is
    normalized to plus(0) = 1; ``minus`` carries those strictly inside,
    written so that minus is finite and nonzero at infinity; ``k`` is the
    winding number. plus is built with no reduction: its zeros are the
    value's outside poles and its poles the value's outside zeros, each a
    sorted sub-multiset of the value's reduced state (the classification
    keeps the order).
    """
    s = as_symbol(s)
    index = s.winding  # raises NotInvertibleOnCircle when undefined
    zc = s.value.zero_classification()
    pc = s.value.pole_classification()

    # plus(0) = 1: an outside root r enters plus as (1 - z/r) = (z - r)/(-r)
    gain = 1.0 + 0j
    for r, m in zc.outside:
        gain *= _power(-r, m)
    for r, m in pc.outside:
        gain /= _power(-r, m)
    plus = RationalFunction._reduced(_nonzero_gain(gain), pc.outside, zc.outside)
    return WienerHopfFactorization(s, index, plus)


def blaschke_divides(alpha: BlaschkeProduct, theta: BlaschkeProduct) -> bool:
    """True when every zero of ``alpha`` appears among ``theta``'s zeros
    with at least the same multiplicity: theta's zeros over alpha's, with
    roots matched within EPS_ROOT, leave no pole (``_quotient_zero_count``)."""
    return _quotient_zero_count(theta.zeros, alpha.zeros) is not None


def blaschke_from_rational(r):
    """Recognize a reduced rational function as a finite Blaschke product.

    Returns the BlaschkeProduct, or None when the function is not inner
    (zeros outside the open disc, or boundary modulus more than
    ``INNER_TOL`` away from 1). r / B, for B with r's zeros, is the constant
    r._gain / B._gain when its roots cancel to none (``_quotient_zero_count``).
    """
    r = as_rational(r)
    if r.is_zero:
        return None
    zc = r.zero_classification()
    if zc.on_circle or zc.outside:
        return None
    try:
        b = BlaschkeProduct(1.0, zc.inside).to_rational()
    except BlaschkeParameterOutOfDisc:
        return None
    if _quotient_zero_count(r._zeros + b._poles, r._poles + b._zeros) != 0:
        return None
    c = r._gain / b._gain
    if abs(abs(c) - 1.0) > INNER_TOL:
        return None
    for k in range(64):
        if abs(abs(r(cmath.exp(2j * math.pi * k / 64))) - 1.0) > INNER_TOL:
            return None
    return BlaschkeProduct(c / abs(c), zc.inside)

"""Inner-outer and Wiener-Hopf factorization of rational functions.

Every rational function in the disc Hardy space splits as a finite
Blaschke product times a rational outer factor. Every circle-invertible
rational symbol splits as ``minus * z**k * plus**-1`` where ``plus`` is
invertible-analytic on the closed disc, ``minus`` is invertible-analytic
on the closed exterior (including infinity), and ``k`` is the winding
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BlaschkeParameterOutOfDisc,
    NotInHardySpace,
    NotInvertibleOnCircle,
    ZeroFunction,
)
from .rational import (
    EPS_CIRCLE,
    RationalFunction,
    ToeplitzSymbol,
    _power,
    as_rational,
    as_symbol,
    monomial,
)

# How far |r| may stray from 1 on the circle for r to count as inner.
INNER_TOL = 1e-8


class BlaschkeProduct:
    """Finite Blaschke product: unimodular constant times factors
    (z - a)/(1 - conj(a) z) over zeros ``a`` in the open unit disc."""

    __slots__ = ("constant", "zeros")

    def __init__(self, constant=1.0, zeros=()):
        constant = complex(constant)
        if abs(abs(constant) - 1.0) > 1e-12:
            raise ValueError(f"Blaschke constant must be unimodular, got |c| = {abs(constant)}")
        norm = []
        for item in zeros:
            a, m = item if isinstance(item, tuple) else (item, 1)
            a = complex(a)
            if abs(a) >= 1.0 - EPS_CIRCLE:
                raise BlaschkeParameterOutOfDisc(
                    f"Blaschke zero {a:.12g} is not strictly inside the unit disc"
                )
            norm.append((a, int(m)))
        norm.sort(key=lambda am: (am[0].real, am[0].imag))
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "zeros", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("BlaschkeProduct is immutable")

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    def to_rational(self) -> RationalFunction:
        # on the circle (1 - conj(a) z) = z conj(z - a), so the product is
        # constant * p / (z**degree * conj(p)) with p = prod (z - a)
        p = RationalFunction._from_roots(1.0, self.zeros)
        return self.constant * p / (monomial(self.degree) * p.circle_conjugate())

    def __call__(self, z):
        return self.to_rational()(z)

    def __repr__(self):
        return f"BlaschkeProduct({self.constant!r}, {list(self.zeros)})"


@dataclass(frozen=True)
class InnerOuterFactorization:
    inner: BlaschkeProduct
    outer: RationalFunction

    def reconstruct(self) -> RationalFunction:
        return self.inner.to_rational() * self.outer


@dataclass(frozen=True)
class WienerHopfFactorization:
    symbol: ToeplitzSymbol
    index: int
    plus: RationalFunction

    @cached_property
    def minus(self) -> RationalFunction:
        return self.symbol.value * self.plus * monomial(-self.index)

    def reconstruct(self) -> RationalFunction:
        return self.minus * monomial(self.index) / self.plus


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
    pc = f.pole_classification()
    if pc.inside or pc.on_circle:
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
    winding number.
    """
    s = as_symbol(s)
    if not s.circle_invertible:
        raise NotInvertibleOnCircle("symbol has a zero or pole on the unit circle")
    zc = s.value.zero_classification()
    pc = s.value.pole_classification()

    # plus(0) = 1: an outside root r enters plus as (1 - z/r) = (z - r)/(-r)
    gain = 1.0 + 0j
    for r, m in zc.outside:
        gain *= _power(-r, m)
    for r, m in pc.outside:
        gain /= _power(-r, m)
    plus = RationalFunction._from_roots(gain, pc.outside, zc.outside)
    return WienerHopfFactorization(s, s.winding, plus)


def blaschke_divides(alpha: BlaschkeProduct, theta: BlaschkeProduct) -> bool:
    """True when every zero of ``alpha`` appears among ``theta``'s zeros
    with at least the same multiplicity: theta's zeros over alpha's, with
    roots matched within EPS_ROOT, leave no pole."""
    return not RationalFunction._from_roots(1.0, theta.zeros, alpha.zeros).poles()


def blaschke_from_rational(r):
    """Recognize a reduced rational function as a finite Blaschke product.

    Returns the BlaschkeProduct, or None when the function is not inner
    (zeros outside the open disc, or boundary modulus more than
    ``INNER_TOL`` away from 1).
    """
    r = as_rational(r)
    if r.is_zero:
        return None
    zc = r.zero_classification()
    if zc.on_circle or zc.outside:
        return None
    try:
        candidate = BlaschkeProduct(1.0, zc.inside)
    except BlaschkeParameterOutOfDisc:
        return None
    ratio = r / candidate.to_rational()
    if not ratio.is_constant:
        return None
    c = ratio.constant_value()
    if abs(abs(c) - 1.0) > INNER_TOL:
        return None
    samples = np.exp(2j * np.pi * np.arange(64) / 64)
    if np.max(np.abs(np.abs(r(samples)) - 1.0)) > INNER_TOL:
        return None
    return BlaschkeProduct(c / abs(c), zc.inside)

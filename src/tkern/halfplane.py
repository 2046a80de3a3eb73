"""Cayley-transform bridge between the upper half-plane and the disc.

Vectors move through the weighted isometry
``(V f)(z) = 2 sqrt(pi) (1+z)^-1 f(i(1-z)/(1+z))`` which maps L2 of the
line onto L2 of the circle and preserves the Hardy spaces; bounded
symbols move through the unweighted composition. Every composition with
the Cayley map or its inverse moves the zeros and poles through the
Moebius map and never expands coefficients, so multiple roots stay
exact. Half-plane multiplier questions are answered entirely by
conjugation with the disc engine: there is no independent half-plane
Toeplitz machinery here.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSquareIntegrable, UnboundedSymbol
from .multipliers import is_multiplier
from .rational import RationalFunction, ToeplitzSymbol, _compose_mobius, as_rational

# Imaginary-part tolerance below which a pole counts as real.
_REAL_AXIS_TOL = 1e-9

_SQRT_PI = float(np.sqrt(np.pi))

# Moebius data (a, b, c, d) of the Cayley map s = i(1-z)/(1+z) and of its
# inverse z = (i-s)/(i+s), each as (a w + b)/(c w + d).
_CAYLEY = (-1j, 1j, 1.0, 1.0)
_INVERSE = (-1.0, 1j, 1.0, 1j)


class HalfPlaneRational:
    """A rational function in the half-plane variable s."""

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", as_rational(value))

    def __setattr__(self, name, value):
        raise AttributeError("HalfPlaneRational is immutable")

    def __call__(self, s):
        return self.value(s)

    def real_poles(self):
        return [
            (p, m)
            for p, m in self.value.poles()
            if abs(p.imag) <= _REAL_AXIS_TOL * (1.0 + abs(p))
        ]

    def _pole_excess(self) -> int:
        """Pole count minus zero count: the order of vanishing at infinity."""
        return sum(m for _, m in self.value.poles()) - sum(m for _, m in self.value.zeros())

    def decays_at_infinity(self) -> bool:
        return self.value.is_zero or self._pole_excess() > 0

    def bounded_at_infinity(self) -> bool:
        return self._pole_excess() >= 0

    def in_l2_line(self) -> bool:
        """Square-integrable on the real line: no real poles and decay
        at least like 1/s at infinity."""
        return (not self.real_poles()) and self.decays_at_infinity()

    def conjugate_on_line(self) -> "HalfPlaneRational":
        """The rational function agreeing with conj(f(s)) for real s: the
        conjugate gain with every zero and pole conjugated."""
        v = self.value
        if v.is_zero:
            return self
        return HalfPlaneRational(
            RationalFunction._from_roots(
                v._gain.conjugate(),
                [(r.conjugate(), m) for r, m in v.zeros()],
                [(r.conjugate(), m) for r, m in v.poles()],
            )
        )

    def __mul__(self, other):
        other = other.value if isinstance(other, HalfPlaneRational) else other
        return HalfPlaneRational(self.value * other)

    def __truediv__(self, other):
        other = other.value if isinstance(other, HalfPlaneRational) else other
        return HalfPlaneRational(self.value / other)

    def __repr__(self):
        return f"HalfPlaneRational({self.value!r})"


def _as_halfplane(f) -> HalfPlaneRational:
    return f if isinstance(f, HalfPlaneRational) else HalfPlaneRational(f)


def cayley_function(f) -> RationalFunction:
    """Weighted transfer of a square-integrable line function to the circle:
    2 sqrt(pi) (1+z)^-1 f(i(1-z)/(1+z)), reduced. Isometric from L2 of the
    line (Lebesgue measure) to L2 of the circle (normalized measure).
    """
    f = _as_halfplane(f)
    if f.value.is_zero:
        return RationalFunction(0.0)
    if not f.in_l2_line():
        raise NotSquareIntegrable(
            "function has a real pole or insufficient decay at infinity"
        )
    # f decays, so the composition vanishes at z = -1 and the weight's
    # pole there cancels
    weight = RationalFunction._from_roots(2.0 * _SQRT_PI, (), [(-1.0, 1)])
    return weight * _compose_mobius(f.value, *_CAYLEY)


def cayley_symbol(g) -> ToeplitzSymbol:
    """Unweighted transfer of a bounded line symbol to the circle:
    g(i(1-z)/(1+z)), reduced."""
    g = _as_halfplane(g)
    if g.value.is_zero or g.real_poles() or not g.bounded_at_infinity():
        raise UnboundedSymbol("symbol must be bounded on the real line and nonzero")
    return ToeplitzSymbol(_compose_mobius(g.value, *_CAYLEY))


def transfer_multiplier(w) -> RationalFunction:
    """Unweighted composition used for multiplier candidates; no
    boundedness requirement (integrability defects surface through the
    Carleson checks on the disc)."""
    return _compose_mobius(_as_halfplane(w).value, *_CAYLEY)


def inverse_cayley_symbol(G) -> HalfPlaneRational:
    """Pull a disc function back to the half-plane variable:
    G((i-s)/(i+s)), reduced."""
    return HalfPlaneRational(_compose_mobius(as_rational(G), *_INVERSE))


def halfplane_multiplier_test(w, g, h) -> bool:
    """Half-plane multiplier membership, decided by conjugation: transfer
    the symbols and the candidate to the disc and run the disc test."""
    W = transfer_multiplier(w)
    G = cayley_symbol(g)
    H = cayley_symbol(h)
    return is_multiplier(W, G, H)


def line_norm_squared(f, quad_points: int = 4096) -> float:
    """Squared L2 norm on the real line through the circle
    parametrization s = tan(t/2) of the Cayley map itself."""
    f = _as_halfplane(f)
    if f.value.is_zero:
        return 0.0
    if not f.in_l2_line():
        raise NotSquareIntegrable("not square-integrable on the line")
    t = (np.arange(quad_points) + 0.5) * (2.0 * np.pi / quad_points)
    z = np.exp(1j * t)
    s = np.real(1j * (1.0 - z) / (1.0 + z))
    # ds = 2 dt / |1+z|^2 along the parametrization
    weight = 2.0 / np.abs(1.0 + z) ** 2
    vals = np.abs(f.value(s)) ** 2 * weight
    return float(np.sum(vals) * (2.0 * np.pi / quad_points))


def circle_norm_squared(F, quad_points: int = 4096) -> float:
    """Squared L2 norm on the circle with normalized measure."""
    F = as_rational(F)
    t = (np.arange(quad_points) + 0.5) * (2.0 * np.pi / quad_points)
    vals = np.abs(F(np.exp(1j * t))) ** 2
    return float(np.mean(vals))

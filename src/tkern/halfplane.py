"""Cayley-transform bridge between the upper half-plane and the disc.

Vectors move through the weighted isometry
``(V f)(z) = 2 sqrt(pi) (1+z)^-1 f(i(1-z)/(1+z))`` which maps L2 of the
line onto L2 of the circle and preserves the Hardy spaces; bounded
symbols move through the unweighted composition. Every composition with
the Cayley map or its inverse moves the zeros and poles through the
Moebius map and never expands coefficients, so multiple roots stay
exact. Half-plane multiplier questions are answered entirely by
conjugation with the disc engine: there is no independent half-plane
Toeplitz machinery here, and no boundary band of its own either. A pole
on the line is a circle pole of the transferred value, classified with
the disc's band ``EPS_CIRCLE``; the order at infinity is counted exactly
from the zeros and poles.
"""

from __future__ import annotations

import math

from .errors import NotSquareIntegrable, UnboundedSymbol
from .rational import Frozen, RationalFunction, ToeplitzSymbol, _compose_mobius, as_rational

_SQRT_PI = math.sqrt(math.pi)
# Midpoint-rule nodes of the two quadrature norms.
QUAD_POINTS = 4096

# Moebius data (a, b, c, d) of the Cayley map s = i(1-z)/(1+z) and of its
# inverse z = (i-s)/(i+s), each as (a w + b)/(c w + d).
_CAYLEY = (-1j, 1j, 1.0, 1.0)
_INVERSE = (-1.0, 1j, 1.0, 1j)


class HalfPlaneRational(Frozen):
    """A rational function in the half-plane variable s."""

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", as_rational(value))

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

    def __repr__(self):
        return f"HalfPlaneRational({self.value!r})"


def _as_halfplane(f) -> HalfPlaneRational:
    return f if isinstance(f, HalfPlaneRational) else HalfPlaneRational(f)


def cayley_function(f) -> RationalFunction:
    """Weighted transfer of a square-integrable line function to the circle:
    2 sqrt(pi) (1+z)^-1 f(i(1-z)/(1+z)), reduced. Isometric from L2 of the
    line (Lebesgue measure) to L2 of the circle (normalized measure).

    Refused unless f decays at infinity (it has more poles than zeros,
    counted exactly) and the transfer has no circle pole (a real pole of
    f lands on the circle).
    """
    v = _as_halfplane(f).value
    weight = RationalFunction._from_roots(2.0 * _SQRT_PI, (), [(-1.0, 1)])
    F = weight * _compose_mobius(v, *_CAYLEY)
    decays = v.is_zero or v.order_at_infinity > 0
    if not decays or F.pole_classification().on_circle:
        raise NotSquareIntegrable(
            "function has a real pole or insufficient decay at infinity"
        )
    return F


def cayley_symbol(g) -> ToeplitzSymbol:
    """Unweighted transfer of a bounded line symbol to the circle:
    g(i(1-z)/(1+z)), reduced. Refused when g grows at infinity (it has
    more zeros than poles, counted exactly), or the transfer is zero or
    has a circle pole (a real pole of g)."""
    v = _as_halfplane(g).value
    G = _compose_mobius(v, *_CAYLEY)
    if v.order_at_infinity < 0 or G.is_zero or G.pole_classification().on_circle:
        raise UnboundedSymbol("symbol must be bounded on the real line and nonzero")
    return ToeplitzSymbol(G)


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
    from .multipliers import is_multiplier  # here, so the transfers load no multiplier code

    W = transfer_multiplier(w)
    G = cayley_symbol(g)
    H = cayley_symbol(h)
    return is_multiplier(W, G, H)


def line_norm_squared(f) -> float:
    """Squared L2 norm on the real line through the circle
    parametrization s = tan(t/2) of the Cayley map itself."""
    f = _as_halfplane(f)
    if f.value.is_zero:
        return 0.0
    cayley_function(f)  # refuses what the transfer refuses
    import numpy as np

    t = (np.arange(QUAD_POINTS) + 0.5) * (2.0 * np.pi / QUAD_POINTS)
    z = np.exp(1j * t)
    s = np.real(1j * (1.0 - z) / (1.0 + z))
    # ds = 2 dt / |1+z|^2 along the parametrization
    weight = 2.0 / np.abs(1.0 + z) ** 2
    vals = np.abs(f.value(s)) ** 2 * weight
    return float(np.sum(vals) * (2.0 * np.pi / QUAD_POINTS))


def circle_norm_squared(F) -> float:
    """Squared L2 norm on the circle with normalized measure."""
    F = as_rational(F)
    import numpy as np

    t = (np.arange(QUAD_POINTS) + 0.5) * (2.0 * np.pi / QUAD_POINTS)
    vals = np.abs(F(np.exp(1j * t))) ** 2
    return float(np.mean(vals))

"""Seeded random instances for property checks.

Roots are kept well away from the unit circle (inside radius at most 0.6,
outside radius at least 1.6) so that truncated-coefficient comparisons
against the numeric oracle converge comfortably at the default caps.
"""

from __future__ import annotations

import numpy as np

from .factorization import BlaschkeProduct
from .rational import ComplexPolynomial, RationalFunction, ToeplitzSymbol

# kept clear of the circle so default-cap truncations in the numeric
# oracle resolve kernel elements to below the SVD null threshold
INSIDE_RADII = (0.1, 0.45)
OUTSIDE_RADII = (2.6, 4.0)


def _points(rng, n, radii):
    lo, hi = radii
    r = lo + (hi - lo) * rng.random(n)
    phi = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * phi)


def _separated_points(rng, n, radii, taken):
    out = []
    while len(out) < n:
        (cand,) = _points(rng, 1, radii)
        if all(abs(cand - t) > 1e-3 for t in taken + out):
            out.append(cand)
    return out


def random_scale(rng) -> complex:
    return (0.5 + 1.5 * rng.random()) * np.exp(2j * np.pi * rng.random())


def random_rational(rng, zeros_inside=0, zeros_outside=0, poles_inside=0, poles_outside=0):
    taken: list[complex] = []
    zi = _separated_points(rng, zeros_inside, INSIDE_RADII, taken)
    taken += zi
    pi = _separated_points(rng, poles_inside, INSIDE_RADII, taken)
    taken += pi
    zo = _separated_points(rng, zeros_outside, OUTSIDE_RADII, taken)
    taken += zo
    po = _separated_points(rng, poles_outside, OUTSIDE_RADII, taken)
    num = ComplexPolynomial.from_roots(zi + zo, lead=random_scale(rng))
    den = ComplexPolynomial.from_roots(pi + po)
    return RationalFunction(num, den)


def random_symbol(rng, max_half_degree=3, winding=None) -> ToeplitzSymbol:
    """Random circle-invertible symbol; ``winding`` forces the index by
    tilting the inside zero/pole counts."""
    zi = int(rng.integers(0, max_half_degree + 1))
    pi = int(rng.integers(0, max_half_degree + 1))
    if winding is not None:
        if winding >= 0:
            zi, pi = pi + winding, pi
        else:
            zi, pi = zi, zi - winding
    zo = int(rng.integers(0, max_half_degree + 1))
    po = int(rng.integers(0, max_half_degree + 1))
    return ToeplitzSymbol(random_rational(rng, zi, zo, pi, po))


def random_blaschke(rng, degree) -> BlaschkeProduct:
    zeros = _separated_points(rng, degree, INSIDE_RADII, [])
    constant = np.exp(2j * np.pi * rng.random())
    return BlaschkeProduct(constant, [(a, 1) for a in zeros])


def random_outer(rng, zeros=1, poles=1) -> RationalFunction:
    """Random rational outer function, zero- and pole-free on the closed
    unit disc (hence rigid at rational scale)."""
    return random_rational(rng, 0, zeros, 0, poles)


def random_conjugate_outer(rng, zeros=1, poles=1) -> RationalFunction:
    return random_outer(rng, zeros, poles).circle_conjugate()

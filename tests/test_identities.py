"""Identities that hold for every Toeplitz kernel, checked on seeded symbols
with no truth computed (Boettcher & Silbermann, Analysis of Toeplitz
Operators, 2nd ed., 2006):

  * index: dim ker T_g - dim ker T_conj(g) = -wind g;
  * shift: dim ker T_{zbar g} = max(0, 1 - wind g), and ker T_g lies in
    ker T_{zbar g};
  * upward shift: ker T_{zg} lies in ker T_g, and equals it exactly when
    wind g >= 0, where both kernels are {0};
  * outer conjugation: for h with its zeros and poles outside the closed
    disc, T_{conj(h) g h} = T_conj(h) T_g T_h, so dim ker T_{conj(h) g h} =
    dim ker T_g and b / h lies in ker T_{conj(h) g h} for each b in ker T_g;
  * scale: T_{cg} = c T_g, so ker T_{cg} = ker T_g for every constant c != 0;
  * equivalence (the source paper, arXiv 1611.08429): for the same h, 1/h
    maps ker T_g onto ker T_{conj(h) g h}, so it is a surjective multiplier
    and both multiplier routes accept it when ker T_g is nontrivial, while
    (1/h) / (z - t) with t on the circle fails the Carleson condition.

Each symbol is drawn at a stratum of radii and decided in factored form and
in coefficient form, so that root finding runs on the second.
"""

import functools

import numpy as np
import pytest

from tkern import (
    ComplexPolynomial,
    RationalFunction,
    ToeplitzSymbol,
    equals,
    in_kernel,
    includes,
    is_multiplier,
    is_surjective_multiplier,
    kernel,
    monomial,
    smirnov_multiplier_test,
)

# (inside radii, outside radii) of the zeros and poles
STRATA = {
    "safe": ((0.1, 0.45), (2.6, 4.0)),
    "near": ((0.5, 0.9), (1.1, 2.0)),
    "very-near": ((0.9, 0.999), (1.001, 1.1)),
}
SEEDS = (42, 7)
SYMBOLS = 100
CASES = [(stratum, seed) for stratum in STRATA for seed in SEEDS]
IDS = [f"{stratum}-{seed}" for stratum, seed in CASES]


def _separated(rng, n, radii, taken):
    out = []
    while len(out) < n:
        r = rng.uniform(*radii) * np.exp(2j * np.pi * rng.random())
        if all(abs(r - t) > 1e-3 for t in taken + out):
            out.append(complex(r))
    return out


def _both_forms(lead, zeros, poles):
    zeros, poles = [(r, 1) for r in zeros], [(r, 1) for r in poles]
    # the second form is coefficient input: a from_roots polynomial would
    # hand its kept roots over, and no root would be solved
    num, den = ComplexPolynomial.from_roots(zeros, lead), ComplexPolynomial.from_roots(poles)
    return (RationalFunction._from_roots(lead, zeros, poles),
            RationalFunction(ComplexPolynomial(num._coeffs), ComplexPolynomial(den._coeffs)))


@functools.cache
def _cases(stratum, seed):
    """(g, h) pairs: g with up to 3 zeros and 3 poles on each side of the
    circle and a power of z from z^-4 to z^1; h with 2 zeros and 2 poles
    outside. Each comes in factored form and in coefficient form."""
    inside, outside = STRATA[stratum]
    rng = np.random.default_rng([seed, list(STRATA).index(stratum)])
    out = []
    for _ in range(SYMBOLS):
        zi, pi, zo, po = rng.integers(0, 4, 4)
        taken = _separated(rng, zi + pi, inside, [])
        taken += _separated(rng, zo + po, outside, taken)
        power = int(rng.integers(-4, 2))
        origin = [0j] * abs(power)
        zeros = taken[:zi] + taken[zi + pi : zi + pi + zo] + (origin if power > 0 else [])
        poles = taken[zi : zi + pi] + taken[zi + pi + zo :] + (origin if power < 0 else [])
        lead = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
        gs = _both_forms(complex(lead), zeros, poles)
        outer = _separated(rng, 4, outside, taken)
        hs = _both_forms(complex(rng.uniform(0.5, 2.0)), outer[:2], outer[2:])
        out += zip(gs, hs)
    return out


def test_coefficient_forms_reach_the_quadratic_solve():
    # a numerator or denominator with two roots off the origin is solved in
    # closed form when the symbol is built from its coefficients
    quadratic = sum(
        sum(m for r, m in roots if r != 0) == 2
        for case in CASES
        for g, _ in _cases(*case)
        for roots in (g.zeros(), g.poles())
    )
    assert quadratic >= 200


@pytest.mark.parametrize("stratum, seed", CASES, ids=IDS)
def test_index(stratum, seed):
    for g, _ in _cases(stratum, seed):
        s = ToeplitzSymbol(g)
        assert kernel(s).dimension - kernel(g.circle_conjugate()).dimension == -s.winding


@pytest.mark.parametrize("stratum, seed", CASES, ids=IDS)
def test_shift(stratum, seed):
    for g, _ in _cases(stratum, seed):
        s = ToeplitzSymbol(g)
        shifted = ToeplitzSymbol(monomial(-1) * g)
        assert kernel(shifted).dimension == max(0, 1 - s.winding)
        assert includes(s, shifted)
        assert all(in_kernel(b, shifted) for b in kernel(s).basis)


@pytest.mark.parametrize("stratum, seed", CASES, ids=IDS)
def test_upward_shift(stratum, seed):
    for g, _ in _cases(stratum, seed):
        s = ToeplitzSymbol(g)
        raised = ToeplitzSymbol(monomial(1) * g)
        assert includes(raised, s)
        assert equals(raised, s) == (s.winding >= 0)


@pytest.mark.parametrize("stratum, seed", CASES, ids=IDS)
def test_outer_conjugation(stratum, seed):
    for g, h in _cases(stratum, seed):
        K = kernel(ToeplitzSymbol(g))
        conjugated = ToeplitzSymbol(RationalFunction._product((h.circle_conjugate(), g, h)))
        assert kernel(conjugated).dimension == K.dimension
        assert all(in_kernel(b / h, conjugated) for b in K.basis)


@pytest.mark.parametrize("stratum, seed", CASES, ids=IDS)
def test_scale(stratum, seed):
    for g, _ in _cases(stratum, seed):
        dimension = kernel(ToeplitzSymbol(g)).dimension
        for c in (1e150, 1e-150):
            assert kernel(ToeplitzSymbol(c * g)).dimension == dimension
        # the quotient of the two symbols has the gain 1e600
        assert equals(1e-300 * g, 1e300 * g)


@pytest.mark.parametrize("stratum, seed", CASES, ids=IDS)
def test_equivalence_by_an_outer_function(stratum, seed):
    rng = np.random.default_rng([seed, list(STRATA).index(stratum), 1])
    for g, h in _cases(stratum, seed):
        s = ToeplitzSymbol(g)
        if s.winding >= 0:
            continue
        conjugated = ToeplitzSymbol(RationalFunction._product((h.circle_conjugate(), g, h)))
        w = RationalFunction(1.0) / h
        assert is_surjective_multiplier(w, s, conjugated).holds
        assert is_multiplier(w, s, conjugated) and smirnov_multiplier_test(w, s, conjugated)
        t = complex(np.exp(2j * np.pi * rng.random()))
        v = w / RationalFunction([-t, 1])
        assert not is_multiplier(v, s, conjugated)
        assert not smirnov_multiplier_test(v, s, conjugated)
        assert not is_surjective_multiplier(v, s, conjugated).carleson_forward_ok

"""Cayley bridge: isometric vector transfer, symbol transfer, conjugated
multiplier tests."""

from math import comb

import numpy as np
import pytest
from scipy.integrate import quad

import tkern.halfplane
from tkern import (
    ClassificationWarning,
    HalfPlaneRational,
    NotSquareIntegrable,
    RationalFunction,
    UnboundedSymbol,
    cayley_function,
    cayley_symbol,
    circle_norm_squared,
    halfplane_multiplier_test,
    inverse_cayley_symbol,
    is_maximal,
    line_norm_squared,
    monomial,
    transfer_multiplier,
)
from tkern.rational import EPS_CIRCLE

from conftest import random_halfplane_hardy


def _adaptive_line_norm_sq(f):
    # independent oracle: adaptive quadrature straight over the line
    val, _ = quad(lambda s: abs(complex(f.value(s))) ** 2, -np.inf, np.inf, limit=400)
    return val


def test_simple_pole_transfers_to_constant():
    f = HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]))
    V = cayley_function(f)
    assert V.is_constant
    assert abs(V.constant_value() - np.sqrt(np.pi) / 1j) < 1e-12
    assert abs(line_norm_squared(f) - np.pi) < 1e-9
    assert abs(circle_norm_squared(V) - np.pi) < 1e-9


def test_zero_transfers_to_zero():
    assert cayley_function(HalfPlaneRational(RationalFunction(0.0))).is_zero


def test_double_pole_transfers_to_affine():
    f = HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]) ** 2)
    V = cayley_function(f)
    expected = RationalFunction([-np.sqrt(np.pi) / 2, -np.sqrt(np.pi) / 2])
    assert V.is_close(expected, 1e-12)
    assert abs(line_norm_squared(f) - np.pi / 2) < 1e-9
    assert abs(circle_norm_squared(V) - np.pi / 2) < 1e-9


def test_real_pole_rejected():
    with pytest.raises(NotSquareIntegrable):
        cayley_function(HalfPlaneRational(RationalFunction([1.0], [-1.0, 1.0])))


def test_insufficient_decay_rejected():
    with pytest.raises(NotSquareIntegrable):
        cayley_function(HalfPlaneRational(RationalFunction([1.0, 1.0], [1j, 1.0])))


def test_decay_at_infinity_is_counted_not_banded():
    # the zero at 3e7 lands within EPS_ROOT of z = -1, where the transfer
    # has its weight's pole; f still does not decay, so it is refused
    with pytest.raises(NotSquareIntegrable):
        cayley_function(HalfPlaneRational(RationalFunction([-3e7, 1.0], [1j, 1.0])))
    with pytest.raises(NotSquareIntegrable):
        line_norm_squared(HalfPlaneRational(RationalFunction([-3e7, 1.0], [1j, 1.0])))
    grows = RationalFunction([-3e7, 1.0]) ** 2 / RationalFunction([1j, 1.0])
    with pytest.raises(UnboundedSymbol):
        cayley_symbol(HalfPlaneRational(grows))


def test_isometry_on_random_hardy_functions(rng, monkeypatch):
    monkeypatch.setattr(tkern.halfplane, "QUAD_POINTS", 8192)
    for _ in range(50):
        f = HalfPlaneRational(random_halfplane_hardy(rng, int(rng.integers(1, 4))))
        line = line_norm_squared(f)
        circ = circle_norm_squared(cayley_function(f))
        assert abs(line - circ) <= 1e-6 * max(line, circ)


def test_isometry_against_adaptive_quadrature(rng, monkeypatch):
    monkeypatch.setattr(tkern.halfplane, "QUAD_POINTS", 8192)
    for _ in range(10):
        f = HalfPlaneRational(random_halfplane_hardy(rng, 2))
        independent = _adaptive_line_norm_sq(f)
        circ = circle_norm_squared(cayley_function(f))
        assert abs(independent - circ) <= 1e-5 * max(independent, circ)


def test_hardy_plus_maps_into_disc_hardy_space(rng):
    for _ in range(25):
        f = HalfPlaneRational(random_halfplane_hardy(rng, int(rng.integers(1, 4))))
        V = cayley_function(f)
        assert V.in_hardy2()


def test_mobius_symbol_examples():
    g = HalfPlaneRational(RationalFunction([-1j, 1.0], [1j, 1.0]))
    assert cayley_symbol(g).value.is_close(-1 * monomial(1))
    assert cayley_symbol(HalfPlaneRational(RationalFunction([1.0]))).value.is_close(
        RationalFunction([1.0])
    )
    ginv = HalfPlaneRational(RationalFunction([1j, 1.0], [-1j, 1.0]))
    assert cayley_symbol(ginv).value.is_close(-1 * monomial(-1))


def test_symbol_transfer_is_multiplicative(rng):
    z = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    for _ in range(20):
        g1 = HalfPlaneRational(random_halfplane_hardy(rng, 2) + 0.5)
        g2 = HalfPlaneRational(random_halfplane_hardy(rng, 2) + 1.0)
        lhs = cayley_symbol(HalfPlaneRational(g1.value * g2.value)).value(z)
        rhs = (cayley_symbol(g1).value * cayley_symbol(g2).value)(z)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1.0 + np.max(np.abs(lhs)))


def test_unbounded_symbol_rejected():
    with pytest.raises(UnboundedSymbol):
        cayley_symbol(HalfPlaneRational(RationalFunction([0.0, 1.0])))
    with pytest.raises(UnboundedSymbol):
        cayley_symbol(HalfPlaneRational(RationalFunction([1.0], [0.0, 1.0])))


def test_round_trip_recovers_symbol(rng):
    for _ in range(20):
        g = HalfPlaneRational(random_halfplane_hardy(rng, 2) + 0.7)
        back = inverse_cayley_symbol(cayley_symbol(g).value)
        assert back.value.num.is_close(g.value.num, 1e-9)
        assert back.value.den.is_close(g.value.den, 1e-9)


@pytest.mark.parametrize("k", [8, 12, 16, 24, 32])
def test_high_multiplicity_roots_transfer_exactly(k):
    # expanding the Moebius composition into coefficients splits a k-fold
    # root into a ring of simple roots; moving roots keeps it whole
    V = cayley_function(HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]) ** k))
    exact = np.pi * comb(2 * k - 2, k - 1) / 4 ** (k - 1)
    assert abs(circle_norm_squared(V) - exact) <= 1e-6 * exact
    theta = HalfPlaneRational(RationalFunction([-1j, 1.0], [1j, 1.0]) ** k)
    G = cayley_symbol(theta)
    assert G.value.is_close((-1) ** k * monomial(k))
    back = inverse_cayley_symbol(G).value
    [(zero, zm)], [(pole, pm)] = back.zeros(), back.poles()
    assert zm == pm == k
    assert abs(zero - 1j) <= 1e-9 and abs(pole + 1j) <= 1e-9


def test_backward_shift_test_function_transfers_to_maximal_vector():
    # theta(s) = (s-i)/(s+i) vanishes at i, so (theta(s)-theta(i))/(s-i)
    # is 1/(s+i); its transfer is maximal for the transferred kernel
    theta = HalfPlaneRational(RationalFunction([-1j, 1.0], [1j, 1.0]))
    k = HalfPlaneRational(RationalFunction([1.0], [1j, 1.0]))
    symbol = cayley_symbol(theta.conjugate_on_line())
    assert symbol.value.is_close(RationalFunction([-1.0], [0.0, 1.0]))
    assert is_maximal(cayley_function(k), symbol).is_maximal


def test_trivial_halfplane_multiplier():
    g = HalfPlaneRational(RationalFunction([1j, 1.0], [-1j, 1.0]))
    assert halfplane_multiplier_test(HalfPlaneRational(RationalFunction([1.0])), g, g)


def test_pulled_back_power_example():
    w = HalfPlaneRational(RationalFunction([2j], [1j, 1.0]))
    g = HalfPlaneRational(RationalFunction([1j, 1.0], [1j, -1.0]))
    h = HalfPlaneRational(RationalFunction([1j, 1.0], [1j, -1.0]) ** 2)
    assert transfer_multiplier(w).is_close(RationalFunction([1.0, 1.0]))
    assert cayley_symbol(g).value.is_close(monomial(-1))
    assert halfplane_multiplier_test(w, g, h)
    w_bad = HalfPlaneRational(RationalFunction([2j], [1j, 1.0]) ** 2)
    assert not halfplane_multiplier_test(w_bad, g, h)


# -- one boundary rule: a line pole is a circle pole of the transfer ------------


@pytest.mark.parametrize("x", [0.0, 1.0, 1e4])
def test_line_pole_band_is_the_circle_band_of_the_transfer(x):
    # the pole x - iy lands about 2y/(1 + x^2) inside the circle's
    # exterior, so on the line the band reads |y| < EPS_CIRCLE (1 + x^2)/2
    half_width = EPS_CIRCLE * (1.0 + x * x) / 2.0
    inside = HalfPlaneRational(RationalFunction([1.0], [-(x - 0.5j * half_width), 1.0]))
    with pytest.raises(NotSquareIntegrable):
        cayley_function(inside)
    with pytest.raises(NotSquareIntegrable):
        line_norm_squared(inside)
    outside = HalfPlaneRational(RationalFunction([1.0], [-(x - 2j * half_width), 1.0]))
    with pytest.warns(ClassificationWarning):
        V = cayley_function(outside)
    assert V.in_hardy2()


def test_far_pole_near_the_line_is_refused_and_near_band_pole_warns():
    far = HalfPlaneRational(RationalFunction([1.0], [-10000 - 0.01j, 1.0]))
    with pytest.raises(NotSquareIntegrable):
        cayley_function(far)
    near = HalfPlaneRational(RationalFunction([1.0], [2e-9j, 1.0]))
    with pytest.warns(ClassificationWarning):
        assert cayley_function(near).in_hardy2()


def test_line_norm_refuses_with_the_transfer_message():
    for f in (RationalFunction([1.0], [-1.0, 1.0]), RationalFunction([1.0, 1.0], [1j, 1.0])):
        with pytest.raises(NotSquareIntegrable, match="real pole or insufficient decay"):
            line_norm_squared(HalfPlaneRational(f))


def test_symbol_transfer_refuses_a_circle_pole_and_zero():
    # bounded at infinity, but its pole 1e4 - 0.01i lands in the circle band
    near = HalfPlaneRational(RationalFunction([1j, 1.0], [-(1e4 - 0.01j), 1.0]))
    with pytest.raises(UnboundedSymbol):
        cayley_symbol(near)
    with pytest.raises(UnboundedSymbol):
        cayley_symbol(HalfPlaneRational(RationalFunction(0.0)))

"""Inner-outer and Wiener-Hopf factorization."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from tkern import (
    BlaschkeParameterOutOfDisc,
    BlaschkeProduct,
    NotInHardySpace,
    NotInvertibleOnCircle,
    RationalFunction,
    ZeroFunction,
    as_symbol,
    blaschke_divides,
    blaschke_from_rational,
    inner_outer,
    monomial,
    wiener_hopf,
)
from tkern.random_instances import random_blaschke, random_rational, random_symbol

from conftest import circle


# -- inner_outer -------------------------------------------------------------


def test_monomial_inner_factor():
    io = inner_outer(RationalFunction([0, 0, 1, 0.5]))
    assert io.inner.zeros == ((0j, 2),)
    assert abs(io.inner.constant - 1.0) < 1e-12
    assert io.outer.is_close(RationalFunction([1, 0.5]))


def test_disc_zero_moves_to_blaschke_factor():
    f = RationalFunction(npoly.polyfromroots([0.5, 2.0]))
    io = inner_outer(f)
    assert [a for a, _ in io.inner.zeros] == [0.5 + 0j]
    z = circle(64)
    # outer carries the full modulus of f on the boundary
    assert np.max(np.abs(np.abs(io.outer(z)) - np.abs(f(z)))) < 1e-10
    assert not io.outer.zero_classification().inside
    assert io.reconstruct().is_close(f)


def test_circle_zeros_stay_in_outer_factor():
    io = inner_outer(RationalFunction([1, -1]))
    assert io.inner.degree == 0
    assert io.outer.is_close(RationalFunction([1, -1]))


def test_outer_positive_at_origin(rng):
    for _ in range(20):
        f = random_rational(rng, 2, 1, 0, 2)
        io = inner_outer(f)
        v = complex(io.outer(0.0))
        assert abs(v.imag) < 1e-10 * abs(v) and v.real > 0


def test_inner_unimodular_and_outer_matches_modulus(rng):
    z = circle(64)
    for _ in range(20):
        f = random_rational(rng, 2, 1, 0, 2)
        io = inner_outer(f)
        assert np.max(np.abs(np.abs(io.inner(z)) - 1.0)) < 1e-10
        assert np.max(np.abs(np.abs(io.outer(z)) - np.abs(f(z)))) < 1e-9 * (
            1.0 + np.max(np.abs(f(z)))
        )
        rec, ref = io.reconstruct()(z), f(z)
        assert np.max(np.abs(rec - ref)) < 1e-9 * (1.0 + np.max(np.abs(ref)))


def test_pole_in_disc_rejected():
    with pytest.raises(NotInHardySpace):
        inner_outer(RationalFunction([1.0], [-0.5, 1.0]))
    with pytest.raises(NotInHardySpace):
        inner_outer(RationalFunction([1.0], [1.0, -1.0]))


def test_zero_function_rejected():
    with pytest.raises(ZeroFunction):
        inner_outer(RationalFunction([0.0]))


# -- wiener_hopf -------------------------------------------------------------


def test_pure_monomial_factorization():
    wh = wiener_hopf(monomial(-2))
    assert wh.index == -2
    assert wh.minus.is_close(RationalFunction([1.0]))
    assert wh.plus.is_close(RationalFunction([1.0]))


def test_blaschke_like_symbol_factorization():
    wh = wiener_hopf(RationalFunction([0.5, 1], [1, 0.5]))
    assert wh.index == 1
    assert wh.minus.is_close(RationalFunction([0.5, 1], [0, 1]))
    assert wh.plus.is_close(RationalFunction([1, 0.5]))


def test_mixed_symbol_factorization():
    s = as_symbol(RationalFunction([1, 2], [0, 0, 0, 0, 2, 1]))
    wh = wiener_hopf(s)
    assert wh.index == -3
    assert wh.minus.is_close(RationalFunction([0.5, 1], [0, 1]))
    assert wh.plus.is_close(RationalFunction([1, 0.5]))
    assert wh.reconstruct().is_close(s.value)


def test_factor_structure_and_reconstruction(rng):
    z = circle(64)
    for _ in range(100):
        s = random_symbol(rng, 2)
        wh = wiener_hopf(s)
        assert wh.index == s.winding
        assert wh.plus.is_invertible_analytic()
        assert abs(wh.plus(0.0) - 1.0) < 1e-12
        assert wh.minus.is_invertible_coanalytic()
        rec, ref = wh.reconstruct()(z), s.value(z)
        assert np.max(np.abs(rec - ref)) < 1e-9 * (1.0 + np.max(np.abs(ref)))


def test_indices_add_and_products_reconstruct(rng):
    z = circle(64)
    for _ in range(30):
        s1, s2 = random_symbol(rng, 2), random_symbol(rng, 2)
        w1, w2 = wiener_hopf(s1), wiener_hopf(s2)
        assert w1.index + w2.index == (s1 * s2).winding
        prod = w1.minus * w2.minus * monomial(w1.index + w2.index) / (w1.plus * w2.plus)
        ref = (s1 * s2).value(z)
        assert np.max(np.abs(prod(z) - ref)) < 1e-8 * (1.0 + np.max(np.abs(ref)))


def test_blaschke_symbol_winds_by_degree(rng):
    for deg in (1, 2, 4):
        theta = random_blaschke(rng, deg)
        assert as_symbol(theta.to_rational()).winding == deg
        assert as_symbol(theta.to_rational().circle_conjugate()).winding == -deg


def test_circle_zero_rejected():
    with pytest.raises(NotInvertibleOnCircle):
        wiener_hopf(RationalFunction([1, -1]))


# -- Blaschke products --------------------------------------------------------


def test_explicit_factor_divides():
    alpha = BlaschkeProduct(1.0, [(0.0, 1)])
    theta = BlaschkeProduct(1.0, [(0.0, 1), (0.5, 1)])
    assert blaschke_divides(alpha, theta)


def test_degree_obstruction():
    alpha = BlaschkeProduct(1.0, [(0.0, 2)])
    theta = BlaschkeProduct(1.0, [(0.0, 1)])
    assert not blaschke_divides(alpha, theta)


def test_multiplicity_spread_over_near_equal_zeros_divides():
    theta = BlaschkeProduct(1.0, [(0.3, 1), (0.3 + 1e-9, 1)])
    assert blaschke_divides(BlaschkeProduct(1.0, [(0.3, 2)]), theta)
    assert not blaschke_divides(BlaschkeProduct(1.0, [(0.3, 3)]), theta)


def test_random_subproduct_divides(rng):
    for _ in range(20):
        theta = random_blaschke(rng, 5)
        pick = rng.choice(5, size=2, replace=False)
        alpha = BlaschkeProduct(1.0, [theta.zeros[i] for i in pick])
        assert blaschke_divides(alpha, theta)


def test_blaschke_parameter_must_be_in_disc():
    with pytest.raises(BlaschkeParameterOutOfDisc):
        BlaschkeProduct(1.0, [(1.0, 1)])


def test_blaschke_recognition_roundtrip(rng):
    theta = random_blaschke(rng, 3)
    again = blaschke_from_rational(theta.to_rational())
    assert again is not None
    assert again.to_rational().is_close(theta.to_rational(), 1e-10)
    assert blaschke_from_rational(RationalFunction([1, 0.5])) is None

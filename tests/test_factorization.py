"""Inner-outer and Wiener-Hopf factorization."""

import cmath
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import tkern.rational
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
from tkern.rational import BLASCHKE_RADIUS, EPS_ROOT

from conftest import circle, closed_disc_roots, is_invertible_coanalytic


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
    assert (io.inner.to_rational() * io.outer).is_close(f)


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
        assert np.max(np.abs(np.abs(io.inner.to_rational()(z)) - 1.0)) < 1e-10
        assert np.max(np.abs(np.abs(io.outer(z)) - np.abs(f(z)))) < 1e-9 * (
            1.0 + np.max(np.abs(f(z)))
        )
        rec, ref = (io.inner.to_rational() * io.outer)(z), f(z)
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
    assert (wh.minus * monomial(-3) / wh.plus).is_close(s.value)


def test_factor_structure_and_reconstruction(rng):
    z = circle(64)
    for _ in range(100):
        s = random_symbol(rng, 2)
        wh = wiener_hopf(s)
        assert wh.index == s.winding
        assert not closed_disc_roots(wh.plus)
        assert abs(wh.plus(0.0) - 1.0) < 1e-12
        assert is_invertible_coanalytic(wh.minus)
        rec, ref = (wh.minus * monomial(wh.index) / wh.plus)(z), s.value(z)
        assert np.max(np.abs(rec - ref)) < 1e-9 * (1.0 + np.max(np.abs(ref)))


def test_indices_add_and_products_reconstruct(rng):
    z = circle(64)
    for _ in range(30):
        s1, s2 = random_symbol(rng, 2), random_symbol(rng, 2)
        w1, w2 = wiener_hopf(s1), wiener_hopf(s2)
        product = as_symbol(s1.value * s2.value)
        assert w1.index + w2.index == product.winding
        prod = w1.minus * w2.minus * monomial(w1.index + w2.index) / (w1.plus * w2.plus)
        ref = product.value(z)
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


def test_blaschke_refusal_prints_an_infinite_parameter():
    with pytest.raises(BlaschkeParameterOutOfDisc, match="^Blaschke zero inf is not inside"):
        BlaschkeProduct(1.0, [math.inf])


def test_blaschke_product_is_built_with_one_reduction(monkeypatch):
    calls = []
    reduce = tkern.rational._reduce

    def counted(zeros, poles):
        calls.append(1)
        return reduce(zeros, poles)

    theta = BlaschkeProduct(1j, [(0.5, 2), (0.3j, 1), (0j, 1)])
    assert theta.zeros == ((0j, 1), (0.3j, 1), (0.5 + 0j, 2))  # by real, then imaginary part
    monkeypatch.setattr(tkern.rational, "_reduce", counted)
    b = theta.to_rational()
    assert len(calls) == 1
    # each zero a != 0 gives the pole 1/conj(a); the zero at 0 gives z
    assert b.zeros() == [(0j, 1), (0.3j, 1), (0.5 + 0j, 2)]
    assert b.poles() == [(1 / (-0.3j), 1), (2 + 0j, 2)]
    z = circle(16)
    direct = 1j * z * (z - 0.3j) / (1 + 0.3j * z) * ((z - 0.5) / (1 - 0.5 * z)) ** 2
    assert np.max(np.abs(b(z) - direct)) <= 1e-14


@pytest.mark.parametrize("a", [0.99999995, 0.99999999, -0.99999999j, cmath.rect(0.99999997, 0.7)])
def test_blaschke_parameter_whose_zero_would_cancel_its_pole_is_refused(a):
    # the zero a and the pole 1/conj(a) lie (1 - |a|^2)/|a| apart, which is
    # within EPS_ROOT relative to the pole once 1 - |a|^2 <= EPS_ROOT
    assert 1 - abs(a) ** 2 <= EPS_ROOT
    with pytest.raises(BlaschkeParameterOutOfDisc):
        BlaschkeProduct(1.0, [(a, 1)])


@pytest.mark.parametrize("a", [1e-8, 3e-8j, -5e-8 + 5e-8j])
def test_blaschke_zero_near_the_origin_keeps_its_place(a):
    # z**degree cancels the poles of conj(p) at the origin before the
    # quotient is reduced; reduced together with them, the zero a would
    # group with them and move to a / 4 here
    b = BlaschkeProduct(1.0, [(a, 1), (0.5, 2)]).to_rational()
    assert (a, 1) in b.zeros() and len(b.zeros()) == 2
    assert sorted(m for _, m in b.poles()) == [1, 2]


def test_blaschke_parameters_just_inside_the_bound_keep_their_zeros():
    # an accepted parameter keeps its zero and its pole
    rng = np.random.default_rng(3)
    radii = [0.99999994, 0.9999999]
    edge = BLASCHKE_RADIUS
    for _ in range(8):  # the doubles just below the bound
        edge = math.nextafter(edge, 0)
        radii.append(edge)
    params = [r * cmath.exp(1j * angle) for r in radii for angle in 2 * math.pi * rng.random(25)]
    # within one ulp of sqrt(1 - EPS_ROOT), where the rounded pole still
    # cancels the zero
    params += [0.5494454620953289 - 0.8355295232263492j, -0.7143837085518856 + 0.6997541117818847j,
               0.9847867539963554 + 0.1737669391838438j]
    kept = 0
    for a in params:
        if abs(a) >= BLASCHKE_RADIUS:
            with pytest.raises(BlaschkeParameterOutOfDisc):
                BlaschkeProduct(1.0, [(a, 1)])
            continue
        b = BlaschkeProduct(1.0, [(a, 1)]).to_rational()
        assert len(b.zeros()) == 1 and len(b.poles()) == 1, a
        kept += 1
    assert kept >= 200


@pytest.mark.parametrize("multiplicity", [-1, 0, 1.7])
def test_blaschke_multiplicity_must_be_an_integer_of_at_least_one(multiplicity):
    with pytest.raises(ValueError, match="multiplicity"):
        BlaschkeProduct(1.0, [(0.5, multiplicity)])


def test_blaschke_recognition_roundtrip(rng):
    theta = random_blaschke(rng, 3)
    again = blaschke_from_rational(theta.to_rational())
    assert again is not None
    assert again.to_rational().is_close(theta.to_rational(), 1e-10)
    assert blaschke_from_rational(RationalFunction([1, 0.5])) is None


def test_multiple_of_a_blaschke_factor_is_inner_only_when_unimodular():
    assert blaschke_from_rational(2 * BlaschkeProduct(1.0, [0.5]).to_rational()) is None


def test_blaschke_factor_with_its_pole_rotated_is_not_inner():
    # the pole 2 e^{i 5e-8} cancels the candidate's pole 2 within EPS_ROOT,
    # so the ratio is a unimodular constant; the boundary modulus is about
    # 1e-7 away from 1, which the sampled check catches
    r = RationalFunction._from_roots(-2.0, [(0.5, 1)], [(2.0 * np.exp(5e-8j), 1)])
    assert blaschke_from_rational(r) is None

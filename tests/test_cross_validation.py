"""Symbolic decision procedures against brute-force and numeric routes.

The library decides membership, inclusion, equality and multiplier
questions through symbol algebra (single test vectors, quotient pole
bookkeeping). These tests recompute the same answers the expensive way:
all basis products, numeric null spaces, subspace angles.
"""

import numpy as np
import pytest

from tkern import (
    RationalFunction,
    as_symbol,
    carleson_check,
    equals,
    image_kernel,
    in_kernel,
    includes,
    is_maximal,
    is_multiplier,
    kernel,
    minimal_kernel,
    monomial,
    multiplier_space,
    numeric_kernel,
    principal_angle,
    smirnov_multiplier_test,
    subspace_from_rationals,
)
from tkern import random_instances
from tkern.random_instances import (
    random_kernel_symbol,
    random_outer,
    random_rational,
)


def _brute_force_multiplier(w, g, h):
    """Definitionally: w maps every kernel element into the target and
    every product stays square-integrable."""
    Kg = kernel(g)
    if not carleson_check(w, Kg):
        return False
    return all(in_kernel(w * b, h) for b in Kg.basis)


def test_single_vector_decision_matches_all_products(rng):
    for _ in range(150):
        g = random_kernel_symbol(rng, 3, 2)
        h = random_kernel_symbol(rng, 3, 2)
        w = random_rational(
            rng,
            int(rng.integers(0, 3)),
            int(rng.integers(0, 2)),
            int(rng.integers(0, 2)),
            int(rng.integers(0, 2)),
        )
        assert is_multiplier(w, g, h) == _brute_force_multiplier(w, g, h)


def test_equals_matches_numeric_subspace_comparison(rng):
    for _ in range(20):
        g = random_kernel_symbol(rng, 3, 1)
        if rng.random() < 0.5:
            h = as_symbol(g.value * random_outer(rng, 1, 0).circle_conjugate())
            same = True  # conjugate-outer twist: same kernel
        else:
            h = as_symbol(g.value * monomial(-1))
            same = False  # one extra dimension
        ng = numeric_kernel(g)
        nh = numeric_kernel(h, degree_cap=ng.degree_cap)
        if same:
            assert equals(g, h)
            assert ng.dimension == nh.dimension
            assert principal_angle(ng, nh) < 1e-6
        else:
            assert not equals(g, h)
            assert ng.dimension != nh.dimension


def test_includes_matches_numeric_projection(rng):
    for _ in range(20):
        g = random_kernel_symbol(rng, 2, 1)
        grow = rng.random() < 0.5
        if grow:
            h = as_symbol(g.value * monomial(-int(rng.integers(1, 3))))
        else:
            h = random_kernel_symbol(rng, 2, 1)
        lhs = includes(g, h)
        if grow:
            assert lhs
        if lhs:
            # every symbolic basis element of ker T_g is in ker T_h
            for b in kernel(g).basis:
                assert in_kernel(b, h)


def test_maximality_matches_numeric_minimal_kernel(rng):
    for _ in range(25):
        g = random_kernel_symbol(rng, 3, 1)
        K = kernel(g)
        coeffs = rng.standard_normal(K.dimension) + 1j * rng.standard_normal(K.dimension)
        k = sum((c * b for c, b in zip(coeffs, K.basis)), RationalFunction(0.0))
        cert = is_maximal(k, g)
        v, Kmin = minimal_kernel(k)
        nv = numeric_kernel(v)
        assert nv.dimension == Kmin.dimension
        if cert.is_maximal:
            ng = numeric_kernel(g, degree_cap=nv.degree_cap)
            assert nv.dimension == ng.dimension
            assert principal_angle(nv, ng) < 1e-6
        else:
            assert Kmin.dimension < K.dimension or not equals(v, g)


def test_image_kernel_matches_transported_span(rng):
    for _ in range(20):
        g = random_kernel_symbol(rng, 2, 1)
        w = random_outer(rng, int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        img = image_kernel(w, g)
        assert img is not None  # invertible-analytic w always transports
        transported = [w * b for b in kernel(g).basis]
        cap = numeric_kernel(img.symbol).degree_cap
        a = subspace_from_rationals(transported, cap)
        b = subspace_from_rationals(img.basis, cap)
        assert principal_angle(a, b) < 1e-6


def test_image_kernel_detects_proper_subspaces(rng):
    # an outer w with a circle zero strictly grows the minimal kernel, so
    # the image is not itself a kernel
    for _ in range(10):
        g = random_kernel_symbol(rng, 2, 1)
        w = RationalFunction([1.0, 1.0]) * random_outer(rng, 1, 1)
        assert image_kernel(w, g) is None


def test_multiplier_space_matches_elementwise_search(rng):
    # the computed space contains exactly the polynomial multipliers found
    # by brute force over a monomial-coefficient grid
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        g, h = as_symbol(monomial(-n)), as_symbol(monomial(-m))
        ms = multiplier_space(g, h)
        found = [j for j in range(8) if is_multiplier(monomial(j), g, h)]
        assert len(found) == ms.dimension
        if found:
            cap = 12
            a = subspace_from_rationals([monomial(j) for j in found], cap)
            b = subspace_from_rationals(ms.basis, cap)
            assert principal_angle(a, b) < 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_two_route_agreement_alternate_seeds(seed):
    from tkern import smirnov_multiplier_test

    rng = np.random.default_rng(seed)
    for _ in range(40):
        g = random_kernel_symbol(rng, 3, 2)
        h = random_kernel_symbol(rng, 3, 2)
        w = random_rational(
            rng,
            int(rng.integers(0, 2)),
            int(rng.integers(0, 2)),
            int(rng.integers(0, 2)),
            int(rng.integers(0, 2)),
        )
        assert is_multiplier(w, g, h) == smirnov_multiplier_test(w, g, h)


# -- the conjugate rules, kept as the reference ----------------------------------
# Membership, inclusion and the conjugate-Smirnov route can be decided on the
# circle conjugate of the product, as the definitions read, or on the product
# itself, as the library does. Away from roots close enough that only their
# reflections merge, the two rules agree.


def _in_kernel_by_conjugate(f, s):
    if f.is_zero:
        return True
    return f.in_hardy2() and (monomial(1) * s.value * f).circle_conjugate().in_hardy2()


def _includes_by_conjugate(g, h):
    return (h.value / g.value).circle_conjugate().in_hardy2()


def _smirnov_by_conjugate(w, g, h):
    if w.pole_classification().inside:
        return False
    if any((w * b).pole_classification().on_circle for b in kernel(g).basis):
        return False
    return not (h.value * w / g.value).circle_conjugate().pole_classification().inside


@pytest.mark.parametrize("seed", range(3))
def test_product_rules_match_the_conjugate_rules(seed, monkeypatch):
    # roots from 0.1 to 0.9 and from 1.1 to 4, at least 1e-3 apart
    monkeypatch.setattr(random_instances, "INSIDE_RADII", (0.1, 0.9))
    monkeypatch.setattr(random_instances, "OUTSIDE_RADII", (1.1, 4.0))
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(60):
        g = random_kernel_symbol(rng, 3, 2)
        h = random_kernel_symbol(rng, 3, 2)
        if rng.random() < 0.5:  # a kernel that contains ker T_g
            twist = random_outer(rng, 1, 0).circle_conjugate()
            h = as_symbol(g.value * twist * monomial(-int(rng.integers(0, 2))))
        w = random_rational(rng, *(int(rng.integers(0, 2)) for _ in range(4)))
        if rng.random() < 0.2:  # a pole on the circle
            w = w / RationalFunction([-np.exp(2j * np.pi * rng.random()), 1.0])
        basis = kernel(g).basis
        for f in (RationalFunction(0.0), *basis, w, w * basis[-1]):
            for s in (g, h):
                got = in_kernel(f, s)
                assert got == _in_kernel_by_conjugate(f, s)
                seen.add(("in_kernel", got))
        for a, b in ((g, h), (h, g)):
            got = includes(a, b)
            assert got == _includes_by_conjugate(a, b)
            seen.add(("includes", got))
        got = smirnov_multiplier_test(w, g, h)
        assert got == _smirnov_by_conjugate(w, g, h)
        seen.add(("smirnov", got))
    assert len(seen) == 6  # each decision answered both ways

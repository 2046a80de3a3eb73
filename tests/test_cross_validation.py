"""Symbolic decision procedures against brute-force and numeric routes.

The library decides membership, inclusion, equality and multiplier
questions through symbol algebra (single test vectors, quotient pole
bookkeeping). These tests recompute the same answers the expensive way:
all basis products, numeric null spaces, subspace angles.
"""

from collections import Counter

import numpy as np
import pytest

from tkern import (
    BlaschkeProduct,
    ComplexPolynomial,
    RationalFunction,
    ToeplitzSymbol,
    as_symbol,
    blaschke_from_rational,
    carleson_check,
    crofoot_companion,
    equals,
    image_kernel,
    in_kernel,
    includes,
    inner_outer,
    is_maximal,
    is_multiplier,
    is_surjective_multiplier,
    kernel,
    minimal_kernel,
    monomial,
    multiplier_space,
    numeric_kernel,
    principal_angle,
    smirnov_multiplier_test,
    subspace_from_rationals,
    wiener_hopf,
)
from tkern import random_instances
from tkern.rational import _quotient_zero_count
from tkern.random_instances import (
    random_blaschke,
    random_outer,
    random_rational,
)

from conftest import random_kernel_symbol


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


# -- the chained products, kept as the reference ---------------------------------
# Each decision reduces its product once, over the roots of all its factors
# (``RationalFunction._product``), where a chain of ``*`` and ``/`` reduces once
# per operator. With roots at least EPS_ROOT apart the two give the same value.


def _assert_same_value(got, want):
    assert got.is_zero == want.is_zero
    assert abs(got._gain - want._gain) <= 1e-12 * abs(want._gain)
    for a, b in ((got.zeros(), want.zeros()), (got.poles(), want.poles())):
        assert [m for _, m in a] == [m for _, m in b]
        assert all(abs(r - s) <= 1e-12 * max(1.0, abs(s)) for (r, _), (s, _) in zip(a, b))


def _chained_to_rational(theta):
    p = RationalFunction._from_roots(1.0, theta.zeros)
    return theta.constant * p / (monomial(theta.degree) * p.circle_conjugate())


@pytest.mark.parametrize("seed", range(3))
def test_products_reduced_once_match_the_chained_products(seed, monkeypatch):
    # roots from 0.1 to 0.9 and from 1.1 to 4, at least 1e-3 apart
    monkeypatch.setattr(random_instances, "INSIDE_RADII", (0.1, 0.9))
    monkeypatch.setattr(random_instances, "OUTSIDE_RADII", (1.1, 4.0))
    rng = np.random.default_rng(seed)
    z = monomial(1)
    seen = set()
    for _ in range(40):
        g = random_kernel_symbol(rng, 3, 2)
        h = random_kernel_symbol(rng, 3, 2)
        if rng.random() < 0.5:  # a kernel that contains ker T_g
            h = as_symbol(g.value * random_outer(rng, 1, 0).circle_conjugate())
        w = random_rational(rng, *(int(rng.integers(0, 2)) for _ in range(4)))
        if rng.random() < 0.2:  # a pole on the circle
            w = w / RationalFunction([-np.exp(2j * np.pi * rng.random()), 1.0])
        basis = kernel(g).basis
        # the ladder plus * z^j cancels exactly against g, and 0 is a zero factor
        for f in (RationalFunction(0.0), *basis, w, w * basis[-1]):
            for s in (g, h):
                chained = z * s.value * f
                _assert_same_value(RationalFunction._product((z, s.value, f)), chained)
                got = in_kernel(f, s)
                assert got == (f.in_hardy2() and chained.in_conjugate_hardy2())
                seen.add(("in_kernel", got))
        cert = is_maximal(basis[-1], g).certificate
        _assert_same_value(cert, (z * g.value * basis[-1]).circle_conjugate())
        # divisors with a root at the origin: g times z and g over z
        for d in (g.value, g.value * z, g.value / z):
            _assert_same_value(RationalFunction._product((h.value, w), (d,)), h.value * w / d)
        ratio = h.value * w / g.value
        chained = not ratio.pole_classification().outside and ratio.order_at_infinity >= 0
        chained = chained and not w.pole_classification().inside and carleson_check(w, kernel(g))
        got = smirnov_multiplier_test(w, g, h)
        assert got == chained
        seen.add(("smirnov", got))
        space = multiplier_space(g, h)
        if space.dimension:
            _assert_same_value(space.factor, kernel(h).plus / kernel(g).plus)
        else:
            assert space.factor is None
        _assert_same_value(wiener_hopf(g).minus, g.value * basis[0] * monomial(-g.winding))
        v, _ = minimal_kernel(basis[-1])
        outer = inner_outer(basis[-1]).outer
        _assert_same_value(v.value, basis[-1].circle_conjugate() / (z * outer))
        u = random_outer(rng, int(rng.integers(0, 2)), 1)
        twisted = as_symbol(g.value * u.circle_conjugate() / u)
        for target in (h, twisted):
            got = is_surjective_multiplier(u, g, target).symbol_identity_ok
            assert got == equals(target, twisted)
            seen.add(("surjective", got))
        # a zero at the origin makes theta * u / conj(u) inner when u has no zero
        theta = random_blaschke(rng, int(rng.integers(1, 4)))
        theta = BlaschkeProduct(theta.constant, [*theta.zeros, (0j, 1)])
        _assert_same_value(theta.to_rational(), _chained_to_rational(theta))
        inner = blaschke_from_rational(_chained_to_rational(theta) * u / u.circle_conjugate())
        companion = crofoot_companion(theta, u)
        assert (companion is None) == (inner is None)
        if companion is not None:
            _assert_same_value(companion.to_rational(), inner.to_rational())
        seen.add(("crofoot", companion is not None))
    assert len(seen) == 8  # each decision answered both ways


# -- "some and hence all" on the parametrisation ---------------------------------
# ker T_g = plus_g * P_{d-1}, and plus_g * p is maximal for every p of degree
# d - 1 with its zeros in the closed disc. For w = (plus_h / plus_g) * z^j,
# w * plus_g * p = plus_h * z^j * p, so w is a multiplier exactly when
# 0 <= j <= dim ker T_h - dim ker T_g, and where w has no pole in the disc
# and none on the circle, w * k lies in ker T_h for every maximal vector k
# exactly then.


def _maximal_vector(rng, K):
    n = K.dimension - 1
    zeros = list((0.9 + 0.09 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n)))
    lead = complex(rng.standard_normal(), rng.standard_normal())
    return K.plus * RationalFunction(ComplexPolynomial.from_roots(zeros, lead=lead))


@pytest.mark.parametrize("seed", [42, 7])
def test_every_maximal_vector_gives_the_default_answer(seed):
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(20):
        g = random_kernel_symbol(rng, 3, 2)
        h = random_kernel_symbol(rng, 3, 2)
        Kg, Kh = kernel(g), kernel(h)
        for j in range(-2, 3):
            w = Kh.plus * monomial(j) / Kg.plus
            default = is_multiplier(w, g, h)
            assert default == (0 <= j <= Kh.dimension - Kg.dimension)
            assert smirnov_multiplier_test(w, g, h) == default
            if not w.pole_classification().inside and carleson_check(w, Kg):
                for _ in range(5):
                    assert in_kernel(w * _maximal_vector(rng, Kg), h) == default
            seen.add(default)
    assert seen == {True, False}


# -- image kernels by the transported ladder, kept as the reference -------------


def _image_kernel_by_ladder(w, g):
    """The image is the minimal kernel of w * k when that kernel has the
    dimension of ker T_g and holds every transported ladder element.
    Returns the kernel or None, and whether the ladder was reached."""
    Kg = kernel(g)
    wk = w * Kg.maximal_vector()
    if wk.is_zero or not wk.in_hardy2():
        return None, False
    v, K = minimal_kernel(wk)
    if K.dimension != Kg.dimension:
        return None, False
    return (K if all(in_kernel(w * b, v) for b in Kg.basis) else None), True


@pytest.mark.parametrize("seed", [42, 7])
def test_image_kernel_matches_the_transported_ladder(seed):
    rng = np.random.default_rng(seed)
    seen = Counter()
    for i in range(500):
        g = random_kernel_symbol(rng, 3, 2)
        if i % 4 == 0:  # invertible-analytic: the image is a kernel
            w = random_outer(rng, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        elif i % 4 == 1:  # poles at the origin, zeros anywhere off the circle
            counts = (int(rng.integers(0, 3)), int(rng.integers(0, 2)), 0, int(rng.integers(0, 2)))
            w = random_rational(rng, *counts) * monomial(-int(rng.integers(1, 3)))
        elif i % 4 == 2:  # zeros and poles anywhere off the circle
            w = random_rational(rng, *(int(rng.integers(0, 2)) for _ in range(4)))
        else:  # a zero on the circle
            w = random_outer(rng, 1, 1) * RationalFunction([1.0, -np.exp(2j * np.pi * rng.random())])
        want, reached = _image_kernel_by_ladder(w, g)
        got = image_kernel(w, g)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dimension == want.dimension
            assert repr(got.symbol.value) == repr(want.symbol.value)
        seen[i % 4, got is not None, reached] += 1
    assert sum(n for (_, image, _), n in seen.items() if image) >= 100
    assert seen[1, False, True] >= 10  # origin poles that reach the ladder


# -- the multiplier space by its former test symbol, kept as the reference ------
# multiplier_space reads (plus_h / plus_g) * P_{d_h - d_g} from the two kernels'
# parametrisations; before, it was the kernel of the test symbol zbar * h / g.

# (inside radii, outside radii) of the zeros and poles
STRATA = {"safe": ((0.1, 0.45), (2.6, 4.0)), "near": ((0.5, 0.9), (1.1, 2.0))}


def _kernel_symbol(rng, inside, outside):
    """Winding -1 to -3, with up to two zeros inside, zeros outside and
    poles outside, and as many poles inside as the winding asks."""
    dim, zi, zo, po = (int(n) for n in rng.integers([1, 0, 0, 0], [4, 3, 3, 3]))

    def points(n, radii):
        return [(complex(rng.uniform(*radii) * np.exp(2j * np.pi * rng.random())), 1)
                for _ in range(n)]

    zeros = points(zi, inside) + points(zo, outside)
    poles = points(zi + dim, inside) + points(po, outside)
    lead = complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random()))
    return ToeplitzSymbol(RationalFunction._from_roots(lead, zeros, poles))


@pytest.mark.parametrize("stratum", STRATA)
@pytest.mark.parametrize("seed", [42, 7])
def test_multiplier_space_is_the_kernel_of_the_former_test_symbol(seed, stratum):
    rng = np.random.default_rng(seed)
    nontrivial = 0
    for _ in range(80):
        g, h = (_kernel_symbol(rng, *STRATA[stratum]) for _ in range(2))
        for source, target in ((g, h), (h, g)):
            space = multiplier_space(source, target)
            want = kernel(ToeplitzSymbol(monomial(-1) * target.value / source.value))
            assert space.dimension == want.dimension
            assert all(b.is_close(e, 1e-9) for b, e in zip(space.basis, want.basis, strict=True))
            nontrivial += space.dimension > 0
    assert nontrivial >= 80


# -- multipliers by net root counts, a third route -------------------------------
# w maps plus_g * P_{d_g-1} into plus_h * P_{d_h-1} exactly when w * plus_g /
# plus_h is a polynomial of degree at most d_h - d_g: its net root counts
# leave no pole (which also rules out a pole of w in the disc or on the
# circle) and at most d_h - d_g zeros.


def _multiplier_by_net_root_counts(w, g, h):
    Kg, Kh = kernel(g), kernel(h)
    n = _quotient_zero_count(w._zeros + Kg.plus._zeros + Kh.plus._poles,
                             w._poles + Kg.plus._poles + Kh.plus._zeros)
    return n is not None and n <= Kh.dimension - Kg.dimension


@pytest.mark.parametrize("seed", [42, 7])
def test_multiplier_decision_matches_net_root_counts(seed):
    rng = np.random.default_rng(seed)
    seen = Counter()
    for i in range(300):
        g = random_kernel_symbol(rng, 3, 2)
        h = random_kernel_symbol(rng, 3, 2)
        if i % 2:  # a kernel that contains ker T_g, so the space is nontrivial
            h = as_symbol(g.value * random_outer(rng, 1, 0).circle_conjugate()
                          * monomial(-int(rng.integers(0, 3))))
        w = random_rational(rng, *(int(rng.integers(0, 2)) for _ in range(4)))
        if i % 10 == 9:  # a pole on the circle
            w = w / RationalFunction([-np.exp(2j * np.pi * rng.random()), 1.0])
        cases = [("drawn", w)]
        space = multiplier_space(g, h)
        if space.dimension:
            p = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
            v = space.factor * RationalFunction(p)
            if i % 4 >= 2:  # off the space: a pole outside the disc, beside a zero
                b = 3.0 * np.exp(2j * np.pi * rng.random())
                v = v * RationalFunction([-(b + 1e-3), 1.0], [-b, 1.0])
                cases.append(("perturbed", v))
            else:
                cases.append(("in-space", v))
        for kind, x in cases:
            got = is_multiplier(x, g, h)
            assert got == _multiplier_by_net_root_counts(x, g, h)
            seen[kind, got] += 1
    assert seen["drawn", True] >= 10 and seen["drawn", False] >= 100
    assert seen["in-space", True] >= 50 and seen["perturbed", False] >= 50

"""Core rational arithmetic: roots, reduction, circle conjugation, winding."""

import cmath
import math
import random
import subprocess
import sys
import types
import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

import tkern.rational
from tkern import (
    BlaschkeProduct,
    ClassificationWarning,
    ComplexPolynomial,
    HalfPlaneRational,
    NotInvertibleOnCircle,
    OutOfRange,
    RationalFunction,
    ZeroDenominator,
    ZeroPolynomial,
    as_symbol,
    cayley_function,
    cayley_symbol,
    equals,
    format_complex,
    format_rational,
    in_kernel,
    inner_outer,
    inverse_cayley_symbol,
    is_multiplier,
    kernel,
    monomial,
    parse_expression,
    poly_roots,
    smirnov_multiplier_test,
    transfer_multiplier,
    wiener_hopf,
    winding_number,
)
from tkern.random_instances import random_rational, random_symbol

from conftest import circle, winding_by_quadrature


# -- poly_roots ------------------------------------------------------------


def test_roots_of_z_squared_minus_one():
    roots = poly_roots(ComplexPolynomial([-1, 0, 1]))
    assert roots == [(-1 + 0j, 1), (1 + 0j, 1)]


def test_double_root_detected_as_multiplicity_two():
    roots = poly_roots(ComplexPolynomial([0.25, -1, 1]))
    assert len(roots) == 1
    r, m = roots[0]
    assert m == 2 and abs(r - 0.5) < 1e-7


@pytest.mark.parametrize("root", [0.5, 2.0, 0.3 + 0.2j])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_multiple_root_from_expanded_coefficients(k, root):
    # eigenvalues split a k-fold root into a ring of radius ~eps**(1/k);
    # the near-multiple refinement has to merge it back
    p = ComplexPolynomial(npoly.polyfromroots([root] * k))
    [(r, m)] = poly_roots(p)
    assert m == k and abs(r - root) < 1e-7 * max(1.0, abs(root))
    assert (RationalFunction(p) / RationalFunction([-root, 1.0]) ** k).is_constant


@pytest.mark.parametrize("root", [1.5, 2.0, -1.3 - 0.3j])
def test_seven_fold_root_split_wider_than_the_grouping_radius(root):
    # the eigenvalues of the expanded (z - root)^7 form a ring whose
    # neighbours lie more than COARSE_CLUSTER apart; the Newton step taken
    # before grouping pulls them back into one group
    [(r, m)] = poly_roots(ComplexPolynomial(npoly.polyfromroots([root] * 7)))
    assert m == 7 and abs(r - root) < 1e-7 * abs(root)


def test_planted_roots_recovered(rng):
    # oracle: expand known roots, then re-extract
    planted = np.sort_complex(
        rng.uniform(0.2, 2.5, 8) * np.exp(2j * np.pi * rng.random(8))
    )
    p = ComplexPolynomial(npoly.polyfromroots(planted))
    found = poly_roots(p)
    assert sum(m for _, m in found) == 8
    recovered = np.sort_complex([r for r, _ in found])
    assert np.max(np.abs(recovered - planted)) < 1e-8


@pytest.mark.parametrize("degree", [4, 8, 12, 16])
def test_roots_then_reexpansion_reproduces_coefficients(rng, degree):
    planted = rng.uniform(0.3, 2.0, degree) * np.exp(2j * np.pi * rng.random(degree))
    lead = 0.7 + 0.2j
    p = ComplexPolynomial(lead * npoly.polyfromroots(planted))
    rebuilt = ComplexPolynomial.from_roots(poly_roots(p), lead=lead)
    scale = np.max(np.abs(p.coeffs))
    assert np.max(np.abs(rebuilt.coeffs - p.coeffs)) < 1e-8 * scale


def _separated_roots(rng, n, gap=1e-3):
    roots = []
    while len(roots) < n:
        r = rng.uniform(0.1, 4.0) * np.exp(2j * np.pi * rng.random())
        if all(abs(r - q) >= gap for q in roots):
            roots.append(r)
    return np.array(roots)


def test_separated_roots_recovered_as_simple_roots():
    rng = np.random.default_rng(2016)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        planted = _separated_roots(rng, n)
        found = poly_roots(ComplexPolynomial(npoly.polyfromroots(planted)))
        assert [m for _, m in found] == [1] * n
        dist = np.abs(planted[:, None] - np.array([r for r, _ in found]))
        assert len(set(dist.argmin(axis=1).tolist())) == n
        assert np.all(dist.min(axis=1) <= 1e-9 * np.abs(planted))


@pytest.mark.parametrize("degree", range(1, 49))
def test_from_roots_matches_numpy_expansion(degree):
    rng = np.random.default_rng(degree)
    roots = rng.uniform(0.1, 4.0, degree) * np.exp(2j * np.pi * rng.random(degree))
    lead = 0.7 - 0.4j
    c = ComplexPolynomial.from_roots(list(roots), lead=lead).coeffs
    expected = lead * npoly.polyfromroots(roots)
    assert c.size == degree + 1
    assert np.max(np.abs(c - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("multiplicity", [-1, 0, 1.7])
def test_from_roots_multiplicity_must_be_an_integer_of_at_least_one(multiplicity):
    # checked with lead 0 too, where no coefficient is expanded
    for lead in (1.0, 0):
        with pytest.raises(ValueError, match="multiplicity"):
            ComplexPolynomial.from_roots([(0.5, multiplicity)], lead)


@pytest.mark.parametrize("lead", [1.0, 0])
@pytest.mark.parametrize("root", [float("nan"), complex("inf"), complex(0.5, -math.inf)])
def test_from_roots_refuses_a_root_that_is_not_finite(root, lead):
    # a kept root must be finite: refused before any expansion, as a root
    with pytest.raises(OutOfRange, match="a root is outside double precision"):
        ComplexPolynomial.from_roots([0.5, (root, 2)], lead)


@pytest.mark.parametrize("roots", [[(0, 10**20)], [(2, 10**20)], [(2, 1), (0, sys.maxsize)]])
def test_from_roots_refuses_a_degree_no_list_can_hold(roots):
    # refused before any coefficient is expanded
    with pytest.raises(OutOfRange, match="no coefficient form"):
        ComplexPolynomial.from_roots(roots)


def test_from_roots_accepts_a_numpy_integer_multiplicity():
    p = ComplexPolynomial.from_roots([(0.5, np.int64(2))])
    assert p.coeffs.tolist() == [0.25, -1.0, 1.0]


def _from_roots_by_factors(roots, lead):
    # reference: one factor (z - r) at a time, a root at the origin included
    c = [1 + 0j]
    for r, m in roots:
        for _ in range(m):
            c = [0j - r * c[0], *[a - r * b for a, b in zip(c, c[1:])], c[-1]]
    return tuple(a * lead for a in c)


def test_from_roots_shifts_by_the_roots_at_the_origin():
    rng = np.random.default_rng(5)
    values = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1, -1, 1j, -0.5 - 0.25j,
              complex(3, -0.0)]
    for _ in range(500):
        roots = [(complex(values[i]), int(m)) for i, m in
                 zip(rng.integers(0, len(values), 5), rng.integers(1, 4, 5))]
        lead = complex(rng.choice([1.0, -1.0, 1j, 0.5 - 2j]))
        got = ComplexPolynomial.from_roots(roots, lead)._coeffs
        # equal to the bit, the sign of every zero part too
        assert repr(got) == repr(_from_roots_by_factors(roots, lead)), roots
    p = ComplexPolynomial.from_roots([(0j, 100000), (0.5, 1)], 2.0)
    assert p.degree == 100001
    assert p._coeffs[:100000] == (0j,) * 100000 and p._coeffs[100000:] == (-1 + 0j, 2 + 0j)


def test_format_complex_keeps_an_infinite_part():
    assert format_complex(complex(math.inf, 0.0)) == "inf"
    assert format_complex(complex(0.0, -math.inf)) == "-infi"
    assert format_complex(complex(math.inf, 1e-20)) == "inf+1e-20i"
    assert format_complex(complex(1.0, 1e-20)) == "1"


def test_from_roots_keeps_high_multiplicity_degree():
    p = ComplexPolynomial.from_roots([(2.0, 32)])
    assert p.degree == 32
    # every partial product of (z - 2) has integer coefficients below 2**53
    expected = [math.comb(32, j) * (-2) ** (32 - j) for j in range(33)]
    assert p.coeffs.tolist() == [complex(e) for e in expected]


def _eager_from_roots(roots, lead):
    # reference: the expansion as from_roots made it at construction, the
    # roots at 0 as a shift
    factors, shift = [], 0
    for item in roots:
        r, m = item if isinstance(item, tuple) else (item, 1)
        r = complex(r)
        if r == 0:
            shift += m
        else:
            factors.append((r, m))
    c = [1 + 0j]
    for r, m in factors:
        for _ in range(m):
            c = [0j - r * c[0], *[a - r * b for a, b in zip(c, c[1:])], c[-1]]
    lead = complex(lead)
    c = tuple(a * lead for a in [0j] * shift + c)
    if not all(map(cmath.isfinite, c)):
        raise OutOfRange("polynomial coefficients overflow double precision")
    return c


def _lazy_expansion_corpus(rng):
    """(roots, lead) pairs: degree 0..48 with repeated roots, roots at 0 of
    both signs, bare roots, and complex and subnormal leads."""
    leads = [1.0, 0.7 - 0.4j, -2j, 5e-324, complex(0.0, -1e-310), complex(-0.0, 3.0)]
    for degree in range(49):
        for lead in leads:
            roots, left = [], degree
            while left:
                m = min(left, int(rng.integers(1, 5)))
                kind = rng.integers(0, 4)
                if kind == 0:
                    r = rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
                else:
                    r = complex(10 ** rng.uniform(-3, 1.5) * cmath.exp(2j * math.pi * rng.random()))
                roots.append(r if m == 1 and kind == 3 else (r, m))
                if kind == 1 and left > m:  # the same value again, as its own entry
                    roots.append((r, 1))
                    left -= 1
                left -= m
            yield roots, lead


def test_lazy_coefficients_equal_the_eager_expansion():
    rng = np.random.default_rng(35)
    cases = list(_lazy_expansion_corpus(rng))
    # roots whose coefficient bound |lead| prod (1 + |r|)^m straddles the
    # guard: deferred just below it, expanded at construction just above
    for m in (1, 2, 7, 30):
        for ratio in (0.5, 0.999, 1.001, 2.0):
            r = (ratio * tkern.rational.EXPANSION_BOUND) ** (1 / m) - 1
            roots = [(r * cmath.exp(0.3j), m), (0j, 2)]
            assert (ComplexPolynomial.from_roots(roots)._expansion is None) == (ratio < 1)
            cases.append((roots, 1.0))
    deferred = 0
    for roots, lead in cases:
        p = ComplexPolynomial.from_roots(roots, lead)
        deferred += p._expansion is None
        want = _eager_from_roots(roots, lead)
        assert repr((p.degree, p.lead)) == repr((len(want) - 1, want[-1])), roots
        # equal to the bit, the sign of every zero part too
        assert repr(p._coeffs) == repr(want), roots
        assert repr(ComplexPolynomial(p)._coeffs) == repr(want)
    assert 0 < deferred < len(cases)


def test_degree_lead_and_zero_test_expand_nothing(monkeypatch):
    rng = np.random.default_rng(36)
    cases = list(_lazy_expansion_corpus(rng))[::7]
    polys = [ComplexPolynomial.from_roots(roots, lead) for roots, lead in cases]
    want = [_eager_from_roots(roots, lead) for roots, lead in cases]

    def refuse(roots, lead):
        raise AssertionError("coefficients expanded")

    monkeypatch.setattr(tkern.rational, "_expand", refuse)
    for p, c in zip(polys, want):
        for q in (p, ComplexPolynomial(p)):  # a copy keeps the unexpanded state
            assert q.degree == len(c) - 1 and repr(q.lead) == repr(c[-1]) and not q.is_zero
    assert ComplexPolynomial.from_roots([(0.5, 3)], 0).is_zero
    num, den = ComplexPolynomial.from_roots([(0.5, 2), 3j], 2.0), ComplexPolynomial.from_roots([4.0])
    f = RationalFunction(num, den)
    assert f.zeros() == [(3j, 1), (0.5 + 0j, 2)] and f.num.degree == 3 and f.den.degree == 1


def _kernel_symbol_roots(rng, dim):
    # winding -dim: dim more poles than zeros inside the disc
    def point(lo, hi):
        return complex(rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random()))

    inside = int(rng.integers(0, 3))
    zeros = [point(0.1, 0.45) for _ in range(inside)]
    zeros += [point(2.6, 4.0) for _ in range(rng.integers(0, 3))]
    poles = [point(0.1, 0.45) for _ in range(inside + dim)]
    poles += [point(2.6, 4.0) for _ in range(rng.integers(0, 3))]
    return zeros, poles


def test_deciding_from_roots_expands_nothing(monkeypatch):
    expanded, expand = [], tkern.rational._expand
    monkeypatch.setattr(tkern.rational, "_expand",
                        lambda roots, lead: expanded.append(roots) or expand(roots, lead))
    rng = np.random.default_rng(42)
    for _ in range(50):
        built = []
        for dim in (int(rng.integers(1, 4)), int(rng.integers(1, 4)), 0):
            zeros, poles = _kernel_symbol_roots(rng, dim)
            lead = complex(rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.random()))
            built.append(RationalFunction(ComplexPolynomial.from_roots(zeros, lead),
                                          ComplexPolynomial.from_roots(poles)))
        g, h, w = as_symbol(built[0]), as_symbol(built[1]), built[2]
        assert is_multiplier(w, g, h) == smirnov_multiplier_test(w, g, h)
        assert kernel(g).dimension == -g.winding
        assert expanded == []
    # printing reads the gain and the roots
    text = format_rational(w)
    assert expanded == []
    assert parse_expression(text).to_rational().is_close(w, 1e-9)


def _group_points_by_pairs(points, tol_factor):
    # reference: union-find over every pair; a dict keeps the groups in the
    # order of their first member
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, a in enumerate(points):
        for j in range(i + 1, len(points)):
            b = points[j]
            if abs(a - b) <= tol_factor * max(1.0, abs(a), abs(b)):
                parent[find(j)] = find(i)
    groups = {}
    for i, a in enumerate(points):
        groups.setdefault(find(i), []).append(a)
    return list(groups.values())


def test_group_points_matches_pairwise_reference():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 16))
        # a few centres with jittered copies, so chains and singletons mix
        centres = 2.0 * (rng.random(3) - 0.5 + 1j * (rng.random(3) - 0.5))
        points = centres[rng.integers(0, 3, n)] + 1e-3 * (rng.random(n) + 1j * rng.random(n))
        points = points.tolist()
        for tol in (1e-7, 5e-4, 1e-2):
            groups = tkern.rational._group_roots(points, tol)
            assert [[points[i] for i in g] for g in groups] == _group_points_by_pairs(points, tol)


def test_separated_roots_are_grouped_once(monkeypatch):
    calls = []
    group_roots = tkern.rational._group_roots

    def counted(points, tol_factor):
        calls.append(tol_factor)
        return group_roots(points, tol_factor)

    monkeypatch.setattr(tkern.rational, "_group_roots", counted)
    planted = [0.3, -0.5j, 1.2 + 0.4j, -2.0, 2.5 - 1.0j, 3.3j]
    found = poly_roots(ComplexPolynomial(npoly.polyfromroots(planted)))
    assert [m for _, m in found] == [1] * 6
    assert len(calls) == 1


# a k-fold root among simple roots, as (root, k, simple roots, relative
# accuracy of the k-fold root)
MULTIPLE_AMONG_SIMPLE = [
    # the subroots of the refined factor lie wider apart than the noise
    # floor, but in one chain; a pairwise fold split these into 3 + 2,
    # 3 + 2 + 1 and 3 + 1
    (1.627 + 1.107j, 5, [1.078 + 1.236j, -0.21 - 3.67j, 1.688 + 0.804j, -0.049 + 0.628j,
                         1.722 + 1.356j, 0.663 + 1.433j], 1e-7),
    # the simple root 0.11 away pulls the mean of the eigenvalue ring 3.9e-5
    # (relative) off, and factor refinement does not recover it
    (2.184 - 1.199j, 6, [0.43 + 1.762j, 1.158 + 1.534j, -1.735 + 3.074j, 2.073 - 1.191j,
                         -2.062 + 0.414j, 1.737 - 1.87j, -0.244 - 0.531j], 1e-4),
    (-0.494 + 3.566j, 4, [-3.05 + 2.51j, 0.886 + 1.892j, -1.725 + 2.839j, 0.557 + 2.764j,
                          -1.147 + 1.021j], 1e-7),
] + [
    pytest.param(
        root, 7, [3.0, -3.0], 1e-7,
        marks=pytest.mark.xfail(
            strict=True,
            reason="known defect: the eigenvalue ring of the 7-fold root stays wider than "
            "COARSE_CLUSTER after the Newton step, and 9 simple roots come out",
        ),
    )
    for root in (1.3, 1.5, 2.0)
]


@pytest.mark.parametrize("root, k, simple, rtol", MULTIPLE_AMONG_SIMPLE)
def test_multiple_root_among_simple_roots(root, k, simple, rtol):
    found = poly_roots(ComplexPolynomial(npoly.polyfromroots([root] * k + simple)))
    [(r, m)] = [(r, m) for r, m in found if m > 1]
    assert m == k and abs(r - root) <= rtol * abs(root)
    assert len(found) == len(simple) + 1


def _numpy_newton_step(c, points):
    # reference: the vectorised numpy form of the step, which polyval'd the
    # derivative's coefficients; also returns which steps lowered |p| and
    # which kept to the length bound
    raw = np.asarray(points, dtype=complex)
    val = npoly.polyval(raw, c)
    der = npoly.polyval(raw, c[1:] * np.arange(1, c.size))
    with np.errstate(all="ignore"):
        step = val / der
        cand = raw - step
        better = np.abs(npoly.polyval(cand, c)) < np.abs(val)
    short = np.abs(step) < 0.5 * (1.0 + np.abs(raw))
    accept = (der != 0) & short & better
    return np.where(accept, cand, raw).tolist(), better, short


def _ring_roots(rng, n):
    # n roots near one circle of radius 0.5, 1 or 2: angles jittered within
    # n equal sectors, radii within 10%. Such roots stay well conditioned up
    # to degree 48, so two correct root finders agree to rounding there
    radius = rng.choice([0.5, 1.0, 2.0])
    turns = (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n + rng.random()
    return (radius * rng.uniform(0.9, 1.1, n) * np.exp(2j * np.pi * turns)).tolist()


def _assert_roots_close(found, expected):
    assert [m for _, m in found] == [m for _, m in expected]
    for (r, _), (s, _) in zip(found, expected):
        assert abs(r - s) <= 1e-12 * max(1.0, abs(s))


def test_newton_step_matches_the_numpy_reference():
    # starts moved off the roots at four scales, so that steps are taken,
    # refused because |p| grows, and refused by the length bound
    rng = np.random.default_rng(1983)
    taken = worse = long = 0
    for degree in range(2, 49):
        roots = _ring_roots(rng, degree)
        c = np.exp(2j * np.pi * rng.random()) * npoly.polyfromroots(roots)
        for scale in (1e-9, 1e-3, 0.1, 0.5):
            moves = scale * rng.uniform(0.2, 1.0, degree) * np.exp(2j * np.pi * rng.random(degree))
            starts = (np.array(roots) + moves).tolist()
            expected, better, short = _numpy_newton_step(c, starts)
            found = tkern.rational._newton_step(c, starts)
            _assert_roots_close([(r, 1) for r in found], [(r, 1) for r in expected])
            taken += int(np.sum(better & short))
            worse += int(np.sum(~better & short))
            long += int(np.sum(~short))
    assert min(taken, worse, long) >= 50
    # a modulus beyond double range refuses the step without raising
    huge = 1.5e308 + 1.5e308j
    assert tkern.rational._newton_step(np.array([0, 1], dtype=complex), [huge]) == [huge]


def test_roots_with_the_numpy_step_match(monkeypatch):
    # separated roots of degree 2 to 48, and a planted 2- to 5-fold root
    # with up to 12 simple roots at least 0.3 |root| away from it
    rng = np.random.default_rng(1984)
    corpus = []
    for degree in range(2, 49):
        corpus.append(_ring_roots(rng, degree))
        k = int(rng.integers(2, 6))
        root, *ring = _ring_roots(rng, min(degree, 13))
        corpus.append([root] * k + [r for r in ring if abs(r - root) >= 0.3 * abs(root)])
    polys = [ComplexPolynomial(npoly.polyfromroots(roots)) for roots in corpus]
    # the derivative's coefficient 3e308 overflowed in the numpy step
    polys.append(ComplexPolynomial([1, 0, 0, 1e308]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = [poly_roots(p) for p in polys]
    monkeypatch.setattr(
        tkern.rational, "_newton_step", lambda c, points: _numpy_newton_step(c, points)[0]
    )
    for p, roots in zip(polys, found):
        with np.errstate(all="ignore"):  # the numpy step warns on the 3e308
            expected = poly_roots(p)
        _assert_roots_close(roots, expected)


def _quadratic_corpus(rng):
    # (roots, lead) of quadratics: separated roots at safe and near radii, a
    # double root, pairs 1e-3 apart (inside COARSE_CLUSTER), moduli from 1e-6
    # to 1e6, b = 0, real pairs and imaginary pairs
    def point(lo, hi):
        return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())

    corpus = []
    for _ in range(40):
        corpus += [
            [point(0.1, 0.45), point(2.6, 4.0)],
            [point(0.5, 0.9), point(1.1, 2.0)],
            [point(0.1, 4.0)] * 2,
            [r := point(0.1, 4.0), r * (1 + 1e-3 * cmath.exp(2j * math.pi * rng.random()))],
            [point(1.0, 1.0) * 10 ** rng.uniform(-6, 6) for _ in range(2)],
            [r := point(0.1, 4.0), -r],
            list(rng.uniform(-4.0, 4.0, 2)),
            list(1j * rng.uniform(-4.0, 4.0, 2)),
            [r := point(0.1, 4.0), r.conjugate()],
        ]
    return [(roots, point(0.5, 2.0)) for roots in corpus]


def _take_the_eigenvalues(monkeypatch):
    # a discriminant whose square root overflows sends every quadratic to
    # the companion-matrix eigenvalues
    overflowing = types.SimpleNamespace(**vars(cmath))
    overflowing.sqrt = lambda x: complex(math.inf, 0.0)
    monkeypatch.setattr(tkern.rational, "cmath", overflowing)


def test_quadratic_roots_match_the_eigenvalue_path(monkeypatch):
    rng = np.random.default_rng(2026)
    polys = [ComplexPolynomial.from_roots(roots, lead) for roots, lead in _quadratic_corpus(rng)]
    found = [poly_roots(p) for p in polys]
    assert {len(roots) for roots in found} == {1, 2}
    # the reference: the eigenvalues with the numpy step
    _take_the_eigenvalues(monkeypatch)
    monkeypatch.setattr(
        tkern.rational, "_newton_step", lambda c, points: _numpy_newton_step(c, points)[0]
    )
    for p, roots in zip(polys, found):
        expected = poly_roots(p)
        assert len(roots) == len(expected)
        # a conjugate pair's real parts may differ in the last bit, and so
        # sort the other way round: each root is matched to its nearest
        for r, m in roots:
            s, k = min(expected, key=lambda sk: abs(sk[0] - r))
            assert m == k
            # a simple root 1e-3 from the other is conditioned 1e3 times
            # worse; both paths then lie within a few rounding errors of it,
            # eps times its condition sum |c_j| |s|^j / |p'(s)|
            c = p._coeffs
            der = abs(c[1] + 2 * c[2] * s)
            bound = sum(abs(a) * abs(s) ** j for j, a in enumerate(c)) / der if m == 1 else 0.0
            assert abs(r - s) <= max(1e-12 * abs(s), 8 * sys.float_info.epsilon * bound)


def test_quadratic_whose_discriminant_overflows_takes_the_eigenvalues(monkeypatch):
    # b * b = 1e400 is not a double; the roots are -1e200 and -1e-200
    p = ComplexPolynomial([1, 1e200, 1])
    found = poly_roots(p)
    _take_the_eigenvalues(monkeypatch)
    assert found == poly_roots(p)
    _assert_roots_close(found, [(-1e200, 1), (-1e-200, 1)])


def test_quadratic_whose_companion_matrix_overflows_is_out_of_range():
    # the roots are +-1e160i, but 1e160 / 1e-160 is not a double
    with pytest.raises(OutOfRange) as info:
        poly_roots(ComplexPolynomial([1e160, 0, 1e-160]))
    assert str(info.value) == "the companion matrix of a polynomial overflows double precision"


def test_a_quadratic_loads_no_numpy():
    code = "import sys, tkern; tkern.RationalFunction([2, 3, 1]); print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_horner_evaluation_matches_polyval():
    # the coefficients are a tuple of Python complex; an array z runs the
    # same operations as numpy's polyval, a number the same in Python
    rng = np.random.default_rng(1985)
    for degree in range(49):
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        p = ComplexPolynomial(c)
        z = rng.uniform(0.2, 1.5, 16) * np.exp(2j * np.pi * rng.random(16))
        assert np.array_equal(p(z), npoly.polyval(z, c))
        bound = npoly.polyval(np.abs(z), np.abs(c))
        for x, b in zip(z.tolist(), bound):
            value = p(x)
            assert type(value) is complex
            assert abs(value - npoly.polyval(x, c)) <= 1e-13 * b
    assert ComplexPolynomial([])(0.5) == 0 and type(ComplexPolynomial([])(0.5)) is complex
    assert np.array_equal(ComplexPolynomial([])(np.ones(3)), np.zeros(3, dtype=complex))
    assert np.array_equal(ComplexPolynomial([2j])(np.ones(3)), np.full(3, 2j))


def test_strings_are_not_numbers():
    # complex("2") parses, but a string is not a coefficient
    with pytest.raises(TypeError):
        RationalFunction([1, 1]) + "2"
    with pytest.raises(TypeError):
        ComplexPolynomial("12")
    with pytest.raises(TypeError):
        ComplexPolynomial([1, "2"])
    assert (RationalFunction([1, 1]) + 2).is_close(RationalFunction([3, 1]))
    assert ComplexPolynomial(np.float64(12)).is_close(ComplexPolynomial([12]))


def test_scalar_evaluation_is_python_complex_and_quiet_at_a_pole():
    f = RationalFunction._from_roots(2.0, [(0.5j, 1)], [(0.5, 2), (-3.0, 1)])
    x = 0.3 - 0.7j
    assert type(f(x)) is complex and type(f(np.complex128(x))) is complex
    assert abs(f(x) - f(np.array([x]))[0]) <= 1e-15 * abs(f(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pole in (0.5, 0.5 + 0j, -3):
            value = f(pole)
            assert type(value) is complex and not cmath.isfinite(value)
    # an array keeps numpy's semantics: the value at the pole is not finite
    with np.errstate(all="ignore"):
        assert not np.isfinite(f(np.array([0.5, x]))[0])


# -- root matching -------------------------------------------------------------


def _reduce_by_pairs(zeros, poles, tol_factor):
    # reference: zeros and poles grouped together by the all-pairs test; in
    # a group the zeros cancel the poles, and the side in excess keeps one
    # root at its multiplicity-weighted mean (equal roots stay as they are)
    zeros = [(complex(r), int(m)) for r, m in zeros if m > 0]
    poles = [(complex(r), int(m)) for r, m in poles if m > 0]
    groups = _group_points_by_pairs([r for r, _ in zeros + poles], tol_factor)
    home = {r: g for g, members in enumerate(groups) for r in members}
    out_zeros, out_poles = [], []
    for g in range(len(groups)):
        zs = [(r, m) for r, m in zeros if home[r] == g]
        ps = [(r, m) for r, m in poles if home[r] == g]
        net = sum(m for _, m in zs) - sum(m for _, m in ps)
        side, out = (zs, out_zeros) if net > 0 else (ps, out_poles)
        if net:
            if all(r == side[0][0] for r, _ in side):
                mean = side[0][0]
            else:
                mean = sum(r * m for r, m in side) / sum(m for _, m in side)
            out.append((mean, abs(net)))

    def packed(roots):
        return tuple(sorted(roots, key=lambda rm: (rm[0].real, rm[0].imag)))

    return packed(out_zeros), packed(out_poles)


def _multiset(rng, pool, tol, size):
    # roots drawn from ``pool``: repeated exactly, or moved 0.1 to 1.5 times
    # the relative tolerance, so that pairs fall on both sides of it
    roots = []
    for _ in range(size):
        r = pool[rng.integers(len(pool))]
        kind = rng.integers(3)
        if kind == 1:
            r = r + tol * rng.uniform(0.1, 1.5) * max(1.0, abs(r)) * np.exp(2j * np.pi * rng.random())
        elif kind == 2:
            r = rng.uniform(0.0, 4.0) * np.exp(2j * np.pi * rng.random())  # separated
        roots.append((complex(r), int(rng.integers(0, 4))))
    return roots


@pytest.mark.parametrize("tol", [tkern.rational.EPS_ROOT, 1e-4, 1e-2])
def test_sweep_matches_the_matrix_reference(tol, monkeypatch):
    # _reduce groups at EPS_ROOT; set to ``tol``, the near matches of each
    # corpus fall on both sides of its grouping radius
    monkeypatch.setattr(tkern.rational, "EPS_ROOT", tol)
    rng = np.random.default_rng(1977)
    for _ in range(300):
        pool = 3.0 * (rng.random(6) - 0.5 + 1j * (rng.random(6) - 0.5))
        pool[0] = 0.0
        zeros = _multiset(rng, pool, tol, int(rng.integers(0, 24)))
        poles = _multiset(rng, pool, tol, int(rng.integers(0, 24)))
        points = [r for r, _ in zeros + poles]
        groups = tkern.rational._group_roots(points, tol)
        assert [[points[i] for i in g] for g in groups] == _group_points_by_pairs(points, tol)
        assert tkern.rational._reduce(zeros, poles) == _reduce_by_pairs(zeros, poles, tol)


def _screen_corpus(rnd, w):
    """Points of at most 6 entries (sizes 0, 1 and 2 included) in the
    strata where the real-part screen of ``_group_roots`` decides, for the
    relative radius ``w`` (the screen's width where every modulus is at
    most 1): real parts that tie or lie within w with imaginary parts far
    apart (the screen passes them on, nothing links); neighbours whose real
    gap is exactly w (0, +-w and +-2w are doubles whose differences are
    exact, all of modulus below 1), linked or not; exact repeats; and the
    four signed zeros."""
    n = rnd.choice((0, 1, 2, 2, 3, 4, 6))
    stratum = rnd.randrange(4)
    points = []
    for _ in range(n):
        if stratum == 0:  # ties or near ties, imaginary parts 3 to 40 w apart
            p = complex(0.25 + rnd.choice((0.0, 0.0, 0.5, 0.99)) * w * rnd.randrange(3),
                        w * rnd.randrange(3, 40, 3))
        elif stratum == 1:  # real gaps of exactly w, on the real axis or off it
            p = complex(w * rnd.randrange(-2, 3), rnd.choice((0.0, 0.0, 0.5 * w, 2 * w, 0.3)))
        elif stratum == 2:  # exact repeats of a few values
            p = rnd.choice((0.5 + 0.25j, -0.75j, 0.125, complex(0.5, 3 * w)))
        else:  # the signed zeros among values far from them
            p = rnd.choice((0j, -0j, complex(0.0, -0.0), complex(-0.0, 0.0), 0.5j, -0.5))
        points.append(p)
    return points


@pytest.mark.parametrize("tol", [tkern.rational.EPS_ROOT, 2.0**-20, 2.0**-3])
def test_grouping_fast_paths_match_the_pairwise_references(tol, monkeypatch):
    # no link: _group_roots returns singletons, whether its real-part
    # screen or its sweep finds none, and _reduce keeps the entries as
    # given; both are checked against the all-pairs references
    monkeypatch.setattr(tkern.rational, "EPS_ROOT", tol)
    rnd = random.Random(3737)
    seen = set()
    for _ in range(3000):
        points = _screen_corpus(rnd, tol)
        groups = tkern.rational._group_roots(points, tol)
        assert [[points[i] for i in g] for g in groups] == _group_points_by_pairs(points, tol)
        signs = [rnd.choice((-3, -1, 0, 1, 2)) for _ in points]
        zeros = [(p, m) for p, m in zip(points, signs) if m >= 0]
        poles = [(p, -m) for p, m in zip(points, signs) if m < 0]
        assert tkern.rational._reduce(zeros, poles) == _reduce_by_pairs(zeros, poles, tol)
        xs = sorted(p.real for p in points)
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        width = tol * max([1.0, *map(abs, points)])
        linked = len(groups) < len(points)
        seen.add(("screened" if min(gaps, default=math.inf) > width else "swept", linked))
        if width in gaps:
            seen.add(("gap of exactly w", linked))
    kinds = ("swept", "gap of exactly w")
    assert seen == {("screened", False)} | {(kind, link) for kind in kinds for link in (True, False)}


@pytest.mark.parametrize(
    "bad", [complex(math.inf, 0.0), complex(0.0, math.nan), complex(1.5e308, 1.5e308)]
)
def test_grouping_refuses_a_root_that_is_not_a_double_at_every_size(bad):
    # the refusal runs before the real-part screen, wherever the bad root
    # stands among far-apart, tied or repeated neighbours; 1.5e308 + 1.5e308i
    # has finite parts and a modulus beyond double range, while
    # 1e308 + 1e308i has the modulus 1.41e308, a double, and is kept
    tol = tkern.rational.EPS_ROOT
    for others in ([], [0.5], [0.5, 3j], [0.5, 0.5 + 1j, 0.5], [2.0, -7.0, 40j, 1e8]):
        for k in range(len(others) + 1):
            points = [*others[:k], bad, *others[k:]]
            with pytest.raises(OutOfRange):
                tkern.rational._group_roots(points, tol)
            with pytest.raises(OutOfRange):
                tkern.rational._reduce([(p, 1) for p in points], [])
            with pytest.raises(OutOfRange):
                tkern.rational._reduce([(p, 1) for p in others], [(bad, 2)])
            big = [*others[:k], complex(1e308, 1e308), *others[k:]]
            groups = tkern.rational._group_roots(big, tol)
            assert [[big[i] for i in g] for g in groups] == _group_points_by_pairs(big, tol)


def _reduce_over_every_entry(zeros, poles):
    # reference: the reduction that grouped every entry, repeated values
    # included, in one pass of ``_group_roots``
    roots = [(complex(r), int(m)) for r, m in zeros if m > 0]
    roots += [(complex(r), -int(m)) for r, m in poles if m > 0]
    zs, ps = [], []
    for group in tkern.rational._group_roots([r for r, _ in roots], tkern.rational.EPS_ROOT):
        if len(group) == 1:
            r, m = roots[group[0]]
        else:
            m = sum(roots[i][1] for i in group)
            if not m:
                continue
            r = tkern.rational._mean([roots[i] for i in group if (roots[i][1] > 0) == (m > 0)])
        if m > 0:
            zs.append((r, m))
        else:
            ps.append((r, -m))
    return tuple(tkern.rational._sorted_roots(zs)), tuple(tkern.rational._sorted_roots(ps))


def _reduction_corpus(rnd):
    # zeros and poles drawn from one small pool, so that values repeat
    # exactly across the two sides: near copies 0.1 to 2 EPS_ROOT away,
    # three-link chains of steps 0.7 EPS_ROOT, both signed zeros, moduli
    # from 1e-7 to 1e8 and multiplicities from 0 to 3
    tol = tkern.rational.EPS_ROOT
    pool = [0j, -0j, complex(0.0, -0.0), complex(-0.0, 0.0)]
    for _ in range(rnd.randint(1, 4)):
        pool.append(rnd.choice((1e-7, 1.0, 1e8)) * rnd.uniform(0.5, 2.0) * cmath.rect(1.0, rnd.uniform(0.0, 2 * math.pi)))

    def entry():
        r = rnd.choice(pool)
        kind = rnd.randrange(4)
        if kind == 1:  # a near copy
            r += tol * rnd.uniform(0.1, 2.0) * max(1.0, abs(r)) * cmath.rect(1.0, rnd.uniform(0.0, 2 * math.pi))
        elif kind == 2:  # a link of a chain
            r += 0.7 * tol * max(1.0, abs(r)) * rnd.randrange(3)
        return r, rnd.randrange(4)

    return [entry() for _ in range(rnd.randrange(12))], [entry() for _ in range(rnd.randrange(12))]


def test_reduce_by_distinct_values_matches_the_every_entry_reference():
    # repr tells 0j from -0j, which ``_reduce_by_pairs`` may not match: its
    # pole means weigh by positive multiplicities
    rnd = random.Random(2025)
    signed_zeros = set()
    for _ in range(2000):
        zeros, poles = _reduction_corpus(rnd)
        got = tkern.rational._reduce(zeros, poles)
        assert repr(got) == repr(_reduce_over_every_entry(zeros, poles)), (zeros, poles)
        for side, roots in enumerate(got):
            signed_zeros.update((side, repr(r)) for r, _ in roots if not r)
    # a zero and a pole at the origin each won with each sign of its parts
    assert signed_zeros >= {(side, repr(r)) for side in (0, 1) for r in (0j, -0j)}


def test_quotient_zero_count_reads_what_reduce_leaves():
    # None when the reduction leaves a pole, else the multiplicity of the
    # zeros it leaves; the corpus crosses chains of EPS_ROOT links between
    # zeros and poles, so the grouping fallback answers both ways. Each
    # zero that _quotient_zeros gives, which that count adds up, lies in a
    # group where the reduction leaves a zero: every group of this corpus
    # spans less than 3 EPS_ROOT
    rnd = random.Random(29)
    seen = set()
    tol = 3 * tkern.rational.EPS_ROOT
    for _ in range(3000):
        zeros, poles = _reduction_corpus(rnd)
        left_zeros, left_poles = tkern.rational._reduce(zeros, poles)
        expected = None if left_poles else sum(m for _, m in left_zeros)
        assert tkern.rational._quotient_zero_count(zeros, poles) == expected, (zeros, poles)
        for r, m in (tkern.rational._quotient_zeros(zeros, poles) or {}).items():
            assert m > 0 and any(abs(r - a) <= tol * max(1, abs(r), abs(a)) for a, _ in left_zeros)
        net = {}
        for r, m in zeros:
            net[r] = net.get(r, 0) + m
        for r, m in poles:
            net[r] = net.get(r, 0) - m
        seen.add((min(net.values(), default=0) < 0, expected is None))
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("n", [16, 24, 32])
def test_tiny_constant_term_is_not_a_root_at_the_origin(n):
    # 0.3**n is far below 1e-12 of the leading coefficient from n = 24 on;
    # it still sets the n roots at radius 0.3
    c = np.zeros(n + 1)
    c[0], c[n] = -(0.3**n), 1.0
    zeros = RationalFunction(c).zeros()
    assert [m for _, m in zeros] == [1] * n
    assert max(abs(abs(r) / 0.3 - 1.0) for r, _ in zeros) < 1e-8


def test_equal_sees_the_poles_of_a_tiny_constant_term():
    g = parse_expression("conj(z^24-0.3^24)").to_rational()
    h = parse_expression("zbar^24").to_rational()
    assert not equals(g, h)


SUM_STRESS = [
    pytest.param(
        text, radius, n,
        marks=[pytest.mark.xfail(
            strict=True,
            reason="known defect: the roots of the expanded sum are far off at degree 48 "
            "and radius ratio 0.3; polishing on the factored summands would fix it",
        )] if (r, n) == (0.3, 48) else [],
        id=text,
    )
    for r in (0.3, 0.45)
    for n in (16, 24, 32, 48)
    for text, radius in ((f"1-({r}*z)^{n}", 1.0 / r), (f"z^{n}-{r}^{n}", r))
]


@pytest.mark.parametrize("text, radius, n", SUM_STRESS)
def test_sums_keep_every_root(text, radius, n):
    zeros = parse_expression(text).to_rational().zeros()
    assert [m for _, m in zeros] == [1] * n
    assert max(abs(abs(r) / radius - 1.0) for r, _ in zeros) < 1e-8


def test_equal_sees_the_zeros_of_a_tiny_summand():
    g = parse_expression("zbar^24*(1-(0.3*z)^24)").to_rational()
    h = parse_expression("zbar^24").to_rational()
    assert not equals(g, h)


@pytest.mark.parametrize(
    "text, value", [("(0.1*z+0.2)*3 - 0.3*z", 0.6), ("(z-1/3)*(z+1/3) - z^2", -1 / 9)]
)
def test_sum_cancelling_to_rounding_keeps_its_true_degree(text, value):
    r = parse_expression(text).to_rational()
    assert r.is_constant
    assert abs(r.constant_value() - value) < 1e-15


def _numpy_from_roots(roots, lead):
    # reference: the in-place numpy expansion, one (z - r) at a time
    flat = [r for r, m in roots for _ in range(m)]
    n = len(flat)
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    for k, r in enumerate(flat):
        c[n - k - 1 : n] -= r * c[n - k :]
    return c * lead


def _numpy_sum_numerator(f, g):
    # reference: the numpy form of the cancellation in RationalFunction.__add__
    pad, other_pad = tkern.rational._reduce(g._poles, f._poles)
    terms = [(f._gain, f._zeros + pad), (g._gain, g._zeros + other_pad)]
    n = max(sum(m for _, m in roots) for _, roots in terms) + 1
    num, scale = np.zeros(n, dtype=complex), np.zeros(n)
    for gain, roots in terms:
        c = _numpy_from_roots(roots, gain)
        num[: c.size] += c
        scale[: c.size] += _numpy_from_roots([(-abs(r), m) for r, m in roots], abs(gain)).real
    num[np.abs(num) <= tkern.rational.EPS_COEFF * scale] = 0.0
    return num, scale


def test_sum_cancellation_matches_the_numpy_reference(monkeypatch):
    # f + g for f of degree 1..48, with g unrelated or -f with its zeros
    # moved by 1e-11 or 1e-9 relative, so that many coefficients cancel;
    # the numerator handed to poly_roots has the reference's zero pattern
    # (worst coefficient difference seen: 1.02e-15 of the scale)
    rng = np.random.default_rng(1986)
    seen = []
    real_roots = tkern.rational.poly_roots
    monkeypatch.setattr(tkern.rational, "poly_roots", lambda p: seen.append(p) or real_roots(p))

    def roots(n):
        return (rng.uniform(0.3, 3.0, n) * np.exp(2j * np.pi * rng.random(n))).tolist()

    cancelled = 0
    for n in range(1, 49):
        gain = complex(np.exp(2j * np.pi * rng.random()))
        zeros, poles = roots(n), roots(int(rng.integers(0, 4)))
        f = RationalFunction._from_roots(gain, [(r, 1) for r in zeros], [(p, 1) for p in poles])
        unrelated = roots(int(rng.integers(1, n + 1)))
        others = [RationalFunction._from_roots(
            complex(rng.standard_normal(), 1.0), [(r, 1) for r in unrelated],
            [(p, 1) for p in poles[:1] + roots(1)])]
        for moved in (1e-11, 1e-9):
            shifts = moved * np.exp(2j * np.pi * rng.random(n))
            others.append(RationalFunction._from_roots(
                -gain, [(r * (1 + d), 1) for r, d in zip(zeros, shifts)], [(p, 1) for p in poles]))
        for g in others:
            seen.clear()
            f + g
            expected, scale = _numpy_sum_numerator(f, g)
            [num] = seen
            found = np.zeros(expected.size, dtype=complex)
            found[: num.degree + 1] = num.coeffs
            assert np.array_equal(found == 0, expected == 0), (n, found, expected)
            # each expansion is within n eps / 2 of its scale of the exact one
            assert np.all(np.abs(found - expected) <= n * np.finfo(float).eps * scale)
            cancelled += int(np.sum(expected[: num.degree + 1] == 0))
    assert cancelled >= 500


def test_arithmetic_on_the_zero_function_stays_zero():
    z = parse_expression("z").to_rational()
    zero = z - z
    assert zero.is_zero
    for value in (-zero, zero * z, z * zero, 0 * z, zero / z, zero**3):
        assert value.is_zero
    assert (zero**0).constant_value() == 1


def test_overflowing_expansion_raises_without_a_warning():
    # (z - 1e80)^4 has the constant term 1e320
    f = RationalFunction._from_roots(1.0, [(1e80, 4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            f.num


# (finite parts, modulus beyond double range) reaching each modulus taken
# of a gain or of a root
BEYOND_RANGE = {
    "gain": lambda: RationalFunction([1.3e308 + 1.3e308j]),
    "sum": lambda: RationalFunction._from_roots(1.0, [(1.3e308 + 1.3e308j, 1)]) + 1,
    "display": lambda: str(RationalFunction._from_roots(1.0, [(1.3e308 + 1.3e308j, 1)])),
    # the zero -1e-310 reflects to inf
    "reflected": lambda: RationalFunction([1e-300, 1e10, 1.0]).circle_conjugate(),
    # a root that is not a number
    "nan": lambda: RationalFunction._from_roots(1.0, [(2.0, 1), (complex(math.nan, 0.0), 1)]),
    # the root -1e300/1e-300 of a linear polynomial is inf
    "linear": lambda: poly_roots(ComplexPolynomial([1e300, 1e-300])),
}


@pytest.mark.parametrize("build", BEYOND_RANGE.values(), ids=BEYOND_RANGE.keys())
def test_modulus_beyond_double_range_is_out_of_range(build):
    with pytest.raises(OutOfRange):
        build()


def test_cancelled_sum_with_a_modulus_beyond_double_range_is_out_of_range(monkeypatch):
    # a finite rounding scale bounds each coefficient of a sum, so only a
    # scale that rounded low could leave a coefficient whose modulus is not
    # a double; a stand-in scale makes one
    monkeypatch.setattr(tkern.rational, "_rounding_scale", lambda terms: [1.0])
    with pytest.raises(OutOfRange):
        RationalFunction([1.3e308]) + RationalFunction([1.3e308j])


def test_repr_shows_the_factored_state_of_any_value():
    # num would overflow; repr must not need it
    f = RationalFunction._from_roots(2.0, [(1e80, 4)], [(0.5j, 1)])
    expected = "RationalFunction(gain=(2+0j), zeros=(((1e+80+0j), 4),), poles=((0.5j, 1),))"
    assert repr(f) == expected
    assert repr(as_symbol(f)) == f"ToeplitzSymbol({expected})"
    assert repr(RationalFunction(0)) == "RationalFunction(gain=0j, zeros=(), poles=())"


def test_zero_polynomial_has_no_roots():
    with pytest.raises(ZeroPolynomial):
        poly_roots(ComplexPolynomial([0.0]))


def test_roots_sorted_deterministically():
    p = ComplexPolynomial(npoly.polyfromroots([2.0, -1.0, 1j, -1j]))
    roots = [r for r, _ in poly_roots(p)]
    assert roots == sorted(roots, key=lambda r: (r.real, r.imag))


# -- reduction and normalization ------------------------------------------


def test_common_factor_cancels():
    num = ComplexPolynomial(npoly.polyfromroots([1.0, -1.0]))
    den = ComplexPolynomial(npoly.polyfromroots([1.0]))
    r = RationalFunction(num, den)
    assert r.den.degree == 0 and r.num.is_close(ComplexPolynomial([1, 1]))


def test_denominator_is_monic():
    r = RationalFunction([1.0], [2.0, 4.0])
    assert abs(r.den.lead - 1.0) < 1e-14
    assert abs(r(0.0) - 0.5) < 1e-14


def test_zbar_conjugate_ratio_reduces_to_clean_symbol():
    # (1/z) * conj(1-z)/(1-z) collapses to -1/z^2 after boundary cancellation
    p = RationalFunction([1, -1])
    v = monomial(-1) * p.circle_conjugate() / p
    assert v.is_close(-1 * monomial(-2))


def test_shared_z_powers_strip_exactly():
    r = RationalFunction([0, 0, 1.0], [0, 2.0])
    assert r.is_close(RationalFunction([0, 0.5]))


# -- circle conjugation -----------------------------------------------------


def test_conjugate_of_z_is_reciprocal():
    assert monomial(1).circle_conjugate().is_close(monomial(-1))


def test_conjugate_of_affine():
    # sampled oracle: value must equal conj(r(z)) on the circle
    r = RationalFunction([1, 0.5])
    cc = r.circle_conjugate()
    assert cc.is_close(RationalFunction([0.5, 1], [0, 1]))
    z = circle(64)
    assert np.max(np.abs(cc(z) - np.conj(r(z)))) < 1e-12


def test_conjugate_of_constant():
    assert RationalFunction([1j]).circle_conjugate().is_close(RationalFunction([-1j]))


def test_conjugation_is_involution(rng):
    for _ in range(25):
        r = random_rational(rng, 1, 1, 1, 1)
        back = r.circle_conjugate().circle_conjugate()
        assert back.num.is_close(r.num, 1e-12) and back.den.is_close(r.den, 1e-12)


def test_conjugation_matches_pointwise_conjugate(rng):
    z = circle(64)
    for _ in range(25):
        r = random_rational(rng, 2, 1, 0, 2)
        vals = r(z)
        assert np.max(np.abs(r.circle_conjugate()(z) - np.conj(vals))) <= 1e-10 * (
            1.0 + np.max(np.abs(vals))
        )


# -- winding numbers ---------------------------------------------------------


def test_winding_of_monomial():
    assert winding_number(monomial(-2)) == -2


def test_winding_of_blaschke_factor_with_quadrature():
    s = as_symbol(RationalFunction([0.5, 1], [1, 0.5]))
    assert s.winding == 1
    assert winding_by_quadrature(s, 1024) == 1


def test_winding_mixed_symbol_with_quadrature():
    s = as_symbol(RationalFunction([1, 2], [0, 0, 0, 0, 2, 1]))
    assert s.winding == -3
    assert winding_by_quadrature(s, 1024) == -3


def test_winding_undefined_on_circle_zero():
    with pytest.raises(NotInvertibleOnCircle):
        winding_number(RationalFunction([1, -1]))


def test_symbol_keeps_its_winding_and_refuses_a_circle_root_on_every_call(monkeypatch):
    # zero -0.5 inside, double pole at 0: winding -1. It is kept after the
    # first read, as a winding of 0 is, so a later read classifies nothing
    s, flat = as_symbol(RationalFunction([0.5, 1], [0, 0, 1])), as_symbol(monomial(0))
    assert (s._winding, flat._winding) == (None, None)
    assert (s.winding, flat.winding) == (-1, 0)
    monkeypatch.setattr(RationalFunction, "zero_classification", lambda self: pytest.fail("read"))
    assert (s.winding, flat.winding) == (-1, 0)
    monkeypatch.undo()
    on_circle = as_symbol(RationalFunction([1, -1]))
    for _ in range(2):
        with pytest.raises(NotInvertibleOnCircle):
            on_circle.winding
        assert on_circle._winding is None


def test_winding_additive_under_products(rng):
    for _ in range(100):
        s1 = random_symbol(rng, 2)
        s2 = random_symbol(rng, 2)
        assert as_symbol(s1.value * s2.value).winding == s1.winding + s2.winding


def test_winding_negates_under_conjugation(rng):
    for _ in range(40):
        s = random_symbol(rng, 2)
        assert as_symbol(s.value.circle_conjugate()).winding == -s.winding


def test_quadrature_agrees_with_combinatorial_winding(rng):
    for _ in range(40):
        s = random_symbol(rng, 2)
        assert winding_by_quadrature(s) == s.winding


# -- classification band -----------------------------------------------------


def test_root_near_band_boundary_warns():
    r = RationalFunction([-(1.0 + 1e-7), 1.0])
    with pytest.warns(ClassificationWarning):
        r.zero_classification()


def test_root_inside_band_counts_as_circle_zero():
    r = RationalFunction([-(1.0 + 1e-12), 1.0])
    assert not as_symbol(r).circle_invertible


def test_root_far_from_band_is_silent(recwarn):
    RationalFunction([-1.5, 1.0]).zero_classification()
    assert not [w for w in recwarn.list if issubclass(w.category, ClassificationWarning)]


def test_value_keeps_its_classifications_of_its_own_pairs():
    f = RationalFunction._from_roots(2.0, [(0.5, 2), (1.0, 1), (3j, 1)], [(-0.25j, 1), (4.0, 3)])
    for classify, roots in ((f.zero_classification, f._zeros), (f.pole_classification, f._poles)):
        kept = classify()
        assert classify() is kept
        pairs = kept.inside + kept.on_circle + kept.outside
        assert len(pairs) == len(roots)
        assert all(any(pair is root for root in roots) for pair in pairs)


def test_near_band_root_warns_on_the_first_classification_only():
    r = RationalFunction([-(1.0 + 1e-7), 1.0])
    with pytest.warns(ClassificationWarning):
        r.zero_classification()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r.zero_classification()
        assert as_symbol(r).winding == 0


# -- arithmetic is an evaluation homomorphism ---------------------------------


def test_arithmetic_matches_pointwise_values(rng):
    z = 0.9 * circle(32) + 0.05  # keep away from sampled poles
    for _ in range(25):
        r1 = random_rational(rng, 1, 1, 1, 1)
        r2 = random_rational(rng, 1, 0, 0, 1)
        v1, v2 = r1(z), r2(z)
        scale = 1.0 + np.max(np.abs(v1)) + np.max(np.abs(v2))
        assert np.max(np.abs((r1 + r2)(z) - (v1 + v2))) < 1e-9 * scale
        assert np.max(np.abs((r1 - r2)(z) - (v1 - v2))) < 1e-9 * scale
        prod_scale = 1.0 + np.max(np.abs(v1 * v2))
        assert np.max(np.abs((r1 * r2)(z) - v1 * v2)) < 1e-9 * prod_scale
        quot = (r1 / r2)(z)
        quot_scale = 1.0 + np.max(np.abs(v1 / v2))
        assert np.max(np.abs(quot - v1 / v2)) < 1e-9 * quot_scale


def test_powers_match_repeated_products(rng):
    z = 0.7 * circle(16) + 0.1
    r = random_rational(rng, 1, 1, 0, 1)
    assert np.max(np.abs((r**3)(z) - r(z) ** 3)) < 1e-9 * (1 + np.max(np.abs(r(z)) ** 3))
    assert np.max(np.abs((r**-2)(z) - r(z) ** -2.0)) < 1e-9 * (
        1 + np.max(np.abs(r(z) ** -2.0))
    )
    assert (r**0).is_close(RationalFunction([1.0]))


@pytest.mark.parametrize("n", [2, 2.0, np.int64(2), np.int32(-3), -3.0, True])
def test_integer_valued_exponents_are_taken(n):
    z = RationalFunction([0, 1])
    assert repr(monomial(n)) == repr(monomial(int(n)))
    assert repr(z**n) == repr(z ** int(n)) == repr(monomial(int(n)))


@pytest.mark.parametrize(("call", "name"), [
    (lambda: monomial(2.5), "k"),
    (lambda: monomial(np.float64(-0.5)), "k"),
    (lambda: monomial(math.nan), "k"),
    (lambda: RationalFunction([0, 1]) ** 2.7, "n"),
    (lambda: RationalFunction([1, 1]) ** -1.5, "n"),
    (lambda: RationalFunction([1, 1]) ** math.inf, "n"),
])
def test_a_non_integer_exponent_is_refused(call, name):
    # refused, not truncated: monomial(2.5) is not z^2
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        call()


def test_a_value_built_from_roots_solves_nothing(monkeypatch):
    # from_roots keeps its roots, and a copy keeps them; coefficient input
    # is solved, one poly_roots call per polynomial
    num = ComplexPolynomial.from_roots([0.3, (2.5j, 2), (0, 3)], 1.5 - 0.5j)
    den = ComplexPolynomial.from_roots([(-3.0, 1), 0.2 + 0.1j])
    calls, solve = [], tkern.rational.poly_roots
    monkeypatch.setattr(tkern.rational, "poly_roots", lambda p: calls.append(p) or solve(p))
    built = RationalFunction(num, den)
    copied = RationalFunction(ComplexPolynomial(num), ComplexPolynomial(den))
    assert calls == []
    solved = RationalFunction(ComplexPolynomial(list(num._coeffs)), ComplexPolynomial(list(den._coeffs)))
    assert len(calls) == 2
    assert ComplexPolynomial(list(num._coeffs))._roots is None
    assert copied.zeros() == built.zeros() and copied.poles() == built.poles()
    assert solved.is_close(built)


@pytest.mark.parametrize("roots", [[(2, 12)], [2] * 12, [(2.0, 5), (2, 7)]])
def test_a_multiple_root_built_from_roots_stays_one_root(roots):
    # (z - 2)^12 holds one 12-fold zero; solving its coefficients splits it
    f = RationalFunction(ComplexPolynomial.from_roots(roots))
    assert f.zeros() == [(2 + 0j, 12)] and f.poles() == []
    assert ComplexPolynomial.from_roots(roots)._coeffs == ComplexPolynomial.from_roots([(2, 12)])._coeffs


def test_the_triple_root_of_a_product_built_from_roots_is_kept():
    # (z - 1)^2 (z^32 - 1): the root 1 of z^32 - 1 meets the double root
    unity = [cmath.exp(2j * math.pi * k / 32) for k in range(32)]
    f = RationalFunction(ComplexPolynomial.from_roots([(1, 2), *unity]))
    assert (1 + 0j, 3) in f.zeros()
    assert sum(m for _, m in f.zeros()) == 34 and all(m == 1 for r, m in f.zeros() if r != 1)


# the workloads' radii, (inside, outside): safe, and near the circle (defect c)
RADII = {"safe": ((0.1, 0.45), (2.6, 4.0)), "near": ((0.5, 0.9), (1.1, 2.0))}
FROM_ROOTS_STRATA = ["safe", "near", "chain", "repeat", "origin"]


def _from_roots_case(rng, stratum):
    """(lead, zeros, poles), as (root, multiplicity) pairs: up to two roots
    inside and two outside of each kind, and the stratum's extra roots."""
    inside, outside = RADII.get(stratum, RADII["safe"])

    def point(radii):
        return complex(rng.uniform(*radii) * cmath.exp(2j * math.pi * rng.random()))

    def pairs():
        return [(point(radii), int(rng.integers(1, 3)))
                for radii in (inside, outside) for _ in range(rng.integers(0, 3))]

    zeros, poles = pairs(), pairs()
    if stratum == "chain":
        # links shorter than EPS_ROOT spanning more than it, and a pole that
        # cancels against the chain
        r, step = point(inside), 0.6 * tkern.rational.EPS_ROOT
        zeros += [(r + k * step, 1) for k in range(4)]
        poles += [(r + (1.5 + 0.5j) * step, 2)]
    elif stratum == "repeat":
        # one value as separate entries: among the zeros, among the poles,
        # and on both sides of the quotient
        r, s = point(inside), point(outside)
        zeros += [(r, 1), (r, 2), (s, 1)]
        poles += [(s, 1), (s, 2), (r, 1)]
    elif stratum == "origin":
        zeros += [(0j, int(rng.integers(1, 4))), (complex(-0.0, 0.0), 1)]
        poles += [(0j, int(rng.integers(1, 6)))]
    lead = complex(rng.uniform(0.5, 2.0) * cmath.exp(2j * math.pi * rng.random()))
    return lead, zeros, poles


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("stratum", FROM_ROOTS_STRATA)
def test_from_roots_input_holds_the_state_of_the_factored_form(stratum, seed):
    rng = np.random.default_rng([seed, FROM_ROOTS_STRATA.index(stratum)])
    for _ in range(200):
        lead, zeros, poles = _from_roots_case(rng, stratum)
        num, den = ComplexPolynomial.from_roots(zeros, lead), ComplexPolynomial.from_roots(poles)
        got = RationalFunction(num, den)
        want = RationalFunction._from_roots(lead, zeros, poles)
        assert (got._gain, got._zeros, got._poles) == (want._gain, want._zeros, want._poles)


def test_products_and_factorizations_find_no_roots(monkeypatch):
    # zeros and poles are the source of truth: once values exist, only
    # coefficient input and sums may call the root finder
    f = RationalFunction([0.5, -2.0, 1.0], [3.0, 1.0])
    g = RationalFunction([1.0, 0.4], [-4.0, 1.0])
    s = as_symbol(RationalFunction([1, 2], [0, 0, 0, 0, 2, 1]))
    theta = BlaschkeProduct(1j, [(0.3, 2), (-0.2j, 1)])
    line_f = HalfPlaneRational(RationalFunction([0.5, 1.0]) * RationalFunction(1.0, [1j, 1.0]) ** 2)
    line_g = HalfPlaneRational(RationalFunction([-1j, 1.0], [1j, 1.0]) ** 2)

    def refuse(p):
        raise AssertionError("root finding after construction")

    monkeypatch.setattr(tkern.rational, "poly_roots", refuse)
    z = 0.8 * circle(16)
    fz, gz = f(z), g(z)
    assert np.allclose((f * g)(z), fz * gz)
    assert np.allclose((f / g)(z), fz / gz)
    assert np.allclose((f**3)(z), fz**3)
    assert np.allclose((g**-2)(z), gz**-2.0)
    assert np.allclose(f.circle_conjugate()(circle(16)), np.conj(f(circle(16))))
    assert np.allclose(monomial(-3)(z), z**-3.0)
    blaschke = 1j * ((z - 0.3) / (1 - 0.3 * z)) ** 2 * (z + 0.2j) / (1 - 0.2j * z)
    assert np.allclose(theta.to_rational()(z), blaschke)
    io = inner_outer(f)
    assert io.inner.degree == 1 and np.allclose((io.inner.to_rational() * io.outer)(z), fz)
    wh = wiener_hopf(s)
    assert wh.index == -3 and np.allclose((wh.minus * monomial(-3) / wh.plus)(z), s.value(z))
    K = kernel(s)
    assert K.dimension == 3 and all(in_kernel(b, s) for b in K.basis)
    cz = 1j * (1 - z) / (1 + z)
    weighted = 2 * np.sqrt(np.pi) / (1 + z) * line_f.value(cz)
    assert np.allclose(cayley_function(line_f)(z), weighted)
    assert np.allclose(cayley_symbol(line_g).value(z), line_g.value(cz))
    assert np.allclose(transfer_multiplier(line_f)(z), line_f.value(cz))
    x = np.linspace(-3.0, 3.0, 7)
    assert np.allclose(inverse_cayley_symbol(cayley_symbol(line_g)).value(x), line_g.value(x))
    assert np.allclose(line_f.conjugate_on_line().value(x), np.conj(line_f.value(x)))


def test_division_by_zero_function_rejected():
    with pytest.raises(Exception) as err:
        RationalFunction([1.0]) / RationalFunction([0.0])
    assert "zero" in str(err.value)


# -- series ------------------------------------------------------------------


def test_taylor_coefficients_of_geometric_series():
    r = RationalFunction([1.0], [1.0, -0.5])
    assert np.max(np.abs(r.taylor(10) - 0.5 ** np.arange(11))) < 1e-13


def test_taylor_expands_around_small_poles():
    # (z - 1e-5)^3 has a constant term of -1e-15, far below 1e-12 of its
    # other coefficients, but no root at the origin
    c = RationalFunction._from_roots(1.0, [], [(1e-5, 3)]).taylor(3)
    assert np.allclose(c, [-1e15, -3e20, -6e25, -1e31], rtol=1e-12, atol=0)
    with pytest.raises(ZeroDenominator):
        monomial(-1).taylor(3)


def _numpy_taylor(r, n):
    # reference: the numpy recurrence, one np.dot per coefficient
    b = r.den.coeffs
    a = np.zeros(n + 1, dtype=complex)
    take = min(n + 1, r.num.coeffs.size)
    a[:take] = r.num.coeffs[:take]
    c = np.zeros(n + 1, dtype=complex)
    for k in range(n + 1):
        acc = a[k]
        jmax = min(k, b.size - 1)
        if jmax >= 1:
            acc = acc - np.dot(b[1 : jmax + 1], c[k - 1 :: -1][:jmax])
        c[k] = acc / b[0]
    return c


def test_taylor_matches_the_numpy_recurrence():
    rng = np.random.default_rng(1987)
    for trial in range(60):
        zeros = rng.uniform(0.2, 3.0, trial % 9) * np.exp(2j * np.pi * rng.random(trial % 9))
        poles = rng.uniform(1.2, 3.0, trial % 7) * np.exp(2j * np.pi * rng.random(trial % 7))
        r = RationalFunction._from_roots(
            complex(rng.standard_normal(), rng.standard_normal()),
            [(complex(a), 1) for a in zeros], [(complex(b), 1) for b in poles])
        for n in (0, 3, 40):
            c = r.taylor(n)
            expected = _numpy_taylor(r, n)
            assert isinstance(c, np.ndarray) and c.shape == (n + 1,)
            assert np.all(np.abs(c - expected) <= 1e-13 * np.max(np.abs(expected)))


def _recurrence_taylor(r, n):
    # reference: the recurrence den * series = num in Python complex
    # arithmetic, one coefficient per step
    a, b = r.num._coeffs, r.den._coeffs
    c = []
    for k in range(n + 1):
        acc = a[k] if k < len(a) else 0j
        jmax = min(k, len(b) - 1)
        if jmax >= 1:
            acc = acc - sum(x * y for x, y in zip(b[1 : jmax + 1], c[k - 1 :: -1]))
        c.append(acc / b[0])
    return np.array(c, dtype=complex)


def _multiple_pole_corpus(seed):
    # one pole of multiplicity 2-6 inside or outside the disc, a simple pole
    # outside in every third case, numerators of degree 0-3, complex gains
    rng = np.random.default_rng(seed)
    for trial in range(60):
        m = 2 + trial % 5
        lo, hi = (0.5, 0.95) if trial % 2 else (1.1, 3.0)
        poles = [(complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.random())), m)]
        if trial % 3 == 0:
            poles.append((complex(rng.uniform(1.1, 3.0) * np.exp(2j * np.pi * rng.random())), 1))
        zeros = rng.uniform(0.2, 3.0, trial % 4) * np.exp(2j * np.pi * rng.random(trial % 4))
        gain = complex(rng.standard_normal(), rng.standard_normal())
        yield RationalFunction._from_roots(gain, [(complex(a), 1) for a in zeros], poles)


@pytest.mark.parametrize("seed", [42, 7])
def test_taylor_matches_the_recurrence_on_multiple_poles(seed):
    # the recurrence divides by the expanded denominator, whose rounded
    # coefficients perturb a multiple pole: at multiplicity 6 inside the
    # disc and degree 200 it is good to about 1e-6 of the largest
    # coefficient, at multiplicity 2 outside to about 1e-15
    for r in _multiple_pole_corpus(seed):
        for n in (0, 1, 7, 60, 200):
            c = r.taylor(n)
            expected = _recurrence_taylor(r, n)
            assert c.shape == (n + 1,) and c.dtype == complex
            assert np.all(np.abs(c - expected) <= 1e-5 * np.max(np.abs(expected)))
            if n <= 7:
                assert np.all(np.abs(c - expected) <= 1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("inside", [False, True])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_taylor_of_a_multiple_pole_is_its_binomial_series(m, inside):
    # g / (z - p)^m = g (-q)^m sum C(k+m-1, m-1) q^k z^k with q = 1/p, each
    # coefficient to within 1e-12 of itself up to degree 200
    rng = np.random.default_rng(100 * m + inside)
    for _ in range(5):
        radius = rng.uniform(0.5, 0.95) if inside else rng.uniform(1.1, 3.0)
        p = complex(radius * np.exp(2j * np.pi * rng.random()))
        gain = complex(rng.standard_normal(), rng.standard_normal())
        c = RationalFunction._from_roots(gain, [], [(p, m)]).taylor(200)
        q = 1 / p
        expected = np.array([gain * (-q) ** m * math.comb(k + m - 1, m - 1) * q**k
                             for k in range(201)])
        assert np.all(np.abs(c - expected) <= 1e-12 * np.abs(expected))


def test_taylor_of_a_polynomial_is_its_coefficients():
    p = RationalFunction([1, 2j, 3])
    assert np.array_equal(p.taylor(1), [1, 2j])
    assert np.array_equal(p.taylor(4), [1, 2j, 3, 0, 0])
    assert np.array_equal(RationalFunction([0.0]).taylor(2), [0, 0, 0])


@pytest.mark.parametrize("pole", [1e-5, 1e-5 * cmath.exp(0.3j), 3e-4j])
def test_an_overflowing_taylor_expansion_holds_non_finite_values_without_warning(pole):
    # 1/(z - pole)^3 passes 1e308 between degrees 58 and 84; from there on
    # the recurrence holds inf and nan, with no warning, and so does the
    # pole series
    r = RationalFunction._from_roots(2.0 - 1j, [(0.5, 1)], [(pole, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = r.taylor(200)
    expected = _recurrence_taylor(r, 200)
    assert c.shape == (201,)
    assert np.array_equal(np.isfinite(c), np.isfinite(expected))
    assert not np.all(np.isfinite(c))
    finite = np.isfinite(expected)
    assert np.all(np.abs(c[finite] - expected[finite]) <= 1e-11 * np.abs(expected[finite]))


# -- refusals across the package ---------------------------------------------


def _unequal_caps():
    from tkern import principal_angle, subspace_from_rationals

    return principal_angle(subspace_from_rationals([monomial(0)], 4),
                           subspace_from_rationals([monomial(0)], 8))


_POLE_INSIDE = RationalFunction._from_roots(1.0, [], [(0.5, 1)])
# BlaschkeProduct refuses the zero 0.99999999 as a parameter, so the value
# is no Blaschke product it can build
_ZERO_IN_THE_BAND = RationalFunction._from_roots(1.0, [(0.99999999, 1)])

# each public refusal, and the branch for the zero function, with what it
# raises or returns
REFUSALS = {
    "maximal_vector of a trivial kernel": (lambda: kernel(monomial(1)).maximal_vector(),
                                           tkern.ZeroFunction),
    "minimal_kernel of 0": (lambda: tkern.minimal_kernel(0), tkern.ZeroFunction),
    "minimal_kernel of a pole inside": (lambda: tkern.minimal_kernel(_POLE_INSIDE),
                                        tkern.NotInHardySpace),
    "is_rigid of 0": (lambda: tkern.is_rigid(0), tkern.ZeroFunction),
    "is_rigid of a pole inside": (lambda: tkern.is_rigid(_POLE_INSIDE), tkern.NotInHardySpace),
    "image_kernel of w = 0": (lambda: tkern.image_kernel(0, monomial(-2)), tkern.ZeroFunction),
    "is_surjective_multiplier of w = 0": (
        lambda: tkern.is_surjective_multiplier(0, monomial(-1), monomial(-2)), tkern.ZeroFunction),
    "crofoot_companion of w = 0": (
        lambda: tkern.crofoot_companion(BlaschkeProduct(1.0, [0.5]), 0), tkern.ZeroFunction),
    "blaschke_from_rational of 0": (lambda: tkern.blaschke_from_rational(0), None),
    "blaschke_from_rational of a zero in the band": (
        lambda: tkern.blaschke_from_rational(_ZERO_IN_THE_BAND), None),
    "BlaschkeProduct(2.0)": (lambda: BlaschkeProduct(2.0), ValueError),
    "fourier_coefficients of 0": (
        lambda: tkern.fourier_coefficients(RationalFunction(0.0), 3).tolist(), [0j] * 7),
    "principal_angle with unequal caps": (_unequal_caps, ValueError),
    "lead of the zero polynomial": (lambda: ComplexPolynomial().lead, ZeroPolynomial),
    "zero denominator": (lambda: RationalFunction([1], [0]), ZeroDenominator),
    "constant_value of z": (lambda: monomial(1).constant_value(), ValueError),
    "ToeplitzSymbol(0)": (lambda: tkern.ToeplitzSymbol(0), tkern.ZeroFunction),
    "an infinite coefficient": (lambda: ComplexPolynomial([1, math.inf]), ValueError),
    "the variable w": (lambda: parse_expression("z", variable="w"), ValueError),
}


@pytest.mark.parametrize("call, outcome", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_across_the_package(call, outcome):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClassificationWarning)  # the zero in the band
        if not isinstance(outcome, type):
            assert call() == outcome
            return
        with pytest.raises(Exception) as info:
            call()
    assert type(info.value) is outcome

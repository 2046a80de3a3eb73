"""Kernels: bases, minimal kernels, maximality, inclusion, equivalence."""

import time

import numpy as np
import pytest

import tkern.rational
from tkern import (
    BlaschkeProduct,
    NotInKernel,
    NotInvertibleOnCircle,
    NotOuter,
    PreconditionViolation,
    RationalFunction,
    ZeroFunction,
    as_symbol,
    circle_conjugate,
    dim_from_factorization,
    equals,
    fourier_coefficients,
    in_kernel,
    includes,
    is_equivalent,
    is_maximal,
    is_rigid,
    kernel,
    minimal_kernel,
    monomial,
    principal_angle,
    subspace_from_rationals,
    wiener_hopf,
)
from tkern.oracle import gram_matrix
from tkern.random_instances import (
    random_blaschke,
    random_kernel_symbol,
    random_outer,
    random_symbol,
)

from conftest import circle


# -- kernel -------------------------------------------------------------------


def test_two_dimensional_model_space():
    K = kernel(monomial(-2))
    assert K.dimension == 2
    assert K.basis[0].is_close(RationalFunction([1.0]))
    assert K.basis[1].is_close(monomial(1))


def test_mixed_symbol_kernel_with_fft_membership():
    s = as_symbol(RationalFunction([1, 2], [0, 0, 0, 0, 2, 1]))
    K = kernel(s)
    assert K.dimension == 3
    ladder = RationalFunction([1, 0.5])
    for j, b in enumerate(K.basis):
        assert b.is_close(ladder * monomial(j))
        coeffs = fourier_coefficients(s.value * b, 12)
        assert np.max(np.abs(coeffs[12:])) < 1e-8  # nonnegative indices vanish


def test_analytic_symbol_has_trivial_kernel():
    assert kernel(monomial(2)).dimension == 0
    assert kernel(RationalFunction([2.0])).dimension == 0


def test_dimension_equals_negative_winding(rng):
    for _ in range(60):
        s = random_symbol(rng, 2)
        assert kernel(s).dimension == max(0, -s.winding)


def test_kernel_invariant_under_scalar_symbol_change(rng):
    for _ in range(10):
        s = random_kernel_symbol(rng)
        K1, K2 = kernel(s), kernel(as_symbol((2.5 - 1j) * s.value))
        assert K1.dimension == K2.dimension
        a = subspace_from_rationals(K1.basis, 40)
        b = subspace_from_rationals(K2.basis, 40)
        assert principal_angle(a, b) < 1e-8


def test_basis_linearly_independent(rng):
    for _ in range(10):
        K = kernel(random_kernel_symbol(rng))
        G = gram_matrix(K.basis, 512)
        dets = np.linalg.det(G)
        assert abs(dets) > 1e-10


def test_every_nontrivial_kernel_contains_an_outer_function(rng):
    for _ in range(20):
        K = kernel(random_kernel_symbol(rng))
        assert K.basis[0].is_outer()


def test_membership_oracle_all_bases(rng):
    for _ in range(15):
        s = random_kernel_symbol(rng)
        K = kernel(s)
        d = 2 * max(s.value.num.degree, s.value.den.degree) + K.dimension
        for b in K.basis:
            assert in_kernel(b, s)
            coeffs = fourier_coefficients(s.value * b, 2 * d + 1)
            assert np.max(np.abs(coeffs[2 * d + 1 :])) < 1e-8


def test_kernel_requires_circle_invertibility():
    with pytest.raises(NotInvertibleOnCircle):
        kernel(RationalFunction([1, -1]))


# -- minimal kernels -----------------------------------------------------------


def _least_squares_residual(k, basis, cap=40):
    target = k.taylor(cap)
    A = np.stack([b.taylor(cap) for b in basis], axis=1)
    _, res, _, _ = np.linalg.lstsq(A, target, rcond=None)
    fitted = A @ np.linalg.lstsq(A, target, rcond=None)[0]
    return float(np.max(np.abs(fitted - target)))


def test_minimal_kernel_of_constants():
    v, K = minimal_kernel(RationalFunction([1.0]))
    assert v.value.is_close(monomial(-1))
    assert K.dimension == 1


def test_minimal_kernel_of_z():
    v, K = minimal_kernel(monomial(1))
    assert v.value.is_close(monomial(-2))
    assert K.dimension == 2
    assert _least_squares_residual(monomial(1), K.basis) < 1e-8


def test_circle_zero_inflates_minimal_kernel():
    v, K = minimal_kernel(RationalFunction([1, -1]))
    assert v.value.is_close(-1 * monomial(-2))
    assert K.dimension == 2


def test_minimal_kernel_contains_its_vector(rng):
    for _ in range(15):
        zi = int(rng.integers(0, 2))
        k = RationalFunction(
            np.polynomial.polynomial.polyfromroots(
                list(0.4 * np.exp(2j * np.pi * rng.random(zi)))
                + list((1.7 + rng.random(2)) * np.exp(2j * np.pi * rng.random(2)))
            )
        )
        v, K = minimal_kernel(k)
        assert in_kernel(k, v)
        assert _least_squares_residual(k, K.basis) < 1e-8


def test_minimal_kernel_is_minimal_among_containing_kernels(rng):
    # any kernel of h = g * conj(outer) containing k also contains Kmin(k)
    for _ in range(15):
        g = random_kernel_symbol(rng)
        K = kernel(g)
        k = K.basis[int(rng.integers(0, K.dimension))]
        h = as_symbol(g.value * random_outer(rng, 1, 1).circle_conjugate())
        assert in_kernel(k, h)
        v, _ = minimal_kernel(k)
        assert includes(v, h)


# -- maximal vectors -----------------------------------------------------------


def test_affine_maximal_vectors_of_z2_lattice():
    s = as_symbol(monomial(-2))
    assert is_maximal(RationalFunction([0.5, 1.0]), s).is_maximal
    assert is_maximal(RationalFunction([0.5, -0.5]), s).is_maximal
    assert not is_maximal(RationalFunction([1.0, 0.5]), s).is_maximal
    assert is_maximal(RationalFunction([0.0, 1.0]), s).is_maximal


def test_backward_shift_of_blaschke_product_is_maximal(rng):
    for deg in (1, 2, 3):
        theta = random_blaschke(rng, deg).to_rational()
        sstar = (theta - theta(0.0)) / monomial(1)
        cert = is_maximal(sstar, as_symbol(theta.circle_conjugate()))
        assert cert.is_maximal


def _spread_zeros(n, seed=5):
    radii = np.linspace(0.1, 0.45, n)
    angles = 2 * np.pi * np.random.default_rng(seed).random(n)
    return [(complex(a), 1) for a in radii * np.exp(1j * angles)]


@pytest.mark.parametrize(
    "zeros",
    [[(0.5, 8)], [(0.5, 16)], [(0.5, 32)], _spread_zeros(24)],
    ids=["B(0.5)^8", "B(0.5)^16", "B(0.5)^32", "24-distinct-zeros"],
)
def test_high_degree_model_space(zeros):
    # conj(theta) has the model space of theta as its kernel: a multiple
    # root must not split into a ring of simple ones, and tiny coefficients
    # must not be trimmed away
    theta = BlaschkeProduct(1.0, zeros)
    s = as_symbol(theta.to_rational().circle_conjugate())
    K = kernel(s)
    assert K.dimension == theta.degree
    assert all(in_kernel(b, s) for b in K.basis)
    assert is_maximal(K.maximal_vector(), s).is_maximal


def test_192_distinct_zeros_model_space_stays_fast():
    # root matching must not grow quadratically in the number of roots
    start = time.perf_counter()
    theta = BlaschkeProduct(1.0, _spread_zeros(192))
    s = as_symbol(theta.to_rational().circle_conjugate())
    K = kernel(s)
    assert K.dimension == 192
    assert all(in_kernel(b, s) for b in K.basis)
    assert is_maximal(K.maximal_vector(), s).is_maximal
    assert time.perf_counter() - start < 5.0


def test_kernel_and_membership_reduce_each_product_once(monkeypatch):
    calls = []
    reduce = tkern.rational._reduce

    def counted(zeros, poles):
        calls.append(1)
        return reduce(zeros, poles)

    g = as_symbol(RationalFunction([1, 2], [0, 0, 0, 0, 2, 1]))  # winding -3
    wh = wiener_hopf(g)
    expected = g.value * wh.plus * monomial(3)
    assert np.array_equal(wh.minus.num.coeffs, expected.num.coeffs)
    assert np.array_equal(wh.minus.den.coeffs, expected.den.coeffs)

    monkeypatch.setattr(tkern.rational, "_reduce", counted)
    K = kernel(g)
    assert K.dimension == 3
    assert len(calls) == 3  # plus, then plus * z and plus * z^2
    for b in K.basis:
        calls.clear()
        assert in_kernel(b, g)
        assert len(calls) == 3  # z * g, then * b, then the circle conjugate


def test_reproducing_kernel_is_not_maximal():
    cert = is_maximal(RationalFunction([1.0, 0.5]), monomial(-2))
    assert not cert.is_maximal
    assert cert.failure_witness is not None
    assert abs(cert.failure_witness - (-0.5)) < 1e-12
    assert cert.certificate.is_close(RationalFunction([0.5, 1.0]))


def test_maximality_matches_minimal_kernel_equality(rng):
    for _ in range(20):
        g = random_kernel_symbol(rng)
        K = kernel(g)
        coeffs = rng.standard_normal(K.dimension) + 1j * rng.standard_normal(K.dimension)
        k = sum((c * b for c, b in zip(coeffs, K.basis)), RationalFunction(0.0))
        cert = is_maximal(k, g)
        v, _ = minimal_kernel(k)
        assert cert.is_maximal == equals(v, g)


def test_vector_outside_kernel_rejected():
    with pytest.raises(NotInKernel):
        is_maximal(monomial(2), monomial(-2))
    with pytest.raises(ZeroFunction):
        is_maximal(RationalFunction(0.0), monomial(-2))


def test_vector_with_a_pole_in_the_disc_is_not_in_the_kernel():
    # circle_conjugate(z * zbar^2 * k) = z^2/(1 - 0.5 z) is in the Hardy
    # space, but k = 1/(z - 0.5) is not
    k = RationalFunction([1.0], [-0.5, 1.0])
    with pytest.raises(NotInKernel):
        is_maximal(k, monomial(-2))


# -- inclusion, equality, equivalence -------------------------------------------


def test_model_space_chain_inclusion():
    assert includes(monomial(-1), monomial(-2))
    assert not includes(monomial(-2), monomial(-1))


def test_divisor_blaschke_inclusion():
    b = RationalFunction([-0.5, 1], [1, -0.5])
    theta = monomial(1) * b
    assert includes(circle_conjugate(monomial(1)), circle_conjugate(theta))


def test_includes_reflexive_and_transitive(rng):
    for _ in range(25):
        g = random_kernel_symbol(rng)
        assert includes(g, g)
        h = as_symbol(g.value * random_outer(rng, 1, 0).circle_conjugate())
        l = as_symbol(h.value * random_outer(rng, 0, 1).circle_conjugate())
        assert includes(g, h) and includes(h, l)
        assert includes(g, l)


def test_equal_kernels_under_conjugate_outer_twist():
    g = as_symbol(monomial(-2))
    p = RationalFunction([1, 1 / 3])
    assert equals(g, as_symbol(g.value * p.circle_conjugate()))
    q = RationalFunction([1.0], [1.0, 0.25])
    assert equals(g, as_symbol(g.value * p.circle_conjugate() / q.circle_conjugate()))


def test_analytic_outer_twist_moves_the_kernel():
    # multiplying the symbol by conj(p)/p transports the kernel to p*K,
    # so equality fails even though dimensions agree
    g = as_symbol(monomial(-2))
    p = RationalFunction([1, 1 / 3])
    h = as_symbol(g.value * p.circle_conjugate() / p)
    assert kernel(h).dimension == 2
    assert not equals(g, h)
    assert not in_kernel(RationalFunction([1.0]), h)
    assert in_kernel(p, h)


def test_different_dimensions_not_equal():
    assert not equals(monomial(-2), monomial(-3))


def test_model_space_symbol_recognized_up_to_coanalytic_unit():
    theta = monomial(1)
    h_minus = RationalFunction([1, 2], [0, 2])  # 1 + 1/(2z)
    g = as_symbol(circle_conjugate(theta))
    assert equals(g, as_symbol(g.value * h_minus))


def test_equivalence_witness_for_blaschke_vs_monomial():
    b = RationalFunction([-0.5, 1], [1, -0.5])
    g1 = as_symbol(circle_conjugate(monomial(1) * b))
    w = is_equivalent(g1, monomial(-2))
    assert w is not None
    z = circle(64)
    lhs, rhs = g1.value(z), w.reconstruct(monomial(-2))(z)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1.0 + np.max(np.abs(lhs)))
    assert w.h_plus.is_invertible_analytic()
    assert (1 / w.h_plus).is_invertible_analytic()
    assert w.h_minus.is_invertible_coanalytic()


def test_winding_obstruction_blocks_equivalence():
    assert is_equivalent(monomial(-1), monomial(-2)) is None


def test_equivalence_reflexive(rng):
    g = random_kernel_symbol(rng)
    w = is_equivalent(g, g)
    assert w is not None
    assert w.h_minus.is_close(RationalFunction([1.0]))
    assert w.h_plus.is_close(RationalFunction([1.0]))


# -- rigidity -------------------------------------------------------------------


def test_rigid_examples():
    assert is_rigid(RationalFunction([1, 0.5]))
    assert not is_rigid(RationalFunction([1, -1]))
    assert is_rigid(RationalFunction([1.0]))


def test_rigid_rejects_inner_part():
    with pytest.raises(NotOuter):
        is_rigid(RationalFunction([-0.5, 1.0]))


# -- dimension theorem ------------------------------------------------------------


def test_dim_from_factorization_examples():
    theta = BlaschkeProduct(1.0, [(0.0, 2)])
    one = RationalFunction([1.0])
    gp = RationalFunction([1, 0.5])
    assert dim_from_factorization(one, theta, 1, gp) == 2
    assert dim_from_factorization(one, theta, 0, gp) == 0
    assert dim_from_factorization(one, theta, -1, gp) == 0


def test_dim_from_factorization_rejects_bad_hypotheses():
    theta = BlaschkeProduct(1.0, [(0.0, 1)])
    one = RationalFunction([1.0])
    with pytest.raises(PreconditionViolation, match="rigid"):
        dim_from_factorization(one, theta, 1, RationalFunction([1, -1]))
    with pytest.raises(PreconditionViolation, match="outer"):
        dim_from_factorization(one, theta, 1, RationalFunction([-0.5, 1.0]))
    with pytest.raises(PreconditionViolation, match="conjugate-outer"):
        dim_from_factorization(RationalFunction([1, 0.5]), theta, 1, RationalFunction([1, 0.5]))


def test_shifted_kernel_dimension_drop(rng):
    # dim ker T_{zbar theta h} = max(0, dim ker T_{zbar h} - deg theta)
    for _ in range(40):
        h = random_symbol(rng, 2)
        theta = random_blaschke(rng, int(rng.integers(1, 5)))
        base = kernel(as_symbol(monomial(-1) * h.value)).dimension
        lifted = kernel(as_symbol(monomial(-1) * theta.to_rational() * h.value)).dimension
        assert lifted == max(0, base - theta.degree)

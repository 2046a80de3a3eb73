"""Numeric verification layer: FFT coefficients, SVD null spaces, angles."""

import numpy as np
import pytest

from tkern import (
    ClassificationWarning,
    DimensionMismatchWarning,
    NotInvertibleOnCircle,
    PoleOnCircle,
    RationalFunction,
    ResolutionWarning,
    as_symbol,
    fourier_coefficients,
    kernel,
    monomial,
    numeric_kernel,
    principal_angle,
    subspace_from_rationals,
)
from tkern.oracle import boundary_sampling, winding_by_quadrature
from tkern.random_instances import random_kernel_symbol, random_symbol


# -- Fourier coefficients -------------------------------------------------------


def test_monomial_coefficient():
    c = fourier_coefficients(monomial(1), 5)
    assert abs(c[5 + 1] - 1.0) < 1e-12
    others = np.delete(c, 5 + 1)
    assert np.max(np.abs(others)) < 1e-12


def test_geometric_series_coefficients():
    c = fourier_coefficients(RationalFunction([1.0], [1.0, -0.5]), 10)
    expected = 0.5 ** np.arange(11)
    assert np.max(np.abs(c[10:] - expected)) < 1e-10
    assert np.max(np.abs(c[:10])) < 1e-10


def test_negative_index_coefficient():
    c = fourier_coefficients(monomial(-3), 4)
    assert abs(c[4 - 3] - 1.0) < 1e-12
    assert np.sum(np.abs(c)) == pytest.approx(1.0, abs=1e-11)


def test_circle_pole_rejected():
    with pytest.raises(PoleOnCircle):
        fourier_coefficients(RationalFunction([1.0], [-1.0, 1.0]), 4)


def test_coefficients_stable_under_grid_doubling(rng):
    for _ in range(10):
        s = random_symbol(rng, 2)
        base = fourier_coefficients(s.value, 12)
        refined = fourier_coefficients(s.value, 12, sample_count=4096)
        assert np.max(np.abs(base - refined)) < 1e-10


def test_near_circle_pole_warns():
    f = RationalFunction([1.0], [1.0, 1.0 / 1.01])  # pole at -1.01
    with pytest.warns(ResolutionWarning):
        fourier_coefficients(f, 4)


def test_boundary_sampling_counts():
    bs = boundary_sampling(monomial(1), 8)
    assert bs.sample_count == 8 and bs.values.shape == (8,)


def test_boundary_sampling_refuses_a_circle_pole_between_samples():
    # e^{i pi/8} lies halfway between two eighth roots of unity
    with pytest.raises(PoleOnCircle):
        boundary_sampling(RationalFunction([1.0], [-np.exp(1j * np.pi / 8), 1.0]), 8)
    # just outside the band the pole is sampled, with a warning
    with pytest.warns(ClassificationWarning):
        bs = boundary_sampling(RationalFunction([1.0], [-(1.0 + 2e-9), 1.0]), 8)
    assert np.all(np.isfinite(bs.values))


# -- numeric kernels ------------------------------------------------------------


def test_numeric_kernel_of_model_space():
    ns = numeric_kernel(monomial(-2), degree_cap=8)
    assert ns.dimension == 2
    angle = principal_angle(subspace_from_rationals([monomial(0), monomial(1)], 8), ns)
    assert angle < 1e-8


def test_numeric_kernel_trivial():
    assert numeric_kernel(monomial(2), degree_cap=8).dimension == 0


def test_numeric_kernel_matches_symbolic_ladder():
    s = as_symbol(RationalFunction([1, 2], [0, 0, 0, 0, 2, 1]))
    ns = numeric_kernel(s, degree_cap=16)
    K = kernel(s)
    assert ns.dimension == 3
    assert principal_angle(subspace_from_rationals(K.basis, 16), ns) < 1e-6


def test_numeric_kernel_requires_invertibility():
    with pytest.raises(NotInvertibleOnCircle):
        numeric_kernel(RationalFunction([1.0, -1.0]))


def test_numeric_agrees_with_symbolic_on_random_symbols(rng):
    for _ in range(30):
        s = random_symbol(rng, 2)
        K = kernel(s)
        ns = numeric_kernel(s)
        assert ns.dimension == K.dimension
        if K.dimension:
            sym = subspace_from_rationals(K.basis, ns.degree_cap)
            assert principal_angle(sym, ns) < 1e-6
        assert ns.gap_ratio > 1e3


# -- principal angles -------------------------------------------------------------


def test_identical_bases_have_zero_angle():
    a = subspace_from_rationals([monomial(0), monomial(1)], 8)
    assert principal_angle(a, a) == 0.0


def test_same_span_different_bases():
    a = subspace_from_rationals([RationalFunction([1, 1]), RationalFunction([1, -1])], 8)
    b = subspace_from_rationals([monomial(0), monomial(1)], 8)
    assert principal_angle(a, b) < 1e-12


def test_orthogonal_spans():
    a = subspace_from_rationals([monomial(0)], 8)
    b = subspace_from_rationals([monomial(1)], 8)
    assert principal_angle(a, b) == pytest.approx(np.pi / 2)


def test_dimension_mismatch_warns_and_returns_overlap():
    a = subspace_from_rationals([monomial(0)], 8)
    b = subspace_from_rationals([monomial(0), monomial(1)], 8)
    with pytest.warns(DimensionMismatchWarning):
        angle = principal_angle(a, b)
    assert angle < 1e-12


# -- quadrature winding ------------------------------------------------------------


def test_quadrature_winding_on_random_symbols(rng):
    for _ in range(25):
        s = random_kernel_symbol(rng)
        assert winding_by_quadrature(s) == s.winding

"""Numeric verification layer: FFT coefficients, SVD null spaces, angles."""

import warnings

import numpy as np
import pytest

import tkern.oracle
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
from tkern.oracle import (
    GRID_CONVERGENCE_TOL,
    SAFE_CIRCLE_DISTANCE,
    SVD_NULL_TOL,
    NumericSubspace,
    boundary_sampling,
    circle_samples,
)
from tkern.random_instances import random_symbol

from conftest import random_kernel_symbol, winding_by_quadrature


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


def _two_call_fourier(f, N, sample_count=None):
    # reference: sample the first grid, then each doubled grid, every grid
    # through its own boundary_sampling call
    f = tkern.oracle.as_rational(f)
    if f.pole_classification().on_circle:
        raise PoleOnCircle("Fourier coefficients need a pole-free boundary")
    dists = [abs(abs(r) - 1.0) for r, _ in f.poles()]
    if dists and min(dists) < SAFE_CIRCLE_DISTANCE:
        warnings.warn(f"pole at distance {min(dists):.3g} from the circle: coefficient "
                      "decay is slow and default truncation may under-resolve",
                      ResolutionWarning)
    if f.is_zero:
        return np.zeros(2 * N + 1, dtype=complex)

    def extract(m):
        hat = np.fft.fft(tkern.oracle.boundary_sampling(f, m).values) / m
        return hat[np.arange(-N, N + 1) % m]

    m = 256
    while m < max(4 * N, 4):
        m *= 2
    if sample_count is not None:
        if sample_count & (sample_count - 1):
            raise ValueError("sample_count must be a power of two")
        m = max(m, sample_count)
    prev = extract(m)
    while m < tkern.oracle._MAX_SAMPLES:
        m *= 2
        cur = extract(m)
        scale = max(1.0, float(np.max(np.abs(cur))))
        if np.max(np.abs(cur - prev)) <= GRID_CONVERGENCE_TOL * scale:
            return cur
        prev = cur
    warnings.warn("Fourier coefficients did not reach grid convergence at the sample cap",
                  ResolutionWarning)
    return prev


def _fourier_corpus(seed):
    # (f, N, sample_count): symbols with roots at safe radii and near the
    # circle, truncations whose first grid has 256 to 2048 points, forced
    # sample counts, and a pole so close to the circle that the cap is hit
    rng = np.random.default_rng(seed)
    radii = [((0.1, 0.45), (2.6, 4.0)), ((0.5, 0.9), (1.1, 2.0)), ((0.9, 0.99), (1.01, 1.05))]
    for trial in range(36):
        inside, outside = radii[trial % 3]

        def roots(count, band):
            r = rng.uniform(*band, count) * np.exp(2j * np.pi * rng.random(count))
            return [(complex(a), 1) for a in r]

        zeros = roots(int(rng.integers(0, 3)), inside) + roots(int(rng.integers(0, 3)), outside)
        poles = roots(int(rng.integers(0, 3)), inside) + roots(int(rng.integers(1, 3)), outside)
        gain = complex(rng.standard_normal(), rng.standard_normal())
        f = RationalFunction._from_roots(gain, zeros, poles)
        yield f, (4, 12, 40, 300)[trial % 4], (None, 512, None, 4096)[trial // 4 % 4]
    far = RationalFunction([1.0], [1.0, -0.5])
    yield far, 8, 1 << 18
    yield far, 8, 1 << 19
    yield RationalFunction([1.0], [1.0, -1 / 1.0001]), 8, None


@pytest.mark.parametrize("seed", [42, 7])
def test_fourier_coefficients_match_the_two_call_loop(seed, monkeypatch):
    sizes = []

    def counting(f, sample_count):
        sizes.append(sample_count)
        return boundary_sampling(f, sample_count)

    monkeypatch.setattr(tkern.oracle, "boundary_sampling", counting)
    caps = largest = first_converged = 0
    for f, N, sample_count in _fourier_corpus(seed):
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            expected = _two_call_fourier(f, N, sample_count)
        expected_sizes, sizes[:] = sizes[:], []
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = fourier_coefficients(f, N, sample_count)
        got_sizes, sizes[:] = sizes[:], []
        # the same coefficients, to the bit, and the same warnings
        assert got.shape == (2 * N + 1,) and np.array_equal(got, expected)
        assert ([(w.category, str(w.message)) for w in got_warnings]
                == [(w.category, str(w.message)) for w in expected_warnings])
        caps += any("sample cap" in str(w.message) for w in got_warnings)
        largest = max(largest, *got_sizes)
        # the first two grids are sampled once, at the larger size; later
        # grids as before; below the cap that is one call fewer
        m = expected_sizes[0]
        if m < tkern.oracle._MAX_SAMPLES:
            assert got_sizes == expected_sizes[1:]
        else:
            assert got_sizes == expected_sizes == [m]
        if len(expected_sizes) == 2:
            assert len(got_sizes) == 1
            first_converged += 1
    assert caps == 3 and largest >= 1024 and first_converged >= 20


def _counting(monkeypatch, module, name):
    # wrap module.name; the returned list gets the keyword arguments of each call
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_first_grid_comparison_takes_one_fft(monkeypatch):
    ffts = _counting(monkeypatch, np.fft, "fft")
    sizes = _counting(monkeypatch, tkern.oracle, "boundary_sampling")
    c = fourier_coefficients(RationalFunction([1.0], [1.0, -0.5]), 10)
    assert len(ffts) == 1 and len(sizes) == 1
    assert np.max(np.abs(c[10:] - 0.5 ** np.arange(11))) < 1e-10


@pytest.mark.parametrize("degree", [252, 256, 260, -252, -256, -260])
def test_the_first_comparison_sees_what_the_coarse_grid_aliases(degree, monkeypatch):
    # on the 256-point grid z^degree lands on index -4, 0 or 4, the ends
    # and middle of the window -4..4, so the first comparison must fail and
    # the grid double
    f = monomial(degree)
    expected = _two_call_fourier(f, 4)
    sizes = _counting(monkeypatch, tkern.oracle, "boundary_sampling")
    got = fourier_coefficients(f, 4)
    assert np.array_equal(got, expected)
    assert len(sizes) == 2


def test_the_kept_circle_grid_is_read_only_and_bounded():
    # boundary_sampling reads a kept grid; circle_samples gives a fresh one
    boundary_sampling(monomial(1), 64)
    kept = tkern.oracle._circle_grid(64)
    fresh = circle_samples(64)
    assert not kept.flags.writeable and fresh.flags.writeable
    assert np.array_equal(kept, fresh)
    with pytest.raises(ValueError):
        kept[0] = 0
    for n in range(1, 41):
        bs = boundary_sampling(monomial(2), n)
        assert np.array_equal(bs.values, circle_samples(n) ** 2)
    info = tkern.oracle._circle_grid.cache_info()
    assert info.currsize <= info.maxsize <= 8


@pytest.mark.parametrize(("call", "name"), [
    (lambda: fourier_coefficients(monomial(1), -1), "N"),
    (lambda: fourier_coefficients(RationalFunction([0.0]), -1), "N"),
    (lambda: fourier_coefficients(monomial(1), 4, sample_count=0), "sample_count"),
    (lambda: fourier_coefficients(monomial(1), 4, sample_count=-4), "sample_count"),
    (lambda: fourier_coefficients(monomial(1), 4, sample_count=768), "sample_count"),
    (lambda: numeric_kernel(monomial(-2), degree_cap=-1), "degree_cap"),
    (lambda: boundary_sampling(monomial(1), 0), "sample_count"),
    (lambda: boundary_sampling(monomial(1), -3), "sample_count"),
    # named ids: an unnamed one would renumber the ids of the cases above
    pytest.param(lambda: boundary_sampling(monomial(1), 2.5), "sample_count",
                 id="sample_count-2.5"),
    pytest.param(lambda: fourier_coefficients(monomial(1), 2.5), "N", id="N-2.5"),
    pytest.param(lambda: fourier_coefficients(monomial(1), 4, sample_count=512.0), "sample_count",
                 id="sample_count-512.0"),
    pytest.param(lambda: fourier_coefficients(monomial(1), 4, sample_count=512.5), "sample_count",
                 id="sample_count-512.5"),
    pytest.param(lambda: numeric_kernel(monomial(-2), degree_cap=2.5), "degree_cap",
                 id="degree_cap-2.5"),
])
def test_invalid_oracle_sizes_are_refused(call, name):
    # refused before a circle grid is read or kept
    before = tkern.oracle._circle_grid.cache_info()
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()
    assert tkern.oracle._circle_grid.cache_info() == before


# -- numeric kernels ------------------------------------------------------------


def test_numeric_kernel_of_model_space():
    ns = numeric_kernel(monomial(-2), degree_cap=8)
    assert ns.dimension == 2
    angle = principal_angle(subspace_from_rationals([monomial(0), monomial(1)], 8), ns)
    assert angle < 1e-8


def test_numeric_kernel_trivial():
    assert numeric_kernel(monomial(2), degree_cap=8).dimension == 0


@pytest.mark.parametrize(("symbol", "caps"), [
    (monomial(-2), {0: 1, 1: 2, 2: 2, 8: 2}),
    (monomial(-3) * RationalFunction([1.0, 0.3]), {0: 1, 1: 2, 2: 2, 3: 2}),
])
def test_numeric_kernel_with_a_cap_below_the_dimension(symbol, caps):
    # every column is in the kernel, so the largest singular value is FFT
    # noise; the null threshold scales with the symbol's coefficients
    for cap, dimension in caps.items():
        ns = numeric_kernel(symbol, degree_cap=cap)
        assert ns.dimension == dimension, cap


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


def _mask_numeric_kernel(s, degree_cap=None):
    # reference: every singular value padded to the column count, and the
    # null columns, kept values and gap read through a boolean mask
    s = as_symbol(s)
    if degree_cap is None:
        degree_cap = tkern.oracle.default_degree_cap(s)
    v = s.value
    bandwidth = v.num.degree + v.den.degree
    rows = degree_cap + bandwidth + 1
    nfour = max(degree_cap, rows - 1)
    c = fourier_coefficients(v, nfour)
    A = c[nfour + np.arange(rows)[:, None] - np.arange(degree_cap + 1)[None, :]]
    _, sv, vh = np.linalg.svd(A, full_matrices=False)
    smax = sv[0] if sv.size else 0.0
    full_sv = np.zeros(degree_cap + 1)
    full_sv[: sv.size] = sv
    null_mask = full_sv <= SVD_NULL_TOL * max(smax, float(np.max(np.abs(c))), 1e-300)
    kept, dropped = full_sv[~null_mask], full_sv[null_mask]
    if dropped.size and kept.size:
        gap = float(kept.min() / max(dropped.max(), 1e-300))
    else:
        gap = float("inf")
    return NumericSubspace(degree_cap, vh.conj().T[:, null_mask],
                           singular_values=full_sv, gap_ratio=gap)


def _two_svd_principal_angle(A, B):
    # reference: the cosines' SVD first, then the sines' below 0.7
    if A.dimension == 0 or B.dimension == 0:
        return 0.0 if A.dimension == B.dimension else float(np.pi / 2)
    M = A.basis_matrix.conj().T @ B.basis_matrix
    sv = np.linalg.svd(M, compute_uv=False)
    cos_small = float(np.clip(sv[min(A.dimension, B.dimension) - 1], -1.0, 1.0))
    if cos_small < 0.7:
        return float(np.arccos(cos_small))
    if A.dimension >= B.dimension:
        resid = B.basis_matrix - A.basis_matrix @ M
    else:
        resid = A.basis_matrix - B.basis_matrix @ M.conj().T
    return float(np.arcsin(np.clip(np.linalg.svd(resid, compute_uv=False)[0], 0.0, 1.0)))


def _kernel_symbols(seed):
    # the corpus's functions at safe, near and very near radii, wound by
    # zbar^0..zbar^3 so that most have a kernel
    for trial, (f, _, _) in enumerate(_fourier_corpus(seed)):
        if trial == 36:
            return
        yield as_symbol(f * monomial(-(trial % 4)))


@pytest.mark.parametrize("seed", [42, 7])
def test_oracle_outputs_match_the_references(seed):
    dimensions = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for s in _kernel_symbols(seed):
            got, expected = numeric_kernel(s), _mask_numeric_kernel(s)
            assert np.array_equal(got.singular_values, expected.singular_values)
            assert got.basis_matrix.shape == expected.basis_matrix.shape
            assert np.array_equal(got.basis_matrix, expected.basis_matrix)
            assert got.gap_ratio == expected.gap_ratio
            sub = subspace_from_rationals(kernel(s).basis, got.degree_cap)
            assert principal_angle(sub, got) == _two_svd_principal_angle(sub, expected)
            dimensions.add(got.dimension)
    assert len(dimensions) >= 3


def test_numeric_kernel_takes_one_svd(monkeypatch):
    svds = _counting(monkeypatch, np.linalg, "svd")
    assert numeric_kernel(monomial(-2), degree_cap=8).dimension == 2
    assert len(svds) == 1 and svds[0].get("compute_uv", True)


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


def _pair_at(angle_deg, dims=(2, 2), seed=0):
    # two subspaces of C^9 whose largest principal angle is angle_deg, in a
    # seeded random unitary frame
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    t = np.radians(angle_deg)
    a = q[:, : dims[0]]
    b = q[:, : dims[1]].copy()
    b[:, 0] = np.cos(t) * q[:, 0] + np.sin(t) * q[:, 8]
    return NumericSubspace(8, a), NumericSubspace(8, b)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("angle_deg", [30, 44, 45.57, 46, 60, 90])
def test_principal_angle_matches_the_two_svd_reference(angle_deg, dims, monkeypatch):
    A, B = _pair_at(angle_deg, dims)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DimensionMismatchWarning)
        expected = _two_svd_principal_angle(A, B)
        svds = _counting(monkeypatch, np.linalg, "svd")
        got = principal_angle(A, B)
    assert got == expected
    assert got == pytest.approx(np.radians(angle_deg), abs=1e-12)
    # one SVD below arccos(0.7) = 45.573 degrees, where the sine is read
    assert len(svds) == (1 if angle_deg < 45.573 else 2)


# -- quadrature winding ------------------------------------------------------------


def test_quadrature_winding_on_random_symbols(rng):
    for _ in range(25):
        s = random_kernel_symbol(rng)
        assert winding_by_quadrature(s) == s.winding

"""Independent numerical verification layer.

Nothing here reuses the symbolic factorization path: Fourier coefficients
come from FFT of boundary samples with grid-convergence doubling, kernels
come from the SVD null space of a rectangular truncated-Toeplitz
coefficient map, and subspaces are compared through principal angles.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    DimensionMismatchWarning,
    NotInvertibleOnCircle,
    PoleOnCircle,
    ResolutionWarning,
)
from .rational import Record, as_rational, as_symbol

# Relative SVD threshold below which singular values count as null.
SVD_NULL_TOL = 1e-8
# Successive FFT grids must agree to this level before coefficients are
# reported.
GRID_CONVERGENCE_TOL = 1e-12
_MAX_SAMPLES = 1 << 18
# Poles or zeros closer to the circle than this slow coefficient decay
# enough to endanger the default truncation parameters.
SAFE_CIRCLE_DISTANCE = 0.05


def circle_samples(n: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(n) / n)


class BoundarySampling(Record):
    """Samples of a function at the n-th roots of unity."""

    sample_count: int
    values: np.ndarray


def boundary_sampling(f, sample_count: int) -> BoundarySampling:
    """Refused when f has a pole on the circle (band ``EPS_CIRCLE``),
    whether or not a sample falls on it."""
    f = as_rational(f)
    if f.pole_classification().on_circle:
        raise PoleOnCircle("boundary samples need a pole-free circle")
    z = circle_samples(sample_count)
    return BoundarySampling(sample_count, f.num(z) / f.den(z))


def fourier_coefficients(f, N: int, sample_count: int | None = None) -> np.ndarray:
    """Fourier coefficients of a rational function at indices -N..N.

    Returns an array ``c`` of length 2N+1 with ``c[N + j]`` the coefficient
    at index j. The first grid has m = max(256, next power of two >= 4N)
    points, or ``sample_count`` if larger, and doubles until two successive
    grids agree to GRID_CONVERGENCE_TOL; a ResolutionWarning is issued if
    the cap is reached first. The m-point grid is the even-indexed half of
    the 2m-point grid, bit for bit, so the first comparison samples f once,
    at 2m points; each later grid is sampled on its own.
    """
    f = as_rational(f)
    if f.pole_classification().on_circle:
        raise PoleOnCircle("Fourier coefficients need a pole-free boundary")
    dists = [abs(abs(r) - 1.0) for r, _ in f.poles()]
    if dists and min(dists) < SAFE_CIRCLE_DISTANCE:
        warnings.warn(
            f"pole at distance {min(dists):.3g} from the circle: coefficient "
            "decay is slow and default truncation may under-resolve",
            ResolutionWarning,
            stacklevel=2,
        )
    if f.is_zero:
        return np.zeros(2 * N + 1, dtype=complex)

    def extract(values):
        m = values.size
        hat = np.fft.fft(values) / m
        return hat[np.arange(-N, N + 1) % m]

    m = 256
    while m < max(4 * N, 4):
        m *= 2
    if sample_count is not None:
        if sample_count & (sample_count - 1):
            raise ValueError("sample_count must be a power of two")
        m = max(m, sample_count)
    first = 2 * m if m < _MAX_SAMPLES else m
    values = boundary_sampling(f, first).values
    prev = extract(values[:: first // m])
    while m < _MAX_SAMPLES:
        m *= 2
        if values.size != m:
            values = boundary_sampling(f, m).values
        cur = extract(values)
        scale = max(1.0, float(np.max(np.abs(cur))))
        if np.max(np.abs(cur - prev)) <= GRID_CONVERGENCE_TOL * scale:
            return cur
        prev = cur
    warnings.warn(
        "Fourier coefficients did not reach grid convergence at the sample cap",
        ResolutionWarning,
        stacklevel=2,
    )
    return prev


class NumericSubspace(Record):
    """Orthonormal coefficient-vector basis of a polynomial subspace.

    Columns of ``basis_matrix`` are orthonormal coefficient vectors for
    polynomials of degree <= degree_cap.
    """

    degree_cap: int
    basis_matrix: np.ndarray
    singular_values: np.ndarray | None = None
    gap_ratio: float = float("inf")

    @property
    def dimension(self) -> int:
        return self.basis_matrix.shape[1]


def default_degree_cap(s) -> int:
    v = as_symbol(s).value
    return 4 * max(v.num.degree, v.den.degree) + 16


def numeric_kernel(s, degree_cap: int | None = None) -> NumericSubspace:
    """Null space of the truncated Toeplitz coefficient map.

    Columns range over monomials up to degree_cap; rows are the
    nonnegative Fourier indices of symbol * polynomial up to
    degree_cap + numerator degree + denominator degree (a tall matrix, so
    finite-section artifacts of negatively wound symbols are suppressed).
    Singular values below SVD_NULL_TOL relative to the largest singular
    value or the largest computed Fourier coefficient, whichever is
    larger, count as null: when the cap is below the kernel's dimension
    every column is null and the largest singular value is FFT noise.
    """
    s = as_symbol(s)
    if not s.circle_invertible:
        raise NotInvertibleOnCircle("numeric kernel needs a circle-invertible symbol")
    if degree_cap is None:
        degree_cap = default_degree_cap(s)
    v = s.value
    bandwidth = v.num.degree + v.den.degree
    rows = degree_cap + bandwidth + 1
    nfour = max(degree_cap, rows - 1)
    c = fourier_coefficients(v, nfour)

    idx = nfour + np.arange(rows)[:, None] - np.arange(degree_cap + 1)[None, :]
    A = c[idx]

    _, sv, vh = np.linalg.svd(A, full_matrices=False)
    smax = sv[0] if sv.size else 0.0
    ncols = degree_cap + 1
    full_sv = np.zeros(ncols)
    full_sv[: sv.size] = sv
    null_mask = full_sv <= SVD_NULL_TOL * max(smax, float(np.max(np.abs(c))), 1e-300)
    kept = full_sv[~null_mask]
    dropped = full_sv[null_mask]
    if dropped.size and kept.size:
        gap = float(kept.min() / max(dropped.max(), 1e-300))
    else:
        gap = float("inf")
    basis = vh.conj().T[:, null_mask]
    return NumericSubspace(degree_cap, basis, singular_values=full_sv, gap_ratio=gap)


def subspace_from_rationals(functions, degree_cap: int) -> NumericSubspace:
    """Embed rational Hardy-space functions as truncated coefficient
    vectors and orthonormalize."""
    cols = [as_rational(f).taylor(degree_cap) for f in functions]
    if not cols:
        return NumericSubspace(degree_cap, np.zeros((degree_cap + 1, 0), dtype=complex))
    M = np.stack(cols, axis=1)
    q, r = np.linalg.qr(M)
    keep = np.abs(np.diag(r)) > 1e-12 * max(np.max(np.abs(np.diag(r))), 1e-300)
    return NumericSubspace(degree_cap, q[:, keep])


def principal_angle(A: NumericSubspace, B: NumericSubspace) -> float:
    """Largest principal angle between two subspaces, in [0, pi/2].

    When the dimensions differ a DimensionMismatchWarning is raised and
    the angle of the overlap (the smaller dimension) is still returned.
    """
    if A.degree_cap != B.degree_cap:
        raise ValueError("subspaces use different degree caps")
    if A.dimension != B.dimension:
        warnings.warn(
            f"comparing subspaces of dimensions {A.dimension} and {B.dimension}; "
            "angle covers only the overlap",
            DimensionMismatchWarning,
            stacklevel=2,
        )
    if A.dimension == 0 or B.dimension == 0:
        return 0.0 if A.dimension == B.dimension else float(np.pi / 2)
    M = A.basis_matrix.conj().T @ B.basis_matrix
    sv = np.linalg.svd(M, compute_uv=False)
    k = min(A.dimension, B.dimension)
    cos_small = float(np.clip(sv[k - 1], -1.0, 1.0))
    if cos_small < 0.7:
        return float(np.arccos(cos_small))
    # sine-based residual is accurate for small angles: project the
    # smaller basis onto the larger and measure what is left over
    if A.dimension >= B.dimension:
        resid = B.basis_matrix - A.basis_matrix @ M
    else:
        resid = A.basis_matrix - B.basis_matrix @ M.conj().T
    sines = np.linalg.svd(resid, compute_uv=False)
    return float(np.arcsin(np.clip(sines[0], 0.0, 1.0)))


def winding_by_quadrature(s, samples: int = 1024) -> int:
    """Argument-principle winding of a symbol: accumulated phase of the
    boundary values over one loop, divided by 2 pi."""
    s = as_symbol(s)
    if not s.circle_invertible:
        raise NotInvertibleOnCircle("quadrature winding needs a circle-invertible symbol")
    z = circle_samples(samples)
    vals = s.value(z)
    ratios = np.roll(vals, -1) / vals
    total = float(np.sum(np.angle(ratios)))
    return int(np.rint(total / (2.0 * np.pi)))


def quadrature_norm_squared(f, samples: int = 2048) -> float:
    """Mean of |f|^2 over a midpoint circle grid (normalized measure).

    The midpoint offset keeps poles at roots of unity off the grid, so the
    value grows without bound under sample doubling exactly when |f|^2
    fails to be integrable; used as a divergence probe.
    """
    f = as_rational(f)
    z = np.exp(2j * np.pi * (np.arange(samples) + 0.5) / samples)
    den_vals = f.den(z)
    small = np.abs(den_vals) < 1e-300
    den_vals[small] = 1e-300
    return float(np.mean(np.abs(f.num(z) / den_vals) ** 2))


def gram_matrix(functions, samples: int = 512) -> np.ndarray:
    """Gram matrix of functions under the sampled circle inner product."""
    z = circle_samples(samples)
    vals = np.stack([as_rational(f)(z) for f in functions], axis=0)
    return (vals @ vals.conj().T) / samples

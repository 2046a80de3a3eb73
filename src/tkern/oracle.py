"""Independent numerical verification layer.

Nothing here reuses the symbolic factorization path: Fourier coefficients
come from FFT of boundary samples with grid-convergence doubling, kernels
come from the SVD null space of a rectangular truncated-Toeplitz
coefficient map, and subspaces are compared through principal angles.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from numbers import Integral

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


@lru_cache(maxsize=8)
def _circle_grid(n: int) -> np.ndarray:
    z = circle_samples(n)
    z.flags.writeable = False
    return z


class BoundarySampling(Record):
    """Samples of a function at the n-th roots of unity."""

    sample_count: int
    values: np.ndarray


def boundary_sampling(f, sample_count: int) -> BoundarySampling:
    """Refused when f has a pole on the circle (band ``EPS_CIRCLE``),
    whether or not a sample falls on it. The points are the grid of
    ``circle_samples``, kept read-only for the last few sample counts. A
    ``sample_count`` below 1 or not an integer is refused with ValueError."""
    if not isinstance(sample_count, Integral) or sample_count < 1:
        raise ValueError(f"sample_count must be an integer of at least 1, got {sample_count}")
    f = as_rational(f)
    if f.pole_classification().on_circle:
        raise PoleOnCircle("boundary samples need a pole-free circle")
    z = _circle_grid(sample_count)
    return BoundarySampling(sample_count, f.num(z) / f.den(z))


def fourier_coefficients(f, N: int, sample_count: int | None = None) -> np.ndarray:
    """Fourier coefficients of a rational function at indices -N..N.

    Returns an array ``c`` of length 2N+1 with ``c[N + j]`` the coefficient
    at index j. The first grid has m = max(256, next power of two >= 4N)
    points, or ``sample_count`` if larger, and doubles until two successive
    grids agree to GRID_CONVERGENCE_TOL; a ResolutionWarning is issued if
    the cap is reached first. The first comparison samples f once, at 2m
    points, and takes one FFT: the m-point grid is the even half of the
    2m-point grid, so its coefficient at k is hat[k] + hat[k + m] of the
    2m-point coefficients (the radix-2 split). That aliased grid is only
    compared against; the coefficients returned always come from the FFT
    of the grid they are reported for. Each later grid is sampled on its
    own. An N that is not a nonnegative integer, or a ``sample_count`` that
    is not a positive power of two, is refused with ValueError.
    """
    if not isinstance(N, Integral) or N < 0:
        raise ValueError(f"N must be a nonnegative integer, got {N}")
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

    def transform(m):
        hat = np.fft.fft(boundary_sampling(f, m).values) / m
        return hat, np.concatenate((hat[m - N :], hat[: N + 1]))

    m = 256
    while m < max(4 * N, 4):
        m *= 2
    if sample_count is not None:
        if (
            not isinstance(sample_count, Integral)
            or sample_count < 1
            or sample_count & (sample_count - 1)
        ):
            raise ValueError(f"sample_count must be a positive power of two, got {sample_count}")
        m = max(m, sample_count)
    if m >= _MAX_SAMPLES:
        prev = transform(m)[1]
    else:
        hat, cur = transform(2 * m)
        # the m-point grid's coefficient at k is hat[k] + hat[k + m]
        prev = cur + hat[m - N : m + N + 1]
        while True:
            m *= 2
            scale = max(1.0, float(np.max(np.abs(cur))))
            if np.max(np.abs(cur - prev)) <= GRID_CONVERGENCE_TOL * scale:
                return cur
            prev = cur
            if m >= _MAX_SAMPLES:
                break
            cur = transform(2 * m)[1]
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
    The matrix is tall, so the SVD gives one singular value per column,
    sorted: the null ones are a tail, the gap ratio is the last kept value
    over the first null one, and the basis is the matching tail of the
    right singular vectors. A degree_cap that is not a nonnegative integer
    is refused with ValueError.
    """
    s = as_symbol(s)
    if not s.circle_invertible:
        raise NotInvertibleOnCircle("numeric kernel needs a circle-invertible symbol")
    if degree_cap is None:
        degree_cap = default_degree_cap(s)
    elif not isinstance(degree_cap, Integral) or degree_cap < 0:
        raise ValueError(f"degree_cap must be a nonnegative integer, got {degree_cap}")
    v = s.value
    rows = degree_cap + v.num.degree + v.den.degree + 1
    c = fourier_coefficients(v, rows - 1)

    idx = rows - 1 + np.arange(rows)[:, None] - np.arange(degree_cap + 1)[None, :]
    _, sv, vh = np.linalg.svd(c[idx], full_matrices=False)
    values = sv.tolist()
    null_tol = SVD_NULL_TOL * max(values[0], float(np.max(np.abs(c))), 1e-300)
    kept = len(values)
    while kept and values[kept - 1] <= null_tol:
        kept -= 1
    if 0 < kept < len(values):
        gap = values[kept - 1] / max(values[kept], 1e-300)
    else:
        gap = float("inf")
    return NumericSubspace(degree_cap, vh[kept:].conj().T, singular_values=sv, gap_ratio=gap)


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


# sin of the largest angle above which its cosine, not its sine, is read
_SINE_LIMIT = math.sqrt(1 - 0.7**2)


def principal_angle(A: NumericSubspace, B: NumericSubspace) -> float:
    """Largest principal angle between two subspaces, in [0, pi/2].

    When the dimensions differ a DimensionMismatchWarning is raised and
    the angle of the overlap (the smaller dimension) is still returned.
    The angle is read from one SVD, of the residual of the smaller basis
    projected onto the larger, as an arcsine, which is accurate for small
    angles. Only when its sine exceeds sqrt(1 - 0.7^2), a cosine below 0.7,
    is it read instead as the arccosine of the smallest singular value of
    the cross product of the bases, a second SVD.
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
    if A.dimension >= B.dimension:
        resid = B.basis_matrix - A.basis_matrix @ M
    else:
        resid = A.basis_matrix - B.basis_matrix @ M.conj().T
    sine = float(np.linalg.svd(resid, compute_uv=False)[0])
    if sine <= _SINE_LIMIT:
        return float(np.arcsin(np.clip(sine, 0.0, 1.0)))
    sv = np.linalg.svd(M, compute_uv=False)
    k = min(A.dimension, B.dimension)
    return float(np.arccos(np.clip(sv[k - 1], -1.0, 1.0)))

import numpy as np
import pytest

from tkern.errors import NotInvertibleOnCircle
from tkern.oracle import circle_samples
from tkern.random_instances import random_symbol
from tkern.rational import (
    ComplexPolynomial,
    RationalFunction,
    ToeplitzSymbol,
    as_rational,
    as_symbol,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def circle(n=64):
    return np.exp(2j * np.pi * np.arange(n) / n)


def closed_disc_roots(r):
    """The zeros and poles of ``r`` in the closed unit disc, read off its
    classifications: none exactly when r and 1/r are analytic and bounded
    there."""
    zc, pc = r.zero_classification(), r.pole_classification()
    return zc.inside + zc.on_circle + pc.inside + pc.on_circle


def is_invertible_coanalytic(r) -> bool:
    """r and 1/r are analytic on the closed exterior including infinity:
    all zeros and poles lie strictly inside the disc and the value at
    infinity is finite and nonzero."""
    if r.is_zero:
        return False
    zc, pc = r.zero_classification(), r.pole_classification()
    interior_only = not (zc.on_circle or zc.outside or pc.on_circle or pc.outside)
    return interior_only and r.order_at_infinity == 0


# -- references and generators that only the tests use -------------------------


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


def gram_matrix(functions, samples: int = 512) -> np.ndarray:
    """Gram matrix of functions under the sampled circle inner product."""
    z = circle_samples(samples)
    vals = np.stack([as_rational(f)(z) for f in functions], axis=0)
    return (vals @ vals.conj().T) / samples


def random_kernel_symbol(rng, max_dimension=4, max_half_degree=2) -> ToeplitzSymbol:
    """Random symbol with a nontrivial kernel (winding <= -1)."""
    dim = int(rng.integers(1, max_dimension + 1))
    return random_symbol(rng, max_half_degree=max_half_degree, winding=-dim)


def random_halfplane_hardy(rng, den_degree=2):
    """Random rational in the Hardy space of the upper half-plane: all
    poles in the open lower half-plane, decay at infinity."""
    x = -2.0 + 4.0 * rng.random(den_degree)
    y = -(0.4 + 2.0 * rng.random(den_degree))
    poles = x + 1j * y
    den = ComplexPolynomial.from_roots(list(poles))
    num_deg = int(rng.integers(0, den_degree))
    num = ComplexPolynomial(rng.standard_normal(num_deg + 1) + 1j * rng.standard_normal(num_deg + 1))
    return RationalFunction(num, den)

"""Explicit Toeplitz kernels for rational symbols.

A circle-invertible rational symbol with winding number k has a Toeplitz
kernel of dimension max(0, -k), spanned by the ladder
``plus * z**j`` (j = 0 .. -k-1) built from the Wiener-Hopf plus factor.
This module computes kernels and minimal kernels, decides maximality of a
kernel vector, and decides inclusion, equality and equivalence of kernels
through their symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    NotInHardySpace,
    NotInKernel,
    NotInvertibleOnCircle,
    NotOuter,
    PreconditionViolation,
    UndefinedQuotient,
    ZeroDenominator,
    ZeroFunction,
)
from .factorization import BlaschkeProduct, inner_outer, wiener_hopf
from .rational import (
    RationalFunction,
    ToeplitzSymbol,
    Z,
    as_rational,
    as_symbol,
)


@dataclass(frozen=True)
class ToeplitzKernel:
    """A symbol together with an explicit basis of its kernel.

    The basis is the monomial ladder ``plus * z**j`` with plus(0) = 1;
    it is empty exactly when the winding number is nonnegative.
    """

    symbol: ToeplitzSymbol
    dimension: int
    basis: tuple

    def maximal_vector(self) -> RationalFunction:
        """The top ladder element plus * z**(dim-1), always a maximal
        vector of the kernel."""
        if self.dimension == 0:
            raise ZeroFunction("the trivial kernel has no maximal vector")
        return self.basis[-1]


@dataclass(frozen=True)
class MaximalityCertificate:
    """Outcome of the maximal-vector test.

    ``certificate`` is the circle conjugate of z * symbol * vector; the
    vector is maximal exactly when the certificate is a Hardy-space
    function with no zeros in the open disc. ``failure_witness`` is an
    offending disc zero or disc pole of the certificate, when one exists.
    """

    vector: RationalFunction
    certificate: RationalFunction
    is_maximal: bool
    failure_witness: Optional[complex] = None


@dataclass(frozen=True)
class EquivalenceWitness:
    """Functions h_minus, h_plus with g1 = h_minus * g2 * h_plus, where
    h_plus is invertible-analytic on the closed disc and h_minus on the
    closed exterior."""

    h_minus: RationalFunction
    h_plus: RationalFunction

    def reconstruct(self, g2) -> RationalFunction:
        return self.h_minus * as_rational(g2) * self.h_plus


def kernel(s) -> ToeplitzKernel:
    """The kernel of the Toeplitz operator with rational symbol ``s``,
    computed once per symbol value: the kernel is kept on the symbol and
    later calls with the same ``ToeplitzSymbol`` return it."""
    s = as_symbol(s)
    if s._kernel is None:
        w = s.winding  # raises NotInvertibleOnCircle when undefined
        basis = []
        if w < 0:
            basis.append(wiener_hopf(s).plus)
            for _ in range(-w - 1):
                basis.append(basis[-1] * Z)
        object.__setattr__(s, "_kernel", ToeplitzKernel(s, len(basis), tuple(basis)))
    return s._kernel


def in_kernel(f, s) -> bool:
    """Symbolic membership test of ``f`` in ker T_s.

    Decided by pole/zero bookkeeping on the reduced product: f belongs to
    the kernel iff f is in the Hardy space and the circle conjugate of
    z * s * f has no poles in the closed unit disc.
    """
    f = as_rational(f)
    s = as_symbol(s)
    if f.is_zero:
        return True
    if not f.in_hardy2():
        return False
    q = (Z * s.value * f).circle_conjugate()
    return q.in_hardy2()


def minimal_kernel(k) -> tuple[ToeplitzSymbol, ToeplitzKernel]:
    """The smallest Toeplitz kernel containing ``k``.

    Factor k into inner times outer; the minimal symbol is the reduction
    of (1/z) * circle_conjugate(k) / outer. The returned kernel always
    contains k.
    """
    k = as_rational(k)
    if k.is_zero:
        raise ZeroFunction("the zero function has no minimal kernel")
    if not k.in_hardy2():
        raise NotInHardySpace("minimal kernels are defined for Hardy-space functions")
    io = inner_outer(k)
    v = k.circle_conjugate() / (Z * io.outer)
    symbol = ToeplitzSymbol(v)
    return symbol, kernel(symbol)


def is_maximal(k, s) -> MaximalityCertificate:
    """Decide whether ``k`` is a maximal vector for ker T_s.

    k and the certificate circle_conjugate(z * s * k) must be Hardy-space
    functions (that is membership of k in the kernel), and the certificate
    must have no zeros in the open unit disc (that is outerness, hence
    maximality).
    """
    k = as_rational(k)
    s = as_symbol(s)
    if not s.circle_invertible:
        raise NotInvertibleOnCircle("maximality test needs a circle-invertible symbol")
    if k.is_zero:
        raise ZeroFunction("the zero vector is not a candidate maximal vector")
    cert = (Z * s.value * k).circle_conjugate()
    if not (k.in_hardy2() and cert.in_hardy2()):
        raise NotInKernel("vector is not in the kernel of the symbol")
    inside_zeros = cert.zero_classification().inside
    if inside_zeros:
        return MaximalityCertificate(k, cert, False, failure_witness=inside_zeros[0][0])
    return MaximalityCertificate(k, cert, True)


def includes(g, h) -> bool:
    """ker T_g is contained in ker T_h, decided through the symbol
    quotient: the circle conjugate of h/g must have no poles in the
    closed unit disc."""
    g = as_symbol(g)
    h = as_symbol(h)
    try:
        ratio = (h.value / g.value).circle_conjugate()
    except ZeroDenominator as exc:
        raise UndefinedQuotient(str(exc)) from exc
    return ratio.in_hardy2()


def equals(g, h) -> bool:
    """ker T_g equals ker T_h: inclusion both ways."""
    return includes(g, h) and includes(h, g)


def is_equivalent(g1, g2) -> Optional[EquivalenceWitness]:
    """Produce h_minus, h_plus with g1 = h_minus * g2 * h_plus, or None.

    A witness exists exactly when the two circle-invertible symbols have
    the same winding number; it is read off the Wiener-Hopf factorization
    of g1/g2.
    """
    g1 = as_symbol(g1)
    g2 = as_symbol(g2)
    if g1.winding != g2.winding:
        return None
    wh = wiener_hopf(ToeplitzSymbol(g1.value / g2.value))
    return EquivalenceWitness(h_minus=wh.minus, h_plus=RationalFunction(1.0) / wh.plus)


def is_rigid(p) -> bool:
    """A rational outer function spans a one-dimensional Toeplitz kernel
    exactly when its minimal kernel has dimension one."""
    p = as_rational(p)
    if p.is_zero:
        raise ZeroFunction("the zero function is not rigid")
    if not p.in_hardy2():
        raise NotInHardySpace("rigidity is defined for Hardy-space functions")
    if p.zero_classification().inside:
        raise NotOuter("rigidity test expects an outer function")
    return minimal_kernel(p)[1].dimension == 1


def dim_from_factorization(g_minus, theta: BlaschkeProduct, N: int, g_plus) -> int:
    """Kernel dimension read off a factored symbol
    g = g_minus * theta**(-N) * g_plus**(-1).

    Requires g_minus conjugate-outer, g_plus outer with rigid square.
    Returns 0 for N <= 0 and n*N otherwise (n the Blaschke degree); the
    value is cross-checked against the kernel of the assembled symbol.
    """
    g_minus = as_rational(g_minus)
    g_plus = as_rational(g_plus)
    if not g_minus.circle_conjugate().is_outer():
        raise PreconditionViolation("g_minus is not conjugate-outer")
    if not g_plus.is_outer():
        raise PreconditionViolation("g_plus is not outer in the Hardy space")
    if not is_rigid(g_plus):
        raise PreconditionViolation("g_plus does not span a one-dimensional kernel (not rigid)")
    n = theta.degree
    expected = 0 if N <= 0 else n * N
    assembled = ToeplitzSymbol(g_minus * theta.to_rational() ** (-N) / g_plus)
    computed = kernel(assembled).dimension
    if computed != expected:
        raise PreconditionViolation(
            f"assembled symbol has kernel dimension {computed}, expected {expected}"
        )
    return expected

"""Explicit Toeplitz kernels for rational symbols.

A circle-invertible rational symbol with winding number k has the kernel
plus * P_{d-1}, d = max(0, -k): the Wiener-Hopf plus factor times the
polynomials of degree below d, spanned by the ladder ``plus * z**j``.
This module computes kernels and minimal kernels, decides membership from
that parametrisation (f / plus must be a polynomial of degree below d,
read from net root multiplicities), decides maximality of a kernel
vector, decides inclusion and equality of kernels by membership of one
maximal vector, and equivalence of kernels through their symbols. Every
kernel question reaches the one circle gate, ``ToeplitzSymbol.winding``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .errors import (
    NotInHardySpace,
    NotInKernel,
    NotOuter,
    PreconditionViolation,
    ZeroFunction,
)
from .factorization import BlaschkeProduct, inner_outer, wiener_hopf
from .rational import (
    RationalFunction,
    Record,
    ToeplitzSymbol,
    Z,
    _quotient_zero_count,
    _sorted_roots,
    as_rational,
    as_symbol,
)


class ToeplitzKernel(Record):
    """A symbol's kernel plus * P_{d-1}, held as its dimension d and its
    Wiener-Hopf plus factor (plus(0) = 1; None when d = 0). The basis, the
    ladder ``plus * z**j`` (j < d), is built on its first read."""

    symbol: ToeplitzSymbol
    dimension: int
    plus: Optional[RationalFunction]

    def _element(self, j: int) -> RationalFunction:
        """plus * z**j, built with no reduction: every root of plus lies
        outside the closed disc, so none meets the zero at the origin, and
        the element keeps plus's gain and poles (and their classification,
        where plus has one)."""
        plus = self.plus
        if j == 0:
            return plus
        zeros = tuple(_sorted_roots(plus._zeros + ((0j, j),)))
        return RationalFunction._reduced(plus._gain, zeros, plus._poles, plus._pole_split)

    @cached_property
    def basis(self) -> tuple:
        if self.dimension:
            self.plus.pole_classification()  # classified once, for every element
        return tuple(map(self._element, range(self.dimension)))

    def maximal_vector(self) -> RationalFunction:
        """The top ladder element plus * z**(dim-1), always a maximal
        vector of the kernel; built alone, whether or not the basis was read."""
        if self.dimension == 0:
            raise ZeroFunction("the trivial kernel has no maximal vector")
        return self._element(self.dimension - 1)


class MaximalityCertificate(Record):
    """Outcome of the maximal-vector test on a kernel vector.

    ``certificate`` is the circle conjugate of z * symbol * vector, a
    Hardy-space function since the vector is in the kernel; the vector is
    maximal exactly when the certificate has no zeros in the open disc.
    ``failure_witness`` is such a disc zero, when one exists.
    """

    vector: RationalFunction
    certificate: RationalFunction
    is_maximal: bool
    failure_witness: Optional[complex] = None


class EquivalenceWitness(Record):
    """Functions h_minus, h_plus with g1 = h_minus * g2 * h_plus, where
    h_plus is invertible-analytic on the closed disc and h_minus on the
    closed exterior."""

    h_minus: RationalFunction
    h_plus: RationalFunction


def kernel(s) -> ToeplitzKernel:
    """The kernel of the Toeplitz operator with rational symbol ``s``,
    computed once per symbol value: the kernel is kept on the symbol and
    later calls with the same ``ToeplitzSymbol`` return it."""
    s = as_symbol(s)
    if s._kernel is None:
        d = max(0, -s.winding)  # raises NotInvertibleOnCircle when undefined
        object.__setattr__(s, "_kernel", ToeplitzKernel(s, d, wiener_hopf(s).plus if d else None))
    return s._kernel


def in_kernel(f, s) -> bool:
    """Symbolic membership test of ``f`` in ker T_s = plus * P_{d-1}.

    f outside the Hardy space is in no kernel. Otherwise the kernel is
    read, kept on the symbol (so a symbol that is not circle-invertible
    raises NotInvertibleOnCircle), and f belongs to it iff the quotient
    f / plus, reduced over the roots of f and plus, is a polynomial of
    degree below d: no pole and at most d - 1 zeros, with multiplicity,
    read from net root multiplicities (``_quotient_zero_count``) with no
    quotient, root mean or gain formed. A ladder element groups nothing.
    The zero function is in every kernel; for d = 0 no other function is.
    """
    f = as_rational(f)
    if not f.in_hardy2():
        return False
    K = kernel(s)
    if f.is_zero:
        return True
    if not K.dimension:
        return False
    n = _quotient_zero_count(f._zeros + K.plus._poles, f._poles + K.plus._zeros)
    return n is not None and n < K.dimension


def minimal_kernel(k) -> tuple[ToeplitzSymbol, ToeplitzKernel]:
    """The smallest Toeplitz kernel containing ``k``.

    Factor k into inner times outer; the minimal symbol is
    circle_conjugate(k) / (z * outer), reduced once. The returned kernel
    always contains k.
    """
    k = as_rational(k)
    if k.is_zero:
        raise ZeroFunction("the zero function has no minimal kernel")
    if not k.in_hardy2():
        raise NotInHardySpace("minimal kernels are defined for Hardy-space functions")
    io = inner_outer(k)
    v = RationalFunction._product((k.circle_conjugate(),), (Z, io.outer))
    symbol = ToeplitzSymbol(v)
    return symbol, kernel(symbol)


def is_maximal(k, s) -> MaximalityCertificate:
    """Decide whether ``k`` is a maximal vector for ker T_s.

    The winding of s is read first (a circle root raises
    NotInvertibleOnCircle). k must be in the kernel, decided on the
    product z * s * k, reduced once: k in the Hardy space and the product
    in the conjugate Hardy space. The certificate circle_conjugate(z * s *
    k), built only then, must have no zeros in the open unit disc (that is
    outerness, hence maximality).
    """
    k = as_rational(k)
    s = as_symbol(s)
    s.winding  # raises NotInvertibleOnCircle when undefined
    if k.is_zero:
        raise ZeroFunction("the zero vector is not a candidate maximal vector")
    product = RationalFunction._product((Z, s.value, k))
    if not (k.in_hardy2() and product.in_conjugate_hardy2()):
        raise NotInKernel("vector is not in the kernel of the symbol")
    cert = product.circle_conjugate()
    inside_zeros = cert.zero_classification().inside
    if inside_zeros:
        return MaximalityCertificate(k, cert, False, failure_witness=inside_zeros[0][0])
    return MaximalityCertificate(k, cert, True)


def includes(g, h) -> bool:
    """ker T_g is contained in ker T_h. The trivial kernel lies in every
    kernel; a nontrivial one is the smallest Toeplitz kernel containing its
    maximal vector k, so it lies in ker T_h exactly when k does
    (``in_kernel``, which reads ker T_h). A circle root of g, or of h when
    ker T_g is nontrivial, raises NotInvertibleOnCircle."""
    Kg = kernel(g)
    return not Kg.dimension or in_kernel(Kg.maximal_vector(), h)


def equals(g, h) -> bool:
    """ker T_g equals ker T_h: equal dimensions, and ker T_g contained in
    ker T_h (``includes``)."""
    g, h = as_symbol(g), as_symbol(h)
    return kernel(g).dimension == kernel(h).dimension and includes(g, h)


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
    # conj(g_minus) outer, read on g_minus: poles in the open disc, no zero
    # outside the closed disc, neither at infinity
    bounded = g_minus.in_conjugate_hardy2() and g_minus.order_at_infinity == 0
    if g_minus.is_zero or not bounded or g_minus.zero_classification().outside:
        raise PreconditionViolation("g_minus is not conjugate-outer")
    if not g_plus.is_outer():
        raise PreconditionViolation("g_plus is not outer in the Hardy space")
    if not is_rigid(g_plus):
        raise PreconditionViolation("g_plus does not span a one-dimensional kernel (not rigid)")
    n = theta.degree
    expected = 0 if N <= 0 else n * N
    assembled = RationalFunction._product((g_minus, theta.to_rational() ** (-N)), (g_plus,))
    computed = kernel(ToeplitzSymbol(assembled)).dimension
    if computed != expected:
        raise PreconditionViolation(
            f"assembled symbol has kernel dimension {computed}, expected {expected}"
        )
    return expected

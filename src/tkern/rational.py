"""Rational-function arithmetic over complex floating scalars.

Everything downstream (factorizations, kernels, multipliers) is built on
three types defined here: ``ComplexPolynomial`` (coefficient lists in
ascending degree order), ``RationalFunction`` (a gain with its zeros and
poles), and ``ToeplitzSymbol`` (a rational function read on the unit
circle, with its invertibility and winding number computed from the
roots on each access).

Conventions:
  * a rational function is stored in factored form, as its gain and its
    zeros and poles with multiplicity; its coefficients, with a monic
    denominator, are derived on demand and cached;
  * products, quotients, powers, circle conjugation and Moebius
    composition move or merge the root multisets; only coefficient input
    and sums find roots (``poly_roots``);
  * one single-linkage grouping (``_group_roots``) decides which roots are
    the same root, in root finding and in reduction: roots that match
    within a relative tolerance are linked, and a chain of links is one
    root. Reduction groups zeros and poles together at ``EPS_ROOT``, and
    in each group the zeros cancel the poles, so the quotient is always
    reduced;
  * roots are classified against the unit circle with band ``EPS_CIRCLE``.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import (
    ClassificationWarning,
    NotInvertibleOnCircle,
    OutOfRange,
    ZeroDenominator,
    ZeroFunction,
    ZeroPolynomial,
)

# A coefficient of a sum is zero when it cancels to at most this fraction
# of its summands' rounding scale (``RationalFunction.__add__``). Display
# hides coefficients at most this fraction of the largest one
# (``format_polynomial``); the value keeps them.
EPS_COEFF = 1e-12
# Relative tolerance for folding roots into multiplicities and for
# cancelling matching numerator/denominator roots.
EPS_ROOT = 1e-7
# Half-width of the "on the unit circle" classification band.
EPS_CIRCLE = 1e-9
# Roots with | |root|-1 | inside [EPS_CIRCLE, NEAR_CIRCLE) trigger a
# ClassificationWarning: the band cannot prove they are off the circle.
NEAR_CIRCLE = 1e-6
# The one grouping radius (relative) of root finding, applied to the
# Newton-stepped eigenvalues. A root with no other root this close is
# simple and is reported with its step. Closer roots form a near-multiple
# group whose monic factor is re-derived by Newton refinement on the factor
# coefficients: eigenvalues alone are not backward-stable enough there,
# and the step moves the members of a split multiple root asymmetrically,
# which ruins re-expanded products. Genuinely distinct roots caught by the
# net re-separate when the refined factor is re-rooted, so the radius errs
# on the large side.
COARSE_CLUSTER = 1e-2


def _power(c: complex, n: int) -> complex:
    """c**n, raising OutOfRange where Python's power overflows."""
    try:
        return c**n
    except OverflowError:
        raise OutOfRange(f"({c})**{n} overflows double precision") from None


def _nonzero_gain(gain) -> complex:
    """``gain`` as the gain of a nonzero function. A product of nonzero
    gains that rounded to 0, to a subnormal or to inf would make the
    factored form hold another function, so it raises OutOfRange."""
    gain = complex(gain)
    if not sys.float_info.min <= abs(gain) < np.inf:
        raise OutOfRange(f"the gain {gain} of a nonzero function is outside double precision")
    return gain


def _trim(coeffs) -> np.ndarray:
    """Normalize a coefficient array: drop trailing exact zeros. All-zero
    input trims to an empty array (the canonical zero polynomial)."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
    if not np.isfinite(c).all():
        raise ValueError("non-finite polynomial coefficients")
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1 if nonzero.size else 0].copy()


class ComplexPolynomial:
    """Polynomial with complex coefficients, ascending degree order.

    The zero polynomial has an empty coefficient list and degree -1.
    Instances are immutable values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, ComplexPolynomial):
            c = coeffs.coeffs
        else:
            c = _trim(coeffs)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexPolynomial is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def lead(self) -> complex:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return complex(self.coeffs[-1])

    def __call__(self, z):
        if self.is_zero:
            return np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0j
        return npoly.polyval(z, self.coeffs)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ComplexPolynomial":
        if isinstance(other, ComplexPolynomial):
            return other
        if np.isscalar(other) or isinstance(other, complex):
            return ComplexPolynomial([complex(other)])
        return ComplexPolynomial(other)

    @staticmethod
    def from_roots(roots, lead: complex = 1.0) -> "ComplexPolynomial":
        """lead * prod (z - r) over ``roots`` (bare roots or (root,
        multiplicity) pairs). The degree is the root count: the expanded
        coefficients are not trimmed, however small the leading one. An
        expansion that overflows raises OutOfRange."""
        if lead == 0:
            return ComplexPolynomial()
        flat = []
        for item in roots:
            if isinstance(item, tuple):
                r, m = item
                flat.extend([r] * int(m))
            else:
                flat.append(item)
        n = len(flat)
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        # multiply in place by one (z - r) at a time; the monic product of
        # the first k factors fills c[n - k:], in ascending order
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for k, r in enumerate(flat):
                c[n - k - 1 : n] -= r * c[n - k :]
            c *= lead
        if not np.isfinite(c).all():
            raise OutOfRange("polynomial coefficients overflow double precision")
        c.setflags(write=False)
        p = object.__new__(ComplexPolynomial)
        object.__setattr__(p, "coeffs", c)
        return p

    # -- comparison / display ----------------------------------------------

    def is_close(self, other, tol: float = 1e-9) -> bool:
        other = self._coerce(other)
        n = max(self.coeffs.size, other.coeffs.size, 1)
        a = np.zeros(n, dtype=complex)
        b = np.zeros(n, dtype=complex)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
        return bool(np.max(np.abs(a - b)) <= tol * scale)

    def __repr__(self):
        return f"ComplexPolynomial({list(self.coeffs)})"

    def __str__(self):
        return format_polynomial(self)


def poly_roots(p: ComplexPolynomial) -> list[tuple[complex, int]]:
    """All roots of ``p`` with multiplicities, sorted lexicographically by
    (real, imaginary) part.

    Only exactly zero low-order coefficients give roots at the origin. The
    other roots are companion-matrix eigenvalues, each given one Newton
    step (``_newton_step``) and then grouped once (``_group_roots``) at
    ``COARSE_CLUSTER`` (relative). A lone root is reported as it is. A
    near-multiple group is re-derived from its Newton-refined monic factor,
    so that re-expanded products of the reported roots reproduce the
    coefficients; the factor's roots are grouped again at the noise floor
    of an m-fold root, and each group is one root at its mean. A companion
    matrix that overflows (a coefficient over the leading one is not a
    double) raises OutOfRange.
    """
    p = ComplexPolynomial._coerce(p)
    if p.is_zero:
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    c = p.coeffs
    k0 = int(np.flatnonzero(c)[0])
    out: list[tuple[complex, int]] = [(0j, k0)] if k0 else []
    c = c[k0:]
    if c.size == 2:
        out.append((complex(-c[0] / c[1]), 1))
    if c.size <= 2:
        return _sorted_roots(out)

    # the companion matrix as numpy's polycompanion builds it, so that the
    # eigenvalues are those of npoly.polyroots
    with np.errstate(over="ignore", invalid="ignore"):
        last = c[:-1] / c[-1]
    if not np.isfinite(last).all():
        raise OutOfRange("the companion matrix of a polynomial overflows double precision")
    mat = np.eye(c.size - 1, k=-1, dtype=complex)
    mat[:, -1] -= last
    raw = np.linalg.eigvals(mat)
    raw.sort()
    # one Newton step on every eigenvalue before grouping: it also pulls in
    # the eigenvalue ring of a multiple root, which can start out wider
    # than COARSE_CLUSTER
    points = _newton_step(c, raw.tolist())
    for group in _group_roots(points, COARSE_CLUSTER):
        if len(group) == 1:
            out.append((points[group[0]], 1))
            continue
        m = len(group)
        factor = _refine_factor(c, npoly.polyfromroots([points[i] for i in group]))
        # noise floor of an m-fold root: below it the subroots are one root
        noise = max(EPS_ROOT, 10.0 * float(np.finfo(float).eps) ** (1.0 / m))
        sub = npoly.polyroots(factor).tolist()
        out.extend((_mean([(sub[i], 1) for i in g]), len(g)) for g in _group_roots(sub, noise))
    return _sorted_roots(out)


def _newton_step(c: np.ndarray, points: list[complex]) -> list[complex]:
    """One Newton step x - p(x)/p'(x) on each of ``points``, for the
    polynomial with ascending coefficients ``c``. The step is taken when
    p'(x) != 0, |step| < 0.5 (1 + |x|) and |p| falls; otherwise x stays.
    p and p' come from one Horner sweep in Python complex arithmetic
    (backward stable; Higham 2002, section 5.1): on a few coefficients numpy's
    fixed cost per call would dominate. A value that is not finite fails the
    comparisons, so it keeps x, and nothing warns."""
    desc = c[::-1].tolist()
    lead, rest = desc[0], desc[1:]
    out = []
    for x in points:
        val, der = lead, 0j
        for a in rest:
            der = der * x + val
            val = val * x + a
        if der != 0:
            step = val / der
            cand = x - step
            after = lead
            for a in rest:
                after = after * cand + a
            try:
                if abs(step) < 0.5 * (1.0 + abs(x)) and abs(after) < abs(val):
                    x = cand
            except OverflowError:  # abs of finite parts whose modulus overflows
                pass
        out.append(x)
    return out


def _refine_factor(parent: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Newton refinement of a monic factor of ``parent`` in its own
    coefficients: up to four rounds drive the division remainder to zero.
    Quadratically convergent near a true factor; returns the input
    unchanged when the correction is untrustworthy."""
    m = factor.size - 1
    if m < 1:
        return factor
    scale = float(np.max(np.abs(parent)))
    for _ in range(4):
        q, r = npoly.polydiv(parent, factor)
        rvec = np.zeros(m, dtype=complex)
        rvec[: r.size] = r[:m] if r.size > m else r
        if np.max(np.abs(rvec)) <= 1e-15 * scale:
            break
        M = np.zeros((m, m), dtype=complex)
        unit = np.zeros(m, dtype=complex)
        for j in range(m):
            unit[:] = 0.0
            unit[j] = 1.0
            col = npoly.polydiv(npoly.polymul(q, unit[: j + 1]), factor)[1]
            M[: col.size, j] = col[:m] if col.size > m else col
        try:
            delta = np.linalg.lstsq(M, rvec, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)) or np.max(np.abs(delta)) > 10 * COARSE_CLUSTER * max(
            1.0, float(np.max(np.abs(factor)))
        ):
            break
        factor = factor.copy()
        factor[:m] += delta
    return factor


def _sorted_roots(pairs):
    return sorted(pairs, key=lambda rm: (rm[0].real, rm[0].imag))


def _group_roots(points, tol_factor) -> list[list[int]]:
    """Single-linkage groups of ``points``, as lists of indices into it:
    x and y are linked when abs(x - y) <= tol_factor * max(1, |x|, |y|),
    and a chain of links is one group. Groups come in the order of their
    first member, members in input order. A sweep over the points sorted
    by real part tests only pairs whose real parts lie within
    tol_factor * max(1, largest |point|); the union-find is built only once
    a first link is found."""
    n = len(points)
    if n < 2:
        return [[i] for i in range(n)]
    size = [1.0 if s < 1.0 else s for s in map(abs, points)]
    w = tol_factor * max(size)
    order = sorted(range(n), key=[p.real for p in points].__getitem__)
    # parent[i] <= i: the root of a group is its first member
    parent = None
    for k in range(n - 1):
        i = order[k]
        x, sx = points[i], size[i]
        for q in range(k + 1, n):
            j = order[q]
            y, sy = points[j], size[j]
            if y.real - x.real > w:
                break
            if abs(x - y) <= tol_factor * (sx if sx > sy else sy):
                if parent is None:
                    parent = list(range(n))
                a, b = i, j
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                parent[max(a, b)] = min(a, b)
    if parent is None:
        return [[i] for i in range(n)]
    groups: dict[int, list[int]] = {}
    for i in range(n):
        parent[i] = parent[parent[i]]  # parent[i] < i is already a root
        groups.setdefault(parent[i], []).append(i)
    return list(groups.values())


def _mean(roots) -> complex:
    """Multiplicity-weighted mean of (root, multiplicity) pairs. Equal roots
    keep their value bit for bit, including the sign of a zero."""
    first = roots[0][0]
    if all(r == first for r, _ in roots):
        return first
    return sum(r * m for r, m in roots) / sum(m for _, m in roots)


def _reduce(zeros, poles) -> tuple[tuple, tuple]:
    """Group zeros and poles together at EPS_ROOT (``_group_roots``). In a
    group the zeros cancel the poles: an excess of zeros leaves one zero at
    the zeros' multiplicity-weighted mean, an excess of poles one pole at
    the poles' mean, a balance nothing. Both multisets come sorted by
    (real, imaginary) part."""
    # poles carry negative multiplicities
    roots = [(complex(r), int(m)) for r, m in zeros if m > 0]
    roots += [(complex(r), -int(m)) for r, m in poles if m > 0]
    zs, ps = [], []
    for group in _group_roots([r for r, _ in roots], EPS_ROOT):
        if len(group) == 1:
            r, m = roots[group[0]]
        else:
            m = sum(roots[i][1] for i in group)
            if not m:
                continue
            r = _mean([roots[i] for i in group if (roots[i][1] > 0) == (m > 0)])
        if m > 0:
            zs.append((r, m))
        else:
            ps.append((r, -m))
    return tuple(_sorted_roots(zs)), tuple(_sorted_roots(ps))


class RationalFunction:
    """A rational function in factored form: gain * prod (z - a)**m over
    its zeros a, divided by prod (z - b)**n over its poles b.

    The gain and the two root multisets, each a tuple of (root,
    multiplicity) pairs, are the whole state. Zeros and poles that match
    within ``EPS_ROOT`` cancel, so the quotient is always reduced. The
    coefficients ``num`` and ``den`` (monic) are derived on first use and
    cached. Only coefficient input and sums find roots; products,
    quotients, powers, circle conjugation and Moebius composition move or
    merge the multisets.
    """

    __slots__ = ("_gain", "_zeros", "_poles", "_num", "_den")

    def __init__(self, num, den=1.0):
        num = ComplexPolynomial._coerce(num)
        den = ComplexPolynomial._coerce(den)
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero:
            self._assign(0j, (), ())
        else:
            self._assign(_nonzero_gain(num.lead / den.lead), poly_roots(num), poly_roots(den))

    @classmethod
    def _from_roots(cls, gain, zeros=(), poles=()) -> "RationalFunction":
        """Package-internal constructor of a nonzero function from known
        roots: no root finding. The zero function comes from ``__init__``."""
        out = object.__new__(cls)
        out._assign(_nonzero_gain(gain), zeros, poles)
        return out

    def _assign(self, gain: complex, zeros, poles) -> None:
        zeros, poles = ((), ()) if gain == 0 else _reduce(zeros, poles)
        state = {"_gain": gain, "_zeros": zeros, "_poles": poles, "_num": None, "_den": None}
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- basic structure ---------------------------------------------------

    @property
    def num(self) -> ComplexPolynomial:
        if self._num is None:
            object.__setattr__(self, "_num", ComplexPolynomial.from_roots(self._zeros, self._gain))
        return self._num

    @property
    def den(self) -> ComplexPolynomial:
        if self._den is None:
            object.__setattr__(self, "_den", ComplexPolynomial.from_roots(self._poles))
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._gain == 0

    @property
    def is_constant(self) -> bool:
        return not self._zeros and not self._poles

    def constant_value(self) -> complex:
        if not self.is_constant:
            raise ValueError("not a constant rational function")
        return self._gain

    def __call__(self, z):
        # product form: stays accurate near clustered roots, where Horner's
        # rule on the expanded coefficients does not
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self._gain)
        for r, m in self._zeros:
            out *= (z - r) ** m
        for r, m in self._poles:
            out /= (z - r) ** m
        return out[()]

    def zeros(self) -> list[tuple[complex, int]]:
        return list(self._zeros)

    def poles(self) -> list[tuple[complex, int]]:
        return list(self._poles)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if (np.isscalar(other) or isinstance(other, complex)) and other != 0:
            return RationalFunction._from_roots(other)
        return RationalFunction(other)

    def __add__(self, other):
        """The sum over the least common denominator, so that only the
        summed numerator needs root finding. Each summand's numerator is
        expanded from its roots, and coefficient k of the sum is zero when
        it cancels to at most ``EPS_COEFF`` times the summands' rounding
        scale there: the coefficient k of |gain| prod (z + |r|) over each
        summand's roots, which bounds its expansion componentwise. A sum
        whose expansion overflows raises OutOfRange."""
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # cancelling the two pole multisets against each other leaves the
        # poles that each side lacks
        pad, other_pad = _reduce(other._poles, self._poles)
        terms = [(self._gain, self._zeros + pad), (other._gain, other._zeros + other_pad)]
        n = max(sum(m for _, m in roots) for _, roots in terms) + 1
        num, scale = np.zeros(n, dtype=complex), np.zeros(n)
        with np.errstate(over="ignore", invalid="ignore"):
            for gain, roots in terms:
                c = ComplexPolynomial.from_roots(roots, gain).coeffs
                num[: c.size] += c
                bound = ComplexPolynomial.from_roots([(-abs(r), m) for r, m in roots], abs(gain))
                scale[: c.size] += bound.coeffs.real
        if not (np.isfinite(num).all() and np.isfinite(scale).all()):
            raise OutOfRange("the expanded numerator of a sum overflows double precision")
        num[np.abs(num) <= EPS_COEFF * scale] = 0.0
        num = ComplexPolynomial(num)
        if num.is_zero:
            return RationalFunction(0.0)
        return RationalFunction._from_roots(num.lead, poly_roots(num), self._poles + pad)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return RationalFunction._from_roots(-self._gain, self._zeros, self._poles)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return self if self.is_zero else other
        return RationalFunction._from_roots(
            self._gain * other._gain, self._zeros + other._zeros, self._poles + other._poles
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDenominator("division by the zero rational function")
        if self.is_zero:
            return self
        return RationalFunction._from_roots(
            self._gain / other._gain, self._zeros + other._poles, self._poles + other._zeros
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        n = int(n)
        if self.is_zero and n != 0:
            if n < 0:
                raise ZeroDenominator("negative power of the zero function")
            return self
        zeros, poles = (self._zeros, self._poles) if n >= 0 else (self._poles, self._zeros)
        k = abs(n)
        return RationalFunction._from_roots(
            _power(self._gain, n), [(r, m * k) for r, m in zeros], [(r, m * k) for r, m in poles]
        )

    # -- circle structure ----------------------------------------------------

    def circle_conjugate(self) -> "RationalFunction":
        """The rational function agreeing with conj(self(z)) on |z| = 1.

        On the circle conj(z - r) = -conj(r) (z - 1/conj(r)) / z, so each
        root r != 0 reflects to 1/conj(r), the gain takes a factor
        -conj(r) per zero and its inverse per pole, and the degree
        difference becomes a power of z. Involution.
        """
        if self.is_zero:
            return self
        gain = self._gain.conjugate()
        zeros, poles = [], []
        for r, m in self._zeros:
            if r != 0:
                gain *= _power(-r.conjugate(), m)
                zeros.append((1 / r.conjugate(), m))
        for r, m in self._poles:
            if r != 0:
                gain /= _power(-r.conjugate(), m)
                poles.append((1 / r.conjugate(), m))
        shift = sum(m for _, m in self._poles) - sum(m for _, m in self._zeros)
        zeros.append((0j, max(shift, 0)))
        poles.append((0j, max(-shift, 0)))
        return RationalFunction._from_roots(gain, zeros, poles)

    def zero_classification(self) -> "RootClassification":
        return classify_roots(self.zeros())

    def pole_classification(self) -> "RootClassification":
        return classify_roots(self.poles())

    # Structural membership predicates used throughout the package. All of
    # them are exact pole/zero bookkeeping on the reduced form.

    def in_hardy2(self) -> bool:
        """Rational membership in the disc Hardy space: every pole lies
        strictly outside the closed unit disc."""
        pc = self.pole_classification()
        return not pc.inside and not pc.on_circle

    def is_outer(self) -> bool:
        """Outer in the rational sense: in the Hardy space with no zeros
        in the open unit disc (circle zeros are allowed)."""
        return (not self.is_zero) and self.in_hardy2() and not self.zero_classification().inside

    def is_invertible_analytic(self) -> bool:
        """The function and its reciprocal are analytic and bounded on the
        closed disc: no zeros or poles with modulus <= 1."""
        if self.is_zero:
            return False
        zc, pc = self.zero_classification(), self.pole_classification()
        return not (zc.inside or zc.on_circle or pc.inside or pc.on_circle)

    def is_invertible_coanalytic(self) -> bool:
        """The function and its reciprocal are analytic on the closed
        exterior region including infinity: all zeros and poles lie strictly
        inside the disc and the value at infinity is finite and nonzero."""
        if self.is_zero:
            return False
        zc, pc = self.zero_classification(), self.pole_classification()
        interior_only = not (zc.on_circle or zc.outside or pc.on_circle or pc.outside)
        return interior_only and sum(m for _, m in self._zeros) == sum(m for _, m in self._poles)

    def taylor(self, n: int) -> np.ndarray:
        """Taylor coefficients at 0 up to degree ``n`` (requires no pole
        exactly at the origin)."""
        if any(r == 0 for r, _ in self._poles):
            raise ZeroDenominator("pole at the origin: no Taylor expansion")
        b = self.den.coeffs
        a = np.zeros(n + 1, dtype=complex)
        take = min(n + 1, self.num.coeffs.size)
        a[:take] = self.num.coeffs[:take]
        c = np.zeros(n + 1, dtype=complex)
        for k in range(n + 1):
            acc = a[k]
            jmax = min(k, b.size - 1)
            if jmax >= 1:
                acc = acc - np.dot(b[1 : jmax + 1], c[k - 1 :: -1][:jmax])
            c[k] = acc / b[0]
        return c

    # -- comparison / display ----------------------------------------------

    def is_close(self, other, tol: float = 1e-9) -> bool:
        """Equality of reduced forms up to coefficient noise."""
        other = self._coerce(other)
        return self.num.is_close(other.num, tol) and self.den.is_close(other.den, tol)

    def __repr__(self):
        # the factored state, which every value has: expanding num and den
        # can overflow
        state = f"gain={self._gain!r}, zeros={self._zeros!r}, poles={self._poles!r}"
        return f"RationalFunction({state})"

    def __str__(self):
        return format_rational(self)


@dataclass(frozen=True)
class RootClassification:
    """Roots split by position relative to the unit circle.

    Classification uses the band ``EPS_CIRCLE``: a root with
    | |root| - 1 | < EPS_CIRCLE counts as on the circle. Roots just outside
    the band raise a ClassificationWarning, since floating data cannot
    distinguish them from circle roots.
    """

    inside: tuple
    on_circle: tuple
    outside: tuple

    def count_inside(self) -> int:
        return sum(m for _, m in self.inside)


def classify_roots(roots) -> RootClassification:
    inside, on_circle, outside = [], [], []
    for r, m in roots:
        d = abs(abs(r) - 1.0)
        if d < EPS_CIRCLE:
            on_circle.append((r, m))
            continue
        if d < NEAR_CIRCLE:
            warnings.warn(
                f"root {r:.12g} lies {d:.3g} from the unit circle, just outside "
                f"the classification band ({EPS_CIRCLE:g})",
                ClassificationWarning,
                stacklevel=3,
            )
        (inside if abs(r) < 1.0 else outside).append((r, m))
    return RootClassification(tuple(inside), tuple(on_circle), tuple(outside))


class ToeplitzSymbol:
    """A rational function read as a symbol on the unit circle.

    ``value`` is the reduced quotient (conjugations already lowered to
    powers of 1/z). ``circle_invertible`` is true exactly when the reduced
    value has no zeros and no poles on the circle; the winding number
    (zeros inside minus poles inside, with multiplicity) is defined only
    in that case. ``kernels.kernel`` stores the symbol's kernel in the
    private ``_kernel`` slot on first use.
    """

    __slots__ = ("value", "_kernel")

    def __init__(self, value):
        value = RationalFunction._coerce(value)
        if value.is_zero:
            raise ZeroFunction("the zero symbol is rejected")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_kernel", None)

    def __setattr__(self, name, value):
        raise AttributeError("ToeplitzSymbol is immutable")

    @property
    def circle_invertible(self) -> bool:
        return (
            not self.value.zero_classification().on_circle
            and not self.value.pole_classification().on_circle
        )

    @property
    def winding(self) -> int:
        zc = self.value.zero_classification()
        pc = self.value.pole_classification()
        if zc.on_circle or pc.on_circle:
            raise NotInvertibleOnCircle(
                "symbol has a zero or pole on the unit circle; winding undefined"
            )
        return zc.count_inside() - pc.count_inside()

    def conjugate(self) -> "ToeplitzSymbol":
        return ToeplitzSymbol(self.value.circle_conjugate())

    def __mul__(self, other):
        other = as_symbol(other)
        return ToeplitzSymbol(self.value * other.value)

    def __truediv__(self, other):
        other = as_symbol(other)
        return ToeplitzSymbol(self.value / other.value)

    def __call__(self, z):
        return self.value(z)

    def __repr__(self):
        return f"ToeplitzSymbol({self.value!r})"

    def __str__(self):
        return format_rational(self.value)


def as_rational(x) -> RationalFunction:
    if isinstance(x, ToeplitzSymbol):
        return x.value
    return RationalFunction._coerce(x)


def as_symbol(x) -> ToeplitzSymbol:
    if isinstance(x, ToeplitzSymbol):
        return x
    return ToeplitzSymbol(as_rational(x))


def circle_conjugate(r):
    """Free-function form of ``RationalFunction.circle_conjugate``; accepts
    symbols, rationals, polynomials or scalars."""
    if isinstance(r, ToeplitzSymbol):
        return r.conjugate()
    return as_rational(r).circle_conjugate()


def _compose_mobius(r: RationalFunction, a, b, c, d) -> RationalFunction:
    """r(M(z)) for the Moebius map M(z) = (a z + b)/(c z + d), c != 0.

    M(z) - p = ((a - c p) z + (b - d p))/(c z + d), so each root p moves
    to (d p - b)/(a - c p) and puts a - c p into the gain; a root at a/c
    (the image of infinity) leaves only the constant b - d p. The degree
    difference becomes a power of c z + d. No root finding.
    """
    if r.is_zero:
        return r

    def move(roots):
        factor, moved = 1.0, []
        for p, m in roots:
            if abs(p - a / c) <= EPS_ROOT * max(1.0, abs(p)):
                factor *= _power(b - d * p, m)
            else:
                factor *= _power(a - c * p, m)
                moved.append(((d * p - b) / (a - c * p), m))
        return factor, moved

    zero_factor, zeros = move(r._zeros)
    pole_factor, poles = move(r._poles)
    shift = sum(m for _, m in r._poles) - sum(m for _, m in r._zeros)
    zeros.append((-d / c, max(shift, 0)))
    poles.append((-d / c, max(-shift, 0)))
    gain = r._gain * zero_factor / pole_factor * _power(c, shift)
    return RationalFunction._from_roots(gain, zeros, poles)


def winding_number(s) -> int:
    """Zeros inside the circle minus poles inside, with multiplicity."""
    return as_symbol(s).winding


def monomial(k: int) -> RationalFunction:
    """z**k as a rational function; negative k gives 1/z**(-k)."""
    return RationalFunction._from_roots(1.0, [(0j, max(k, 0))], [(0j, max(-k, 0))])


Z = monomial(1)


# -- canonical printing ----------------------------------------------------


def format_complex(c) -> str:
    """Deterministic complex scalar display: real part before imaginary,
    12 significant digits, trailing 'i' for the imaginary part."""
    c = complex(c)
    re, im = c.real, c.imag
    scale = max(abs(re), abs(im))
    if scale > 0:
        if abs(re) <= 1e-13 * scale:
            re = 0.0
        if abs(im) <= 1e-13 * scale:
            im = 0.0
    if im == 0.0:
        return f"{re:.12g}"
    if re == 0.0:
        return f"{im:.12g}i"
    sign = "+" if im > 0 else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}i"


def format_polynomial(p: ComplexPolynomial, variable: str = "z") -> str:
    p = ComplexPolynomial._coerce(p)
    if p.is_zero:
        return "0"
    scale = np.max(np.abs(p.coeffs))
    terms = []
    for j, cj in enumerate(p.coeffs):
        if abs(cj) <= EPS_COEFF * scale:
            continue
        cs = format_complex(cj)
        needs_parens = ("+" in cs[1:]) or ("-" in cs[1:]) or cs.endswith("i")
        if j == 0:
            terms.append(f"({cs})" if needs_parens else cs)
            continue
        zpow = variable if j == 1 else f"{variable}^{j}"
        if cs == "1":
            terms.append(zpow)
        elif cs == "-1":
            terms.append(f"-{zpow}")
        elif needs_parens:
            terms.append(f"({cs})*{zpow}")
        else:
            terms.append(f"{cs}*{zpow}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def format_rational(r: RationalFunction, variable: str = "z") -> str:
    r = RationalFunction._coerce(r)
    num = format_polynomial(r.num, variable)
    if r.den.degree == 0 and abs(r.den.coeffs[0] - 1.0) <= 1e-13:
        return num
    den = format_polynomial(r.den, variable)
    nwrap = f"({num})" if (" " in num) else num
    return f"{nwrap}/({den})"

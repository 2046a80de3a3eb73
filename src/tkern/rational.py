"""Rational-function arithmetic over complex floating scalars.

Everything downstream (factorizations, kernels, multipliers) is built on
three types defined here: ``ComplexPolynomial`` (a tuple of complex
coefficients in ascending degree order), ``RationalFunction`` (a gain with
its zeros and poles), and ``ToeplitzSymbol`` (a rational function read on
the unit circle, with its invertibility and winding number read from the
circle classification of its value's roots).

Conventions:
  * a rational function is stored in factored form, as its gain and its
    zeros and poles with multiplicity. What a value derives (coefficients
    with a monic denominator, the circle classification of its zeros and
    of its poles, a symbol's kernel) is computed on first use and kept;
  * products, quotients, powers, circle conjugation and Moebius
    composition move or merge the root multisets, and a polynomial built
    by ``ComplexPolynomial.from_roots`` keeps its roots; only coefficient
    input and sums find roots (``poly_roots``);
  * a polynomial built from roots expands its coefficients (``_expand``)
    on their first read, and at construction only where an expansion could
    overflow (``EXPANSION_BOUND``), so that an overflow is refused there;
  * one single-linkage grouping (``_group_roots``) decides which roots are
    the same root, in root finding and in reduction: roots that match
    within a relative tolerance are linked, and a chain of links is one
    root. Reduction groups zeros and poles together at ``EPS_ROOT``, and
    in each group the zeros cancel the poles, so the quotient is always
    reduced;
  * every root of a factored form is a finite double; one outside double
    range raises ``OutOfRange`` (in ``_group_roots``, which every root of a
    factored form passes through);
  * roots are classified against the unit circle with band ``EPS_CIRCLE``;
  * coefficients and values at a number are computed in Python ``complex``
    arithmetic. Numpy is imported only where arrays are needed: the
    companion-matrix eigenvalues of ``poly_roots`` at degree 3 and more
    (degree 2 is solved in closed form), the refinement of a near-multiple
    factor, ``RationalFunction.taylor``, evaluation at an array, and
    ``ComplexPolynomial.coeffs``, the coefficients as an array built on
    access.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
import warnings
from itertools import zip_longest
from numbers import Integral, Number, Real

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
# hides a coefficient of a rational function at most this fraction of its
# rounding scale (``format_rational``); the value keeps it.
EPS_COEFF = 1e-12
# Relative tolerance for folding roots into multiplicities and for
# cancelling matching numerator/denominator roots.
EPS_ROOT = 1e-7
# Half-width of the "on the unit circle" classification band.
EPS_CIRCLE = 1e-9
# A Blaschke parameter a must satisfy |a| < BLASCHKE_RADIUS, in
# ``BlaschkeProduct`` and the parser's ``B(a)``: the zero a and the pole
# 1/conj(a) cancel when 1 - |a|^2 <= EPS_ROOT, and by rounding one ulp inside.
BLASCHKE_RADIUS = math.sqrt(1.0 - EPS_ROOT) - sys.float_info.epsilon
# Roots with | |root|-1 | inside [EPS_CIRCLE, NEAR_CIRCLE) trigger a
# ClassificationWarning: the band cannot prove they are off the circle.
NEAR_CIRCLE = 1e-6
# The one grouping radius (relative) of root finding, applied to the
# Newton-stepped eigenvalues and to a quadratic's closed-form roots. A root
# with no other root this close is simple and is reported as it is. Closer
# roots form a near-multiple group whose monic factor is re-derived by
# Newton refinement on the factor coefficients: eigenvalues alone are not
# backward-stable enough there, and the step moves the members of a split
# multiple root asymmetrically, which ruins re-expanded products.
# Genuinely distinct roots caught by the net re-separate when the refined
# factor is re-rooted, so the radius errs on the large side.
COARSE_CLUSTER = 1e-2
# A polynomial built from roots defers its expansion when the coefficient
# bound |lead| prod (1 + |r|)^m is below this, far enough below the largest
# double that the rounded coefficients cannot overflow.
EXPANSION_BOUND = 1e300


def _power(c: complex, n: int) -> complex:
    """c**n, raising OutOfRange where Python's power overflows."""
    try:
        return c**n
    except OverflowError:
        raise OutOfRange(f"({c})**{n} overflows double precision") from None


def _nonzero_gain(gain) -> complex:
    """``gain`` as the gain of a nonzero function. A product of nonzero
    gains that rounded to 0, to a subnormal or to inf, or whose modulus is
    beyond double range, would make the factored form hold another
    function, so it raises OutOfRange."""
    gain = complex(gain)
    try:
        if sys.float_info.min <= abs(gain) < math.inf:
            return gain
    except OverflowError:  # finite parts, but the modulus is not a double
        pass
    raise OutOfRange(f"the gain {gain} of a nonzero function is outside double precision")


class Frozen:
    """Base of every tkern value: an instance refuses assignment and
    deletion. Constructors and caches set state with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    """Base of the package's frozen records, in place of frozen dataclasses,
    which generate and compile each record's methods in every process.

    The annotated class attributes of a subclass are its fields, in
    constructor order, and a field's class value, where it has one, is its
    default: an instance that was not given the field reads it from the
    class. A record takes its fields positionally or by keyword, refuses
    assignment, compares and hashes by class and fields, and shows as
    ``Name(field=value, ...)``. Instances keep their fields in
    ``__dict__``, so ``cached_property`` works on them. A call that gives
    every field by position, and no keyword, stores them with no checks
    to make."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if not kwargs and len(args) == len(fields):
            self.__dict__.update(zip(fields, args))
            return
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{cls.__name__} got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in fields:
            if name not in values and name not in cls.__dict__:  # no default
                raise TypeError(f"{cls.__name__} is missing the argument {name!r}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((self.__class__, self._values()))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def _multiplicity(m) -> int:
    """``m`` as an int; ValueError unless it is an integer >= 1."""
    # the type test first: the check against the Integral ABC alone costs
    # about 0.55 us, paid for every root of every expansion
    if type(m) is int and m >= 1:
        return m
    if isinstance(m, Integral) and m >= 1:
        return int(m)
    raise ValueError(f"multiplicity must be an integer >= 1, got {m!r}")


def _integer(n, name: str) -> int:
    if isinstance(n, Integral) or isinstance(n, Real) and float(n).is_integer():
        return int(n)
    raise ValueError(f"{name} must be an integer, got {n!r}")


def _scalar(x) -> complex:
    """``x`` as a Python complex. Only numbers are taken: a string that
    ``complex`` would parse raises TypeError like any other non-number."""
    if not isinstance(x, Number):
        raise TypeError(f"not a number: {x!r}")
    return complex(x)


def _trim(coeffs) -> tuple:
    """Normalize coefficients (a number, or an iterable of numbers in
    ascending order) to a tuple of complex: drop trailing exact zeros.
    All-zero input trims to an empty tuple (the canonical zero
    polynomial)."""
    c = [_scalar(coeffs)] if isinstance(coeffs, Number) else [_scalar(x) for x in coeffs]
    if not all(map(cmath.isfinite, c)):
        raise ValueError("non-finite polynomial coefficients")
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class ComplexPolynomial(Frozen):
    """Polynomial with complex coefficients, ascending degree order.

    The coefficients are a tuple of Python ``complex`` (``_coeffs``);
    ``coeffs`` gives them as a read-only numpy array, built on each access.
    The zero polynomial has no coefficients and degree -1. A polynomial
    built by ``from_roots`` keeps its roots as given, as (root,
    multiplicity) pairs, and its lead, and derives its coefficients on
    their first read and keeps them: its degree, leading coefficient and
    zero test read the roots and expand nothing. A copy keeps this state,
    expanded or not; coefficient input has no roots (``_roots`` is None).
    Instances are immutable values.
    """

    __slots__ = ("_expansion", "_roots", "_lead")

    def __init__(self, coeffs=()):
        if isinstance(coeffs, ComplexPolynomial):
            state = coeffs._expansion, coeffs._roots, coeffs._lead
        else:
            state = _trim(coeffs), None, None
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    # -- basic structure ---------------------------------------------------

    @property
    def _coeffs(self) -> tuple:
        """The coefficients as a tuple of complex, expanded from the roots
        on first read (``_expand``) and kept."""
        if self._expansion is None:
            object.__setattr__(self, "_expansion", _expand(self._roots, self._lead))
        return self._expansion

    @property
    def coeffs(self):
        """The coefficients as a read-only numpy array."""
        import numpy as np

        c = np.array(self._coeffs, dtype=complex)
        c.setflags(write=False)
        return c

    @property
    def degree(self) -> int:
        if self._roots is None:
            return len(self._expansion) - 1
        return sum(m for _, m in self._roots)  # the root count, untrimmed

    @property
    def is_zero(self) -> bool:
        return self._roots is None and not self._expansion

    @property
    def lead(self) -> complex:
        if self._roots is not None:  # the last coefficient of the expansion, to the bit
            return (1 + 0j) * self._lead
        if not self._expansion:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._expansion[-1]

    def __call__(self, z):
        """p(z) by Horner's rule, in the order of numpy's ``polyval``: a
        number gives a Python complex, an array an array."""
        if isinstance(z, Number):
            z = complex(z)
        c = self._coeffs
        if not c:
            return 0j if isinstance(z, complex) else 0j * z
        # a fresh value of z's shape: an array is updated in place
        val = c[-1] + z * 0
        for a in c[-2::-1]:
            val *= z
            val += a
        return val

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "ComplexPolynomial":
        return other if isinstance(other, ComplexPolynomial) else ComplexPolynomial(other)

    @staticmethod
    def from_roots(roots, lead: complex = 1.0) -> "ComplexPolynomial":
        """lead * prod (z - r) over ``roots`` (bare roots or (root,
        multiplicity) pairs, each multiplicity an integer >= 1). The degree
        is the root count: the expanded coefficients are not trimmed,
        however small the leading one. The roots are kept, so a
        ``RationalFunction`` built from this polynomial finds none. Every
        root and multiplicity is checked, with lead 0 too: a root that is
        not finite, an expansion that overflows, or a degree that no list
        can hold raises OutOfRange. The coefficients are expanded on their
        first read, unless their bound |lead| prod (1 + |r|)^m is not below
        ``EXPANSION_BOUND``: then they are expanded here, so that an
        overflow is refused at construction."""
        # the roots at 0 become a shift; the degree is summed before any
        # coefficient is allocated
        factors, shift, degree = [], 0, 0
        for item in roots:
            r, m = item if isinstance(item, tuple) else (item, 1)
            m = _multiplicity(m)
            r = complex(r)
            if not cmath.isfinite(r):
                _bad_root()
            degree += m
            if r == 0:
                shift += m
            else:
                factors.append((r, m))
        if lead == 0:
            return ComplexPolynomial()
        if degree > sys.maxsize:  # no list can hold the coefficients
            raise OutOfRange(f"a polynomial of degree {degree} has no coefficient form")
        lead = complex(lead)
        p = object.__new__(ComplexPolynomial)
        object.__setattr__(p, "_expansion", None)
        object.__setattr__(p, "_roots", (*factors, (0j, shift)) if shift else tuple(factors))
        object.__setattr__(p, "_lead", lead)
        try:
            bound = abs(lead) * math.prod([(1.0 + abs(r)) ** m for r, m in factors])
        except OverflowError:  # a power, or the modulus of finite parts, is not a double
            bound = math.inf
        # an expansion that could overflow is made here, where it is refused
        if not bound < EXPANSION_BOUND and not all(map(cmath.isfinite, p._coeffs)):
            raise OutOfRange("polynomial coefficients overflow double precision")
        return p

    # -- comparison / display ----------------------------------------------

    def is_close(self, other, tol: float = 1e-9) -> bool:
        pairs = list(zip_longest(self._coeffs, self._coerce(other)._coeffs, fillvalue=0j))
        scale = max([1.0, *(abs(c) for pair in pairs for c in pair)])
        return max((abs(a - b) for a, b in pairs), default=0.0) <= tol * scale

    def __repr__(self):
        return f"ComplexPolynomial({list(self._coeffs)})"

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
    double) raises OutOfRange. A root of degree 1 is -c0/c1; the roots of
    degree 2 come from the quadratic formula on the monic coefficients, in
    its form that does not cancel, and take the eigenvalues only where the
    formula overflows. Both are Python complex arithmetic, checked by the
    same grouping pass; numpy is imported only for the eigenvalues, from
    degree 3 on, and for the refinement of a near-multiple group.
    """
    p = ComplexPolynomial._coerce(p)
    if p.is_zero:
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    c = p._coeffs
    k0 = 0
    while c[k0] == 0:
        k0 += 1
    out: list[tuple[complex, int]] = [(0j, k0)] if k0 else []
    c = c[k0:]
    if len(c) == 1:
        return out
    points = None
    if len(c) == 2:
        points = [-c[0] / c[1]]
    else:
        monic = [a / c[-1] for a in c[:-1]]
        if not all(map(cmath.isfinite, monic)):
            raise OutOfRange("the companion matrix of a polynomial overflows double precision")
        if len(monic) == 2:
            # z^2 + b z + q: the sign of d makes |b + d| >= |b - d|, so h does
            # not cancel, and q / h is the other root (Higham 2002, section 1.8)
            q, b = monic
            d = cmath.sqrt(b * b - 4 * q)
            h = -(b - d if (b.conjugate() * d).real < 0 else b + d) / 2
            if h and cmath.isfinite(h):  # else b * b overflowed or q underflowed
                points = [h, q / h]
    if points is None:
        import numpy as np

        # the companion matrix as numpy's polycompanion builds it, so that
        # the eigenvalues are those of npoly.polyroots: ones below the diagonal
        n = len(monic)
        mat = np.zeros((n, n), dtype=complex)
        mat.flat[n :: n + 1] = 1
        mat[:, -1] -= monic
        raw = np.linalg.eigvals(mat)
        raw.sort()
        # one Newton step on every eigenvalue before grouping: it also pulls
        # in the eigenvalue ring of a multiple root, which can start out
        # wider than COARSE_CLUSTER
        points = _newton_step(np.array(c, dtype=complex), raw.tolist())
    for group in _group_roots(points, COARSE_CLUSTER):
        if len(group) == 1:
            out.append((points[group[0]], 1))
            continue
        import numpy.polynomial.polynomial as npoly

        m = len(group)
        factor = _refine_factor(c, npoly.polyfromroots([points[i] for i in group]))
        # noise floor of an m-fold root: below it the subroots are one root
        noise = max(EPS_ROOT, 10.0 * sys.float_info.epsilon ** (1.0 / m))
        sub = npoly.polyroots(factor).tolist()
        out.extend((_mean([(sub[i], 1) for i in g]), len(g)) for g in _group_roots(sub, noise))
    return _sorted_roots(out)


def _newton_step(c, points: list[complex]) -> list[complex]:
    """One Newton step x - p(x)/p'(x) on each of ``points``, for the
    polynomial with ascending coefficients ``c`` (a numpy array). The step
    is taken when p'(x) != 0, |step| < 0.5 (1 + |x|) and |p| falls;
    otherwise x stays.
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


def _refine_factor(parent, factor):
    """Newton refinement of a monic factor (a numpy array) of ``parent``
    (ascending coefficients) in the factor's own coefficients: up to four
    rounds drive the division remainder to zero. Quadratically convergent
    near a true factor; returns the input unchanged when the correction is
    untrustworthy."""
    import numpy as np
    import numpy.polynomial.polynomial as npoly

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
        if not np.all(np.isfinite(M)) or not np.all(np.isfinite(rvec)):
            break  # an untrustworthy correction; lstsq would print LAPACK errors to stdout
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


def _bad_root():
    raise OutOfRange("a root is outside double precision") from None


def _expand(roots, lead: complex) -> tuple:
    """The ascending coefficients of lead * prod (z - r)**m over the
    (root, multiplicity) pairs ``roots``, each root at 0 a shift."""
    # the monic product, ascending; times (z - r), coefficient k becomes
    # c[k - 1] - r c[k]
    c, shift = [1 + 0j], 0
    for r, m in roots:
        if r == 0:
            shift += m
            continue
        for _ in range(m):
            c = [0j - r * c[0], *[a - r * b for a, b in zip(c, c[1:])], c[-1]]
    return tuple(a * lead for a in [0j] * shift + c)


def _group_roots(points, tol_factor) -> list[list[int]]:
    """Single-linkage groups of ``points``, as lists of indices into it:
    x and y are linked when abs(x - y) <= tol_factor * max(1, |x|, |y|),
    and a chain of links is one group. Groups come in the order of their
    first member, members in input order. Only pairs whose real parts lie
    within w = tol_factor * max(1, largest |point|) can link: when no two
    neighbours in real-part order do, every point is its own group and no
    pair is tested. Otherwise a sweep over the points sorted by real part
    tests the pairs within w, and the union-find is built only once a
    first link is found. Every root of a factored form passes through
    here, and one that is not finite, or whose modulus is not a double,
    raises OutOfRange, at every n."""
    n = len(points)
    try:
        if n < 2:
            if n and not abs(points[0]) < math.inf:
                _bad_root()
            return [[i] for i in range(n)]
        # an inf or nan modulus fails both comparisons
        size = [1.0 if s < 1.0 else s if s < math.inf else _bad_root() for s in map(abs, points)]
    except OverflowError:  # abs of finite parts whose modulus is not a double
        _bad_root()
    w = tol_factor * max(size)
    reals = [p.real for p in points]
    xs = sorted(reals)
    if min(map(operator.sub, xs[1:], xs)) > w:  # no pair within w can link
        return [[i] for i in range(n)]
    order = sorted(range(n), key=reals.__getitem__)
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


def _rounding_scale(terms) -> list[float]:
    """The rounding scale of the expanded sum of ``terms``, (gain, roots)
    pairs: coefficient k is the sum over the terms of coefficient k of
    |gain| prod (z + |r|) over the term's roots, which bounds the term's
    expansion componentwise. A coefficient at most ``EPS_COEFF`` of its
    scale is rounding noise."""
    bounds = [
        ComplexPolynomial.from_roots([(-abs(r), m) for r, m in roots], abs(gain))._coeffs
        for gain, roots in terms
    ]
    scale = [0.0] * max(map(len, bounds))
    for bound in bounds:
        for k, b in enumerate(bound):
            scale[k] += b.real
    return scale


def _reduce(zeros, poles) -> tuple[tuple, tuple]:
    """Group zeros and poles together at EPS_ROOT, in one ``_group_roots``
    pass over every entry (an exact repeat lies at distance 0 and joins its
    copies' group). In a group the zeros cancel the poles: an excess of
    zeros leaves one zero at the zeros' multiplicity-weighted mean, an
    excess of poles one pole at the poles' mean, a balance nothing. When
    no entry links, the zeros and poles are kept as given. Both multisets
    come sorted by (real, imaginary) part.

    One pass guarantees that no two entries of the input within EPS_ROOT
    of each other survive apart. It does not guarantee the same of its
    output: the means of two groups can end up within EPS_ROOT of each
    other, so a second pass may merge or cancel them, and reduction is
    not always idempotent."""
    zs = [(complex(r), int(m)) for r, m in zeros if m > 0]
    ps = [(complex(r), int(m)) for r, m in poles if m > 0]
    groups = _group_roots([r for r, _ in zs] + [r for r, _ in ps], EPS_ROOT)
    if len(groups) == len(zs) + len(ps):  # no link: every entry is kept
        return tuple(_sorted_roots(zs)), tuple(_sorted_roots(ps))
    # poles carry negative multiplicities
    roots = zs + [(r, -m) for r, m in ps]
    zs, ps = [], []
    for group in groups:
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


def _quotient_zero_count(zeros, poles) -> int | None:
    """None when ``_reduce(zeros, poles)`` leaves a pole, else the number of
    zeros it leaves, with multiplicity, read from the net multiplicity of
    each distinct value (zeros +, poles -; 0j and -0j are one value) with no
    root value formed. Reduction keeps the signed total, and a group leaves
    a pole exactly when its net is negative, so the distinct values are
    grouped at EPS_ROOT, once, only when some value's net is negative."""
    net: dict[complex, int] = {}
    for r, m in zeros:
        if m > 0:
            net[r] = net.get(r, 0) + m
    for r, m in poles:
        if m > 0:
            net[r] = net.get(r, 0) - m
    if min(net.values(), default=0) >= 0:
        return sum(net.values())
    points = list(net)
    counts = [sum(net[points[i]] for i in g) for g in _group_roots(points, EPS_ROOT)]
    return None if min(counts) < 0 else sum(counts)


class RationalFunction(Frozen):
    """A rational function in factored form: gain * prod (z - a)**m over
    its zeros a, divided by prod (z - b)**n over its poles b.

    The gain and the two root multisets, each a tuple of (root,
    multiplicity) pairs, are the whole state. Zeros and poles that match
    within ``EPS_ROOT`` cancel, so the quotient is always reduced. The
    coefficients ``num`` and ``den`` (monic) and the circle classifications
    are derived on first use and kept. Only coefficient input and sums find
    roots: a polynomial built by ``ComplexPolynomial.from_roots`` gives the
    roots it keeps, and products, quotients, powers, circle conjugation and
    Moebius composition move or merge the multisets.
    """

    __slots__ = ("_gain", "_zeros", "_poles", "_num", "_den", "_zero_split", "_pole_split")

    def __init__(self, num, den=1.0):
        num = ComplexPolynomial._coerce(num)
        den = ComplexPolynomial._coerce(den)
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        if num.is_zero:
            self._assign(0j, (), ())
        else:
            gain = _nonzero_gain(num.lead / den.lead)
            # a polynomial built from its roots keeps them: only coefficient input is solved
            roots = [poly_roots(p) if p._roots is None else p._roots for p in (num, den)]
            self._assign(gain, *_reduce(*roots))

    @classmethod
    def _from_roots(cls, gain, zeros=(), poles=()) -> "RationalFunction":
        """Package-internal constructor of a nonzero function from known
        roots, reduced once: no root finding. The zero function comes from
        ``__init__``."""
        return cls._reduced(_nonzero_gain(gain), *_reduce(zeros, poles))

    @classmethod
    def _reduced(cls, gain, zeros, poles, pole_split=None) -> "RationalFunction":
        """Package-internal constructor of a value whose state is already
        reduced: a nonzero double gain, and root multisets that one
        ``_reduce`` pass left, or sub-multisets of them, so sorted by (real,
        imaginary) part. One pass does not always leave its roots more than
        ``EPS_ROOT`` apart (see ``_reduce``), and such a pair is kept as it
        is. ``pole_split``, when given, is the circle classification of
        ``poles``."""
        out = object.__new__(cls)
        out._assign(gain, zeros, poles, pole_split)
        return out

    def _assign(self, gain: complex, zeros, poles, pole_split=None) -> None:
        # the one place that sets the slots, from a reduced state; the other
        # derived slots start empty
        put = object.__setattr__
        put(self, "_gain", gain)
        put(self, "_zeros", zeros)
        put(self, "_poles", poles)
        put(self, "_num", None)
        put(self, "_den", None)
        put(self, "_zero_split", None)
        put(self, "_pole_split", pole_split)

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
        # rule on the expanded coefficients does not. A number is evaluated
        # in Python complex arithmetic and gives a Python complex, not
        # finite at a pole; an array gives an array.
        if isinstance(z, Number):
            z, out = complex(z), self._gain
            try:
                for r, m in self._zeros:
                    out *= (z - r) ** m
                for r, m in self._poles:
                    out /= (z - r) ** m
            except (ZeroDivisionError, OverflowError):
                return complex(math.inf, math.nan)
            return out
        import numpy as np

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
        if isinstance(other, Number) and other != 0:
            return RationalFunction._from_roots(other)
        return RationalFunction(other)

    def __add__(self, other):
        """The sum over the least common denominator, so that only the
        summed numerator needs root finding. Each summand's numerator is
        expanded from its roots, and coefficient k of the sum is zero when
        it cancels to at most ``EPS_COEFF`` times the summands' rounding
        scale there (``_rounding_scale``). A sum whose expansion overflows
        raises OutOfRange."""
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # cancelling the two pole multisets against each other leaves the
        # poles that each side lacks
        pad, other_pad = _reduce(other._poles, self._poles)
        terms = [(self._gain, self._zeros + pad), (other._gain, other._zeros + other_pad)]
        scale = _rounding_scale(terms)
        num = [0j] * len(scale)
        for gain, roots in terms:
            for k, a in enumerate(ComplexPolynomial.from_roots(roots, gain)._coeffs):
                num[k] += a
        try:
            if not (all(map(cmath.isfinite, num)) and all(map(math.isfinite, scale))):
                raise OverflowError
            # abs raises OverflowError too, on finite parts whose modulus is not a double
            num = [0j if abs(a) <= EPS_COEFF * b else a for a, b in zip(num, scale)]
        except OverflowError:
            raise OutOfRange("the expanded numerator of a sum overflows double precision") from None
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
        return RationalFunction._product((self, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return RationalFunction._product((self,), (other,))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    @staticmethod
    def _product(factors, divisors=(), unit_gain=False) -> "RationalFunction":
        """The product of ``factors`` over the product of ``divisors`` (rational
        functions or numbers), reduced once: the gains multiply and the root
        multisets are concatenated, a divisor's zeros as poles, so one
        ``_reduce`` groups every root of the product, where a chain of
        products and quotients would reduce once per operator. A zero factor
        gives the zero function; a zero divisor raises ZeroDenominator. With
        ``unit_gain`` the gain is 1, for a caller that reads only the roots."""
        gain, zeros, poles, is_zero = None, [], [], False
        for f in factors:
            f = RationalFunction._coerce(f)
            gain = f._gain if gain is None else gain * f._gain
            zeros += f._zeros
            poles += f._poles
            is_zero = is_zero or f.is_zero
        for d in divisors:
            d = RationalFunction._coerce(d)
            if d.is_zero:
                raise ZeroDenominator("division by the zero rational function")
            gain /= d._gain
            zeros += d._poles
            poles += d._zeros
        if is_zero:
            return RationalFunction(0.0)
        return RationalFunction._from_roots(1.0 if unit_gain else gain, zeros, poles)

    def __pow__(self, n: int):
        n = _integer(n, "n")
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
        """The rational function agreeing with conj(self(z)) on |z| = 1:
        each root r != 0 reflects to 1/conj(r) (``_reflect``), and the
        degree difference becomes a power of z. Involution."""
        if self.is_zero:
            return self
        gain, zeros = _reflect(self._gain.conjugate(), self._zeros)
        gain, poles = _reflect(gain, self._poles, divide=True)
        shift = self.order_at_infinity
        zeros.append((0j, max(shift, 0)))
        poles.append((0j, max(-shift, 0)))
        return RationalFunction._from_roots(gain, zeros, poles)

    def zero_classification(self) -> "RootClassification":
        if self._zero_split is None:
            object.__setattr__(self, "_zero_split", classify_roots(self._zeros))
        return self._zero_split

    def pole_classification(self) -> "RootClassification":
        if self._pole_split is None:
            object.__setattr__(self, "_pole_split", classify_roots(self._poles))
        return self._pole_split

    # Structural membership predicates used throughout the package. All of
    # them are exact pole/zero bookkeeping on the reduced form.

    @property
    def order_at_infinity(self) -> int:
        """Poles minus zeros, counted with multiplicity: the order of the
        zero at infinity, negative for a pole there."""
        return sum(m for _, m in self._poles) - sum(m for _, m in self._zeros)

    def in_hardy2(self) -> bool:
        """Rational membership in the disc Hardy space: every pole lies
        strictly outside the closed unit disc."""
        pc = self.pole_classification()
        return not pc.inside and not pc.on_circle

    def in_conjugate_hardy2(self) -> bool:
        """Rational membership in the conjugate Hardy space, the mirror of
        ``in_hardy2``: every pole lies strictly inside the open unit disc,
        and the function is bounded at infinity."""
        pc = self.pole_classification()
        return not pc.outside and not pc.on_circle and self.order_at_infinity >= 0

    def is_outer(self) -> bool:
        """Outer in the rational sense: in the Hardy space with no zeros
        in the open unit disc (circle zeros are allowed)."""
        return (not self.is_zero) and self.in_hardy2() and not self.zero_classification().inside

    def taylor(self, n: int):
        """Taylor coefficients at 0 up to degree ``n``, as a numpy array
        (requires no pole exactly at the origin). The numerator's
        coefficients are convolved, once per unit of multiplicity, with
        each pole p's series 1/(z - p) = -sum z^k / p^(k+1), truncated to
        n + 1 terms. An expansion that overflows holds inf or nan, with no
        warning."""
        if any(r == 0 for r, _ in self._poles):
            raise ZeroDenominator("pole at the origin: no Taylor expansion")
        import numpy as np

        c = np.zeros(n + 1, dtype=complex)
        a = self.num._coeffs[: n + 1]
        c[: len(a)] = a
        with np.errstate(over="ignore", invalid="ignore"):
            for p, m in self._poles:
                series = -np.cumprod(np.full(n + 1, 1 / p))
                for _ in range(m):
                    c = np.convolve(c, series)[: n + 1]
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


class RootClassification(Record):
    """Roots split by position relative to the unit circle.

    Classification uses the band ``EPS_CIRCLE``: a root with
    | |root| - 1 | < EPS_CIRCLE counts as on the circle. Roots just outside
    the band raise a ClassificationWarning when a value first classifies
    them, since floating data cannot distinguish them from circle roots.
    """

    inside: tuple
    on_circle: tuple
    outside: tuple

    def count_inside(self) -> int:
        return sum(m for _, m in self.inside)


def classify_roots(roots) -> RootClassification:
    """Split (root, multiplicity) pairs against the unit circle. Each part
    holds the given pairs themselves, not copies, so a kept one is cheap."""
    inside, on_circle, outside = [], [], []
    for pair in roots:
        r = pair[0]
        d = abs(abs(r) - 1.0)
        if d < EPS_CIRCLE:
            on_circle.append(pair)
            continue
        if d < NEAR_CIRCLE:
            warnings.warn(
                f"root {r:.12g} lies {d:.3g} from the unit circle, just outside "
                f"the classification band ({EPS_CIRCLE:g})",
                ClassificationWarning,
                stacklevel=3,
            )
        (inside if abs(r) < 1.0 else outside).append(pair)
    return RootClassification(tuple(inside), tuple(on_circle), tuple(outside))


class ToeplitzSymbol(Frozen):
    """A rational function read as a symbol on the unit circle.

    ``value`` is the reduced quotient (conjugations already lowered to
    powers of 1/z). ``circle_invertible`` is true exactly when the reduced
    value has no zeros and no poles on the circle; the winding number
    (zeros inside minus poles inside, with multiplicity) is defined only
    in that case. ``winding`` keeps its first result in the private
    ``_winding`` slot (a circle root raises on every call), and
    ``kernels.kernel`` stores the symbol's kernel in the private
    ``_kernel`` slot on first use.
    """

    __slots__ = ("value", "_kernel", "_winding")

    def __init__(self, value):
        value = RationalFunction._coerce(value)
        if value.is_zero:
            raise ZeroFunction("the zero symbol is rejected")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_kernel", None)
        object.__setattr__(self, "_winding", None)

    @property
    def circle_invertible(self) -> bool:
        return (
            not self.value.zero_classification().on_circle
            and not self.value.pole_classification().on_circle
        )

    @property
    def winding(self) -> int:
        if self._winding is None:
            zc = self.value.zero_classification()
            pc = self.value.pole_classification()
            if zc.on_circle or pc.on_circle:
                raise NotInvertibleOnCircle(
                    "symbol has a zero or pole on the unit circle; winding undefined"
                )
            object.__setattr__(self, "_winding", zc.count_inside() - pc.count_inside())
        return self._winding

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


def _reflect(gain, roots, divide=False) -> tuple[complex, list]:
    """On |z| = 1, conj(z - r) = -conj(r) (z - 1/conj(r)) / z: each root
    r != 0 of ``roots`` moves to 1/conj(r), and ``gain`` is multiplied by
    (-conj r)**m, or divided when ``divide``. Returns both; 0 is dropped.
    A gain that underflows to 0, or a factor that does, raises OutOfRange
    (``gain`` is nonzero)."""
    reflected = []
    try:
        for r, m in roots:
            if r != 0:
                factor = _power(-r.conjugate(), m)
                gain = gain / factor if divide else gain * factor
                reflected.append((1 / r.conjugate(), m))
        if gain:
            return gain, reflected
    except ZeroDivisionError:  # divided by a factor that underflowed to 0
        pass
    raise OutOfRange("a reflected gain is outside double precision")


def _compose_mobius(r: RationalFunction, a, b, c, d) -> RationalFunction:
    """r(M(z)) for the Moebius map M(z) = (a z + b)/(c z + d), c != 0.

    M(z) - p = ((a - c p) z + (b - d p))/(c z + d), so each root p moves
    to (d p - b)/(a - c p) and puts a - c p into the gain; a root at a/c
    (the image of infinity) leaves only the constant b - d p. The degree
    difference becomes a power of c z + d. No root finding. A pole
    factor that underflows to 0 raises OutOfRange.
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
    shift = r.order_at_infinity
    zeros.append((-d / c, max(shift, 0)))
    poles.append((-d / c, max(-shift, 0)))
    if not pole_factor:  # underflowed to 0: the gain would be infinite
        raise OutOfRange("a composed gain is outside double precision")
    gain = r._gain * zero_factor / pole_factor * _power(c, shift)
    return RationalFunction._from_roots(gain, zeros, poles)


def winding_number(s) -> int:
    """Zeros inside the circle minus poles inside, with multiplicity."""
    return as_symbol(s).winding


def monomial(k: int) -> RationalFunction:
    """z**k for an integer-valued k; negative k gives 1/z**(-k)."""
    k = _integer(k, "k")
    return RationalFunction._from_roots(1.0, [(0j, max(k, 0))], [(0j, max(-k, 0))])


Z = monomial(1)


# -- canonical printing ----------------------------------------------------


def format_complex(c) -> str:
    """Deterministic complex scalar display: real part before imaginary,
    12 significant digits, trailing 'i' for the imaginary part."""
    c = complex(c)
    re, im = c.real, c.imag
    scale = max(abs(re), abs(im))
    if 0 < scale < math.inf:  # at an infinite scale, every part would count as noise
        if abs(re) <= 1e-13 * scale:
            re = 0.0
        if abs(im) <= 1e-13 * scale:
            im = 0.0
    if im == 0.0:
        return f"{re:.12g}"
    if re == 0.0:
        return f"{im:.12g}i"
    return f"{re:.12g}{im:+.12g}i"


def format_polynomial(p: ComplexPolynomial, variable: str = "z", scale=None) -> str:
    """The printed form of ``p``. Coefficient k is hidden when it is at
    most ``EPS_COEFF`` times ``scale[k]``; without a scale (a bare
    polynomial has no roots to bound its rounding) only exact zeros are."""
    p = ComplexPolynomial._coerce(p)
    if scale is None:
        scale = [0.0] * len(p._coeffs)
    terms = []
    for j, (cj, sj) in enumerate(zip(p._coeffs, scale)):
        if abs(cj) <= EPS_COEFF * sj:
            continue
        cs = format_complex(cj)
        needs_parens = ("+" in cs[1:]) or ("-" in cs[1:]) or cs.endswith("i")
        if j == 0:
            terms.append(f"({cs})" if needs_parens else cs)
            continue
        zpow = variable if j == 1 else f"{variable}^{j}"
        if cs == "1":
            terms.append(zpow)
        elif cs == "-1" and (j == 1 or terms):
            # a leading -z^k would re-parse as (-z)^k, so it prints -1*z^k
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
    """The printed form of ``r``, numerator over monic denominator. Each
    coefficient is hidden when it is rounding noise of its expansion from
    the roots (``_rounding_scale``), so the printed form re-parses to the
    value."""
    r = RationalFunction._coerce(r)
    num = format_polynomial(r.num, variable, _rounding_scale([(r._gain, r._zeros)]))
    if not r._poles:
        return num
    den = format_polynomial(r.den, variable, _rounding_scale([(1.0, r._poles)]))
    nwrap = f"({num})" if (" " in num) else num
    return f"{nwrap}/({den})"

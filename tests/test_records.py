"""Frozen records: constructors, defaults, immutability, equality and repr."""

import numpy as np
import pytest

from tkern import (
    BlaschkeProduct,
    BoundarySampling,
    ComplexPolynomial,
    EquivalenceWitness,
    HalfPlaneRational,
    InnerOuterFactorization,
    MaximalityCertificate,
    MultiplierSpace,
    NumericSubspace,
    RationalFunction,
    RootClassification,
    SurjectivityReport,
    SymbolExpression,
    ToeplitzKernel,
    ToeplitzSymbol,
    WienerHopfFactorization,
    as_symbol,
    kernel,
    monomial,
    parse_expression,
    wiener_hopf,
)
from tkern.expressions import BinOp, Blaschke, Conj, Lit, Neg, Pow, Var

F = RationalFunction([1.0, 0.5])
S = as_symbol(monomial(-2))


def tree():
    return BinOp("-", Pow(Conj(Blaschke(0.5)), 2), Neg(Lit(1.5j)))


# each record class: a function giving its fields without defaults, in
# constructor order (a fresh but equal value on each call for the
# expression records), and its defaults
RECORDS = [
    (Lit, lambda: {"value": 0.5j}, {}),
    (Var, lambda: {"name": "z"}, {}),
    (Conj, lambda: {"arg": Var("z")}, {}),
    (Blaschke, lambda: {"a": 0.5}, {}),
    (Neg, lambda: {"arg": Lit(2.0)}, {}),
    (BinOp, lambda: {"op": "*", "left": Var("z"), "right": Lit(2.0)}, {}),
    (Pow, lambda: {"base": Var("z"), "exponent": 3}, {}),
    (SymbolExpression, lambda: {"source": "conj(B(0.5))^2 - -1.5i", "tree": tree()},
     {"variable": "z"}),
    (ToeplitzKernel, lambda: {"symbol": S, "dimension": 2, "plus": F}, {}),
    (MaximalityCertificate, lambda: {"vector": F, "symbol": S, "is_maximal": True},
     {"failure_witness": None}),
    (EquivalenceWitness, lambda: {"h_minus": F, "h_plus": F}, {}),
    (InnerOuterFactorization, lambda: {"inner": BlaschkeProduct(1.0, [0.5]), "outer": F}, {}),
    (WienerHopfFactorization, lambda: {"symbol": S, "index": -2, "plus": F}, {}),
    (MultiplierSpace, lambda: {"source": S, "target": S, "dimension": 2, "factor": F}, {}),
    (SurjectivityReport,
     lambda: {"multiplier": F, "outer_ok": True, "carleson_forward_ok": True,
              "carleson_inverse_ok": False, "symbol_identity_ok": True},
     {}),
    (BoundarySampling, lambda: {"sample_count": 4, "values": np.ones(4, dtype=complex)}, {}),
    (NumericSubspace, lambda: {"degree_cap": 1, "basis_matrix": np.eye(2, dtype=complex)},
     {"singular_values": None, "gap_ratio": float("inf")}),
    (RootClassification, lambda: {"inside": ((0.5, 1),), "on_circle": (), "outside": ((2.0, 2),)},
     {}),
]
EXPRESSION_RECORDS = {Lit, Var, Conj, Blaschke, Neg, BinOp, Pow, SymbolExpression}


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_records_are_frozen_values(cls, fields, defaults):
    given = fields()
    by_position = cls(*given.values())
    by_keyword = cls(**dict(reversed(given.items())))
    assert by_position == by_keyword
    assert by_position != object()
    for name, value in {**given, **defaults}.items():
        assert getattr(by_position, name) is value or getattr(by_position, name) == value
        with pytest.raises(AttributeError):
            setattr(by_position, name, value)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    # defaults may be given, positionally or by keyword, and then count
    assert cls(*given.values(), *defaults.values()) == by_position
    with pytest.raises(TypeError):
        cls(*given.values(), *defaults.values(), None)
    with pytest.raises(TypeError):
        cls(**given, no_such_field=None)
    if given:
        with pytest.raises(TypeError):
            cls(**dict(list(given.items())[1:]))
    # Name(field=value, ...) in field order
    shown = {**given, **defaults}
    expected = ", ".join(f"{name}={value!r}" for name, value in shown.items())
    assert repr(by_position) == f"{cls.__name__}({expected})"
    if cls in EXPRESSION_RECORDS:
        # structural: equal trees built apart compare and hash equal
        other = cls(**fields())
        assert other == by_position and hash(other) == hash(by_position)


def _record_init_by_checks(self, *args, **kwargs):
    # reference: the constructor that checks every call, with no fast path
    cls = type(self)
    fields = cls._fields
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


def _built(build):
    """(record, its fields in order) or (TypeError, its message)."""
    try:
        record = build()
    except TypeError as exc:
        return TypeError, str(exc)
    return record, list(vars(record).items())


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_record_constructor_matches_the_checking_reference(cls, fields, defaults):
    # positional, keyword, mixed and defaulted calls, and every refusal:
    # too many arguments, a missing one, an unexpected or repeated keyword
    def by_reference(*args, **kwargs):
        record = object.__new__(cls)
        _record_init_by_checks(record, *args, **kwargs)
        return record

    values = list({**fields(), **defaults}.items())
    required = len(fields())
    calls = []
    for k in range(len(values) + 1):  # the first k by position, the rest by keyword
        for given in range(required, len(values) + 1):  # the fields after ``given`` defaulted
            calls.append(([v for _, v in values[:min(k, given)]], dict(values[k:given])))
    calls += [
        ([v for _, v in values] + [None], {}),
        ([v for _, v in values[:-1]], {}),
        ([v for _, v in values[1:]], {}),
        ([], dict(values[1:])),
        ([v for _, v in values], {"no_such_field": None}),
        ([v for _, v in values], {values[0][0]: values[0][1]}),
        ([v for _, v in values[:1]], {values[0][0]: values[0][1]}),
    ]
    for args, kwargs in calls:
        got = _built(lambda: cls(*args, **kwargs))
        assert got == _built(lambda: by_reference(*args, **kwargs)), (args, kwargs)
        if got[0] is not TypeError:
            assert type(got[0]) is cls


def test_equal_records_of_different_classes_differ():
    assert Conj(Var("z")) != Neg(Var("z"))
    assert parse_expression("conj(z)^2").tree == parse_expression("conj( z )^2").tree
    assert parse_expression("conj(z)^2").tree != parse_expression("-z^2").tree


def test_wiener_hopf_minus_is_computed_once():
    wh = wiener_hopf(parse_expression("(z+0.5)/(1+0.5*z)*zbar").to_rational())
    assert "minus" not in vars(wh)
    minus = wh.minus
    assert vars(wh)["minus"] is minus and wh.minus is minus
    assert (minus * monomial(wh.index) / wh.plus).is_close(wh.symbol.value)


# each value class that keeps its state in slots, with a value of it
VALUES = {
    "ComplexPolynomial": lambda: ComplexPolynomial([1.0, 0.5]),
    "RationalFunction": lambda: RationalFunction([1.0, 0.5], [1.0, -0.25]),
    "ToeplitzSymbol": lambda: as_symbol(RationalFunction([1.0, 0.5], [0.0, 1.0])),
    "BlaschkeProduct": lambda: BlaschkeProduct(1j, [0.5, (0.25j, 2)]),
    "HalfPlaneRational": lambda: HalfPlaneRational(RationalFunction([1.0], [1j, 1.0])),
}


def _at_quarter(value):
    """``value`` at z = 0.25, through the rational function it holds."""
    if isinstance(value, BlaschkeProduct):
        value = value.to_rational()
    elif isinstance(value, (ToeplitzSymbol, HalfPlaneRational)):
        value = value.value
    return value(0.25)


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_values_refuse_assignment_and_deletion(make):
    value = make()
    name = type(value).__name__
    before = _at_quarter(value)
    assert not hasattr(value, "__dict__")
    for attr in (*type(value).__slots__, "no_such_attribute"):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(value, attr)
    assert _at_quarter(value) == before


def test_symbol_keeps_its_kernel_after_a_refused_deletion():
    s = as_symbol(monomial(-2))
    K = kernel(s)
    with pytest.raises(AttributeError, match="^ToeplitzSymbol is immutable$"):
        del s._kernel
    assert kernel(s) is K

"""Expression grammar: lexing, parsing, lowering, canonical printing."""

import pytest

from tkern import (
    BlaschkeParameterOutOfDisc,
    ExpressionSyntaxError,
    RationalFunction,
    format_rational,
    monomial,
    parse_expression,
)
from tkern.expressions import Lit, print_tree


def lower(text, variable="z"):
    return parse_expression(text, variable=variable).to_rational()


def test_zbar_power_lowers_to_negative_monomial():
    assert lower("zbar^2").is_close(monomial(-2))


def test_conjugated_blaschke_times_zbar():
    r = lower("conj(B(0.5))*zbar")
    expected = RationalFunction([-0.5, 1], [1, -0.5]).circle_conjugate() * monomial(-1)
    assert r.is_close(expected)


def test_plain_rational_literal():
    assert lower("(z+0.5)/(1+0.5*z)").is_close(RationalFunction([0.5, 1], [1, 0.5]))


def test_complex_literals():
    assert lower("1+2i").is_close(RationalFunction([1 + 2j]))
    assert lower("0.5i").is_close(RationalFunction([0.5j]))
    assert lower("1.5e-3i*z").is_close(RationalFunction([0, 0.0015j]))
    assert lower("-0.5").is_close(RationalFunction([-0.5]))


def test_combined_literal_prints_in_parentheses_and_lowers_to_itself():
    printed = print_tree(Lit(1.5 - 2j))
    assert printed == "(1.5-2.0i)"
    assert lower(printed).constant_value() == 1.5 - 2j


def test_power_with_negative_exponent():
    assert lower("z^-2").is_close(monomial(-2))
    assert lower("(1+z)^2").is_close(RationalFunction([1, 2, 1]))


def test_precedence_and_division():
    assert lower("1+2*z^2/2").is_close(RationalFunction([1, 0, 1]))
    assert lower("(1+z)/(1-z)/(1+z)").is_close(RationalFunction([1.0], [1, -1]))


def test_parse_print_parse_roundtrip():
    sources = [
        "zbar^2",
        "conj(B(0.5))*zbar",
        "(z+0.5)/(1+0.5*z)",
        "1+2i",
        "-z^3 + 0.25*z - 1",
        "B(-0.3)*B(0.5i)",
        "conj(1-z)/(1-z)",
        "2.5e-2 * z / (1 - 0.5*z)",
    ]
    for text in sources:
        tree = parse_expression(text).tree
        printed = print_tree(tree)
        assert parse_expression(printed).tree == tree


def test_printer_roundtrip_on_random_trees():
    import numpy as np

    from tkern.expressions import BinOp, Blaschke, Conj, Lit, Neg, Pow, Var

    rng = np.random.default_rng(7)

    def rand_leaf():
        c = rng.random()
        if c < 0.4:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            val = round(sign * float(rng.random() + 0.1), 6)
            return Lit(complex(val, 0.0) if rng.random() < 0.5 else complex(0.0, val))
        if c < 0.7:
            return Var("z")
        if c < 0.85:
            return Var("zbar")
        return Blaschke(complex(round(float(0.8 * rng.random() - 0.4), 4), 0.0))

    def rand_tree(depth):
        if depth == 0:
            return rand_leaf()
        c = rng.random()
        if c < 0.5:
            op = str(rng.choice(["+", "-", "*", "/"]))
            return BinOp(op, rand_tree(depth - 1), rand_tree(depth - 1))
        if c < 0.65:
            return Neg(rand_tree(depth - 1))
        if c < 0.8:
            return Conj(rand_tree(depth - 1))
        return Pow(rand_tree(depth - 1), int(rng.integers(-3, 4)))

    def fold(n):
        # parsing folds unary minus into literals; normalize the reference
        if isinstance(n, Neg):
            inner = fold(n.arg)
            return Lit(-inner.value) if isinstance(inner, Lit) else Neg(inner)
        if isinstance(n, BinOp):
            return BinOp(n.op, fold(n.left), fold(n.right))
        if isinstance(n, Conj):
            return Conj(fold(n.arg))
        if isinstance(n, Pow):
            return Pow(fold(n.base), n.exponent)
        return n

    for _ in range(400):
        tree = rand_tree(int(rng.integers(1, 5)))
        assert parse_expression(print_tree(tree)).tree == fold(tree)


def test_canonical_rational_printing_reparses_to_same_function():
    cases = [
        monomial(-2),
        RationalFunction([0.5, 1], [1, 0.5]),
        RationalFunction([1 + 2j, -0.25], [0, 0, 1]),
        RationalFunction([-1.5]),
        RationalFunction([0, 1j]),
    ]
    for r in cases:
        printed = format_rational(r)
        assert lower(printed).is_close(r, 1e-11)


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("zbar^^2")
    assert err.value.position == 5
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1 +")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("q + 1")


def test_blaschke_parameter_outside_disc_rejected():
    with pytest.raises(BlaschkeParameterOutOfDisc):
        lower("B(1.0)")
    with pytest.raises(BlaschkeParameterOutOfDisc):
        lower("B(-2.5)")
    # inside the circle band, where ``BlaschkeProduct`` refuses it too
    with pytest.raises(BlaschkeParameterOutOfDisc):
        lower("B(0.99999999995)")


def test_halfplane_variable_mode():
    assert lower("(s-1i)/(s+1i)", variable="s").is_close(
        RationalFunction([-1j, 1], [1j, 1])
    )
    with pytest.raises(ExpressionSyntaxError):
        lower("zbar", variable="s")
    with pytest.raises(ExpressionSyntaxError):
        lower("conj(s)", variable="s")


def test_unknown_exponent_type_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("z^1.5")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("z^2i")

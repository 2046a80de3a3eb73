"""Expression grammar: lexing, parsing, lowering, canonical printing."""

import cmath

import pytest

import tkern.rational
from tkern import (
    BlaschkeParameterOutOfDisc,
    BlaschkeProduct,
    ExpressionSyntaxError,
    OutOfRange,
    RationalFunction,
    SymbolExpression,
    ZeroDenominator,
    format_rational,
    monomial,
    parse_expression,
)
from tkern.cli import main
from tkern.expressions import BinOp, Blaschke, Conj, Lit, Neg, Pow, Var


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


@pytest.mark.parametrize(("symbol", "degrees"), [("zbar^2", []), ("zbar^3*(z^2+5*z+6)", [2, 2])])
def test_a_literal_is_lowered_with_no_root_solve(monkeypatch, symbol, degrees):
    # a literal is a gain with no roots: only the numerators of the two
    # sums are solved
    solved, solve = [], tkern.rational.poly_roots
    monkeypatch.setattr(tkern.rational, "poly_roots", lambda p: solved.append(p.degree) or solve(p))
    assert main(["dim", "--symbol", symbol]) == 0
    assert solved == degrees
    assert lower("0").is_zero and repr(lower("-2.5i")) == repr(RationalFunction([-2.5j]))


def test_combined_literal_prints_in_parentheses_and_lowers_to_itself():
    assert format_rational(RationalFunction([1.5 - 2j])) == "(1.5-2i)"
    assert lower("(1.5-2.0i)").constant_value() == 1.5 - 2j


def test_minus_of_a_non_literal_lowers_to_the_negated_value():
    assert parse_expression("-(z+1)").tree == Neg(BinOp("+", Var("z"), Lit(1 + 0j)))
    assert lower("-(z+1)").is_close(RationalFunction([-1, -1]))
    assert lower("-zbar").is_close(-monomial(-1))
    assert lower("-conj(z)^2").is_close(monomial(-2))
    assert lower("-B(0.5)").is_close(RationalFunction([0.5, -1], [1, -0.5]))


def test_power_with_negative_exponent():
    assert lower("z^-2").is_close(monomial(-2))
    assert lower("(1+z)^2").is_close(RationalFunction([1, 2, 1]))


def test_precedence_and_division():
    assert lower("1+2*z^2/2").is_close(RationalFunction([1, 0, 1]))
    assert lower("(1+z)/(1-z)/(1+z)").is_close(RationalFunction([1.0], [1, -1]))


def _random_trees(count):
    """Random expression trees from a fixed seed: literals, z, zbar and
    B(a) at the leaves; +, -, *, /, unary minus, conj and integer powers
    inside, to depth 4."""
    import numpy as np

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

    return [rand_tree(int(rng.integers(1, 5))) for _ in range(count)]


FIXED_SOURCES = [
    "zbar^2",
    "conj(B(0.5))*zbar",
    "(z+0.5)/(1+0.5*z)",
    "1+2i",
    "-z^3 + 0.25*z - 1",
    "B(-0.3)*B(0.5i)",
    "conj(1-z)/(1-z)",
    "2.5e-2 * z / (1 - 0.5*z)",
]


def _reparsed_printed_forms(trees):
    """Lower each tree to v and require that ``format_rational(v)`` re-parses
    to v at 16 points of the circle; return how many trees were checked."""
    # the printed form keeps 12 significant digits, so a re-parsed value
    # agrees to about 1e-5 where roots cluster, and to rounding elsewhere
    circle = [cmath.exp(2j * cmath.pi * (k + 0.5) / 16) for k in range(16)]
    checked = 0
    for tree in trees:
        try:
            v = SymbolExpression("", tree).to_rational()
        except ZeroDenominator:  # a division by a tree that lowers to 0
            continue
        printed = format_rational(v)
        w = parse_expression(printed).to_rational()
        for z in circle:
            assert abs(w(z) - v(z)) <= 1e-3 * abs(v(z)), (printed, z)
        checked += 1
    return checked


def test_parse_print_parse_roundtrip():
    trees = [parse_expression(text).tree for text in FIXED_SOURCES]
    assert _reparsed_printed_forms(trees) == len(trees)


def test_printer_roundtrip_on_random_trees():
    trees = _random_trees(2000)
    assert _reparsed_printed_forms(trees) > len(trees) - 10


def test_leading_minus_one_power_prints_so_it_reparses():
    # unary minus binds tighter than '^': -z^2 is (-z)^2
    assert lower("-z^2").is_close(monomial(2))
    assert format_rational(lower("0 - z^2")) == "-1*z^2"
    assert format_rational(lower("z^3 - z^2")) == "-1*z^2 + z^3"
    assert format_rational(lower("(0.25*z^3 - z^2)/(z-0.5)^4")).startswith("(-1*z^2 + 0.25*z^3)/")
    # a later term, a first power and other coefficients keep their form
    assert format_rational(lower("z - z^2")) == "z - z^2"
    assert format_rational(lower("0 - z")) == "-z"
    assert format_rational(lower("0 - 0.5*z^2")) == "-0.5*z^2"
    assert format_rational(lower("1/(z - z^2)")) == "-1/(-z + z^2)"


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


def test_blaschke_parameter_is_read_by_the_expression_grammar():
    expected = BlaschkeProduct(1.0, [0.3 + 0.4j]).to_rational()
    for text in ("B(0.3+0.4i)", "B( (0.3 + 0.4i) )", "B(conj(0.3-0.4i))", "B(0.6/2+0.4i)"):
        assert parse_expression(text).tree == Blaschke(0.3 + 0.4j), text
        assert lower(text).is_close(expected)
    for text, a in (("B(-0.5)", -0.5), ("B(-0.5i)", -0.5j), ("B(-1e-3+2e-3i)", -1e-3 + 2e-3j)):
        assert parse_expression(text).tree == Blaschke(a)
    assert lower("B(0)").is_close(monomial(1))


@pytest.mark.parametrize("text, position", [("zbar*B(z)", 7), ("B( zbar - 1)", 3)])
def test_blaschke_parameter_must_be_a_constant(text, position):
    with pytest.raises(ExpressionSyntaxError, match="must be a constant") as err:
        parse_expression(text)
    assert err.value.position == position


@pytest.mark.parametrize("text", ["1e400*zbar", "zbar*B(1e400)", "z + 2e308i", "-1e999"])
def test_literal_beyond_double_range_is_out_of_range(text):
    with pytest.raises(OutOfRange, match="is outside double precision"):
        parse_expression(text)


def test_literal_that_underflows_is_zero():
    assert lower("1e-400 + z").is_close(monomial(1))


def test_halfplane_variable_mode():
    assert lower("(s-1i)/(s+1i)", variable="s").is_close(
        RationalFunction([-1j, 1], [1j, 1])
    )
    with pytest.raises(ExpressionSyntaxError):
        lower("zbar", variable="s")
    with pytest.raises(ExpressionSyntaxError):
        lower("conj(s)", variable="s")


def test_exponent_is_read_by_the_expression_grammar():
    for text, k in (("z^(2)", 2), ("z^(-1-1)", -2), ("z^-2", -2), ("z^2.0", 2), ("zbar^(4/2)", 2)):
        tree = parse_expression(text).tree
        assert type(tree.exponent) is int and tree.exponent == k, text
    assert lower("z^(-1-1)").is_close(monomial(-2))


@pytest.mark.parametrize("text, position", [("z^z", 2), ("z^1.5", 2), ("(1+z)^(2i)", 6)])
def test_exponent_must_be_an_integer_constant(text, position):
    with pytest.raises(ExpressionSyntaxError, match="exponent must be an integer") as err:
        parse_expression(text)
    assert err.value.position == position


def test_unknown_exponent_type_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("z^1.5")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("z^2i")

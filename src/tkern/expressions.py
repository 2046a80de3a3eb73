"""Concrete syntax for symbols and kernel vectors.

Grammar (EBNF):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := base ('^' base)?
    base    := complex-literal | 'z' | 'zbar' | 'conj' '(' expr ')'
             | 'B' '(' expr ')' | '(' expr ')' | '-' base

Complex literals are decimals with an optional immediate 'i' suffix
(0.5, 2i, 1.5e-3i); combined forms like 1+2i parse through the binary
operators to the same value; one beyond double range is OutOfRange. 'zbar'
lowers to z^-1, conj(.) through circle conjugation, and B(a), for a
constant a (B(0.3+0.4i), not B(z)), through ``BlaschkeProduct`` to the
Blaschke factor (z - a)/(1 - conj(a) z), with its bound
|a| < BLASCHKE_RADIUS, about sqrt(1 - EPS_ROOT). The exponent of '^' must
lower to an integer-valued constant (z^-2, z^(1+1), z^2.0); a digit string,
or a negated one, is read as an exact integer, so an echoed multiplicity
beyond 2^53 re-parses to itself. Unary minus
binds tighter than '^' (-z^2 is (-z)^2). ``format_rational`` prints a
value from its gain and roots, in the form that re-parses to the same ones.

Half-plane expressions use the variable 's' instead of 'z'; 'zbar',
'conj' and 'B' are circle constructions and are rejected there.
"""

from __future__ import annotations

import math
import re
from typing import Union

from .errors import ExpressionSyntaxError, OutOfRange
from .factorization import BlaschkeProduct
from .rational import RationalFunction, Record, monomial

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a literal that is a digit string alone: no fraction, exponent or 'i'
_DIGITS = re.compile(r"\d+(?![.\deEi])")


class Lit(Record):
    value: complex


class Var(Record):
    name: str


class Conj(Record):
    arg: "Node"


class Blaschke(Record):
    a: complex


class Neg(Record):
    arg: "Node"


class BinOp(Record):
    op: str
    left: "Node"
    right: "Node"


class Pow(Record):
    base: "Node"
    exponent: int


Node = Union[Lit, Var, Conj, Blaschke, Neg, BinOp, Pow]


class SymbolExpression(Record):
    source: str
    tree: Node
    variable: str = "z"

    def to_rational(self) -> RationalFunction:
        return _lower(self.tree)


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._run()
        self.index = 0

    def _run(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self.pos += 1
                continue
            m = _NUMBER.match(text, self.pos)
            if m:
                start = self.pos
                self.pos = m.end()
                value = float(m.group())
                if not math.isfinite(value):
                    raise OutOfRange(f"the literal {m.group()} is outside double precision")
                if self.pos < len(text) and text[self.pos] == "i":
                    nxt = text[self.pos + 1 : self.pos + 2]
                    if not nxt or not (nxt.isalnum() or nxt == "_"):
                        self.pos += 1
                        self.tokens.append(("NUM", complex(0.0, value), start))
                        continue
                self.tokens.append(("NUM", complex(value, 0.0), start))
                continue
            m = _NAME.match(text, self.pos)
            if m:
                self.tokens.append(("NAME", m.group(), self.pos))
                self.pos = m.end()
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, self.pos))
                self.pos += 1
                continue
            raise ExpressionSyntaxError(f"unexpected character {ch!r}", self.pos)
        self.tokens.append(("END", None, len(text)))

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        if tok[0] != "END":
            self.index += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()


class _Parser:
    def __init__(self, text: str, variable: str):
        if not text or not text.strip():
            raise ExpressionSyntaxError("empty expression", 0)
        self.variable = variable
        self.lex = _Lexer(text)

    def parse(self) -> Node:
        node = self._expr()
        tok = self.lex.peek()
        if tok[0] != "END":
            raise ExpressionSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def _expr(self) -> Node:
        node = self._term()
        while self.lex.peek()[0] in ("+", "-"):
            op = self.lex.advance()[0]
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Node:
        node = self._factor()
        while self.lex.peek()[0] in ("*", "/"):
            op = self.lex.advance()[0]
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self) -> Node:
        base = self._base()
        if self.lex.peek()[0] == "^":
            self.lex.advance()
            start = self.lex.peek()[2]
            n = self._digits()
            if n is None:
                e = _lower(self._base())
                n = e.constant_value() if e.is_constant else None
                if n is None or n.imag != 0 or not n.real.is_integer():
                    raise ExpressionSyntaxError("exponent must be an integer", start)
                n = int(n.real)
            return Pow(base, n)
        return base

    def _digits(self):
        """A digit-string literal, or a negated one, next in the input,
        taken as an exact int (a double would round one beyond 2^53);
        None, taking nothing, for any other exponent."""
        tokens, i, sign = self.lex.tokens, self.lex.index, 1
        if tokens[i][0] == "-":
            i, sign = i + 1, -1
        kind, _, pos = tokens[i]
        m = _DIGITS.match(self.lex.text, pos) if kind == "NUM" else None
        if m is None:
            return None
        self.lex.index = i + 1
        return sign * int(m.group())

    def _base(self) -> Node:
        tok = self.lex.peek()
        kind = tok[0]
        if kind == "-":
            self.lex.advance()
            inner = self._base()
            if isinstance(inner, Lit):
                return Lit(-inner.value)
            return Neg(inner)
        if kind == "NUM":
            self.lex.advance()
            return Lit(tok[1])
        if kind == "(":
            self.lex.advance()
            node = self._expr()
            self.lex.expect(")")
            return node
        if kind == "NAME":
            self.lex.advance()
            name = tok[1]
            if name == self.variable:
                return Var(name)
            if self.variable == "z" and name == "zbar":
                return Var("zbar")
            if self.variable == "z" and name in ("conj", "B"):
                self.lex.expect("(")
                start = self.lex.peek()[2]
                node = self._expr()
                self.lex.expect(")")
                if name == "conj":
                    return Conj(node)
                a = _lower(node)
                if not a.is_constant:
                    raise ExpressionSyntaxError("the parameter of B(a) must be a constant", start)
                return Blaschke(a.constant_value())
            raise ExpressionSyntaxError(f"unknown name {name!r}", tok[2])
        raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expression(text: str, variable: str = "z") -> SymbolExpression:
    """Parse source text into a syntax tree. Only the parameter of a
    ``B(a)`` and the exponent of a ``^`` are lowered, to the constants
    that the tree keeps."""
    if variable not in ("z", "s"):
        raise ValueError("variable must be 'z' or 's'")
    tree = _Parser(text, variable).parse()
    return SymbolExpression(text, tree, variable)


def _lower(node: Node) -> RationalFunction:
    if isinstance(node, Lit):
        return RationalFunction._coerce(node.value)
    if isinstance(node, Var):
        return monomial(-1 if node.name == "zbar" else 1)
    if isinstance(node, Neg):
        return -_lower(node.arg)
    if isinstance(node, Conj):
        return _lower(node.arg).circle_conjugate()
    if isinstance(node, Blaschke):
        return BlaschkeProduct(1.0, [(node.a, 1)]).to_rational()
    if isinstance(node, BinOp):
        left = _lower(node.left)
        right = _lower(node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Pow):
        return _lower(node.base) ** node.exponent
    raise TypeError(f"unknown node {node!r}")


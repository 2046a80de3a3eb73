"""Concrete syntax for symbols and kernel vectors.

Grammar (EBNF):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := base ('^' integer)?
    base    := complex-literal | 'z' | 'zbar' | 'conj' '(' expr ')'
             | 'B' '(' complex-literal ')' | '(' expr ')' | '-' base

Complex literals are decimals with an optional immediate 'i' suffix
(0.5, 2i, 1.5e-3i); combined forms like 1+2i parse through the binary
operators to the same value. 'zbar' lowers to z^-1, conj(.) lowers through
circle conjugation, and B(a) lowers to the Blaschke factor
(z - a)/(1 - conj(a) z) with |a| < 1 required. Unary minus is accepted as
a superset of the core grammar so that canonical output re-parses.

Half-plane expressions use the variable 's' instead of 'z'; 'zbar',
'conj' and 'B' are circle constructions and are rejected there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import BlaschkeParameterOutOfDisc, ExpressionSyntaxError
from .rational import RationalFunction, monomial

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Lit:
    value: complex


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Conj:
    arg: "Node"


@dataclass(frozen=True)
class Blaschke:
    a: complex


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Lit, Var, Conj, Blaschke, Neg, BinOp, Pow]


@dataclass(frozen=True)
class SymbolExpression:
    source: str
    tree: Node
    variable: str = "z"

    def to_rational(self) -> RationalFunction:
        return _lower(self.tree, self.variable)


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
            sign = 1
            if self.lex.peek()[0] == "-":
                self.lex.advance()
                sign = -1
            tok = self.lex.expect("NUM")
            value = tok[1]
            if value.imag != 0 or value.real != int(value.real):
                raise ExpressionSyntaxError("exponent must be an integer", tok[2])
            return Pow(base, sign * int(value.real))
        return base

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
            if self.variable == "z" and name == "conj":
                self.lex.expect("(")
                node = self._expr()
                self.lex.expect(")")
                return Conj(node)
            if self.variable == "z" and name == "B":
                self.lex.expect("(")
                neg = False
                if self.lex.peek()[0] == "-":
                    self.lex.advance()
                    neg = True
                num = self.lex.expect("NUM")
                self.lex.expect(")")
                a = -num[1] if neg else num[1]
                return Blaschke(a)
            raise ExpressionSyntaxError(f"unknown name {name!r}", tok[2])
        raise ExpressionSyntaxError(f"unexpected token {tok[1]!r}", tok[2])


def parse_expression(text: str, variable: str = "z") -> SymbolExpression:
    """Parse source text into a syntax tree (no lowering performed)."""
    if variable not in ("z", "s"):
        raise ValueError("variable must be 'z' or 's'")
    tree = _Parser(text, variable).parse()
    return SymbolExpression(text, tree, variable)


def _lower(node: Node, variable: str) -> RationalFunction:
    if isinstance(node, Lit):
        return RationalFunction([node.value])
    if isinstance(node, Var):
        if node.name == "zbar":
            return monomial(-1)
        return monomial(1)
    if isinstance(node, Neg):
        return -_lower(node.arg, variable)
    if isinstance(node, Conj):
        return _lower(node.arg, variable).circle_conjugate()
    if isinstance(node, Blaschke):
        a = node.a
        if abs(a) >= 1.0:
            raise BlaschkeParameterOutOfDisc(
                f"Blaschke parameter {a!r} must lie strictly inside the unit disc"
            )
        return RationalFunction([-a, 1.0], [1.0, -np.conj(a)])
    if isinstance(node, BinOp):
        left = _lower(node.left, variable)
        right = _lower(node.right, variable)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, Pow):
        return _lower(node.base, variable) ** node.exponent
    raise TypeError(f"unknown node {node!r}")


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_literal(c: complex) -> str:
    if c.imag == 0:
        return _fmt_float(c.real)
    if c.real == 0:
        return f"{_fmt_float(c.imag)}i"
    sign = "+" if c.imag > 0 else "-"
    return f"({_fmt_float(c.real)}{sign}{_fmt_float(abs(c.imag))}i)"


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def print_tree(node: Node) -> str:
    """Canonical rendering; parsing the output reproduces the tree."""

    def wrap(child: Node, parent_prec: int, right: bool) -> str:
        text = print_tree(child)
        if isinstance(child, BinOp):
            child_prec = _PRECEDENCE[child.op]
            if child_prec < parent_prec or (child_prec == parent_prec and right):
                return f"({text})"
        if isinstance(child, Neg) and parent_prec >= 2:
            return f"({text})"
        return text

    if isinstance(node, Lit):
        if node.value.imag != 0 and node.value.real != 0:
            # parenthesized combined literal parses back as a sum
            re_part = _fmt_float(node.value.real)
            im = node.value.imag
            sign = "+" if im > 0 else "-"
            return f"({re_part}{sign}{_fmt_float(abs(im))}i)"
        return _fmt_literal(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Conj):
        return f"conj({print_tree(node.arg)})"
    if isinstance(node, Blaschke):
        return f"B({_fmt_literal(node.a)})"
    if isinstance(node, Neg):
        inner = print_tree(node.arg)
        # '-' binds tighter than '^' in this grammar, so -(x^n) needs parens
        if isinstance(node.arg, (BinOp, Pow)):
            return f"-({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        return f"{wrap(node.left, prec, False)} {node.op} {wrap(node.right, prec, True)}"
    if isinstance(node, Pow):
        base = print_tree(node.base)
        if isinstance(node.base, (BinOp, Neg, Pow)) or base.startswith("-"):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    raise TypeError(f"unknown node {node!r}")

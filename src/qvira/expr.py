"""Parser and canonical printer for field expressions.

Grammar (whitespace insignificant, left-associative binary operators):

    expr       := term { ("+"|"-") term }
    term       := unary { ("*"|"/") unary }
    unary      := ["-"] power
    power      := atom ["^" signed_int]
    atom       := integer | "q" | "a" | "(" expr ")"
    signed_int := ["-"] digits

Precedence: ^ binds tighter than unary minus, which binds tighter than
* and /, which bind tighter than + and -.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .field import (
    DivisionByZero,
    FieldError,
    Poly2,
    RationalFunction,
    RF_A,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    rf_int,
)


# The largest power evaluate expands.  A power of a monomial over a monomial,
# both with coefficient +-1, is another such fraction and costs O(1), so it
# has no cap; printed values hold no other powers, so they always parse back.
# Any other power x^n needs |n| at most MAX_EXPONENT, and numerator and
# denominator of the result at most MAX_POWER_TERMS terms with coefficients
# of at most MAX_POWER_BITS bits, by the bounds of power_bounds.  The slowest
# power found inside these caps, ((q+1)^30)^33, takes 1.2-1.6 s on a 2-core
# Xeon.
MAX_EXPONENT = 1000
MAX_POWER_TERMS = 1000
MAX_POWER_BITS = 2048


class PowerTooLarge(FieldError):
    """A power in an expression is above MAX_EXPONENT, MAX_POWER_TERMS or
    MAX_POWER_BITS."""


class ExprSyntaxError(Exception):
    """Syntax error with a 1-based character position."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected}")


@dataclass(frozen=True)
class IntLiteral:
    value: int


@dataclass(frozen=True)
class Var:
    name: str  # "q" or "a"


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "+", "-", "*", "/"
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


ExprAst = Union[IntLiteral, Var, Neg, BinOp, Pow]


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "q", "a", "op", "eof"
    text: str
    position: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], pos))
            i = j
        elif ch == "q":
            tokens.append(_Token("q", ch, pos))
            i += 1
        elif ch == "a":
            tokens.append(_Token("a", ch, pos))
            i += 1
        elif ch in "+-*/^()":
            tokens.append(_Token("op", ch, pos))
            i += 1
        else:
            raise ExprSyntaxError(pos, f"a token, found {ch!r}")
    tokens.append(_Token("eof", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(tok.position, f"'{text}'")
        self.advance()

    def parse_expr(self) -> ExprAst:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> ExprAst:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> ExprAst:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_power())
        return self.parse_power()

    def parse_power(self) -> ExprAst:
        base = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return Pow(base, self.parse_signed_int())
        return base

    def parse_signed_int(self) -> int:
        negative = False
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            negative = True
            tok = self.peek()
        if tok.kind != "int":
            raise ExprSyntaxError(tok.position, "an integer exponent")
        self.advance()
        value = int(tok.text)
        return -value if negative else value

    def parse_atom(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntLiteral(int(tok.text))
        if tok.kind == "q":
            self.advance()
            return Var("q")
        if tok.kind == "a":
            self.advance()
            return Var("a")
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(tok.position, "an integer, 'q', 'a', or '('")


def parse_expr(text: str) -> ExprAst:
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ExprSyntaxError(tok.position, "end of input or an operator")
    return node


def evaluate(ast: ExprAst) -> RationalFunction:
    """Evaluate an expression tree to a field element."""
    if isinstance(ast, IntLiteral):
        return rf_int(ast.value)
    if isinstance(ast, Var):
        return RF_Q if ast.name == "q" else RF_A
    if isinstance(ast, Neg):
        return -evaluate(ast.child)
    if isinstance(ast, Pow):
        base = evaluate(ast.base)
        if ast.exponent < 0 and base.is_zero:
            raise DivisionByZero("zero raised to a negative power")
        if not _is_unit_monomial(base):
            _check_power_size(base, ast.exponent)
        return base**ast.exponent
    if isinstance(ast, BinOp):
        left = evaluate(ast.left)
        right = evaluate(ast.right)
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return left * right
        return left / right
    raise TypeError(f"not an expression node: {ast!r}")


def _is_unit_monomial(x: RationalFunction) -> bool:
    if x is RF_Q or x is RF_A:  # q^n and a^n, nearly every power in a table
        return True
    num, den = x.num.terms, x.den.terms
    return len(num) == 1 == len(den) and abs(*num.values()) == 1 == abs(*den.values())


def _check_power_size(base: RationalFunction, exponent: int) -> None:
    """Raise PowerTooLarge unless base**exponent is within the caps.

    The exponent is checked first, so the bounds are never computed for a
    huge one.
    """
    n = abs(exponent)
    if n > MAX_EXPONENT:
        raise PowerTooLarge(f"exponent {exponent} is above the cap of {MAX_EXPONENT}")
    terms, bits = map(max, zip(power_bounds(base.num, n), power_bounds(base.den, n)))
    if terms > MAX_POWER_TERMS:
        raise PowerTooLarge(f"a power of up to {terms} terms is above the cap of {MAX_POWER_TERMS}")
    if bits > MAX_POWER_BITS:
        raise PowerTooLarge(
            f"a power with coefficients of up to {bits} bits is above the cap of {MAX_POWER_BITS}"
        )


def power_bounds(p: Poly2, n: int) -> tuple[int, int]:
    """Upper bounds on the term count and coefficient bit length of p**n,
    found without expanding.

    p**n has at most one term per multiset of n terms of p.  Where that count
    is above MAX_POWER_TERMS it is refined by the exponents of p**n, which
    are lattice points of n times the Newton polygon of p.  No coefficient
    exceeds s**n in magnitude, with s the sum of |c| over p, and s**n has
    floor(n * log2(s)) + 1 bits.
    """
    if n == 0:
        return 1, 1
    terms = math.comb(n + len(p.terms) - 1, n)
    if terms > MAX_POWER_TERMS:
        terms = min(terms, _scaled_hull_points(list(p.terms), n))
    s = sum(abs(c) for c in p.terms.values())
    return terms, math.floor(n * math.log2(s)) + 1 if s > 1 else s


def _scaled_hull_points(points: list[tuple[int, int]], n: int) -> int:
    """The number of lattice points in n times the convex hull of points.

    By Pick's theorem a lattice polygon of area A with B lattice points on
    its boundary holds A + B/2 + 1 of them, and scaling by n takes A to n^2 A
    and B to n B.  A segment is a polygon of two edges and area 0.
    """

    def turn(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    # Andrew's monotone chain, dropping collinear points.
    hull = []
    for chain in (sorted(points), sorted(points, reverse=True)):
        start = len(hull)
        for v in chain:
            while len(hull) >= start + 2 and turn(hull[-2], hull[-1], v) <= 0:
                hull.pop()
            hull.append(v)
        hull.pop()
    edges = list(zip(hull, hull[1:] + hull[:1]))
    twice_area = abs(sum(u[0] * v[1] - v[0] * u[1] for u, v in edges))
    boundary = sum(math.gcd(v[0] - u[0], v[1] - u[1]) for u, v in edges)
    return (n * n * twice_area + n * boundary) // 2 + 1


def parse_value(text: str) -> RationalFunction:
    return evaluate(parse_expr(text))


def _monomial_str(mono, coeff) -> str:
    """One term, without sign: coefficient magnitude 1 is omitted."""
    eq, ea = mono
    factors = []
    mag = abs(coeff)
    if mag != 1 or (eq == 0 and ea == 0):
        factors.append(str(mag))
    if eq:
        factors.append("q" if eq == 1 else f"q^{eq}")
    if ea:
        factors.append("a" if ea == 1 else f"a^{ea}")
    return "*".join(factors)


def print_poly(p: Poly2) -> str:
    """Polynomial in the fixed monomial order, e.g. "3*q^2*a - q + 5"."""
    if p.is_zero:
        return "0"
    pieces = []
    for index, (mono, coeff) in enumerate(p.sorted_terms()):
        body = _monomial_str(mono, coeff)
        if index == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


def print_canonical(x: RationalFunction) -> str:
    """Canonical text form; re-parsing yields an equal field element."""
    if x.den.is_constant and x.den.constant_value() == 1:
        return print_poly(x.num)
    return f"({print_poly(x.num)})/({print_poly(x.den)})"

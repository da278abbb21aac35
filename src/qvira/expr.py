"""Parser and canonical printer for field expressions.

Grammar (whitespace insignificant, left-associative binary operators):

    expr       := term { ("+"|"-") term }
    term       := unary { ("*"|"/") unary }
    unary      := ["-"] power
    power      := atom ["^" signed_int]
    atom       := integer | "q" | "a" | "(" expr ")"
    signed_int := ["-"] digits

Digits are the ASCII 0-9.  Precedence: ^ binds tighter than unary minus,
which binds tighter than * and /, which bind tighter than + and -.  An
expression holds at most MAX_OPERATORS of + - * / ^ and nests at most
MAX_NESTING parentheses deep.

The text is evaluated as it is read, with no expression tree in between.
A syntax error is reported before a field error: a text that does not
parse raises ExprSyntaxError even when a value in it is refused first.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .field import (
    DivisionByZero,
    FieldError,
    Poly2,
    RationalFunction,
    RF_A,
    RF_ONE,
    RF_Q,
    poly_power,
    rf_int,
    sum_parts,
)


# Every value parse_value reads or builds has a numerator and a denominator of
# at most MAX_TERMS terms, exponents of at most MAX_DEGREE, and a dense form of
# at most MAX_BITS bits: without its monomial content q^i a^j, (1 + span in q)
# (1 + span in a) times the largest coefficient bit length, so a monomial is
# its coefficient.  poly_gcd drops that content too, so a gcd costs what these
# sizes say.  On a 2-core Xeon the slowest single operation found within the
# caps, in a seeded search of products, quotients and sums of fractions at
# 2 to 16 terms and 1,024 dense bits, took 0.02 s.  The slowest classify the
# term cap was set by, a family IV (4, 4, 12) table at a = (13q+17)^3/(11q-19)^3
# with its last cell doubled, took 2.6 s.
MAX_TERMS = 16
MAX_BITS = 1024
MAX_DEGREE = 5000
# The most digits an integer of at most MAX_BITS bits can have.
_MAX_DIGITS = len(str(2**MAX_BITS - 1))
# The text of an expression is refused before it is parsed when it nests
# parentheses more than MAX_NESTING deep or holds more than MAX_OPERATORS
# operators, so the reader does not recurse past the stack.
# print_canonical of a value within the caps is at most 16 + 16 terms
# c*q^e*a^f at one level, 161 operators, so every printed value reads back.
MAX_NESTING = 32
MAX_OPERATORS = 256
# An error quotes a refused text of up to this many characters whole, and a
# longer one by its head and the count of characters left out.
MAX_ECHO = 80


def echo(text: str) -> str:
    """The quotation of a refused text in an error message."""
    more = len(text) - MAX_ECHO
    return repr(text[:MAX_ECHO]) + (f" and {more} more characters" if more > 0 else "")


class ValueTooLarge(FieldError):
    """A value, or a literal, is above one of the caps."""

    def __init__(self, measured: str, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"{measured.format(size)}, above the cap of {cap}")


class ExprSyntaxError(Exception):
    """Syntax error with a 1-based character position."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"at position {position}: expected {expected}")


# A token is a run of ASCII digits or any one character that is not
# whitespace; the tokenizer refuses every character outside the grammar.
_TOKEN = re.compile(r"[0-9]+|\S")
_SYMBOLS = frozenset("qa+-*/^()")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """(text, 1-based position) pairs, ending with ("", len(text) + 1)."""
    tokens = []
    for match in _TOKEN.finditer(text):
        tok, pos = match.group(), match.start() + 1
        if "0" <= tok[0] <= "9":
            if len(tok) > _MAX_DIGITS:  # refused before int() converts it
                raise ValueTooLarge("an integer literal has {} digits", len(tok), _MAX_DIGITS)
        elif tok not in _SYMBOLS:
            raise ExprSyntaxError(pos, f"a token, found {tok!r}")
        tokens.append((tok, pos))
    tokens.append(("", len(text) + 1))
    if len(tokens) > MAX_OPERATORS:  # each operator is a token
        operators = sum(map(text.count, "+-*/^"))
        if operators > MAX_OPERATORS:
            raise ValueTooLarge("an expression has {} operators", operators, MAX_OPERATORS)
    if text.count("(") > MAX_NESTING:
        depth = max(accumulate((tok == "(") - (tok == ")") for tok, _ in tokens))
        if depth > MAX_NESTING:
            raise ValueTooLarge("an expression nests parentheses {} deep", depth, MAX_NESTING)
    return tokens


def _binary(op: str, left: RationalFunction, right: RationalFunction) -> RationalFunction:
    if op == "*":
        return check_value(left * right)
    if op == "/":
        return check_value(left / right)
    if op == "-":
        right = -right
    if left.is_zero or right.is_zero:
        return left + right
    _check_sum(left, right)
    return check_value(left + right)


class _Reader:
    """Recursive descent whose rules return the values they read, each held
    to the caps, in the post-order of the text's expression tree.  The first
    FieldError is kept and no later operation runs, but the reading goes on,
    so that a syntax error anywhere in the text is reported before it."""

    def __init__(self, tokens: list[tuple[str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.failure: FieldError | None = None

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1][0]

    def error(self, expected: str) -> ExprSyntaxError:
        return ExprSyntaxError(self.tokens[self.pos][1], expected)

    def apply(self, operation, *operands):
        """operation(*operands), or None once a field error is kept."""
        if self.failure is None:
            try:
                return operation(*operands)
            except FieldError as exc:
                self.failure = exc
        return None

    def read_expr(self) -> RationalFunction | None:
        value = self.read_term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            value = self.apply(_binary, op, value, self.read_term())
        return value

    def read_term(self) -> RationalFunction | None:
        value = self.read_unary()
        while self.peek() in ("*", "/"):
            op = self.advance()
            value = self.apply(_binary, op, value, self.read_unary())
        return value

    def read_unary(self) -> RationalFunction | None:
        if self.peek() == "-":
            self.advance()
            return self.apply(RationalFunction.__neg__, self.read_power())
        return self.read_power()

    def read_power(self) -> RationalFunction | None:
        base = self.read_atom()
        if self.peek() == "^":
            self.advance()
            return self.apply(power, base, self.read_signed_int())
        return base

    def read_signed_int(self) -> int:
        negative = self.peek() == "-"
        if negative:
            self.advance()
        if not self.peek().isdigit():
            raise self.error("an integer exponent")
        value = int(self.advance())
        return -value if negative else value

    def read_atom(self) -> RationalFunction | None:
        tok = self.peek()
        if tok.isdigit():
            self.advance()
            return self.apply(check_value, rf_int(int(tok)))
        if tok in ("q", "a"):
            self.advance()
            return RF_Q if tok == "q" else RF_A
        if tok == "(":
            self.advance()
            value = self.read_expr()
            if self.peek() != ")":
                raise self.error("')'")
            self.advance()
            return value
        raise self.error("an integer, 'q', 'a', or '('")


def check_value(x: RationalFunction) -> RationalFunction:
    """x itself, or ValueTooLarge when x is above a cap."""
    _check_poly(x.num)
    _check_poly(x.den)
    return x


def _check_poly(p: Poly2) -> Poly2:
    terms = p.terms
    if len(terms) == 1:  # the common case, checked without the spans
        ((eq, ea), c), = terms.items()
        if eq <= MAX_DEGREE and ea <= MAX_DEGREE and c.bit_length() <= MAX_BITS:
            return p
    if len(terms) > MAX_TERMS:
        raise ValueTooLarge("a value has {} terms", len(terms), MAX_TERMS)
    if terms:
        qs, as_ = zip(*terms)
        top_q, top_a = max(qs), max(as_)
        if max(top_q, top_a) > MAX_DEGREE:
            raise ValueTooLarge("a value has exponent {}", max(top_q, top_a), MAX_DEGREE)
        bits = max(map(int.bit_length, terms.values()))
        bits *= (top_q - min(qs) + 1) * (top_a - min(as_) + 1)
        if bits > MAX_BITS:
            raise ValueTooLarge("a value has {} dense bits", bits, MAX_BITS)
    return p


def _check_sum(x: RationalFunction, y: RationalFunction) -> None:
    """Refuse x + y before any gcd runs when its reduced numerator must be
    above the cap: with num/den the sum before reduction, the reduced
    numerator is num divided by a factor of den, and spans add under
    products, so it spans at least span(num) - span(den) in each variable."""
    if x.den.is_monomial and y.den.is_monomial:  # then so is den: poly_gcd's monomial path
        return
    num, den = sum_parts(x, y)
    if len(num.terms) > 1:
        bound = 1
        for n, d in zip(zip(*num.terms), zip(*den.terms)):
            bound *= 1 + max(0, max(n) - min(n) - max(d) + min(d))
        if bound > MAX_BITS:
            raise ValueTooLarge("a sum has {} dense bits or more", bound, MAX_BITS)


def power(x: RationalFunction, n: int) -> RationalFunction:
    """x**n by square-and-multiply on numerator and denominator, every step
    held to the caps; powers of a canonical pair are canonical, so no step
    runs a gcd."""
    if n < 0:
        if x.is_zero:
            raise DivisionByZero("zero raised to a negative power")
        x, n = x.inverse(), -n
    if n == 0:
        return RF_ONE
    return RationalFunction(_poly_power(x.num, n), _poly_power(x.den, n), _canonical=True)


def _poly_power(p: Poly2, n: int) -> Poly2:
    if len(p.terms) == 1:
        # Sized before it is formed: the exponents exactly, and c**n, of
        # more than n bits when |c| > 1, by that bound for n above MAX_BITS.
        ((eq, ea), c), = p.terms.items()
        top = max(eq, ea) * n
        if top > MAX_DEGREE:
            raise ValueTooLarge("a value has exponent {}", top, MAX_DEGREE)
        if abs(c) > 1 and n > MAX_BITS:
            raise ValueTooLarge("a value has {} dense bits or more", n + 1, MAX_BITS)
    return poly_power(p, n, _check_poly)


def parse_value(text: str) -> RationalFunction:
    """The value of an expression text; raises ExprSyntaxError, or a
    FieldError such as ValueTooLarge or DivisionByZero."""
    reader = _Reader(_tokenize(text))
    value = reader.read_expr()
    if reader.peek():
        raise reader.error("end of input or an operator")
    if reader.failure is not None:
        raise reader.failure
    return value


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


_POLY_ONE = Poly2.const(1)


def print_canonical(x: RationalFunction) -> str:
    """Canonical text form; re-parsing yields an equal field element."""
    if x.den == _POLY_ONE:
        return print_poly(x.num)
    return f"({print_poly(x.num)})/({print_poly(x.den)})"

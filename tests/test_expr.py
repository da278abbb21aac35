import time
from dataclasses import dataclass
from typing import Union

import pytest
from hypothesis import example, given, settings, strategies as st

from qvira.expr import (
    ExprSyntaxError,
    MAX_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_OPERATORS,
    MAX_TERMS,
    ValueTooLarge,
    _check_sum,
    _tokenize,
    check_value,
    parse_value,
    power,
    print_canonical,
)
from qvira.field import (
    RF_A, RF_ONE, RF_Q, RF_ZERO, DivisionByZero, Poly2, RationalFunction, q_pow, rf_int,
)
from qvira.table import TableSyntaxError, parse_table


class TestParsing:
    def test_precedence_pow_over_mul(self):
        # q^2*a parses as (q^2)*a, not q^(2*a)
        assert parse_value("q^2*a") == RF_Q**2 * RF_A

    def test_precedence_mul_over_add(self):
        assert parse_value("1 + 2*q") == RF_ONE + rf_int(2) * RF_Q

    def test_unary_minus_binds_below_pow(self):
        # -q^2 is -(q^2)
        assert parse_value("-q^2") == -(RF_Q**2)

    def test_negative_exponent_literal(self):
        assert parse_value("q^-3") == q_pow(-3)

    def test_parentheses(self):
        assert parse_value("(1+q)^2") == (RF_ONE + RF_Q) ** 2

    def test_division_chain_left_assoc(self):
        assert parse_value("8/2/2") == rf_int(2)

    def test_whitespace_insensitive(self):
        assert parse_value("  q +   a ") == parse_value("q+a")

    @pytest.mark.parametrize("text, value", [
        ("q + 2", RF_Q + rf_int(2)),
        ("-a", -RF_A),
        ("q^-1", q_pow(-1)),
        ("2-1-1", RF_ZERO),  # (2 - 1) - 1, not 2 - (1 - 1)
        ("2/2/2", rf_int(1) / rf_int(2)),  # (2 / 2) / 2, not 2 / (2 / 2)
        ("-q^2", -(RF_Q**2)),
        ("(-q)^2", RF_Q**2),
        ("2^-1", rf_int(1) / rf_int(2)),
    ])
    def test_rule_value(self, text, value):
        assert parse_value(text) == value


class TestErrors:
    @pytest.mark.parametrize(
        "text", ["", "q +", "(q", "q^a", "q^(2)", "1 2", "x", "q**2", "3..5"]
    )
    def test_rejected(self, text):
        with pytest.raises(ExprSyntaxError):
            parse_value(text)

    def test_error_position_is_one_based(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_value("q + $")
        assert info.value.position == 5

    def test_division_by_zero_value(self):
        from qvira.field import DivisionByZero

        with pytest.raises(DivisionByZero):
            parse_value("1/(q - q)")


class TestTokenizer:
    """Errors that the tokenizer decides, before the parser reads a token."""

    def test_bad_character_after_a_valid_prefix(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_value("q+1 x")
        assert (info.value.position, info.value.expected) == (5, "a token, found 'x'")

    def test_long_digit_run_before_a_bad_character(self):
        with pytest.raises(ValueTooLarge) as info:
            parse_value("1" * 310 + " x")
        assert str(info.value) == "an integer literal has 310 digits, above the cap of 309"

    def test_bad_character_before_a_long_digit_run(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_value("q x " + "1" * 310)
        assert (info.value.position, info.value.expected) == (3, "a token, found 'x'")

    @pytest.mark.parametrize("space", ["\xa0", "\u2003"])
    def test_unicode_spaces_are_whitespace(self, space):
        text = f"{space}q{space}+{space}2{space}"
        assert parse_value(text) == RF_Q + rf_int(2)

    @pytest.mark.parametrize("text, position, found", [
        ("q^\u00b2", 3, "\u00b2"),  # superscript two
        ("\u0663", 1, "\u0663"),  # Arabic-Indic three
        ("1\u0663", 2, "\u0663"),
    ])
    def test_digits_are_ascii(self, text, position, found):
        with pytest.raises(ExprSyntaxError) as info:
            parse_value(text)
        assert (info.value.position, info.value.expected) == (position, f"a token, found {found!r}")


class TestExpressionCaps:
    def test_nesting_at_the_cap(self):
        assert parse_value("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == RF_Q

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400, 3000])
    def test_nesting_above_the_cap(self, depth):
        with pytest.raises(ValueTooLarge) as info:
            parse_value("(" * depth + "q" + ")" * depth)
        assert str(info.value) == (
            f"an expression nests parentheses {depth} deep, above the cap of {MAX_NESTING}"
        )

    def test_nesting_is_measured_not_counted(self):
        text = "+".join(["(q)"] * (MAX_NESTING + 1))
        assert parse_value(text) == rf_int(MAX_NESTING + 1) * RF_Q

    def test_operators_at_the_cap(self):
        assert parse_value("+".join(["q"] * (MAX_OPERATORS + 1))) == rf_int(MAX_OPERATORS + 1) * RF_Q

    @pytest.mark.parametrize("terms", [MAX_OPERATORS + 2, 1500])
    def test_operators_above_the_cap(self, terms):
        with pytest.raises(ValueTooLarge) as info:
            parse_value("+".join(["q"] * terms))
        assert str(info.value) == (
            f"an expression has {terms - 1} operators, above the cap of {MAX_OPERATORS}"
        )

    def test_widest_printed_value_reads_back(self):
        # 16 + 16 terms c*q^e*a^f under a leading minus: 2 * (1 + 15 + 64) + 1
        # operators, the most print_canonical writes for a value within the caps.
        def poly(offset):
            return "-" + " - ".join(
                f"{offset + 4 * i + j}*q^{i + 2}*a^{j + 2}" for i in range(4) for j in range(4)
            )

        text = f"({poly(2)})/({poly(3)})"
        assert sum(map(text.count, "+-*/^")) == 161 <= MAX_OPERATORS
        value = parse_value(text)
        assert parse_value(print_canonical(value)) == value

    def test_literal_cache_is_bounded(self):
        maxsize = rf_int.cache_info().maxsize
        assert maxsize is not None
        for n in range(2 * maxsize):
            parse_value(str(2**1000 + n))
        assert rf_int.cache_info().currsize <= maxsize


def _negated(text: str) -> str:
    return f"-({text})"


def _binary(op: str, left: str, right: str) -> str:
    return f"({left}){op}({right})"


def _power(base: str, exponent: int) -> str:
    return f"({base})^{exponent}"


# Expression texts with every operand of an operator parenthesized.
sized_texts = st.deferred(
    lambda: st.one_of(
        st.integers(-(2**300), 2**300).map(str),
        st.sampled_from(["q", "a"]),
        sized_texts.map(_negated),
        st.builds(_binary, st.sampled_from(["+", "-", "*", "/"]), sized_texts, sized_texts),
        st.builds(_power, sized_texts, st.integers(-40, 70)),
    )
)


def _measured_over(x: RationalFunction) -> bool:
    """Whether x is above a cap, measured here apart from parse_value."""
    for p in (x.num, x.den):
        if not p.terms:
            continue
        low_q, low_a = p.min_exponents()
        high_q, high_a = max(m[0] for m in p.terms), max(m[1] for m in p.terms)
        bits = max(abs(c).bit_length() for c in p.terms.values())
        dense = (high_q - low_q + 1) * (high_a - low_a + 1) * bits
        if len(p.terms) > MAX_TERMS or max(high_q, high_a) > MAX_DEGREE or dense > MAX_BITS:
            return True
    return False


def _names_a_size_above_a_cap(error: ValueTooLarge) -> bool:
    message = str(error)
    return error.size > error.cap and str(error.size) in message and message.endswith(
        f"above the cap of {error.cap}"
    )


class TestPowerCaps:
    @pytest.mark.parametrize(
        "text",
        ["q^999*q^999", "2^1000", "(2*q)^-1000", "(q+1)^999", "(q+a+1)^43", "((q+a+1)^3)^14",
         "((1+q+a+q^12)^3)^3"],
    )
    def test_at_the_caps(self, text):
        # These powers sat at the predicted caps of earlier releases.  Each
        # now ends quickly in a value within the caps or in a refusal that
        # names a measured size above one.
        start = time.perf_counter()
        try:
            value = parse_value(text)
        except ValueTooLarge as error:
            assert _names_a_size_above_a_cap(error)
        else:
            assert not _measured_over(value)
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize(
        "text",
        ["(2*q)^1001", "(q/2)^-1001", "(q+1)^15", "(q+a+1)^4", "((q+a+1)^2)^2", "q^5000",
         "(-q/a)^-3000"],
    )
    def test_within_the_caps(self, text):
        assert not _measured_over(parse_value(text))

    @pytest.mark.parametrize(
        "text, value",
        [("q^5000", q_pow(5000)),
         ("(-q/a)^-3000", (RF_A / RF_Q) ** 3000),
         ("(q^3*a^-2)^1000", q_pow(3000) / RF_A**2000),
         ("(-1)^1000001", rf_int(-1))],
    )
    def test_monomial_powers_are_sized_by_their_coefficient(self, text, value):
        # A monomial's dense form is its coefficient: q^5000 is one term of
        # one bit, with exponent 5000.
        assert parse_value(text) == value

    @pytest.mark.parametrize(
        "text, message",
        [("q^100000", "a value has exponent 100000, above the cap of 5000"),
         ("(-q/a)^-5001", "a value has exponent 5001, above the cap of 5000"),
         ("(q^3*a^-2)^2000", "a value has exponent 6000, above the cap of 5000"),
         ("(q+1)^999", "a value has 17 terms, above the cap of 16"),
         ("(q+1)^16", "a value has 17 terms, above the cap of 16"),
         ("(123456789*q+1)^999", "a value has 1512 dense bits, above the cap of 1024"),
         ("(q+a+1)^43", "a value has 45 terms, above the cap of 16"),
         ("((q+a+1)^3)^14", "a value has 28 terms, above the cap of 16"),
         ("((1+q+a+q^12)^3)^3", "a value has 20 terms, above the cap of 16"),
         ("(q+1)^-3000", "a value has 17 terms, above the cap of 16"),
         ("(q+a+1)^44", "a value has 45 terms, above the cap of 16"),
         ("((q+a+1)^3)^15", "a value has 28 terms, above the cap of 16"),
         ("(1/(q+a+1))^44", "a value has 45 terms, above the cap of 16"),
         ("5^1000", "a value has 2322 dense bits, above the cap of 1024"),
         ("(3*q+2*a)^900", "a value has 1377 dense bits, above the cap of 1024"),
         ("(q+1)^999/(q+2)^500", "a value has 17 terms, above the cap of 16"),
         ("(q^10000000+1)/(q^9999999+1)",
          "a value has exponent 10000000, above the cap of 5000"),
         ("((1+q+a+q^27+a^27)^3)^3", "a value has 6050 dense bits, above the cap of 1024"),
         ("3^2000", "a value has 2001 dense bits or more, above the cap of 1024"),
         ("(q^2)^3000", "a value has exponent 6000, above the cap of 5000"),
         ("q^4000/(q+2) + 1/(q+3)", "a sum has 4000 dense bits or more, above the cap of 1024"),
         ("q^5000/(q+a+2) - a^5000/(q+a+2)",
          "a sum has 25000000 dense bits or more, above the cap of 1024"),
         ("q^" + "9" * 5000, "an integer literal has 5000 digits, above the cap of 309"),
         ("(q+1)^" + "9" * 5000, "an integer literal has 5000 digits, above the cap of 309"),
         ("7" * 5000, "an integer literal has 5000 digits, above the cap of 309"),
         ("9" * 309, "a value has 1027 dense bits, above the cap of 1024")],
    )
    def test_over_the_caps(self, text, message):
        start = time.perf_counter()
        with pytest.raises(ValueTooLarge) as info:
            parse_value(text)
        assert time.perf_counter() - start < 2
        assert str(info.value) == message
        assert _names_a_size_above_a_cap(info.value)

    def test_cap_is_checked_before_the_power_is_expanded(self, monkeypatch):
        # Each square-and-multiply step is checked before the next one runs.
        base = parse_value("q+a+1")
        products = []
        mul = Poly2.__mul__
        monkeypatch.setattr(Poly2, "__mul__", lambda p, r: products.append(1) or mul(p, r))
        with pytest.raises(ValueTooLarge, match="terms"):
            power(base, 3000)
        # (q+a+1)^2 and ^4 are within the caps; ^8 is refused.
        assert len(products) <= 4

    @pytest.mark.parametrize(
        "value",
        [q_pow(1218), q_pow(-2400) * RF_A**1500, -(RF_A**3000) / q_pow(1001), q_pow(5000)],
    )
    def test_printed_values_parse_back_above_the_exponent_cap(self, value):
        # Exponents above 1,000, the exponent cap of earlier releases.
        assert parse_value(print_canonical(value)) == value

    def test_printed_value_above_the_caps_is_refused(self):
        # (q^5000 a^1200 + 1)/a^1200 spans a 5001 x 1201 dense box.
        with pytest.raises(ValueTooLarge, match="6006201 dense bits"):
            parse_value(print_canonical(q_pow(5000) + RF_A**-1200))

    @given(sized_texts)
    @settings(max_examples=200, deadline=None)
    def test_every_value_is_within_the_caps(self, text):
        try:
            value = parse_value(text)
        except ValueTooLarge as error:
            assert _names_a_size_above_a_cap(error)
            return
        except DivisionByZero:
            return
        assert not _measured_over(value)


class TestPrinting:
    def test_polynomial_term_order(self):
        # total degree descending, then q-degree descending
        assert print_canonical(parse_value("1 + a + q^2*a + q")) == "q^2*a + q + a + 1"

    def test_fraction_layout(self):
        assert print_canonical(parse_value("(q+1)/(q-1)")) == "(q + 1)/(q - 1)"

    def test_integer_and_zero(self):
        assert print_canonical(rf_int(-7)) == "-7"
        assert print_canonical(RF_ZERO) == "0"

    def test_unit_coefficients_suppressed(self):
        assert print_canonical(RF_Q * RF_A) == "q*a"
        assert print_canonical(-RF_A) == "-a"

    def test_fractional_scalar(self):
        assert print_canonical(parse_value("q/2")) == "(q)/(2)"


class TestRoundTrip:
    CASES = [
        "q", "a", "0", "1", "-1", "q^5*a^3", "(q^2 - 1)/(q*a)",
        "q + q^-1", "(1+q)^2/q", "-3*a/(2*q - 5)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse(self, text):
        value = parse_value(text)
        printed = print_canonical(value)
        assert parse_value(printed) == value
        # printing is a fixed point after one round
        assert print_canonical(parse_value(printed)) == printed


texts = st.deferred(
    lambda: st.one_of(
        st.integers(-9, 9).map(str),
        st.sampled_from(["q", "a"]),
        texts.map(_negated),
        st.builds(_binary, st.sampled_from(["+", "-", "*"]), texts, texts),
        st.builds(_power, texts, st.integers(0, 3)),
    )
)


class TestFuzz:
    @given(texts)
    @settings(max_examples=150, deadline=None)
    def test_evaluate_round_trips_through_text(self, text):
        # Nested powers can exceed the caps, which TestPowerCaps covers; each
        # refusal names a size above a cap, and every value parse_value does
        # return must read back.
        try:
            value = parse_value(text)
        except ValueTooLarge as error:
            assert _names_a_size_above_a_cap(error)
            return
        assert parse_value(print_canonical(value)) == value


_TABLE_HEAD = (
    "vlq-table 1\nmode symbolic\nk-range -1 1\ndims 111\nh-range -1 1\nj-range -1 1\n"
)


class TestErrorPrecedence:
    """A syntax error anywhere in a text is reported before a field error,
    and of two field errors the one met first in reading order."""

    @pytest.mark.parametrize("text, position", [("1/0 + )", 7), ("2^1000*2^1000 + )", 17)])
    def test_syntax_error_after_a_field_error(self, text, position):
        with pytest.raises(ExprSyntaxError) as info:
            parse_value(text)
        assert (info.value.position, info.value.expected) == (
            position, "an integer, 'q', 'a', or '('"
        )

    def test_missing_exponent_after_a_field_error(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_value("q/(a-a) + q^")
        assert info.value.expected == "an integer exponent"

    @pytest.mark.parametrize("text, error, message", [
        ("1/0 + 2^1000*2^1000", DivisionByZero, "division by the zero field element"),
        ("2^1000*2^1000 + 1/0", ValueTooLarge,
         "a value has 2001 dense bits, above the cap of 1024"),
    ])
    def test_first_field_error(self, text, error, message):
        with pytest.raises(error) as info:
            parse_value(text)
        assert type(info.value) is error and str(info.value) == message

    def test_table_entry(self):
        with pytest.raises(TableSyntaxError) as info:
            parse_table(_TABLE_HEAD + "f 1 0 0 1/0 + )\n")
        assert str(info.value) == "line 7: at position 7: expected an integer, 'q', 'a', or '('"


# -- the two-pass reader, kept as the reference ------------------------------
#
# The reader parse_value replaced: a parse of the text into an expression
# tree, then a walk of the tree that evaluates it.  Every syntax error comes
# out of the parse, before any value is formed.


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


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1][0]

    def error(self, expected: str) -> ExprSyntaxError:
        return ExprSyntaxError(self.tokens[self.pos][1], expected)

    def parse_expr(self) -> ExprAst:
        node = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> ExprAst:
        node = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.advance()
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> ExprAst:
        if self.peek() == "-":
            self.advance()
            return Neg(self.parse_power())
        return self.parse_power()

    def parse_power(self) -> ExprAst:
        base = self.parse_atom()
        if self.peek() == "^":
            self.advance()
            return Pow(base, self.parse_signed_int())
        return base

    def parse_signed_int(self) -> int:
        negative = self.peek() == "-"
        if negative:
            self.advance()
        if not self.peek().isdigit():
            raise self.error("an integer exponent")
        value = int(self.advance())
        return -value if negative else value

    def parse_atom(self) -> ExprAst:
        tok = self.peek()
        if tok.isdigit():
            self.advance()
            return IntLiteral(int(tok))
        if tok in ("q", "a"):
            self.advance()
            return Var(tok)
        if tok == "(":
            self.advance()
            node = self.parse_expr()
            if self.peek() != ")":
                raise self.error("')'")
            self.advance()
            return node
        raise self.error("an integer, 'q', 'a', or '('")


def parse_expr(text: str) -> ExprAst:
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.peek():
        raise parser.error("end of input or an operator")
    return node


def evaluate(ast: ExprAst) -> RationalFunction:
    if isinstance(ast, IntLiteral):
        return check_value(rf_int(ast.value))
    if isinstance(ast, Var):
        return RF_Q if ast.name == "q" else RF_A
    if isinstance(ast, Neg):
        return -evaluate(ast.child)
    if isinstance(ast, Pow):
        return power(evaluate(ast.base), ast.exponent)
    if isinstance(ast, BinOp):
        left, right = evaluate(ast.left), evaluate(ast.right)
        if ast.op == "*":
            return check_value(left * right)
        if ast.op == "/":
            return check_value(left / right)
        if ast.op == "-":
            right = -right
        if left.is_zero or right.is_zero:
            return left + right
        _check_sum(left, right)
        return check_value(left + right)
    raise TypeError(f"not an expression node: {ast!r}")


def _outcome(read, text):
    """The value read, or the class and message of the error raised."""
    try:
        return read(text)
    except Exception as exc:  # noqa: BLE001 - any error is part of the outcome
        return type(exc), str(exc)


# Grammar tokens, grammar texts, stray characters, 310-digit runs, division
# by zero, powers above the caps and nesting above the cap, concatenated.
_FRAGMENTS = [
    "q", "a", "0", "1", "2", "7", "+", "-", "*", "/", "^", "(", ")", " ", "x", "\u00b2",
    "1" * 310, "/0", "/(q-q)", "^-2", "^1000", "^5000", "2^1000", "(q+1)^20", "(" * 40,
]
mixed_texts = st.lists(st.one_of(st.sampled_from(_FRAGMENTS), texts), max_size=12).map("".join)


class TestAgainstTheTwoPassReader:
    @given(mixed_texts)
    @example("1/0 + )")
    @example("2^1000*2^1000 + )")
    @example("q/(a-a) + q^")
    @example("1/0 + 2^1000*2^1000")
    @example("2^1000*2^1000 + 1/0")
    @example("q - a - 1")
    @example("8/2/2")
    @settings(max_examples=400, deadline=None)
    def test_same_value_or_error(self, text):
        assert _outcome(parse_value, text) == _outcome(lambda t: evaluate(parse_expr(t)), text)

import time

import pytest
from hypothesis import given, settings, strategies as st

from qvira.expr import (
    BinOp,
    ExprSyntaxError,
    IntLiteral,
    Neg,
    Pow,
    MAX_BITS,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_OPERATORS,
    MAX_TERMS,
    ValueTooLarge,
    Var,
    evaluate,
    parse_expr,
    parse_value,
    print_canonical,
)
from qvira.field import (
    RF_A, RF_ONE, RF_Q, RF_ZERO, DivisionByZero, Poly2, RationalFunction, q_pow, rf_int,
)


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

    def test_ast_shape(self):
        ast = parse_expr("q + 2")
        assert ast == BinOp("+", Var("q"), IntLiteral(2))
        assert parse_expr("-a") == Neg(Var("a"))
        assert parse_expr("q^-1") == Pow(Var("q"), -1)


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
            parse_expr("q+1 x")
        assert (info.value.position, info.value.expected) == (5, "a token, found 'x'")

    def test_long_digit_run_before_a_bad_character(self):
        with pytest.raises(ValueTooLarge) as info:
            parse_expr("1" * 310 + " x")
        assert str(info.value) == "an integer literal has 310 digits, above the cap of 309"

    def test_bad_character_before_a_long_digit_run(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("q x " + "1" * 310)
        assert (info.value.position, info.value.expected) == (3, "a token, found 'x'")

    @pytest.mark.parametrize("space", ["\xa0", "\u2003"])
    def test_unicode_spaces_are_whitespace(self, space):
        text = f"{space}q{space}+{space}2{space}"
        assert parse_expr(text) == BinOp("+", Var("q"), IntLiteral(2))

    @pytest.mark.parametrize("text, position, found", [
        ("q^\u00b2", 3, "\u00b2"),  # superscript two
        ("\u0663", 1, "\u0663"),  # Arabic-Indic three
        ("1\u0663", 2, "\u0663"),
    ])
    def test_digits_are_ascii(self, text, position, found):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text)
        assert (info.value.position, info.value.expected) == (position, f"a token, found {found!r}")


class TestExpressionCaps:
    def test_nesting_at_the_cap(self):
        assert parse_expr("(" * MAX_NESTING + "q" + ")" * MAX_NESTING) == Var("q")

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400, 3000])
    def test_nesting_above_the_cap(self, depth):
        with pytest.raises(ValueTooLarge) as info:
            parse_expr("(" * depth + "q" + ")" * depth)
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
            parse_expr("+".join(["q"] * terms))
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


sized_asts = st.deferred(
    lambda: st.one_of(
        st.integers(-(2**300), 2**300).map(IntLiteral),
        st.sampled_from(["q", "a"]).map(Var),
        st.builds(Neg, sized_asts),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), sized_asts, sized_asts),
        st.builds(Pow, sized_asts, st.integers(-40, 70)),
    )
)


def _measured_over(x: RationalFunction) -> bool:
    """Whether x is above a cap, measured here apart from evaluate."""
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
        products = []
        mul = Poly2.__mul__
        monkeypatch.setattr(Poly2, "__mul__", lambda p, r: products.append(1) or mul(p, r))
        with pytest.raises(ValueTooLarge, match="terms"):
            evaluate(Pow(BinOp("+", BinOp("+", Var("q"), Var("a")), IntLiteral(1)), 3000))
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

    @given(sized_asts)
    @settings(max_examples=200, deadline=None)
    def test_every_value_is_within_the_caps(self, ast):
        try:
            value = evaluate(ast)
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


asts = st.deferred(
    lambda: st.one_of(
        st.integers(-9, 9).map(IntLiteral),
        st.sampled_from(["q", "a"]).map(Var),
        st.builds(Neg, asts),
        st.builds(BinOp, st.sampled_from(["+", "-", "*"]), asts, asts),
        st.builds(Pow, asts, st.integers(0, 3)),
    )
)


class TestFuzz:
    @given(asts)
    @settings(max_examples=150, deadline=None)
    def test_evaluate_round_trips_through_text(self, ast):
        # Nested powers can exceed the caps, which TestValueCaps covers; each
        # refusal names a size above a cap, and every value evaluate does
        # return must read back.
        try:
            value = evaluate(ast)
        except ValueTooLarge as error:
            assert _names_a_size_above_a_cap(error)
            return
        assert parse_value(print_canonical(value)) == value

from fractions import Fraction

import pytest

from qvira.classifier import (
    Inconsistent,
    IsoClass,
    NEITHER,
    Orientation,
    Reason,
    TrivialSum,
    characteristic_equation,
    classify,
    orientation_from_b,
)
from qvira.expr import parse_value
from qvira.families import Family, gen_table
from qvira.field import (
    FieldContext,
    RF_A,
    RF_ONE,
    RF_Q,
    RF_ZERO,
    rf_int,
)
from qvira.table import TableDocument, specialize

NUMERIC = FieldContext.numeric(2, 3)

EXPECTED = {
    Family.I: Orientation.FORWARD,
    Family.II: Orientation.FORWARD,
    Family.III: Orientation.REVERSE,
    Family.IV: Orientation.REVERSE,
}


def family_table(family, mode=FieldContext.symbolic()):
    return gen_table(family, RF_A, 2, 2, 3, mode)


class TestCharacteristicEquation:
    def test_unit_case_roots(self):
        alpha, beta, gamma = characteristic_equation(RF_ONE)
        assert (alpha, beta, gamma) == (RF_ONE, -(RF_Q + RF_Q.inverse()), RF_ONE)
        for r in (RF_Q, RF_Q.inverse()):
            assert ((alpha * r + beta) * r + gamma).is_zero

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            characteristic_equation(RF_ZERO)


class TestOrientation:
    def test_forward(self):
        assert orientation_from_b(RF_Q) is Orientation.FORWARD

    def test_reverse(self):
        assert orientation_from_b(RF_Q.inverse()) is Orientation.REVERSE

    @pytest.mark.parametrize("text", ["q^2", "2", "a"])
    def test_neither(self, text):
        assert orientation_from_b(parse_value(text)) is NEITHER

    def test_numeric_context(self):
        assert orientation_from_b(rf_int(2), NUMERIC) is Orientation.FORWARD
        assert orientation_from_b(parse_value("1/2"), NUMERIC) is Orientation.REVERSE
        assert orientation_from_b(rf_int(3), NUMERIC) is NEITHER

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            orientation_from_b(RF_ZERO)

    @pytest.mark.parametrize(
        "ctx",
        [FieldContext.symbolic(), NUMERIC, FieldContext.numeric(Fraction(1, 3), Fraction(-7, 2))],
    )
    @pytest.mark.parametrize(
        "text",
        ["q", "q^-1", "-q", "q^2", "q^-2", "-q^-1", "1", "-1", "2", "1/2", "3", "1/3", "-3",
         "a", "q*a", "(q+1)/a", "(q^2+1)/q"],
    )
    def test_matches_identity_form(self, ctx, text):
        # Reference: the exact identity (1+b)^2 / b = (1+q)^2 / q picks out
        # b in {q, 1/q}, and b == q separates the two.
        b = specialize(parse_value(text), ctx)
        q_val = specialize(RF_Q, ctx)
        if (RF_ONE + b) ** 2 / b != (RF_ONE + q_val) ** 2 / q_val:
            expected = NEITHER
        else:
            expected = Orientation.FORWARD if b == q_val else Orientation.REVERSE
        assert orientation_from_b(b, ctx) is expected


class TestClassify:
    @pytest.mark.parametrize("family", list(Family))
    def test_symbolic_round_trip(self, family):
        result = classify(family_table(family))
        assert isinstance(result, IsoClass)
        assert result.orientation is EXPECTED[family]
        assert result.a == RF_A
        assert result.exact_family is family

    @pytest.mark.parametrize("family", list(Family))
    def test_numeric_round_trip(self, family):
        result = classify(family_table(family, NUMERIC))
        assert isinstance(result, IsoClass)
        assert result.orientation is EXPECTED[family]
        assert result.a == rf_int(3)

    def test_gauge_changed_table_same_class(self):
        # a diagonal rescaling changes the entries but not the verdict;
        # the rescaled table is no family verbatim
        doc = family_table(Family.I)
        scale = {k: parse_value("a + 1") ** abs(k) for k in doc.degrees()}
        rescaled = TableDocument(
            context=doc.context,
            k_range=doc.k_range,
            dims=doc.dims,
            h_range=doc.h_range,
            j_range=doc.j_range,
            entries={
                (h, j, k): value * scale[k + h] / scale[k]
                for (h, j, k), value in doc.entries.items()
            },
        )
        result = classify(rescaled)
        assert isinstance(result, IsoClass)
        assert result.orientation is Orientation.FORWARD
        assert result.a == RF_A
        assert result.exact_family is None

    def test_empty_table_is_trivial_sum(self):
        doc = TableDocument(
            context=FieldContext.symbolic(),
            k_range=(-3, 3),
            dims=(1,) * 7,
            h_range=(-2, 2),
            j_range=(-2, 2),
        )
        assert classify(doc) == TrivialSum()

    def test_degenerate_with_leftover_entries(self):
        doc = family_table(Family.I)
        del doc.entries[(1, 0, 0)]
        result = classify(doc)
        assert isinstance(result, Inconsistent)
        assert result.reason is Reason.DEGENERATE_NONZERO

    def test_perturbed_entry_is_bracket_violation(self):
        doc = family_table(Family.II)
        doc.entries[(2, 1, 0)] = doc.entries[(2, 1, 0)] * rf_int(7)
        result = classify(doc)
        assert isinstance(result, Inconsistent)
        assert result.reason is Reason.BRACKET_RELATION
        assert result.witness is not None

    def test_window_too_small(self):
        doc = gen_table(Family.I, RF_A, 1, 2, 3)
        result = classify(doc)
        assert isinstance(result, Inconsistent)
        assert result.reason is Reason.WINDOW_TOO_SMALL

    def test_k_span_too_small(self):
        doc = gen_table(Family.I, RF_A, 2, 2, 2)
        result = classify(doc)
        assert isinstance(result, Inconsistent)
        assert result.reason is Reason.WINDOW_TOO_SMALL


from fractions import Fraction

import pytest

from qvira.expr import parse_value
from qvira.field import FieldContext, RF_ZERO
from qvira.table import (
    TableDocument,
    TableSemanticError,
    TableSyntaxError,
    parse_table,
    write_table,
)

MINIMAL = """\
vlq-table 1
mode symbolic
k-range -1 1
dims 111
h-range -1 1
j-range -1 1
f 1 0 0 q + 1
f 0 1 -1 a*q^-1
"""


class TestParse:
    def test_minimal_document(self):
        doc = parse_table(MINIMAL)
        assert doc.k_range == (-1, 1)
        assert doc.dims == (1, 1, 1)
        assert doc.h_range == (-1, 1)
        assert doc.j_range == (-1, 1)
        assert doc.entry(1, 0, 0) == parse_value("q+1")
        assert doc.entry(0, 1, -1) == parse_value("a/q")
        # omitted entries read as zero
        assert doc.entry(-1, 0, 0) == RF_ZERO

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "f 1 0 0 q + 1", "f 1 0 0 q + 1   # trailing comment"
        )
        assert parse_table(text).entry(1, 0, 0) == parse_value("q+1")

    def test_numeric_mode_substitutes(self):
        text = MINIMAL.replace("mode symbolic", "mode numeric q=2 a=3")
        doc = parse_table(text)
        assert doc.context.is_numeric
        assert doc.context.q0 == Fraction(2)
        assert doc.entry(1, 0, 0) == parse_value("3")
        assert doc.entry(0, 1, -1) == parse_value("3/2")

    def test_zero_entry_dropped(self):
        text = MINIMAL + "f 0 1 0 q - q\n"
        doc = parse_table(text)
        assert (0, 1, 0) not in doc.entries


class TestRejects:
    def r(self, text, error, fragment):
        with pytest.raises(error) as info:
            parse_table(text)
        assert fragment in str(info.value)
        return info.value

    def test_bad_version(self):
        self.r(MINIMAL.replace("vlq-table 1", "vlq-table 2"), TableSemanticError, "version")

    def test_bad_mode(self):
        self.r(MINIMAL.replace("mode symbolic", "mode sym"), TableSyntaxError, "mode")

    def test_numeric_q_one_rejected(self):
        self.r(
            MINIMAL.replace("mode symbolic", "mode numeric q=1 a=3"),
            TableSemanticError,
            "q",
        )

    def test_dims_length_mismatch(self):
        self.r(MINIMAL.replace("dims 111", "dims 11"), TableSemanticError, "dims")

    def test_dims_not_bitstring(self):
        self.r(MINIMAL.replace("dims 111", "dims 121"), TableSyntaxError, "bitstring")

    def test_excluded_index(self):
        self.r(MINIMAL + "f 0 0 0 q\n", TableSemanticError, "(0, 0)")

    def test_h_out_of_range(self):
        self.r(MINIMAL + "f 2 0 -1 q\n", TableSemanticError, "h=2")

    def test_degree_leaves_window(self):
        self.r(MINIMAL + "f 1 0 1 q\n", TableSemanticError, "k-range")

    def test_duplicate_entry(self):
        self.r(MINIMAL + "f 1 0 0 q\n", TableSemanticError, "duplicate")

    def test_entry_on_dead_degree(self):
        # degree 0 is dead and the entry f 1 0 0 maps degree 0 to 1
        text = MINIMAL.replace("dims 111", "dims 101")
        self.r(text, TableSemanticError, "dimension-0")

    def test_bad_expression(self):
        self.r(MINIMAL + "f -1 0 0 q +\n", TableSyntaxError, "line")

    def test_missing_header(self):
        self.r("vlq-table 1\nmode symbolic\n", TableSyntaxError, "k-range")

    @pytest.mark.parametrize(
        "line, bad",
        [("k-range -1 1", "k-range -1 x"), ("h-range -1 1", "h-range -1.5 1"),
         ("j-range -1 1", "j-range 1/2 1")],
    )
    def test_non_integer_range(self, line, bad):
        error = self.r(MINIMAL.replace(line, bad), TableSyntaxError, "integers")
        assert error.line == MINIMAL.splitlines().index(line) + 1

    @pytest.mark.parametrize(
        "line, empty", [("h-range -1 1", "h-range 3 -3"), ("j-range -1 1", "j-range 1 0")]
    )
    def test_empty_range(self, line, empty):
        text = MINIMAL.replace(line, empty).split("f ", 1)[0]
        error = self.r(text, TableSemanticError, "empty " + line.split()[0])
        assert error.line == MINIMAL.splitlines().index(line) + 1

    @pytest.mark.parametrize(
        "mode, expr, message",
        [("mode symbolic", "1/(q-q)", "division"),
         ("mode numeric q=2 a=3", "1/(q-2)", "denominator vanishes")],
    )
    def test_field_error_in_entry_keeps_line(self, mode, expr, message):
        text = MINIMAL.replace("mode symbolic", mode) + f"f -1 0 0 {expr}\n"
        error = self.r(text, TableSemanticError, message)
        assert error.line == len(text.splitlines())


class TestCells:
    def _doc(self, h_range, j_range):
        return TableDocument(FieldContext.symbolic(), (0, 2), (1, 1, 1), h_range, j_range)

    def test_order_on_asymmetric_window(self):
        doc = self._doc((-1, 2), (0, 1))
        assert list(doc.cells()) == [
            (-1, 0, 1), (-1, 0, 2), (-1, 1, 1), (-1, 1, 2),
            (0, 1, 0), (0, 1, 1), (0, 1, 2),
            (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1),
            (2, 0, 0), (2, 1, 0),
        ]

    def test_h_beyond_k_span_has_no_cells(self):
        doc = self._doc((3, 4), (-1, 1))
        assert list(doc.cells()) == []


class TestWrite:
    def test_round_trip_byte_identical(self):
        canonical = write_table(parse_table(MINIMAL))
        assert write_table(parse_table(canonical)) == canonical

    def test_entries_sorted(self):
        lines = write_table(parse_table(MINIMAL)).splitlines()
        entry_lines = [line for line in lines if line.startswith("f ")]
        assert entry_lines == ["f 0 1 -1 (a)/(q)", "f 1 0 0 q + 1"]

    def test_numeric_header_preserved(self):
        text = MINIMAL.replace("mode symbolic", "mode numeric q=-1/2 a=7")
        assert "mode numeric q=-1/2 a=7" in write_table(parse_table(text))

    def test_check_catches_stored_zero(self):
        doc = parse_table(MINIMAL)
        doc.entries[(0, 1, 0)] = RF_ZERO
        with pytest.raises(TableSemanticError):
            doc.check()

    def test_check_passes_on_parsed_document(self):
        parse_table(MINIMAL).check()

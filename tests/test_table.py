import re
from fractions import Fraction

import pytest

from qvira import cli, field
from qvira.expr import ValueTooLarge, parse_value
from qvira.families import Family, gen_table
from qvira.field import FieldContext, RF_A, RF_ZERO, q_pow, rf_int
from qvira.table import (
    MAX_DEGREES,
    TableDocument,
    TableSemanticError,
    TableSyntaxError,
    parse_table,
    specialize,
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
         ("mode numeric q=2 a=3", "1/(q-2)", "denominator vanishes"),
         ("mode symbolic", "(q+1)^5000", "a value has 17 terms, above the cap of 16"),
         ("mode numeric q=2 a=3", "q^999999999", "a value has exponent 999999999, above the cap of 5000"),
         ("mode numeric q=2 a=3", "q^3000", "a term has 6001 bits at the numeric point, above the cap of 1024")],
    )
    def test_field_error_in_entry_keeps_line(self, mode, expr, message):
        text = MINIMAL.replace("mode symbolic", mode) + f"f -1 0 0 {expr}\n"
        error = self.r(text, TableSemanticError, message)
        assert error.line == len(text.splitlines())

    @pytest.mark.parametrize(
        "mode, message",
        [("mode numeric q=" + "7" * 400 + " a=3", "a value has 1329 dense bits, above the cap of 1024"),
         ("mode numeric q=2 a=1e99999", "a rational literal has an exponent of 5 digits, above the cap of 4"),
         ("mode numeric q=2 a=1e-400", "a value has 1329 dense bits, above the cap of 1024"),
         ("mode numeric q=2 a=" + "1" * 700, "a rational literal has 700 characters, above the cap of 620")],
    )
    def test_numeric_point_over_the_caps(self, mode, message):
        error = self.r(MINIMAL.replace("mode symbolic", mode), TableSemanticError, message)
        assert error.line == 2


def window_text(k_range, h_range, j_range):
    """A header with the given window, and the up, down and f(0,1,k) entries
    that fall inside it."""
    k_min, k_max = k_range
    lines = [
        "vlq-table 1", "mode symbolic", f"k-range {k_min} {k_max}",
        "dims " + "1" * (k_max - k_min + 1),
        f"h-range {h_range[0]} {h_range[1]}", f"j-range {j_range[0]} {j_range[1]}",
    ]
    for h, j, value in ((1, 0, "1"), (-1, 0, "1"), (0, 1, "a*q^{k}")):
        if h_range[0] <= h <= h_range[1] and j_range[0] <= j <= j_range[1]:
            ks = range(max(k_min, k_min - h), min(k_max, k_max - h) + 1)
            lines += [f"f {h} {j} {k} " + value.format(k=k) for k in ks]
    return "\n".join(lines) + "\n"


class TestWindowCaps:
    def test_wide_window_rejected_at_j_range_line(self):
        # 121 x 121 - 1 = 14,640 basis indices kept classify running past 10 s.
        with pytest.raises(TableSemanticError) as info:
            parse_table(window_text((-3, 3), (-60, 60), (-60, 60)))
        assert info.value.line == 6
        assert "14640 basis indices (h, j), above the cap of 80" in str(info.value)

    def test_long_k_range_rejected_at_k_range_line(self):
        with pytest.raises(TableSemanticError) as info:
            parse_table(window_text((-13, 12), (-2, 2), (-2, 2)))
        assert info.value.line == 3
        assert "k-range has 26 degrees, above the cap of 25" in str(info.value)

    @pytest.mark.parametrize(
        "h_range, j_range",
        [((-4, 4), (-4, 4)), ((0, 0), (-40, 40)), ((1, 2), (1, 40)), ((-40, 40), (0, 0))],
    )
    def test_window_at_the_caps_parses(self, h_range, j_range):
        # Each box holds exactly 80 indices (h, j) != (0, 0), the cap.
        doc = parse_table(window_text((-12, 12), h_range, j_range))
        assert len(doc.dims) == MAX_DEGREES

    @pytest.mark.parametrize(
        "h_range, j_range", [((0, 0), (-40, 41)), ((1, 2), (1, 41)), ((-4, 4), (-4, 5))]
    )
    def test_one_index_over_the_cap_rejected(self, h_range, j_range):
        with pytest.raises(TableSemanticError) as info:
            parse_table(window_text((-3, 3), h_range, j_range))
        assert "above the cap of 80" in str(info.value)

    @pytest.mark.parametrize(
        "bounds, message",
        [((5, 5, 3), "120 basis indices (h, j), above the cap of 80"),
         ((1, 1, 13), "k-range has 27 degrees, above the cap of 25")],
    )
    def test_gen_table_refuses_what_parse_table_refuses(self, bounds, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            gen_table(Family.I, RF_A, *bounds)

    @pytest.mark.parametrize("bounds", [(3, 3, 6), (2, 2, 3)])
    @pytest.mark.parametrize("family", list(Family))
    def test_benchmark_windows_parse(self, family, bounds):
        doc = gen_table(family, RF_A, *bounds)
        assert parse_table(write_table(doc)).entries == doc.entries


def test_round_trip_above_the_exponent_cap():
    # f(3, 3, 3) = (q^400 q^3)^3 = q^1209; printed monomial powers are uncapped.
    doc = gen_table(Family.I, q_pow(400), 3, 3, 6)
    assert doc.entries[(3, 3, 3)] == q_pow(1209)
    text = write_table(doc)
    assert parse_table(text).entries == doc.entries
    assert write_table(parse_table(text)) == text


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


POINTS = [FieldContext.numeric(Fraction(q0), Fraction(a0))
          for q0, a0 in (("2", "3"), ("-2", "5"), ("1/3", "-7/2"), ("-1/3", "5"))]


class TestSpecialize:
    """specialize and FieldContext.q_pow are the two places that know how a
    numeric table specializes; each must agree with evaluating at the point."""

    @pytest.mark.parametrize("ctx", POINTS, ids=str)
    def test_q_pow_is_the_specialized_power(self, ctx):
        for n in range(-40, 41):
            assert ctx.q_pow(n) == specialize(q_pow(n), ctx), n

    @pytest.mark.parametrize("text", ["q", "a/(q^2+1)", "(a^2+q)/(q-1)", "0"])
    def test_symbolic_mode_returns_the_argument_itself(self, text):
        x = parse_value(text)
        assert specialize(x, FieldContext.symbolic()) is x
        assert FieldContext.symbolic().q_pow(-3) is q_pow(-3)

    def test_terms_are_sized_before_they_are_evaluated(self):
        with pytest.raises(ValueTooLarge, match="a term has 2001 bits at the numeric point"):
            specialize(parse_value("q^1000"), FieldContext.numeric(3, 2))

    @pytest.mark.parametrize("command", ["classify", "validate", "relations"])
    @pytest.mark.parametrize("flip", [None, (2, 1, 0), (0, 1, 1)])
    @pytest.mark.parametrize("family", list(Family))
    def test_no_substitution_after_the_parse(self, monkeypatch, tmp_path, capsys,
                                             command, flip, family):
        # Wrapped at the module global, as the benchmark's tracer counts it:
        # the parse substitutes once per entry line, and nothing after it does.
        doc = gen_table(family, RF_A, 2, 2, 3, POINTS[3])
        if flip is not None:
            doc.entries[flip] = doc.entries[flip] * rf_int(2)
        text = write_table(doc)
        path = tmp_path / "numeric.vlq"
        path.write_text(text, encoding="utf-8")
        calls = []
        substitute = field.substitute

        def counting(*args):
            calls.append(args)
            return substitute(*args)

        monkeypatch.setattr(field, "substitute", counting)
        assert cli.dispatch([command, str(path)]) == (0 if flip is None else 1)
        assert capsys.readouterr().err == ""
        assert len(calls) == text.count("\nf ")

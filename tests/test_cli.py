import hashlib
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qvira import cli, selftest
from qvira.cli import dispatch
from qvira.families import Family, gen_table
from qvira.field import RF_A, RF_Q, rf_int
from qvira.table import parse_table, write_table


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBracket:
    def test_basis_bracket(self, capsys):
        code, out, _ = run(capsys, "bracket", "t[1,1]", "t[2,0]")
        assert code == 0
        assert out == "(q^2 - 1)*t[3,1]\n"

    def test_zero_result(self, capsys):
        code, out, _ = run(capsys, "bracket", "t[1,1]", "t[2,2]")
        assert code == 0
        assert out == "0\n"

    def test_bad_element_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bracket", "t[0,0]", "t[1,0]")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("coeff, expected", [
        ("(a-87)/(q-29)", "((q^2*a - 87*q^2 - a + 87)/(q - 29))*t[3,1]\n"),
        ("(a-83)*(q^2-26*q-27)/(q^2-26*q-27)", "(q^2*a - 83*q^2 - a + 83)*t[3,1]\n"),
    ])
    def test_coefficient_vanishing_at_the_first_evaluation_point(self, capsys, coeff, expected):
        # The numerator vanishes where the gcd first evaluates a.
        code, out, _ = run(capsys, "bracket", f"{coeff}*t[1,1]", "t[2,0]")
        assert (code, out) == (0, expected)


class TestExponentsAboveTheCap:
    """Printed monomial powers are uncapped, so qvira reads back what it writes."""

    def test_bracket_output_parses_back(self, capsys):
        code, out, _ = run(capsys, "bracket", "q^600*t[1,1]", "q^600*t[2,0]")
        assert (code, out) == (0, "(q^1202 - q^1200)*t[3,1]\n")
        code, _, _ = run(capsys, "bracket", out.strip(), "t[-3,-1]")
        assert code == 0

    def test_generated_table_classifies(self, capsys, tmp_path):
        path = tmp_path / "high.vlq"
        code, _, _ = run(
            capsys, "gen-table", "--family", "I", "--a", "q^400", "--h", "3", "--j", "3",
            "--k", "6", "-o", str(path),
        )
        assert code == 0
        assert "f 3 3 3 q^1209\n" in path.read_text()
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "verdict iso-class" in out


class TestGenValidateClassify:
    def test_pipeline_symbolic(self, capsys, tmp_path):
        path = tmp_path / "table.vlq"
        code, _, _ = run(
            capsys, "gen-table", "--family", "III",
            "--h", "2", "--j", "2", "--k", "3", "-o", str(path),
        )
        assert code == 0

        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and out == "valid\n"

        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "verdict iso-class" in out
        assert "orientation reverse" in out
        assert "a a" in out
        assert "family III" in out

        code, out, _ = run(capsys, "irreducible", str(path))
        assert code == 0 and out == "irreducible\n"

        code, out, _ = run(capsys, "relations", str(path))
        assert code == 0
        assert "invariants p=1 b=(1)/(q) a=a" in out
        assert "fail" not in out

    def test_pipeline_numeric(self, capsys, tmp_path):
        path = tmp_path / "table.vlq"
        code, _, _ = run(
            capsys, "gen-table", "--family", "I",
            "--h", "2", "--j", "2", "--k", "3",
            "--mode", "numeric", "--q", "2", "--a-val", "3", "-o", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "orientation forward" in out
        assert "a 3" in out

    def test_gen_table_to_an_unwritable_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "table.vlq"
        code, out, err = run(
            capsys, "gen-table", "--family", "I", "--h", "2", "--j", "2", "--k", "3",
            "-o", str(path),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    def test_gen_table_deterministic(self, capsys):
        code1, out1, _ = run(
            capsys, "gen-table", "--family", "II", "--h", "2", "--j", "2", "--k", "3"
        )
        code2, out2, _ = run(
            capsys, "gen-table", "--family", "II", "--h", "2", "--j", "2", "--k", "3"
        )
        assert code1 == code2 == 0
        assert out1 == out2
        # stdout carries a parseable document that reserializes identically
        assert write_table(parse_table(out1)) == out1

    def test_validate_negative_verdict(self, capsys, tmp_path):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        doc.entries[(1, 1, 0)] = doc.entries[(1, 1, 0)] * rf_int(2)
        path = tmp_path / "bad.vlq"
        path.write_text(write_table(doc))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert out.startswith("violation")

    def test_classify_negative_verdict(self, capsys, tmp_path):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        del doc.entries[(1, 0, 0)]
        path = tmp_path / "degenerate.vlq"
        path.write_text(write_table(doc))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 1
        assert "verdict inconsistent" in out
        assert "reason degenerate-nonzero" in out

    def test_irreducible_negative_verdict(self, capsys, tmp_path):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        del doc.entries[(-1, 0, 2)]
        path = tmp_path / "reducible.vlq"
        path.write_text(write_table(doc))
        code, out, _ = run(capsys, "irreducible", str(path))
        assert code == 1
        assert out == "reducible split=2\n"


class TestCheckAxioms:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "check-axioms", "--family", "IV", "--bound", "1", "--kmax", "1"
        )
        assert code == 0
        assert "result pass" in out
        assert "checked 192" in out  # 8 * 8 * 3 instances

    @pytest.mark.parametrize(
        "flag, value, least", [("--bound", "0", 1), ("--bound", "-1", 1), ("--kmax", "-1", 0)]
    )
    def test_empty_sweep_is_usage_error(self, capsys, flag, value, least):
        code, out, err = run(capsys, "check-axioms", "--family", "I", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be at least {least}\n"

    @pytest.mark.parametrize(
        "bound, kmax, instances",
        [("12", "12", 9734400), ("3", "22", 103680), ("1000000000", "0", ((2 * 10**9 + 1) ** 2 - 1) ** 2)],
    )
    def test_oversized_sweep_is_usage_error(self, capsys, bound, kmax, instances):
        code, out, err = run(capsys, "check-axioms", "--family", "I", "--bound", bound, "--kmax", kmax)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: the sweep would check {instances} instances, above the cap of 100000\n"
        )

    def test_zero_parameter_is_usage_error(self, capsys):
        code, out, err = run(capsys, "check-axioms", "--family", "I", "--a", "0")
        assert (code, out, err) == (2, "", "error: module parameter a must be nonzero\n")

    def test_sweep_at_the_cap_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_AXIOM_INSTANCES", 192)
        code, out, _ = run(capsys, "check-axioms", "--family", "I", "--bound", "1", "--kmax", "1")
        assert (code, out.splitlines()[0]) == (0, "checked 192")
        code, _, err = run(capsys, "check-axioms", "--family", "I", "--bound", "1", "--kmax", "2")
        assert code == 2
        assert err.startswith("error: the sweep would check 320 instances")


class TestRelationsOutput:
    """The exact lines and exit code of `qvira relations`."""

    def test_family_three_passes(self, capsys, tmp_path):
        path = tmp_path / "three.vlq"
        path.write_text(write_table(gen_table(Family.III, RF_A, 3, 3, 6)))
        assert run(capsys, "relations", str(path)) == (0, (
            "invariants p=1 b=(1)/(q) a=a\n"
            "pass raising-power-constancy checked=60\n"
            "pass adjacent-difference-product checked=12\n"
            "pass raising-power-ladder checked=4\n"
            "pass first-level-lift checked=66\n"
            "pass column-power-law checked=462\n"
            "pass descent-identity checked=66\n"
            "pass diagonal-closed-form checked=78\n"
        ), "")

    def test_perturbed_family_one_fails_with_witness(self, capsys, tmp_path):
        doc = gen_table(Family.I, RF_A, 2, 2, 3)
        doc.entries[(2, 2, 1)] = doc.entries[(2, 2, 1)] * RF_Q
        path = tmp_path / "perturbed.vlq"
        path.write_text(write_table(doc))
        assert run(capsys, "relations", str(path)) == (1, (
            "invariants p=1 b=q a=a\n"
            "pass raising-power-constancy checked=18\n"
            "pass adjacent-difference-product checked=6\n"
            "pass raising-power-ladder checked=2\n"
            "pass first-level-lift checked=22\n"
            "fail column-power-law checked=110 witness index=(2, 2, 1) lhs=q^3*a^2 rhs=q^2*a^2\n"
            "pass descent-identity checked=20\n"
            "pass diagonal-closed-form checked=28\n"
        ), "")


    @pytest.mark.parametrize("b, up", [("1", "1"), ("-1", "(-1)^k")])
    def test_ratio_with_a_unit_power_is_a_negative_verdict(self, capsys, tmp_path, b, up):
        # f(0, 1, k) = b^k with b^m = 1 for some m in the window: the
        # column power law raises a b^k (1-b^m)/(1-q^m) = 0 to a negative
        # power.  The suite reports it like an invariant error.
        lines = [f"f 1 0 {k} 1" for k in range(-3, 3)] + [f"f -1 0 {k} 1" for k in range(-2, 4)]
        lines += [f"f 0 1 {k} {up.replace('k', str(k))}" for k in range(-3, 4)]
        path = tmp_path / "unit.vlq"
        path.write_text(
            "vlq-table 1\nmode symbolic\nk-range -3 3\ndims 1111111\nh-range -2 2\n"
            "j-range -2 2\n" + "\n".join(lines) + "\n", encoding="utf-8",
        )
        assert run(capsys, "relations", str(path)) == (
            1, f"invariants p=1 b={b} a=1\nerror inverse of zero\n", ""
        )

    UP = [f"f 1 0 {k} 1" for k in range(-3, 3)]
    DOWN = [f"f -1 0 {k} 1" for k in range(-2, 4)]
    LEVEL = [f"f 0 1 {k} 1" for k in range(-3, 4)]

    @pytest.mark.parametrize("k_range, dims, lines, message", [
        ("-3 3", "1110111", [], "omega normalization needs all degree dimensions 1"),
        ("-3 3", "1111111", UP[:-1] + DOWN + LEVEL, "degree-raising coefficient vanishes at k=2"),
        ("0 0", "1", [], "window has fewer than two degrees"),
        ("-3 3", "1111111", UP + DOWN + ["f 0 1 0 1"], "entry (0,1,-3) is zero"),
        ("-3 3", "1111111", UP + [f"f -1 0 {k + 1} {k + 5}" for k in range(-3, 3)] + LEVEL,
         "p changes at k=-2"),
        ("-3 3", "1111111", UP + DOWN + [f"f 0 1 {k} {k * k + 1}" for k in range(-3, 4)],
         "b changes at k=-2"),
    ], ids=["zero-dimension", "no-raising", "one-degree", "zero-level", "p-varies", "b-varies"])
    def test_stage_failure_is_one_error_line(self, capsys, tmp_path, k_range, dims, lines, message):
        # Normalization or the invariants fail before any invariants line.
        path = tmp_path / "stage.vlq"
        path.write_text(
            f"vlq-table 1\nmode symbolic\nk-range {k_range}\ndims {dims}\nh-range -2 2\n"
            "j-range -2 2\n" + "".join(line + "\n" for line in lines), encoding="utf-8",
        )
        assert run(capsys, "relations", str(path)) == (1, f"error {message}\n", "")


class TestUsageErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/table.vlq")
        assert code == 2
        assert "cannot read" in err

    def test_corrupt_table(self, capsys, tmp_path):
        path = tmp_path / "corrupt.vlq"
        path.write_text("vlq-table 1\nmode bogus\n")
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2

    def test_numeric_flags_without_numeric_mode(self, capsys):
        code, _, err = run(
            capsys, "gen-table", "--family", "I",
            "--h", "2", "--j", "2", "--k", "3", "--q", "2",
        )
        assert code == 2

    def test_zero_parameter(self, capsys):
        code, _, err = run(
            capsys, "gen-table", "--family", "I", "--a", "0",
            "--h", "2", "--j", "2", "--k", "3",
        )
        assert code == 2

    def test_undecodable_table(self, capsys, tmp_path):
        path = tmp_path / "latin1.vlq"
        path.write_bytes("vlq-table 1\n# caf\u00e9\n".encode("latin-1"))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot decode {path}: ")

    def test_empty_h_range_is_parse_error(self, capsys, tmp_path):
        text = write_table(gen_table(Family.I, RF_A, 2, 2, 3))
        path = tmp_path / "empty.vlq"
        path.write_text(text.replace("h-range -2 2", "h-range 3 -3").split("\nf ")[0] + "\n")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert "line 5: empty h-range" in err

    @pytest.mark.parametrize(
        "left, message",
        [("(q+a+1)^3000*t[1,1]", "a value has 45 terms, above the cap of 16"),
         ("(q+a+1)^44*t[1,1]", "a value has 45 terms, above the cap of 16"),
         ("(123456789*q+1)^999*t[1,1]", "a value has 1512 dense bits, above the cap of 1024")],
    )
    def test_oversized_power_is_usage_error(self, capsys, left, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "bracket", left, "t[2,0]")
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert message in err

    def test_oversized_window_is_usage_error(self, capsys, tmp_path):
        text = write_table(gen_table(Family.I, RF_A, 2, 2, 3))
        path = tmp_path / "wide.vlq"
        path.write_text(text.replace("j-range -2 2", "j-range -60 60"))
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", str(path))
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert "line 6: h-range and j-range give 604 basis indices (h, j), above the cap of 80" in err

    @pytest.mark.parametrize(
        "bounds, message",
        [(("5", "5", "3"), "h-range and j-range give 120 basis indices (h, j), above the cap of 80"),
         (("1", "1", "13"), "k-range has 27 degrees, above the cap of 25")],
    )
    def test_oversized_gen_table_window_is_usage_error(self, capsys, bounds, message):
        h, j, k = bounds
        code, out, err = run(
            capsys, "gen-table", "--family", "I", "--a", "a", "--h", h, "--j", j, "--k", k
        )
        assert (code, out) == (2, "")
        assert message in err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            dispatch(["frobnicate"])
        assert info.value.code == 2


class TestSelftestReport:
    """qvira selftest prints one line per criterion and exits 1 on any failure."""

    @staticmethod
    def _stub(name, passed, detail=""):
        return lambda: selftest.CriterionResult(name, passed, detail)

    def test_failure_is_reported_with_its_detail(self, capsys, monkeypatch):
        monkeypatch.setattr(
            selftest, "ALL_CRITERIA", [self._stub("a", True, "unused"), self._stub("b", False, "detail")]
        )
        assert run(capsys, "selftest") == (1, "PASS a\nFAIL b (detail)\n", "")

    def test_all_passing_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(selftest, "ALL_CRITERIA", [self._stub("a", True), self._stub("b", True)])
        assert run(capsys, "selftest") == (0, "PASS a\nPASS b\n", "")


def _quick(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert "Traceback" not in err
    return code, out, err


class TestHostileInputs:
    """Inputs that once hung or ended in a traceback end quickly in exit 2."""

    @pytest.mark.parametrize(
        "left, message",
        [("((q+1)^999/(q+2)^500)*t[1,1]", "a value has 17 terms, above the cap of 16"),
         ("((q^10000000+1)/(q^9999999+1))*t[1,1]",
          "a value has exponent 10000000, above the cap of 5000"),
         ("(q^4000/(q+2) + 1/(q+3))*t[1,1]",
          "a sum has 4000 dense bits or more, above the cap of 1024"),
         ("1" * 5000 + "*t[1,1]", "an integer literal has 5000 digits, above the cap of 309"),
         ("q^" + "1" * 5000 + "*t[1,1]", "an integer literal has 5000 digits, above the cap of 309"),
         ("(q+1)^" + "1" * 5000 + "*t[1,1]", "an integer literal has 5000 digits, above the cap of 309"),
         ("((1+q+a+q^27+a^27)^3)^3*t[1,1]", "a value has 6050 dense bits, above the cap of 1024")],
    )
    def test_bracket(self, capsys, left, message):
        code, out, err = _quick(capsys, "bracket", left, "t[2,0]")
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "left, message",
        [("\u00b2*t[1,0]", "at position 1: a token, found '\u00b2'"),
         ("(" * 400 + "q" + ")" * 400 + "*t[1,0]",
          "an expression nests parentheses 400 deep, above the cap of 32")],
        ids=["superscript-two", "400-parentheses"],
    )
    def test_unreadable_coefficient(self, capsys, left, message):
        assert _quick(capsys, "bracket", left, "t[0,1]") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "value, message",
        [("q^\u00b2", "at position 3: expected a token, found '\u00b2'"),
         ("+".join(["q"] * 1500), "an expression has 1499 operators, above the cap of 256")],
        ids=["superscript-two", "1500-terms"],
    )
    def test_unreadable_table_entry(self, capsys, tmp_path, value, message):
        path = tmp_path / "entry.vlq"
        path.write_text(
            "vlq-table 1\nmode symbolic\nk-range -1 1\ndims 111\nh-range -1 1\nj-range -1 1\n"
            f"f 1 0 0 {value}\n", encoding="utf-8",
        )
        assert _quick(capsys, "classify", str(path)) == (2, "", f"error: {path}: line 7: {message}\n")

    @pytest.mark.parametrize(
        "a, message",
        [("\u0663", "'\u0663': at position 1: expected a token, found '\u0663'"),  # Arabic-Indic three
         # A text above 80 characters is quoted by its first 80.
         ("(" * 3000 + "q" + ")" * 3000,
          f"'{'(' * 80}' and 5921 more characters: "
          "an expression nests parentheses 3000 deep, above the cap of 32")],
        ids=["arabic-indic-three", "3000-parentheses"],
    )
    def test_unreadable_parameter(self, capsys, a, message):
        code, out, err = _quick(capsys, "check-axioms", "--family=I", f"--a={a}")
        assert (code, out) == (2, "")
        assert err == f"error: bad expression {message}\n"

    def test_element_with_too_many_terms(self, capsys):
        left = " + ".join(f"t[{h},1]" for h in range(1, 1001))
        code, out, err = _quick(capsys, "bracket", left, "t[2,0]")
        assert (code, out, err) == (2, "", "error: an element has 1000 terms, above the cap of 3\n")

    def test_bracket_of_dense_fractions_at_the_caps(self, capsys):
        # Two 2-term elements whose coefficients are 16-term over 16-term
        # fractions, each polynomial spread over a 32 x 32 exponent box with
        # coefficients +-1 (1,024 dense bits); the two products that meet on
        # t[2,1] are summed.  This took 5 to 6 s on a 2-core Xeon while
        # sums and products ran one gcd on the expanded pair, and takes
        # 0.18 to 0.20 s with the cross-cancelled sums and the native gcd.
        rng = random.Random(0)

        def dense():
            monomials = {(0, 0), (31, 31)}
            while len(monomials) < 16:
                monomials.add((rng.randrange(32), rng.randrange(32)))
            text = " ".join(f"{rng.choice('+-')} q^{i}*a^{j}" for i, j in sorted(monomials))
            return text.lstrip("+ ")

        def element(indices):
            return " + ".join(f"(({dense()})/({dense()}))*t[{h},{j}]" for h, j in indices)

        left, right = element([(1, 0), (2, 0)]), element([(0, 1), (1, 1)])
        code, out, err = _quick(capsys, "bracket", left, right)
        assert (code, err) == (0, "")
        assert re.findall(r"\*t\[.*?\]", out) == ["*t[1,1]", "*t[2,1]", "*t[3,1]"]
        # The output of the gcd of each expanded pair, which the canonical
        # form makes unique.
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "c09a0a2746c09fbf5ca12eaf0f684d39718e560d1c3c4bfc94514498ca637478"

    def test_bracket_output_above_the_element_cap(self, capsys):
        # A bracket of two 3-term elements can have 9 terms, which no element
        # read back may have.
        code, out, err = _quick(
            capsys, "bracket", "t[1,0] + t[2,0] + t[3,0]", "t[0,1] + t[0,2] + t[0,3]"
        )
        assert (code, err) == (0, "")
        assert out.count("*t[") == 9
        code, out, err = _quick(capsys, "bracket", out.strip(), "t[1,0]")
        assert (code, out, err) == (2, "", "error: an element has 9 terms, above the cap of 3\n")

    def test_large_monomials_still_parse(self, capsys):
        code, out, _ = _quick(capsys, "bracket", "q^5000*t[1,1]", "t[2,0]")
        assert (code, out) == (0, "(q^5002 - q^5000)*t[3,1]\n")
        code, out, _ = _quick(capsys, "bracket", "(-q/a)^-3000*t[1,1]", "t[2,0]")
        assert (code, out) == (0, "((q^2*a^3000 - a^3000)/(q^3000))*t[3,1]\n")
        code, _, _ = _quick(capsys, "bracket", out.strip(), "t[-3,-1]")
        assert code == 0

    def test_numeric_entry_with_a_huge_exponent(self, capsys, tmp_path):
        path = tmp_path / "huge.vlq"
        path.write_text(
            "vlq-table 1\nmode numeric q=2 a=3\nk-range -1 1\ndims 111\n"
            "h-range -1 1\nj-range -1 1\nf 0 1 0 q^999999999\n"
        )
        code, out, err = _quick(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert "line 7: a value has exponent 999999999, above the cap of 5000" in err

    @pytest.mark.parametrize(
        "a, message",
        [("q^10000", "a value has exponent 10000, above the cap of 5000"),
         ("q^1000", "a term has 2001 bits at the numeric point, above the cap of 1024"),
         ("q^400", "a value has 1268 dense bits, above the cap of 1024")],
    )
    def test_numeric_gen_table(self, capsys, a, message):
        code, out, err = _quick(
            capsys, "gen-table", "--family", "I", "--a", a, "--h", "2", "--j", "2", "--k", "3",
            "--mode", "numeric", "--q", "3", "--a-val", "2",
        )
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--q", "3" * 400, "a value has 1328 dense bits, above the cap of 1024"),
         ("--a-val", "1e999999999", "a rational literal has an exponent of 9 digits")],
    )
    def test_numeric_point(self, capsys, flag, value, message):
        argv = ["gen-table", "--family", "I", "--h", "2", "--j", "2", "--k", "3",
                "--mode", "numeric", "--q", "3", "--a-val", "2"]
        argv[argv.index(flag) + 1] = value
        code, out, err = _quick(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_unreadable_numeric_point_flag(self, capsys):
        # A text above 80 characters is quoted by its first 80.
        code, out, err = _quick(
            capsys, "gen-table", "--family", "I", "--h", "2", "--j", "2", "--k", "3",
            "--mode", "numeric", "--q", "x" * 600, "--a-val", "3",
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad numeric mode: Invalid literal for Fraction: '{'x' * 80}'"
            " and 520 more characters\n"
        )

    def test_unreadable_numeric_point_line(self, capsys, tmp_path):
        path = tmp_path / "point.vlq"
        path.write_text(
            f"vlq-table 1\nmode numeric q={'x' * 600} a=3\nk-range -1 1\ndims 111\n"
            "h-range -1 1\nj-range -1 1\n", encoding="utf-8",
        )
        code, out, err = _quick(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: line 2: bad rational literal '{'x' * 80}' and 520 more characters\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["classify", "a.vlq", "y" * 600],
         ["gen-table", "--family", "X" * 600, "--h", "1", "--j", "1", "--k", "1"],
         ["gen-table", "--family", "I", "--h", "4" * 4400, "--j", "1", "--k", "1"]],
        ids=["unrecognized-argument", "invalid-choice", "invalid-int"],
    )
    def test_long_argument_is_quoted_by_its_head(self, capsys, argv):
        # argparse's own errors quote an argument over 80 characters by its
        # first 80 and the count of the rest.
        long = max(argv, key=len)
        with pytest.raises(SystemExit) as info:
            dispatch(argv)
        _, err = capsys.readouterr()
        assert info.value.code == 2
        assert "Traceback" not in err
        assert long[:80] in err and long[:81] not in err
        assert f"'{long[:80]}' and {len(long) - 80} more characters" in err

    def test_argument_of_80_characters_is_echoed_whole(self, capsys):
        with pytest.raises(SystemExit) as info:
            dispatch(["classify", "a.vlq", "y" * 80])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"qvira: error: unrecognized arguments: {'y' * 80}\n"
        )

    def test_gen_table_refuses_what_it_could_not_read_back(self, capsys):
        # f(0, 3, 0) = (q^2000)^3 is above the exponent cap.
        code, out, err = _quick(
            capsys, "gen-table", "--family", "I", "--a", "q^2000", "--h", "3", "--j", "3",
            "--k", "6",
        )
        assert (code, out) == (2, "")
        assert "a value has exponent 6000, above the cap of 5000" in err

    def test_check_axioms_refuses_a_parameter_its_sweep_cannot_raise(self, capsys):
        # The --bound 2 sweep forms a^4; (q+a+1)^3 to the 4th has 91 terms.
        code, out, err = _quick(capsys, "check-axioms", "--family", "I", "--a", "(q+a+1)^3")
        assert (code, out) == (2, "")
        assert "a value has 28 terms, above the cap of 16" in err

    def test_classify_with_a_dense_parameter_at_the_caps(self, capsys, tmp_path):
        # f(0, 1, k) = A q^k with A of 16 terms over a 32 x 32 exponent box
        # (1,024 dense bits); the closed-model compare raises A to the 4th
        # power, which took 4 to 6 s on a 2-core Xeon while A^8 was formed
        # on the way.
        big = ("1 + q*a^26 + q^4*a + q^6 + q^7*a^17 + q^8*a^19 + q^13*a^13 + q^16*a^10"
               " + q^24*a^9 + q^24*a^30 + q^27*a^22 + q^28*a^24 + q^30*a^7 + q^31*a^7"
               " + q^31*a^22 + q^31*a^31")
        lines = ["vlq-table 1", "mode symbolic", "k-range -3 3", "dims 1111111",
                 "h-range -2 2", "j-range -4 4"]
        lines += [f"f 1 0 {k} 1" for k in range(-3, 3)]
        lines += [f"f -1 0 {k} 1" for k in range(-2, 4)]
        lines += [f"f 0 1 {k} ({big})*q^{k}" for k in range(-3, 4)]
        path = tmp_path / "dense.vlq"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = _quick(capsys, "classify", str(path))
        assert (code, err) == (1, "")
        assert out.splitlines()[:2] == ["verdict inconsistent", "reason bracket-relation"]

    def test_check_axioms_weighs_a_parameter_that_is_not_a_monomial(self, capsys):
        # 5,184 instances at (a^2+q)/(q-1), whose 4th power has 5 + 5 terms.
        code, out, err = _quick(
            capsys, "check-axioms", "--family", "IV", "--a", "(a^2+q)/(q-1)"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: the sweep would check 5184 instances at a parameter that costs 20 each,"
            " above the cap of 100000\n"
        )


def test_closed_pipe_ends_quietly(tmp_path):
    # The reader closes its end before qvira writes, as `head -1` may.
    path = tmp_path / "table.vlq"
    path.write_text(write_table(gen_table(Family.III, RF_A, 2, 2, 3)))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qvira.cli", "relations", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    proc.wait(timeout=60)
    assert err == b""

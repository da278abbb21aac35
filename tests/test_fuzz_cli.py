"""Hostile-input fuzz of the command line.

Hypothesis mutates a family table and the argv of every command and runs
them through cli.dispatch.  Whatever the input, qvira must answer with exit
0, 1 or 2, print no traceback, and answer in bounded time.
"""

import contextlib
import io
import os
import tempfile
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from qvira.cli import dispatch
from qvira.families import Family, gen_table
from qvira.field import RF_A
from qvira.table import write_table

SEED_TABLE = write_table(gen_table(Family.II, RF_A, 2, 2, 3))
# Fragments that reach the caps, the parser's corners and the numeric mode.
FRAGMENTS = [
    "0", "1", "-1", "2", "9" * 400, "1" * 5000, "q", "a", "^", "^-", "^5000", "^999999", "(", ")",
    "+", "-", "*", "/", "q+1", "(q+a+1)^7", "(q+1)^40", "1e99999", "1/0", "3/7", " ", "\n",
    "#", "f 0 1 0 ", "f 1 0 -3 ", "mode numeric q=2 a=3", "mode numeric q=1 a=3",
    "k-range -12 12", "h-range -40 40", "dims 0", "\xff", "\u00b2", "\u0663", "(" * 400,
    "+q" * 1500,
]
PARAMS = ["a", "q", "(q+1)/a", "q^5000", "q^-3000", "(q+a+1)^7", "9" * 400, "0", "q^", "1e5",
          "(q+1)^999/(q+2)^500", "q^4000/(q+2) + 1/(q+3)", "q^\u00b2", "\u0663",
          "(" * 400 + "q" + ")" * 400, "+".join(["q"] * 1500)]
NUMBERS = ["-1", "0", "1", "2", "3", "13", "1/2", "1e99999", "9" * 400, "x"]


HEADER = SEED_TABLE.index("\nf ")
HEADER_LINES = SEED_TABLE[:HEADER].count("\n") + 1


@st.composite
def mutated_tables(draw):
    """The seed table with one entry's value replaced, or with up to three
    short spans replaced or inserted, mostly among the entries."""
    text = SEED_TABLE
    if draw(st.booleans()):  # one entry's value replaced by a hostile one
        lines = text.splitlines(keepends=True)
        index = draw(st.integers(HEADER_LINES, len(lines) - 1))
        lines[index] = " ".join(lines[index].split()[:4] + [draw(st.sampled_from(PARAMS))]) + "\n"
        return "".join(lines)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)) | st.integers(HEADER, len(text)))
        end = draw(st.just(start) | st.integers(start, min(len(text), start + 3)))
        text = text[:start] + draw(st.sampled_from(FRAGMENTS)) + text[end:]
    return text


def argv_for(command, table_path):
    if command in ("validate", "classify", "relations", "irreducible"):
        return st.just([command, table_path])
    if command == "bracket":
        element = st.builds(
            lambda c, h, j: f"{c}*t[{h},{j}]", st.sampled_from(PARAMS),
            st.integers(-3, 3), st.integers(-3, 3),
        )
        return st.builds(lambda x, y: ["bracket", x, y], element, element)
    family = st.sampled_from(["--family=I", "--family=II", "--family=III", "--family=IV"])
    number = st.sampled_from(NUMBERS)
    if command == "check-axioms":
        return st.builds(
            lambda f, a, b, k: ["check-axioms", f, f"--a={a}", f"--bound={b}", f"--kmax={k}"],
            family, st.sampled_from(PARAMS), st.sampled_from(["-1", "1", "2", "9"]),
            st.sampled_from(["0", "1", "200"]),
        )
    return st.builds(
        lambda f, a, h, j, k, mode: ["gen-table", f, f"--a={a}", f"--h={h}", f"--j={j}",
                                     f"--k={k}"] + mode,
        family, st.sampled_from(PARAMS), number, number, number,
        st.one_of(st.just([]), st.builds(lambda q, a: ["--mode=numeric", f"--q={q}",
                                                       f"--a-val={a}"], number, number)),
    )


COMMANDS = ["validate", "classify", "relations", "irreducible", "bracket", "check-axioms",
            "gen-table"]


@given(st.data(), mutated_tables(), st.sampled_from(COMMANDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dispatch_answers_every_input(data, table, command):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "table.vlq")
        with open(path, "w", encoding="utf-8", errors="surrogateescape") as handle:
            handle.write(table)
        argv = data.draw(argv_for(command, path))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = dispatch(argv)
            except SystemExit as exc:  # argparse refusing the argv
                code = exc.code
        assert time.perf_counter() - start < 5
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

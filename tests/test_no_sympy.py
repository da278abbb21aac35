"""Every qvira command runs where sympy cannot be imported.

The commands run in a fresh interpreter with ``sys.modules["sympy"] = None``
set before ``import qvira.cli``, so any ``import sympy`` there raises
ImportError; each must print what the same command prints in this process,
where sympy is importable, and exit with the same code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from qvira.cli import dispatch
from qvira.expr import parse_value
from qvira.families import Family, gen_table
from qvira.table import write_table

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
import qvira.cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qvira.cli.dispatch(argv)
    results.append([code, out.getvalue()])
try:
    import sympy
except ImportError:
    sympy = None
print(json.dumps({"results": results, "sympy": sympy is not None}))
"""


def _commands(tmp_path):
    # A (2, 2, 3) table whose parameter reaches the non-monomial gcd and
    # division in every entry, a bracket whose cross-cancelled products do
    # too, and selftest, whose criteria run the field arithmetic throughout.
    table = tmp_path / "generic.vlq"
    table.write_text(write_table(gen_table(Family.IV, parse_value("(a^2+q)/(q-1)"), 2, 2, 3)))
    return [
        ["classify", str(table)],
        ["validate", str(table)],
        ["bracket", "((a^2+q)/(q-1))*t[1,1] + (q+a)*t[2,0]", "((q+1)/(q^2-a))*t[0,1]"],
        ["check-axioms", "--family", "II", "--a=(q+1)/a", "--bound", "1", "--kmax", "1"],
        ["selftest"],
    ]


def test_commands_run_without_sympy(tmp_path, capsys):
    commands = _commands(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.stderr == ""
    child = json.loads(proc.stdout)
    assert child["sympy"] is False
    for argv, (code, out) in zip(commands, child["results"], strict=True):
        expected = dispatch(argv)
        assert (code, out) == (expected, capsys.readouterr().out), argv

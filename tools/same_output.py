"""Compare the CLI output of two source trees on the benchmark's seed schedules
and on a fixed command matrix.

Usage (from the root of a source checkout):

    python3 tools/same_output.py OLD_TREE NEW_TREE [--seeds 1-10] [--workload NAME ...]

Each tree is a directory holding ``src/qvira``.  For each tree, one
subprocess imports qvira from that tree, builds the seeded request schedules
of the workloads with ``bench/workloads.py`` (of this checkout, for both
trees), writes each table to a temporary directory and serves every request
through ``qvira.cli.dispatch`` with stdout and stderr captured.  Table paths
are relative to that directory, so error messages do not differ by path.

After the schedules, each tree serves the command matrix (see
``command_matrix``): ``gen-table`` for each family, parameter, window and
point, then ``classify``, ``validate``, ``relations`` and ``irreducible`` on
the table it wrote and on three one-cell changes of it; then
``check-axioms --bound 1 --kmax 2`` per family and parameter, and
``selftest``: 965 requests, which took about 130 s per tree on a 2-core Xeon.

Prints the first request whose exit code, stdout or stderr differs, with
both outputs, and exits 1; prints the number of requests compared and exits
0 when all are the same.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def seeds(text: str) -> list[int]:
    """'3' or '1-10'."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


FAMILIES = ("I", "II", "III", "IV")
PARAMS = ("a", "q^2*a", "(a^2+q)/(q-1)")
WINDOWS = (("2", "2", "3"), ("3", "3", "6"))
# Symbolic with every parameter, then two numeric points with the first two.
POINTS = (((), PARAMS),
          (("--mode", "numeric", "--q", "2", "--a-val", "3"), PARAMS[:2]),
          (("--mode", "numeric", "--q=-1/3", "--a-val", "5"), PARAMS[:2]))
# f(2, 1, 0) * 2, f(1, 0, 2) * 2 and f(0, 1, 1) + 1.
CELL_CHANGES = (("f 2 1 0 ", "({})*2"), ("f 1 0 2 ", "({})*2"), ("f 0 1 1 ", "({})+1"))


def change_cell(table: str, prefix: str, rule: str) -> str:
    """table with the entry of the line starting with prefix rewritten by rule."""
    lines = table.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i] = prefix + rule.format(lines[i][len(prefix):])
    return "\n".join(lines) + "\n"


def command_matrix(call) -> None:
    """Serve the command matrix through call(argv, table), which returns stdout."""
    for point, params in POINTS:
        for family in FAMILIES:
            for a in params:
                for h, j, k in WINDOWS:
                    table = call(["gen-table", "--family", family, "--a", a,
                                  "--h", h, "--j", j, "--k", k, *point], None)
                    for text in [table] + [change_cell(table, *c) for c in CELL_CHANGES]:
                        for command in ("classify", "validate", "relations", "irreducible"):
                            call([command, "table.vlq"], text)
    for family in FAMILIES:
        for a in PARAMS:
            call(["check-axioms", "--family", family, "--a", a, "--bound", "1", "--kmax", "2"],
                 None)
    call(["selftest"], None)


def serve(tree: str, names: list[str], seed_list: list[int]) -> None:
    """Serve the requests in this process; one JSON line per request on stdout."""
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    import qvira.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(tree).resolve()):
        raise SystemExit(f"imported qvira from {cli.__file__}, not from {tree}")
    out = sys.stdout

    def call(request, argv, table):
        if table is not None:
            Path("table.vlq").write_text(table, encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.dispatch(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is output too
                code = f"raised {exc!r}"
        record = {"request": request, "argv": argv, "code": code,
                  "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        out.write(json.dumps(record) + "\n")
        out.flush()
        return record["stdout"]

    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for name in names:
            for seed in seed_list:
                for index, request in enumerate(workloads.schedule(name, seed)):
                    argv = [arg.replace("{table}", "table.vlq") for arg in request["argv"]]
                    call([name, seed, index], argv, request["table"])
        index = itertools.count()
        command_matrix(lambda argv, table: call(["matrix", 0, next(index)], argv, table))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", help="OLD_TREE NEW_TREE")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--serve", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    if args.serve:
        serve(args.serve, names, args.seeds)
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees")
    command = [sys.executable, __file__, "--seeds", f"{args.seeds[0]}-{args.seeds[-1]}"]
    for name in names:
        command += ["--workload", name]
    runs = [subprocess.Popen(command + ["--serve", tree], stdout=subprocess.PIPE, text=True)
            for tree in args.trees]
    compared = 0
    for old, new in zip(runs[0].stdout, runs[1].stdout):
        old, new = json.loads(old), json.loads(new)
        if old != new:
            print(f"first difference: workload {old['request'][0]}, seed {old['request'][1]}, "
                  f"request {old['request'][2]}, argv {old['argv']}")
            for tree, record in zip(args.trees, (old, new)):
                print(f"--- {tree}: exit {record['code']}")
                print(f"stdout {record['stdout']!r}")
                print(f"stderr {record['stderr']!r}")
            for run in runs:
                run.kill()
                run.wait()
            return 1
        compared += 1
    if [run.wait() for run in runs] != [0, 0] or compared == 0:
        print(f"a tree's run failed after {compared} requests", file=sys.stderr)
        return 2
    print(f"same output on {compared} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())

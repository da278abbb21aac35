"""Command-line front end.

Exit codes: 0 for success or a positive verdict, 1 for a negative verdict
(inconsistent table, violations, failed checks), 2 for usage or parse
errors.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import signal
import sys

from .field import DivisionByZero, FieldContext, FieldError, RationalFunction
from .expr import MAX_ECHO, ExprSyntaxError, echo, parse_value, power, print_canonical
from .table import (
    TableSemanticError,
    TableSyntaxError,
    parse_rational,
    parse_table,
    write_table,
)
from .algebra import (
    AlgebraElement,
    ElementSyntaxError,
    basis_indices,
    bracket,
    parse_element,
    print_element,
)
from .families import (
    BadParameter,
    Family,
    FamilyModule,
    GradedVector,
    Irreducible,
    check_graded_irreducible,
    gen_table,
    verify_axiom,
)
from .presentation import (
    DegenerateTable,
    MissingData,
    NotConstant,
    ZeroEntry,
    extract_invariants,
    omega_normalize,
    validate_table,
    verify_relation_suite,
)
from .classifier import Inconsistent, IsoClass, TrivialSum, classify, proves_relation

USAGE_ERROR = 2
VERDICT_NEGATIVE = 1
# The largest check-axioms sweep, in (x, y, k) instances.  The sweep checks
# about 15,000 instances a second (99,072 in 6.7 s on a 2-core Xeon with
# Python 3.11), so this keeps a request under ten seconds.  At a parameter
# that is not a Laurent monomial an instance costs 10 to 50 times as much,
# more as the terms T of a^(2 bound), numerator and denominator together,
# grow (1.7 ms at (a^2+q)/(q-1) with --bound 2), so it counts as 10 + T; the
# slowest sweep found within that weighted cap took 6.7 s.
MAX_AXIOM_INSTANCES = 100_000


class _CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        self.code = code
        super().__init__(message)


def _load_table(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot decode {path}: {exc}") from None
    try:
        return parse_table(text)
    except (TableSyntaxError, TableSemanticError, ExprSyntaxError) as exc:
        raise _CliError(f"{path}: {exc}") from None


def _parse_field_value(text: str) -> RationalFunction:
    try:
        return parse_value(text)
    except (ExprSyntaxError, FieldError) as exc:
        raise _CliError(f"bad expression {echo(text)}: {exc}") from None


def _context_from_args(args) -> FieldContext:
    if args.mode == "symbolic":
        if args.q is not None or args.a_val is not None:
            raise _CliError("--q/--a-val are only valid with --mode numeric")
        return FieldContext.symbolic()
    if args.q is None or args.a_val is None:
        raise _CliError("--mode numeric requires --q and --a-val")
    try:
        return FieldContext.numeric(parse_rational(args.q), parse_rational(args.a_val))
    except ValueError as exc:
        raise _CliError(f"bad numeric mode: {exc}") from None


def cmd_bracket(args) -> int:
    print(print_element(bracket(parse_element(args.left), parse_element(args.right))))
    return 0


def cmd_gen_table(args) -> int:
    context = _context_from_args(args)
    a = _parse_field_value(args.a)
    try:
        doc = gen_table(Family(args.family), a, args.h, args.j, args.k, context)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    text = write_table(doc)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {args.output}: {exc}") from None
    return 0


def cmd_validate(args) -> int:
    doc = _load_table(args.table)
    violations = [] if proves_relation(doc) else validate_table(doc)
    if not violations:
        print("valid")
        return 0
    for v in violations:
        print(
            f"violation h={v.h} j={v.j} m={v.m} n={v.n} k={v.k}"
            f" lhs={print_canonical(v.lhs)} rhs={print_canonical(v.rhs)}"
        )
    return VERDICT_NEGATIVE


def cmd_classify(args) -> int:
    doc = _load_table(args.table)
    result = classify(doc)
    if isinstance(result, TrivialSum):
        print("verdict trivial-sum")
        return 0
    if isinstance(result, IsoClass):
        print("verdict iso-class")
        print(f"orientation {result.orientation.value}")
        print(f"a {print_canonical(result.a)}")
        if result.exact_family is not None:
            print(f"family {result.exact_family.value}")
        return 0
    assert isinstance(result, Inconsistent)
    print("verdict inconsistent")
    print(f"reason {result.reason.value}")
    if result.witness is not None:
        print(f"witness {result.witness}")
    return VERDICT_NEGATIVE


def axiom_sweep(module: FamilyModule, bound: int, kmax: int):
    """verify_axiom on basis pairs with |h|, |j| <= bound and on v_k with
    |k| <= kmax: the count of instances and the failing ((hx, jx), (hy, jy), k)."""
    box = (-bound, bound)
    indices = basis_indices(box, box)
    checked = 0
    failures = []
    for hx, jx in indices:
        x = AlgebraElement.basis(hx, jx)
        for hy, jy in indices:
            y = AlgebraElement.basis(hy, jy)
            for k in range(-kmax, kmax + 1):
                checked += 1
                if verify_axiom(module, x, y, GradedVector.basis(k)) is not None:
                    failures.append(((hx, jx), (hy, jy), k))
    return checked, failures


def cmd_check_axioms(args) -> int:
    # An empty sweep checks nothing, so it must not read as a pass.
    if args.bound < 1:
        raise _CliError("--bound must be at least 1")
    if args.kmax < 0:
        raise _CliError("--kmax must be at least 0")
    instances = ((2 * args.bound + 1) ** 2 - 1) ** 2 * (2 * args.kmax + 1)
    if instances > MAX_AXIOM_INSTANCES:
        raise _CliError(
            f"the sweep would check {instances} instances, above the cap of {MAX_AXIOM_INSTANCES}"
        )
    a = _parse_field_value(args.a)
    module = FamilyModule(Family(args.family), a)
    # The sweep forms a^n for |n| up to 2 * bound; each is held to the caps.
    top = [power(a, n) for n in range(1, 2 * args.bound + 1)][-1]
    if len(a.num.terms) > 1 or len(a.den.terms) > 1:
        weight = 10 + len(top.num.terms) + len(top.den.terms)
        if instances * weight > MAX_AXIOM_INSTANCES:
            raise _CliError(
                f"the sweep would check {instances} instances at a parameter that costs"
                f" {weight} each, above the cap of {MAX_AXIOM_INSTANCES}"
            )
    checked, failures = axiom_sweep(module, args.bound, args.kmax)
    print(f"checked {checked}")
    for failure in failures:
        print(f"failure x={failure[0]} y={failure[1]} k={failure[2]}")
    print("result " + ("pass" if not failures else "fail"))
    return 0 if not failures else VERDICT_NEGATIVE


def cmd_relations(args) -> int:
    doc = _load_table(args.table)
    try:
        nt = omega_normalize(doc)
        invariants = extract_invariants(nt)
    except (DegenerateTable, MissingData, ZeroEntry, NotConstant, ValueError) as exc:
        print(f"error {exc}")
        return VERDICT_NEGATIVE
    print(
        "invariants"
        f" p={print_canonical(invariants.p)}"
        f" b={print_canonical(invariants.b)}"
        f" a={print_canonical(invariants.a)}"
    )
    try:
        reports = verify_relation_suite(nt, invariants)
    except DivisionByZero as exc:
        # A relation divides by zero where b^m = 1 for some m in the window.
        print(f"error {exc}")
        return VERDICT_NEGATIVE
    for report in reports:
        line = f"{report.status} {report.name} checked={report.checked}"
        if report.first is not None:
            index, lhs, rhs = report.first
            line += f" witness index={index} lhs={print_canonical(lhs)} rhs={print_canonical(rhs)}"
        print(line)
    return VERDICT_NEGATIVE if any(r.first is not None for r in reports) else 0


def cmd_irreducible(args) -> int:
    doc = _load_table(args.table)
    verdict = check_graded_irreducible(doc)
    if isinstance(verdict, Irreducible):
        print("irreducible")
        return 0
    print(f"reducible split={verdict.split_degree}")
    return VERDICT_NEGATIVE


def cmd_selftest(args) -> int:
    from . import selftest  # selftest imports this module

    return 0 if selftest.run_all(print) else VERDICT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """argparse, quoting an argument over MAX_ECHO characters in its errors
    by expr.echo's rule, where argparse would echo it whole."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for arg in self._args:
            for text in (arg, arg.partition("=")[2]):  # --h=<value> quotes the value
                if len(text) > MAX_ECHO:
                    message = message.replace(repr(text), echo(text)).replace(text, echo(text))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qvira",
        description="Exact tools for the q-deformed Virasoro-like algebra "
        "and its windowed graded modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two algebra elements")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("gen-table", help="generate a family action table")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--a", default="a", help="module parameter (field expression)")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["symbolic", "numeric"], default="symbolic")
    p.add_argument("--q", help="rational value of q in numeric mode")
    p.add_argument("--a-val", help="rational value of a in numeric mode")
    p.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
    p.set_defaults(func=cmd_gen_table)

    p = sub.add_parser("validate", help="check the bracket-compatibility relation")
    p.add_argument("table")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="run the classification decision procedure")
    p.add_argument("table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check-axioms", help="sweep the module action axiom")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--a", default="a")
    p.add_argument("--bound", type=int, default=2)
    p.add_argument("--kmax", type=int, default=4)
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("relations", help="run the internal-relation suite")
    p.add_argument("table")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("irreducible", help="graded-irreducibility check")
    p.add_argument("table")
    p.set_defaults(func=cmd_irreducible)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FieldError, ElementSyntaxError, ExprSyntaxError, BadParameter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    # A reader that closes the pipe early, as `head` does, ends the process
    # quietly like any other filter instead of raising BrokenPipeError.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

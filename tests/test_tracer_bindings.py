"""The benchmark's tracer wraps package functions by module and name.

``python3 bench/run.py --trace 1`` looks each binding up with ``getattr``, so
a rename or a deleted import breaks it only when it runs.  This test resolves
every binding the tracer patches without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
# Tracer.install also wraps validate_table at the classifier's binding.
BINDINGS = sorted(
    {(module, attribute) for module, attribute, *_ in _tracer.SPANS + _tracer.COUNTERS}
    | {("qvira.classifier", "validate_table")}
)


@pytest.mark.parametrize("module, attribute", BINDINGS)
def test_traced_binding_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_q_pow_cache_info_resolves():
    # The benchmark worker reads the q_pow cache hit ratio.
    from qvira.field import q_pow

    assert callable(q_pow.cache_info)


def test_verify_axiom_calls_act_and_bracket_through_module_globals(monkeypatch):
    # The tracer counts families.act and algebra.bracket by wrapping these
    # two globals of qvira.families, so verify_axiom must reach both there.
    from qvira import families
    from qvira.algebra import AlgebraElement
    from qvira.field import RF_A

    calls = {"act": 0, "bracket": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(families, "act", counting("act", families.act))
    monkeypatch.setattr(families, "bracket", counting("bracket", families.bracket))
    module = families.FamilyModule(families.Family.II, RF_A)
    x, y = AlgebraElement.basis(1, 0), AlgebraElement.basis(0, 1)
    assert families.verify_axiom(module, x, y, families.GradedVector.basis(0)) is None
    assert calls == {"act": 5, "bracket": 1}


def test_axiom_sweep_calls_verify_axiom_through_the_cli_global(monkeypatch, capsys):
    # The tracer times families.verify_axiom by wrapping qvira.cli.verify_axiom,
    # so the sweep of check-axioms must reach it there.
    from qvira import cli

    calls = []
    verify_axiom = cli.verify_axiom

    def counting(*args):
        calls.append(1)
        return verify_axiom(*args)

    monkeypatch.setattr(cli, "verify_axiom", counting)
    code = cli.dispatch(["check-axioms", "--family", "I", "--bound", "1", "--kmax", "0"])
    assert code == 0
    assert len(calls) == 64  # 8 * 8 basis pairs at one degree
    assert capsys.readouterr().out.splitlines()[0] == "checked 64"


def _count_gcd_and_division(monkeypatch):
    """Wrap qvira.field's poly_gcd and poly_exact_div as the tracer does; the
    returned list gets (name, took the non-monomial path) for each call."""
    from qvira import field

    calls = []
    for name, fallback in (("poly_gcd", _tracer._gcd_fallback),
                           ("poly_exact_div", _tracer._div_fallback)):
        def wrapper(*args, name=name, fallback=fallback, fn=getattr(field, name)):
            calls.append((name, fallback(*args)))
            return fn(*args)

        monkeypatch.setattr(field, name, wrapper)
    return calls


def test_cross_cancellation_calls_gcd_and_division_through_field_globals(monkeypatch):
    # The tracer counts field.gcd_fallbacks and field.div_fallbacks by wrapping
    # these two globals of qvira.field, so the cross-cancelled product and
    # sum of non-monomial operands must reach the non-monomial gcd and
    # division through them.
    from qvira.expr import parse_value

    x, y = parse_value("(a^2+q)/(q-1)"), parse_value("(q-1)/(q+a)")
    u, v = parse_value("1/(q^2-1)"), parse_value("a/(q-1)")
    calls = _count_gcd_and_division(monkeypatch)
    assert x * y == parse_value("(a^2+q)/(q+a)")
    assert ("poly_gcd", True) in calls and ("poly_exact_div", True) in calls
    calls.clear()
    assert u + v == parse_value("(a*q+a+1)/(q^2-1)")
    assert ("poly_gcd", True) in calls and ("poly_exact_div", True) in calls


def test_laurent_monomials_keep_their_calls(monkeypatch):
    # A product of two Laurent monomials runs no gcd; their sum runs one,
    # on poly_gcd's monomial path, and divides nothing.
    from qvira.expr import parse_value

    x, y = parse_value("q^2"), parse_value("-3/(q*a)")
    product, total = parse_value("-3*q/a"), parse_value("(q^3*a - 3)/(q*a)")
    calls = _count_gcd_and_division(monkeypatch)
    assert (x * y, calls) == (product, [])
    assert (x + y, calls) == (total, [("poly_gcd", False)])

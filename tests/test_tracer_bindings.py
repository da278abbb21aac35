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

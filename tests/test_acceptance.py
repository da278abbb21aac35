"""Acceptance suite: one test per criterion of the shipped self-test.

The criteria are executable product requirements; each must hold with
exact symbolic equality.  The module-axiom sweep additionally carries a
runtime budget.
"""

import time

import pytest

from qvira import selftest
from qvira.classifier import characteristic_equation
from qvira.expr import print_poly
from qvira.field import RF_ONE, RF_Q, rf_int
from qvira.selftest import ALL_CRITERIA

CRITERIA = {criterion.__name__: criterion for criterion in ALL_CRITERIA}


@pytest.mark.parametrize("name", list(CRITERIA), ids=list(CRITERIA))
def test_criterion(name):
    result = CRITERIA[name]()
    assert result.passed, f"{result.name}: {result.detail}"


def test_module_axiom_sweep_within_budget():
    start = time.monotonic()
    result = CRITERIA["criterion_01_module_axiom"]()
    elapsed = time.monotonic() - start
    assert result.passed
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def _beta_plus_one(lambda_sq):
    alpha, beta, gamma = characteristic_equation(lambda_sq)
    return alpha, beta + RF_ONE, gamma


@pytest.mark.parametrize(
    "equation",
    [_beta_plus_one,
     # (x - q)(x - 2): q is a root, 1/q is not.
     lambda lambda_sq: (RF_ONE, -(RF_Q + rf_int(2)), rf_int(2) * RF_Q)],
    ids=["beta-plus-one", "roots-q-and-2"],
)
def test_criterion_07_rejects_a_wrong_equation(monkeypatch, equation):
    monkeypatch.setattr(selftest, "characteristic_equation", equation)
    assert not selftest.criterion_07_characteristic().passed


def test_criterion_11_catches_a_printer_that_drops_the_denominator(monkeypatch):
    monkeypatch.setattr(selftest, "print_canonical", lambda x: print_poly(x.num))
    assert not selftest.criterion_11_serialization().passed

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

"""Exact-count checks of the benchmark's traced run.

Run from the root of the checkout:

    python3 -m pytest bench/test_counts.py

For each workload, the first requests of one seed are traced twice, each
time in a fresh worker.  The program's counts must repeat exactly, the sympy
fallbacks must stay at 0 except on classify-generic, and the classify
workloads must never reach the algebra bracket or the family action.
"""

import pytest

import run
import tracer
import workloads

SEED = 7
REQUESTS = {"classify-accept": 5, "classify-reject": 10, "classify-generic": 3, "axiom-sweep": 2}
COUNTS = (
    "field.ops",
    "field.gcd_fallbacks",
    "field.div_fallbacks",
    "presentation.validate_instances",
    "algebra.bracket_calls",
    "families.act_calls",
)


def traced_counts(workload, workdir, name):
    served = run.write_inputs(workdir, workloads.schedule(workload, SEED))
    job = {"mode": "trace", "requests": served, "count": REQUESTS[workload]}
    result = run.run_worker(workdir, name, job, timeout=170)
    assert result["failed"] == 0, result["errors"]
    return [{key: layer[key] for key in COUNTS} for layer in result["layers"]]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts(workload, tmp_path):
    first = traced_counts(workload, tmp_path, "first")
    assert len(first) == REQUESTS[workload]
    assert traced_counts(workload, tmp_path, "second") == first

    gcd = [c["field.gcd_fallbacks"] for c in first]
    div = [c["field.div_fallbacks"] for c in first]
    if workload == "classify-generic":
        assert all(g > 0 for g in gcd)
    else:
        assert gcd == div == [0] * len(first)

    full_scan = {"classify-accept": 12560, "classify-generic": 1484}.get(workload)
    if full_scan is not None:
        assert [c["presentation.validate_instances"] for c in first] == [full_scan] * len(first)

    layer_calls = [c["algebra.bracket_calls"] + c["families.act_calls"] for c in first]
    if workload.startswith("classify-"):
        assert layer_calls == [0] * len(first)
    else:
        assert all(calls > 0 for calls in layer_calls)


def test_full_scan_instances():
    """Full scans check 12,560 instances at (3,3,6) and 1,484 at (2,2,3)."""
    assert tracer.full_scan((-3, 3), (-3, 3), (-6, 6), (1,) * 13) == 12560
    assert tracer.full_scan((-2, 2), (-2, 2), (-3, 3), (1,) * 7) == 1484

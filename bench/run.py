"""The qvira benchmark.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed under ``.bench_run/``, serves them
to fresh worker interpreters that import ``src/qvira`` (see worker.py),
checks every answer against the one known by construction, and prints one
JSON object as the last line of stdout.  The load is a closed loop with one
client in one worker process.

--trace 0 reports the end-to-end metrics:

    requests_per_s   completed requests per second at the stated mix
    latency_p50_ms   median request latency
    latency_tail_ms  highest percentile with at least ten samples beyond it
                     (the median when there are fewer than 21 samples)
    setup_s          fresh worker, from ``import qvira.cli`` until the first
                     request returns; median over fresh workers, at
                     least SETUP_SAMPLES and as many as SETUP_BUDGET_S allows
    peak_rss_mb      ru_maxrss of the measuring worker

--trace 1 reports per-layer metrics, each the median over traced requests,
plus the tracing overhead against the same requests served untraced, and
writes the spans to ``.bench_out/spans-<workload>.tsv``.

The line before the result is a JSON object with the details: environment,
mix, sample counts, the tail percentile and every setup sample.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 3
# Cheap first requests get more set-up samples, since a median of three
# sub-second set-ups spreads widely.
SETUP_BUDGET_S = 3
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "sympy": _version("sympy"),
        "gmpy2": _version("gmpy2"),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def write_inputs(workdir: Path, requests: list[dict]) -> list[dict]:
    """Write each table to a file; return the requests as the worker sees them."""
    served = []
    for index, request in enumerate(requests):
        path = workdir / f"table-{index}.vlq"
        if request["table"] is not None:
            path.write_text(request["table"], encoding="utf-8")
        argv = [arg.replace("{table}", str(path)) for arg in request["argv"]]
        served.append(dict(request, table=None, argv=argv))
    return served


def mix(requests: list[dict]) -> dict:
    """Requests per mix class."""
    return dict(Counter(request["kind"] for request in requests))


def run_worker(workdir: Path, name: str, job: dict, timeout: float) -> dict:
    job_path, result_path = workdir / f"{name}.job.json", workdir / f"{name}.result.json"
    job_path.write_text(json.dumps(dict(job, src=str(SRC))), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
        cwd=workdir, capture_output=True, text=True, timeout=max(timeout, 1),
    )
    if done.returncode != 0:
        raise BenchError(f"worker {name} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        raise BenchError(f"worker imported qvira from {result['module']}, not {SRC}")
    return result


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 21 samples that percentile is at or under the median, or there is
    none, so the median stands in: a single slowest sample is too noisy to
    gate on.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def mix_rate(latencies_ms: list[float], kinds: list[str], shares: dict) -> float:
    """Requests per second at the stated mix: 1 / sum over classes of share * mean latency.

    Unlike count / time, this does not depend on the class the run ended in.
    A run too short to sample every class falls back to count / time.
    """
    by_kind: dict[str, list[float]] = {}
    for latency, kind in zip(latencies_ms, kinds):
        by_kind.setdefault(kind, []).append(latency)
    if by_kind.keys() != shares.keys():
        return 1000 * len(latencies_ms) / sum(latencies_ms)
    return 1000 / sum(share * statistics.fmean(by_kind[kind]) for kind, share in shares.items())


def end_to_end(workdir: Path, requests: list[dict], seconds: float, deadline: float):
    setups = []
    started = time.monotonic()
    while len(setups) < SETUP_SAMPLES - 1 or time.monotonic() - started < SETUP_BUDGET_S:
        setups.append(run_worker(workdir, f"setup{len(setups)}", {"mode": "setup", "requests": requests},
                                 deadline - time.monotonic()))
    measured = run_worker(workdir, "measure", {"mode": "measure", "requests": requests, "seconds": seconds},
                          deadline - time.monotonic())
    setups.append(measured)
    latencies_ms = [ns / 1e6 for ns in measured["latencies_ns"]]
    kinds = [requests[index % len(requests)]["kind"] for index in range(1, len(latencies_ms) + 1)]
    shares = {kind: count / len(requests) for kind, count in mix(requests).items()}
    tail_ms, percentile = tail(latencies_ms)
    metrics = {
        "requests_per_s": mix_rate(latencies_ms, kinds, shares),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": tail_ms,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": measured["rss_kb"] / 1024,
    }
    detail = {
        "samples": len(latencies_ms),
        "tail_percentile": percentile,
        "latencies_ms": latencies_ms,
        "setup_samples_s": [s["setup_s"] for s in setups],
    }
    return metrics, setups, detail


def per_layer(workdir: Path, workload: str, requests: list[dict], seconds: float, deadline: float):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    job = {"mode": "trace", "requests": requests, "seconds": seconds,
           "spans": str(out / f"spans-{workload}.tsv")}
    traced = run_worker(workdir, "trace", job, deadline - time.monotonic())
    layers = traced["layers"]
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["field.q_pow_hit_ratio"] = traced["q_pow_hit_ratio"]
    metrics["trace.requests_per_s"] = traced["traced_rps"]
    metrics["trace.overhead_pct"] = traced["overhead_pct"]
    detail = {"samples": len(layers), "spans": job["spans"]}
    return metrics, [traced], detail




def report(metrics: dict, declared: list[dict]) -> dict:
    """The metrics BENCHMARK.json declares, with its units, in its order."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"run produced no value for {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "qvira" / "cli.py").is_file():
        print(f"error: no qvira package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]

    requests = workloads.schedule(args.workload, args.seed)
    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        served = write_inputs(workdir, requests)
        if args.trace:
            metrics, workers, detail = per_layer(workdir, args.workload, served, args.seconds, deadline)
        else:
            metrics, workers, detail = end_to_end(workdir, served, args.seconds, deadline)
        metrics = report(metrics, declared)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        load="closed loop, one client, one worker process", mix=mix(requests),
        failed_ratio=failed / attempted, errors=[e for w in workers for e in w["errors"]][:5],
        environment=environment(),
    )
    if args.trace:
        width = max(map(len, metrics))
        for name, metric in metrics.items():
            print(f"{name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark worker: a fresh interpreter serving qvira requests.

Usage: python3 worker.py JOB.json RESULT.json

The job names the package source directory, the request schedule (argv,
expected exit code and output lines) and a mode:

    setup    import qvira.cli and serve the first request
    measure  then serve requests in a closed loop for ``seconds``
    trace    then serve requests untraced for a third of ``seconds``, serve
             the same requests again traced, and go on traced until
             ``seconds`` have passed; with ``count`` set, serve exactly
             that many traced requests instead

Every request calls ``qvira.cli.dispatch(argv)`` in-process with stdout and
stderr captured, so it pays for reading the table, argparse, parsing, the
verdict and printing; interpreter start is not part of a request.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from tracer import Tracer

UNTRACED_SHARE = 1 / 3


class Server:
    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.errors: list[str] = []

    def serve(self, index: int) -> int:
        """Serve one request; returns its latency and counts a wrong answer."""
        request = self.requests[index % len(self.requests)]
        out, err = io.StringIO(), io.StringIO()
        raised = None
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.dispatch(request["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a request that raises is a failed one; keep serving
            code, raised = None, exc
        latency = time.perf_counter_ns() - start
        lines = [line for line in out.getvalue().splitlines() if not line.startswith("witness ")]
        if code != request["code"] or lines != request["lines"] or err.getvalue():
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(
                    f"request {index}: exit {code}, raised {raised!r}, stdout {out.getvalue()!r}, "
                    f"stderr {err.getvalue()!r}, expected {request['lines']!r}"
                )
        return latency

    def loop(self, first: int, seconds: float) -> list[int]:
        """Closed loop from request index first: the next request starts when
        the previous one returns, until seconds have passed."""
        latencies = []
        start = time.perf_counter()
        index = first
        while not latencies or time.perf_counter() - start < seconds:
            latencies.append(self.serve(index))
            index += 1
        self.latencies_ns.extend(latencies)
        return latencies


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    start = time.perf_counter()
    import qvira.cli as cli
    from qvira.field import q_pow

    server = Server(cli, job["requests"])
    before = q_pow.cache_info()
    server.serve(0)
    setup_s = time.perf_counter() - start
    after = q_pow.cache_info()
    lookups = after.hits + after.misses - before.hits - before.misses
    result = {
        "module": cli.__file__,
        "setup_s": setup_s,
        "q_pow_hit_ratio": (after.hits - before.hits) / lookups if lookups else 1.0,
    }
    mode, seconds = job["mode"], job.get("seconds", 0)
    if mode == "measure":
        result["latencies_ns"] = server.loop(1, seconds)
    elif mode == "trace":
        result.update(_traced(server, job, seconds))
    result.update(
        attempted=1 + len(server.latencies_ns),
        failed=server.failed,
        errors=server.errors,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return result


def _traced(server: Server, job: dict, seconds: float) -> dict:
    count = job.get("count")
    start = time.perf_counter()
    untraced = [] if count else server.loop(1, seconds * UNTRACED_SHARE)
    tracer = Tracer()
    tracer.install()
    layers, traced = [], []

    def more(index):
        if count:
            return index <= count
        return index <= len(untraced) or time.perf_counter() - start < seconds

    index = 1
    try:
        while more(index):
            tracer.begin_request(index)
            traced.append(server.serve(index))
            layers.append(tracer.request_metrics())
            index += 1
    finally:
        tracer.uninstall()
    server.latencies_ns.extend(traced)
    if job.get("spans"):
        tracer.write_spans(job["spans"])
    paired = sum(traced[: len(untraced)])
    return {
        "layers": layers,
        "traced_rps": len(traced) * 1e9 / sum(traced),
        "overhead_pct": 100 * (paired / sum(untraced) - 1) if untraced else None,
    }


def main(argv) -> None:
    job_path, result_path = argv
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    result = run(job)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1:])

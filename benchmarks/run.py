#!/usr/bin/env python3
"""Benchmark of the vankampen library: one caller in a closed loop.

    python3 benchmarks/run.py --workload paper-replay --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's seeded input list until ``--seconds``
have passed, timing each library call and checking every output against
``reference``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` rounds over all
three workloads run with layer spans installed and the metrics are the
per-layer ones.  Details of each run go to ``benchmarks/out/``.

The library is imported from ``src/`` of the checkout this file sits in;
nothing needs installing.  ``--dump-inputs`` prints the input list for a
workload and seed and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7
IMPORT_PROBES = 5
MAX_ERRORS_SHOWN = 5


def _use_library_source() -> None:
    if not (SRC / "vankampen" / "__init__.py").is_file():
        sys.exit(f"error: library source {SRC / 'vankampen'} not found")
    sys.path.insert(0, str(SRC))


def _import_library() -> None:
    """Import every vankampen module (``cli`` imports all the others)."""
    import vankampen.cli  # noqa: F401


def _setup_once(workload: str, seed: int, tiny: bool) -> list[workloads.Op]:
    _import_library()
    return [workloads.bind(s) for s in workloads.make_specs(workload, seed, tiny)]


def _ready_ops(workload: str, seed: int, tiny: bool, left_out: dict[str, int]) -> list[workloads.Op]:
    """The workload's operations, less the inputs that hit the known SNF
    fault; their number goes into ``left_out``, stderr and the run's file."""
    ops, left_out[workload] = workloads.leave_out_known_fault(_setup_once(workload, seed, tiny))
    if left_out[workload]:
        print(f"{workload}: {left_out[workload]} SNF input(s) left out: {workloads.KNOWN_SNF_FAULT}",
              file=sys.stderr)
    return ops


def setup_seconds(workload: str, seed: int, tiny: bool, host: hostspeed.HostSpeed) -> float:
    """Median scaled wall time of a fresh interpreter importing and building inputs.

    The interpreter runs with ``-S``: processing site-packages takes 50 to
    130 ms here, depends on what the machine has installed rather than on
    this repository, and swings with the host's file-system caches.
    """
    cmd = [sys.executable, "-S", str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        host.sample()
        start = perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(cmd, check=True)
        samples.append((perf_counter() - start) * host.factor())
    return statistics.median(samples)


class Tally:
    """Attempted and failed operations, and why they failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def run(self, op: workloads.Op, timed) -> float | None:
        """Run and check one operation; its seconds, or None if it failed."""
        self.attempted += 1
        try:
            out, seconds = timed(op.run)
        except Exception as exc:  # a library error fails the operation
            self.correct = False
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return None
        try:
            op.check(out)
        except Exception as exc:  # a wrong or malformed answer
            self.correct = False
            self._fail(op, f"wrong output: {type(exc).__name__}: {exc}")
            return None
        return seconds

    def _fail(self, op: workloads.Op, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"{op.kind}: {message}")
            print(f"operation failed: {op.kind}: {message}", file=sys.stderr)


def _timed(call):
    start = perf_counter()
    out = call()
    return out, perf_counter() - start


def measure(ops: list[workloads.Op], seconds: float, tally: Tally, host: hostspeed.HostSpeed,
            timed=_timed) -> tuple[list[float], list[float]]:
    """Whole rounds over ``ops`` until ``seconds`` have passed.

    Returns the completed operations' raw seconds and their host-speed
    scale factors.
    """
    times: list[float] = []
    factors: list[float] = []
    start = perf_counter()
    while True:
        for op in ops:
            host.refresh()
            t = tally.run(op, timed)
            if t is not None:
                times.append(t)
                factors.append(host.factor())
        if perf_counter() - start >= seconds:
            return times, factors


def end_to_end(args, tally: Tally) -> tuple[dict, dict]:
    host = hostspeed.HostSpeed()
    left_out: dict[str, int] = {}
    ops = _ready_ops(args.workload, args.seed, args.tiny, left_out)
    times, factors = measure(ops, args.seconds, tally, host)
    setup = setup_seconds(args.workload, args.seed, args.tiny, host)
    if not times:
        raise RuntimeError("no operation completed")
    scaled = [t * f for t, f in zip(times, factors)]
    metrics = {
        "setup_s": {"value": setup, "unit": "s"},
        "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "op/s"},
        "op_p50_ms": {"value": 1000 * statistics.median(scaled), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    return metrics, {"left_out": left_out, "op_seconds": times, "host_factors": factors,
                     "raw_op_p50_ms": 1000 * statistics.median(times)}


def per_layer(args, tally: Tally) -> tuple[dict, dict]:
    import spans

    host = hostspeed.HostSpeed()
    order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    left_out: dict[str, int] = {}
    ops = {w: _ready_ops(w, args.seed, args.tiny, left_out) for w in order}
    tracer = spans.Tracer()
    totals = spans.LayerTotals()
    op_times: dict[str, list[float]] = {w: [] for w in order}
    first_pass: dict[str, list[dict]] = {}
    factors: dict[int, float] = {}  # operation number -> host-speed factor

    def traced(call):
        factors[tracer.ops + 1] = host.factor()
        return tracer.run_op(call)

    tracer.install()
    try:
        start = perf_counter()
        while True:
            for w in order:
                times, scale = measure(ops[w], 0, tally, host, traced)
                op_times[w] += [t * f for t, f in zip(times, scale)]
                pass_spans = tracer.take()
                if w not in first_pass:
                    index = {id(s): i for i, s in enumerate(pass_spans)}
                    first_pass[w] = [s.record(index) for s in pass_spans]
                totals.add(w, pass_spans, factors)
            if perf_counter() - start >= args.seconds:
                break
    finally:
        tracer.uninstall()
    metrics = {**spans.import_times(str(SRC), IMPORT_PROBES), **totals.metrics()}
    detail = {
        "left_out": left_out,
        "traced_op_p50_ms": {w: 1000 * statistics.median(t) for w, t in op_times.items() if t},
        "functions": totals.table(),
        "first_pass_spans": first_pass,
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measure for this long (0: one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny input sizes, for the tests")
    parser.add_argument("--dump-inputs", action="store_true", help="print the input list and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.dump_inputs:
        print(json.dumps(workloads.make_specs(args.workload, args.seed, args.tiny), indent=1))
        return 0
    _use_library_source()
    if args.setup_probe:
        _setup_once(args.workload, args.seed, args.tiny)
        return 0

    tally = Tally()
    metrics, detail = (per_layer if args.trace else end_to_end)(args, tally)
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"result": result, "errors": tally.errors, **detail}) + "\n")
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this (fresh) process and print one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--trace] [--setup-only]

Set-up is timed from the first line of this file to readiness for the
first op: importing the package, building the gates' reference values and
one warm-up op of every kind.  The closed loop then has one client that
sends the next op only when the previous one has returned, and starts no
new round of ops once --seconds have passed.  With --trace the loop instead
runs a fixed number of rounds, each twice, untraced and traced, and reports
per-layer numbers and the tracing overhead; see tracing.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Rounds per second of --seconds in a traced run, so that each of its two
#: passes takes about half of --seconds at the speed of the program when the
#: benchmark was written.  The count is fixed, not timed, so that traced runs
#: of two versions of the program do the same work.
TRACE_ROUNDS_PER_SECOND = {"exact-cli": 0.15, "quadrature-sweep": 170.0, "weights": 0.16}

#: A failure is listed with its op up to this many times; all are counted.
LISTED_FAILURES = 20


#: The tail percentile reported as op_tail_ms, per workload: the highest of
#: 50, 75, 90, 99, 99.9 that left at least ten samples beyond it in a
#: 50-second run when the benchmark was written (about 65, 270 and 120 000
#: ops).  It is fixed so that runs of two versions of the program report the
#: same percentile; the samples beyond it are counted in every run.
TAIL_PERCENTILE = {"exact-cli": 75.0, "quadrature-sweep": 99.9, "weights": 90.0}


def percentile(latencies: list, pct: float) -> tuple:
    """(nearest-rank value, number of samples above it) at percentile `pct`."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Loop:
    """Outcome of the ops sent so far by the closed loop's one client."""

    def __init__(self):
        # Doubles in an array, not floats in a list, so that the record grows
        # by 8 bytes per op and barely moves peak_rss_mb as ops get faster.
        self.latencies = array.array("d")
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.wall_s = 0.0
        self.rounds = 0

    def fail(self, op, reason):
        self.failed += 1
        if len(self.failures) < LISTED_FAILURES:
            self.failures.append({"op": list(op), "reason": reason})

    def send(self, runner, ops, tracer=None):
        """Send ops one at a time, each after the previous returned, and gate each result."""
        clock = time.perf_counter
        start = clock()
        for op in ops:
            self.attempted += 1
            try:
                args = runner.prepare(op)
                if tracer:
                    tracer.op = self.attempted - 1
                    frame = tracer.enter("op")
                began = clock()
                try:
                    result = runner.run(op, args)
                finally:
                    self.latencies.append(clock() - began)
                    if tracer:
                        tracer.exit(frame)
                reason = runner.check(op, args, result)
            except Exception as exc:  # any raise is a failed op, never a crash
                reason = f"raised {exc!r}"
            if reason:
                self.fail(op, reason)
            elif tracer:
                err = runner.abs_error(op, result)
                if err is not None:
                    tracer.maximum("moments.max_abs_err", err)
        self.wall_s += clock() - start
        self.rounds += 1


def run_ops(runner, rounds, seconds=None) -> Loop:
    """Send whole rounds of ops; start no round once `seconds` have passed."""
    loop = Loop()
    start = time.perf_counter()
    for ops in rounds:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        loop.send(runner, ops)
    return loop


def environment(args) -> dict:
    from carleman.rational import Rational

    return {
        "python": platform.python_version(),
        "carrier": f"{Rational.__module__}.{Rational.__qualname__}",
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        frame = tracer.enter("cli.import")
    import carleman.cli  # noqa: F401  (the package's full import, as the CLI pays it)

    if tracer:
        tracer.exit(frame)
        restore = tracing.instrument(tracer)
    runner = workloads.Runner(args.workload)
    warmup = run_ops(runner, [workloads.WARMUP_OPS])
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s, "warmup_failures": warmup.failures, **environment(args)}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if not tracer:
        loop = run_ops(runner, workloads.generate(args.workload, args.seed), args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pct = TAIL_PERCENTILE[args.workload]
        value, beyond = percentile(loop.latencies, pct)
        out.update(
            attempted=loop.attempted,
            failed=loop.failed,
            failures=loop.failures,
            wall_s=loop.wall_s,
            ops_per_s=(loop.attempted - loop.failed) / loop.wall_s,
            rounds=loop.rounds,
            op_p50_ms=1e3 * statistics.median(loop.latencies),
            op_tail_ms=1e3 * value,
            tail_percentile=pct,
            samples=len(loop.latencies),
            samples_beyond_tail=beyond,
            peak_rss_mb=peak_rss_mb,
        )
        print(json.dumps(out))
        return 0

    restore()
    count = max(1, round(args.seconds * TRACE_ROUNDS_PER_SECOND[args.workload] / 2))
    plain, traced = Loop(), Loop()
    for i, ops in enumerate(workloads.first_rounds(args.workload, args.seed, count)):
        # Each round runs untraced and traced, in alternating order, so that
        # drift in the machine's speed does not land on one side of the overhead.
        for loop in (plain, traced) if i % 2 == 0 else (traced, plain):
            if loop is plain:
                plain.send(runner, ops)
                continue
            restore = tracing.instrument(tracer)
            try:
                traced.send(runner, ops, tracer)
            finally:
                restore()
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    trace_dir = ROOT / ".bench_out"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps(tracer.to_dict()))
    out.update(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        failures=plain.failures + traced.failures,
        traced_rounds=count,
        traced_ops=traced.attempted,
        untraced_wall_s=plain.wall_s,
        traced_wall_s=traced.wall_s,
        layer_self_s=tracer.layer_self_s(),
        trace_file=str(trace_file.relative_to(ROOT)),
        metrics=metrics,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

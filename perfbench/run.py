"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measurement happens in a
fresh worker process (worker.py), so that set-up time and peak memory belong
to one workload alone.  `setup_s` is the median over SETUP_RUNS processes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it holds
the details: Python version, rational carrier, nproc, seed, fail_frac, the
percentile and sample count behind op_tail_ms, and every failing op.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_RUNS = 5
#: The whole run, workers included, ends within this many seconds.
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    return {
        "coefficients.max_entry_bits": "bits",
        "quadrature.levels_mean": "levels",
        "quadrature.max_error_estimate": "abs",
        "moments.max_abs_err": "abs",
        "report.json_bytes": "bytes",
        "trace.overhead_frac": "frac",
    }.get(name, "count")


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline: float, *extra: str) -> dict:
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded the time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics from SETUP_RUNS - 1 set-up-only workers and one full worker.

    Half the set-up-only workers run before the full one and half after, so
    that the median set-up time spans the run rather than one moment of it.
    """
    before = (SETUP_RUNS - 1) // 2
    setups = [run_worker(args, deadline, "--setup-only") for _ in range(before)]
    main = run_worker(args, deadline)
    setups.append(main)
    setups += [run_worker(args, deadline, "--setup-only") for _ in range(SETUP_RUNS - 1 - before)]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        **{name: main[name] for name in END_TO_END_UNITS if name != "setup_s"},
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    warmup_failures = [f for s in setups for f in s["warmup_failures"]]
    details = {
        key: main[key]
        for key in ("workload", "seed", "python", "carrier", "nproc", "attempted", "failed",
                    "wall_s", "rounds", "tail_percentile", "samples", "samples_beyond_tail",
                    "failures")
    }
    details.update(
        fail_frac=main["failed"] / main["attempted"],
        setup_runs_s=[s["setup_s"] for s in setups],
        warmup_failures=warmup_failures,
    )
    return details, metrics


def trace(args, deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced worker."""
    main = run_worker(args, deadline, "--trace")
    metrics = {
        name: {"value": value, "unit": per_layer_unit(name)}
        for name, value in main.pop("metrics").items()
    }
    main["fail_frac"] = main["failed"] / main["attempted"]
    return main, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="carleman benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "carleman" / "__init__.py").is_file():
        print(f"error: no carleman sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        details, metrics = (trace if args.trace else measure)(args, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = details["failed"] == 0 and not details["warmup_failures"]
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

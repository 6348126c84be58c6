"""Time the table builders and the refinement-weights layer at fixed sizes.

Run from the root of a checkout with the number of the change whose figures
the file records and the src/ directory of each commit to compare:

    python3 bench/layers.py NUMBER src ../parent/src

The script writes BENCH_<number>.json.  Each repeat runs every size once in
a child process per commit, with PYTHONPATH at that commit's src/, and the
order of the commits alternates from one repeat to the next, so a switch of
the host between fast and slow states falls on both sides alike.  Every
figure is the best of the repeats, and a child times each size below
0.1 s TRIES times.  Each child also times a control, the same stdlib
Fraction sum for every commit, so the file shows whether its sides ran at
the same host speed.  Next to the best-of figures, each later commit gets
first_over_this: per size, the first commit's time over its own within
each repeat, with the median, least and greatest of those ratios, whose
spread shows how far a ratio can be trusted on a host that changes speed.

The sizes: both builders at N = 20, 200, 600, 1001 and 2000 (the small ones
as the mean of several calls), carleman_demo at (terms, entries) =
(1, 2 000), (6, 20 000) and (20, 20 000), one exact and one float
refinement_factor call at terms = 20, and tail_bound at (x, terms) =
(0.001, 20), (2.5, 6) and (1e-6, 1).  Each table records a hash of its
integers, each demo its rhs in hex and each tail bound its value in hex,
so the file shows whether the commits computed the same values bit for
bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
TRIES = 5  # timings per child of each size below 0.1 s
BUILDS = ((20, 100, TRIES), (200, 2, TRIES), (600, 1, 1), (1001, 1, 1), (2000, 1, 1))
DEMOS = ((1, 2_000), (6, 20_000), (20, 20_000))
FACTOR_TERMS = 20
FACTOR_CALLS = 2_000
TAILS = ((0.001, 20, 10), (2.5, 6, 2_000), (1e-6, 1, 3))  # (x, terms, calls)


def timed(fn, calls: int = 1, tries: int = TRIES) -> tuple:
    """(least of `tries` timings of one call of fn, each a mean of `calls` calls; a result)."""
    best = float("inf")
    for _ in range(tries):
        start = time.perf_counter()
        for _ in range(calls):
            result = fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best, result


def demo_sequence(length: int) -> list[float]:
    """a_n = r_n/n with r_n uniform in [0.5, 1.5) from a fixed seed, and three zeros."""
    rng = random.Random(length)
    seq = [(0.5 + rng.random()) / n for n in range(1, length + 1)]
    for i in (length // 7, length // 2, length - 1):
        seq[i] = 0.0
    return seq


def once() -> dict:
    """The timings and values of every size, by name, for the carleman on sys.path."""
    import carleman
    from carleman import CoefficientTable, Rational, carleman_demo, refinement_factor, tail_bound

    src = Path(carleman.__file__).resolve().parent
    times = {"control": timed(lambda: sum(Fraction(1, k) for k in range(1, 400)), 10)[0]}
    hashes = {}
    for max_n, calls, tries in BUILDS:
        for build in (CoefficientTable.from_recurrence, CoefficientTable.from_series_oracle):
            name = f"{build.__name__}_{max_n}"
            times[name], table = timed(lambda: build(max_n), calls, tries)
            ints = " ".join(map(hex, (*table.numerators, table.denominator)))
            hashes[name] = hashlib.sha256(ints.encode()).hexdigest()[:16]
    for terms, entries in DEMOS:
        table = CoefficientTable.from_recurrence(terms)
        seq = demo_sequence(entries)
        name = f"carleman_demo_{terms}_{entries}"
        times[name], demo = timed(lambda: carleman_demo(seq, terms, table))
        hashes[name] = demo.rhs.hex()
    table = CoefficientTable.from_recurrence(FACTOR_TERMS)
    for kind, x in (("exact", Rational(3, 2)), ("float", 2.5)):
        name = f"refinement_factor_{FACTOR_TERMS}_{kind}"
        times[name] = timed(lambda: refinement_factor(x, FACTOR_TERMS, table), FACTOR_CALLS)[0]
    for x, terms, calls in TAILS:
        name = f"tail_bound_{x}_{terms}"
        times[name], bound = timed(lambda: tail_bound(x, terms), calls)
        hashes[name] = bound.hex()
    return {
        "commit": subprocess.run(
            ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=7"],
            capture_output=True, text=True, check=True,
        ).stdout.strip(),
        "python": platform.python_version(),
        "carrier": f"{Rational.__module__}.{Rational.__qualname__}",
        "times": times,
        "values": hashes,
    }


def child(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run([sys.executable, __file__, "--once"], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def paired(first: list, other: list) -> dict:
    """Per size: the ratio first/other of the times within each repeat, with its spread."""
    ratios = {}
    for name in first[0]["times"]:
        per_repeat = [a["times"][name] / b["times"][name] for a, b in zip(first, other)]
        spread = (statistics.median(per_repeat), min(per_repeat), max(per_repeat))
        ratios[name] = {key: float(f"{r:.4g}") for key, r in zip(("median", "min", "max"), spread)}
        ratios[name]["per_repeat"] = [float(f"{r:.4g}") for r in per_repeat]
    return ratios


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--once", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("number", type=int, nargs="?",
                        help="the file written is BENCH_<number>.json")
    parser.add_argument("src", nargs="*", help="the src/ directory of each commit to time")
    args = parser.parse_args()
    if args.once:
        print(json.dumps(once()))
        return
    if args.number is None or not args.src:
        parser.error("give the BENCH number and at least one src/ directory")
    runs = {src: [] for src in args.src}
    for repeat in range(REPEATS):
        order = args.src if repeat % 2 == 0 else args.src[::-1]
        for src in order:
            runs[src].append(child(src))
    doc = {"harness": "bench/layers.py", "repeats": REPEATS, "tries": TRIES,
           "cpu_count": os.cpu_count(), "runs": []}
    first_runs = runs[args.src[0]]
    for repeats in runs.values():
        first = repeats[0]
        if any(r["values"] != first["values"] for r in repeats):
            raise SystemExit(f"{first['commit']}: values differ between repeats")
        best = {name: min(r["times"][name] for r in repeats) for name in first["times"]}
        run = {
            "commit": first["commit"], "python": first["python"], "carrier": first["carrier"],
            "best_s": {name: float(f"{t:.4g}") for name, t in best.items()},
            "values": first["values"],
        }
        if repeats is not first_runs:
            run["first_over_this"] = paired(first_runs, repeats)
        doc["runs"].append(run)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(out.read_text(), end="")


if __name__ == "__main__":
    main()

"""Time the refinement-weights layer at fixed sizes and record it in BENCH_<number>.json.

Run from the root of a checkout, against the package on PYTHONPATH, with the
number of the change whose figures the file records:

    PYTHONPATH=src python3 bench/weights_layer.py NUMBER

It times carleman_demo at (terms, entries) = (1, 2 000), (6, 20 000) and
(20, 20 000), and one exact and one float refinement_factor call at
terms = 20.  Every figure is the best of 5.  The coefficient table is built
outside the timed region.

To compare two commits in one sitting, run the script once per commit with
the same number and PYTHONPATH pointing at that commit's src/ (a second
checkout of the other commit, say).  Each run replaces the entry of its own
commit, as `git describe --always --dirty` names it, and keeps the others.
Each demo entry also records its rhs in hex, so the file shows whether two
commits computed the same weights bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import time
from pathlib import Path

import carleman
from carleman import CoefficientTable, Rational, carleman_demo, refinement_factor

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
DEMOS = ((1, 2_000), (6, 20_000), (20, 20_000))
FACTOR_TERMS = 20
FACTOR_POINTS = {"exact": Rational(3, 2), "float": 2.5}
FACTOR_CALLS = 2_000


def best_of(fn) -> float:
    """Least wall time of REPEATS calls of fn, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def demo_sequence(length: int) -> list[float]:
    """a_n = r_n/n with r_n uniform in [0.5, 1.5) from a fixed seed, and three zeros."""
    rng = random.Random(length)
    seq = [(0.5 + rng.random()) / n for n in range(1, length + 1)]
    for i in (length // 7, length // 2, length - 1):
        seq[i] = 0.0
    return seq


def commit() -> str:
    """The commit of the imported package's checkout, '-dirty' if it has edits."""
    src = Path(carleman.__file__).resolve().parent
    return subprocess.run(
        ["git", "-C", str(src), "describe", "--always", "--dirty", "--abbrev=7"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def measure() -> dict:
    demos = []
    for terms, entries in DEMOS:
        table = CoefficientTable.from_recurrence(terms)
        seq = demo_sequence(entries)
        seconds = best_of(lambda: carleman_demo(seq, terms, table))
        demos.append({"terms": terms, "entries": entries, "best_s": round(seconds, 5),
                      "rhs": carleman_demo(seq, terms, table).rhs.hex()})
    table = CoefficientTable.from_recurrence(FACTOR_TERMS)
    factors = {}
    for kind, x in FACTOR_POINTS.items():
        def calls(x=x):
            for _ in range(FACTOR_CALLS):
                refinement_factor(x, FACTOR_TERMS, table)
        per_call = best_of(calls) / FACTOR_CALLS
        factors[kind] = {"x": str(x), "best_us_per_call": round(1e6 * per_call, 3)}
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "carrier": f"{Rational.__module__}.{Rational.__qualname__}",
        "cpu_count": os.cpu_count(),
        "carleman_demo": demos,
        f"refinement_factor_terms_{FACTOR_TERMS}": factors,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="the file written is BENCH_<number>.json")
    out = ROOT / f"BENCH_{parser.parse_args().number}.json"
    run = measure()
    doc = json.loads(out.read_text()) if out.exists() else {
        "harness": "bench/weights_layer.py", "repeats": REPEATS, "runs": []}
    doc["runs"] = [r for r in doc["runs"] if r["commit"] != run["commit"]] + [run]
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(run, indent=2))


if __name__ == "__main__":
    main()

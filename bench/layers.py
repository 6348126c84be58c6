"""Time every layer of the package at fixed sizes, for one or more commits in one process.

    python3 bench/layers.py NUMBER src ../parent/src

run from the root of a checkout, writes BENCH_<NUMBER>.json for the src/
directory of each commit.  `load` imports each commit's package side by
side.  Each size gets one warm-up call on every commit, and the first
commit's sets how many calls make a timing of about SAMPLE_S seconds, the
same on every commit.  The size is then timed on each commit in turn for
REPEATS rounds, the order alternating, so a switch of the host between fast
and slow states falls on both sides alike.  best_s is the least per-call
time of the rounds, and each later commit gets first_over_this: per size,
the first commit's time over its own in each round, with the median, least
and greatest.  The control, one stdlib Fraction sum, shows whether the sides
ran at the same speed.

The sizes, in `sizes`, cover the layers (a) the two table builders, (b) the
four exact table checks, (c) the quadrature and run_verification() and (d)
the weights, the demo and tail_bound, each at fixed arguments.  `values`
holds a fingerprint of each result (a hash of a table's reduced entries or
of checks' names and statuses, or a float in hex), so the file shows whether
the commits computed the same, bit for bit.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Rounds per size: odd, so a median ratio is one round's, and enough that rounds spread
# by about 11% (the A/A sittings on 2 vCPUs) leave the median within about 3%.
REPEATS = 21
SAMPLE_S = 0.05  # the length of one timing
BUILDS = (5, 20, 200, 300, 600, 1001, 2000)
CHECKS_N = 1001
DEMOS = ((1, 2_000), (6, 20_000), (20, 20_000))
FACTOR_TERMS = 20
TAILS = ((0.001, 20), (2.5, 6), (1e-6, 1), (0.1, 20), (0.001, 2000))


def load(src):
    """The carleman package under src/, imported anew; sys.modules and sys.path are left as found.

    Every module of the package binds its imports at module level, so each
    function keeps its own commit's globals once the entries are restored.
    """
    def ours():
        return [name for name in sys.modules if name.partition(".")[0] == "carleman"]

    saved, path = {name: sys.modules.pop(name) for name in ours()}, sys.path[:]
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        return importlib.import_module("carleman")
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
        sys.path[:] = path


def digest(obj) -> str:
    return hashlib.sha256(str(obj).encode()).hexdigest()[:16]


def entries(table) -> str:
    """Hash of the table's reduced entries, read from `values`, which every commit's table has."""
    return digest(" ".join(f"{hex(v.numerator)}/{hex(v.denominator)}" for v in table.values))


def demo_sequence(length: int) -> list[float]:
    """a_n = r_n/n with r_n uniform in [0.5, 1.5) from a fixed seed, and three zeros."""
    rng = random.Random(length)
    seq = [(0.5 + rng.random()) / n for n in range(1, length + 1)]
    for i in (length // 7, length // 2, length - 1):
        seq[i] = 0.0
    return seq


def sizes(pkg) -> dict:
    """Per size name: (a call of no arguments, a function from its result to a fingerprint)."""
    Table = pkg.CoefficientTable
    verdicts = lambda checks: digest([(check.name, check.status) for check in checks])
    found = {"control": (lambda: sum(Fraction(1, k) for k in range(1, 400)), digest)}
    for max_n in BUILDS:
        for build in (Table.from_recurrence, Table.from_series_oracle):
            found[f"{build.__name__}_{max_n}"] = (partial(build, max_n), entries)
    table, oracle = Table.from_recurrence(CHECKS_N), Table.from_series_oracle(CHECKS_N)
    for check, *args in ((pkg.bound_check, table), (pkg.monotonicity_check, table),
                         (pkg.ratio_trend_check, table),
                         (pkg.oracle_equivalence_check, table, oracle)):
        found[f"{check.__name__}_{CHECKS_N}"] = (partial(check, *args), lambda c: verdicts([c]))
    moment = lambda result: f"{result.value.hex()} {result.levels_used}"
    found["coefficient_by_moment_20"] = (partial(pkg.coefficient_by_moment, 20), moment)
    found["density_identity_checks"] = (pkg.density_identity_checks, verdicts)
    found["run_verification"] = (pkg.run_verification, lambda report: verdicts(report.checks))
    for terms, length in DEMOS:
        demo = partial(pkg.carleman_demo, demo_sequence(length), terms,
                       Table.from_recurrence(terms))
        found[f"carleman_demo_{terms}_{length}"] = (demo, lambda report: report.rhs.hex())
    table = Table.from_recurrence(FACTOR_TERMS)
    for kind, x in (("exact", pkg.Rational(3, 2)), ("float", 2.5)):
        factor = partial(pkg.refinement_factor, x, FACTOR_TERMS, table)
        found[f"refinement_factor_{FACTOR_TERMS}_{kind}"] = (factor, digest)
    for x, terms in TAILS:
        found[f"tail_bound_{x}_{terms}"] = (partial(pkg.tail_bound, x, terms), float.hex)
    return found


def label(src) -> str:
    """The commit of src, marked -dirty only when git lists a changed or new file under src."""
    git = ["git", "-C", str(src)]
    commit = subprocess.check_output(git + ["describe", "--always", "--abbrev=7"], text=True)
    changed = subprocess.check_output(git + ["status", "--porcelain", "--", "."], text=True)
    return commit.strip() + ("-dirty" if changed else "")


def spread(first: list, other: list) -> dict:
    """The ratios first/other of the times round by round, with their median and extremes."""
    per_repeat = [float(f"{a / b:.4g}") for a, b in zip(first, other)]
    return {"median": statistics.median(per_repeat), "min": min(per_repeat),
            "max": max(per_repeat), "per_repeat": per_repeat}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="the file written is BENCH_<number>.json")
    parser.add_argument("src", nargs="+", help="the src/ directory of each commit to time")
    args = parser.parse_args()
    packages = [load(src) for src in args.src]
    found = [sizes(pkg) for pkg in packages]
    times = [{name: [] for name in calls} for calls in found]
    values = [{} for _ in found]
    sides = list(range(len(found)))
    for name in found[0]:
        for side in sides[::-1]:  # the first side's warm-up, the last, sets the count
            start = time.perf_counter()
            found[side][name][0]()
        calls = max(1, round(SAMPLE_S / (time.perf_counter() - start)))
        for repeat in range(REPEATS):
            for side in sides if repeat % 2 == 0 else sides[::-1]:
                call, fingerprint = found[side][name]
                start = time.perf_counter()
                for _ in range(calls):
                    result = call()
                times[side][name].append((time.perf_counter() - start) / calls)
                value = fingerprint(result)
                if values[side].setdefault(name, value) != value:
                    raise SystemExit(f"{args.src[side]}: {name} differs between rounds")
    doc = {"harness": "bench/layers.py", "repeats": REPEATS, "sample_s": SAMPLE_S,
           "cpu_count": os.cpu_count(), "runs": []}
    for side, (src, pkg) in enumerate(zip(args.src, packages)):
        run = {
            "commit": label(src),
            "python": platform.python_version(),
            "carrier": f"{pkg.Rational.__module__}.{pkg.Rational.__qualname__}",
            "best_s": {name: float(f"{min(t):.4g}") for name, t in times[side].items()},
            "values": values[side],
        }
        if side:
            run["first_over_this"] = {name: spread(times[0][name], t)
                                      for name, t in times[side].items()}
        doc["runs"].append(run)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(out.read_text(), end="")


if __name__ == "__main__":
    main()

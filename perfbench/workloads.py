"""The three seeded workloads: op generation, op execution and correctness gates.

Generation uses only ``random.Random(seed)`` and never imports the package,
so the program receives nothing but the generated inputs.  Each workload is
generated in rounds: inside a round every size is stratified (one draw from
each equal slice of its range), the slices of different sizes are paired by
a fixed permutation, and the ops are shuffled.  Every round thus covers the
whole domain, and a run, which always ends on a round boundary, does not
hinge on a lucky streak of small or large draws (see `generate`).

Ops are plain tuples of JSON-able values, so an op list can be compared,
printed next to a failure, and replayed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("exact-cli", "quadrature-sweep", "weights")

#: Check names of the frozen `verify` report, in emission order.
FROZEN_CHECKS = (
    "oracle-equivalence",
    "coefficient-bound",
    "coefficient-decrease",
    "ratio-trend",
    "moment-representation",
    "moment-mirror-agreement",
    "parts-representation",
    "density-integral",
    "density-first-moment",
    "density-over-s",
    "density-over-1-minus-s",
    "gap-function-agreement",
    "partial-sum-sandwich",
    "endpoint-moment-limit",
)
VERIFY_SUMMARY = {"passed": 13, "failed": 0, "reported": 1}
B6 = "3625/580608"

# exact-cli sizes: low hundreds, where the two exact table builds take about
# 95% of op time (0.5-1.6 s per verify op when the benchmark was written),
# and small enough that a run collects a few dozen latency samples.
EXACT_N = (200, 300)
EXACT_QUAD = (10, 30)
FAULT_SHARE = 1 / 8

# quadrature-sweep: orders, the decades of verify.GAP_SAMPLE_XS, check tolerances.
QUAD_N = (2, 200)
DEFECT_LOG10_X = (-1.0, 2.0)
QUAD_TOLS = (1e-10, 1e-12)
QUAD_KINDS = ("moment", "mirror", "parts", "limit", "defect", "identities")

# weights: truncation orders, evaluation points, demo lengths.
TERMS = (1, 20)
FACTOR_LOG10_X = (-3.0, 12.0)
DEMO_LENGTH = (2_000, 20_000)

#: Resolution of the overshoot's sign, from the truncation_gap docstring:
#: below ~1e-15 the subtraction is at the mercy of double rounding.
GAP_FLOOR = 1e-15


# --------------------------------------------------------------- generation


#: Consecutive multiples of this, modulo 1, spread evenly over [0, 1).
GOLDEN = (5**0.5 - 1) / 2


def _strata(k: int, lo: float, hi: float, u: float) -> list[float]:
    """The point at fraction u of each of k equal slices of [lo, hi), slice order kept."""
    return [lo + (hi - lo) * (i + u) / k for i in range(k)]


def _int_strata(k, lo, hi, u):
    """Integer version of _strata over the closed range [lo, hi]."""
    return [min(hi, int(v)) for v in _strata(k, lo, hi + 1, u)]


def _offset(u: float, dim: int) -> float:
    """Offset of size dimension `dim` in a round whose first dimension has offset u."""
    return (u + dim * GOLDEN) % 1.0


def _spread(k: int, step: int) -> list[int]:
    """The fixed permutation i -> step*i mod k (step coprime to k).

    Pairs the slices of one size dimension with those of another, so that
    every round covers each slice of each dimension once.
    """
    return [(step * i) % k for i in range(k)]


def _exact_cli_round(rng, u):
    ops = []
    for n in _int_strata(6, *EXACT_N, _offset(u, 0)):
        q = rng.randint(*EXACT_QUAD)
        fault = rng.randint(2, n) if rng.random() < FAULT_SHARE else None
        ops.append(("verify", n, q, fault))
    ops += [("coeffs", n) for n in _int_strata(2, *EXACT_N, _offset(u, 1))]
    rng.shuffle(ops)
    return ops


def _quadrature_round(rng, u):
    # Each kind gets one low and one high order per round, and one op at
    # each tolerance.
    kinds = QUAD_KINDS * 2
    ns = _int_strata(len(kinds), *QUAD_N, _offset(u, 0))
    xs = iter(_strata(2, *DEFECT_LOG10_X, _offset(u, 1)))
    flip = rng.randrange(2)
    ops = []
    for i, (kind, n) in enumerate(zip(kinds, ns)):
        tol = QUAD_TOLS[(i + i // len(QUAD_KINDS) + flip) % 2]
        if kind == "defect":
            ops.append((kind, 10.0 ** next(xs), tol))
        elif kind == "identities":
            ops.append((kind, tol))
        else:
            ops.append((kind, n, tol))
    rng.shuffle(ops)
    return ops


def _point_text(rng, x: float) -> str:
    """x rendered as an int, a 'p/q' or a float, as `carleman factor` accepts it."""
    form = rng.choice(("int", "pq", "float") if x >= 1 else ("pq", "float"))
    if form == "int":
        return str(round(x))
    if form == "pq":
        q = Fraction(x).limit_denominator(10**6)
        return f"{q.numerator}/{q.denominator}"
    return repr(x)


def _weights_round(rng, u):
    factors, demos = 24, 8
    ms = _int_strata(factors, *TERMS, _offset(u, 0))
    xs = _strata(factors, *FACTOR_LOG10_X, _offset(u, 1))
    ops = [
        ("factor", ms[i], _point_text(rng, 10.0 ** xs[j]))
        for i, j in enumerate(_spread(factors, 5))
    ]
    lengths = _int_strata(demos, *DEMO_LENGTH, _offset(u, 2))
    ms = _int_strata(demos, *TERMS, _offset(u, 3))
    ops += [
        ("demo", ms[j], lengths[i], rng.getrandbits(32))
        for i, j in enumerate(_spread(demos, 3))
    ]
    rng.shuffle(ops)
    return ops


_ROUNDS = {
    "exact-cli": _exact_cli_round,
    "quadrature-sweep": _quadrature_round,
    "weights": _weights_round,
}


def generate(workload: str, seed: int):
    """Endless seeded stream of rounds (lists of ops) for one workload.

    Round r draws its sizes at offset u_0 + r*GOLDEN (mod 1) inside each
    slice, with u_0 from the seed: a randomly rotated golden-ratio sequence.
    Any few consecutive rounds thus place their draws evenly across each
    slice, so runs on different seeds do nearly the same amount of work.
    """
    rng = random.Random(f"{workload}:{seed}")
    make_round = _ROUNDS[workload]
    u = rng.random()
    while True:
        yield make_round(rng, u)
        u = (u + GOLDEN) % 1.0


def first_rounds(workload: str, seed: int, count: int) -> list:
    return list(itertools.islice(generate(workload, seed), count))


def demo_sequence(length: int, seed: int) -> list[float]:
    """Seeded a_n = r_n/n with r_n uniform in [0.5, 1.5) and a few zeros.

    The 1/n profile is where Carleman's inequality is tight, so the demo
    ratio stays well away from 0.
    """
    rng = random.Random(seed)
    seq = [(0.5 + rng.random()) / n for n in range(1, length + 1)]
    for _ in range(rng.randint(1, 5)):
        seq[rng.randrange(length)] = 0.0
    return seq


def parse_point(text: str):
    """The value `carleman factor --x TEXT` hands to the library."""
    if "/" in text:
        p, q = text.split("/")
        return Fraction(int(p), int(q))
    try:
        return int(text)
    except ValueError:
        return float(text)


#: One small op of every kind, run in every workload's set-up.  It fills the
#: package's lazy caches (quadrature nodes, json encoder) before the first
#: timed op, and checks that every gate accepts a known-good result.
WARMUP_OPS = (
    ("verify", 12, 6, None),
    ("verify", 12, 6, 5),
    ("coeffs", 8),
    ("moment", 5, 1e-10),
    ("mirror", 5, 1e-10),
    ("parts", 5, 1e-10),
    ("limit", 5, 1e-10),
    ("defect", 1.0, 1e-10),
    ("identities", 1e-10),
    ("factor", 3, "2"),
    ("factor", 3, "3/2"),
    ("factor", 3, "0.5"),
    ("demo", 3, 200, 1),
)


# ---------------------------------------------------------------- execution


class Runner:
    """Executes ops through the package's public functions and gates them.

    `prepare` turns an op into call arguments (not timed), `run` makes the
    call (timed), and `check` returns None for a correct result or a reason.
    Calls go through module attributes so that a traced run sees them.
    """

    def __init__(self, workload: str):
        import carleman
        from carleman import cli

        self.carleman = carleman
        self.cli = cli
        # Reference coefficients for the gates, built once per process.
        if workload == "quadrature-sweep":
            # c_1..c_201: c_{n+1} is the reference for scaled_derivative_moment(n).
            reference = carleman.CoefficientTable.from_recurrence(QUAD_N[1] + 1)
        else:
            # The independent series construction, against which the weights
            # ops' recurrence tables are checked; it also covers the warm-up.
            reference = carleman.CoefficientTable.from_series_oracle(TERMS[1])
        self.ref_exact = reference.values
        self.ref = reference.floats()

    # The first field of an op names its kind; `check` dispatches on it to
    # the _check_<kind> methods below.

    def prepare(self, op):
        kind = op[0]
        if kind == "verify":
            _, n, q, fault = op
            argv = ["verify", "--max-n", str(n), "--quad-max", str(q)]
            return argv + (["--inject-fault", str(fault)] if fault else [])
        if kind == "coeffs":
            return ["coeffs", "--max-n", str(op[1]), "--format", "json"]
        if kind in QUAD_KINDS:
            return op[1:-1], self.carleman.engine_config(op[-1])
        if kind == "factor":
            return op[1], parse_point(op[2])
        if kind == "demo":
            _, m, length, seed = op
            return m, demo_sequence(length, seed)
        raise ValueError(f"unknown op kind {kind!r}")

    def run(self, op, args):
        kind = op[0]
        c = self.carleman
        if kind in ("verify", "coeffs"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = self.cli.main(args)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return code, out.getvalue()
        if kind in QUAD_KINDS:
            params, config = args
            if kind == "moment":
                return c.moments.coefficient_by_moment(*params, config)
            if kind == "mirror":
                return c.moments.coefficient_by_moment(*params, config, mirror=True)
            if kind == "parts":
                return c.moments.coefficient_by_parts(*params, config)
            if kind == "limit":
                return c.moments.scaled_derivative_moment(*params, config)
            if kind == "defect":
                return c.integrands.scaled_defect_by_quadrature(*params, config)
            tol = op[-1]
            return c.moments.density_identity_checks(config, tol, 10.0 * tol)
        m, x = args
        table = c.coefficients.CoefficientTable.from_recurrence(m)
        if kind == "demo":
            return table, c.refinement.carleman_demo(x, m, table)
        return (
            table,
            c.refinement.refinement_factor(x, m, table),
            c.refinement.truncation_gap(x, m, table),
            c.refinement.tail_bound(x, m),
        )

    def check(self, op, args, result):
        """None when the result meets its contract, else the reason it does not."""
        return getattr(self, "_check_" + op[0])(op, args, result)

    # -- exact-cli

    def _check_verify(self, op, args, result):
        code, out = result
        report = json.loads(out)
        checks = report["checks"]
        names = tuple(c["name"] for c in checks)
        if names != FROZEN_CHECKS:
            return f"check names {names}"
        status = {c["name"]: c["status"] for c in checks}
        if op[3]:
            if code != 1:
                return f"fault-injected verify exited {code}, expected 1"
            if status["coefficient-decrease"] != "fail":
                return "fault-injected verify did not fail coefficient-decrease"
            return None
        summary = report["summary"]
        if code != 0 or summary != VERIFY_SUMMARY:
            return f"exit {code}, summary {summary}"
        if status["oracle-equivalence"] != "pass":
            return "oracle-equivalence did not pass"
        return None

    def _check_coeffs(self, op, args, result):
        code, out = result
        if code != 0:
            return f"exit {code}"
        rows = json.loads(out)["coefficients"]
        n = op[1]
        if [r["n"] for r in rows] != list(range(1, n + 1)):
            return f"expected entries 1..{n}, got {len(rows)}"
        if rows[5]["value"] != B6:
            return f"b_6 = {rows[5]['value']}"
        bad = [r["n"] for r in rows if r["bound"] != f"1/{r['n'] * (r['n'] + 1)}"]
        return f"bound column wrong at n={bad[:5]}" if bad else None

    # -- quadrature-sweep: the tolerance run_verification applies to each form

    def _quad_error(self, result, reference, tol):
        if not result.converged:
            return f"not converged (estimate {result.error_estimate:.2e})"
        err = abs(result.value - reference)
        return None if err <= tol else f"|{result.value!r} - {reference!r}| = {err:.2e} > {tol:.1e}"

    def _check_moment(self, op, args, result):
        _, n, tol = op
        return self._quad_error(result, self.ref[n - 1], tol)

    def _check_mirror(self, op, args, result):
        # run_verification bounds plain-exact by tol and plain-mirror by tol/10.
        _, n, tol = op
        return self._quad_error(result, self.ref[n - 1], 1.1 * tol)

    def _check_parts(self, op, args, result):
        _, n, tol = op
        return self._quad_error(result, self.ref[n - 1], 10.0 * tol)

    def _check_limit(self, op, args, result):
        # L(n) = n * int s**n h(s) ds = -n**2 e c_{n+1}: the by-parts form of
        # c_{n+1} scaled by -n**2 e, so its tolerance scales the same way.
        _, n, tol = op
        scale = n * n * math.e
        return self._quad_error(result, -scale * self.ref[n], scale * 10.0 * tol)

    def _check_defect(self, op, args, result):
        _, x, tol = op
        return self._quad_error(result, self.carleman.scaled_defect(x), 10.0 * tol)

    def _check_identities(self, op, args, checks):
        names = [c.name for c in checks]
        if names != list(FROZEN_CHECKS[7:11]):
            return f"identity names {names}"
        bad = [c.name for c in checks if c.status != "pass" or not c.values["converged"]]
        return f"identities failing: {bad}" if bad else None

    def abs_error(self, op, result):
        """|quadrature - exact| for the ops that recover a coefficient, else None."""
        if op[0] in ("moment", "mirror", "parts"):
            return abs(result.value - self.ref[op[1] - 1])
        return None

    # -- weights

    def _check_table(self, table, m):
        if table.values != self.ref_exact[:m]:
            return f"recurrence table differs from the series oracle for m={m}"
        return None

    def _check_factor(self, op, args, result):
        m, x = args
        table, factor, gap, bound = result
        reason = self._check_table(table, m)
        if reason:
            return reason
        w = factor.float_value
        if not 0.0 < w < 1.0:
            return f"weight {w!r} outside (0, 1)"
        exact = isinstance(x, (int, Fraction))
        if exact != (factor.exact_value is not None):
            return "exact view present for an inexact x, or missing for an exact one"
        if exact and not (0 < factor.exact_value < 1 and float(factor.exact_value) == w):
            return f"exact view {factor.exact_value} disagrees with float view {w!r}"
        # Independent float Horner pass over the oracle's coefficients.
        u = 1.0 / (float(x) + 1.0)
        acc = 0.0
        for b in reversed(self.ref[:m]):
            acc = (acc + b) * u
        if abs(w - (1.0 - acc)) > (m + 2) * 2.0**-52:
            return f"weight {w!r} vs reference {1.0 - acc!r}"
        if not -GAP_FLOOR <= gap <= bound + GAP_FLOOR:
            return f"gap {gap!r} outside [0, tail bound {bound!r}]"
        return None

    def _check_demo(self, op, args, result):
        m, seq = args
        table, report = result
        reason = self._check_table(table, m)
        if reason:
            return reason
        if (report.length, report.terms) != (len(seq), m):
            return f"report covers {report.length} entries, {report.terms} terms"
        # lhs, and so the ratio, is 0 when the sequence starts with a zero.
        if not (report.holds and 0.0 <= report.ratio < 1.0 and math.isfinite(report.rhs)):
            return f"demo does not hold: lhs {report.lhs!r}, rhs {report.rhs!r}"
        return None

"""One-shot verification sweep over all the quantitative claims.

The sweep runs every check the package knows how to perform: exact table
properties (the two constructions agree, though they share the segmented
table kernels of coefficients.py; positivity and the 1/(n(n+1)) cap;
strict decrease; the climbing-ratio trend), quadrature recovery of the
coefficients from their integral representations, the closed-form density
integrals, agreement of the two faces of the scaled defect function, the
partial-sum sandwich under 1 - 1/e, and the reported endpoint-moment limit.

Check names and the `claim_ref` anchor strings (e.g. "Eq. (3.2)") are
frozen wire format; downstream consumers key on them.  The sweep never
stops early: a full report with a failure inside is more useful than a
fast exception.
"""

from __future__ import annotations

import dataclasses
import math

from .coefficients import (
    CoefficientTable,
    bound_check,
    monotonicity_check,
    oracle_equivalence_check,
    ratio_trend_check,
)
from .integrands import scaled_defect, scaled_defect_by_quadrature
from .moments import (
    coefficient_by_moment,
    coefficient_by_parts,
    density_identity_checks,
    scaled_derivative_moment,
)
from .rational import Rational
from .report import Check, FAIL, PASS, REPORTED, VerificationReport

#: Sample points for the closed-form vs. integral-form defect comparison.
GAP_SAMPLE_XS = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0)

#: Partial-sum lengths for the sandwich under 1 - 1/e.
PARTIAL_SUM_NS = (10, 50, 200)

#: Orders at which the endpoint-moment limit diagnostic is evaluated.
LIMIT_NS = (10, 50, 200)

#: Exact bracket E_LO < e < E_HI: the series of e to k = 40, and its tail bound 1/(40! 40).
E_LO = sum(Rational(1, math.factorial(k)) for k in range(41))
E_HI = E_LO + Rational(1, math.factorial(40) * 40)


def engine_config(tol: float) -> float:
    """Engine tolerance two decades below the check tolerance `tol` > 0.

    Clamped at 1e-15, about the best level-difference the engine can
    reach in double precision on these integrands.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    return max(tol / 100.0, 1e-15)


def corrupted_table(table: CoefficientTable, n: int) -> CoefficientTable:
    """Copy of the table with numerator n overwritten by numerator n-1.

    The duplicate breaks the strict-decrease claim, so a sweep over the
    result must fail; this is the fault-injection hook for exercising
    the failure paths end to end.
    """
    if not 2 <= n <= table.max_n:
        raise ValueError(f"n must lie in 2..{table.max_n}")
    numerators = list(table.numerators)
    numerators[n - 1] = numerators[n - 2]
    return dataclasses.replace(table, numerators=tuple(numerators))


def _sweep_check(name, claim_ref, label, var, items, evaluate, tol) -> Check:
    """Worst difference of `evaluate(item) -> (diff, converged)` over a sweep.

    `var` names the swept variable: "n" sweeps over range(2, quad_max + 1),
    "x" over a list of sample points; the check passes when every
    evaluation converged and the worst difference is within `tol`.
    """
    results = [(item, *evaluate(item)) for item in items]
    worst_at, worst, _ = max(results, key=lambda result: result[1])
    all_converged = all(converged for _, _, converged in results)
    if var == "n":
        span, scope = f"[{items[0]}, {items[-1]}]", {"quad_max": items[-1]}
    else:
        span, scope = str(list(items)), {"sample_xs": list(items)}
    ok = all_converged and worst <= tol
    return Check(
        name=name,
        claim_ref=claim_ref,
        status=PASS if ok else FAIL,
        detail=(
            f"max |{label}| = {worst:.3e} at {var}={worst_at} "
            f"over {var} in {span}, tolerance {tol:.1e}"
        ),
        values={
            **scope,
            "max_abs_diff": worst,
            f"worst_{var}": worst_at,
            "tolerance": tol,
            "all_converged": all_converged,
        },
    )


def partial_sum_check(table: CoefficientTable) -> Check:
    """Sandwich 0 < (1 - 1/e) - sum_{n<=N} c_n < 1/(N+1) at each N.

    N runs over the PARTIAL_SUM_NS within the table (max_n if none is).
    Both sides are decided exactly on S = sum(N_1..N_N)/D: 1 - 1/e rises
    with e, so 1 - 1/E_HI - 1/(N+1) < S < 1 - 1/E_LO proves them for every
    e in the bracket.  The reported gaps round S once to float.
    """
    target = 1.0 - 1.0 / math.e
    usable = [n for n in PARTIAL_SUM_NS if n <= table.max_n] or [table.max_n]
    sums = [table.partial_sum(n) for n in usable]
    gaps = [target - float(s) for s in sums]
    ok = all(1 - 1 / E_HI - Rational(1, n + 1) < s < 1 - 1 / E_LO for n, s in zip(usable, sums))
    return Check(
        name="partial-sum-sandwich",
        claim_ref="Remark",
        status=PASS if ok else FAIL,
        detail=(
            "gap to 1 - 1/e at N in "
            + str(usable)
            + ": "
            + ", ".join(f"{g:.6e} (cap {1.0 / (n + 1):.3e})" for n, g in zip(usable, gaps))
        ),
        values={"ns": usable, "gaps": gaps},
    )


def endpoint_limit_check(engine_tol: float) -> Check:
    """Reported drift of L(n) = n * int s**n * density'(s) ds toward -1.

    L(n) is sampled at n in LIMIT_NS.  No convergence rate is claimed
    anywhere, so this check never fails; it records the sampled values
    and whether |L(n) + 1| shrank across the sample.
    """
    values = [scaled_derivative_moment(n, engine_tol).value for n in LIMIT_NS]
    distances = [abs(v + 1.0) for v in values]
    shrinking = all(b < a for a, b in zip(distances, distances[1:]))
    return Check(
        name="endpoint-moment-limit",
        claim_ref="Eq. (2.3)",
        status=REPORTED,
        detail=(
            "L(n) at n in "
            + str(list(LIMIT_NS))
            + ": "
            + ", ".join(f"{v:.9f}" for v in values)
            + f"; |L+1| strictly shrinking: {shrinking}"
        ),
        values={"ns": list(LIMIT_NS), "L": values, "distance_to_limit": distances},
    )


def run_verification(
    max_n: int = 200,
    quad_max: int = 20,
    tol: float = 1e-10,
    table: CoefficientTable | None = None,
) -> VerificationReport:
    """Run the whole sweep and assemble the report.

    A prebuilt (possibly deliberately corrupted) table may be passed in;
    its length then overrides max_n.  The series-oracle table (it shares
    the segmented table kernels of coefficients.py) is always built fresh.
    """
    if table is not None:
        max_n = table.max_n
    if max_n < 4:
        raise ValueError("max_n must be >= 4")
    if not 2 <= quad_max <= max_n:
        raise ValueError("need 2 <= quad_max <= max_n")
    engine_tol = engine_config(tol)
    if table is None:
        table = CoefficientTable.from_recurrence(max_n)
    oracle = CoefficientTable.from_series_oracle(max_n)
    floats = table.floats()
    ns = range(2, quad_max + 1)
    # the moment and mirror sweeps both compare against the plain moment
    plain = {n: coefficient_by_moment(n, engine_tol) for n in ns}

    def moment(n):
        return abs(plain[n].value - floats[n - 1]), plain[n].converged

    def mirror(n):
        mirrored = coefficient_by_moment(n, engine_tol, mirror=True)
        return abs(plain[n].value - mirrored.value), plain[n].converged and mirrored.converged

    def parts(n):
        result = coefficient_by_parts(n, engine_tol)
        return abs(result.value - floats[n - 1]), result.converged

    def gap(x):
        by_quad = scaled_defect_by_quadrature(x, engine_tol)
        return abs(scaled_defect(x) - by_quad.value), by_quad.converged

    checks = (
        oracle_equivalence_check(table, oracle),
        bound_check(table),
        monotonicity_check(table),
        ratio_trend_check(table),
        _sweep_check("moment-representation", "Eq. (3.1)",
                     "quadrature - exact", "n", ns, moment, tol),
        _sweep_check("moment-mirror-agreement", "Eq. (3.9)",
                     "plain - mirrored", "n", ns, mirror, tol / 10.0),
        _sweep_check("parts-representation", "Eq. (3.10)",
                     "quadrature - exact", "n", ns, parts, 10.0 * tol),
        *density_identity_checks(engine_tol, tol, 10.0 * tol),
        _sweep_check("gap-function-agreement", "Eq. (2.2)",
                     "closed - integral", "x", GAP_SAMPLE_XS, gap, 10.0 * tol),
        partial_sum_check(table),
        endpoint_limit_check(engine_tol),
    )
    return VerificationReport(checks=checks)

"""Command-line surface.

Subcommands:

    coeffs     exact coefficient table with the 1/(n(n+1)) cap column
    verify     full verification sweep, JSON report on stdout
    factor     truncated refinement weight at one point, with overshoot
    demo       strengthened-inequality run over a CSV sequence
    limit      endpoint-moment diagnostic L(n) = n * int s**n density'(s)
    integrals  the four closed-form density integrals

Exit codes: 0 on success, 1 when a verification or demonstration fails,
a `limit` estimate does not converge, or a data file is unreadable, 2 for
usage errors.  JSON output renders
floats as shortest round-trip decimals and exact rationals as "p/q"
strings, since JSON numbers cannot carry the latter.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .coefficients import CoefficientTable, bound_at
from .integrands import E, compound_power
from .moments import density_identity_checks, scaled_derivative_moment
from .rational import as_rational, is_exact, rational_str, to_decimal_str
from .refinement import (
    carleman_demo,
    load_sequence_csv,
    refinement_factor,
    tail_bound,
    truncation_gap,
)
from .report import VerificationReport
from .verify import corrupted_table, engine_config, run_verification

#: Longest coefficient table the CLI builds (--max-n, --terms).  On a
#: 2-vCPU x86-64 host from_recurrence takes about 2 s at N = 1001, 7 s at
#: 1500 and 18 s at 2000 (roughly N**3.3), and `verify` builds two tables,
#: so `verify --max-n 2000` runs for about 40 s.
MAX_TABLE_N = 2000

#: Most significant digits of `coeffs --mode decimal` (--digits); at the cap
#: a value prints shorter than the exact p/q of b_2000 (13 602 characters).
MAX_DIGITS = 10000


def _positive_int(text: str, cap: float = math.inf) -> int:
    """Integer in 1..cap whose float view exists (`limit` scales by float(n))."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    if value > cap:
        raise argparse.ArgumentTypeError(f"must be at most {cap}")
    return _within_float_range(value)


def _table_size(text: str) -> int:
    return _positive_int(text, MAX_TABLE_N)


def _digit_count(text: str) -> int:
    return _positive_int(text, MAX_DIGITS)


def _within_float_range(value):
    """value, unless its float view overflows or underflows to 0."""
    try:
        if 0 < float(value) < math.inf:
            return value
    except OverflowError:
        pass
    raise argparse.ArgumentTypeError("outside the floating-point range")


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


def _point(text: str):
    """Evaluation point: 'p/q' or integer stays exact, decimals go float."""
    try:
        if "/" in text:
            value = as_rational(text)
        else:
            try:
                value = int(text)
            except ValueError:
                # an integer past the int() digit cap reads as inf here
                value = float(text)
                if math.isnan(value):
                    raise ValueError
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    # an exact x is also evaluated in floating point
    return _within_float_range(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carleman",
        description="Expansion coefficients of (1+1/x)**x and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="print the coefficient table")
    p.add_argument("--max-n", type=_table_size, default=10,
                   help=f"table length, at most {MAX_TABLE_N} (default 10)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--mode", choices=("exact", "decimal"), default="exact")
    p.add_argument("--digits", type=_digit_count, default=15,
                   help=f"significant digits in decimal mode, at most {MAX_DIGITS} (default 15)")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("verify", help="run the verification sweep, JSON to stdout")
    p.add_argument("--max-n", type=_table_size, default=200,
                   help=f"table length, at most {MAX_TABLE_N} (default 200)")
    p.add_argument("--quad-max", type=_positive_int, default=20)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--inject-fault", type=_positive_int, default=None, metavar="N",
                   help="overwrite coefficient N with its predecessor first "
                        "(testing hook; the sweep must then fail)")
    # usage errors found after parsing are reported through the top parser
    p.set_defaults(func=lambda args: _cmd_verify(args, parser))

    p = sub.add_parser("factor", help="refinement weight at one point")
    p.add_argument("--x", type=_point, required=True,
                   help="evaluation point; 'p/q' or integer for the exact path")
    p.add_argument("--terms", type=_table_size, default=6,
                   help=f"truncation order m, at most {MAX_TABLE_N} (default 6)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("demo", help="strengthened inequality over a CSV sequence")
    p.add_argument("--seq", required=True, metavar="FILE",
                   help="single-column CSV, one nonnegative decimal per line, no header")
    p.add_argument("--terms", type=_table_size, default=6,
                   help=f"truncation order m, at most {MAX_TABLE_N} (default 6)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("limit", help="endpoint-moment diagnostic L(n)",
                       description="Endpoint-moment diagnostic L(n); exits 1 when "
                                   "the estimate did not converge.")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("integrals", help="closed-form density integrals")
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.set_defaults(func=_cmd_integrals)

    return parser


def _cmd_coeffs(args) -> int:
    table = CoefficientTable.from_recurrence(args.max_n)
    rows = []
    for n, value in table:
        cap = bound_at(n)
        if args.mode == "exact":
            rows.append((n, rational_str(value), rational_str(cap)))
        else:
            rows.append((n, to_decimal_str(value, args.digits), to_decimal_str(cap, args.digits)))
    if args.format == "csv":
        for n, value, cap in rows:
            print(f"{n},{value},{cap}")
    elif args.format == "json":
        print(json.dumps(
            {"coefficients": [{"n": n, "value": v, "bound": b} for n, v, b in rows]},
            indent=2,
        ))
    else:
        width = max(len(v) for _, v, _ in rows)
        print(f"{'n':>6}  {'value':<{width}}  bound")
        for n, value, cap in rows:
            print(f"{n:>6}  {value:<{width}}  {cap}")
    return 0


def _cmd_verify(args, parser) -> int:
    if args.max_n < 4:
        parser.error("--max-n must be at least 4")
    if not 2 <= args.quad_max <= args.max_n:
        parser.error("--quad-max must lie between 2 and --max-n")
    table = None
    if args.inject_fault is not None:
        if not 2 <= args.inject_fault <= args.max_n:
            parser.error("--inject-fault must lie between 2 and --max-n")
        table = corrupted_table(CoefficientTable.from_recurrence(args.max_n), args.inject_fault)
    report = run_verification(args.max_n, args.quad_max, args.tol, table=table)
    print(report.to_json())
    return 0 if report.all_passed else 1


def _cmd_factor(args) -> int:
    table = CoefficientTable.from_recurrence(args.terms)
    factor = refinement_factor(args.x, args.terms, table)
    power = compound_power(args.x)
    gap = truncation_gap(args.x, args.terms, table)
    bound = tail_bound(args.x, args.terms)
    x_out = rational_str(as_rational(args.x)) if is_exact(args.x) else args.x
    exact_out = None if factor.exact_value is None else rational_str(factor.exact_value)
    payload = {
        "x": x_out,
        "terms": args.terms,
        "power": power,
        "weight": factor.float_value,
        "weight_exact": exact_out,
        "scaled_weight": E * factor.float_value,
        "gap": gap,
        "tail_bound": bound,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"x                 = {x_out}")
        print(f"terms             = {args.terms}")
        print(f"(1 + 1/x)**x      = {power!r}")
        exact_note = "" if exact_out is None else f"   (exact {exact_out})"
        print(f"weight W(x)       = {factor.float_value!r}{exact_note}")
        print(f"e * W(x)          = {E * factor.float_value!r}")
        print(f"overshoot         = {gap!r}")
        print(f"tail bound        = {bound!r}")
    return 0


def _cmd_demo(args) -> int:
    try:
        values = load_sequence_csv(args.seq)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table = CoefficientTable.from_recurrence(args.terms)
    report = carleman_demo(values, args.terms, table)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"sequence length   = {report.length}")
        print(f"terms             = {report.terms}")
        print(f"sum of geo means  = {report.lhs!r}")
        print(f"weighted rhs      = {report.rhs!r}")
        print(f"ratio             = {report.ratio!r}")
        print(f"lhs < rhs         = {report.holds}")
        print(f"note: {report.note}")
    return 0 if report.holds else 1


def _cmd_limit(args) -> int:
    result = scaled_derivative_moment(args.n, engine_config(args.tol))
    payload = {
        "n": args.n,
        "L": result.value,
        "distance_to_limit": abs(result.value + 1.0),
        "error_estimate": result.error_estimate,
        "levels_used": result.levels_used,
        "converged": result.converged,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"L({args.n}) = {result.value!r}")
        print(f"limit is -1; distance {abs(result.value + 1.0):.6e}")
        print(f"error estimate {result.error_estimate:.1e}, "
              f"levels {result.levels_used}, converged {result.converged}")
    return 0 if result.converged else 1


def _cmd_integrals(args) -> int:
    checks = density_identity_checks(engine_config(args.tol), args.tol, 10.0 * args.tol)
    report = VerificationReport(checks=tuple(checks))
    print(report.to_json())
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

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
import functools
import json
import math
import sys
from decimal import Decimal

from .coefficients import CoefficientTable, bound_at
from .integrands import E, compound_power
from .moments import density_identity_checks, scaled_derivative_moment
from .rational import (
    EXACT_FORM, _quoted, as_rational, is_exact, rational_str, to_decimal_str,
)
from .refinement import carleman_demo, load_sequence_csv, refinement_factor, tail_bound
from .report import VerificationReport
from .verify import corrupted_table, engine_config, run_verification

#: Longest coefficient table the CLI builds (--max-n, --terms).  On a
#: 2-vCPU x86-64 host from_recurrence takes 0.52 s at N = 1001 and 4.3 s at
#: 2000 (best of 21, BENCH_26.json; roughly N**3.1), and `verify` builds
#: two tables, which take about 8.3 s together at `verify --max-n 2000`.
MAX_TABLE_N = 2000

#: Most significant digits of `coeffs --mode decimal` (--digits); at the cap
#: a value prints shorter than the exact p/q of b_2000 (13 602 characters).
MAX_DIGITS = 10000

#: Largest exact weight `factor` computes, measured as terms * bit_length(p + q)
#: for x = p/q (the weight's bits, less the table denominator's).  At the cap
#: and --terms 2000 the integer Horner pass and the rendering take about 12 s
#: on the host above, about as long as the table build itself.
MAX_WEIGHT_BITS = 600_000

def _positive_int(text: str, cap: float = math.inf) -> int:
    """Integer in 1..cap whose float view exists (`limit` scales by float(n))."""
    match = EXACT_FORM.fullmatch(text)
    if not match or match["q"]:
        raise argparse.ArgumentTypeError(f"not an integer: {_quoted(text)}")
    value = as_rational(text).numerator
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    if value > cap:
        raise argparse.ArgumentTypeError(f"must be at most {cap}")
    return _within_float_range(value)


_table_size = functools.partial(_positive_int, cap=MAX_TABLE_N)
_digit_count = functools.partial(_positive_int, cap=MAX_DIGITS)


def _within_float_range(value):
    """value, unless its float view overflows or underflows to 0."""
    try:
        if 0 < float(value) < math.inf:
            return value
    except OverflowError:
        pass
    raise argparse.ArgumentTypeError("outside the floating-point range")


def _float(text: str) -> float:
    """float(text), refusing a positive decimal that rounds to 0.0 as out of range."""
    value = float(text)
    # the sign is the mantissa's, which Decimal reads whatever the exponent
    if value == 0.0 and Decimal(text.lower().partition("e")[0]) > 0:
        raise argparse.ArgumentTypeError("outside the floating-point range")
    return value


def _positive_float(text: str) -> float:
    try:
        value = _float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {_quoted(text)}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError("must be a positive finite number")
    if value > sys.float_info.max / 10:  # some checks compare at 10 * tol
        raise argparse.ArgumentTypeError("outside the floating-point range")
    return value


def _point(text: str):
    """Evaluation point: 'p/q' or integer stays exact, decimals go float."""
    try:
        value = as_rational(text) if EXACT_FORM.fullmatch(text) else _float(text)
        if value != value:  # NaN
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {_quoted(text)}") from None
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
                   help="evaluation point; 'p/q' or integer for the exact path, "
                        f"with terms * bit_length(p + q) at most {MAX_WEIGHT_BITS}")
    p.add_argument("--terms", type=_table_size, default=6,
                   help=f"truncation order m, at most {MAX_TABLE_N} (default 6)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=lambda args: _cmd_factor(args, parser))

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


def _print_rows(*rows) -> None:
    """One `label = value` line per pair; str() of a float is its shortest repr."""
    for label, value in rows:
        print(f"{label:<18}= {value}")


def _cmd_coeffs(args) -> int:
    table = CoefficientTable.from_recurrence(args.max_n)
    render = rational_str if args.mode == "exact" else lambda v: to_decimal_str(v, args.digits)
    rows = [(n, render(value), render(bound_at(n)))
            for n, value in enumerate(table.values, start=1)]
    if args.format == "csv":
        for n, value, cap in rows:
            print(f"{n},{value},{cap}")
    elif args.format == "json":
        print(json.dumps(
            {"coefficients": [{"n": n, "value": v, "bound": b} for n, v, b in rows]},
            indent=2,
        ))
    else:
        rows.insert(0, ("n", "value", "bound"))
        width = max(len(v) for _, v, _ in rows)
        for n, value, cap in rows:
            print(f"{n:>6}  {value:<{width}}  {cap}")
    return 0


def _cmd_verify(args, parser) -> int:
    if args.max_n < 4:
        parser.error("--max-n must be at least 4")
    if not 2 <= args.quad_max <= args.max_n:
        parser.error("--quad-max must lie between 2 and --max-n")
    if args.inject_fault is not None and not 2 <= args.inject_fault <= args.max_n:
        parser.error("--inject-fault must lie between 2 and --max-n")
    table = CoefficientTable.from_recurrence(args.max_n)
    if args.inject_fault is not None:
        table = corrupted_table(table, args.inject_fault)
    report = run_verification(quad_max=args.quad_max, tol=args.tol, table=table)
    print(report.to_json())
    return 0 if report.all_passed else 1


def _cmd_factor(args, parser) -> int:
    x, terms = args.x, args.terms
    size = terms * (x.numerator + x.denominator).bit_length() if is_exact(x) else 0
    if size > MAX_WEIGHT_BITS:
        parser.error(f"--x: an exact weight needs terms * bit_length(p + q) <= "
                     f"{MAX_WEIGHT_BITS}, not {size}; give x as a decimal, such as {float(x)!r}")
    table = CoefficientTable.from_recurrence(terms)
    factor = refinement_factor(x, terms, table)
    power = compound_power(x)
    scaled_weight = E * factor.float_value
    gap = scaled_weight - power  # truncation_gap, without a second exact pass
    bound = tail_bound(x, terms)
    x_out = rational_str(x) if is_exact(x) else x
    exact_out = None if factor.exact_value is None else rational_str(factor.exact_value)
    payload = {
        "x": x_out,
        "terms": terms,
        "power": power,
        "weight": factor.float_value,
        "weight_exact": exact_out,
        "scaled_weight": scaled_weight,
        "gap": gap,
        "tail_bound": bound,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        exact_note = "" if exact_out is None else f"   (exact {exact_out})"
        _print_rows(("x", x_out), ("terms", terms), ("(1 + 1/x)**x", power),
                    ("weight W(x)", f"{factor.float_value}{exact_note}"),
                    ("e * W(x)", scaled_weight), ("overshoot", gap), ("tail bound", bound))
    return 0


def _cmd_demo(args) -> int:
    try:
        values = load_sequence_csv(args.seq)
        report = carleman_demo(values, args.terms, CoefficientTable.from_recurrence(args.terms))
    except (OSError, ValueError) as exc:
        if getattr(exc, "filename", None) is not None:  # str(exc) would echo all of it
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_quoted(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        # a sum that overflowed is inf, which JSON (RFC 8259) cannot carry
        payload = {k: None if v == math.inf else v for k, v in report.to_dict().items()}
        print(json.dumps(payload, indent=2))
    else:
        _print_rows(("sequence length", report.length), ("terms", report.terms),
                    ("sum of geo means", report.lhs), ("weighted rhs", report.rhs),
                    ("ratio", report.ratio), ("lhs < rhs", report.holds))
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

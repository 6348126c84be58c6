"""Inequality refinement weights and a finite-sequence demonstration.

Truncating the expansion

    (1 + 1/x)**x = e * (1 - sum_{k>=1} c_k / (x+1)**k)

after m terms gives the weight W_m(x) = 1 - sum_{k<=m} c_k/(x+1)**k.
Because every dropped term is positive, e*W_m(x) always overshoots
(1+1/x)**x, and replacing the bare constant e by e*W_m(n) strengthens the
classical bound on sums of running geometric means.  This module computes
the weights (exactly when x is rational), the overshoot and its tail
bound, and runs the strengthened comparison on finite sequences.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .coefficients import CoefficientTable
from .integrands import E, compound_power
from .rational import Rational, _quoted, is_exact


@dataclass(frozen=True)
class RefinementFactor:
    """The truncated weight W_m(x), with an exact view when x is rational.

    The weight lies strictly between 0 and 1: the subtracted sum is
    positive and smaller than the full series, whose value at any x > 0
    stays below 1.  The exact view, when present, is held to that; the
    float view may round up to 1.0 once the sum drops below half an ulp
    of 1 (x above about 1e16).
    """

    float_value: float
    exact_value: Optional[object] = None

    def __post_init__(self):
        if not 0.0 < self.float_value <= 1.0:
            raise ValueError(f"weight {self.float_value!r} outside (0, 1]")
        if self.exact_value is not None and not 0 < self.exact_value < 1:
            raise ValueError(f"exact weight {self.exact_value} outside (0, 1)")


def refinement_factor(x, terms: int, table: CoefficientTable) -> RefinementFactor:
    """W_m(x) = 1 - sum_{k=1}^{terms} c_k/(x+1)**k.

    When x arrives as an int or exact rational the weight is computed in
    exact arithmetic and both views are filled; a float x gets only the
    float view (via a Horner pass over 1/(x+1)).

    The exact pass runs on the table's integers: with x = p/q, s = p + q
    and c_k = N_k/D, the sum is A/(D*s**m) for A = sum_k N_k q**k s**(m-k),
    built by _weight's Horner step A = A*s + N_k*q**k, so the only
    rational is the result itself.
    """
    nums = _leading_numerators(terms, table)
    if not x > 0:
        raise ValueError("x must be positive")
    den = table.denominator
    if is_exact(x):
        q = x.denominator
        exact = Rational(*_weight(nums, den, x.numerator + q, q))
        return RefinementFactor(float_value=float(exact), exact_value=exact)
    u = 1.0 / (float(x) + 1.0)
    acc = 0.0
    for n_k in reversed(nums):
        acc = (acc + n_k / den) * u
    return RefinementFactor(float_value=1.0 - acc)


def _leading_numerators(terms: int, table: CoefficientTable) -> tuple:
    """N_1..N_terms of the table, once terms is checked against its range."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if terms > table.max_n:
        raise IndexError(f"terms={terms} exceeds table range 1..{table.max_n}")
    return table.numerators[:terms]


def _weight(nums: tuple, den: int, s: int, q: int) -> tuple:
    """(D*s**m - A, D*s**m) for nums = N_1..N_m: W_m(p/q), with s and A of refinement_factor."""
    acc, q_k = 0, 1
    for n_k in nums:
        q_k *= q
        acc = acc * s + n_k * q_k
    whole = den * s ** len(nums)
    return whole - acc, whole


def truncation_gap(x, terms: int, table: CoefficientTable) -> float:
    """Overshoot e*W_m(x) - (1+1/x)**x, as a float.

    The true overshoot is positive for every x > 0 and m >= 1, since every
    dropped term is.  The returned float is a difference of two doubles
    near e (the power comes from compound_power), so below about 1e-15 it
    can come out 0.0 or of either sign: at m = 6 it is -4.4e-16 at
    x = 999 and 0.0 at x = 1000, and it is 0.0 for every m once the
    float weight rounds to 1.0 (x above about 1e16).  Callers should
    compare against tail_bound rather than expect sign resolution there.
    """
    factor = refinement_factor(x, terms, table)
    return E * factor.float_value - compound_power(x)


def tail_bound(x, terms: int) -> float:
    """Upper bound e * sum_{k>m} 1/(k(k+1)(x+1)**k) on the overshoot.

    Summed directly (the ratio 1/(x+1) is below 1); the loop stops once
    the analytic remainder u**k/k is below 1e-18 of the sum or below
    1e-300, or after 100000 terms, and that remainder is folded in on
    every exit, so the returned value never undershoots the true sum.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if not x > 0:
        raise ValueError("x must be positive")
    u = 1.0 / (float(x) + 1.0)
    k = terms + 1
    power = u**k
    total = 0.0
    while True:
        total += power / (k * (k + 1))
        power *= u
        k += 1
        remainder = power / k
        if remainder <= 1e-18 * total or remainder < 1e-300 or k > terms + 100000:
            return E * (total + remainder)


@dataclass(frozen=True)
class DemoReport:
    """Outcome of one finite strengthened-inequality run."""

    length: int
    terms: int
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    note: str = "finite truncation of both sums; a demonstration, not a proof"

    def to_dict(self) -> dict:
        return asdict(self)


def carleman_demo(seq: Sequence[float], terms: int, table: CoefficientTable) -> DemoReport:
    """Compare sum of geometric means against the weighted right side.

    LHS is sum_{n<=N} (a_1...a_n)**(1/n), computed in log space; once a
    zero entry appears every later geometric mean contains that factor
    and is zero outright, so the log path is skipped from there on.  RHS
    is e * sum_{n<=N} W_m(n)*a_n.  Both sums stop at N = len(seq).

    Each weight W_m(n) is refinement_factor(n, terms, table).float_value,
    bit for bit, but is computed straight from the table's integers
    without building a Fraction per entry (see _demo_sums).  terms is
    checked once, with the ValueError or IndexError of refinement_factor.

    Both sides are homogeneous of degree 1 in the entries, so when a sum
    overflows or an entry is subnormal, both are taken over the entries
    divided by the largest one and scaled back; ratio and verdict come
    from the scaled sums.
    """
    if not seq:
        raise ValueError("sequence is empty")
    values = [float(a) for a in seq]
    if not all(0.0 <= a < math.inf for a in values):
        raise ValueError("sequence entries must be finite and nonnegative")
    if all(a == 0 for a in values):
        raise ValueError("sequence must not be all zero")
    nums = _leading_numerators(terms, table)
    top = 1.0
    lhs, rhs = _demo_sums(values, nums, table.denominator, top)
    if not math.isfinite(lhs + rhs) or any(0.0 < a < sys.float_info.min for a in values):
        top = max(values)
        lhs, rhs = _demo_sums(values, nums, table.denominator, top)
    return DemoReport(len(values), terms, top * lhs, top * rhs, lhs / rhs, lhs < rhs)


def _demo_sums(values: list, nums: tuple, den: int, scale: float) -> tuple:
    """(lhs, rhs) of carleman_demo for the entries divided by `scale`.

    nums = N_1..N_m and den = D are the table's integers, c_k = N_k/D.  At
    x = n the weight is part/whole for (part, whole) = _weight(nums, den,
    n + 1, 1), the integers refinement_factor reduces to its Fraction.
    int / int rounds correctly, as float(Fraction) does, so each weight
    equals refinement_factor(n, m, table).float_value exactly.

    Both sums add left to right: sum() compensates from Python 3.12 on.
    """
    weighted = 0.0
    for n, a in enumerate(values, start=1):
        part, whole = _weight(nums, den, n + 1, 1)
        if not 0 < part < whole:
            raise ValueError(f"exact weight {Rational(part, whole)} outside (0, 1)")
        weighted += part / whole * (a / scale)
    log_scale = math.log(scale)
    lhs = 0.0
    log_sum = 0.0
    # every geometric mean from the first zero entry on is zero
    for n, a in enumerate(itertools.takewhile(lambda a: a > 0.0, values), start=1):
        log_sum += math.log(a)
        lhs += math.exp(log_sum / n - log_scale)
    return lhs, E * weighted


def load_sequence_csv(path) -> list[float]:
    """Read a demo sequence: one nonnegative decimal per line, no header.

    The file is UTF-8, after an optional byte-order mark; LF, CRLF and CR
    each end a line.  Blank lines are skipped, and a line that is a single
    double-quoted field is read without its quotes.  Bytes that are not
    UTF-8, a comma, unparsable numbers, negative or non-finite entries, and
    files with no data at all are rejected with the offending line number
    in the message.
    """
    with open(path, "rb") as handle:
        data = handle.read().removeprefix("\ufeff".encode())
    values = []
    # a line keeps its ending, so a bad byte before it is not read as the end of the data
    for lineno, line in enumerate(data.splitlines(keepends=True), start=1):
        try:
            text = line.decode().strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"line {lineno}: {exc.encoding!r} codec can't decode "
                             f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}") from None
        if text[:1] == text[-1:] == '"':
            text = text[1:-1].strip()
        if "," in text:
            raise ValueError(f"line {lineno}: expected a single column, got {text.count(',') + 1}")
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"line {lineno}: not a number: {_quoted(text)}") from None
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"line {lineno}: entries must be finite and nonnegative")
        values.append(value)
    if not values:
        raise ValueError(f"no data in {_quoted(str(path))}")
    return values

"""Exact expansion coefficients of (1+1/x)**x about 1/(x+1).

The sequence is defined by

    (1 + 1/x)**x = e * (1 - sum_{n>=1} c_n / (x+1)**n),   x > 0,

equivalently by the recurrence

    c_1 = 1/2,
    c_n = (1/n) * (1/(n+1) - sum_{k=0}^{n-2} c_{n-k-1} / (k+2)),

and independently as the Taylor coefficients of 1 - exp(-sum_k t**k/(k(k+1)))
(substitute t = 1/(x+1) and expand (1 - 1/t)*log(1-t)).  Both routes are
implemented here in exact rational arithmetic and must agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .rational import Rational
from .report import Check, FAIL, PASS

RECURRENCE = "recurrence"
SERIES_ORACLE = "series-oracle"

CLAIM_ORACLE = "Eq. (3.5)"
CLAIM_BOUND = "Eq. (3.2)"
CLAIM_DECREASE = "Eq. (3.3)"
CLAIM_RATIO_LIMIT = "Eq. (3.4)"


def bound_at(n: int) -> "Rational":
    """Upper bound 1/(n(n+1)); attained only at n = 1."""
    return Rational(1, n * (n + 1))


@dataclass(frozen=True)
class CoefficientTable:
    """Immutable table of exact coefficients c_1 .. c_max_n.

    Entry n is numerators[n-1] / denominator: Python integers over one
    shared denominator, the least one, so gcd(denominator, *numerators)
    is 1.  The exact checks compare these integers directly; `values`,
    `value(n)` and iteration build reduced Fractions when called, so the
    table holds nothing beyond these three fields.  `source` records
    which construction produced the table; a finished table is safe to
    share across threads.
    """

    numerators: tuple
    denominator: int
    source: str

    @property
    def max_n(self) -> int:
        return len(self.numerators)

    @property
    def values(self) -> tuple:
        """The entries c_1..c_max_n as reduced Fractions."""
        return tuple(Rational(v, self.denominator) for v in self.numerators)

    def value(self, n: int) -> "Rational":
        if not 1 <= n <= self.max_n:
            raise IndexError(f"n={n} outside table range 1..{self.max_n}")
        return Rational(self.numerators[n - 1], self.denominator)

    def __iter__(self) -> Iterator[tuple]:
        return enumerate(self.values, start=1)

    def partial_sum(self, upto: int) -> "Rational":
        """Exact sum of the first `upto` coefficients."""
        if not 1 <= upto <= self.max_n:
            raise IndexError(f"N={upto} outside table range 1..{self.max_n}")
        return Rational(sum(self.numerators[:upto]), self.denominator)

    def floats(self) -> list[float]:
        # int / int is correctly rounded, so this equals float(value(n))
        return [v / self.denominator for v in self.numerators]

    @classmethod
    def from_recurrence(cls, max_n: int) -> "CoefficientTable":
        """Build c_1..c_max_n by the defining recurrence, exactly.

        With c_j = N_j/D and sum_{j<n} N_j/(n-j+1) = A/Q (Q = n!), step n
        has c_n = X / (q*D) for the integers X = D*Q - (n+1)*A and
        q = n*(n+1)*Q; _append_reduced adds it to the table.
        """
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        nums, den = [1], 2
        for n in range(2, max_n + 1):
            # sum_{k=0}^{n-2} c_{n-k-1}/(k+2): N_{n-1}, N_{n-2}, ... over 2, 3, ...
            a, q = _sum_over_2_up(nums[::-1])
            x = den * q - (n + 1) * a
            nums, den = _append_reduced(nums, den, x, q * n * (n + 1))
        return cls(numerators=tuple(nums), denominator=den, source=RECURRENCE)

    @classmethod
    def from_series_oracle(cls, max_n: int) -> "CoefficientTable":
        """Build the same coefficients via the truncated-series exponential.

        With E(t) = exp(-sum_{k>=1} t**k/(k(k+1))) the coefficients are
        c_n = -[t**n] E(t).  E is computed by the standard convolution
        recurrence for exp of a series with zero constant term:
        n*E_n = sum_{k=1}^n (k*a_k)*E_{n-k}, here k*a_k = -1/(k+1).
        The E_j are kept as integers F_j over the least shared D (F_0 = D):
        with sum_k F_{n-k}/(k+1) = A/Q, E_n = -A / (n*Q*D), added by
        _append_reduced.
        """
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        exp_nums, den = [1], 1
        for n in range(1, max_n + 1):
            # F_{n-1}, F_{n-2}, ..., F_0 meet 1/2, 1/3, ..., 1/(n+1)
            a, q = _sum_over_2_up(exp_nums[::-1])
            exp_nums, den = _append_reduced(exp_nums, den, -a, n * q)
        return cls(
            numerators=tuple(-f for f in exp_nums[1:]), denominator=den, source=SERIES_ORACLE
        )


def _append_reduced(nums: list, den: int, x: int, q: int) -> tuple:
    """(nums', den') after appending the entry x / (q*den) to nums over den.

    With h = gcd(x, q) and m = q/h the entry is (x/h) / (m*den): the
    earlier numerators are rescaled by m and x/h is appended.  As
    gcd(x/h, m) = 1, a prime dividing den*m and every new numerator
    divides den and every old one, so a least den stays least.
    """
    h = math.gcd(x, q)
    m = q // h
    if m > 1:
        nums = [v * m for v in nums]
        den *= m
    nums.append(x // h)
    return nums, den


def _sum_over_2_up(terms: list) -> tuple:
    """(A, Q) with A/Q = sum_i terms[i]/(i+2) and Q = (len(terms)+1)!.

    Neighbours are merged pairwise, a/p + b/q = (a*q + b*p)/(p*q), so a
    big numerator mostly meets a small denominator and no gcd is taken;
    this costs far less than bringing every term to lcm(2, 3, ...).
    """
    parts = [(t, i + 2) for i, t in enumerate(terms)]
    while len(parts) > 1:
        merged = [(a * q + b * p, p * q) for (a, p), (b, q) in zip(parts[::2], parts[1::2])]
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def bound_check(table: CoefficientTable) -> Check:
    """Exact check of 0 < c_n <= 1/(n(n+1)) over the whole table.

    Reports every index where the bound is attained with equality (the
    expected answer is n = 1 only).
    """
    if table.max_n < 1:
        raise ValueError("table is empty")
    violations = []
    equalities = []
    for n, v in enumerate(table.numerators, start=1):
        # c_n <= 1/(n(n+1)) over the shared denominator D: N_n*n(n+1) <= D
        scaled = v * n * (n + 1)
        if not (0 < v and scaled <= table.denominator):
            violations.append(n)
        elif scaled == table.denominator:
            equalities.append(n)
    ok = not violations and equalities == [1]
    detail = (
        f"0 < c_n <= 1/(n(n+1)) for n <= {table.max_n}; equality at {equalities}"
        if ok
        else f"violations at n={violations}, equality at n={equalities}"
    )
    return Check(
        name="coefficient-bound",
        claim_ref=CLAIM_BOUND,
        status=PASS if ok else FAIL,
        detail=detail,
        values={"max_n": table.max_n, "equality_at": equalities, "violations": violations},
    )


def monotonicity_check(table: CoefficientTable) -> Check:
    """Exact strict-decrease check over all adjacent pairs."""
    if table.max_n < 2:
        raise ValueError("need at least two coefficients")
    nums = table.numerators
    bad = [n for n, (a, b) in enumerate(zip(nums, nums[1:]), start=1) if not b < a]
    ok = not bad
    return Check(
        name="coefficient-decrease",
        claim_ref=CLAIM_DECREASE,
        status=PASS if ok else FAIL,
        detail=(
            f"c_{{n+1}} < c_n for all n < {table.max_n}"
            if ok
            else f"non-decreasing pairs start at n={bad[:10]}"
        ),
        values={"max_n": table.max_n, "failures": bad[:50]},
    )


def oracle_equivalence_check(table: CoefficientTable, oracle: CoefficientTable) -> Check:
    """Element-wise exact equality of the two construction routes.

    N/D == M/D' is tested as N*(D'/g) == M*(D/g) with g = gcd(D, D'); both
    factors are 1 when the denominators agree.
    """
    upto = min(table.max_n, oracle.max_n)
    g = math.gcd(table.denominator, oracle.denominator)
    scale_t, scale_o = oracle.denominator // g, table.denominator // g
    pairs = zip(table.numerators[:upto], oracle.numerators[:upto])
    mismatches = [n for n, (a, b) in enumerate(pairs, start=1) if a * scale_t != b * scale_o]
    ok = not mismatches
    return Check(
        name="oracle-equivalence",
        claim_ref=CLAIM_ORACLE,
        status=PASS if ok else FAIL,
        detail=(
            f"recurrence and series oracle identical for n <= {upto}"
            if ok
            else f"first mismatches at n={mismatches[:10]}"
        ),
        values={"compared_n": upto, "mismatches": mismatches[:50]},
    )


def adjacent_ratios(table: CoefficientTable, ns: Sequence[int]) -> list[float]:
    """Float ratios c_{n+1}/c_n for the requested indices.

    All ratios are below 1 (strict decrease) and the sequence climbs
    toward 1; each requested n needs n and n+1 in the table.
    """
    out = []
    for n in ns:
        if not 1 <= n < table.max_n:
            raise IndexError(f"ratio at n={n} needs entries n and n+1 in 1..{table.max_n}")
        out.append(table.numerators[n] / table.numerators[n - 1])
    return out


def ratio_trend_check(table: CoefficientTable) -> Check:
    """Exact check that ratios stay below 1 and increase from n = 2 on.

    Increase of c_{n+1}/c_n is tested as log-convexity,
    N_n * N_{n+2} > N_{n+1}**2 on the shared-denominator numerators.
    """
    start = 2
    if table.max_n < start + 2:
        raise ValueError("table too short for a ratio trend")
    nums = (None, *table.numerators)  # nums[n] is N_n
    below_one = all(nums[n + 1] < nums[n] for n in range(start, table.max_n))
    not_increasing = [
        n for n in range(start, table.max_n - 1) if not nums[n] * nums[n + 2] > nums[n + 1] ** 2
    ]
    ok = below_one and not not_increasing
    last_ratio = nums[-1] / nums[-2]
    return Check(
        name="ratio-trend",
        claim_ref=CLAIM_RATIO_LIMIT,
        status=PASS if ok else FAIL,
        detail=(
            f"ratios < 1 and strictly increasing for n in [{start}, {table.max_n - 1}]; "
            f"last ratio {last_ratio:.12f}"
            if ok
            else f"below_one={below_one}, non-increasing at n={not_increasing[:10]}"
        ),
        values={"start": start, "upto": table.max_n - 1, "last_ratio": last_ratio},
    )


def table_invariants_ok(table: CoefficientTable) -> bool:
    """Cheap structural sanity: the least shared denominator and the exact c_1 anchor."""
    return (
        2 * table.numerators[0] == table.denominator
        and math.gcd(table.denominator, *table.numerators) == 1
    )

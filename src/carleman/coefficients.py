"""Exact expansion coefficients of (1+1/x)**x about 1/(x+1).

The sequence is defined by

    (1 + 1/x)**x = e * (1 - sum_{n>=1} c_n / (x+1)**n),   x > 0,

equivalently by the recurrence

    c_1 = 1/2,
    c_n = (1/n) * (1/(n+1) - sum_{k=0}^{n-2} c_{n-k-1} / (k+2)),

and as the Taylor coefficients of 1 - exp(-sum_k t**k/(k(k+1)))
(substitute t = 1/(x+1) and expand (1 - 1/t)*log(1-t)).  Both exact routes
build on one segmented table, whose finished segments are never rescaled
(_append_reduced, _add_closed, _lifted), and share the step sum over lcm
blocks (_blocks, _blocks_from, _sum_over_2_up); they must agree bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
from operator import itemgetter, mul, neg
from dataclasses import dataclass

from .rational import Rational
from .report import Check, FAIL, PASS


def bound_at(n: int) -> "Rational":
    """Upper bound 1/(n(n+1)); attained only at n = 1."""
    return Rational(1, n * (n + 1))


@dataclass(frozen=True)
class CoefficientTable:
    """Immutable table of exact coefficients c_1 .. c_max_n.

    Entry n is numerators[n-1] / denominator: Python integers over one
    shared denominator, the least one, so gcd(denominator, *numerators)
    is 1.  The exact checks compare these integers directly; `values`,
    `value(n)` and `partial_sum` build reduced Fractions when called, so
    the table holds nothing beyond these two fields, and a finished table
    is safe to share across threads.
    """

    numerators: tuple
    denominator: int

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

        With c_j = N_j/D and sum_{j<n} N_j/(n-j+1) = A/Q (Q a product of
        the lcms of _blocks, not n!), step n has c_n = X / (q*D) for the
        integers X = D*Q - (n+1)*A and q = n*(n+1)*Q; _append_reduced adds
        its reduced form to the table, which no choice of Q changes.  The
        table is held in segments: _sum_over_2_up sums the open one and
        _add_closed the closed ones, and _lifted brings all to D at the end.
        """
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        blocks = _blocks(max_n + 1)
        closed, nums, den = [], [1], 2
        for n in range(2, max_n + 1):
            # sum_{k=0}^{n-2} c_{n-k-1}/(k+2): N_{n-1}, N_{n-2}, ... over 2, 3, ...
            a, q = _sum_over_2_up(nums, blocks)
            if closed:
                a, q = _add_closed(closed, blocks, len(nums), a, q)
            x = den * q - (n + 1) * a
            nums, den = _append_reduced(closed, nums, den, x, q * (n * (n + 1)))
        return cls(numerators=_lifted(closed, nums), denominator=den)

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

        This is not independent of from_recurrence: its step is the
        recurrence's step with the 1/(n+1) term carried inside the sum as
        F_0 = D, and both builders share _blocks, _blocks_from,
        _sum_over_2_up, _add_closed, _append_reduced and _lifted.
        oracle_equivalence_check therefore tests the two step formulas; only
        the Fraction reference in tests/test_coefficients.py tests the
        shared kernels.
        """
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        blocks = _blocks(max_n + 1)
        closed, exp_nums, den = [], [1], 1
        for n in range(1, max_n + 1):
            # F_{n-1}, F_{n-2}, ..., F_0 meet 1/2, 1/3, ..., 1/(n+1)
            a, q = _sum_over_2_up(exp_nums, blocks)
            if closed:
                a, q = _add_closed(closed, blocks, len(exp_nums), a, q)
            exp_nums, den = _append_reduced(closed, exp_nums, den, -a, n * q)
        return cls(numerators=tuple(map(neg, _lifted(closed, exp_nums)[1:])),
                   denominator=den)


# A table under construction is a list `closed` of finished segments, oldest
# first, and the open segment `nums` of its newest entries.  The open
# numerators are over the least shared denominator D and are rescaled at
# every step.  When the open segment holds _SEGMENT entries it closes: it is
# kept as [numerators, lift], its numerators over D_c, the D at its closing,
# and never rescaled again; lift is D_{c+1}/D_c, how far D grew until the
# next segment closed (for the newest closed segment, until now).  A closed
# numerator times its segment's lift and every later one is the numerator
# over D.  A step's m multiplies the open numerators and the newest lift, so
# it multiplies every numerator over D, as a table rescaled at every step
# would: the integers over D are that table's, and D stays least for the
# reason _append_reduced gives.
_SEGMENT = 96  # 64 to 128 build about as fast


def _append_reduced(closed: list, nums: list, den: int, x: int, q: int) -> tuple:
    """(nums', den') after appending the entry x / (q*den) to the table.

    With h = gcd(x, q) and m = q/h the entry is (x/h) / (m*den): the open
    numerators and the newest lift are multiplied by m and x/h is appended,
    after the open segment closes if it is full.  As gcd(x/h, m) = 1, a
    prime dividing den*m and every new numerator divides den and every old
    one, so a least den stays least.
    """
    h = math.gcd(x, q)
    m = q // h
    nums = [v * m for v in nums]
    if closed:
        closed[-1][1] *= m
    if len(nums) == _SEGMENT:
        closed.append([nums, 1])
        nums = []
    nums.append(x // h)
    return nums, den * m


def _add_closed(closed: list, blocks: list, start: int, a_open: int, q_open: int) -> tuple:
    """(A, Q) with A/Q the step sum over the whole table, from the open segment's a_open/q_open.

    start is the open segment's length.  Each closed segment gets one
    _sum_over_2_up from its newest entry's divisor on, and one Horner pass
    lifts the partial sums from each D_c to the next and then adds the
    open segment's sum: Q is the product of the segments' Q.
    """
    a, q, start = 0, 1, start + _SEGMENT * len(closed)
    for nums, lift in closed:
        start -= _SEGMENT
        b, p = _sum_over_2_up(nums, _blocks_from(blocks, start))
        a, q = (a * p + b * q) * lift, q * p
    return a * q_open + a_open * q, q * q_open


def _lifted(closed: list, nums: list) -> tuple:
    """Every numerator over the final D, oldest first: one pass lifts each closed segment."""
    lift = 1
    for segment, step in reversed(closed):
        lift *= step
        nums = [v * lift for v in segment] + nums
    return tuple(nums)


def _blocks(top: int) -> list:
    """The divisors 2..top cut into runs of consecutive k, in order.

    Each run is stored as (k0, L, [L // k for k in run]) with k0 its first
    divisor and L its lcm, and a run ends where taking the next k would
    bring L to 2**60, so every L // k fits in two 30-bit digits of a
    CPython int.  The first run is 2..42; near k = 250 a run holds about 8
    divisors, near 2000 about 5.
    """
    blocks, lcm, first = [], 1, 2
    for k in range(2, top + 1):
        wider = math.lcm(lcm, k)
        if wider >= 2**60:
            blocks.append((first, lcm, [lcm // j for j in range(first, k)]))
            wider, first = k, k
        lcm = wider
    blocks.append((first, lcm, [lcm // j for j in range(first, top + 1)]))
    return blocks


def _blocks_from(blocks: list, start: int):
    """The runs of _blocks from divisor start + 2 on: the run holding it, cut there, then the rest."""
    index = bisect.bisect_right(blocks, start + 2, key=itemgetter(0)) - 1
    first, lcm, weights = blocks[index]
    cut = (start + 2, lcm, weights[start + 2 - first:])
    return itertools.chain((cut,), itertools.islice(blocks, index + 1, None))


def _sum_over_2_up(terms: list, blocks) -> tuple:
    """(A, Q) with A/Q = sum_i terms[-1-i]/(i+k0), the runs of blocks starting at divisor k0.

    blocks is _blocks(len(terms) + 1) or longer, with k0 = 2, or
    _blocks_from(blocks, start), with k0 = start + 2.  Each run's share of
    the reversed terms is one sum of big-by-small products over its lcm L,
    run in C; Q is the product of the lcms of the runs that the terms
    reach, a cut run's whole L among them.  Those few run sums are merged
    pairwise, a/p + b/q = (a*q + b*p)/(p*q), so a big numerator mostly meets
    a small denominator and no gcd is taken, in ceil(log2) halving rounds.
    """
    parts, rest, left = [], reversed(terms), len(terms)
    for _, lcm, weights in blocks:
        # weights first: map stops on it without taking a term from rest
        parts.append((sum(map(mul, weights, rest)), lcm))
        left -= len(weights)
        if left <= 0:
            break
    if len(parts) == 1:  # every step of a table within the first run, 2..42
        return parts[0]
    for _ in range((len(parts) - 1).bit_length()):
        pairs = iter(parts)
        merged = [(a * q + b * p, p * q) for (a, p), (b, q) in zip(pairs, pairs)]
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
        claim_ref="Eq. (3.2)",
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
        claim_ref="Eq. (3.3)",
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
        claim_ref="Eq. (3.5)",
        status=PASS if ok else FAIL,
        detail=(
            f"recurrence and series oracle identical for n <= {upto}"
            if ok
            else f"first mismatches at n={mismatches[:10]}"
        ),
        values={"compared_n": upto, "mismatches": mismatches[:50]},
    )


def ratio_trend_check(table: CoefficientTable) -> Check:
    """Exact check that ratios stay below 1 and increase from n = 2 on.

    Increase of c_{n+1}/c_n is tested as log-convexity,
    N_n * N_{n+2} > N_{n+1}**2 on the shared-denominator numerators
    (_log_convex).
    """
    start = 2
    if table.max_n < start + 2:
        raise ValueError("table too short for a ratio trend")
    nums = (None, *table.numerators)  # nums[n] is N_n
    below_one = all(nums[n + 1] < nums[n] for n in range(start, table.max_n))
    not_increasing = [
        n for n in range(start, table.max_n - 1) if not _log_convex(*nums[n:n + 3])
    ]
    ok = below_one and not not_increasing
    last_ratio = nums[-1] / nums[-2]
    return Check(
        name="ratio-trend",
        claim_ref="Eq. (3.4)",
        status=PASS if ok else FAIL,
        detail=(
            f"ratios < 1 and strictly increasing for n in [{start}, {table.max_n - 1}]; "
            f"last ratio {last_ratio:.12f}"
            if ok
            else f"below_one={below_one}, non-increasing at n={not_increasing[:10]}"
        ),
        values={"start": start, "upto": table.max_n - 1, "last_ratio": last_ratio},
    )


def _log_convex(a: int, b: int, c: int) -> bool:
    """a*c > b**2, decided from leading parts where they settle it.

    For a, b, c >= 0 and x^ = x >> s, x^ * 2**s <= x < (x^ + 1) * 2**s, so
    a^*c^ >= (b^ + 1)**2 proves a*c > b**2 and (a^ + 1)*(c^ + 1) <= b^**2
    refutes it.  With s leaving b^ 64 bits, the bounds overlap only when
    a*c and b**2 agree to about 64 bits; then, and for a negative value,
    the full products decide.
    """
    if min(a, b, c) >= 0:
        s = max(b.bit_length() - 64, 0)
        a_, b_, c_ = a >> s, b >> s, c >> s
        if a_ * c_ >= (b_ + 1) ** 2:
            return True
        if (a_ + 1) * (c_ + 1) <= b_ * b_:
            return False
    return a * c > b * b

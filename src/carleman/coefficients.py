"""Exact expansion coefficients of (1+1/x)**x about 1/(x+1).

The sequence is defined by

    (1 + 1/x)**x = e * (1 - sum_{n>=1} c_n / (x+1)**n),   x > 0,

equivalently by the recurrence

    c_1 = 1/2,
    c_n = (1/n) * (1/(n+1) - sum_{k=0}^{n-2} c_{n-k-1} / (k+2)),

and as the Taylor coefficients of 1 - exp(-sum_k t**k/(k(k+1)))
(substitute t = 1/(x+1) and expand (1 - 1/t)*log(1-t)).  Both exact routes
run in one loop, _build, on a segmented table whose finished segments are
never rescaled, and share the step sum over L = lcm(2..max_n+1), taken in
runs of divisors (_blocks, _blocks_from, _sum_over_2_up); they must agree
bit for bit.
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

        With c_j = N_j/D and sum_{j<n} N_j/(n-j+1) = A/Q (Q = L of _blocks,
        the same at every step, not n!), step n has c_n = X / (q*D) for the
        integers X = D*Q - (n+1)*A and q = n*(n+1)*Q; _build keeps its
        reduced form, which no choice of Q changes.
        """
        nums, den = _build(max_n, 2, [1], 2,
                           lambda n, d, a, q: (d * q - (n + 1) * a, n * (n + 1) * q))
        return cls(numerators=nums, denominator=den)

    @classmethod
    def from_series_oracle(cls, max_n: int) -> "CoefficientTable":
        """Build the same coefficients via the truncated-series exponential.

        With E(t) = exp(-sum_{k>=1} t**k/(k(k+1))) the coefficients are
        c_n = -[t**n] E(t).  E is computed by the standard convolution
        recurrence for exp of a series with zero constant term:
        n*E_n = sum_{k=1}^n (k*a_k)*E_{n-k}, here k*a_k = -1/(k+1).
        The E_j are kept as integers F_j over the least shared D (F_0 = D):
        with sum_k F_{n-k}/(k+1) = A/Q, E_n = -A / (n*Q*D).

        This is not independent of from_recurrence: its step is the
        recurrence's step with the 1/(n+1) term carried inside the sum as
        F_0 = D, and both builders run in _build, on the kernels _blocks,
        _blocks_from and _sum_over_2_up.  oracle_equivalence_check therefore
        tests the two step formulas; only the Fraction reference in
        tests/test_coefficients.py tests the shared loop and kernels.
        """
        exp_nums, den = _build(max_n, 1, [1], 1, lambda n, d, a, q: (-a, n * q))
        return cls(numerators=tuple(map(neg, exp_nums[1:])), denominator=den)


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
# reason _build gives.
_SEGMENT = 96  # 64 to 128 build about as fast


def _build(max_n: int, first: int, nums: list, den: int, step) -> tuple:
    """(numerators, D) of the table nums/den grown by steps first..max_n, oldest first.

    Step n sums the table, newest entry over 2, the next over 3, and so on,
    as A/L with the same L = lcm(2..max_n+1) at every step: _sum_over_2_up
    takes the open segment, and each closed segment from its newest entry's
    divisor on, and one Horner pass, b = (b + S_c) * lift_c, brings the
    closed segments' sums S_c to D.  step(n, D, A, L) gives the integers
    (x, q) of the new entry x / (q*D).  With h = gcd(x, q) and m = q/h it
    is (x/h) / (m*D): the open numerators and the newest lift are
    multiplied by m and x/h is appended, after the open segment closes if
    it is full.  As gcd(x/h, m) = 1, a prime dividing D*m and every new
    numerator divides D and every old one, so a least D stays least.  At
    the end one pass lifts each closed segment to the final D.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    total, runs = _blocks(max_n + 1)
    closed = []
    for n in range(first, max_n + 1):
        a = _sum_over_2_up(nums, runs)
        if closed:  # for speed only: with none closed the pass adds nothing to a
            b, start = 0, len(nums) + _SEGMENT * len(closed)
            for segment, lift in closed:
                start -= _SEGMENT
                b = (b + _sum_over_2_up(segment, _blocks_from(runs, start))) * lift
            a += b
        x, q = step(n, den, a, total)
        h = math.gcd(x, q)
        m = q // h
        nums = [v * m for v in nums]
        if closed:
            closed[-1][1] *= m
        if len(nums) == _SEGMENT:
            closed.append([nums, 1])
            nums = []
        nums.append(x // h)
        den *= m
    lift = 1
    for segment, m in reversed(closed):
        lift *= m
        nums = [v * lift for v in segment] + nums
    return tuple(nums), den


def _blocks(top: int) -> tuple:
    """(L, runs): L = lcm(2..top) and the divisors 2..top cut into runs of consecutive k.

    A run is (k0, L // l, [l // k for k in run]), k0 its first divisor and
    l its lcm, and ends where the next k would bring l to 2**c, with
    c = max(60, isqrt(13*top)), about 3*sqrt(bit length of L): the dot
    products of _sum_over_2_up grow with c, and their cofactor products
    with the number of runs.  The first run is 2..42 up to top = 286; at
    top = 2001 (c = 161) it is 2..108, and a run near k = 2000 holds about
    17 divisors.
    """
    cap = 1 << max(60, math.isqrt(13 * top))
    spans, total, lcm, first = [], 1, 1, 2
    for k in range(2, top + 1):
        wider = math.lcm(lcm, k)
        if wider >= cap:
            spans.append((first, lcm, [lcm // j for j in range(first, k)]))
            total = math.lcm(total, lcm)
            wider, first = k, k
        lcm = wider
    spans.append((first, lcm, [lcm // j for j in range(first, top + 1)]))
    total = math.lcm(total, lcm)
    return total, [(k0, total // lcm, weights) for k0, lcm, weights in spans]


def _blocks_from(runs: list, start: int):
    """The runs of _blocks from divisor start + 2 on: the run holding it, cut there, then the rest."""
    index = bisect.bisect_right(runs, start + 2, key=itemgetter(0)) - 1
    first, cofactor, weights = runs[index]
    cut = (start + 2, cofactor, weights[start + 2 - first:])
    return itertools.chain((cut,), itertools.islice(runs, index + 1, None))


def _sum_over_2_up(terms: list, runs) -> int:
    """A with A/L = sum_i terms[-1-i]/(i+k0), the runs starting at divisor k0, L = lcm(2..top).

    runs is the second part of _blocks(top), top >= len(terms) + 1, with
    k0 = 2, or _blocks_from(runs, start), with k0 = start + 2.  Each run's
    share of the reversed terms is one sum of big-by-small products over
    its lcm l, run in C, and its cofactor L // l brings it over L.
    """
    total, rest, left = 0, reversed(terms), len(terms)
    for _, cofactor, weights in runs:
        # weights first: map stops on it without taking a term from rest
        total += cofactor * sum(map(mul, weights, rest))
        left -= len(weights)
        if left <= 0:
            break
    return total


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
    try:
        last_ratio = nums[-1] / nums[-2]
    except (ZeroDivisionError, OverflowError):  # N_{max-1} = 0 or past the float range: fail
        last_ratio, ok = None, False
    return Check(
        name="ratio-trend",
        claim_ref="Eq. (3.4)",
        status=PASS if ok else FAIL,
        detail=(
            f"ratios < 1 and strictly increasing for n in [{start}, {table.max_n - 1}]; "
            f"last ratio {last_ratio:.12f}"
            if ok
            else f"below_one={below_one}, non-increasing at n={not_increasing[:10]}"
            + ("; no float last ratio" if last_ratio is None else "")
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

"""Exact coefficient tables: constructions, bounds, monotonicity, ratios."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carleman import (
    FAIL,
    PASS,
    CoefficientTable,
    Rational,
    bound_at,
    bound_check,
    corrupted_table,
    monotonicity_check,
    oracle_equivalence_check,
    ratio_trend_check,
)
from carleman.coefficients import (
    _SEGMENT,
    _append_reduced,
    _blocks,
    _blocks_from,
    _log_convex,
    _sum_over_2_up,
)
from carleman.verify import E_HI

# First twelve values, frozen.  The two exact constructions
# agree on them bit for bit, and the quadrature recovery from the
# integral representation reproduces each to ~1e-17.
FIRST_TWELVE = [
    Rational(1, 2),
    Rational(1, 24),
    Rational(1, 48),
    Rational(73, 5760),
    Rational(11, 1280),
    Rational(3625, 580608),
    Rational(5525, 1161216),
    Rational(5233001, 1393459200),
    Rational(1212281, 398131200),
    Rational(927777937, 367873228800),
    Rational(772193, 363331584),
    Rational(43791735453787, 24103053950976000),
]


def test_recurrence_first_twelve():
    table = CoefficientTable.from_recurrence(12)
    assert list(table.values) == FIRST_TWELVE


def test_series_oracle_first_twelve():
    table = CoefficientTable.from_series_oracle(12)
    assert list(table.values) == FIRST_TWELVE


def test_second_coefficient_by_hand():
    # first recurrence step: c_2 = (1/2)(1/3 - c_1/2) = 1/24
    assert CoefficientTable.from_recurrence(2).value(2) == (
        Rational(1, 3) - Rational(1, 2) / 2
    ) / 2
    assert CoefficientTable.from_recurrence(2).value(2) == Rational(1, 24)


def test_single_entry_tables():
    for build in (CoefficientTable.from_recurrence, CoefficientTable.from_series_oracle):
        table = build(1)
        assert table.max_n == 1
        assert table.value(1) == Rational(1, 2)


def test_rejects_nonpositive_max_n():
    with pytest.raises(ValueError):
        CoefficientTable.from_recurrence(0)
    with pytest.raises(ValueError):
        CoefficientTable.from_series_oracle(0)


def test_value_range_errors(table200):
    with pytest.raises(IndexError):
        table200.value(0)
    with pytest.raises(IndexError, match="outside table range"):
        table200.value(201)


def test_iteration_and_floats(table200):
    values = table200.values
    assert values[0] == Rational(1, 2)
    assert len(values) == 200
    assert len(table200.floats()) == 200
    assert table200.floats()[0] == 0.5


def test_fraction_views_are_built_on_demand(table200):
    assert table200.value(6) == table200.values[5] == Rational(3625, 580608)
    assert table200.values is not table200.values
    # the frozen table caches nothing beside its fields
    assert set(vars(table200)) == {"numerators", "denominator"}


def test_oracle_equivalence_200(table200, oracle200):
    check = oracle_equivalence_check(table200, oracle200)
    assert check.status == PASS
    assert check.values["mismatches"] == []
    assert check.claim_ref == "Eq. (3.5)"


def test_bound_values():
    assert bound_at(1) == Rational(1, 2)
    assert bound_at(2) == Rational(1, 6)
    assert bound_at(3) == Rational(1, 12)


def test_bound_check_equality_only_at_one(table200):
    check = bound_check(table200)
    assert check.status == PASS
    assert check.values["equality_at"] == [1]
    assert check.values["violations"] == []
    with pytest.raises(ValueError, match="table is empty"):
        bound_check(CoefficientTable(numerators=(), denominator=1))
    # c_2 above its cap, c_2 = 0, and c_2 = 1/6 at its cap
    for numerators, denominator, violations, equalities in (
        ((1, 1), 2, [2], [1]),
        ((1, 0), 2, [2], [1]),
        ((3, 1), 6, [], [1, 2]),
    ):
        check = bound_check(CoefficientTable(numerators, denominator))
        assert check.status == FAIL
        assert check.values["violations"] == violations
        assert check.values["equality_at"] == equalities
        assert check.detail == f"violations at n={violations}, equality at n={equalities}"


def test_sharp_constant_to_1001(table1001):
    """The proved bound b_n < 1/(e n(n+1)), e times sharper than Eq. (3.2),
    checked on the table's integers for 2 <= n <= 1001 (README, "Numerical notes").

    E_HI lies above e, so n(n+1) N_n E_HI < D decides the bound exactly.
    n(n+1) b_n rises from n = 3 on, that is N_n n < N_{n+1} (n+2), and
    falls from n = 2 to 3.
    """
    nums, den = table1001.numerators, table1001.denominator
    for n in range(2, 1002):
        assert n * (n + 1) * nums[n - 1] * E_HI.numerator < den * E_HI.denominator, n
    rises = [nums[n - 1] * n < nums[n] * (n + 2) for n in range(2, 1001)]
    assert rises == [False] + [True] * 998


def test_monotonicity_check(table200):
    assert monotonicity_check(table200).status == PASS


def test_monotonicity_needs_two_entries():
    with pytest.raises(ValueError):
        monotonicity_check(CoefficientTable.from_recurrence(1))


def test_partial_sums(table200):
    assert table200.partial_sum(1) == Rational(1, 2)
    assert table200.partial_sum(2) == Rational(13, 24)
    with pytest.raises(IndexError):
        table200.partial_sum(0)
    with pytest.raises(IndexError):
        table200.partial_sum(201)


def test_partial_sums_increase_below_limit(table200):
    """Strictly increasing in N and capped by 1 - 1/e (float, 1e-12 guard)."""
    import math

    limit = 1.0 - 1.0 / math.e
    previous = Rational(0)
    for n in range(1, 201):
        current = table200.partial_sum(n)
        assert current > previous
        assert float(current) < limit - 1e-12
        previous = current


def test_ratio_trend(table200):
    check = ratio_trend_check(table200)
    assert check.status == PASS
    assert 0.0 < check.values["last_ratio"] < 1.0
    # 6, 4, 3, 2, 1 over 12 decreases, but from n = 2 its ratios 3/4, 2/3, 1/2 fall
    table = CoefficientTable((6, 4, 3, 2, 1), 12)
    assert monotonicity_check(table).status == PASS
    check = ratio_trend_check(table)
    assert check.status == FAIL
    assert check.detail == "below_one=True, non-increasing at n=[2, 3]"


def test_ratio_trend_needs_four_entries():
    with pytest.raises(ValueError, match="too short"):
        ratio_trend_check(CoefficientTable.from_recurrence(3))
    assert ratio_trend_check(CoefficientTable.from_recurrence(4)).status == PASS


def test_table_invariants(table200):
    # c_1 = 1/2 anchors the shared denominator, and that denominator is the least one
    assert 2 * table200.numerators[0] == table200.denominator
    assert math.gcd(table200.denominator, *table200.numerators) == 1


def test_corrupted_table_breaks_decrease(table200):
    broken = corrupted_table(table200, 100)
    check = monotonicity_check(broken)
    assert check.status == FAIL
    assert 99 in check.values["failures"]


def test_corrupted_table_rejects_bad_index(table200):
    with pytest.raises(ValueError):
        corrupted_table(table200, 1)
    with pytest.raises(ValueError):
        corrupted_table(table200, 201)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=20, deadline=None)
def test_constructions_agree_everywhere(max_n):
    a = CoefficientTable.from_recurrence(max_n)
    b = CoefficientTable.from_series_oracle(max_n)
    assert a.values == b.values


def reference_recurrence(max_n):
    """The paper's recurrence written out in plain Fraction arithmetic (test-only reference)."""
    values = [Fraction(1, 2)]
    for n in range(2, max_n + 1):
        acc = sum(values[j - 1] / (n - j + 1) for j in range(1, n))
        values.append((Fraction(1, n + 1) - acc) / n)
    return values


def assert_matches_reference(table, reference):
    """Same values bit for bit, held as integers over the least common denominator."""
    assert list(table.values) == reference
    den = math.lcm(*(v.denominator for v in reference))
    assert table.denominator == den
    assert table.numerators == tuple(v.numerator * (den // v.denominator) for v in reference)
    assert math.gcd(table.denominator, *table.numerators) == 1


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=20, deadline=None)
def test_constructions_match_fraction_reference(max_n):
    reference = reference_recurrence(max_n)
    assert_matches_reference(CoefficientTable.from_recurrence(max_n), reference)
    assert_matches_reference(CoefficientTable.from_series_oracle(max_n), reference)


def test_constructions_match_fraction_reference_at_300():
    reference = reference_recurrence(300)
    assert_matches_reference(CoefficientTable.from_recurrence(300), reference)
    assert_matches_reference(CoefficientTable.from_series_oracle(300), reference)


def test_constructions_match_fraction_reference_around_segment_closings():
    """Lengths on both sides of the first and second closing, and past a third.

    The oracle's table holds F_0 as well, so its segments close one step
    before the recurrence's.
    """
    lengths = [_SEGMENT - 2, _SEGMENT - 1, _SEGMENT, _SEGMENT + 1, 2 * _SEGMENT,
               2 * _SEGMENT + 1, 3 * _SEGMENT + 5]
    reference = reference_recurrence(max(lengths))
    for length in lengths:
        assert_matches_reference(CoefficientTable.from_recurrence(length), reference[:length])
        assert_matches_reference(CoefficientTable.from_series_oracle(length), reference[:length])


def test_append_reduced_closes_full_segments_and_lifts_only_the_newest():
    """A closed segment keeps its numerators; the newest one's lift takes every later m."""
    closed, nums, den = [], list(range(1, _SEGMENT)), 7
    nums, den = _append_reduced(closed, nums, den, 10, 3)  # m = 3: the open segment fills
    assert closed == [] and nums == [3 * v for v in range(1, _SEGMENT)] + [10] and den == 21
    full = nums
    nums, den = _append_reduced(closed, nums, den, 4, 10)  # h = 2, m = 5: it closes
    assert closed == [[[5 * v for v in full], 1]] and nums == [2] and den == 105
    nums, den = _append_reduced(closed, nums, den, 1, 2)  # m = 2
    assert closed == [[[5 * v for v in full], 2]] and nums == [4, 1] and den == 210


@pytest.mark.parametrize("top", [2, 3, 42, 43, 44, 250, 2001])
def test_blocks_tile_the_divisors_in_order(top):
    """Runs of 2..top with their lcm L below 2**60, each as long as that allows."""
    divisors = range(2, top + 1)
    start = 0
    for first, lcm, weights in _blocks(top):
        run = divisors[start:start + len(weights)]
        assert run and run[0] == first and lcm == math.lcm(*run) < 2**60
        assert weights == [lcm // k for k in run]
        start += len(run)
        if start < len(divisors):
            assert math.lcm(lcm, divisors[start]) >= 2**60
    assert start == len(divisors)


def test_sum_over_2_up_across_block_seams():
    """The Fraction sum at every length around the first seams, over the lcms reached.

    Started at distance `start`, from _blocks_from, the sum runs over
    divisors start + 2, start + 3, ...: mid-run, at a seam and one past it.
    q is then the product of the lcms of the runs touched, the cut one's too.
    """
    blocks = _blocks(700)
    seams = list(itertools.accumulate(len(weights) for _, _, weights in blocks))
    assert seams[0] == 41  # the first block is 2..42
    rng = random.Random(42)

    def check(start, length):
        terms = [rng.randrange(-(2**300), 2**300) for _ in range(length)]
        a, q = _sum_over_2_up(terms, _blocks_from(blocks, start) if start else blocks)
        assert Fraction(a, q) == sum(
            Fraction(t, start + i + 2) for i, t in enumerate(reversed(terms))
        ), (start, length)
        touched = [lcm for first, lcm, weights in blocks
                   if first <= start + length + 1 and start + 2 < first + len(weights)]
        assert q == math.prod(touched), (start, length)

    for length in sorted({1, 2, 43} | {seam + d for seam in seams[:12] for d in (-1, 0, 1)}):
        check(0, length)
    # distance seams[j] - 1 is the last divisor of run j, and distance seams[j] the first of the next
    for start in (5, 40, seams[3] - 2, seams[3] - 1, seams[3], seams[3] + 1, seams[20] + 2):
        for length in (1, 2, 7, 8, 9, _SEGMENT, 200):
            check(start, length)


@pytest.mark.parametrize("fault", [2, 3, 57, 199, 200])
def test_integer_checks_match_fraction_comparisons(table200, oracle200, fault):
    broken = corrupted_table(table200, fault)
    c = (None, *broken.values)  # c[n] is the reduced Fraction c_n

    bound = bound_check(broken)
    assert bound.values["violations"] == [n for n in range(1, 201) if not 0 < c[n] <= bound_at(n)]
    assert bound.values["equality_at"] == [n for n in range(1, 201) if c[n] == bound_at(n)]

    failures = [n for n in range(1, 200) if not c[n + 1] < c[n]]
    assert monotonicity_check(broken).values["failures"] == failures

    below_one = all(c[n + 1] < c[n] for n in range(2, 200))
    not_increasing = [n for n in range(2, 199) if not c[n] * c[n + 2] > c[n + 1] ** 2]
    trend = ratio_trend_check(broken)
    assert (trend.status == PASS) == (below_one and not not_increasing)
    if trend.status == FAIL:
        assert trend.detail == f"below_one={below_one}, non-increasing at n={not_increasing[:10]}"
    assert trend.values["last_ratio"] == float(c[200] / c[199])

    assert oracle_equivalence_check(broken, oracle200).values["mismatches"] == [fault]


def test_oracle_equivalence_across_denominators():
    """Tables of different lengths hold different shared denominators."""
    short, long = CoefficientTable.from_recurrence(10), CoefficientTable.from_series_oracle(12)
    assert short.denominator != long.denominator
    check = oracle_equivalence_check(short, long)
    assert check.status == PASS and check.values["compared_n"] == 10
    assert oracle_equivalence_check(corrupted_table(short, 4), long).values["mismatches"] == [4]


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class NoFullProduct(int):
    """An int whose own products fail: _log_convex must decide it from leading parts."""

    def __mul__(self, other):
        raise AssertionError("full product taken")

    __rmul__ = __mul__


def test_log_convex_screen_matches_fraction_comparison():
    """Triples above 64 bits where the leading parts cannot decide, and the edge values.

    Cassini's identity F_{n-1} F_{n+1} - F_n**2 = (-1)**n gives a*c = b**2 + 1
    at even n and b**2 - 1 at odd n.
    """
    rng = random.Random(26)
    x, y, z = (rng.randrange(2**70, 2**90) for _ in range(3))
    big = rng.randrange(2**200, 2**201)
    triples = [
        (x * y * y, x * y * z, x * z * z),  # a*c == b**2: not increasing
        (big, big, big),
        (fibonacci(299), fibonacci(300), fibonacci(301)),  # b**2 + 1
        (fibonacci(300), fibonacci(301), fibonacci(302)),  # b**2 - 1
        (0, big, big), (big, 0, big), (big, big, 0), (0, 0, 0), (1, 0, 1),
        (-big, big, big), (-big, -big, -big), (-1, 0, -1), (big, -big, big),
    ]
    assert fibonacci(299) * fibonacci(301) == fibonacci(300) ** 2 + 1
    for a, b, c in triples:
        assert _log_convex(a, b, c) == (Fraction(a) * c > Fraction(b) ** 2), (a, b, c)
    assert [_log_convex(*t) for t in triples[:4]] == [False, False, True, False]


def test_log_convex_screen_decides_clear_cases_from_leading_parts():
    rng = random.Random(27)
    for bits in (1, 63, 64, 65, 300, 5000):
        b = rng.randrange(2**bits, 2**(bits + 1))
        up, down = (b + b // 64 + 2, b, b + b // 64 + 2), (b - b // 64 - 1, b, b - b // 64 - 1)
        assert _log_convex(*map(NoFullProduct, up)) is True
        assert _log_convex(*map(NoFullProduct, down)) is False


def test_ratio_trend_on_cassini_numerators():
    """Consecutive Fibonacci numbers have a*c = b**2 +- 1: every triple passes the screen to full products."""
    nums = tuple(fibonacci(n) for n in range(400, 300, -1))  # decreasing; c_{n+1}/c_n < 1
    check = ratio_trend_check(CoefficientTable(nums, fibonacci(401)))
    c = [None, *(Fraction(v) for v in nums)]
    expected = [n for n in range(2, 99) if not c[n] * c[n + 2] > c[n + 1] ** 2]
    assert expected and len(expected) < 97
    assert check.status == FAIL
    assert check.detail == f"below_one=True, non-increasing at n={expected[:10]}"

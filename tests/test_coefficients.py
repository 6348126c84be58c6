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
from carleman.coefficients import _blocks, _sum_over_2_up
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


@pytest.mark.parametrize("top", [2, 3, 42, 43, 44, 250, 2001])
def test_blocks_tile_the_divisors_in_order(top):
    """Runs of 2..top with their lcm L below 2**60, each as long as that allows."""
    divisors = range(2, top + 1)
    start = 0
    for lcm, weights in _blocks(top):
        run = divisors[start:start + len(weights)]
        assert run and lcm == math.lcm(*run) < 2**60
        assert weights == [lcm // k for k in run]
        start += len(run)
        if start < len(divisors):
            assert math.lcm(lcm, divisors[start]) >= 2**60
    assert start == len(divisors)


def test_sum_over_2_up_across_block_seams():
    """The Fraction sum at every length around the first seams, over the lcms reached."""
    blocks = _blocks(400)
    seams = list(itertools.accumulate(len(weights) for _, weights in blocks))
    assert seams[0] == 41  # the first block is 2..42
    lengths = {1, 2, 43} | {seam + d for seam in seams[:12] for d in (-1, 0, 1)}
    rng = random.Random(42)
    for length in sorted(lengths):
        terms = [rng.randrange(-(2**300), 2**300) for _ in range(length)]
        a, q = _sum_over_2_up(terms, blocks)
        assert Fraction(a, q) == sum(Fraction(t, i + 2) for i, t in enumerate(reversed(terms)))
        reached = next(i for i, seam in enumerate(seams, start=1) if seam >= length)
        assert q == math.prod(lcm for lcm, _ in blocks[:reached]), length


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

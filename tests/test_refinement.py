"""Refinement weights, overshoot, tail bound, and the finite demo."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from carleman import (
    E,
    CoefficientTable,
    Rational,
    RefinementFactor,
    carleman_demo,
    load_sequence_csv,
    refinement_factor,
    tail_bound,
    truncation_gap,
)
from carleman.verify import E_HI, E_LO

# nothing here needs deep indices; 60 terms cover every m used below
TABLE = CoefficientTable.from_recurrence(60)


def fraction_horner(x, terms):
    """Reference weight: a Horner pass over the Fraction view of the table."""
    u = Fraction(1) / (Fraction(x) + 1)
    acc = Fraction(0)
    for k in range(terms, 0, -1):
        acc = (acc + TABLE.value(k)) * u
    return 1 - acc


def float_horner(x, terms):
    """Reference float weight over the correctly rounded entries."""
    u = 1.0 / (float(x) + 1.0)
    acc = 0.0
    for k in range(terms, 0, -1):
        acc = (acc + float(TABLE.value(k))) * u
    return 1.0 - acc


def test_one_term_weight_by_hand():
    factor = refinement_factor(1, 1, TABLE)
    assert factor.exact_value == Rational(3, 4)
    assert factor.float_value == 0.75
    assert E * factor.float_value == pytest.approx(2.038711371344284, abs=1e-12)
    assert E * factor.float_value > 2.0


def test_six_term_weight_exact():
    factor = refinement_factor(1, 6, TABLE)
    assert factor.exact_value == Rational(136711531, 185794560)
    assert E * factor.float_value > 2.0


def test_float_path_matches_exact_path():
    for x_exact, x_float in ((1, 1.0), (Rational(1, 2), 0.5), (10, 10.0)):
        for terms in (1, 3, 6, 12):
            exact = refinement_factor(x_exact, terms, TABLE)
            floaty = refinement_factor(x_float, terms, TABLE)
            assert exact.exact_value is not None
            assert floaty.exact_value is None
            assert floaty.float_value == pytest.approx(exact.float_value, abs=1e-15)


def test_weight_validation():
    with pytest.raises(ValueError):
        refinement_factor(0.0, 3, TABLE)
    with pytest.raises(ValueError):
        refinement_factor(1.0, 0, TABLE)
    with pytest.raises(IndexError):
        refinement_factor(1.0, 61, TABLE)
    for weight in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            RefinementFactor(float_value=weight)
    for exact in (Rational(0), Rational(1), Rational(3, 2)):
        with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
            RefinementFactor(float_value=0.5, exact_value=exact)


def test_weight_strictly_decreasing_in_terms():
    for x in (1, 3, Rational(1, 2)):
        previous = None
        for m in range(1, 21):
            current = refinement_factor(x, m, TABLE).exact_value
            if previous is not None:
                assert current < previous
            previous = current


def test_sandwich():
    # (1+1/x)**x < e*W_m(x) < e on a grid where doubles resolve the gap
    for x in (0.5, 1.0, 2.0, 10.0):
        power = math.exp(x * math.log1p(1.0 / x))
        for m in (1, 3, 6, 10):
            scaled = E * refinement_factor(x, m, TABLE).float_value
            assert power < scaled < E, f"x={x} m={m}"


def test_frozen_overshoots():
    # overshoot values frozen from the exact-table oracle run
    frozen = {
        (1, 1): 3.871137134428393e-2,
        (1, 6): 1.6873722306748338e-4,
        (2, 6): 8.051981096120760e-6,
        (10, 6): 7.151082386188508e-10,
        (100, 2): 5.529866665267011e-8,
    }
    for (x, m), expected in frozen.items():
        gap = truncation_gap(x, m, TABLE)
        assert gap == pytest.approx(expected, abs=1e-12), f"(x,m)=({x},{m})"
        assert 0.0 < gap < tail_bound(x, m), f"(x,m)=({x},{m})"


def test_overshoot_below_double_resolution():
    """At (x, m) = (100, 6) the true overshoot is ~1.2e-16.

    That is under one rounding unit of the quantities being subtracted,
    so only the magnitude is checked; the sign is not decidable in
    doubles.
    """
    assert abs(truncation_gap(100, 6, TABLE)) <= 2e-15


@pytest.mark.parametrize("x", [100, 999, 1000])
def test_overshoot_sign_at_double_floor_exactly(x):
    """e * W_6(x) > (1 + 1/x)**x where the float overshoot reads 0.0 or -4.4e-16.

    With e above E_LO it is enough that E_LO * W_6(x) * x**x > (x + 1)**x,
    a comparison of exact rationals.
    """
    weight = refinement_factor(x, 6, TABLE).exact_value
    assert E_LO * weight * x**x > (x + 1) ** x


def test_tail_bound_closed_form_at_x_one():
    # sum_{k>=1} (1/2)**k/(k(k+1)) telescopes to 1 - ln 2, so dropping
    # the k=1 term and scaling by e gives the m=1 bound at x=1
    expected = E * (1.0 - math.log(2.0) - 0.25)
    assert tail_bound(1, 1) == pytest.approx(expected, abs=1e-14)


def test_tail_bound_never_undershoots_at_term_cap():
    """At x = 1e-6, m = 1 the closed form gives the bound, with its margin above the tail."""
    u = 1.0 / (1e-6 + 1.0)
    closed = E * (1.0 + (1.0 / u - 1.0) * math.log1p(-u) - u / 2.0)
    assert tail_bound(1e-6, 1) >= closed


@pytest.mark.parametrize("x, m, expected", [
    (2.5, 6, "0x1.46376be7cf1dcp-17"),  # x >= 1: the series to its relative exit
    (0.5, 20, "0x1.9830a9c824b1ap-19"),  # x < 1, (1 - u)(m+1) = 7: the series
    (0.001, 20, "0x1.e29d50f777b35p-4"),  # x < 1, (1 - u)(m+1) = 0.021: the closed form
    (1, 2000, "0x0.0000000000006p-1022"),  # every term underflows
], ids=["relative", "series-below-1", "closed-form", "underflow"])
def test_tail_bound_each_exit_bit_for_bit(x, m, expected):
    """One point per branch of tail_bound, each pinned to its last bit."""
    assert tail_bound(x, m).hex() == expected


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-17])
def test_tail_bound_where_u_rounds_up_to_one(x):
    """u = 1/(x+1) rounded up is 1, whose tail sum_{k>m} 1/(k(k+1)) is 1/(m+1).

    The bound holds e/(m+1) (E_HI lies above e), and at most a part in
    10**8 more, the tightness that the mpmath grid asks of every tail.
    """
    for m in (1, 6, 20, 2000):
        scaled = Fraction(tail_bound(x, m)) * (m + 1)
        assert E_HI <= scaled <= E_HI * (1 + Fraction(1, 10**8)), (x, m)


def test_weight_at_large_x():
    exact = refinement_factor(10**20, 6, TABLE)
    assert exact.float_value == 1.0
    assert 0 < exact.exact_value < 1
    assert refinement_factor(1e300, 6, TABLE).float_value == 1.0


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        tail_bound(0.0, 3)
    with pytest.raises(ValueError):
        tail_bound(1.0, 0)


def test_tail_bound_reads_any_real_through_float():
    assert tail_bound(Decimal("2.5"), 6) == tail_bound(2.5, 6) == tail_bound(Fraction(5, 2), 6)


def test_overshoot_under_tail_bound_as_terms_grow():
    # the m=40 pair sits at the floor of double precision but stays
    # decidable: bound ~1.4e-15 vs computed gap under half that
    for m in (5, 10, 20, 40):
        gap = truncation_gap(1, m, TABLE)
        assert gap < tail_bound(1, m), f"m={m}"


def test_demo_zero_propagation():
    report = carleman_demo([4.0, 0.0, 9.0], 6, TABLE)
    # geometric means: 4, then 0 from the zero onward
    assert report.lhs == 4.0
    assert report.holds
    assert 0.0 < report.ratio < 1.0
    assert report.length == 3
    expected_rhs = E * (
        refinement_factor(1, 6, TABLE).float_value * 4.0
        + refinement_factor(3, 6, TABLE).float_value * 9.0
    )
    assert report.rhs == pytest.approx(expected_rhs, abs=1e-12)


@pytest.mark.parametrize("entry", [1e308, 5e-324])
def test_demo_rescales_at_the_ends_of_the_double_range(entry):
    # both sums overflow at 1e308, and a subnormal entry carries few
    # digits; homogeneity gives the ratio of the all-ones sequence.
    # 5 entries at m = 2 take the weights past the m-th from the difference table
    for length, terms in ((3, 6), (5, 2)):
        report = carleman_demo([entry] * length, terms, TABLE)
        assert report.holds
        ones = carleman_demo([1.0] * length, terms, TABLE)
        assert report.ratio == pytest.approx(ones.ratio, rel=1e-14)


@pytest.mark.parametrize("terms", [1, 2, 6, 20])
def test_demo_weights_are_refinement_factor_floats(terms):
    # the demo's integer weights must be refinement_factor's floats bit for
    # bit, summed in the same order: rhs is compared with ==, not approx.
    # A long sum can absorb a 1-ulp weight error, so each weight up to
    # n = 300 is also read alone, from a sequence that is zero before a_n = 1.
    for n in range(1, 301):
        alone = carleman_demo([0.0] * (n - 1) + [1.0], terms, TABLE)
        assert alone.rhs == E * refinement_factor(n, terms, TABLE).float_value, n
    # every weight after the m-th comes from a difference table, so the sums
    # are also taken at the lengths on both sides of m, and well past it
    lengths = {terms - 1, terms, terms + 1, 2 * terms, 2 * terms + 1, 5000} - {0}
    if terms == 20:
        lengths.add(20_000)
    rng = random.Random(20140)
    seq = [(0.5 + rng.random()) / n for n in range(1, max(lengths) + 1)]
    for i in (17, 1234, 4999):
        seq[i] = 0.0
    weights = [refinement_factor(n, terms, TABLE).float_value for n in range(1, len(seq) + 1)]
    for length in sorted(lengths):
        weighted = 0.0
        for w, a in zip(weights, seq[:length]):
            weighted += w * a
        assert carleman_demo(seq[:length], terms, TABLE).rhs == E * weighted, length


def test_demo_validation():
    with pytest.raises(ValueError, match="^sequence is empty$"):
        carleman_demo([], 6, TABLE)
    with pytest.raises(ValueError):
        carleman_demo([1.0, -2.0], 6, TABLE)
    # past a zero no logarithm is taken, so only the entry check sees -1
    with pytest.raises(ValueError, match="nonnegative"):
        carleman_demo([0.0, -1.0], 6, TABLE)
    # c_1 = 5/2 makes W_1(1) = 1 - 5/4
    with pytest.raises(ValueError, match=r"exact weight -1/4 outside \(0, 1\)"):
        carleman_demo([1.0], 1, CoefficientTable(numerators=(5,), denominator=2))
    # A(s) = 4 - s at m = 2: the weights 1/2 and 8/9 come from Horner
    # passes, and W_2(3) = 16/16 from the difference table
    with pytest.raises(ValueError, match=r"^exact weight 1 outside \(0, 1\)$"):
        carleman_demo([1.0] * 5, 2, CoefficientTable(numerators=(-1, 4), denominator=1))
    with pytest.raises(ValueError):
        carleman_demo([0.0, 0.0], 6, TABLE)
    with pytest.raises(ValueError, match="terms must be >= 1"):
        carleman_demo([1.0, 2.0], 0, TABLE)
    with pytest.raises(IndexError, match="exceeds table range"):
        carleman_demo([1.0, 2.0], TABLE.max_n + 1, TABLE)


def test_demo_that_fails():
    # c_1 = 3/2 makes W_1(1) = 1/4, so the right side is e/4 < 1
    report = carleman_demo([1.0], 1, CoefficientTable((3,), 2))
    assert (report.holds, report.lhs, report.rhs) == (False, 1.0, 0.6795704571147613)


def test_demo_refuses_entries_that_are_not_finite():
    # min() passes over a NaN that follows a number, so the sum has to catch [1.0, nan]
    for seq in ([math.nan, 1.0], [1.0, math.nan], [1.0, math.inf], [-math.inf], [1e308, -1.0]):
        with pytest.raises(ValueError, match="sequence entries must be finite and nonnegative"):
            carleman_demo(seq, 6, TABLE)


def test_demo_accepts_entries_whose_sum_overflows():
    report = carleman_demo([1e308, 1e308], 6, TABLE)
    assert report.lhs == report.rhs == math.inf
    assert report.holds and 0.0 < report.ratio < 1.0


def test_demo_report_fields():
    report = carleman_demo([1.0, 1.0], 6, TABLE)
    payload = report.to_dict()
    assert set(payload) == {"length", "terms", "lhs", "rhs", "ratio", "holds", "note"}
    assert "demonstration" in payload["note"]


def test_load_sequence_csv(tmp_path):
    path = tmp_path / "seq.csv"
    # a line that is one double-quoted field is read without its quotes
    path.write_text('1.5\n\n0\n  \n2e-3\n"1.5"\n""\n" 2 "\n"  "\n')
    assert load_sequence_csv(path) == [1.5, 0.0, 2e-3, 1.5, 2.0]


def test_load_sequence_csv_rejects_garbage(tmp_path):
    # LF, CRLF and CR each end a line, and a quote does not carry a line on
    for content, fragment in (
        (b"1,2\n", "single column"),
        (b"abc\n", "not a number"),
        (b"-1\n", "nonnegative"),
        (b"inf\n", "finite"),
        (b"", "no data"),
        (b'1\n"2\n"\nabc\n', "^line 2: not a number"),
        (b'1\n"\n2\n', "^line 2: not a number"),
        (b'1\n2"\n', "^line 2: not a number"),
        (b"1\r\xe9\n", "^line 2: 'utf-8' codec can't decode byte 0xe9"),
        (b"\xef\xbb\xbf" + b"1\r\n" * 2000 + b"1\r" * 1000 + b"1\n" * 2000 + b"\xe9\n",
         "^line 5001: "),
    ):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=fragment):
            load_sequence_csv(path)


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=15),
)
@settings(max_examples=60, deadline=None)
def test_weight_in_unit_interval_exact(p, q, m):
    factor = refinement_factor(Rational(p, q), m, TABLE)
    assert 0 < factor.exact_value < 1
    assert 0.0 < factor.float_value < 1.0
    deeper = refinement_factor(Rational(p, q), m + 1, TABLE)
    assert deeper.exact_value < factor.exact_value


@given(
    st.one_of(
        st.integers(min_value=1, max_value=10**20),
        st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
    ),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=150, deadline=None)
def test_exact_weight_matches_fraction_horner(x, m):
    factor = refinement_factor(x, m, TABLE)
    expected = fraction_horner(x, m)
    assert factor.exact_value == expected
    assert factor.float_value == float(expected)


@given(
    st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=150, deadline=None)
def test_float_weight_matches_float_horner(x, m):
    factor = refinement_factor(x, m, TABLE)
    assert factor.exact_value is None
    assert factor.float_value == float_horner(x, m)

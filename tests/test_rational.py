"""Rational carrier: normalization, rendering, parsing."""

from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

from carleman import (
    Rational,
    as_rational,
    is_exact,
    is_reduced,
    parse_rational,
    rational_str,
    to_decimal_str,
)


def test_carrier_reduces():
    assert as_rational("3/6") == Rational(1, 2)
    assert is_reduced(as_rational("3/6"))


def test_is_exact():
    assert is_exact(1)
    assert is_exact(Rational(1, 3))
    assert not is_exact(0.5)
    assert not is_exact("1/2")


def test_rational_str_always_writes_denominator():
    assert rational_str(Rational(1, 2)) == "1/2"
    assert rational_str(Rational(7)) == "7/1"
    assert rational_str(Rational(-3, 4)) == "-3/4"


def test_rational_str_past_the_int_digit_limit():
    # 7**6000 has 5071 digits, more than str(int) renders by default
    for sign in (1, -1):
        num, den = rational_str(Rational(sign * 7**6000, 3)).split("/")
        assert len(num.lstrip("-")) == 5071
        assert Decimal(num) == sign * 7**6000
        assert den == "3"


def test_parse_past_the_int_digit_limit():
    # the inverse of rational_str reads what it renders at any length
    for value in (Rational(7**6000, 3), Rational(-3, 7**6000), Rational(7**6000)):
        assert parse_rational(rational_str(value)) == value
    assert parse_rational(" +" + "7" * 5000 + " ") == 7 * (10**5000 - 1) // 9
    for text in ("1/-" + "1" * 5000, "1" * 5000 + ".5/3", "1" * 5000 + "x"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_parse_round_trip():
    for text in ("1/2", "73/5760", "-11/1280", "5/1"):
        assert rational_str(parse_rational(text)) == text


def test_parse_accepts_integers_and_decimals():
    assert parse_rational("7") == Rational(7)
    assert parse_rational("0.25") == Rational(1, 4)


def test_to_decimal_str_fixed_significant_digits():
    assert to_decimal_str(Rational(1, 2), 4) == "0.5000"
    assert to_decimal_str(Rational(1, 3), 5) == "0.33333"
    assert to_decimal_str(Rational(2, 3), 4) == "0.6667"
    assert to_decimal_str(Rational(7), 3) == "7.00"
    assert to_decimal_str(Rational(-1, 2), 3) == "-0.500"
    assert to_decimal_str(Rational(0), 4) == "0.000"


def test_to_decimal_str_half_even():
    # ties go to the even neighbor
    assert to_decimal_str(Rational(1, 8), 2) == "0.12"
    assert to_decimal_str(Rational(3, 8), 2) == "0.38"


def test_to_decimal_str_default_is_15_digits():
    assert to_decimal_str(Rational(1, 3)) == "0.333333333333333"


def test_to_decimal_str_rejects_bad_digits():
    with pytest.raises(ValueError):
        to_decimal_str(Rational(1, 2), 0)


@given(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=-10**3, max_value=10**3),
    st.integers(min_value=1, max_value=10**3),
)
def test_arithmetic_stays_reduced(p, q, r, s):
    a = Rational(p, q)
    b = Rational(r, s)
    assert is_reduced(a + b)
    assert is_reduced(a * b)
    assert is_reduced(a - b)
    if b != 0:
        assert is_reduced(a / b)


@given(
    st.integers(min_value=-10**9, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
)
def test_render_parse_round_trip(p, q):
    value = Rational(p, q)
    assert parse_rational(rational_str(value)) == value

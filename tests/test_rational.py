"""Rational carrier: normalization, rendering, parsing."""

import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from carleman import (
    Rational,
    as_rational,
    is_exact,
    rational_str,
    to_decimal_str,
)


def in_lowest_terms(value):
    """True when value is in lowest terms with a positive denominator."""
    return value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1


def test_carrier_reduces():
    assert as_rational("3/6") == Rational(1, 2)
    assert in_lowest_terms(as_rational("3/6"))


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
        assert as_rational(rational_str(value)) == value
    assert as_rational(" +" + "7" * 5000 + " ") == 7 * (10**5000 - 1) // 9
    for text in ("1/-" + "1" * 5000, "1" * 5000 + ".5/3", "1" * 5000 + "x"):
        with pytest.raises(ValueError):
            as_rational(text)


_digit_groups = st.lists(st.text("0123456789", min_size=1, max_size=8), min_size=1, max_size=5)
_blank = st.sampled_from(["", " ", "\t", " \n "])


@given(
    _blank,
    st.sampled_from(["", "+", "-"]),
    _digit_groups.map("_".join),
    st.none() | _digit_groups.map("_".join).filter(lambda q: int(q.replace("_", "")) > 0),
    _blank,
)
def test_parse_integers_and_ratios_as_fraction_does(lead, sign, p, q, trail):
    """Signed integers and p/q strings with underscores and blanks, below the digit cap."""
    text = lead + sign + p + ("" if q is None else "/" + q) + trail
    # Fraction reads underscores from Python 3.11 on
    expected = Fraction(text if sys.version_info >= (3, 11) else text.replace("_", ""))
    assert as_rational(text) == expected


def test_parse_errors():
    with pytest.raises(ZeroDivisionError):
        as_rational("1/0")
    for text in ("abc", "0." + "1" * 5000):
        with pytest.raises(ValueError):
            as_rational(text)


def test_parse_refuses_a_decimal_exponent_past_its_bound():
    """Fraction() would build 10**(10**20) in full; the bound refuses it at once."""
    assert as_rational("1e-400") == Fraction(1, 10**400)
    assert as_rational("2.5e3") == 2500
    assert as_rational(" 1E+100000 ") == 10**100_000
    with pytest.raises(ValueError, match=r"^decimal exponent past 100000: '1e-100001'$"):
        as_rational("1e-100001")
    # a child process, so that a reader which never returns fails here rather than hangs
    code = "from carleman import as_rational; as_rational('1e-99999999999999999999')"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert out.returncode == 1
    assert out.stderr.splitlines()[-1] == (
        "ValueError: decimal exponent past 100000: '1e-99999999999999999999'")


def test_parse_bounds_the_exponent_of_a_decimal():
    """A finite Decimal meets the bound of its text: Fraction(Decimal) builds 10**exponent too."""
    assert as_rational(Decimal("1.5e-100000")) == Fraction(3, 2 * 10**100_000)
    assert as_rational(Decimal("-2.5E3")) == -2500
    for text, shown in (("1e-100001", "1E-100001"), ("1e+100001", r"1E\+100001")):
        with pytest.raises(ValueError, match=rf"^decimal exponent past 100000: '{shown}'$"):
            as_rational(Decimal(text))
    with pytest.raises(OverflowError):
        as_rational(Decimal("Infinity"))
    code = ("from decimal import Decimal; from carleman import as_rational; "
            "as_rational(Decimal('1e-999999999'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10)
    assert out.returncode == 1
    assert out.stderr.splitlines()[-1] == (
        "ValueError: decimal exponent past 100000: '1E-999999999'")


def test_parse_round_trip():
    for text in ("1/2", "73/5760", "-11/1280", "5/1"):
        assert rational_str(as_rational(text)) == text


def test_parse_accepts_integers_and_decimals():
    assert as_rational("7") == Rational(7)
    assert as_rational("0.25") == Rational(1, 4)


def test_to_decimal_str_fixed_significant_digits():
    assert to_decimal_str(Rational(1, 2), 4) == "0.5000"
    assert to_decimal_str(Rational(1, 3), 5) == "0.33333"
    assert to_decimal_str(Rational(2, 3), 4) == "0.6667"
    assert to_decimal_str(Rational(7), 3) == "7.00"
    assert to_decimal_str(Rational(-1, 2), 3) == "-0.500"
    assert to_decimal_str(Rational(0), 4) == "0.000"


def test_to_decimal_str_of_zero_keeps_every_digit():
    assert to_decimal_str(Rational(0), 1) == "0"
    for digits in range(2, 51):
        assert to_decimal_str(0, digits) == "0." + "0" * (digits - 1)


def test_to_decimal_str_half_even():
    # ties go to the even neighbor
    assert to_decimal_str(Rational(1, 8), 2) == "0.12"
    assert to_decimal_str(Rational(3, 8), 2) == "0.38"


def test_to_decimal_str_default_is_15_digits():
    assert to_decimal_str(Rational(1, 3)) == "0.333333333333333"


def test_to_decimal_str_rejects_bad_digits():
    # without the check, Decimal refuses a precision of 0 in words of its own
    with pytest.raises(ValueError, match="digits must be >= 1"):
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
    assert in_lowest_terms(a + b)
    assert in_lowest_terms(a * b)
    assert in_lowest_terms(a - b)
    if b != 0:
        assert in_lowest_terms(a / b)


@given(
    st.integers(min_value=-10**9, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
)
def test_render_parse_round_trip(p, q):
    value = Rational(p, q)
    assert as_rational(rational_str(value)) == value

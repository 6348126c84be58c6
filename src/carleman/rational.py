"""Exact rational carrier and rendering helpers.

All coefficient arithmetic runs on ``fractions.Fraction``, exported here
as ``Rational``: arbitrary-precision rationals always kept in lowest
terms with a positive denominator.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

Rational = Fraction

# An integer or 'p/q' string, as int() and Fraction() read them.
_EXACT_FORM = re.compile(r"\s*([+-]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?\s*")


def is_exact(value) -> bool:
    """True for carriers of exact rational arithmetic (int and Fraction)."""
    return isinstance(value, (int, Fraction))


def as_rational(value) -> Rational:
    """Coerce ints, Fractions, or 'p/q', integer and decimal strings to a Fraction."""
    try:
        return Fraction(value)
    except ValueError:
        # an integer or 'p/q' string past the int() digit cap (see rational_str)
        match = isinstance(value, str) and _EXACT_FORM.fullmatch(value)
        if not match:
            raise
        return Fraction(int(Decimal(match[1])), int(Decimal(match[2] or 1)))


#: Inverse of rational_str; also accepts plain integers and decimals.
parse_rational = as_rational


def is_reduced(value) -> bool:
    num, den = value.numerator, value.denominator
    return den > 0 and math.gcd(abs(num), den) == 1


def rational_str(value) -> str:
    """Canonical 'p/q' form, denominator always written, at any size."""
    # str(int) refuses more than sys.get_int_max_str_digits() digits, a cap
    # set interpreter-wide; Decimal renders an int's digits without it.
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


def to_decimal_str(value, digits: int = 15) -> str:
    """Fixed-point decimal rendering at `digits` significant digits.

    Rounding is half-even.  Trailing zeros are kept so the digit count is
    explicit, e.g. 1/2 at 4 digits renders as '0.5000'.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    num, den = value.numerator, value.denominator
    if num == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(num) / Decimal(den)
        quantum = Decimal(1).scaleb(d.adjusted() - digits + 1)
        d = d.quantize(quantum)
    return format(d, "f")

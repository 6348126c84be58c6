"""Exact rational carrier and rendering helpers.

Coefficient tables and refinement weights run on Python integers (see
CoefficientTable); ``fractions.Fraction``, exported here as ``Rational``,
is the view an exact value takes when it leaves the package: lowest
terms, positive denominator.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction

Rational = Fraction

#: An integer or 'p/q' string, as int() and Fraction() read them; read at any length.
EXACT_FORM = re.compile(r"\s*(?P<p>[+-]?\d+(?:_\d+)*)(?:/(?P<q>\d+(?:_\d+)*))?\s*")

#: The exponent that ends a decimal such as '2.5e3', as Fraction() reads it.
EXPONENT = re.compile(r"[eE][+-]?(?P<digits>\d+(?:_\d+)*)\s*\Z")

#: Largest decimal exponent as_rational reads.  Fraction() builds 10**exponent
#: in full: 8 ms at this bound, 0.3 s at ten times it (CPython 3.11, Xeon core).
MAX_EXPONENT = 100_000

#: Longest input text an error line quotes in full; a longer one keeps its two ends.
MAX_QUOTED = 100


def _quoted(text: str) -> str:
    """repr(text), or the reprs of its first and last 30 characters and its length."""
    if len(text) <= MAX_QUOTED:
        return repr(text)
    return f"{text[:30]!r}...{text[-30:]!r} ({len(text)} characters)"


def is_exact(value) -> bool:
    """True for carriers of exact rational arithmetic (int and Fraction)."""
    return isinstance(value, (int, Fraction))


def as_rational(value) -> Rational:
    """Coerce ints, Fractions, or 'p/q', integer and decimal strings to a Fraction.

    A decimal whose exponent is past MAX_EXPONENT in size is refused with
    ValueError rather than built.
    """
    match = isinstance(value, str) and EXACT_FORM.fullmatch(value)
    if not match:
        exponent = isinstance(value, str) and EXPONENT.search(value)
        if exponent and Decimal(exponent["digits"]) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent past {MAX_EXPONENT}: {_quoted(value)}")
        return Fraction(value)
    # Decimal reads integers of any length; int() stops at its digit cap (see rational_str)
    return Fraction(int(Decimal(match["p"])), int(Decimal(match["q"] or 1)))


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
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(value.numerator) / Decimal(value.denominator)
        quantum = Decimal(1).scaleb(d.adjusted() - digits + 1)
        d = d.quantize(quantum)
    return format(d, "f")

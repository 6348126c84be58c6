"""The analytic functions behind the integral representations.

Everything here is pointwise double-precision evaluation on [0,1] (or
x > 0), with the endpoint limits baked in so no NaN or infinity can leak
into the quadrature engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .quadrature import QuadratureResult, integrate

E = math.e

# Inside this distance of an endpoint the stored limit is returned; the
# closed forms below contain sin(pi*s)*log((1-s)/s) products that would
# otherwise need care there.
ENDPOINT_WINDOW = 1e-12


@dataclass(frozen=True)
class EndpointSafeFunction:
    """A function on [0,1] with explicit analytic endpoint values.

    `interior` is only consulted for s in (ENDPOINT_WINDOW,
    1 - ENDPOINT_WINDOW); the limits at_zero / at_one cover the rest,
    keeping every evaluation finite.
    """

    interior: Callable[[float], float]
    at_zero: float
    at_one: float

    def __call__(self, s: float) -> float:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"s={s!r} outside [0,1]")
        if s < ENDPOINT_WINDOW:
            return self.at_zero
        if s > 1.0 - ENDPOINT_WINDOW:
            return self.at_one
        return self.interior(s)


def entropy_weight(s: float) -> float:
    """s**s * (1-s)**(1-s) with the limits at 0 and 1 equal to 1."""
    if s <= 0.0 or s >= 1.0:
        return 1.0
    return math.exp(s * math.log(s) + (1.0 - s) * math.log1p(-s))


def _density_interior(s: float) -> float:
    return entropy_weight(s) * math.sin(math.pi * s) / math.pi


def _density_derivative_interior(s: float) -> float:
    bracket = math.cos(math.pi * s) - math.sin(math.pi * s) / math.pi * math.log((1.0 - s) / s)
    return entropy_weight(s) * bracket


#: The nonnegative weight (1/pi) s^s (1-s)^(1-s) sin(pi s); its power
#: moments reproduce e times the expansion coefficients.
moment_density = EndpointSafeFunction(_density_interior, at_zero=0.0, at_one=0.0)

#: Closed-form derivative of the density: differentiate (1/pi) e^phi sin(pi s)
#: with phi = s log s + (1-s) log(1-s).  Values 1 at s=0 and -1 at s=1
#: because the sin*log product vanishes at both ends.
moment_density_derivative = EndpointSafeFunction(
    _density_derivative_interior, at_zero=1.0, at_one=-1.0
)


def compound_power(x) -> float:
    """(1+1/x)**x as a float, for x > 0.

    Evaluated as exp(x*log1p(1/x)) so it keeps its accuracy when x is
    large and the power hugs e.  Where 1/x overflows (subnormal x) the
    logarithm is taken as -log(x), its value to double precision there,
    so the result stays finite and tends to 1.
    """
    x = float(x)
    inverse = 1.0 / x
    log_base = math.log1p(inverse) if math.isfinite(inverse) else -math.log(x)
    return math.exp(x * log_base)


def scaled_defect(x: float) -> float:
    """(x+1) * (e - (1+1/x)**x) for x > 0."""
    if not x > 0:
        raise ValueError("x must be positive")
    return (x + 1.0) * (E - compound_power(x))


def scaled_defect_by_quadrature(x: float, tol: float = 1e-12) -> QuadratureResult:
    """Integral form of the scaled defect: e/2 + int_0^1 density(s)/(x+s) ds."""
    if not x > 0:
        raise ValueError("x must be positive")
    return integrate(lambda s: moment_density(s) / (x + s), tol).scaled(1.0, offset=E / 2.0)

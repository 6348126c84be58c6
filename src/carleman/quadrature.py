"""Double-exponential (tanh-sinh) quadrature on the unit interval.

The substitution s(t) = (1 + tanh((pi/2)*sinh(t)))/2 maps the real line
onto (0,1) and pushes the trapezoid rule's error down double-exponentially
for integrands that are analytic inside and merely continuous (possibly
with s**s- or log-type structure) at the endpoints.  Levels halve the step
size and reuse all previous evaluations; the error estimate is the change
between consecutive levels, and convergence requires that change to stay
within tolerance twice in a row, since a single small difference can be a
plateau rather than the limit.

Scope is deliberately [0,1] only; that is the only interval the rest of
the package integrates over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

_PI_HALF = math.pi / 2.0

# Abscissas past this point carry weights below ~1e-19 and cannot move a
# double-precision result for bounded integrands.
_T_CAP = 4.5
_WEIGHT_FLOOR = 1e-19

# The step halves up to _MAX_LEVELS times; convergence counts from _MIN_LEVELS.
_MIN_LEVELS = 3
_MAX_LEVELS = 10


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    levels_used: int
    converged: bool

    def scaled(self, factor: float, offset: float = 0.0) -> "QuadratureResult":
        """Result of the affine transform factor*value + offset."""
        return QuadratureResult(
            value=factor * self.value + offset,
            error_estimate=abs(factor) * self.error_estimate,
            levels_used=self.levels_used,
            converged=self.converged,
        )


@functools.cache
def _level_nodes(level: int) -> tuple:
    """(s_hi, s_lo, weight, is_center) for the nodes new at `level`.

    Level 0 holds every abscissa of the unit-step grid, level L >= 1 only
    the odd multiples of 2**-L.  Each level is built once per process.
    """
    h = 1.0 / (1 << level)
    ks = range(0, 10**6) if level == 0 else range(1, 10**6, 2)
    nodes = []
    for k in ks:
        t = k * h
        if t > _T_CAP:
            break
        ch = math.cosh(_PI_HALF * math.sinh(t))
        weight = _PI_HALF * math.cosh(t) / (2.0 * ch * ch)
        if weight < _WEIGHT_FLOOR and k > 0:
            break
        u = math.tanh(_PI_HALF * math.sinh(t))
        nodes.append((0.5 * (1.0 + u), 0.5 * (1.0 - u), weight, k == 0))
    return tuple(nodes)


def _level_sum(func: Callable[[float], float], level: int) -> float:
    total = 0.0
    for s_hi, s_lo, weight, is_center in _level_nodes(level):
        if is_center:
            fs = func(s_hi)
        else:
            fs = func(s_hi) + func(s_lo)
        if not math.isfinite(fs):
            raise ValueError(f"integrand not finite near s={s_hi!r}/{s_lo!r}")
        total += weight * fs
    return total


def integrate(func: Callable[[float], float], tol: float = 1e-12) -> QuadratureResult:
    """Integrate func over [0,1] to the absolute tolerance `tol` > 0.

    Returns the best value together with the level-difference error
    estimate; `converged` is only set when two consecutive refinements
    stayed within `tol`.  Non-convergence is not an exception - the
    caller decides.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    value = 0.0
    previous = None
    error = math.inf
    streak = 0
    level = 0
    for level in range(_MAX_LEVELS + 1):
        h = 1.0 / (1 << level)
        partial = _level_sum(func, level)
        value = partial * h if previous is None else 0.5 * value + partial * h
        if previous is not None:
            error = abs(value - previous)
            if level >= _MIN_LEVELS:
                if error <= tol:
                    streak += 1
                    if streak >= 2:
                        return QuadratureResult(value, error, level, True)
                else:
                    streak = 0
        previous = value
    return QuadratureResult(value, error, level, False)

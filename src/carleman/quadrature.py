"""Double-exponential (tanh-sinh) quadrature on the unit interval.

The substitution s(t) = (1 + tanh((pi/2)*sinh(t)))/2 maps the real line
onto (0,1) and pushes the trapezoid rule's error down double-exponentially
for integrands that are analytic inside and merely continuous (possibly
with s**s- or log-type structure) at the endpoints.  Levels halve the step
size and reuse all previous evaluations; the error estimate is the change
between consecutive levels, and convergence requires that change to stay
within tolerance twice in a row, since a single small difference can be a
plateau rather than the limit.

Both entry points run one level loop, in which each node pair adds
weight * (f_hi * s_hi**power + f_lo * s_lo**power).  `integrate` calls
its integrand at every node of every call, with power 0: s**0 == 1.0, so
that is the plain sum.  The moment integrals, a fixed density times a
power of s, go through `integrate_moment`: the density's values at each
level's nodes are tabulated once per process, so a call costs only the
powers and the sum, and gives integrate()'s result bit for bit.

Scope is deliberately [0,1] only; that is the only interval the rest of
the package integrates over.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

_PI_HALF = math.pi / 2.0

# A level ends at its first weight below this (by t = 4 at every level): such
# abscissas cannot move a double-precision result for bounded integrands.
_WEIGHT_FLOOR = 1e-19

# The step halves up to _MAX_LEVELS times; convergence counts from _MIN_LEVELS.
_MIN_LEVELS = 3
_MAX_LEVELS = 10


@dataclasses.dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    levels_used: int
    converged: bool

    @property
    def evaluations(self) -> int:
        """Integrand evaluations of levels 0..levels_used: two per node pair."""
        return 2 * sum(len(_level_nodes(level)) for level in range(self.levels_used + 1))

    def scaled(self, factor: float, offset: float = 0.0) -> "QuadratureResult":
        """Result of the affine transform factor*value + offset."""
        return dataclasses.replace(self, value=factor * self.value + offset,
                                   error_estimate=abs(factor) * self.error_estimate)


@functools.cache
def _level_nodes(level: int) -> tuple:
    """(s_hi, s_lo, weight) for the node pairs new at `level`.

    Level 0 holds every abscissa of the unit-step grid, level L >= 1 only
    the odd multiples of 2**-L; the centre t = 0 is the pair (1/2, 1/2) at
    half weight, the same double sum.  Each level is built once per process.
    """
    h = 1.0 / (1 << level)
    ks = range(0, 10**6) if level == 0 else range(1, 10**6, 2)
    nodes = []
    for k in ks:
        t = k * h
        ch = math.cosh(_PI_HALF * math.sinh(t))
        weight = _PI_HALF * math.cosh(t) / (2.0 * ch * ch)
        if weight < _WEIGHT_FLOOR:
            break
        u = math.tanh(_PI_HALF * math.sinh(t))
        nodes.append((0.5 * (1.0 + u), 0.5 * (1.0 - u), weight / 2.0 if k == 0 else weight))
    return tuple(nodes)


def _values(func: Callable[[float], float], level: int) -> tuple:
    """(func(s_hi), func(s_lo)) at the node pairs new at `level`."""
    values = []
    for s_hi, s_lo, _ in _level_nodes(level):
        f_hi, f_lo = func(s_hi), func(s_lo)
        if not math.isfinite(f_hi + f_lo):
            raise ValueError(f"integrand not finite near s={s_hi!r}/{s_lo!r}")
        values.append((f_hi, f_lo))
    return tuple(values)


# A module-level density's values, built once per process per level; only
# module-level densities are passed, so the tables stay bounded.
_level_values = functools.cache(_values)


@functools.cache
def _mirrored_nodes(level: int) -> tuple:
    """_level_nodes(level) with each abscissa s replaced by 1.0 - s."""
    return tuple((1.0 - s_hi, 1.0 - s_lo, weight) for s_hi, s_lo, weight in _level_nodes(level))


def _converge(nodes: Callable[[int], tuple], values: Callable[[int], tuple], power: int,
              tol: float) -> QuadratureResult:
    """Halve the step level by level until two differences in a row are within `tol`.

    Each node pair of nodes(level), with its values(level), adds
    weight * (f_hi * s_hi**power + f_lo * s_lo**power) to the level's sum.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    value, error = 0.0, math.inf
    for level in range(_MAX_LEVELS + 1):
        total = 0.0
        for (s_hi, s_lo, weight), (f_hi, f_lo) in zip(nodes(level), values(level)):
            total += weight * (f_hi * s_hi**power + f_lo * s_lo**power)
        previous, last = value, error
        value = 0.5 * value + total / (1 << level)
        error = abs(value - previous)
        if level > _MIN_LEVELS and max(error, last) <= tol:
            return QuadratureResult(value, error, level, True)
    return QuadratureResult(value, error, _MAX_LEVELS, False)


def integrate(func: Callable[[float], float], tol: float = 1e-12) -> QuadratureResult:
    """Integrate func over [0,1] to the absolute tolerance `tol` > 0.

    Returns the best value together with the level-difference error
    estimate; `converged` is only set when two consecutive refinements
    stayed within `tol`.  Non-convergence is not an exception - the
    caller decides.  func is called at every node of every call.
    """
    return _converge(_level_nodes, functools.partial(_values, func), 0, tol)


def integrate_moment(density: Callable[[float], float], power: int, tol: float = 1e-12,
                     *, mirror: bool = False) -> QuadratureResult:
    """integrate(lambda s: density(s) * s**power, tol), bit for bit, from tabulated densities.

    With mirror=True the weight is (1.0 - s)**power instead.  `density`
    must be a module-level function: its values at each level's nodes
    are computed once per process, and only the powers per call.
    """
    nodes = _mirrored_nodes if mirror else _level_nodes
    return _converge(nodes, functools.partial(_level_values, density), power, tol)

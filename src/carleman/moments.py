"""Coefficients recovered from integral representations, plus identity checks.

For n >= 2 the expansion coefficients equal moments of the density,

    c_n = (1/e) * int_0^1 density(s) * s**(n-2) ds
        = (1/e) * int_0^1 density(s) * (1-s)**(n-2) ds,

and, after integrating by parts (the boundary terms vanish),

    c_n = -1/((n-1)e) * int_0^1 density'(s) * s**(n-1) ds.

These give independent numerical routes to the exact tables and are the
basis of the verification sweep.  The representations start at n = 2;
c_1 = 1/2 is not covered by them.
"""

from __future__ import annotations

import dataclasses

from .integrands import E, EndpointSafeFunction, moment_density, moment_density_derivative
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureResult, integrate
from .report import Check, FAIL, PASS

CLAIM_MOMENT_REP = "Eq. (3.1)"
CLAIM_MOMENT_REP_SHIFTED = "Eq. (3.9)"
CLAIM_PARTS_REP = "Eq. (3.10)"
CLAIM_REMARK = "Remark"
CLAIM_ENDPOINT_LIMIT = "Eq. (2.3)"


def coefficient_by_moment(
    n: int, config: QuadratureConfig = DEFAULT_CONFIG, *, mirror: bool = False
) -> QuadratureResult:
    """c_n as (1/e) * int density(s) * s**(n-2) ds, for n >= 2.

    With mirror=True the equivalent (1-s)**(n-2) weighting is integrated
    instead; the two must agree and the verification sweep checks that.
    """
    if n < 2:
        raise ValueError("the moment representation needs n >= 2")
    power = n - 2
    if mirror:
        func = lambda s: moment_density(s) * (1.0 - s) ** power
    else:
        func = lambda s: moment_density(s) * s**power
    return integrate(func, config).scaled(1.0 / E)


def coefficient_by_parts(n: int, config: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """c_n as -1/((n-1)e) * int density'(s) * s**(n-1) ds, for n >= 2."""
    if n < 2:
        raise ValueError("the integrated-by-parts representation needs n >= 2")
    power = n - 1
    result = integrate(lambda s: moment_density_derivative(s) * s**power, config)
    return result.scaled(-1.0 / ((n - 1) * E))


def scaled_derivative_moment(n: int, config: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """n * int_0^1 s**n * density'(s) ds.

    As n grows the mass concentrates at s=1 and the value drifts toward
    density'(1) = -1; no convergence rate is asserted, callers report the
    observed values.  The error estimate is scaled by n with the value,
    and `converged` also requires that scaled estimate to be within
    `config.target_abs_tol`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    result = integrate(lambda s: moment_density_derivative(s) * s**n, config).scaled(float(n))
    within = result.error_estimate <= config.target_abs_tol
    return dataclasses.replace(result, converged=result.converged and within)


#: The four closed-form integrals of the density: plain, first moment,
#: and the two endpoint-weighted forms (which are equal).
DENSITY_IDENTITIES = (
    ("density-integral", "int density", E / 24.0),
    ("density-first-moment", "int density * s", E / 48.0),
    ("density-over-s", "int density / s", E / 2.0 - 1.0),
    ("density-over-1-minus-s", "int density / (1-s)", E / 2.0 - 1.0),
)


def _identity_integrands() -> dict:
    return {
        "density-integral": moment_density,
        "density-first-moment": lambda s: moment_density(s) * s,
        "density-over-s": EndpointSafeFunction(
            lambda s: moment_density(s) / s, at_zero=1.0, at_one=0.0
        ),
        "density-over-1-minus-s": EndpointSafeFunction(
            lambda s: moment_density(s) / (1.0 - s), at_zero=0.0, at_one=1.0
        ),
    }


def density_identity_checks(
    config: QuadratureConfig = DEFAULT_CONFIG,
    tol: float = 1e-10,
    tol_endpoint_weighted: float = 1e-9,
) -> list[Check]:
    """Evaluate the four density integrals against their exact values.

    The 1/s and 1/(1-s) forms get the looser tolerance; their integrands
    carry the endpoint limits explicitly.
    """
    integrands = _identity_integrands()
    checks = []
    for name, formula, target in DENSITY_IDENTITIES:
        limit = tol_endpoint_weighted if name.startswith("density-over") else tol
        result = integrate(integrands[name], config)
        diff = result.value - target
        ok = result.converged and abs(diff) <= limit
        checks.append(
            Check(
                name=name,
                claim_ref=CLAIM_REMARK,
                status=PASS if ok else FAIL,
                detail=f"{formula} = {result.value!r}, target {target!r}, diff {diff:.3e}",
                values={
                    "value": result.value,
                    "target": target,
                    "difference": diff,
                    "tolerance": limit,
                    "converged": result.converged,
                },
            )
        )
    return checks

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
from .quadrature import QuadratureResult, integrate
from .report import Check, FAIL, PASS

CLAIM_MOMENT_REP = "Eq. (3.1)"
CLAIM_MOMENT_REP_SHIFTED = "Eq. (3.9)"
CLAIM_PARTS_REP = "Eq. (3.10)"
CLAIM_REMARK = "Remark"
CLAIM_ENDPOINT_LIMIT = "Eq. (2.3)"


def coefficient_by_moment(n: int, tol: float = 1e-12, *, mirror: bool = False) -> QuadratureResult:
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
    return integrate(func, tol).scaled(1.0 / E)


def coefficient_by_parts(n: int, tol: float = 1e-12) -> QuadratureResult:
    """c_n as -1/((n-1)e) * int density'(s) * s**(n-1) ds, for n >= 2."""
    if n < 2:
        raise ValueError("the integrated-by-parts representation needs n >= 2")
    power = n - 1
    result = integrate(lambda s: moment_density_derivative(s) * s**power, tol)
    return result.scaled(-1.0 / ((n - 1) * E))


def scaled_derivative_moment(n: int, tol: float = 1e-12) -> QuadratureResult:
    """n * int_0^1 s**n * density'(s) ds.

    As n grows the mass concentrates at s=1 and the value drifts toward
    density'(1) = -1; no convergence rate is asserted, callers report the
    observed values.  The error estimate is scaled by n with the value,
    and `converged` also requires that scaled estimate to be within `tol`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    result = integrate(lambda s: moment_density_derivative(s) * s**n, tol).scaled(float(n))
    within = result.error_estimate <= tol
    return dataclasses.replace(result, converged=result.converged and within)


#: The four closed-form integrals of the density, as (name, formula,
#: target, integrand, endpoint_weighted): plain, first moment, and the two
#: endpoint-weighted forms, which are equal and whose integrands carry the
#: endpoint limits explicitly.
DENSITY_IDENTITIES = (
    ("density-integral", "int density", E / 24.0, moment_density, False),
    ("density-first-moment", "int density * s", E / 48.0,
     lambda s: moment_density(s) * s, False),
    ("density-over-s", "int density / s", E / 2.0 - 1.0,
     EndpointSafeFunction(lambda s: moment_density(s) / s, at_zero=1.0, at_one=0.0), True),
    ("density-over-1-minus-s", "int density / (1-s)", E / 2.0 - 1.0,
     EndpointSafeFunction(lambda s: moment_density(s) / (1.0 - s), at_zero=0.0, at_one=1.0),
     True),
)


def _identity_integrands() -> dict:
    return {name: integrand for name, _, _, integrand, _ in DENSITY_IDENTITIES}


def density_identity_checks(
    engine_tol: float = 1e-12,
    tol: float = 1e-10,
    tol_endpoint_weighted: float = 1e-9,
) -> list[Check]:
    """Evaluate the four density integrals against their exact values.

    Each is integrated to `engine_tol`; the endpoint-weighted forms are
    compared at the looser `tol_endpoint_weighted`, the others at `tol`.
    """
    checks = []
    for name, formula, target, integrand, endpoint_weighted in DENSITY_IDENTITIES:
        limit = tol_endpoint_weighted if endpoint_weighted else tol
        result = integrate(integrand, engine_tol)
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

"""The tanh-sinh engine on [0,1]."""

import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from carleman import (
    QuadratureResult,
    coefficient_by_moment,
    coefficient_by_parts,
    density_identity_checks,
    integrate,
    scaled_defect_by_quadrature,
    scaled_derivative_moment,
)


def test_constant():
    result = integrate(lambda s: 1.0)
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-14)


def test_linear():
    result = integrate(lambda s: s)
    assert result.converged
    assert result.value == pytest.approx(0.5, abs=1e-14)


def test_monomials_to_degree_ten():
    for k in range(11):
        result = integrate(lambda s, k=k: s**k)
        assert result.converged
        assert abs(result.value - 1.0 / (k + 1)) <= 1e-13, f"degree {k}"


def test_endpoint_structure():
    # sqrt has infinite derivative at 0; the double-exponential nodes
    # still deliver full precision
    result = integrate(math.sqrt)
    assert result.converged
    assert result.value == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_nodes_stay_in_closed_interval():
    # trailing abscissas saturate to exactly 0.0 / 1.0 in doubles, which
    # is why integrands carry explicit endpoint values; nothing may land
    # outside the interval though
    seen = []

    def probe(s):
        seen.append(s)
        return 1.0

    integrate(probe)
    assert seen
    assert all(0.0 <= s <= 1.0 for s in seen)
    assert any(0.4 < s < 0.6 for s in seen)


def test_converged_implies_error_within_tol():
    tol = 1e-12
    result = integrate(lambda s: math.exp(s), tol)
    assert result.converged
    assert result.error_estimate <= tol
    assert result.value == pytest.approx(math.e - 1.0, abs=1e-13)


def test_unreachable_tolerance_reports_nonconvergence():
    result = integrate(lambda s: math.cos(7.0 * s), 1e-30)
    assert not result.converged
    assert math.isfinite(result.value)
    # every level of the fixed schedule, 0..10, was spent
    assert result.levels_used == 10
    # the best value is still returned
    assert result.value == pytest.approx(math.sin(7.0) / 7.0, abs=1e-6)


def test_config_validation():
    # the tolerance is the engine's whole configuration; NaN fails `tol > 0`
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate(lambda s: 1.0, tol)


def test_non_finite_integrand_rejected():
    with pytest.raises(ValueError):
        integrate(lambda s: float("nan"))
    with pytest.raises(ValueError):
        integrate(lambda s: 1.0 / (s - 0.5) if s != 0.5 else float("inf"))


def test_scaled_result():
    base = QuadratureResult(value=2.0, error_estimate=1e-12, levels_used=5, converged=True)
    out = base.scaled(-3.0, offset=1.0)
    assert out.value == -5.0
    assert out.error_estimate == 3e-12
    assert out.levels_used == 5
    assert out.converged


def test_default_config():
    # the engine and every integral built on it default to tol 1e-12
    for func, name in (
        (integrate, "tol"),
        (coefficient_by_moment, "tol"),
        (coefficient_by_parts, "tol"),
        (scaled_derivative_moment, "tol"),
        (scaled_defect_by_quadrature, "tol"),
        (density_identity_checks, "engine_tol"),
    ):
        assert inspect.signature(func).parameters[name].default == 1e-12, func.__name__


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=7))
@settings(max_examples=40, deadline=None)
def test_polynomials_match_antiderivative(coeffs):
    def poly(s):
        acc = 0.0
        for c in coeffs:
            acc = acc * s + c
        return acc

    # exact integral over [0,1]: sum c_i/(deg-i+1) with c_0 leading
    deg = len(coeffs) - 1
    exact = sum(c / (deg - i + 1) for i, c in enumerate(coeffs))
    result = integrate(poly)
    assert abs(result.value - exact) <= 1e-11

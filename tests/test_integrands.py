"""Pointwise evaluation: the density, its derivative, the scaled defect."""

import math

import pytest

from carleman import (
    E,
    EndpointSafeFunction,
    entropy_weight,
    moment_density,
    moment_density_derivative,
    scaled_defect,
    scaled_defect_by_quadrature,
)
from carleman.integrands import compound_power


def test_density_endpoints_and_center():
    assert moment_density(0.0) == 0.0
    assert moment_density(1.0) == 0.0
    assert moment_density(0.5) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)


def test_density_nonnegative():
    for i in range(1001):
        assert moment_density(i / 1000.0) >= 0.0


def test_density_rejects_outside_domain():
    with pytest.raises(ValueError):
        moment_density(-0.1)
    with pytest.raises(ValueError):
        moment_density(1.1)


def test_derivative_endpoints_and_center():
    assert moment_density_derivative(0.0) == 1.0
    assert moment_density_derivative(1.0) == -1.0
    assert moment_density_derivative(0.5) == pytest.approx(0.0, abs=1e-15)


def test_derivative_continuous_at_endpoints():
    # sampled continuity: near each endpoint the value is within 1e-4 of
    # the stored limit
    assert abs(moment_density_derivative(1e-6) - 1.0) <= 1e-4
    assert abs(moment_density_derivative(1.0 - 1e-6) + 1.0) <= 1e-4


def test_derivative_matches_finite_difference():
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        step = 1e-6
        approx = (moment_density(s + step) - moment_density(s - step)) / (2.0 * step)
        assert moment_density_derivative(s) == pytest.approx(approx, abs=1e-8)


def test_entropy_weight():
    assert entropy_weight(0.0) == 1.0
    assert entropy_weight(1.0) == 1.0
    assert entropy_weight(0.5) == pytest.approx(0.5, abs=1e-15)


def test_endpoint_safe_window():
    func = EndpointSafeFunction(lambda s: math.log(s), at_zero=-99.0, at_one=77.0)
    assert func(0.0) == -99.0
    assert func(1e-13) == -99.0
    assert func(1.0) == 77.0
    assert func(1.0 - 1e-13) == 77.0
    assert func(0.5) == math.log(0.5)
    with pytest.raises(ValueError):
        func(2.0)


def test_scaled_defect_known_points():
    assert scaled_defect(1.0) == pytest.approx(2.0 * (E - 2.0), abs=1e-14)
    assert scaled_defect(0.5) == pytest.approx(1.5 * (E - math.sqrt(3.0)), abs=1e-13)
    assert scaled_defect(0.5) == pytest.approx(1.4793465313352517, abs=1e-12)


def test_scaled_defect_rejects_nonpositive():
    with pytest.raises(ValueError):
        scaled_defect(0.0)
    with pytest.raises(ValueError):
        scaled_defect(-1.0)


def test_compound_power_finite_where_reciprocal_overflows():
    for x in (1e-300, 0.5, 3.0, 1e17):
        assert compound_power(x) == math.exp(x * math.log1p(1.0 / x))
    assert math.isinf(1.0 / 1e-320)
    assert compound_power(1e-320) == 1.0


def test_scaled_defect_limit_behavior():
    """For large x the defect settles at e/2 plus a vanishing 1/(x+1) term.

    The leading correction is (e/24)/(x+1).  The closed form subtracts
    two numbers near e and then multiplies by x+1, so its own noise
    floor is about (x+1)*ulp(e) ~ 4e-10 at x = 1e6; the residual check
    stays above that.
    """
    x = 1e6
    value = scaled_defect(x)
    assert abs(value - E / 2.0) <= 1.2e-7
    assert abs(value - (E / 2.0 + E / 24.0 / (x + 1.0))) <= 2e-9


def test_scaled_defect_minus_half_e_positive_decreasing():
    grid = (0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e4)
    values = [scaled_defect(x) - E / 2.0 for x in grid]
    assert all(v > 0.0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_closed_and_integral_forms_agree():
    for x, tol in ((0.1, 1e-9), (0.5, 1e-9), (1.0, 1e-10), (2.0, 1e-9),
                   (10.0, 1e-10), (100.0, 1e-9), (0.01, 1e-8), (1e6, 1e-6)):
        by_quad = scaled_defect_by_quadrature(x)
        assert by_quad.converged, f"x={x}"
        assert abs(scaled_defect(x) - by_quad.value) <= tol, f"x={x}"


def test_integral_form_rejects_nonpositive():
    with pytest.raises(ValueError):
        scaled_defect_by_quadrature(0.0)

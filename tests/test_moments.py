"""Coefficient recovery from the integral representations."""

import dataclasses

import pytest

from carleman import (
    E,
    PASS,
    coefficient_by_moment,
    coefficient_by_parts,
    density_identity_checks,
    scaled_derivative_moment,
)
from carleman import moments


def test_moment_small_orders():
    assert coefficient_by_moment(2).value == pytest.approx(1.0 / 24.0, abs=1e-10)
    assert coefficient_by_moment(3).value == pytest.approx(1.0 / 48.0, abs=1e-10)


def test_moment_against_exact_table(table200):
    for n in range(2, 31):
        result = coefficient_by_moment(n)
        assert result.converged
        assert abs(result.value - float(table200.value(n))) <= 1e-10, f"n={n}"


def test_mirror_agreement(table200):
    for n in range(2, 31):
        plain = coefficient_by_moment(n)
        mirrored = coefficient_by_moment(n, mirror=True)
        assert abs(plain.value - mirrored.value) <= 1e-11, f"n={n}"
        assert abs(mirrored.value - float(table200.value(n))) <= 1e-10, f"n={n}"


def test_parts_small_orders():
    assert coefficient_by_parts(2).value == pytest.approx(1.0 / 24.0, abs=1e-9)
    assert coefficient_by_parts(5).value == pytest.approx(0.00859375, abs=1e-9)


def test_parts_against_exact_table(table200):
    for n in range(2, 31):
        result = coefficient_by_parts(n)
        assert result.converged
        assert abs(result.value - float(table200.value(n))) <= 1e-9, f"n={n}"


def test_representations_reject_first_order():
    with pytest.raises(ValueError):
        coefficient_by_moment(1)
    with pytest.raises(ValueError):
        coefficient_by_parts(1)
    with pytest.raises(ValueError):
        scaled_derivative_moment(0)


def test_first_derivative_moment_closed_form():
    # L(1) = int_0^1 s * density'(s) ds = -e/24
    result = scaled_derivative_moment(1)
    assert result.converged
    assert result.value == pytest.approx(-E / 24.0, abs=1e-9)


def test_derivative_moment_consistent_with_parts():
    # the parts representation at order 5 is -L(4)/(16 e)
    left = coefficient_by_parts(5).value
    right = -scaled_derivative_moment(4).value / (16.0 * E)
    assert left == pytest.approx(right, abs=1e-13)


def test_derivative_moment_drifts_toward_minus_one():
    distances = [abs(scaled_derivative_moment(n).value + 1.0) for n in (10, 50, 200)]
    assert all(b < a for a, b in zip(distances, distances[1:]))


def test_density_identity_checks_pass():
    checks = density_identity_checks()
    assert [c.name for c in checks] == [
        "density-integral",
        "density-first-moment",
        "density-over-s",
        "density-over-1-minus-s",
    ]
    assert all(c.status == PASS for c in checks)
    assert all(c.claim_ref == "Remark" for c in checks)


def test_density_identity_values():
    checks = {c.name: c for c in density_identity_checks()}
    assert checks["density-integral"].values["value"] == pytest.approx(E / 24.0, abs=1e-10)
    assert checks["density-first-moment"].values["value"] == pytest.approx(E / 48.0, abs=1e-10)
    half_e_minus_one = E / 2.0 - 1.0
    assert checks["density-over-s"].values["value"] == pytest.approx(half_e_minus_one, abs=1e-9)
    assert checks["density-over-1-minus-s"].values["value"] == pytest.approx(
        half_e_minus_one, abs=1e-9
    )
    # the two endpoint-weighted integrals agree with each other as well
    assert checks["density-over-s"].values["value"] == pytest.approx(
        checks["density-over-1-minus-s"].values["value"], abs=1e-9
    )


def test_moment_error_estimates_far_below_tolerance():
    """The engine leaves ~6 decades of headroom under the check tolerances."""
    for n in (2, 10, 20, 30):
        assert coefficient_by_moment(n).error_estimate <= 1e-15
        assert coefficient_by_parts(n).error_estimate <= 1e-14


def test_large_order_concentration():
    # at n=200 the integrand mass hugs s=1; the engine still resolves it
    result = scaled_derivative_moment(200)
    assert result.converged
    assert -1.0 < result.value < -0.9


def test_scaled_estimate_decides_convergence():
    # at n = 10**17 the raw integral settles within tolerance, but scaled
    # by n its error estimate is ~7 and the value lies far outside the
    # true range (-1, 0); that must not be reported as converged
    tol = 1e-12
    result = scaled_derivative_moment(10**17, tol)
    assert result.error_estimate > tol
    assert not result.converged


def test_unconverged_integral_is_not_converged_whatever_its_estimate(monkeypatch):
    integrate_moment = moments.integrate_moment
    monkeypatch.setattr(moments, "integrate_moment", lambda *args: dataclasses.replace(
        integrate_moment(*args), converged=False))
    result = scaled_derivative_moment(10)
    assert result.error_estimate <= 1e-12
    assert result.converged is False

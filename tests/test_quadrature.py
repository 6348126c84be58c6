"""The tanh-sinh engine on [0,1]."""

import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from carleman import (
    E,
    QuadratureResult,
    coefficient_by_moment,
    coefficient_by_parts,
    density_identity_checks,
    integrate,
    moment_density,
    moment_density_derivative,
    scaled_defect_by_quadrature,
    scaled_derivative_moment,
)
from carleman.moments import DENSITY_IDENTITIES
from carleman.quadrature import _level_nodes, _level_values, integrate_moment

#: Tolerances for the table path; at 1e-30 most integrals spend all 11 levels unconverged.
TABLE_TOLS = (1e-10, 1e-12, 1e-15, 1e-30)


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


def test_level_node_counts():
    """The 1e-19 weight floor alone ends each level, by t = 4 at every level."""
    counts = [len(_level_nodes(level)) for level in range(11)]
    assert counts == [4, 3, 7, 14, 27, 55, 109, 218, 437, 874, 1747]


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


@pytest.mark.parametrize("func, levels", [
    (lambda s: 1.0, 4),
    (lambda s: s, 4),
    (math.sqrt, 4),
    (lambda s: math.cos(7.0 * s), 5),
], ids=["one", "s", "sqrt", "cos7s"])
def test_convergence_counts_two_small_differences_from_level_3(func, levels):
    """The level-3 difference is the first that counts; two in a row end the run."""
    result = integrate(func)
    assert result.converged and result.levels_used == levels
    # at tol 0.1 the differences of levels 1 and 2 are within tol already
    result = integrate(func, 0.1)
    assert result.converged and result.levels_used == 4


def test_convergence_needs_the_two_small_differences_in_a_row():
    """A spike at the first new node of level 4 makes that level's difference
    1.5 tol, between small ones: the count starts over and ends at level 6."""
    s4, _, w4 = _level_nodes(4)[0]
    delta = 1.5e-12 / (w4 / 16)
    result = integrate(lambda s: 1.0 + delta * (s == s4), 1e-12)
    assert result.converged and result.levels_used == 6


def test_config_validation():
    # the tolerance is the engine's whole configuration; NaN fails `tol > 0`
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            integrate(lambda s: 1.0, tol)


def test_non_finite_integrand_rejected():
    with pytest.raises(ValueError, match="integrand not finite near s="):
        integrate(lambda s: float("nan"))
    with pytest.raises(ValueError, match="integrand not finite near s="):
        integrate(lambda s: 1.0 / (s - 0.5) if s != 0.5 else float("inf"))


def test_scaled_result():
    base = QuadratureResult(value=2.0, error_estimate=1e-12, levels_used=5, converged=True)
    out = base.scaled(-3.0, offset=1.0)
    assert out.value == -5.0
    assert out.error_estimate == 3e-12
    assert out.levels_used == 5
    assert out.converged


def test_evaluations_are_two_per_node_pair_of_the_levels_used():
    assert QuadratureResult(value=2.0, error_estimate=0.0, levels_used=5,
                            converged=True).evaluations == 2 * 110
    calls = []
    result = integrate(lambda s: calls.append(s) or math.exp(s))
    assert result.evaluations == len(calls) == 2 * 110
    assert result.scaled(3.0).evaluations == result.evaluations
    unconverged = integrate(lambda s: math.cos(7.0 * s), 1e-30)
    assert unconverged.evaluations == 2 * 3495


def fields(result):
    return result.value.hex(), result.error_estimate.hex(), result.levels_used, result.converged


@pytest.mark.parametrize("tol", TABLE_TOLS)
def test_tabulated_moments_match_integrate_bit_for_bit(tol):
    """Each moment integral equals integrate() on its integrand, built per call."""
    for n in range(2, 201):
        p = n - 2
        plain = integrate(lambda s: moment_density(s) * s**p, tol).scaled(1.0 / E)
        mirror = integrate(lambda s: moment_density(s) * (1.0 - s) ** p, tol).scaled(1.0 / E)
        parts = integrate(lambda s: moment_density_derivative(s) * s ** (n - 1), tol)
        assert fields(coefficient_by_moment(n, tol)) == fields(plain), n
        assert fields(coefficient_by_moment(n, tol, mirror=True)) == fields(mirror), n
        assert fields(coefficient_by_parts(n, tol)) == fields(parts.scaled(-1.0 / ((n - 1) * E)))
    for n in (10, 50, 200, 10**17):
        raw = integrate(lambda s: moment_density_derivative(s) * s**n, tol).scaled(float(n))
        expected = (*fields(raw)[:3], raw.converged and raw.error_estimate <= tol)
        assert fields(scaled_derivative_moment(n, tol)) == expected, n
    for name, _, _, integrand, _ in DENSITY_IDENTITIES:
        tabulated = integrate_moment(integrand, 0, tol)
        assert fields(tabulated) == fields(integrate(integrand, tol)), name
    if tol == 1e-30:
        assert fields(coefficient_by_moment(200, tol))[2:] == (10, False)


def test_tables_stay_bounded():
    """One table per tabulated density and level, whatever the orders and tolerances."""
    densities = {moment_density, moment_density_derivative,
                 *(integrand for _, _, _, integrand, _ in DENSITY_IDENTITIES)}
    for tol in TABLE_TOLS:
        for n in (*range(2, 60), 200, 10**6, 10**17):
            coefficient_by_moment(n, tol)
            coefficient_by_moment(n, tol, mirror=True)
            coefficient_by_parts(n, tol)
            scaled_derivative_moment(n, tol)
        density_identity_checks(tol)
    assert _level_values.cache_info().currsize <= len(densities) * 11 == 55


def test_non_finite_density_rejected_where_tabulated():
    tables = _level_values.cache_info().currsize
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="integrand not finite near s="):
            integrate_moment(lambda s, value=value: value, 3)
    # a table that failed is not kept
    assert _level_values.cache_info().currsize == tables


def test_default_config():
    # the engine and every integral built on it default to tol 1e-12
    for func, name in (
        (integrate, "tol"),
        (integrate_moment, "tol"),
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

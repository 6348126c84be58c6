"""The assembled verification sweep."""

import dataclasses
import math
import re
from fractions import Fraction

import pytest

from carleman import (
    FAIL,
    PASS,
    REPORTED,
    CoefficientTable,
    corrupted_table,
    engine_config,
    run_verification,
)
from carleman import integrands, moments, verify
from carleman.verify import E_HI, E_LO, partial_sum_check

# wire format: these names and their order are frozen
EXPECTED_CHECK_NAMES = [
    "oracle-equivalence",
    "coefficient-bound",
    "coefficient-decrease",
    "ratio-trend",
    "moment-representation",
    "moment-mirror-agreement",
    "parts-representation",
    "density-integral",
    "density-first-moment",
    "density-over-s",
    "density-over-1-minus-s",
    "gap-function-agreement",
    "partial-sum-sandwich",
    "endpoint-moment-limit",
]

EXPECTED_CLAIM_REFS = {
    "oracle-equivalence": "Eq. (3.5)",
    "coefficient-bound": "Eq. (3.2)",
    "coefficient-decrease": "Eq. (3.3)",
    "ratio-trend": "Eq. (3.4)",
    "moment-representation": "Eq. (3.1)",
    "moment-mirror-agreement": "Eq. (3.9)",
    "parts-representation": "Eq. (3.10)",
    "density-integral": "Remark",
    "density-first-moment": "Remark",
    "density-over-s": "Remark",
    "density-over-1-minus-s": "Remark",
    "gap-function-agreement": "Eq. (2.2)",
    "partial-sum-sandwich": "Remark",
    "endpoint-moment-limit": "Eq. (2.3)",
}


@pytest.fixture(scope="module")
def small_report():
    return run_verification(max_n=50, quad_max=10)


def test_sweep_passes(small_report):
    assert small_report.all_passed
    assert small_report.summary["failed"] == 0
    assert small_report.summary["reported"] == 1


def test_check_names_and_order(small_report):
    assert [c.name for c in small_report.checks] == EXPECTED_CHECK_NAMES


def test_claim_anchors(small_report):
    for check in small_report.checks:
        assert check.claim_ref == EXPECTED_CLAIM_REFS[check.name]


def test_endpoint_limit_is_reported_not_asserted(small_report):
    by_name = {c.name: c for c in small_report.checks}
    check = by_name["endpoint-moment-limit"]
    assert check.status == REPORTED
    assert check.values["ns"] == [10, 50, 200]
    assert all(-1.0 < L < 0.0 for L in check.values["L"])


def test_quadrature_margins(small_report):
    by_name = {c.name: c for c in small_report.checks}
    for name in ("moment-representation", "moment-mirror-agreement", "parts-representation"):
        check = by_name[name]
        assert check.status == PASS
        # diffs run ~1e-17, tolerances 1e-11..1e-9: huge headroom
        assert check.values["max_abs_diff"] <= check.values["tolerance"] / 100.0


SWEEP_LABELS = {
    "moment-representation": "quadrature - exact",
    "moment-mirror-agreement": "plain - mirrored",
    "parts-representation": "quadrature - exact",
}


def test_sweep_check_layout(small_report):
    by_name = {c.name: c for c in small_report.checks}
    for name, label in SWEEP_LABELS.items():
        check = by_name[name]
        assert set(check.values) == {
            "quad_max", "max_abs_diff", "worst_n", "tolerance", "all_converged"
        }
        assert check.values["quad_max"] == 10
        assert 2 <= check.values["worst_n"] <= 10
        assert re.fullmatch(
            rf"max \|{label}\| = \d\.\d{{3}}e[+-]\d+ at n=\d+ "
            rf"over n in \[2, 10\], tolerance \d\.\de[+-]\d+",
            check.detail,
        ), check.detail
    gap = by_name["gap-function-agreement"]
    assert set(gap.values) == {
        "sample_xs", "max_abs_diff", "worst_x", "tolerance", "all_converged"
    }
    assert gap.values["sample_xs"] == [0.1, 0.5, 1.0, 2.0, 10.0, 100.0]
    assert gap.values["worst_x"] in gap.values["sample_xs"]
    assert re.fullmatch(
        r"max \|closed - integral\| = \d\.\d{3}e[+-]\d+ at x=[\d.]+ "
        r"over x in \[0\.1, 0\.5, 1\.0, 2\.0, 10\.0, 100\.0\], tolerance 1\.0e-09",
        gap.detail,
    ), gap.detail
    assert by_name["moment-mirror-agreement"].detail.endswith("tolerance 1.0e-11")


@pytest.mark.parametrize("max_n, ns", [(5, [5]), (30, [10]), (200, [10, 50, 200])])
def test_partial_sum_gaps_match_fraction_sums(max_n, ns):
    """Each gap is bit for bit the one computed from the reduced Fraction sum."""
    table = CoefficientTable.from_recurrence(max_n)
    check = partial_sum_check(table)
    assert check.status == PASS
    assert check.values["ns"] == ns
    assert check.values["gaps"] == [
        (1 - 1 / math.e) - float(table.partial_sum(n)) for n in ns
    ]


def test_e_bracket():
    """E_LO is the series of e to k = 40; E_HI adds the bound 1/(40! 40) of its tail."""
    assert E_HI - E_LO == Fraction(1, math.factorial(40) * 40)
    assert float(E_LO) == float(E_HI) == math.e


@pytest.mark.parametrize("partial_sum, status", [
    (1 - 1 / E_LO - Fraction(1, 10**13), PASS),
    (1 - 1 / E_LO, FAIL),
    (1 - 1 / E_HI, FAIL),
    (Fraction(1, 10), FAIL),
], ids=["gap-1e-13", "gap-unproved", "gap-negative", "gap-past-cap"])
def test_partial_sum_sandwich_is_exact(partial_sum, status):
    """One-entry tables: a true gap of 1e-13 is proved, though a float guard
    of 1e-12 would refuse it; at 1 - 1/E_LO the true gap is positive but
    below what the bracket can prove, and at 1 - 1/E_HI it is negative.
    At 1/10 the gap exceeds its cap 1/2."""
    table = CoefficientTable((partial_sum.numerator,), partial_sum.denominator)
    assert partial_sum_check(table).status == status


def test_fault_injection_fails_decrease_check():
    table = corrupted_table(CoefficientTable.from_recurrence(50), 30)
    report = run_verification(quad_max=10, table=table)
    assert not report.all_passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["coefficient-decrease"].status == FAIL
    assert by_name["coefficient-decrease"].claim_ref == "Eq. (3.3)"
    # the series oracle, built fresh, notices the discrepancy too
    assert by_name["oracle-equivalence"].status == FAIL


def test_sweep_completes_on_a_table_with_a_zero_entry():
    """N_4 = 0 leaves no float last ratio; ratio-trend fails and every later check still runs."""
    report = run_verification(quad_max=2, table=CoefficientTable((3, 2, 1, 0, 5), 6))
    by_name = {c.name: c for c in report.checks}
    assert by_name["ratio-trend"].status == FAIL
    assert by_name["ratio-trend"].values["last_ratio"] is None
    assert "endpoint-moment-limit" in by_name
    assert report.summary["failed"] == 7
    assert '"last_ratio": null' in report.to_json()


def test_prebuilt_table_overrides_max_n(table200):
    report = run_verification(max_n=10, quad_max=5, table=table200)
    by_name = {c.name: c for c in report.checks}
    assert by_name["oracle-equivalence"].values["compared_n"] == 200


QUADRATURE_CHECKS = [
    "moment-representation",
    "moment-mirror-agreement",
    "parts-representation",
    "density-integral",
    "density-first-moment",
    "density-over-s",
    "density-over-1-minus-s",
    "gap-function-agreement",
]


def unconverged(func):
    """func with the converged flag of every result cleared."""
    return lambda *args, **kwargs: dataclasses.replace(func(*args, **kwargs), converged=False)


def test_nonconvergence_fails_every_quadrature_check(monkeypatch):
    # verify reaches the integrator through moments and integrands alone
    monkeypatch.setattr(moments, "integrate_moment", unconverged(moments.integrate_moment))
    monkeypatch.setattr(integrands, "integrate", unconverged(integrands.integrate))
    report = run_verification(max_n=10, quad_max=5)
    failed = [c.name for c in report.checks if c.status == FAIL]
    assert failed == QUADRATURE_CHECKS
    by_name = {c.name: c for c in report.checks}
    assert by_name["moment-representation"].values["all_converged"] is False
    assert by_name["density-integral"].values["converged"] is False


@pytest.mark.parametrize("spoiled", ["plain", "mirrored"])
def test_mirror_agreement_needs_both_integrals_converged(monkeypatch, spoiled):
    moment = verify.coefficient_by_moment

    def spoil(n, tol, mirror=False):
        kind = "mirrored" if mirror else "plain"
        return dataclasses.replace(moment(n, tol, mirror=mirror), converged=kind != spoiled)

    monkeypatch.setattr(verify, "coefficient_by_moment", spoil)
    report = run_verification(max_n=10, quad_max=5)
    by_name = {c.name: c for c in report.checks}
    assert by_name["moment-mirror-agreement"].status == FAIL
    assert by_name["moment-mirror-agreement"].values["all_converged"] is False
    assert by_name["moment-representation"].status == (FAIL if spoiled == "plain" else PASS)


def test_parameter_validation():
    with pytest.raises(ValueError, match="max_n must be >= 4"):
        run_verification(max_n=3)
    with pytest.raises(ValueError, match="need 2 <= quad_max <= max_n"):
        run_verification(max_n=10, quad_max=20)
    with pytest.raises(ValueError, match="quad_max"):
        run_verification(quad_max=1)
    with pytest.raises(ValueError, match="tol must be positive"):
        run_verification(tol=0.0)


def test_engine_config_mapping():
    assert engine_config(1e-10) == 1e-12
    assert engine_config(1e-6) == 1e-8
    # clamped at the double-precision floor
    assert engine_config(1e-14) == 1e-15
    for tol in (0.0, -1e-10, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            engine_config(tol)

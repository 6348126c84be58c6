"""Report structure and JSON round-tripping."""

import json

import pytest

from carleman import (
    FAIL,
    PASS,
    REPORTED,
    Check,
    VerificationReport,
    report_from_json,
)


def make_report():
    return VerificationReport(checks=(
        Check(name="a", claim_ref="Eq. (3.2)", status=PASS, detail="fine",
              values={"n": 3, "diff": 1.5e-12}),
        Check(name="b", claim_ref="Eq. (3.3)", status=FAIL, detail="broken"),
        Check(name="c", claim_ref="Eq. (2.3)", status=REPORTED, detail="observed"),
    ))


def test_status_validation():
    with pytest.raises(ValueError):
        Check(name="x", claim_ref="y", status="maybe", detail="")


def test_summary_tally():
    report = make_report()
    assert report.summary == {"passed": 1, "failed": 1, "reported": 1}
    assert not report.all_passed
    assert VerificationReport(checks=report.checks[:1]).all_passed


def test_empty_report():
    report = VerificationReport()
    assert report.summary == {"passed": 0, "failed": 0, "reported": 0}
    assert report.all_passed


def test_schema_field_names():
    payload = make_report().to_dict()
    assert set(payload) == {"checks", "summary"}
    assert set(payload["summary"]) == {"passed", "failed", "reported"}
    for check in payload["checks"]:
        assert set(check) == {"name", "claim_ref", "status", "detail", "values"}


def test_json_round_trip():
    report = make_report()
    again = report_from_json(report.to_json())
    assert again == report
    assert again.to_dict() == report.to_dict()


def test_values_none_serializes_as_null():
    payload = json.loads(make_report().to_json())
    assert payload["checks"][1]["values"] is None


def test_mismatched_summary_rejected():
    payload = make_report().to_dict()
    payload["summary"]["passed"] = 99
    with pytest.raises(ValueError):
        report_from_json(json.dumps(payload))

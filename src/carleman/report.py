"""Machine-readable verification reports.

A report is a flat list of named checks plus a pass/fail/reported tally.
The JSON field names below are stable; downstream consumers may rely on
them (see README, "Report schema").
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

PASS = "pass"
FAIL = "fail"
REPORTED = "reported"
_STATUSES = (PASS, FAIL, REPORTED)


@dataclass(frozen=True)
class Check:
    """One verified claim: identity anchor, outcome, and numeric payload."""

    name: str
    claim_ref: str
    status: str
    detail: str
    values: Optional[dict] = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {self.status!r}")


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple = field(default_factory=tuple)

    @property
    def summary(self) -> dict:
        return {
            "passed": sum(1 for c in self.checks if c.status == PASS),
            "failed": sum(1 for c in self.checks if c.status == FAIL),
            "reported": sum(1 for c in self.checks if c.status == REPORTED),
        }

    @property
    def all_passed(self) -> bool:
        return self.summary["failed"] == 0

    def to_dict(self) -> dict:
        return {"checks": [asdict(c) for c in self.checks], "summary": self.summary}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def report_from_json(text: str) -> VerificationReport:
    payload = json.loads(text)
    checks = tuple(
        Check(
            name=c["name"],
            claim_ref=c["claim_ref"],
            status=c["status"],
            detail=c["detail"],
            values=c.get("values"),
        )
        for c in payload["checks"]
    )
    report = VerificationReport(checks=checks)
    if payload.get("summary") != report.summary:
        raise ValueError("summary does not match checks")
    return report

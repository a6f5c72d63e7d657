"""Correctness gate: checks every case's report against the seed baseline.

For each case the gate requires

- exit code 0 or 1, a JSON report on stdout, and the exit code agreeing
  with the report's ``overall_pass``;
- every check's ``passed`` flag to equal ``residual <= tolerance``;
- every check name the seed commit reported for the case to be present
  (new names are allowed).

A case that breaks one of these is a failed operation, and all its baseline
checks count as failed checks.  A missing check name counts as a failed
check.  Failed checks are never filtered out of ``check_fail_ratio``.

``unexpected`` lists failed checks other than the one defect the seed commit
is known to have (``KNOWN_DEFECT``): after a change of basis, the
double-dual comparison runs at tolerance 0.0 and fails on rounding error.
A run is correct only if no case broke and nothing unexpected failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

KNOWN_DEFECT = "dual_algebra/double_dual_is_primal"
KNOWN_DEFECT_MAX_RESIDUAL = 1e-13


@dataclass
class GateResult:
    checks: int = 0
    checks_failed: int = 0
    worst_residual_ratio: float = 0.0
    broken_cases: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)

    @property
    def check_fail_ratio(self) -> float:
        return self.checks_failed / self.checks if self.checks else 1.0

    @property
    def correct(self) -> bool:
        return not self.broken_cases and not self.unexpected


def _parse_report(output: dict) -> tuple[dict | None, str]:
    """The parsed report, or None and the reason the case counts as broken."""
    if output["error"] is not None:
        return None, "raised: " + output["error"].strip().splitlines()[-1]
    if output["code"] not in (0, 1):
        return None, f"exit code {output['code']}: {output['stderr'].strip()}"
    try:
        report = json.loads(output["stdout"])
        checks = report["checks"]
        overall = report["overall_pass"]
    except (ValueError, KeyError, TypeError):
        return None, "no parseable report"
    if overall != (output["code"] == 0):
        return None, f"exit code {output['code']} disagrees with overall_pass={overall}"
    for c in checks:
        res, tol = c["residual"], c["tolerance"]
        if c["passed"] != (res is not None and res <= tol):
            return None, f"check {c['name']} passed={c['passed']} with residual {res}, tol {tol}"
    return report, ""


def check_case(case_id: str, output: dict, baseline_names, gate: GateResult) -> None:
    """Fold one case's output into ``gate``."""
    baseline = list(baseline_names)
    report, reason = _parse_report(output)
    if report is None:
        gate.broken_cases.append(f"{case_id}: {reason}")
        gate.checks += len(baseline)
        gate.checks_failed += len(baseline)
        return
    names = {c["name"] for c in report["checks"]}
    missing = [n for n in baseline if n not in names]
    if missing:
        gate.broken_cases.append(f"{case_id}: missing checks {missing}")
    gate.checks += len(report["checks"]) + len(missing)
    gate.checks_failed += len(missing)
    for c in report["checks"]:
        res, tol = c["residual"], c["tolerance"]
        if res is not None and tol > 0:
            gate.worst_residual_ratio = max(gate.worst_residual_ratio, res / tol)
        if c["passed"]:
            continue
        gate.checks_failed += 1
        known = (
            c["name"] == KNOWN_DEFECT
            and res is not None
            and res <= KNOWN_DEFECT_MAX_RESIDUAL
        )
        if not known:
            gate.unexpected.append(f"{case_id}: {c['name']} residual={res} tol={tol}")


def check_outputs(cases, outputs, baseline: dict) -> GateResult:
    """Gate a whole pass; ``baseline`` maps case ids to seed-commit check names."""
    gate = GateResult()
    for case, output in zip(cases, outputs):
        names = baseline.get(case["id"])
        if names is None:
            gate.broken_cases.append(f"{case['id']}: no baseline check names recorded")
            names = []
        check_case(case["id"], output, names, gate)
    return gate

"""Named-check reports shared by every verification routine."""

from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One named residual check.

    ``residual is None`` means the quantity could not be computed because an
    earlier stage aborted; such a check never passes.
    """

    name: str
    residual: float | None
    tolerance: float
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def residual(self, name: str) -> float:
        r = self.check(name).residual
        assert r is not None, f"check {name!r} has no residual"
        return r

    def filtered(self, patterns) -> VerificationReport:
        """Keep only checks whose name matches one of the glob patterns."""
        kept = tuple(
            c for c in self.checks
            if any(fnmatch.fnmatchcase(c.name, p) for p in patterns)
        )
        return VerificationReport(kept)

    def max_residual(self) -> float:
        finite = [c.residual for c in self.checks if c.residual is not None]
        return max(finite) if finite else 0.0

    def as_dict(self) -> dict:
        return {
            "checks": [c.as_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
        }

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            res = "n/a" if c.residual is None else f"{c.residual:.3e}"
            line = f"[{mark}] {c.name:<44s} residual={res:>10s}  tol={c.tolerance:.1e}"
            if c.detail:
                line += f"  ({c.detail})"
            lines.append(line)
        verdict = "ALL CHECKS PASSED" if self.overall_pass else "CHECKS FAILED"
        lines.append(f"{verdict} ({len(self.checks)} checks)")
        return "\n".join(lines)


class ReportBuilder:
    """Accumulates checks; by default a check passes iff residual <= tolerance."""

    def __init__(self):
        self._checks: list[Check] = []

    def add(self, name: str, residual: float, tolerance: float, detail: str = "") -> Check:
        residual = float(residual)
        if math.isnan(residual):
            check = Check(name, None, float(tolerance), False, detail or "residual is NaN")
        else:
            check = Check(name, residual, float(tolerance), residual <= tolerance, detail)
        self._checks.append(check)
        return check

    def add_count(self, name: str, got: int, expected: int, detail: str = "") -> Check:
        """Integer equality stated as a residual: |got - expected| <= 0."""
        info = detail or f"got {got}, expected {expected}"
        return self.add(name, float(abs(got - expected)), 0.0, info)

    def add_aborted(self, name: str, tolerance: float, detail: str) -> Check:
        check = Check(name, None, float(tolerance), False, detail)
        self._checks.append(check)
        return check

    def extend(self, prefix: str, report: VerificationReport) -> None:
        """Append every check of ``report`` with ``prefix`` before its name."""
        for c in report.checks:
            self._checks.append(Check(prefix + c.name, c.residual, c.tolerance, c.passed, c.detail))

    def build(self) -> VerificationReport:
        return VerificationReport(tuple(self._checks))

"""Named-check reports shared by every verification routine."""

from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass, field
from json import dumps

from .errors import StructuralError


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
        if r is None:
            raise ValueError(f"check {name!r} has no residual")
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

    def format_json(self, provenance: dict) -> str:
        """``json.dumps`` at ``indent=2`` of ``provenance`` and the checks, byte for byte, by the
        C encoder: the numbers of all checks in one call, split at ", ", which no number holds."""
        numbers = dumps([[c.residual, c.tolerance, c.passed] for c in self.checks])[2:-2]
        checks = ",\n".join(
            f'    {{\n      "name": {dumps(c.name)},\n      "residual": {r},\n      "tolerance": {t},'
            f'\n      "passed": {p},\n      "detail": {dumps(c.detail)}\n    }}'
            for c, (r, t, p) in zip(self.checks, (row.split(", ") for row in numbers.split("], [")))
        )
        head = ",\n".join(f"    {dumps(k)}: {dumps(v)}" for k, v in provenance.items())
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        return (f'{{\n  "provenance": {{\n{head}\n  }},\n  "checks": {checks},\n'
                f'  "overall_pass": {dumps(self.overall_pass)}\n}}')

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
    """Accumulates checks; a check passes iff residual <= tolerance < inf, so
    neither a NaN residual (a check an aborted stage could not compute) nor a
    tolerance that is not finite ever passes.  ``extend`` raises StructuralError
    on such a tolerance, say a scaled one that overflows, since inf is not JSON.
    ``add`` and ``add_count`` return the builder, so calls chain."""

    def __init__(self):
        self._checks: list[Check] = []

    def add(self, name: str, residual: float, tolerance: float, detail: str = "") -> ReportBuilder:
        residual, tolerance = float(residual), float(tolerance)
        if math.isnan(residual):
            check = Check(name, None, tolerance, False, detail or "residual is NaN")
        else:
            check = Check(name, residual, tolerance, residual <= tolerance < math.inf, detail)
        self._checks.append(check)
        return self

    def add_count(self, name: str, got: int, expected: int, detail: str = "") -> ReportBuilder:
        """Integer equality stated as a residual: |got - expected| <= 0."""
        info = detail or f"got {got}, expected {expected}"
        return self.add(name, float(abs(got - expected)), 0.0, info)

    def extend(self, prefix: str, report: VerificationReport) -> None:
        """Append every check of ``report`` with ``prefix`` before its name."""
        for c in report.checks:
            name = prefix + c.name
            if not math.isfinite(c.tolerance):
                raise StructuralError(f"tolerance {c.tolerance} of check {name!r} is not finite")
            self._checks.append(Check(name, c.residual, c.tolerance, c.passed, c.detail))

    def build(self) -> VerificationReport:
        return VerificationReport(tuple(self._checks))

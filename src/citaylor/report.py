"""Pass/fail reports for the verification entry points."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    title: str
    details: list[str] = field(default_factory=list)
    failure: str | None = None

    @property
    def passed(self):
        return self.failure is None

    def note(self, line):
        self.details.append(f"ok: {line}")

    def fail(self, line):
        self.details.append(f"FAIL: {line}")
        if self.failure is None:
            self.failure = line

    def check(self, residual, ok, failure):
        """Note ok if the residual matrix is zero, else fail with failure, a
        str.format template whose fields row, col and entry name its first
        nonzero cell in column order."""
        if residual.is_zero():
            self.note(ok)
        else:
            row, col, entry = residual.first_failure()
            self.fail(failure.format(row=row, col=col, entry=entry))

    def summary(self):
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join([f"[{verdict}] {self.title}", *(f"  {d}" for d in self.details)])

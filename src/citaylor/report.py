"""Pass/fail reports for the verification entry points."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    title: str
    passed: bool = True
    details: list[str] = field(default_factory=list)
    failure: str | None = None

    def note(self, line):
        self.details.append(f"ok: {line}")

    def fail(self, line):
        self.details.append(f"FAIL: {line}")
        self.passed = False
        if self.failure is None:
            self.failure = line

    def summary(self):
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join([f"[{verdict}] {self.title}", *(f"  {d}" for d in self.details)])

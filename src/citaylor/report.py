"""Pass/fail reports for the verification entry points."""
from __future__ import annotations


class Report:
    """A titled list of ok and FAIL lines, and the first failure; equal by value."""

    __slots__ = ("title", "details", "failure")

    def __init__(self, title, details=None, failure=None):
        self.title = title
        self.details = [] if details is None else details
        self.failure = failure

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.title, self.details, self.failure) == (other.title, other.details, other.failure)

    def __repr__(self):
        return f"Report(title={self.title!r}, details={self.details!r}, failure={self.failure!r})"

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

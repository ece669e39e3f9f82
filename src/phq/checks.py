"""Small report types shared by the verification routines.

Checks never raise on mathematical failure; they collect human-readable
violation messages so that a command-line run can show everything that is
wrong with a hand-entered algebra at once.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """Outcome of one verification: empty ``failures`` means it passed."""

    label: str
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return f"{self.label}: ok"
        lines = [f"{self.label}: FAIL"] + [f"  - {f}" for f in self.failures]
        return "\n".join(lines)

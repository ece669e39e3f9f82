"""The verdict types shared by the verification routines, and the error base.

Checks never raise on mathematical failure; they collect human-readable
violation messages so that a command-line run can show everything that is
wrong with a hand-entered algebra at once.  A `Check` is one named axiom; a
`Report` is several of them, in the order they are printed.
"""

from __future__ import annotations

from dataclasses import dataclass


class PhqError(Exception):
    """Base of every error the library raises.  Each subclass also keeps a
    builtin base (mostly ``ValueError``), so callers may catch either."""


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


@dataclass(frozen=True)
class Report:
    """Outcome of several checks; ``report[label]`` is the part with that label."""

    parts: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(part.ok for part in self.parts)

    def __bool__(self) -> bool:
        return self.ok

    def __getitem__(self, label: str) -> Check:
        for part in self.parts:
            if part.label == label:
                return part
        raise KeyError(f"no check labelled {label!r}")

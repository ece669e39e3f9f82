#!/usr/bin/env python3
"""Record the exit code and a hash of stdout of every fixture command.

Every `.alg` fixture is run through check, invariants, classify and reduce,
and every `.recipe` fixture through construct, in both output formats, by
calling `phq.cli.main` in-process.  The result is written to
`tests/cli_snapshot.json`, which `tests/test_cli.py` compares against, so a
change that alters a byte of any fixture command's output fails tier-1.

Run from the repository root:  PYTHONPATH=src python3 scripts/make_cli_snapshot.py
Record it only from a tree whose output is known to be right; never
re-record it to make a failing comparison pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from phq.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SNAPSHOT = ROOT / "tests" / "cli_snapshot.json"

ALG_COMMANDS = ("check", "invariants", "classify", "reduce")


def commands() -> list[list[str]]:
    """Every fixture command, as argument lists without the format option."""
    out = []
    for path in sorted(FIXTURES.glob("*.alg")):
        out += [[cmd, path.name] for cmd in ALG_COMMANDS]
    for path in sorted(FIXTURES.glob("*.recipe")):
        out.append(["construct", path.name])
    return out


def run(argv: list[str]) -> dict:
    """Exit code and sha256 of stdout of one in-process `phq` run."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}


def snapshot() -> dict[str, dict]:
    """``{"<format> <command> <file>": {"exit", "sha256"}}`` for every fixture command."""
    doc = {}
    for fmt in ("text", "json"):
        for cmd, name in commands():
            argv = ["--format", fmt, "--fixtures-dir", str(FIXTURES), cmd, name]
            doc[f"{fmt} {cmd} {name}"] = run(argv)
    return doc


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(snapshot(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {SNAPSHOT.relative_to(ROOT)}")

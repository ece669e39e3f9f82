"""The `phq` command line: check, invariants, classify, reduce, construct.

README.md states its contract: the commands, the output formats and the
exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, reduction
from .checks import PhqError
from .fileformat import ParseError, Recipe, parse_path, serialize_algebra
from .lie import _scalar_text
from .structures import PHQAlgebra, check_phq, fingerprint

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2


def cmd_check(p: PHQAlgebra):
    report = check_phq(p)
    axioms = {part.label: {"ok": part.ok, "failures": part.failures} for part in report.parts}
    return report.ok, {"ok": report.ok, "axioms": axioms}, [part.describe() for part in report.parts]


def cmd_invariants(p: PHQAlgebra):
    fp = fingerprint(p)
    return True, fp._asdict(), [fp.table_row()]


def cmd_classify(p: PHQAlgebra):
    result = catalog.classify(p)
    steps = result.reduction.describe()
    doc = {"label": str(result.label), "fingerprint": result.fingerprint._asdict(), "reduction": steps}
    return True, doc, [str(result.label), f"fingerprint: {result.fingerprint.table_row()}", *steps]


def cmd_reduce(p: PHQAlgebra):
    if not check_phq(p).ok:
        raise PhqError("input fails the structure axioms; run 'check' for details")
    result = reduction.full_reduction(p)
    steps = [
        {
            "kind": s.kind,
            "z": [_scalar_text(c) for c in s.z],
            "v": [_scalar_text(c) for c in s.v] if s.v is not None else None,
            "sign": s.sign,
            "recovered_dim": s.recovered.dim,
        }
        for s in result.steps
    ]
    return True, {"steps": steps, "residue_dim": result.residue.dim}, result.describe()


# name -> (help, positional argument, command).  A command maps an algebra to
# (ok, JSON document, text lines); `_run` prints one and returns 0 if ok, else 1.
# construct, whose input is a recipe, has none: it always prints the `.alg` text.
COMMANDS = {
    "check": ("verify all axioms of an algebra file", "file", cmd_check),
    "invariants": ("print the invariant fingerprint", "file", cmd_invariants),
    "classify": ("identify an algebra of dimension <= 8", "file", cmd_classify),
    "reduce": ("reduce to an abelian residue", "file", cmd_reduce),
    "construct": ("evaluate a recipe, print the algebra", "recipe", None),
}


def _run(args) -> int:
    command = COMMANDS[args.command][2]
    parsed = parse_path(args.path, args.fixtures_dir)
    if command is None:
        if not isinstance(parsed, Recipe):
            raise ParseError(f"{args.path}: expected a recipe file")
        sys.stdout.write(serialize_algebra(parsed.evaluate()))
        return EXIT_OK
    if isinstance(parsed, Recipe):
        raise ParseError(f"{args.path}: expected an algebra file, got a recipe")
    ok, doc, lines = command(parsed)
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return EXIT_OK if ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phq",
        description="Exact construction, verification, reduction, and "
        "classification of metric Lie algebras with complex structures.",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--fixtures-dir",
        default=None,
        help="directory against which nonexistent input paths are resolved",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positional, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text).add_argument("path", metavar=positional)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PhqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

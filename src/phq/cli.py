"""The `phq` command line: check, invariants, classify, reduce, construct.

README.md states its contract: the commands, the output formats and the
exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .catalog import classify
from .checks import PhqError
from .fileformat import ParseError, Recipe, parse_path, serialize_algebra
from .lie import _scalar_text
from .reduction import full_reduction
from .structures import PHQAlgebra, check_phq, fingerprint

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2


def _load_algebra(path: str, fixtures_dir: str | None) -> PHQAlgebra:
    parsed = parse_path(path, fixtures_dir)
    if isinstance(parsed, Recipe):
        raise ParseError(f"{path}: expected an algebra file, got a recipe")
    return parsed


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def cmd_check(args) -> int:
    p = _load_algebra(args.file, args.fixtures_dir)
    report = check_phq(p)
    if args.format == "json":
        axioms = {part.label: {"ok": part.ok, "failures": part.failures} for part in report.parts}
        _emit_json({"ok": report.ok, "axioms": axioms})
    else:
        for part in report.parts:
            print(part.describe())
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_invariants(args) -> int:
    p = _load_algebra(args.file, args.fixtures_dir)
    fp = fingerprint(p)
    if args.format == "json":
        _emit_json(asdict(fp))
    else:
        print(fp.table_row())
    return EXIT_OK


def cmd_classify(args) -> int:
    p = _load_algebra(args.file, args.fixtures_dir)
    result = classify(p)
    if args.format == "json":
        _emit_json(
            {
                "label": str(result.label),
                "fingerprint": asdict(result.fingerprint),
                "reduction": list(result.reduction.describe()),
            }
        )
    else:
        print(str(result.label))
        print(f"fingerprint: {result.fingerprint.table_row()}")
        for line in result.reduction.describe():
            print(line)
    return EXIT_OK


def cmd_reduce(args) -> int:
    p = _load_algebra(args.file, args.fixtures_dir)
    report = check_phq(p)
    if not report.ok:
        raise PhqError("input fails the structure axioms; run 'check' for details")
    result = full_reduction(p)
    if args.format == "json":
        _emit_json(
            {
                "steps": [
                    {
                        "kind": s.kind,
                        "z": [_scalar_text(c) for c in s.z],
                        "v": [_scalar_text(c) for c in s.v] if s.v is not None else None,
                        "sign": s.sign,
                        "recovered_dim": s.recovered.dim,
                    }
                    for s in result.steps
                ],
                "residue_dim": result.residue.dim,
            }
        )
    else:
        for line in result.describe():
            print(line)
    return EXIT_OK


def cmd_construct(args) -> int:
    parsed = parse_path(args.recipe, args.fixtures_dir)
    if not isinstance(parsed, Recipe):
        raise ParseError(f"{args.recipe}: expected a recipe file")
    algebra = parsed.evaluate()
    sys.stdout.write(serialize_algebra(algebra))
    return EXIT_OK


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

    p_check = sub.add_parser("check", help="verify all axioms of an algebra file")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_inv = sub.add_parser("invariants", help="print the invariant fingerprint")
    p_inv.add_argument("file")
    p_inv.set_defaults(func=cmd_invariants)

    p_cls = sub.add_parser("classify", help="identify an algebra of dimension <= 8")
    p_cls.add_argument("file")
    p_cls.set_defaults(func=cmd_classify)

    p_red = sub.add_parser("reduce", help="reduce to an abelian residue")
    p_red.add_argument("file")
    p_red.set_defaults(func=cmd_reduce)

    p_con = sub.add_parser("construct", help="evaluate a recipe, print the algebra")
    p_con.add_argument("recipe")
    p_con.set_defaults(func=cmd_construct)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PhqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

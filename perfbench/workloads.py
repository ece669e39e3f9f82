"""The three workloads: their set-up, their ops and the correctness gate of
every op.

An op is one user-visible command on one input.  In-process ops call the
library functions behind the command, starting from the input's text as the
command does; `cli_fixtures` runs the `phq` entry point in a child process.
A gate returns None when the op's output is correct, or what is wrong.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import inputs
from spans import SPANS_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launch.py"
# What the `phq` console script of pyproject.toml runs.
ENTRY = "import sys; from phq.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Op:
    command: str
    key: str
    run: Callable[[], object]
    gate: Callable[[object], str | None]


@dataclass
class Prepared:
    ops: list[Op]
    import_s: float | None  # in-process import of `phq.cli`; None for child processes
    traced_ops: list[Op] | None = None  # child-process ops that record spans

    @property
    def warmup(self) -> Op:
        return next(op for op in self.ops if op.command == "invariants")


def import_program() -> tuple[object, float]:
    """Import `phq` afresh and time it (its own modules are loaded again; the
    standard library modules it uses stay loaded)."""
    for name in [n for n in sys.modules if n == "phq" or n.startswith("phq.")]:
        del sys.modules[name]
    start = perf_counter()
    importlib.import_module("phq.cli")
    return sys.modules["phq"], perf_counter() - start


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reduce(lib, text: str):
    p = lib.parse_algebra_text(text)
    return p.dim, lib.full_reduction(p)


def _bookkeeping(out) -> str | None:
    dim, result = out
    splits = sum(1 for s in result.steps if s.kind == "split_plane")
    planes = sum(1 for s in result.steps if s.kind == "plane_reduction")
    if dim != result.residue.dim + 2 * splits + 4 * planes:
        return f"dim {dim} != residue {result.residue.dim} + 2*{splits} + 4*{planes}"
    return None


def _algebra_ops(lib, name: str, text: str, expect: dict) -> list[Op]:
    """check, invariants, reduce and (when a label is expected) classify."""

    def check_gate(report):
        return None if report.ok else "check_phq reports a failed axiom"

    def invariants_gate(fp):
        got = repr(fp.as_tuple())
        return None if got == expect["fingerprint"] else f"fingerprint {got}"

    def classify_gate(result):
        got = str(result.label)
        return None if got == expect["label"] else f"label {got}"

    ops = [
        Op("check", name, lambda: lib.check_phq(lib.parse_algebra_text(text)), check_gate),
        Op("invariants", name, lambda: lib.fingerprint(lib.parse_algebra_text(text)), invariants_gate),
        Op("reduce", name, lambda: _reduce(lib, text), _bookkeeping),
    ]
    if expect["label"] is not None:
        ops.append(Op("classify", name, lambda: lib.classify(lib.parse_algebra_text(text)), classify_gate))
    return ops


def _round_trip_gate(lib, sha256: str):
    def gate(text):
        if _sha256(text) != sha256:
            return "constructed algebra differs from the recorded bytes"
        if lib.serialize_algebra(lib.parse_algebra_text(text)) != text:
            return "serialize(parse(text)) != text"
        return None

    return gate


def setup_ladder(seed: int, golden: dict) -> Prepared:
    """The five rungs, each constructed from its recipe by the program."""
    lib, import_s = import_program()
    ops = []
    for name, tree in inputs.LADDER.items():
        recipe = inputs.recipe_text(tree)
        expect = golden["ladder"][name]

        def construct(recipe=recipe):
            return lib.serialize_algebra(lib.parse_recipe_text(recipe).evaluate())

        ops.append(Op("construct", name, construct, _round_trip_gate(lib, expect["construct_sha256"])))
        ops += _algebra_ops(lib, name, construct(), expect)
    return Prepared(ops, import_s)


def setup_catalog(seed: int, golden: dict) -> Prepared:
    """Seeded dense transports of the catalog labels.  The `construct` op of an
    input builds the model it was transported from (`build` + serialize)."""
    lib, import_s = import_program()
    models = {label: golden["catalog"][label]["model"] for label in inputs.CATALOG_LABELS}
    ops = []
    for k, (label, text) in enumerate(inputs.catalog_inputs(models, seed)):
        name = f"{label} #{k}"

        def gate(built, model=models[label]):
            return None if built == model else "built model differs from the recorded bytes"

        ops.append(Op("construct", name, lambda label=label: lib.serialize_algebra(lib.build(label)), gate))
        ops += _algebra_ops(lib, name, text, golden["catalog"][label])
    return Prepared(ops, import_s)


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=False)


def child_spans(stderr: bytes) -> dict | None:
    """The span snapshot the launcher wrote as the last line of stderr; None
    if the child died before writing it (its op then fails its gate)."""
    last = stderr.decode("utf-8", "replace").rstrip("\n").rsplit("\n", 1)[-1]
    return json.loads(last[len(SPANS_MARK) :]) if last.startswith(SPANS_MARK) else None


def _cli_ops(golden: dict, head: list[str]) -> list[Op]:
    env = child_env()
    ops = []
    for command, path in inputs.cli_commands():
        expect = golden["cli"][f"{command} {path}"]

        def gate(proc, expect=expect):
            if proc.returncode != expect["exit"]:
                return f"exit code {proc.returncode}"
            if proc.stdout != expect["stdout"].encode("utf-8"):
                return "stdout differs from the recorded bytes"
            return None

        ops.append(Op(command, path, lambda argv=head + [command, path]: run_child(argv, env), gate))
    return ops


def setup_cli(seed: int, golden: dict) -> Prepared:
    """The 40 fixture commands; the traced ones go through the launcher."""
    return Prepared(
        _cli_ops(golden, [sys.executable, "-c", ENTRY]),
        None,
        _cli_ops(golden, [sys.executable, str(LAUNCHER)]),
    )


WORKLOADS = {
    "ladder_sparse": setup_ladder,
    "catalog_dense": setup_catalog,
    "cli_fixtures": setup_cli,
}

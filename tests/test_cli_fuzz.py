"""The exit-code contract of `phq`, under structural mutations of the fixtures.

Each fixture text is decoded, one or two of its keys or list entries are
deleted or replaced by a value of the wrong kind (null, a boolean, a float, a
list, an object, or an integer out of every range), and the mutated text runs
through every command that takes its kind of file, in both formats, through
`phq.cli.main`.  The contract holds when the exit code is 0, 1 or 2, no
exception but `SystemExit` escapes, and every line on stderr starts with
``error:`` or ``parse error:``.  The seed and the example budget are fixed.
"""

import contextlib
import copy
import io
import json
import random

from phq.cli import main
from phq.fileformat import MAX_DIGITS, MAX_DIM

from conftest import FIXTURES, _dumps

SEED = 20240611
MUTANTS = 64  # mutated texts; each runs 8 (`.alg`) or 2 (`.recipe`) commands

COMMANDS = {".alg": ("check", "invariants", "classify", "reduce"), ".recipe": ("construct",)}
WRONG_VALUES = (
    None,
    True,
    False,
    1.5,
    [],
    ["1"],
    {},
    {"op": "abelian"},
    -1,
    MAX_DIM + 2,
    10**9,
    10**MAX_DIGITS,
)


def _slots(node):
    """Every (container, key) pair of a decoded JSON tree, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _mutate(doc, rng: random.Random):
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = rng.choice(slots)
        if rng.random() < 0.3:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(WRONG_VALUES))
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_mutated_fixtures_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    fixtures = sorted(FIXTURES.glob("*.alg")) + sorted(FIXTURES.glob("*.recipe"))
    docs = [(path.suffix, json.loads(path.read_text())) for path in fixtures]
    seen = set()
    for n in range(MUTANTS):
        suffix, doc = docs[n % len(docs)]
        path = tmp_path / f"mutant{n}{suffix}"
        text = _dumps(_mutate(doc, rng))
        path.write_text(text)
        for command in COMMANDS[suffix]:
            for fmt in ("text", "json"):
                argv = ["--format", fmt, command, str(path)]
                code, err = _run(argv)
                where = f"{argv} on {text[:300]}"
                assert code in (0, 1, 2), where
                for line in err.splitlines():
                    assert line.startswith(("error:", "parse error:")), f"{where}: {line!r}"
                assert (code == 2) == err.startswith("parse error:"), where
                assert code != 0 or err == "", where
                seen.add(code)
    assert seen == {0, 1, 2}  # the budget reaches every exit code

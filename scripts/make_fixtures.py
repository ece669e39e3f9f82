#!/usr/bin/env python3
"""Regenerate the shipped fixture files from the catalog builders.

Run from the repository root:  python3 scripts/make_fixtures.py
The output is deterministic, so regeneration leaves committed files intact;
`tests/test_cli.py` compares `texts()` with the committed files.
"""

from __future__ import annotations

import json
from pathlib import Path

from phq import build
from phq.fileformat import serialize_algebra

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ALGEBRAS = {
    "L42.alg": "L(4,2)",
    "L24.alg": "L(2,4)",
    "Tstar0K.alg": "Tstar0K",
    "TstarTheta3K.alg": "TstarTheta3K",
    "R22.alg": "R(2,2)",
    "L24_R02.alg": "L(2,4)+R(0,2)",
    "L24_R20.alg": "L(2,4)+R(2,0)",
    "L42_R02.alg": "L(4,2)+R(0,2)",
    "L42_R20.alg": "L(4,2)+R(2,0)",
}

RECIPES = {
    # The plane double extension of the positive plane with norm-16 datum;
    # constructing and classifying it yields L(4,2).
    "lorentz_ext.recipe": {
        "op": "phq_ext",
        "base": {"op": "abelian", "p": 2, "q": 0},
        "D": [["0", "0"], ["0", "0"]],
        "F": [["0", "0"], ["0", "0"]],
        "s0": ["4", "0"],
    },
    "tstar_theta3.recipe": {"op": "tstar", "base": {"op": "kodaira"}, "theta": ["0", "0", "1", "0"]},
    "tensor_core_poly2.recipe": {"op": "tensor", "base": {"op": "L(4,2)"}, "k": 2},
    "complexified_core.recipe": {"op": "complexify", "base": {"op": "L(4,2)"}},
}


def texts() -> dict[str, str]:
    """``{filename: text}`` for every file of `fixtures/`."""
    out = {filename: serialize_algebra(build(label)) for filename, label in ALGEBRAS.items()}
    out.update((filename, json.dumps(tree, indent=2) + "\n") for filename, tree in RECIPES.items())
    return out


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for filename, text in texts().items():
        (FIXTURES / filename).write_text(text, encoding="utf-8")
        print(f"wrote fixtures/{filename}")


if __name__ == "__main__":
    main()

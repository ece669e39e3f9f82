"""Seeded inputs of the three workloads, made without importing `phq`.

The catalog transports are computed here with plain `fractions.Fraction`
arithmetic, so a change to the program can never change what it is fed:
the same seed gives byte-identical `.alg` texts at every commit.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# The dimension ladder of the ROADMAP (6, 8, 12, 16, 18).  Dimension 24
# (tensor(TstarTheta3K, k=3)) is left out: its `check` alone takes about
# 14 s, longer than a whole pass of the other rungs.
_KT3 = {"op": "tstar", "base": {"op": "kodaira"}, "theta": ["0", "0", "1", "0"]}
LADDER = {
    "L42": {"op": "L(4,2)"},
    "TstarTheta3K": _KT3,
    "complexify_L42": {"op": "complexify", "base": {"op": "L(4,2)"}},
    "complexify_TstarTheta3K": {"op": "complexify", "base": _KT3},
    "tensor_L42_k3": {"op": "tensor", "base": {"op": "L(4,2)"}, "k": 3},
}

# The eight non-abelian rows of the dimension <= 8 table plus two abelian
# labels: every catalog case the classifier distinguishes.
CATALOG_LABELS = (
    "L(4,2)",
    "L(2,4)",
    "Tstar0K",
    "TstarTheta3K",
    "L(2,4)+R(0,2)",
    "L(2,4)+R(2,0)",
    "L(4,2)+R(0,2)",
    "L(4,2)+R(2,0)",
    "R(2,2)",
    "R(2,4)",
)
# Three per label, so that the seed's effect on a pass's cost averages out.
TRANSPORTS_PER_LABEL = 3

FIXTURE_ALGEBRAS = (
    "L24.alg",
    "L24_R02.alg",
    "L24_R20.alg",
    "L42.alg",
    "L42_R02.alg",
    "L42_R20.alg",
    "R22.alg",
    "Tstar0K.alg",
    "TstarTheta3K.alg",
)
FIXTURE_RECIPES = (
    "complexified_core.recipe",
    "lorentz_ext.recipe",
    "tensor_core_poly2.recipe",
    "tstar_theta3.recipe",
)
ALG_COMMANDS = ("check", "invariants", "classify", "reduce")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def recipe_text(tree: dict) -> str:
    return json.dumps(tree, indent=2) + "\n"


def cli_commands() -> list[tuple[str, str]]:
    """(command, path) pairs of the `cli_fixtures` workload, 40 in all."""
    cmds = [(cmd, f"fixtures/{name}") for name in FIXTURE_ALGEBRAS for cmd in ALG_COMMANDS]
    cmds += [("construct", f"fixtures/{name}") for name in FIXTURE_RECIPES]
    return cmds


def _unit_bidiagonal(n: int, rng: random.Random, lower: bool) -> list[list[Fraction]]:
    off = -1 if lower else 1
    return [
        [Fraction(1) if j == i else Fraction(rng.choice((-1, 1))) if j == i + off else Fraction(0) for j in range(n)]
        for i in range(n)
    ]


def _matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(p)] for i in range(n)]


def _unit_triangular_inverse(t: list[list[Fraction]], lower: bool) -> list[list[Fraction]]:
    """Inverse of a unit triangular matrix by substitution, column by column."""
    n = len(t)
    inv = [[Fraction(0)] * n for _ in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for c in range(n):
        for i in order:
            acc = Fraction(1 if i == c else 0)
            ks = range(i) if lower else range(i + 1, n)
            acc -= sum((t[i][k] * inv[k][c] for k in ks), Fraction(0))
            inv[i][c] = acc
    return inv


def transport(alg_text: str, rng: random.Random) -> str:
    """The algebra in a random basis M = L U, written in the `.alg` format:
    bracket M^-1 [Mx, My], j -> M^-1 j M, phi -> M^T phi M.

    L and U are unit bidiagonal with random +-1 off the diagonal, so M is
    invertible over the integers and M^-1 is dense: most of the transported
    structure constants are nonzero."""
    doc = json.loads(alg_text)
    n = doc["dim"]
    low, up = _unit_bidiagonal(n, rng, True), _unit_bidiagonal(n, rng, False)
    m = _matmul(low, up)
    m_inv = _matmul(_unit_triangular_inverse(up, False), _unit_triangular_inverse(low, True))
    structure = {}
    for entry in doc["brackets"]:
        vec = [Fraction(0)] * n
        for k, c in entry["coeffs"].items():
            vec[int(k)] = Fraction(c)
        structure[entry["i"], entry["j"]] = vec

    def bracket(x, y):
        out = [Fraction(0)] * n
        for (i, j), vec in structure.items():
            s = x[i] * y[j] - x[j] * y[i]
            if s:
                out = [o + s * v for o, v in zip(out, vec)]
        return out

    cols = [[m[r][c] for r in range(n)] for c in range(n)]
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            image = bracket(cols[i], cols[j])
            vec = [sum((m_inv[r][k] * image[k] for k in range(n)), Fraction(0)) for r in range(n)]
            coeffs = {str(k): str(c) for k, c in enumerate(vec) if c != 0}
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    jmat = [[Fraction(x) for x in row] for row in doc["J"]]
    phi = [[Fraction(x) for x in row] for row in doc["phi"]]
    m_t = [list(row) for row in zip(*m)]
    out = {
        "dim": n,
        "basis": doc["basis"],
        "brackets": brackets,
        "J": [[str(x) for x in row] for row in _matmul(m_inv, _matmul(jmat, m))],
        "phi": [[str(x) for x in row] for row in _matmul(m_t, _matmul(phi, m))],
    }
    return json.dumps(out, indent=2) + "\n"


def catalog_inputs(models: dict[str, str], seed: int) -> list[tuple[str, str]]:
    """(label, transported `.alg` text) pairs, TRANSPORTS_PER_LABEL per label."""
    rng = random.Random(f"catalog_dense:{seed}")
    return [(label, transport(models[label], rng)) for label in CATALOG_LABELS for _ in range(TRANSPORTS_PER_LABEL)]

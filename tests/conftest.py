"""The inputs more than one test module shares, on the library's side.

Test modules import from here, from `oracles` (the library-free oracles and
the change of basis) and from `strategies`, never from one another.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, settings

# Exact-arithmetic cases can be individually slow; cap example counts rather
# than wall-clock time per example.
settings.register_profile(
    "exact",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append(str(ROOT / "perfbench"))

from oracles import change_basis, entries, structure_tensor  # noqa: E402
from phq import LieAlgebra, Matrix, PHQAlgebra, build  # noqa: E402

ALL_LABELS = (
    "R(2,0)", "R(0,2)", "R(2,2)", "R(4,0)", "R(0,4)",
    "R(4,2)", "R(2,4)", "R(6,0)", "R(0,6)", "R(4,4)",
    "R(6,2)", "R(2,6)", "R(8,0)", "R(0,8)",
    "L(4,2)", "L(2,4)",
    "L(4,2)+R(2,0)", "L(4,2)+R(0,2)", "L(2,4)+R(2,0)", "L(2,4)+R(0,2)",
    "Tstar0K", "TstarTheta3K",
)

# Denominators 3 and 4 in the table, 5 and 4 in j and phi: the common
# denominators of the table, of j and of phi differ, so the sweeps that
# clear them are exercised with each scale on its own.
TABLE_COPRIME = (0, 0, 0, 1, -1, Fraction(1, 3), Fraction(-7, 4))
MAP_COPRIME = (0, 0, 0, 1, -1, Fraction(2, 5), Fraction(-7, 4))
DENSE_COEFFS = (1, -1, 2, -2, Fraction(1, 3), Fraction(-7, 4), Fraction(2, 5))


@pytest.fixture(scope="module")
def core():
    return build("L(4,2)")


def in_basis(p, m, m_inv):
    """p in the basis of the columns of M, with M^-1 = ``m_inv``
    (`oracles.change_basis`)."""
    table, j, phi = change_basis(structure_tensor(p.algebra), entries(p.j), entries(p.phi), m, m_inv)
    brackets = {pair: dict(enumerate(col)) for pair, col in table.items()}
    return PHQAlgebra(LieAlgebra(p.basis_names, brackets), Matrix.from_rows(j), Matrix.from_rows(phi))


def transported(p, rng):
    """p in the basis of the columns of P = D U: D diagonal and U unit upper
    bidiagonal, with coprime denominators."""
    n = p.dim
    d = [rng.choice((Fraction(1, 3), Fraction(2, 5), Fraction(-7, 4), 1)) for _ in range(n)]
    u = [rng.choice(TABLE_COPRIME + MAP_COPRIME) for _ in range(n - 1)]
    # P e_b = d_b e_b + u_(b-1) d_(b-1) e_(b-1); (U^-1)_ab = prod over a <= k < b of -u_k
    m = [[d[a] if a == b else u[a] * d[a] if a == b - 1 else Fraction(0) for b in range(n)] for a in range(n)]
    u_inv = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        u_inv[a][a] = Fraction(1)
        for b in range(a + 1, n):
            u_inv[a][b] = -u[b - 1] * u_inv[a][b - 1]
    return in_basis(p, m, [[u_inv[a][b] / d[b] for b in range(n)] for a in range(n)])


def dense_transported(p, rng):
    """p in the basis of the columns of P = L U, with L unit lower and U unit
    upper triangular and every entry off their diagonals nonzero, so that
    P, P^-1 and, in general, the new table and j have no zero entry."""
    n = p.dim
    tri = [[Fraction(1) if a == b else Fraction(rng.choice(DENSE_COEFFS)) if a > b else Fraction(0)
            for b in range(n)] for a in range(n)]
    upper = [[Fraction(1) if a == b else Fraction(rng.choice(DENSE_COEFFS)) if a < b else Fraction(0)
              for b in range(n)] for a in range(n)]
    pm = [[sum(tri[a][k] * upper[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
    inv = sympy.Matrix(pm).inv()
    return in_basis(p, pm, [[Fraction(int(inv[a, b].p), int(inv[a, b].q)) for b in range(n)] for a in range(n)])


def lemma_adapted_base() -> PHQAlgebra:
    """Neutral 4-dim base in the adapted frame (u1, Ju1, u2, Ju2) with the
    pairings phi(u1,u2) = phi(Ju1,Ju2) = 1."""
    alg = LieAlgebra.abelian(("u1", "Ju1", "u2", "Ju2"))
    j = Matrix.from_cols([(0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)], rows=4)
    phi = Matrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    return PHQAlgebra(alg, j, phi)


def adapted_pair(a, b) -> tuple[Matrix, Matrix]:
    """F(u2) = a Ju1, F(Ju2) = -a u1 and the same shape with b for D."""
    def shear(c):
        return Matrix.from_cols(
            [(0, 0, 0, 0), (0, 0, 0, 0), (0, c, 0, 0), (-c, 0, 0, 0)], rows=4
        )

    return shear(a), shear(b)


def child(args, code=None, **env):
    """A fresh interpreter on ``args`` (after ``-c code`` if given), with
    ``env`` added to its environment."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    argv = [sys.executable, *(("-c", code) if code is not None else ()), *args]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, check=False, timeout=300)


def _dumps(node) -> str:
    """``json.dumps(node)``, with every int written 600 digits at a time, so
    that no digit limit of the interpreter (640 at least) refuses
    ``10**MAX_DIGITS``."""
    if isinstance(node, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in node.items()) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_dumps, node)) + "]"
    if type(node) is not int or abs(node) < 10**600:
        return json.dumps(node)
    high, low = divmod(abs(node), 10**600)
    return ("-" if node < 0 else "") + _dumps(high) + f"{low:0600d}"

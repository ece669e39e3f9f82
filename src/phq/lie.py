"""Lie algebras given by exact structure constants.

An algebra computes its center, derived ideal and lower central series, and
the ``_columns`` the sweeps read, once, on first use, and keeps them like its
integer table ``_scaled``; every caller asks the algebra.  Ad is read off
that table, never made in Fractions: `_twisted` writes the columns of ad(x)
for given integer vectors x (`_ad_matrix` lays one out as a matrix), and
`_adjoint_rows` the rows of the linear map x -> ad(x), the system of the
center.  The Jacobi identity is a separate check (`check_jacobi`) so that
hand-entered tables can be diagnosed instead of rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import sub
from typing import Iterable, Mapping, Sequence

from .checks import Check, Record, kept
from .linalg import (
    DimensionMismatch,
    Matrix,
    SparseTable,
    Subspace,
    Vector,
    _kernel_int,
    _scaled_sparse,
    _span_int,
    bilinear,
    dense,
    mat_vec,
    sparse_table,
    vector,
)

# A linear endomorphism in the algebra's basis; columns are basis images.
LinearMap = Matrix


# Printed, after its sign, for a coefficient whose numerator or denominator
# has more than 4,300 digits, the interpreter's default int-to-str limit.
_LONG, _LONG_BOUND = "<long>", 10**4300
# Digits per conversion: under 640, the smallest limit the interpreter admits.
_CHUNK = 600


def _exact_text(c) -> str:
    """``str(c)`` of an int or Fraction c, whatever the interpreter's digit
    limit: an integer it refuses is converted `_CHUNK` digits at a time."""
    try:
        return str(c)
    except ValueError:
        n, d = c.numerator, c.denominator
        if d != 1:
            return f"{_exact_text(n)}/{_exact_text(d)}"
    chunks, m = [], abs(n)
    while m >= 10**_CHUNK:
        m, low = divmod(m, 10**_CHUNK)
        chunks.append(f"{low:0{_CHUNK}d}")
    return ("-" if n < 0 else "") + str(m) + "".join(reversed(chunks))


def _scalar_text(c) -> str:
    """`_exact_text` of c, or `_LONG` after the sign of c when its numerator
    or denominator reaches `_LONG_BOUND`, tested without converting it."""
    if abs(c.numerator) >= _LONG_BOUND or c.denominator >= _LONG_BOUND:
        return f"-{_LONG}" if c < 0 else _LONG
    return _exact_text(c)


def format_vector(v: Vector, names: Sequence[str]) -> str:
    terms = []
    for c, name in zip(v, names):
        if c == 0:
            continue
        if c == 1:
            terms.append(f"+{name}")
        elif c == -1:
            terms.append(f"-{name}")
        else:
            terms.append(f"{'+' if c > 0 else '-'}{_scalar_text(abs(c))}*{name}")
    if not terms:
        return "0"
    out = " ".join(terms)
    return out[1:] if out.startswith("+") else out


class LieAlgebra(Record):
    """Basis names and the sparse bracket table: ``brackets[i, j]`` (i < j)
    maps each index k to the nonzero coefficient of e_k in [e_i, e_j]; the
    pairs j < i follow by antisymmetry."""

    basis_names: tuple[str, ...]
    brackets: SparseTable

    def __post_init__(self):
        object.__setattr__(self, "brackets", sparse_table(self.brackets, self.dim, skew=True))

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @kept
    def _scaled(self) -> tuple[int, dict[tuple[int, int], dict[int, int]]]:
        """`linalg._scaled_sparse` of the table, d and d * brackets, kept."""
        return _scaled_sparse(self.brackets)

    @classmethod
    def _from_scaled(cls, names: Sequence[str], d: int, table: Mapping, made: dict | None = None) -> "LieAlgebra":
        """The algebra of the integer table T / d, born with ``_scaled`` (`_scaled_sparse` of it).
        Callers guarantee d > 0, int coefficients and pairs i < j of indices below ``len(names)``:
        nothing is checked, zeros go, pairs and keys are sorted, each x / d is made once or read from ``made``."""
        ints = {pair: c for pair, col in sorted(table.items()) if (c := {k: x for k, x in sorted(col.items()) if x})}
        values = [x for col in ints.values() for x in col.values()]
        made = made or {x: Fraction(x, d) for x in set(values)}
        g = gcd(d, *values) if d > 1 else 1
        brackets = {pair: {k: made[x] for k, x in col.items()} for pair, col in ints.items()}
        ints = {pair: {k: x // g for k, x in col.items()} for pair, col in ints.items()} if g > 1 else ints
        return cls._born(tuple(names), brackets, _scaled=(d // g, ints))

    @property
    def structure(self) -> tuple[tuple[Vector, ...], ...]:
        """Dense read-only view: ``structure[i][j]`` is the bracket of basis
        elements i and j, made on every access from the table, not through
        `_twisted`.  Never read by the library; read by `tests/oracles.py`,
        to test `_ad_matrix` and the sweeps, and `perfbench/spans.py`'s
        `lie.structure_nonzeros`."""
        n, t = self.dim, self.brackets

        def bracket(i: int, j: int) -> Vector:
            return dense(t.get((i, j)) or {k: -c for k, c in t.get((j, i), {}).items()}, n)

        return tuple(tuple(bracket(i, j) for j in range(n)) for i in range(n))

    @classmethod
    def abelian(cls, names: Sequence[str] | int) -> "LieAlgebra":
        return cls(_names(names), {})

    @classmethod
    def from_brackets(
        cls,
        names: Sequence[str] | int,
        brackets: Mapping[tuple[int, int], Mapping[int, int | str | Fraction]],
    ) -> "LieAlgebra":
        """Build from sparse brackets {(i, j): {k: coefficient}} with i < j.

        Antisymmetric counterparts are implied.
        """
        return cls(_names(names), brackets)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        """Bilinear, antisymmetric evaluation of the structure tensor, on
        Fractions; no library path calls it."""
        xv, yv = vector(x), vector(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise DimensionMismatch("bracket arguments must match the algebra dimension")
        return bilinear(self.brackets, xv, yv)

    @kept
    def _columns(self) -> list[list[tuple[int, list[tuple[int, int]]]]]:
        """For each index b, the pairs (r, items of T(e_r, e_b)) of the nonzero
        brackets, from one pass over T = ``_scaled``: the column c of a pair
        (a, b) is listed under b as (a, c) and under a as (b, -c).  The Jacobi
        sweep, `j_class` and `_twisted`, so the torsion sweep and every
        derivation test, share it."""
        columns: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in range(self.dim)]
        for (a, b), col in self._scaled[1].items():
            columns[b].append((a, list(col.items())))
            columns[a].append((b, [(k, -c) for k, c in col.items()]))
        return columns

    @kept
    def _center(self) -> Subspace:
        """The null space of `_adjoint_rows`."""
        return _kernel_int(_adjoint_rows(self).values(), self.dim)

    @kept
    def _derived(self) -> Subspace:
        """The span of the columns of T."""
        return _span_int(self.dim, [dense(col, self.dim, 0) for col in self._scaled[1].values()])

    @kept
    def _series(self) -> tuple[Subspace, ...]:
        """C0 = g and C1 = ``_derived``; C(k+1) is the span of the columns of
        ad(c) for c in a basis of Ck; stops at zero or when stationary.
        `_twisted` writes the columns of every ad(c) off T for the echelon
        rows of Ck, and `eliminate` spans them at once."""
        n = self.dim
        series = [Subspace.full(n)]
        nxt = self._derived
        while nxt != series[-1]:
            series.append(nxt)
            if nxt.dim == 0:
                break
            nxt = _span_int(n, _twisted(self, [x for _, x in nxt.echelon]).values())
        return tuple(series)

    def center(self) -> Subspace:
        """The x with ad(x) = 0: the integer null space of the adjoint system."""
        return self._center

    def derived_ideal(self) -> Subspace:
        """Span of all brackets of basis pairs."""
        return self._derived

    def lower_central_series(self) -> list[Subspace]:
        """C0 = g, C1 = `derived_ideal`, C(k+1) = [g, Ck]; see ``_series``."""
        return list(self._series)

    def nilpotency_index(self) -> int | None:
        """Smallest k with Ck = 0 (abelian algebras have index 1); None if the
        series stabilizes at a nonzero term."""
        series = self.lower_central_series()
        return len(series) - 1 if series[-1].dim == 0 else None

    def is_abelian(self) -> bool:
        return not self.brackets


def _twisted(algebra: LieAlgebra, xs: Iterable[Sequence[int]]) -> dict[tuple[int, int], list[int]]:
    """U[a, b] = T(x_a, e_b) = ad(x_a) e_b, the sum of x_ar T(e_r, e_b), for
    the integer table T of the algebra and the integer vectors x_a of ``xs``,
    built in one pass over their nonzeros and the algebra's ``_columns``; the
    pairs it never meets are zero and left out."""
    n, columns = algebra.dim, algebra._columns
    u: dict[tuple[int, int], list[int]] = {}
    for a, x in enumerate(xs):
        for r, v in enumerate(x):
            for b, image in columns[r] if v else ():  # T(e_r, e_b) = -T(e_b, e_r)
                acc = u.setdefault((a, b), [0] * n)
                for k, c in image:
                    acc[k] -= v * c
    return u


def _ad_matrix(algebra: LieAlgebra, x: Sequence[int]) -> list[int]:
    """Row-major integer ad(x) of an integer x: entry k*n + b is T(x, e_b)_k (`_twisted`)."""
    n, u = algebra.dim, _twisted(algebra, [x])
    return [u[0, b][k] if (0, b) in u else 0 for k in range(n) for b in range(n)]


def _mapped(algebra: LieAlgebra, m: Sequence[int]) -> dict[tuple[int, int], tuple[int, ...]]:
    """V[a, b] = T(M e_a, M e_b), a < b, for a row-major integer n x n matrix
    M: `bilinear` on the integer table, as `reduction._restrict` brackets."""
    n, t = algebra.dim, algebra._scaled[1]
    cols = [m[c::n] for c in range(n)]
    return {(a, b): bilinear(t, cols[a], cols[b], zero=0) for a in range(n) for b in range(a + 1, n)}


def _adjoint_rows(algebra: LieAlgebra) -> dict[int, list[int]]:
    """The n^2 x n matrix A of x -> ad(x) read off the integer table
    T = d * brackets (``LieAlgebra._scaled``): the nonzero rows of d * A by
    row index.  A x is the row-major `_ad_matrix` of x, so row k*n + b is
    entry (k, b): c = [e_a, e_b]_k puts c in column a of row k*n + b and -c
    in column b of row k*n + a."""
    n = algebra.dim
    rows: dict[int, list[int]] = {}
    for (a, b), col in algebra._scaled[1].items():
        for k, c in col.items():
            rows.setdefault(k * n + b, [0] * n)[a] = c
            rows.setdefault(k * n + a, [0] * n)[b] = -c
    return rows


def _names(names: Sequence[str] | int) -> tuple[str, ...]:
    if isinstance(names, int):
        return tuple(f"e{i + 1}" for i in range(names))
    return tuple(names)


def check_jacobi(algebra: LieAlgebra) -> Check:
    """Evaluate the Jacobi identity on every basis triple i < j < k.

    Only the nonzero table pairs (a, b) contribute: each adds its term
    [e_i, [e_a, e_b]] to the residual of the sorted triple of (i, a, b).  The
    sweep runs on the integer table T = d * brackets (``_scaled``), so a
    residual it finds is d^2 times the Jacobi residual.  The term of
    c = T(e_a, e_b) is the sum of c_k T(e_i, e_k) over the ``_columns`` k.
    """
    n = algebra.dim
    names = algebra.basis_names
    d, t = algebra._scaled
    columns = algebra._columns
    residuals: dict[tuple[int, int, int], list[int]] = {}
    for (a, b), col in t.items():
        by_i: dict[int, list[int]] = {}  # i -> the residual of the triple of (i, a, b)
        for k, v in col.items():
            for i, image in columns[k]:
                if i == a or i == b:
                    continue
                if (res := by_i.get(i)) is None:
                    res = by_i[i] = residuals.setdefault(tuple(sorted((i, a, b))), [0] * n)
                s = -v if a < i < b else v  # (i, a, b) is not a cyclic order of the sorted triple
                for m, c in image:
                    res[m] += s * c
    failures = [
        f"Jacobi fails on ({names[i]}, {names[j]}, {names[k]}): "
        f"residual {format_vector([Fraction(r, d * d) for r in res], names)}"
        for (i, j, k), res in sorted(residuals.items())
        if any(res)
    ]
    return Check("Jacobi", tuple(failures))


def _derivation_failures(algebra: LieAlgebra, m: Sequence[int]) -> list[tuple[int, int]]:
    """The basis pairs i < j, sorted, on which the row-major integer n x n
    matrix m breaks the derivation identity of the algebra's table T = ``_scaled``:
    the defect M T(e_i, e_j) - T(M e_i, e_j) - T(e_i, M e_j) is not zero.  With
    U = `_twisted` of the columns M e_a, it is M T(e_i, e_j) - U[i, j] + U[j, i],
    so only the pairs of T and of U are visited.
    """
    n, t = algebra.dim, algebra._scaled[1]
    u, zero = _twisted(algebra, [m[a::n] for a in range(n)]), [0] * n
    failing = []
    for i, j in sorted({(min(pair), max(pair)) for pair in (*t, *u) if pair[0] != pair[1]}):
        twist = map(sub, u.get((i, j), zero), u.get((j, i), zero))
        if any(map(sub, mat_vec(m, n, n, t.get((i, j), {}).items(), 0), twist)):
            failing.append((i, j))
    return failing

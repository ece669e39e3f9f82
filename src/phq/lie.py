"""Lie algebras given by exact structure constants.

The structure tensor is stored sparse: ``brackets[i, j]`` (i < j) maps each
basis index k to the nonzero coefficient of e_k in the bracket of basis
elements i and j; the pairs j < i are implied by antisymmetry.  `adjoint`
reads ad(x) off the table, and the identities over basis pairs (derivations,
the lower central series) are identities between ad matrices.  The Jacobi
identity is a separate check (`check_jacobi`) so that hand-entered tables
can be diagnosed instead of rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .checks import Check
from .linalg import (
    ZERO,
    DimensionMismatch,
    Matrix,
    SparseTable,
    Subspace,
    Vector,
    add_vec,
    bilinear,
    dense,
    is_zero_vec,
    kernel,
    neg_vec,
    solve_linear,
    sparse_table,
    unit_vector,
    vector,
    zero_vector,
)

# A linear endomorphism in the algebra's basis; columns are basis images.
LinearMap = Matrix


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
            sign = "+" if c > 0 else "-"
            terms.append(f"{sign}{abs(c)}*{name}")
    if not terms:
        return "0"
    out = " ".join(terms)
    return out[1:] if out.startswith("+") else out


@dataclass(frozen=True)
class LieAlgebra:
    """Basis names and the sparse bracket table ``brackets[i, j]`` (i < j)."""

    basis_names: tuple[str, ...]
    brackets: SparseTable

    def __post_init__(self):
        object.__setattr__(self, "brackets", sparse_table(self.brackets, self.dim, skew=True))

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @property
    def structure(self) -> tuple[tuple[Vector, ...], ...]:
        """Dense read-only view: ``structure[i][j]`` is the bracket of basis
        elements i and j.  Computed on every access."""
        n, zero = self.dim, zero_vector(self.dim)
        upper = {pair: dense(col, n) for pair, col in self.brackets.items()}
        return tuple(
            tuple(
                upper.get((i, j), zero) if i <= j else neg_vec(upper.get((j, i), zero))
                for j in range(n)
            )
            for i in range(n)
        )

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
        """Bilinear, antisymmetric evaluation of the structure tensor."""
        xv, yv = vector(x), vector(y)
        if len(xv) != self.dim or len(yv) != self.dim:
            raise DimensionMismatch("bracket arguments must match the algebra dimension")
        return bilinear(self.brackets, xv, yv, skew=True)

    def adjoint(self, x: Sequence) -> LinearMap:
        """Matrix of y -> [x, y], read off the table: c = [e_a, e_b]_k adds
        x_a c at entry (k, b) and -x_b c at entry (k, a)."""
        xv = vector(x)
        if len(xv) != self.dim:
            raise DimensionMismatch("adjoint argument must match the algebra dimension")
        n = self.dim
        entries = [ZERO] * (n * n)
        for (a, b), col in self.brackets.items():
            xa, xb = xv[a], xv[b]
            if xa or xb:
                for k, c in col.items():
                    entries[k * n + b] += xa * c
                    entries[k * n + a] -= xb * c
        return Matrix(n, n, tuple(entries))

    def _adjoint_system(self) -> Matrix:
        """The n^2 x n matrix A of x -> ad(x), read straight off the table:
        A x is ``adjoint(x).entries``, so row k*n + b is entry (k, b)."""
        n = self.dim
        entries = [ZERO] * (n * n * n)
        for (a, b), col in self.brackets.items():
            for k, c in col.items():
                entries[(k * n + b) * n + a] = c
                entries[(k * n + a) * n + b] = -c
        return Matrix(n * n, n, tuple(entries))

    def center(self) -> Subspace:
        """The x with ad(x) = 0: the kernel of the adjoint system."""
        return kernel(self._adjoint_system())

    def derived_ideal(self) -> Subspace:
        """Span of all brackets of basis pairs."""
        return Subspace.span(self.dim, [dense(col, self.dim) for col in self.brackets.values()])

    def lower_central_series(self) -> list[Subspace]:
        """C0 = g, C(k+1) = [g, Ck], the span of the columns of ad(c) for c
        in a basis of Ck; stops when stationary."""
        n = self.dim
        series = [Subspace.full(n)]
        while True:
            current = series[-1]
            ads = [self.adjoint(c) for c in current.basis]
            nxt = Subspace.span(n, [ad.col(j) for ad in ads for j in range(n)])
            if nxt == current:
                break
            series.append(nxt)
            if nxt.dim == 0:
                break
        return series

    def nilpotency_index(self) -> int | None:
        """Smallest k with Ck = 0 (abelian algebras have index 1); None if the
        series stabilizes at a nonzero term."""
        series = self.lower_central_series()
        if series[-1].dim != 0:
            return None
        return len(series) - 1

    def is_abelian(self) -> bool:
        return not self.brackets


def _names(names: Sequence[str] | int) -> tuple[str, ...]:
    if isinstance(names, int):
        return tuple(f"e{i + 1}" for i in range(names))
    return tuple(names)


def check_jacobi(algebra: LieAlgebra) -> Check:
    """Evaluate the Jacobi identity on every basis triple i < j < k.

    Only the nonzero table pairs (a, b) contribute: each adds its term
    [e_i, [e_a, e_b]] to the residual of the sorted triple of (i, a, b).
    """
    n = algebra.dim
    names = algebra.basis_names
    residuals = {}
    for (a, b), col in algebra.brackets.items():
        ab = dense(col, n)
        for i in range(n):
            if i == a or i == b:
                continue
            term = bilinear(algebra.brackets, unit_vector(n, i), ab, skew=True)
            if is_zero_vec(term):
                continue
            if a < i < b:  # (i, a, b) is not a cyclic order of the sorted triple
                term = neg_vec(term)
            triple = tuple(sorted((i, a, b)))
            residuals[triple] = add_vec(residuals.get(triple, zero_vector(n)), term)
    failures = [
        f"Jacobi fails on ({names[i]}, {names[j]}, {names[k]}): "
        f"residual {format_vector(res, names)}"
        for (i, j, k), res in sorted(residuals.items())
        if not is_zero_vec(res)
    ]
    return Check("Jacobi", tuple(failures))


def is_derivation(algebra: LieAlgebra, m: LinearMap) -> Check:
    """Check m[x,y] = [m x, y] + [x, m y] on all basis pairs.

    Column j of m ad(e_i) - ad(e_i) m - ad(m e_i) is the defect on (e_i, e_j).
    """
    n = algebra.dim
    if m.rows != n or m.cols != n:
        raise DimensionMismatch("derivation candidate must be square of the algebra dimension")
    failures = []
    for i in range(n):
        ad = algebra.adjoint(unit_vector(n, i))
        defect = m @ ad - ad @ m - algebra.adjoint(m.col(i))
        for j in range(i + 1, n):
            if not is_zero_vec(defect.col(j)):
                failures.append(
                    f"derivation identity fails on ({algebra.basis_names[i]}, "
                    f"{algebra.basis_names[j]})"
                )
    return Check("derivation", tuple(failures))


def solve_inner(algebra: LieAlgebra, m: LinearMap) -> Vector | None:
    """Some s with adjoint(s) = m, or None.

    The unknown is the coordinate vector of s; the adjoint system has one
    equation per matrix entry of the adjoint.  The representative returned is
    the minimal-support solution for the fixed pivot order, so it is
    reproducible; the full solution set is s + center.
    """
    n = algebra.dim
    if m.rows != n or m.cols != n:
        raise DimensionMismatch("target map must be square of the algebra dimension")
    return solve_linear(algebra._adjoint_system(), m.entries)

"""Exact rational linear algebra: vectors, matrices, subspaces, signatures.

A `Fraction` API sits over an integer kernel.  Every scalar the API takes or
gives is a `fractions.Fraction`, so every result is exact and independent of
evaluation order, but the heavy loops run on integers: the ranks, spans,
null spaces and solves here and the invariants of `lie` all reach the one
elimination routine, `eliminate`, and each makes its Fractions once, at the
end.  A `Subspace` is its integer echelon rows, and each map or invariant
of a subspace goes straight from them to the integer span, null space or
Gram product; its Fraction basis is made only when a reader asks for it.

Each object is scaled at most once: a `Matrix` and the table of a
`lie.LieAlgebra` keep their integers as ``_scaled``, which no reader mutates,
so the checks, invariants and reduction steps read one integer form of an
input.  What the parser, a product or a reduction step makes is born with them
from its maker (``_from_scaled``), which repeats none of its callers' checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Mapping, Sequence

from .checks import PhqError, Record, kept

Vector = tuple[Fraction, ...]
# A bilinear map in sparse form: ``table[i, j]`` maps each basis index k to
# the nonzero coefficient of e_k in the value on the basis pair (e_i, e_j).
SparseTable = dict[tuple[int, int], dict[int, Fraction]]

# A vector v as the pair (s, x) of a positive scale s and the integers
# x = s * v, as `scaled` gives it; a `Subspace` keeps x as a tuple.
Scaled = tuple[int, Sequence[int]]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(PhqError, ValueError):
    """Operands have incompatible shapes."""


class NotSymmetricError(PhqError, ValueError):
    """A symmetric matrix was required."""


def frac(x: int | str | Fraction) -> Fraction:
    """Coerce an int, a Fraction, or a rational string like ``-3/7``.

    Floats and booleans are rejected: this library never rounds.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(entries: Iterable) -> Vector:
    """The entries as a tuple of Fractions; a tuple of Fractions is returned
    as it is."""
    if isinstance(entries, tuple) and all(map(isinstance, entries, repeat(Fraction))):
        return entries
    return tuple(frac(e) for e in entries)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def add_vec(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return tuple(a + b if b else a for a, b in zip(u, v))


def sub_vec(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return tuple(a - b if b else a for a, b in zip(u, v))


def dot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), ZERO)


def sparse_table(entries: Mapping, n: int, skew: bool) -> SparseTable:
    """Canonical copy of a sparse table on an n-dimensional space: the one
    form of brackets, cocycle values and commutative products, each scaled
    to integers by `_scaled_sparse`; `bilinear` evaluates the skew ones.

    Scalars are coerced with `frac`, zero coefficients and empty pairs are
    dropped, and pairs and coefficients are sorted, so equal maps give equal
    tables.  A skew table stands for an antisymmetric map and lists each pair
    once, as (i, j) with i < j; any other table lists every nonzero pair.
    An index outside 0..n-1, or a skew pair with i >= j, raises
    `DimensionMismatch`.
    """
    table = {}
    for (i, j), coeffs in sorted(entries.items()):
        if not (0 <= i < n and 0 <= j < n):
            raise DimensionMismatch(f"table index ({i},{j}) out of range for dimension {n}")
        if skew and i >= j:
            raise DimensionMismatch(f"antisymmetric entries must be given with i < j, got ({i},{j})")
        col = {}
        for k, c in sorted(coeffs.items()):
            if not 0 <= k < n:
                raise DimensionMismatch(f"table target {k} out of range for dimension {n}")
            if c := frac(c):
                col[k] = c
        if col:
            table[i, j] = col
    return table


def scaled(values: Sequence[Fraction]) -> Scaled:
    """The least common denominator d of ``values`` and the integers d * v."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _scaled_sparse(table: SparseTable) -> tuple[int, dict[tuple[int, int], dict[int, int]]]:
    """The least common denominator d of a sparse table's coefficients and
    the table d * entries with int coefficients: ``LieAlgebra._scaled``, a
    cocycle's values and an algebra's products."""
    d = lcm(*(c.denominator for col in table.values() for c in col.values()))
    return d, {
        pair: {k: c.numerator * (d // c.denominator) for k, c in col.items()}
        for pair, col in table.items()
    }


def bilinear(table: SparseTable, x: Vector, y: Vector, zero=ZERO) -> Vector:
    """Value on coordinate vectors x and y of the antisymmetric map a skew
    sparse table stores (see `sparse_table`).

    The loop runs over the supports of x and y and looks each pair up, so a
    bracket of basis vectors costs one lookup whatever the table's size.
    ``zero`` is the zero of the scalars: `ZERO` for Fractions, 0 for the
    integer tables of `_scaled_sparse` on integer vectors (`lie._mapped`,
    `reduction._restrict` and `check_cocycle`).  On Fractions it serves
    `LieAlgebra.bracket` and `nijenhuis`.
    """
    out = [zero] * len(x)
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in ys:
            flip = i > j
            col = table.get((j, i) if flip else (i, j))
            if col:
                s = -a * b if flip else a * b
                for k, c in col.items():
                    out[k] += s * c
    return tuple(out)


def dense(col: Mapping[int, Fraction], n: int, zero=ZERO) -> Vector:
    """The coordinate vector of a sparse column."""
    return tuple(col.get(k, zero) for k in range(n))


def mat_vec(entries: Sequence, rows: int, cols: int, support: Iterable, zero=ZERO) -> list:
    """Image of a column under the row-major rows x cols matrix ``entries``:
    the sum of a * (column k) over the pairs (k, a) of ``support``, visiting
    only the nonzeros of each column met.  ``zero`` as in `bilinear`.
    `Matrix.apply` is this loop on Fractions."""
    out = [zero] * rows
    for k, a in support:
        if a:
            for i, b in enumerate(entries[k::cols]):
                if b:
                    out[i] += b * a
    return out


def _transpose(m: Sequence, n: int) -> list:
    """The transpose of the row-major n x n matrix ``m``.  A form is
    symmetric when its scaled integers equal their transpose, the one
    symmetry test of `structures.check_quadratic`, `signature`,
    `_complement_int` and `constructions.check_commutative`."""
    return [x for c in range(n) for x in m[c::n]]


def _skew(m: Sequence[int], g: Sequence[int], n: int) -> bool:
    """M^T G + G M = 0 for row-major integer n x n matrices M and G: the
    skew test of j in `check_phq` and of D and F in
    `validate_extension_data`."""
    return not any(map(add, mat_mul(_transpose(m, n), n, n, g, n), mat_mul(g, n, n, m, n)))


def mat_mul(a: Sequence[int], rows: int, inner: int, b: Sequence[int], cols: int) -> list[int]:
    """Row-major product of the rows x inner integer matrix ``a`` and the
    inner x cols integer matrix ``b``: row i sums a[i, k] * (row k of b) over
    the nonzeros a[i, k] and the nonzeros of row k."""
    b_rows = [[(j, x) for j, x in enumerate(b[k * cols : (k + 1) * cols]) if x] for k in range(inner)]
    out = []
    for i in range(rows):
        acc = [0] * cols
        for f, row in zip(a[i * inner : (i + 1) * inner], b_rows):
            if f:
                for j, x in row:
                    acc[j] += f * x
        out += acc
    return out


class Matrix(Record):
    """Dense exact matrix, row-major entries, acting on coordinate columns.
    Products, sums and `apply` skip zero entries."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        self._shape()
        # the methods trust their entries, so an int or float must not get in
        if not all(map(isinstance, self.entries, repeat(Fraction))):
            bad = next(e for e in self.entries if not isinstance(e, Fraction))
            raise TypeError(f"matrix entries must be Fractions, got {bad!r}")

    def _shape(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix shape")
        if len(self.entries) != (size := self.rows * self.cols):
            raise DimensionMismatch(f"{self.rows}x{self.cols} matrix needs {size} entries, got {len(self.entries)}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "Matrix":
        rows = [vector(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            raise DimensionMismatch("empty from_rows needs an explicit column count")
        return cls(len(rows), cols, tuple(e for r in rows for e in r))

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        cols = [vector(c) for c in cols]
        if cols:
            rows = len(cols[0])
            if any(len(c) != rows for c in cols):
                raise DimensionMismatch("ragged columns")
        elif rows is None:
            raise DimensionMismatch("empty from_cols needs an explicit row count")
        return cls(
            rows, len(cols), tuple(cols[j][i] for i in range(rows) for j in range(len(cols)))
        )

    @classmethod
    def _from_scaled(cls, rows: int, cols: int, d: int, ints: Sequence[int], made: dict | None = None) -> "Matrix":
        """The matrix of the row-major ints / d, born with ``_scaled``: d and ints over their gcd,
        `scaled` of the entries.  Callers hand over a list of ints and d > 0, and each x / d is
        made once, or read from ``made``, so only the shape is checked."""
        g = gcd(d, *ints) if d > 1 else 1
        made = made or {x: Fraction(x, d) if x else ZERO for x in set(ints)}
        entries = tuple(map(made.__getitem__, ints))
        m = cls._born(rows, cols, entries, _scaled=(d // g, [x // g for x in ints] if g > 1 else ints))
        m._shape()
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows([unit_vector(n, i) for i in range(n)], n)

    @classmethod
    def zero(cls, rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        v = vector(values)
        n = len(v)
        return cls(n, n, tuple(v[i] if i == j else ZERO for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i},{j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        return Matrix(self.rows, self.cols, add_vec(self.entries, other.entries))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, s) -> "Matrix":
        s = frac(s)
        return Matrix(self.rows, self.cols, tuple(s * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """`mat_mul` of the ``_scaled`` forms, each entry made once, as x / (d_a d_b)."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        (da, a), (db, b) = self._scaled, other._scaled
        return Matrix._from_scaled(self.rows, other.cols, da * db, mat_mul(a, self.rows, self.cols, b, other.cols))

    def apply(self, v: Sequence) -> Vector:
        """The image of the coordinate vector v, on Fractions, for callers that
        apply a matrix to a few vectors: `phq_double_extension`, `nijenhuis`
        and `PHQAlgebra.pairing`.  Scaling the operands of one such call
        costs more than the Fraction arithmetic; the sweeps read ``_scaled``."""
        v = vector(v)
        if self.cols != len(v):
            raise DimensionMismatch(f"{self.rows}x{self.cols} applied to length-{len(v)} vector")
        return tuple(mat_vec(self.entries, self.rows, self.cols, enumerate(v)))

    @kept
    def _scaled(self) -> Scaled:
        """`scaled` of the entries, kept: the least common denominator d and
        the row-major integers d * entries."""
        return scaled(self.entries)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        The result is the unique RREF, independent of row order of the input.
        Each row is scaled by its least common denominator, and the rows
        span a subspace (`_span_int`), whose basis is the nonzero rows; the
        pivot of an echelon row is the first place of its scale.
        """
        s = _span_int(self.cols, [scaled(self.row(i))[1] for i in range(self.rows)])
        out = [e for b in s.basis for e in b] + [ZERO] * ((self.rows - s.dim) * self.cols)
        return Matrix(self.rows, self.cols, tuple(out)), tuple(x.index(d) for d, x in s.echelon)

    def rank(self) -> int:
        """The number of pivots `eliminate` finds in the rows of ``_scaled``."""
        ints, c = self._scaled[1], self.cols
        return len(eliminate([ints[i * c : (i + 1) * c] for i in range(self.rows)], c)[1])


def solve_linear(a: Matrix, b: Sequence) -> Vector | None:
    """Some exact solution of ``a @ x = b``, or None if inconsistent.

    Among all solutions, returns the one with zeros in every free column of
    the RREF (the minimal-support representative for a fixed pivot order),
    so the result is deterministic.
    """
    bv = vector(b)
    if len(bv) != a.rows:
        raise DimensionMismatch(f"matrix has {a.rows} rows, rhs has length {len(bv)}")
    xs = _solve_int([scaled(a.row(i) + bv[i : i + 1])[1] for i in range(a.rows)], [1] * a.cols, [1])
    return None if xs is None else _unscaled(xs[0])


def _solve_int(rows: Iterable[list[int]], scales: Sequence[int], dens: Sequence[int]) -> list[Scaled] | None:
    """The `solve_linear` solution of each column r of B, as `Scaled` pairs
    over one scale, from one `eliminate` of the integer rows ``[A | B]``, or
    None if any column is inconsistent; column c of A is scales[c] times the
    rational column, column r of B dens[r] times the right-hand side, and
    the pivot c of a reduced row gives x_c = row[k] * scales[c] / (row[c] *
    dens[r]).  Each column gets the solution it gets alone."""
    cols = len(scales)
    red, pivots = eliminate(rows, cols + len(dens))
    if pivots and pivots[-1] >= cols:
        return None
    big, common = lcm(*(row[c] for row, c in zip(red, pivots))), lcm(*dens)
    xs = [[0] * cols for _ in dens]
    for row, c in zip(red, pivots):
        f = scales[c] * (big // row[c])
        for x, e, den in zip(xs, row[cols:], dens):
            x[c] = e * f * (common // den)
    return [(big * common, x) for x in xs]


def eliminate(rows: Iterable[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows of length
    ``cols``: the reduced nonzero rows and their pivot columns.

    A pivot row r, pivot pv, clears column c of every other row with the
    integer row operation pv * row_i - f * row_r, and each new row is divided
    by the gcd of its entries.  Row r divided by its pivot is row r of the
    unique RREF over the rationals.
    """
    m = [row for row in rows if any(row)]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pv = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [pv * a - f * b for a, b in zip(row, top)]
                g = gcd(*row)
                m[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m[: len(pivots)], pivots


def _unscaled(x: Scaled) -> Vector:
    """The Fraction vector of a `Scaled` pair."""
    return tuple(Fraction(a, x[0]) if a else ZERO for a in x[1])


def _span_int(n: int, rows: Iterable[Sequence[int]]) -> Subspace:
    """The span of integer rows of length n as a canonical subspace: each
    row from `eliminate` over its gcd, signed so that its pivot (the scale)
    is positive, is `scaled` of a vector of the RREF basis."""
    red, pivots = eliminate(rows, n)
    gs = [gcd(*row) if row[c] > 0 else -gcd(*row) for row, c in zip(red, pivots)]
    return Subspace(n, tuple((row[c] // g, tuple(a // g for a in row)) for row, c, g in zip(red, pivots, gs)))


def _kernel_int(rows: Iterable[list[int]], cols: int) -> Subspace:
    """The null space of integer rows of length ``cols``, as a canonical
    subspace."""
    return _span_int(cols, _null_int(rows, cols))


def _null_int(rows: Iterable[list[int]], cols: int) -> list[list[int]]:
    """Integer basis vectors of the null space of integer rows of length
    ``cols``, one per free column.  The vector of a free column f takes, at
    f, the lcm L of the pivots pv of the reduced rows with an entry e at f,
    and -e * L / pv at each of their pivot columns, so it stays integral."""
    red, pivots = eliminate(rows, cols)
    pivot_set = set(pivots)
    basis = []
    for free in (c for c in range(cols) if c not in pivot_set):
        v = [0] * cols
        v[free] = lcm(*(row[c] for row, c in zip(red, pivots) if row[free]))
        for row, c in zip(red, pivots):
            if row[free]:
                v[c] = -row[free] * (v[free] // row[c])
        basis.append(v)
    return basis


def kernel(a: Matrix) -> Subspace:
    """The exact null space {x : a @ x = 0} as a canonical subspace."""
    return _kernel_int([scaled(a.row(i))[1] for i in range(a.rows)], a.cols)


class Subspace(Record):
    """A linear subspace as its canonical echelon rows: the `Scaled` pair
    (pivot, primitive integer row) of each vector of its RREF basis, as
    `scaled` gives it, so equal subspaces compare equal with ``==``."""

    ambient_dim: int
    echelon: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vs = [vector(v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise DimensionMismatch(f"vector of length {len(v)} in ambient dim {ambient_dim}")
        return _span_int(ambient_dim, [scaled(v)[1] for v in vs])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        n = ambient_dim
        return cls(n, tuple((1, tuple(int(i == j) for j in range(n))) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The RREF basis as Fractions, made on each read, for the cold paths."""
        return tuple(map(_unscaled, self.echelon))

    def _holds(self, x: Sequence[int]) -> bool:
        """Whether the integer vector x lies in the span: it adds no pivot to the echelon rows."""
        return len(eliminate([*(y for _, y in self.echelon), x], self.ambient_dim)[1]) == self.dim


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Largest subspace contained in both."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatch("subspaces in different ambient spaces")
    n = u.ambient_dim
    frame = [x for _, x in u.echelon + v.echelon]
    rows = [[x[i] for x in frame] for i in range(n)]  # [U | V]
    # (a, b) in the null space of [U | V] means U a = -V b, a point of both
    nulls = _null_int(rows, len(frame))
    return _span_int(n, [[sum(map(mul, a[: u.dim], row)) for row in rows] for a in nulls])


def _complement_int(n: int, g: Sequence[int], xs: Iterable[Sequence[int]]) -> Subspace:
    """The orthogonal complement of the integer vectors ``xs`` for the
    row-major n x n integer form G, the null space of the rows G x; raises
    `NotSymmetricError` unless G is symmetric.  `reduction._choose` takes it
    as the basis of a step."""
    if g != _transpose(g, n):
        raise NotSymmetricError("pairing matrix must be symmetric")
    return _kernel_int([mat_vec(g, n, n, enumerate(x), 0) for x in xs], n)


def map_image(m: Matrix, u: Subspace) -> Subspace:
    """Image of a subspace under a linear map."""
    if m.cols != u.ambient_dim:
        raise DimensionMismatch(f"{m.rows}x{m.cols} map on a subspace of ambient dim {u.ambient_dim}")
    mn = m._scaled[1]
    return _span_int(m.rows, [mat_vec(mn, m.rows, m.cols, enumerate(x), 0) for _, x in u.echelon])


def _gram_int(n: int, dg: int, gn: Sequence[int], vs: Sequence[Scaled]) -> Matrix:
    """Gram matrix B^T g B of the n x n form g = gn / dg, gn row-major
    integers, on the vectors of the `Scaled` pairs (s, x) of ``vs``, the
    columns of B: entry (a, b) is x_a . (gn x_b) / (dg s_a s_b), over dg
    L^2 for the lcm L of the s_a.  Every Gram matrix is formed here: the
    metric on the derived ideal's echelon rows in `fingerprint`, and the
    metric a reduction step restricts."""
    images, big = [mat_vec(gn, n, n, enumerate(x), 0) for _, x in vs], lcm(*(s for s, _ in vs))
    gram = [sum(map(mul, x, y)) * (big // s) * (big // t) for s, x in vs for (t, _), y in zip(vs, images)]
    return Matrix._from_scaled(len(vs), len(vs), dg * big * big, gram)


def signature(g: Matrix) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric matrix, computed exactly.

    Symmetric congruence elimination over the integers d * g (``_scaled``): a
    nonzero diagonal entry p is pivoted away by the scaled Schur step
    m <- p * m - m_i m_i^T on the rest of the block, which is then divided by
    the gcd of its entries.  The rest is p times the true Schur complement,
    so a negative p flips the inertia of what remains; the sign of the
    product of the pivots used so far says how to count the next one.  When
    every remaining diagonal entry is zero but some m[i, j] is not, the
    congruence e_i -> e_i + e_j first makes m[i, i] = 2 m[i, j] nonzero.
    p + q < n exactly when ``g`` is degenerate.
    """
    if g.rows != g.cols:
        raise NotSymmetricError("signature needs a square matrix")
    n = g.rows
    flat = g._scaled[1]
    if flat != _transpose(flat, n):
        raise NotSymmetricError("signature needs a symmetric matrix")
    m = [flat[i * n : (i + 1) * n] for i in range(n)]
    pos = neg = 0
    flipped = False
    while m:
        i = next((k for k, row in enumerate(m) if row[k]), None)
        if i is None:
            pair = next(((a, b) for a, row in enumerate(m) for b in range(a + 1, len(m)) if row[b]), None)
            if pair is None:
                break  # remaining block is identically zero: degenerate part
            i, j = pair
            # add column j to column i, then row j to row i
            for row in m:
                row[i] += row[j]
            m[i] = [a + b for a, b in zip(m[i], m[j])]
        top = m[i]
        p = top[i]
        if (p > 0) != flipped:
            pos += 1
        else:
            neg += 1
        rest = [k for k in range(len(m)) if k != i]
        m = [[p * m[k][l] - m[k][i] * top[l] for l in rest] for k in rest]
        d = gcd(*(a for row in m for a in row))
        if d > 1:
            m = [[a // d for a in row] for row in m]
        flipped ^= p < 0
    return pos, neg

"""Hypothesis strategies for exact rational data."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from phq import Matrix, Subspace

rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)

small_dims = st.integers(min_value=1, max_value=5)


def vectors(n: int):
    return st.tuples(*([rationals] * n))


def matrices(rows: int, cols: int):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda r: Matrix.from_rows(r, cols=cols))


def symmetric_matrices(n: int):
    def build(rows):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rows[i][j]
        return Matrix.from_rows(m, cols=n)

    return st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n).map(build)


def invertible_matrices(n: int):
    """Products of elementary operations applied to the identity: always
    invertible and exactly representable."""

    op = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
        rationals,
    )

    def build(ops):
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i, j, c in ops:
            if i == j:
                continue
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        return Matrix.from_rows(rows, cols=n)

    return st.lists(op, min_size=0, max_size=3 * n).map(build)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# Zero or a numerator up to 10^6 over a prime: entries of one matrix carry
# large, mostly coprime denominators, so clearing them is real work.
coprime_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-(10**6), max_value=10**6), st.sampled_from(PRIMES)),
)


def _product(left, right, cols):
    return [[sum((a * r[j] for a, r in zip(row, right)), Fraction(0)) for j in range(cols)] for row in left]


@st.composite
def deficient_matrices(draw, max_rows=5, max_cols=6):
    """A product L R of coprime-rational factors with inner size k, so of rank
    at most k (k = 0 gives the zero matrix), with some rows then zeroed."""
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    k = draw(st.integers(min_value=0, max_value=min(rows, cols)))
    left = draw(st.lists(st.lists(coprime_rationals, min_size=k, max_size=k), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(coprime_rationals, min_size=cols, max_size=cols), min_size=k, max_size=k))
    zeroed = draw(st.sets(st.integers(min_value=0, max_value=rows - 1), max_size=rows))
    m = _product(left, right, cols)
    return Matrix.from_rows([[Fraction(0)] * cols if i in zeroed else r for i, r in enumerate(m)], cols=cols)


@st.composite
def deficient_symmetric_matrices(draw, n=4):
    """L^T D L for a k x n coprime-rational L and a diagonal D of either
    sign: symmetric of rank at most k."""
    k = draw(st.integers(min_value=0, max_value=n))
    left = draw(st.lists(st.lists(coprime_rationals, min_size=n, max_size=n), min_size=k, max_size=k))
    diag = draw(st.lists(coprime_rationals, min_size=k, max_size=k))
    scaled = [[d * a for a in row] for d, row in zip(diag, left)]
    transposed = [list(col) for col in zip(*left)] if k else [[] for _ in range(n)]
    return Matrix.from_rows(_product(transposed, scaled, n), cols=n)


def subspaces(n=4):
    """The zero subspace, the full one, or the span of up to n + 1
    coprime-rational vectors of length n (so often of lower dimension)."""
    spans = st.lists(st.lists(coprime_rationals, min_size=n, max_size=n), max_size=n + 1)
    return st.one_of(
        st.just(Subspace.zero(n)), st.just(Subspace.full(n)), spans.map(lambda vs: Subspace.span(n, vs))
    )

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phq import (
    Cocycle,
    DimensionMismatch,
    LieAlgebra,
    Matrix,
    NotSymmetricError,
    PhqError,
    Subspace,
    build,
    intersect,
    gram_restriction,
    kernel,
    map_image,
    orthogonal_complement,
    signature,
    solve_linear,
    vector,
)

from phq.linalg import add_vec, dot, solve_linear_many, sub_vec

from oracles import (
    entries,
    naive_apply,
    naive_pair,
    nullspace_oracle,
    rank_oracle,
    rref_oracle,
    signature_oracle,
    solve_oracle,
)
from strategies import (
    coprime_rationals,
    deficient_matrices,
    deficient_symmetric_matrices,
    invertible_matrices,
    matrices,
    subspaces,
    symmetric_matrices,
)


F = Fraction


class TestMatrix:
    @pytest.mark.parametrize("entries", [(2, 0, 0, 1), (F(1, 2), 0.5, F(0), F(1))], ids=["int", "float"])
    def test_constructor_takes_only_fractions(self, entries):
        # from_rows coerces; the raw constructor must not let an int or a
        # float reach rref, which would return floats
        with pytest.raises(TypeError, match="must be Fractions"):
            Matrix(2, 2, entries)


class TestVector:
    def test_fraction_tuple_is_returned_as_is(self):
        v = (F(1, 3), F(-2), F(0))
        assert vector(v) is v

    def test_ints_and_rational_strings_are_coerced(self):
        for given in ([1, "-2/3", F(1, 2)], (1, "-2/3", F(1, 2))):
            v = vector(given)
            assert v == (F(1), F(-2, 3), F(1, 2))
            assert all(type(e) is Fraction for e in v)

    @pytest.mark.parametrize("given", [[0.5, F(1)], (F(1), 0.5)], ids=["list", "tuple"])
    def test_floats_raise(self, given):
        with pytest.raises(TypeError, match="not an exact rational"):
            vector(given)


class TestSparseTable:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Cocycle(4, {(1, 0): {2: 1}}),
            lambda: Cocycle(4, {(0, 1): {7: 1}}),
            lambda: LieAlgebra.from_brackets(3, {(0, 5): {1: 1}}),
        ],
        ids=["skew_pair_i_above_j", "target_out_of_range", "index_out_of_range"],
    )
    def test_bad_index_is_a_phq_error(self, make):
        with pytest.raises(PhqError) as info:
            make()
        assert isinstance(info.value, DimensionMismatch)


I2, I3, Z2 = Matrix.identity(2), Matrix.identity(3), Subspace.zero(2)
DIFFERENT_AMBIENTS = "subspaces in different ambient spaces"


class TestShapeGuards:
    # each shape guard of the module, with the error it raises and its text
    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: add_vec((1,), (1, 2)), DimensionMismatch, "vector lengths 1 and 2"),
            (lambda: sub_vec((1,), (1, 2)), DimensionMismatch, "vector lengths 1 and 2"),
            (lambda: dot((1, 2), (1,)), DimensionMismatch, "vector lengths 2 and 1"),
            (lambda: Matrix(-1, 0, ()), DimensionMismatch, "negative matrix shape"),
            (lambda: Matrix(2, 2, (F(1),)), DimensionMismatch, "2x2 matrix needs 4 entries, got 1"),
            (lambda: Matrix.from_rows([[1], [1, 2]]), DimensionMismatch, "ragged rows"),
            (
                lambda: Matrix.from_rows([]),
                DimensionMismatch,
                "empty from_rows needs an explicit column count",
            ),
            (lambda: Matrix.from_cols([[1], [1, 2]]), DimensionMismatch, "ragged columns"),
            (lambda: Matrix.from_cols([]), DimensionMismatch, "empty from_cols needs an explicit row count"),
            (lambda: I2 + I3, DimensionMismatch, "2x2 vs 3x3"),
            (lambda: I2 @ I3, DimensionMismatch, "2x2 @ 3x3"),
            (lambda: I2.apply((1,)), DimensionMismatch, "2x2 applied to length-1 vector"),
            (lambda: I2[2, 0], IndexError, "(2,0) out of range for 2x2"),
            (
                lambda: solve_linear_many(I2, [(1, 2), (1,)]),
                DimensionMismatch,
                "matrix has 2 rows, rhs has length 1",
            ),
            (lambda: Subspace.span(2, [[1]]), DimensionMismatch, "vector of length 1 in ambient dim 2"),
            (lambda: Z2.contains((1,)), DimensionMismatch, "vector/ambient dimension mismatch"),
            (lambda: Z2.sum_with(Subspace.zero(3)), DimensionMismatch, DIFFERENT_AMBIENTS),
            (lambda: intersect(Z2, Subspace.zero(3)), DimensionMismatch, DIFFERENT_AMBIENTS),
            (
                lambda: orthogonal_complement(Z2, I3),
                DimensionMismatch,
                "pairing matrix must be square of the ambient dimension",
            ),
            (lambda: map_image(I3, Z2), DimensionMismatch, "3x3 map on a subspace of ambient dim 2"),
            (
                lambda: gram_restriction(I2, [[1]]),
                DimensionMismatch,
                "Gram matrix needs a square form and vectors of its dimension",
            ),
            (lambda: signature(Matrix.zero(2, 3)), NotSymmetricError, "signature needs a square matrix"),
            (
                lambda: signature(Matrix.from_rows([[0, 1], [0, 0]])),
                NotSymmetricError,
                "signature needs a symmetric matrix",
            ),
        ],
        ids=[
            "add_vec", "sub_vec", "dot", "negative_shape", "entry_count", "ragged_rows", "empty_rows",
            "ragged_cols", "empty_cols", "add", "matmul", "apply", "getitem", "solve_linear_many",
            "span", "contains", "sum_with", "intersect", "orthogonal_complement", "map_image",
            "gram_restriction", "signature_square", "signature_symmetric",
        ],
    )
    def test_each_guard_names_the_mismatch(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message


class TestSolveLinear:
    def test_identity_system(self):
        assert solve_linear(Matrix.identity(2), (3, F(-1, 2))) == vector([3, F(-1, 2)])

    def test_inconsistent_rank_one(self):
        a = Matrix.from_rows([[1, 1], [2, 2]])
        assert solve_linear(a, (1, 3)) is None

    def test_swap_system(self):
        a = Matrix.from_rows([[0, 1], [1, 0]])
        x = solve_linear(a, (5, 7))
        assert x == vector([7, 5])
        assert a.apply(x) == vector([5, 7])

    @given(matrices(3, 4), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
    def test_solution_solves_or_system_is_inconsistent(self, a, b):
        x = solve_linear(a, b)
        if x is not None:
            assert a.apply(x) == vector(b)
        else:
            aug = Matrix.from_rows([a.row(i) + (Fraction(b[i]),) for i in range(3)])
            assert rank_oracle(aug) == rank_oracle(a) + 1

    @given(
        matrices(3, 4),
        st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), max_size=4),
    )
    def test_many_right_hand_sides_match_single_solves(self, a, bs):
        singles = [solve_linear(a, b) for b in bs]
        many = solve_linear_many(a, bs)
        if None in singles:
            assert many is None
        else:
            assert many == singles
        # A consistent column after an inconsistent one does not hide it.
        consistent = a.apply((1, -2, 0, 3))
        for b, x in zip(bs, singles):
            if x is None:
                assert solve_linear_many(a, [b, consistent]) is None

    def test_many_inconsistent_column_before_consistent_one(self):
        a = Matrix.from_rows([[1, 1], [2, 2]])
        assert solve_linear_many(a, [(1, 3), (1, 2)]) is None
        assert solve_linear_many(a, [(1, 2), (2, 4)]) == [vector([1, 0]), vector([2, 0])]


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        assert kernel(Matrix.zero(2, 2)) == Subspace.full(2)

    def test_identity_trivial_kernel(self):
        assert kernel(Matrix.identity(3)) == Subspace.zero(3)

    def test_rank_one_kernel(self):
        a = Matrix.from_rows([[1, 2], [2, 4]])
        ker = kernel(a)
        assert ker == Subspace.span(2, [vector([-2, 1])])
        assert a.apply(vector([-2, 1])) == vector([0, 0])
        assert a.rank() == 1

    @given(matrices(3, 5))
    def test_rank_nullity(self, a):
        assert a.rank() + kernel(a).dim == a.cols
        assert a.rank() == rank_oracle(a)

    @given(matrices(4, 4))
    def test_kernel_vectors_annihilated(self, a):
        for b in kernel(a).basis:
            assert all(c == 0 for c in a.apply(b))


class TestSubspaces:
    def test_intersect_self(self):
        u = Subspace.span(3, [vector([1, 2, 0]), vector([0, 0, 1])])
        assert intersect(u, u) == u

    def test_intersect_transverse_lines(self):
        u = Subspace.span(2, [vector([1, 0])])
        v = Subspace.span(2, [vector([0, 1])])
        assert intersect(u, v) == Subspace.zero(2)

    def test_intersect_planes(self):
        u = Subspace.span(3, [vector([1, 0, 0]), vector([0, 1, 0])])
        v = Subspace.span(3, [vector([0, 1, 0]), vector([0, 0, 1])])
        assert intersect(u, v) == Subspace.span(3, [vector([0, 1, 0])])

    @given(
        st.lists(st.tuples(*([st.integers(-3, 3)] * 4)), min_size=0, max_size=3),
        st.lists(st.tuples(*([st.integers(-3, 3)] * 4)), min_size=0, max_size=3),
    )
    def test_dimension_formula(self, us, vs):
        u = Subspace.span(4, [vector(x) for x in us])
        v = Subspace.span(4, [vector(x) for x in vs])
        assert intersect(u, v).dim == u.dim + v.dim - u.sum_with(v).dim

    @given(st.lists(st.tuples(*([st.integers(-3, 3)] * 4)), min_size=1, max_size=4), st.data())
    def test_span_is_order_independent(self, vs, data):
        vs = [vector(x) for x in vs]
        shuffled = data.draw(st.permutations(vs))
        assert Subspace.span(4, vs) == Subspace.span(4, shuffled)


class TestOrthogonalComplement:
    def test_zero_subspace(self):
        assert orthogonal_complement(Subspace.zero(3), Matrix.identity(3)) == Subspace.full(3)

    def test_euclidean_line(self):
        u = Subspace.span(2, [vector([1, 0])])
        assert orthogonal_complement(u, Matrix.identity(2)) == Subspace.span(2, [vector([0, 1])])

    def test_isotropic_line_self_orthogonal(self):
        g = Matrix.from_rows([[0, 1], [1, 0]])
        u = Subspace.span(2, [vector([1, 0])])
        assert orthogonal_complement(u, g) == u

    @given(st.lists(st.tuples(*([st.integers(-3, 3)] * 4)), min_size=0, max_size=3))
    def test_involution_for_nondegenerate_form(self, vs):
        g = Matrix.diagonal([1, 1, -1, -1])
        u = Subspace.span(4, [vector(x) for x in vs])
        assert orthogonal_complement(orthogonal_complement(u, g), g) == u

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetricError):
            orthogonal_complement(Subspace.full(2), Matrix.from_rows([[0, 1], [0, 0]]))

    def test_mixed_denominators(self):
        # 1/3 and 2/5 scale to 5 and 6 over 15: the integers stay symmetric
        g = Matrix.from_rows([[F(1, 3), F(2, 5)], [F(2, 5), 0]])
        u = Subspace.span(2, [vector([1, 0])])
        assert orthogonal_complement(u, g) == Subspace.span(2, [vector([6, -5])])
        assert signature(g) == (1, 1)


class TestSignature:
    def test_euclidean_plane(self):
        assert signature(Matrix.identity(2)) == (2, 0)

    def test_hyperbolic_plane(self):
        assert signature(Matrix.from_rows([[0, 1], [1, 0]])) == (1, 1)

    def test_core_metric_signature(self):
        assert signature(build("L(4,2)").phi) == (4, 2)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetricError):
            signature(Matrix.from_rows([[0, 1], [0, 0]]))

    def test_degenerate_counts_fall_short(self):
        g = Matrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        assert signature(g) == (1, 1)

    @given(symmetric_matrices(4))
    def test_matches_charpoly_oracle(self, g):
        assert signature(g) == signature_oracle(g)

    @given(symmetric_matrices(4))
    def test_zero_diagonal_matches_charpoly_oracle(self, g):
        # no diagonal pivot: the first step is the congruence e_i -> e_i + e_j
        h = Matrix.from_rows([[0 if i == j else g[i, j] for j in range(4)] for i in range(4)])
        assert signature(h) == signature_oracle(h)

    @given(symmetric_matrices(3), invertible_matrices(3))
    def test_congruence_invariance(self, g, p):
        assert signature(p.transpose() @ g @ p) == signature(g)


class TestEliminationAgainstSympy:
    """rref and what is built on it, on large coprime denominators, zero rows
    and rank-deficient matrices, against sympy."""

    @given(deficient_matrices())
    def test_rref(self, a):
        red, pivots = a.rref()
        assert (entries(red), pivots) == rref_oracle(a)
        # no int (or float) leaks out of the elimination
        assert all(type(e) is Fraction for e in red.entries)

    @given(deficient_matrices())
    def test_kernel(self, a):
        basis = kernel(a).basis
        assert [list(v) for v in basis] == nullspace_oracle(a)
        assert all(type(e) is Fraction for v in basis for e in v)

    @given(deficient_matrices(), st.data())
    def test_solve_linear_many(self, a, data):
        def rhs():
            if data.draw(st.booleans()):  # consistent by construction
                x = data.draw(st.lists(coprime_rationals, min_size=a.cols, max_size=a.cols))
                return [sum((a[i, j] * x[j] for j in range(a.cols)), F(0)) for i in range(a.rows)]
            return data.draw(st.lists(coprime_rationals, min_size=a.rows, max_size=a.rows))

        bs = [rhs() for _ in range(data.draw(st.integers(min_value=0, max_value=3)))]
        found = solve_linear_many(a, bs)
        expected = solve_oracle(a, bs)
        assert (found is None) == (expected is None)
        if found is not None:
            assert [list(x) for x in found] == expected
            assert all(type(e) is Fraction for x in found for e in x)

    @given(deficient_symmetric_matrices())
    def test_signature(self, g):
        assert signature(g) == signature_oracle(g)


def null_oracle(n, rows):
    """sympy's canonical null-space basis of the rows; a zero row keeps the
    matrix n columns wide when there are no rows."""
    return nullspace_oracle(Matrix.from_rows([*rows, [0] * n], cols=n))


def span_oracle(n, vectors):
    """Canonical basis of the span: the null space of the annihilator."""
    return null_oracle(n, null_oracle(n, vectors))


def rows_of(subspace):
    assert all(type(e) is Fraction for b in subspace.basis for e in b)
    return [list(b) for b in subspace.basis]


maps_from_4 = st.integers(min_value=1, max_value=5).flatmap(
    lambda r: st.lists(st.lists(coprime_rationals, min_size=4, max_size=4), min_size=r, max_size=r)
).map(lambda rows: Matrix.from_rows(rows, cols=4))


class TestSubspaceMapsAgainstSympy:
    """intersect, map_image, orthogonal_complement and gram_restriction on
    coprime denominators, the zero and the full subspace and degenerate
    forms, against sympy's null spaces and a naive B^T g B."""

    @given(subspaces(), subspaces())
    def test_intersect(self, u, v):
        # u ∩ v is the common null space of the annihilators of u and of v
        expected = null_oracle(4, null_oracle(4, u.basis) + null_oracle(4, v.basis))
        assert rows_of(intersect(u, v)) == expected
        assert rows_of(intersect(u, Subspace.full(4))) == rows_of(u)
        assert intersect(u, Subspace.zero(4)) == Subspace.zero(4)

    @given(maps_from_4, subspaces())
    def test_map_image(self, m, u):
        images = [naive_apply(entries(m), b) for b in u.basis]
        found = map_image(m, u)
        assert rows_of(found) == span_oracle(m.rows, images)
        assert found.dim == rank_oracle(Matrix.from_rows([*images, [0] * m.rows], cols=m.rows))

    @given(deficient_symmetric_matrices(), subspaces())
    def test_orthogonal_complement(self, g, u):
        images = [naive_apply(entries(g), w) for w in u.basis]
        found = orthogonal_complement(u, g)
        assert rows_of(found) == null_oracle(4, images)
        assert found.dim == 4 - rank_oracle(Matrix.from_rows([*images, [0] * 4], cols=4))

    @given(
        deficient_symmetric_matrices(),
        subspaces(),
        st.lists(st.lists(coprime_rationals, min_size=4, max_size=4), max_size=3),
    )
    def test_gram_restriction(self, g, u, loose):
        # on a canonical basis and on loose, possibly dependent vectors
        gm = entries(g)
        for vectors in (u.basis, [vector(x) for x in loose]):
            gram = gram_restriction(g, vectors)
            assert (gram.rows, gram.cols) == (len(vectors), len(vectors))
            assert entries(gram) == [[naive_pair(gm, x, y) for y in vectors] for x in vectors]
            assert all(type(e) is Fraction for e in gram.entries)

    def test_degenerate_and_zero_forms(self):
        g = Matrix.from_rows([[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
        full = Subspace.full(4)
        assert rows_of(orthogonal_complement(full, g)) == null_oracle(4, entries(g))
        assert orthogonal_complement(full, Matrix.zero(4)) == full
        assert gram_restriction(Matrix.zero(4), full.basis) == Matrix.zero(4)
        assert entries(gram_restriction(g, full.basis)) == entries(g)

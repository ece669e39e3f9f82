from fractions import Fraction

import pytest
from hypothesis import given

from phq import (
    DimensionMismatch,
    LieAlgebra,
    Matrix,
    Subspace,
    build,
    check_jacobi,
    orthogonal_complement,
    tstar_kodaira,
    kodaira_cocycle_basis,
    kodaira_thurston,
    vector,
)

from phq.linalg import unit_vector
from phq.lie import _ad_matrix, _derivation_failures, format_vector

from conftest import ALL_LABELS
from oracles import naive_jacobi_violations, structure_tensor
from strategies import matrices, vectors


@pytest.fixture(scope="module")
def tstar0():
    return tstar_kodaira()


@pytest.fixture(scope="module")
def tstar3():
    return tstar_kodaira(kodaira_cocycle_basis()[2])


class TestFormatVector:
    def test_marks_a_coefficient_too_long_to_print(self):
        # Python 3.11 converts at most 4,300 digits of an int to decimal by
        # default; a longer coefficient prints as <long> after its sign
        big = 10**4400 + 1
        assert format_vector([Fraction(1, big)], ["e1"]) == "<long>*e1"
        v = [Fraction(-big, 3), Fraction(1), Fraction(-2, 3)]
        assert format_vector(v, ["e1", "e2", "e3"]) == "-<long>*e1 +e2 -2/3*e3"


    def test_zero_vector_is_0(self):
        assert format_vector([Fraction(0)] * 3, ["e1", "e2", "e3"]) == "0"


class TestShapeGuards:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda a: a.bracket((1,), (1, 0)), "bracket arguments must match the algebra dimension"),
            (lambda a: a.bracket((1, 0), (1, 0, 0)), "bracket arguments must match the algebra dimension"),
        ],
        ids=["bracket_x", "bracket_y"],
    )
    def test_wrong_length_raises(self, make, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            make(LieAlgebra.abelian(2))


class TestBracket:
    def test_core_bracket(self, core):
        # [x1, Jx1] = x2 in the six-dimensional model
        assert core.algebra.bracket(unit_vector(6, 0), unit_vector(6, 1)) == unit_vector(6, 2)

    def test_bracket_with_itself_vanishes(self, core):
        x = vector([1, 2, Fraction(-1, 3), 0, 5, 1])
        assert core.algebra.bracket(x, x) == vector([0] * 6)

    def test_bilinear_expansion_on_carrier(self):
        k, _ = kodaira_thurston()
        x = vector([1, 1, 0, 0])  # x1 + x2
        assert k.bracket(x, unit_vector(4, 1)) == unit_vector(4, 2)

    @given(vectors(6), vectors(6))
    def test_antisymmetry(self, x, y):
        algebra = build("L(4,2)").algebra
        assert algebra.bracket(x, y) == tuple(-c for c in algebra.bracket(y, x))


class TestJacobi:
    def test_abelian_passes(self):
        assert check_jacobi(LieAlgebra.abelian(4)).ok

    def test_core_passes(self, core):
        assert check_jacobi(core.algebra).ok

    def test_failing_three_dimensional_table(self):
        bad = LieAlgebra.from_brackets(3, {(0, 1): {0: 1}, (0, 2): {1: 1}})
        # [e1,e2]=e1, [e3,e1]=-e2: the cycle on (e1,e2,e3) leaves -e2
        report = check_jacobi(bad)
        assert not report.ok
        assert report.failures == ("Jacobi fails on (e1, e2, e3): residual -e2",)
        assert naive_jacobi_violations(structure_tensor(bad)) == [(0, 1, 2)]

    def test_oracle_agreement_on_catalog(self, tstar3):
        assert check_jacobi(tstar3.algebra).ok
        assert naive_jacobi_violations(structure_tensor(tstar3.algebra)) == []


class TestAdjoint:
    # `_ad_matrix` is ad(x) of an integer x on the integer table, row-major
    def test_abelian_adjoint_is_zero(self):
        a = LieAlgebra.abelian(3)
        assert not any(_ad_matrix(a, [1, 2, 3]))

    def test_core_adjoint_columns(self, core):
        ad = _ad_matrix(core.algebra, [1, 0, 0, 0, 0, 0])
        assert ad[1::6] == [0, 0, 1, 0, 0, 0]  # Jx1 -> x2
        assert ad[2::6] == [0, 0, 0, 0, 0, -1]  # x2 -> -Jx3
        for i in (0, 3, 4, 5):
            assert ad[i::6] == [0] * 6

    def test_central_element_has_zero_adjoint(self):
        k, _ = kodaira_thurston()
        assert not any(_ad_matrix(k, [0, 0, 1, 0]))


class TestSeriesAndIdeals:
    def test_abelian_center_is_everything(self):
        assert LieAlgebra.abelian(6).center() == Subspace.full(6)

    def test_center_dimensions(self, tstar0, tstar3):
        assert tstar0.algebra.center().dim == 5
        assert tstar3.algebra.center().dim == 3

    def test_derived_dimensions(self, core, tstar3):
        assert LieAlgebra.abelian(4).derived_ideal().dim == 0
        derived = core.algebra.derived_ideal()
        assert derived.dim == 3
        expected = Subspace.span(6, [unit_vector(6, 2), unit_vector(6, 4), unit_vector(6, 5)])
        assert derived == expected
        assert tstar3.algebra.derived_ideal().dim == 5

    def test_nilpotency_indices(self, core, tstar0):
        assert LieAlgebra.abelian(2).nilpotency_index() == 1
        assert core.algebra.nilpotency_index() == 3
        assert tstar0.algebra.nilpotency_index() == 2

    def test_not_nilpotent_is_a_value(self):
        solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
        assert solvable.nilpotency_index() is None

    def test_center_is_orthogonal_of_derived(self):
        for name in (
            "R(2,2)", "L(4,2)", "L(2,4)", "Tstar0K", "TstarTheta3K",
            "L(4,2)+R(2,0)", "L(2,4)+R(0,2)", "L(4,2)+R(0,2)", "L(2,4)+R(2,0)",
        ):
            p = build(name)
            assert p.algebra.center() == orthogonal_complement(
                p.algebra.derived_ideal(), p.phi
            ), name

    def test_index_one_iff_abelian(self, core):
        assert (LieAlgebra.abelian(4).nilpotency_index() == 1) == (
            LieAlgebra.abelian(4).derived_ideal().dim == 0
        )
        assert core.algebra.nilpotency_index() != 1
        assert core.algebra.derived_ideal().dim != 0

    def test_series_expands_only_the_terms_after_c0(self, monkeypatch):
        # C1 is the derived ideal, so ad(c) is written for the basis vectors c
        # of C1, C2, ... only, never for the n basis vectors of C0 = g: count
        # the vectors the series hands to `_twisted`
        import phq.lie

        calls = []
        twisted = phq.lie._twisted

        def counting(algebra, xs):
            xs = list(xs)
            calls.extend(xs)
            return twisted(algebra, xs)

        monkeypatch.setattr(phq.lie, "_twisted", counting)
        for name in ALL_LABELS:
            algebra = build(name).algebra
            calls.clear()
            series = algebra.lower_central_series()
            assert len(calls) == sum(term.dim for term in series[1:]), name


class TestDerivations:
    def test_zero_map_is_derivation(self, core):
        assert _derivation_failures(core.algebra, Matrix.zero(6)._scaled[1]) == []

    @given(matrices(3, 3))
    def test_any_map_is_derivation_of_abelian(self, m):
        assert _derivation_failures(LieAlgebra.abelian(3), m._scaled[1]) == []

    def test_adjoints_are_derivations(self, core, tstar3):
        for p in (core, tstar3):
            n = p.dim
            for i in range(n):
                ad = _ad_matrix(p.algebra, [int(k == i) for k in range(n)])
                assert _derivation_failures(p.algebra, ad) == []

    def test_non_derivation_detected(self, core):
        m = Matrix.identity(6)
        assert _derivation_failures(core.algebra, m._scaled[1])

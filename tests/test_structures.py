import random
import re
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given

import phq.lie
from phq import (
    DimensionMismatch,
    LieAlgebra,
    Matrix,
    OddDimension,
    PHQAlgebra,
    Subspace,
    build,
    check_complex,
    check_jacobi,
    check_phq,
    check_quadratic,
    classify,
    fingerprint,
    full_reduction,
    j_class,
    kodaira_thurston,
    kodaira_cocycle_basis,
    map_image,
    nijenhuis,
    phq_double_extension,
    salamon_check,
    signature,
    tstar_kodaira,
    vector,
    verify_witness,
)
from phq.catalog import _FINGERPRINT_TABLE
from phq.linalg import unit_vector
from phq.lie import _ad_matrix, _derivation_failures, format_vector

from conftest import (
    ALL_LABELS,
    DENSE_COEFFS,
    MAP_COPRIME,
    TABLE_COPRIME,
    dense_transported,
    transported,
)
from oracles import (
    congruent,
    entries,
    naive_ad_invariant,
    naive_apply,
    naive_bracket,
    naive_jacobi_violations,
    naive_nijenhuis,
    naive_compatible,
    naive_j_class,
    naive_nijenhuis_vanishes,
    naive_product,
    naive_square_is_minus_identity,
    naive_witness_failures,
    rank_oracle,
    signature_oracle,
    structure_tensor,
)
from strategies import vectors


ROT2 = Matrix.from_rows([[0, -1], [1, 0]])


class TestNijenhuis:
    def test_abelian_torsion_vanishes(self):
        a = LieAlgebra.abelian(2)
        assert nijenhuis(a, ROT2, unit_vector(2, 0), unit_vector(2, 1)) == vector([0, 0])

    def test_core_torsion_vanishes_on_all_pairs(self, core):
        for a in range(6):
            for b in range(a + 1, 6):
                assert nijenhuis(core.algebra, core.j, unit_vector(6, a), unit_vector(6, b)) == vector([0] * 6)

    def test_modified_map_has_torsion(self, core):
        # Change the images of x2 and x3 to swap into each other; the torsion
        # shows up on the pair (x1, x2), not on (x1, Jx1) whose brackets never
        # touch the modified columns.
        cols = [core.j.col(i) for i in range(6)]
        cols[2] = unit_vector(6, 4)   # x2 -> x3
        cols[4] = vector([0, 0, -1, 0, 0, 0])  # x3 -> -x2
        jmod = Matrix.from_cols(cols, rows=6)
        assert nijenhuis(core.algebra, jmod, unit_vector(6, 0), unit_vector(6, 1)) == vector([0] * 6)
        residual = nijenhuis(core.algebra, jmod, unit_vector(6, 0), unit_vector(6, 2))
        assert residual == vector([0, 0, -1, 0, 0, -1])  # -x2 - Jx3

    @given(vectors(6), vectors(6))
    def test_torsion_symmetries(self, x, y):
        core = build("L(4,2)")
        n = nijenhuis(core.algebra, core.j, x, y)
        jx, jy = core.j.apply(x), core.j.apply(y)
        assert nijenhuis(core.algebra, core.j, jx, jy) == tuple(-c for c in n)
        assert nijenhuis(core.algebra, core.j, jx, y) == tuple(-c for c in core.j.apply(n))


class TestShapeGuards:
    # each shape guard of the module, with the error it raises and its text
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: PHQAlgebra(LieAlgebra.abelian(4), ROT2, Matrix.identity(4)), "j must be 4x4"),
            (lambda: check_complex(LieAlgebra.abelian(4), ROT2), "j must be square of the algebra dimension"),
            (
                lambda: check_quadratic(LieAlgebra.abelian(4), Matrix.identity(2)),
                "metric must be square of the algebra dimension",
            ),
            (
                lambda: nijenhuis(LieAlgebra.abelian(4), ROT2, unit_vector(4, 0), unit_vector(4, 1)),
                "j must be square of the algebra dimension",
            ),
            (lambda: j_class(LieAlgebra.abelian(4), ROT2), "j must be square of the algebra dimension"),
        ],
        ids=["phq_algebra_j", "check_complex", "check_quadratic", "nijenhuis", "j_class"],
    )
    def test_wrong_shape_raises(self, make, message):
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            make()


class TestCheckComplex:
    def test_rotation_on_plane(self):
        assert check_complex(LieAlgebra.abelian(2), ROT2).ok

    def test_carrier_structure(self):
        k, j = kodaira_thurston()
        rep = check_complex(k, j)
        assert rep.ok
        assert naive_square_is_minus_identity(entries(j))
        assert naive_nijenhuis_vanishes(structure_tensor(k), entries(j))

    def test_negated_structure_still_complex(self, core):
        assert check_complex(core.algebra, -core.j).ok

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimension):
            check_complex(LieAlgebra.abelian(3), Matrix.zero(3))

    def test_broken_square_detected(self, core):
        cols = [core.j.col(i) for i in range(6)]
        cols[2] = unit_vector(6, 4)
        cols[4] = vector([0, 0, -1, 0, 0, 0])
        rep = check_complex(core.algebra, Matrix.from_cols(cols, rows=6))
        assert not rep["J^2"].ok
        assert not rep["Nijenhuis"].ok


class TestCheckQuadratic:
    def test_abelian_any_invertible_symmetric(self):
        g = Matrix.from_rows([[2, 1], [1, 1]])
        assert check_quadratic(LieAlgebra.abelian(2), g).ok

    def test_core_metric(self, core):
        assert check_quadratic(core.algebra, core.phi).ok
        assert naive_ad_invariant(structure_tensor(core.algebra), entries(core.phi))

    def test_euclidean_metric_fails_invariance(self, core):
        rep = check_quadratic(core.algebra, Matrix.identity(6))
        assert rep["symmetric"].ok and rep["nondegenerate"].ok
        assert not rep["ad-invariant"].ok
        assert not naive_ad_invariant(structure_tensor(core.algebra), entries(Matrix.identity(6)))


class TestCheckPHQ:
    def test_neutral_abelian(self):
        assert check_phq(build("R(2,2)")).ok

    def test_twisted_cotangent(self):
        p = tstar_kodaira(kodaira_cocycle_basis()[2])
        assert check_phq(p).ok
        assert naive_compatible(entries(p.phi), entries(p.j))

    def test_sign_reversing_pairing_fails_compatibility(self):
        # phi(jx, jy) = -phi(x, y) on the plane: rejected
        p = PHQAlgebra(LieAlgebra.abelian(2), ROT2, Matrix.diagonal([1, -1]))
        rep = check_phq(p)
        assert not rep["J-compatible"].ok
        assert rep["Jacobi"].ok and rep["symmetric"].ok and rep["nondegenerate"].ok
        assert not naive_compatible(entries(p.phi), entries(p.j))

    def test_report_names_the_seven_axioms(self, core):
        rep = check_phq(core)
        labels = [part.label for part in rep.parts]
        assert labels == [
            "Jacobi", "J^2", "Nijenhuis", "symmetric", "nondegenerate", "ad-invariant", "J-compatible"
        ]
        assert rep["Nijenhuis"] is rep.parts[2]
        with pytest.raises(KeyError, match="torsion"):
            rep["torsion"]

    def test_odd_dimension_fails_the_square_not_the_torsion(self):
        p = PHQAlgebra(LieAlgebra.abelian(3), Matrix.zero(3), Matrix.identity(3))
        rep = check_phq(p)
        assert rep["J^2"].failures == ("odd dimension admits no complex structure",)
        assert rep["Nijenhuis"].ok and rep["Jacobi"].ok

    def test_check_phq_never_reaches_rref(self, monkeypatch):
        # the rank of phi is taken by linalg.eliminate on its scaled integers
        inputs = [build(name) for name in ALL_LABELS]
        inputs += [PHQAlgebra(*args) for args in TestSweepsAgainstOracles.COPRIME_INPUTS]
        reports = [check_phq(p) for p in inputs]
        assert {r["nondegenerate"].ok for r in reports} == {True, False}

        def refuse(self):
            raise AssertionError("Matrix.rref was reached")

        monkeypatch.setattr(Matrix, "rref", refuse)
        for p, report in zip(inputs, reports):
            assert check_phq(p) == report


class TestJClass:
    def test_carrier_is_abelian_type(self):
        k, j = kodaira_thurston()
        assert j_class(k, j).label == "abelian"

    def test_abelian_plane_is_both(self):
        cls = j_class(LieAlgebra.abelian(2), ROT2)
        assert cls.abelian and cls.bi_invariant

    def test_core_is_generic(self, core):
        assert j_class(core.algebra, core.j).label == "generic"

    def test_nonabelian_catalog_is_generic(self):
        for name in ("L(2,4)", "Tstar0K", "TstarTheta3K"):
            p = build(name)
            assert j_class(p.algebra, p.j).label == "generic"

    def test_bi_invariance_is_tested_in_both_orders(self):
        # [j e_a, e_b] = j[e_a, e_b] holds for every a < b, but
        # [j e4, e1] = 0 while j[e4, e1] = -e2
        algebra = LieAlgebra.from_brackets(4, {(0, 3): {0: 1}, (1, 3): {1: 1}})
        j = Matrix.from_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
        assert check_jacobi(algebra).ok and check_complex(algebra, j).ok
        assert not j_class(algebra, j).bi_invariant

    def test_complex_heisenberg_with_multiplication_by_i_is_bi_invariant(self):
        # basis (x, ix, y, iy, z, iz), [x, y] = z extended complex-bilinearly
        algebra = LieAlgebra.from_brackets(
            ("x", "ix", "y", "iy", "z", "iz"),
            {(0, 2): {4: 1}, (0, 3): {5: 1}, (1, 2): {5: 1}, (1, 3): {4: -1}},
        )
        j = Matrix.from_rows(
            [
                [0, -1, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 0, 0, -1, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, -1],
                [0, 0, 0, 0, 1, 0],
            ]
        )  # multiplication by i
        assert check_jacobi(algebra).ok and check_complex(algebra, j).ok
        assert j_class(algebra, j).label == "bi_invariant"


class TestFingerprint:
    def test_core_row(self, core):
        assert fingerprint(core).as_tuple() == (6, 3, 3, 3, (4, 2), (1, 0))

    def test_untwisted_cotangent_row(self):
        assert fingerprint(build("Tstar0K")).as_tuple() == (8, 3, 5, 2, (4, 4), (0, 0))

    def test_twisted_cotangent_row(self):
        assert fingerprint(build("TstarTheta3K")).as_tuple() == (8, 5, 3, 3, (4, 4), (1, 1))

    def test_signature_components_are_even(self):
        for name in (
            "R(2,0)", "R(0,2)", "R(2,2)", "R(4,2)",
            "L(4,2)", "L(2,4)", "Tstar0K", "TstarTheta3K",
            "L(4,2)+R(2,0)", "L(2,4)+R(0,2)",
        ):
            p, q = fingerprint(build(name)).sig_phi
            assert p % 2 == 0 and q % 2 == 0


    def test_invariants_stay_on_the_integer_kernel(self, monkeypatch):
        # the center and the lower central series are read off the integer
        # table: no n^2 x n system reaches rref
        inputs = [(name, build(name)) for name in ALL_LABELS]
        inputs.append(("TstarTheta3K", transported(build("TstarTheta3K"), random.Random(0))))

        shapes = []
        rref = Matrix.rref

        def recording(self):
            shapes.append((self.rows, self.cols))
            return rref(self)

        monkeypatch.setattr(Matrix, "rref", recording)
        for name, p in inputs:
            shapes.clear()
            fp = fingerprint(p)
            if fp.dim_derived:
                assert _FINGERPRINT_TABLE[fp.as_tuple()] == name
            else:
                assert name == f"R({fp.sig_phi[0]},{fp.sig_phi[1]})"
            assert all(rows != p.dim**2 for rows, _ in shapes), (name, shapes)

    def test_one_integer_table_and_one_derived_ideal(self, monkeypatch):
        # the center, the derived ideal and the series read the one integer
        # table of the input's algebra, and the series starts from the
        # derived ideal fingerprint spanned
        expected = [fingerprint(build(name)) for name in ALL_LABELS]
        inputs = [build(name) for name in ALL_LABELS]
        computed = count_computations(monkeypatch, ("_scaled", "_derived"))
        for p, fp in zip(inputs, expected):
            for calls in computed.values():
                calls.clear()
            assert fingerprint(p) == fp
            assert all(len(calls) == 1 and calls[0] is p.algebra for calls in computed.values())
            assert fingerprint(p) == fp
            assert all(len(calls) == 1 for calls in computed.values())  # the second call reads the kept ones
            assert p.algebra.lower_central_series()[1] is p.algebra.derived_ideal()

    def test_each_algebra_computes_each_invariant_once(self, monkeypatch):
        # check_phq, fingerprint, full_reduction and classify ask the input's
        # algebra, and each algebra a reduction recovers, for its invariants
        # and ad columns; each is computed at most once per algebra
        rng = random.Random(0)
        inputs = [build(name) for name in ALL_LABELS]
        inputs += [transported(p, rng) for p in inputs]
        names = ("_columns", "_center", "_derived", "_series")
        computed = count_computations(monkeypatch, names)
        for p in inputs:
            assert check_phq(p).ok
            fingerprint(p)
            full_reduction(p)
            classify(p)
        assert computed["_series"] and computed["_columns"]
        for name in names:
            counts = Counter(map(id, computed[name]))  # the lists keep every algebra alive
            assert max(counts.values()) == 1, name

    def test_series_is_a_fresh_list(self):
        algebra = build("TstarTheta3K").algebra
        series = algebra.lower_central_series()
        kept = list(series)
        series.append(Subspace.zero(algebra.dim))
        series[0] = series[1]
        assert algebra.lower_central_series() == kept
        assert algebra.nilpotency_index() == len(kept) - 1

    def test_reduction_and_fingerprint_never_reach_rref(self, monkeypatch):
        # solves, membership and the invariants all go through
        # linalg.eliminate, and so does Matrix.rank; no library code reaches Matrix.rref
        inputs = [(name, build(name)) for name in ALL_LABELS]
        inputs.append(("TstarTheta3K", transported(build("TstarTheta3K"), random.Random(0))))
        described = [full_reduction(p).describe() for _, p in inputs]

        def refuse(self):
            raise AssertionError("Matrix.rref was reached")

        monkeypatch.setattr(Matrix, "rref", refuse)
        for (name, p), lines in zip(inputs, described):
            fp = fingerprint(p)
            if fp.dim_derived:
                assert _FINGERPRINT_TABLE[fp.as_tuple()] == name
            else:
                assert name == f"R({fp.sig_phi[0]},{fp.sig_phi[1]})"
            result = full_reduction(p)
            assert result.describe() == lines, name
            assert result.residue.algebra.is_abelian()

class TestSalamon:
    def test_abelian_trivially_proper(self):
        assert salamon_check(build("R(2,2)")).ok

    def test_core_sum_is_four_dimensional(self, core):
        derived = core.algebra.derived_ideal()
        total = Subspace.span(6, derived.basis + map_image(core.j, derived).basis)
        assert total == Subspace.span(
            6, [unit_vector(6, 2), unit_vector(6, 3), unit_vector(6, 4), unit_vector(6, 5)]
        )
        assert salamon_check(core).ok

    def test_twisted_cotangent_proper(self):
        assert salamon_check(build("TstarTheta3K")).ok

    def test_non_nilpotent_plane_fails(self):
        # [e1, e2] = e1: the derived ideal and its j-image fill the plane
        p = PHQAlgebra(LieAlgebra.from_brackets(2, {(0, 1): {0: 1}}), ROT2, Matrix.identity(2))
        check = salamon_check(p)
        assert check.label == "derived + j(derived) is proper"
        assert check.failures == ("[g,g] + j[g,g] has full dimension 2",)


SWEEP_COEFFS = (0, 0, 0, 1, -1, 2, Fraction(1, 2))


def random_vector(rng, n):
    return vector([rng.choice(SWEEP_COEFFS) for _ in range(n)])


def random_broken_input(rng, table_coeffs=SWEEP_COEFFS, map_coeffs=SWEEP_COEFFS):
    """A table, a j and a phi in dims 2-7 that break the axioms in mixed ways:
    phi is not symmetric and j is not a complex structure."""
    n = rng.randint(2, 7)
    density = rng.choice((0.0, 0.3, 0.6))

    def coeff(coeffs):
        return rng.choice(coeffs) if rng.random() < density else 0

    table = {(i, k): {m: coeff(table_coeffs) for m in range(n)} for i in range(n) for k in range(i + 1, n)}
    j = Matrix.from_rows([[coeff(map_coeffs) for _ in range(n)] for _ in range(n)])
    phi = Matrix.from_rows([[coeff(map_coeffs) for _ in range(n)] for _ in range(n)])
    return LieAlgebra.from_brackets(n, table), j, phi


def count_computations(monkeypatch, names):
    """For each cached property of `LieAlgebra` in ``names``, the list of the
    algebras it is computed for from now on, one entry per computation."""
    computed = {}
    for name in names:
        prop = LieAlgebra.__dict__[name]
        computed[name] = calls = []

        def counting(algebra, func=prop.func, calls=calls):
            calls.append(algebra)
            return func(algebra)

        monkeypatch.setattr(prop, "func", counting)
    return computed


def fully_dense_inputs():
    """Dense transports of four catalog labels (dims 6 and 8, all axioms
    hold) and two random inputs that break them; in each, every coefficient
    of the table and every entry of j is nonzero."""
    transports = (
        dense_transported(build(label), random.Random(seed))
        for seed, label in enumerate(("L(4,2)", "L(2,4)", "Tstar0K", "TstarTheta3K"))
    )
    inputs = [(q.algebra, q.j, q.phi) for q in transports]
    for seed, n in enumerate((6, 8)):
        rng = random.Random(seed)
        table = {(a, b): {k: rng.choice(DENSE_COEFFS) for k in range(n)} for a in range(n) for b in range(a + 1, n)}
        j, phi = ([[rng.choice(DENSE_COEFFS) for _ in range(n)] for _ in range(n)] for _ in range(2))
        inputs.append((LieAlgebra.from_brackets(n, table), Matrix.from_rows(j), Matrix.from_rows(phi)))
    return inputs


def perturbed(p, rng):
    """The transported input p and three breakages of it: one table
    coefficient, one entry of j, and one symmetric pair of entries of phi."""
    n, algebra, j, phi = p.dim, p.algebra, p.j, p.phi
    a, b = sorted(rng.sample(range(n), 2))
    table = {pair: dict(col) for pair, col in algebra.brackets.items()}
    col, k = table.setdefault((a, b), {}), rng.randrange(n)
    col[k] = col.get(k, 0) + Fraction(1, 3)
    bump = Matrix.from_rows([[Fraction(2, 5) if (r, s) in ((a, b), (b, a)) else 0 for s in range(n)] for r in range(n)])
    upper = Matrix.from_rows([[Fraction(-7, 4) if (r, s) == (a, b) else 0 for s in range(n)] for r in range(n)])
    return [
        (algebra, j, phi),
        (LieAlgebra(algebra.basis_names, table), j, phi),
        (algebra, j + upper, phi),
        (algebra, j, phi + bump),
    ]


def coprime_inputs():
    inputs = [random_broken_input(random.Random(seed), TABLE_COPRIME, MAP_COPRIME) for seed in range(20)]
    for seed, label in enumerate(("L(4,2)", "L(2,4)", "R(2,2)", "TstarTheta3K")):
        rng = random.Random(seed)
        inputs += perturbed(transported(build(label), rng), rng)
    return inputs


def triangular(coeffs):
    """Twenty tables whose brackets have targets above both indices, so that
    the lower central series descends in several steps."""
    algebras = []
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        table = {
            (i, k): {m: rng.choice(coeffs) for m in range(k + 1, n)}
            for i in range(n)
            for k in range(i + 1, n)
        }
        algebras.append(LieAlgebra.from_brackets(n, table))
    return algebras


def negative_pivot_then_zero_diagonal(rng):
    """diag(-1/3) + [[0, 2/5], [2/5, 0]] + a diagonal tail, under the
    unimodular congruence P = [[1, u], [0, S]] (u integral, S a signed
    permutation).  The (0, 0) entry stays -1/3, and the Schur complement of
    it is S^T N S for the rest N, so a zero diagonal is reached after the
    first, negative pivot."""
    tail = [rng.choice((Fraction(7, 4), Fraction(-2, 5), Fraction(1, 3))) for _ in range(rng.randint(0, 3))]
    blocks = [[Fraction(-1, 3)], [[0, Fraction(2, 5)], [Fraction(2, 5), 0]]] + [[t] for t in tail]
    if rng.random() < 0.5:
        blocks.insert(2, [[0, Fraction(-7, 4)], [Fraction(-7, 4), 0]])
    n = sum(len(b) for b in blocks)
    m = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        rows = b if isinstance(b[0], list) else [b]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                m[at + i][at + j] = Fraction(v)
        at += len(rows)
    order = list(range(1, n))
    rng.shuffle(order)
    p = [[Fraction(0)] * n for _ in range(n)]
    p[0] = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(n - 1)]
    for col, row in zip(range(1, n), order):
        p[row][col] = Fraction(rng.choice((1, -1)))
    return Matrix.from_rows(congruent(m, p))


def zero_diagonal(rng):
    """A symmetric matrix with zero diagonal and coprime denominators: the
    first pivot comes from the rule e_i -> e_i + e_j, negative when the pair's
    entry is."""
    n = rng.randint(2, 6)
    m = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            m[a][b] = m[b][a] = Fraction(rng.choice(TABLE_COPRIME + MAP_COPRIME))
    return Matrix.from_rows(m)


def dense_congruence(rng, n=16):
    """L^T D L for D = diag(+-1) and L unit lower triangular with coprime
    denominators; the expected signature is read off D."""
    d = [rng.choice((1, -1)) for _ in range(n)]
    entries = (Fraction(1, 3), Fraction(2, 5), Fraction(-7, 4), 1, -1)
    el = [[Fraction(1) if a == b else Fraction(rng.choice(entries)) if a > b else Fraction(0) for b in range(n)] for a in range(n)]
    return Matrix.from_rows(congruent([[d[a] if a == b else 0 for b in range(n)] for a in range(n)], el)), (d.count(1), d.count(-1))


class TestSweepsAgainstOracles:
    """The support-following sweeps against the brute-force oracles."""

    INPUTS = [random_broken_input(random.Random(seed)) for seed in range(60)]
    COPRIME_INPUTS = coprime_inputs()
    DENSE_INPUTS = fully_dense_inputs()

    def test_jacobi_failing_triples(self):
        self._jacobi_failing_triples(self.INPUTS)

    def test_jacobi_failing_triples_coprime_denominators(self):
        self._jacobi_failing_triples(self.COPRIME_INPUTS)

    def test_nijenhuis_failing_pairs_and_residuals(self):
        self._nijenhuis_failing_pairs_and_residuals(self.INPUTS)

    def test_nijenhuis_failing_pairs_and_residuals_coprime_denominators(self):
        self._nijenhuis_failing_pairs_and_residuals(self.COPRIME_INPUTS)

    def test_torsion_and_jacobi_on_fully_dense_j_and_table(self):
        # every row of J and every table column is full, so the contraction
        # U[a][b] = T(J e_a, e_b) meets every term
        for algebra, j, _ in self.DENSE_INPUTS:
            n = algebra.dim
            assert n in (6, 8) and len(algebra.brackets) == n * (n - 1) // 2
            assert all(len(col) == n for col in algebra.brackets.values())
            assert all(j.entries)
        self._nijenhuis_failing_pairs_and_residuals(self.DENSE_INPUTS)
        self._jacobi_failing_triples(self.DENSE_INPUTS)

    def test_torsion_residuals_without_nijenhuis(self, monkeypatch):
        # the residual printed for a failing pair is the integer one the
        # sweep already holds, divided back
        import phq.structures

        def refuse(*args):
            raise AssertionError("check_complex called nijenhuis")

        monkeypatch.setattr(phq.structures, "nijenhuis", refuse)
        self._nijenhuis_failing_pairs_and_residuals(self.INPUTS)

    def test_ad_invariance(self):
        self._ad_invariance(self.INPUTS)

    def test_ad_invariance_coprime_denominators(self):
        self._ad_invariance(self.COPRIME_INPUTS)

    def test_square_and_compatibility_coprime_denominators(self):
        squares, outcomes = set(), set()
        for algebra, j, phi in self.COPRIME_INPUTS:
            jm = entries(j)
            square = naive_square_is_minus_identity(jm)
            if algebra.dim % 2 == 0:
                assert check_complex(algebra, j)["J^2"].ok == square
                squares.add(square)
            if not square:
                continue
            # where j^2 = -I, the two forms check_phq tests are equivalent to
            # phi(jx, jy) = phi(x, y) on all basis pairs
            verdict = check_phq(PHQAlgebra(algebra, j, phi))["J-compatible"].ok
            assert verdict == naive_compatible(entries(phi), jm)
            outcomes.add(verdict)
        assert squares == outcomes == {True, False}

    def test_symmetry_and_rank_of_phi(self):
        self._symmetry_and_rank_of_phi(self.INPUTS)

    def test_symmetry_and_rank_of_phi_coprime_denominators(self):
        self._symmetry_and_rank_of_phi(self.COPRIME_INPUTS)

    @staticmethod
    def _symmetry_and_rank_of_phi(inputs):
        outcomes = set()
        for algebra, _, phi in inputs:
            n, g = algebra.dim, entries(phi)
            symmetric = all(g[a][b] == g[b][a] for a in range(n) for b in range(n))
            rank = rank_oracle(phi)
            report = check_quadratic(algebra, phi)
            assert report["symmetric"].failures == (() if symmetric else ("phi is not symmetric",))
            degenerate = () if rank == n else (f"phi is degenerate (rank {rank} < {n})",)
            assert report["nondegenerate"].failures == degenerate
            outcomes.add((symmetric, rank == n))
        assert {(True, False), (False, True), (False, False)} <= outcomes

    @staticmethod
    def _jacobi_failing_triples(inputs):
        outcomes = set()
        for algebra, _, _ in inputs:
            n, names, c = algebra.dim, algebra.basis_names, structure_tensor(algebra)
            expected = []
            for i, j, k in naive_jacobi_violations(c):
                # the cyclic sum [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
                cycle = zip(
                    naive_bracket(c, list(unit_vector(n, i)), c[j][k]),
                    naive_bracket(c, list(unit_vector(n, j)), c[k][i]),
                    naive_bracket(c, list(unit_vector(n, k)), c[i][j]),
                )
                residual = [x + y + z for x, y, z in cycle]
                expected.append(
                    f"Jacobi fails on ({names[i]}, {names[j]}, {names[k]}): "
                    f"residual {format_vector(residual, names)}"
                )
            found = list(check_jacobi(algebra).failures)
            assert found == expected
            outcomes.add(bool(found))
        assert outcomes == {True, False}

    @staticmethod
    def _nijenhuis_failing_pairs_and_residuals(inputs):
        outcomes = set()
        for algebra, j, _ in inputs:
            n, names = algebra.dim, algebra.basis_names
            if n % 2:
                continue
            c, jm = structure_tensor(algebra), entries(j)
            expected = []
            for a in range(n):
                for b in range(a + 1, n):
                    residual = naive_nijenhuis(c, jm, list(unit_vector(n, a)), list(unit_vector(n, b)))
                    if any(residual):
                        expected.append(f"N({names[a]}, {names[b]}) = {format_vector(residual, names)}")
            assert check_complex(algebra, j)["Nijenhuis"].failures == tuple(expected)
            outcomes.add(bool(expected))
        assert outcomes == {True, False}

    @staticmethod
    def _ad_invariance(inputs):
        outcomes = set()
        for algebra, _, phi in inputs:
            verdict = check_quadratic(algebra, phi)["ad-invariant"].ok
            assert verdict == naive_ad_invariant(structure_tensor(algebra), entries(phi))
            outcomes.add(verdict)
        assert outcomes == {True, False}

    def test_center(self):
        self._center(self.INPUTS)

    def test_center_coprime_denominators(self):
        self._center(self.COPRIME_INPUTS)

    @staticmethod
    def _center(inputs):
        outcomes = set()
        for algebra, _, _ in inputs:
            n, c = algebra.dim, structure_tensor(algebra)
            center = algebra.center()
            for z in center.basis:
                for i in range(n):
                    assert not any(naive_bracket(c, list(z), list(unit_vector(n, i))))
            # row (i, k), column j: the e_k coefficient of [e_j, e_i]
            ad_rows = [[c[j][i][k] for j in range(n)] for i in range(n) for k in range(n)]
            assert center.dim == n - rank_oracle(Matrix.from_rows(ad_rows))
            outcomes.add(center.dim > 0)
        assert outcomes == {True, False}

    def test_contains(self):
        self._contains(self.INPUTS)

    def test_contains_coprime_denominators(self):
        self._contains(self.COPRIME_INPUTS)

    @staticmethod
    def _contains(inputs):
        # members: combinations of the basis of the center and of the derived
        # ideal; non-members: the same plus a unit vector outside, by the oracle
        coeffs = [c for c in TABLE_COPRIME + MAP_COPRIME if c]
        outcomes = set()
        for seed, (algebra, _, _) in enumerate(inputs):
            n, rng = algebra.dim, random.Random(seed)
            for space in (algebra.center(), algebra.derived_ideal()):
                basis = [list(b) for b in space.basis]
                cs = [rng.choice(coeffs) for _ in basis]
                w = [sum((c * b[k] for c, b in zip(cs, basis)), Fraction(0)) for k in range(n)]
                assert rank_oracle(Matrix.from_rows(basis + [w], cols=n)) == space.dim
                assert space.contains(w)
                for i in range(n):
                    e = list(unit_vector(n, i))
                    outside = rank_oracle(Matrix.from_rows(basis + [e], cols=n)) > space.dim
                    assert space.contains([a + b for a, b in zip(w, e)]) == (not outside)
                    outcomes.add(outside)
        assert outcomes == {True, False}

    def test_signature_of_transported_metrics(self):
        for seed, name in enumerate(ALL_LABELS):
            phi = transported(build(name), random.Random(seed)).phi
            assert signature(phi) == signature_oracle(phi), name

    def test_signature_after_a_negative_pivot_and_a_zero_diagonal(self):
        for seed in range(20):
            rng = random.Random(seed)
            m = negative_pivot_then_zero_diagonal(rng)
            assert m[0, 0] < 0
            assert signature(m) == signature_oracle(m)
            z = zero_diagonal(rng)
            assert signature(z) == signature_oracle(z)

    def test_signature_of_dense_congruences(self):
        for seed in range(3):
            m, expected = dense_congruence(random.Random(seed))
            assert signature(m) == signature_oracle(m) == expected

    def test_adjoint(self):
        self._adjoint(self.INPUTS, SWEEP_COEFFS)

    def test_adjoint_coprime_denominators(self):
        self._adjoint(self.COPRIME_INPUTS, MAP_COPRIME)

    def test_adjoint_on_fully_dense_tables(self):
        self._adjoint(self.DENSE_INPUTS, MAP_COPRIME)

    @staticmethod
    def _adjoint(inputs, coeffs):
        # `_ad_matrix` of x = X / s is d_t s ad(x), row-major
        for seed, (algebra, _, _) in enumerate(inputs):
            n, c = algebra.dim, structure_tensor(algebra)
            rng = random.Random(seed)
            x = [Fraction(rng.choice(coeffs)) for _ in range(n)]
            s = lcm(*(v.denominator for v in x))
            ad = _ad_matrix(algebra, [int(v * s) for v in x])
            expected = [naive_bracket(c, x, list(unit_vector(n, j))) for j in range(n)]
            d = algebra._scaled[0] * s
            assert [[Fraction(e, d) for e in ad[k * n : (k + 1) * n]] for k in range(n)] == [
                list(row) for row in zip(*expected)
            ]

    def test_products_with_coprime_denominators(self):
        # j and phi of every input times a seeded rational matrix, on both
        # sides, and times a rectangular one, against the naive product
        for seed, (_, j, phi) in enumerate(self.INPUTS + self.COPRIME_INPUTS + self.DENSE_INPUTS):
            n, rng = j.rows, random.Random(seed)
            r = Matrix.from_rows([[rng.choice(MAP_COPRIME) for _ in range(n)] for _ in range(n)])
            wide = Matrix.from_rows([[rng.choice(TABLE_COPRIME) for _ in range(3)] for _ in range(n)])
            for a, b in ((j, r), (r, j), (phi, r), (r, phi), (j, phi), (j, wide), (wide.transpose(), phi)):
                assert entries(a @ b) == naive_product(entries(a), entries(b))

    def test_lower_central_series(self):
        lengths = self._lower_central_series([a for a, _, _ in self.INPUTS] + triangular(SWEEP_COEFFS))
        assert {1, 2, 3, 4} <= lengths

    def test_lower_central_series_coprime_denominators(self):
        algebras = [a for a, _, _ in self.COPRIME_INPUTS] + triangular(TABLE_COPRIME)
        lengths = self._lower_central_series(algebras)
        assert {1, 2, 3, 4} <= lengths

    @staticmethod
    def _lower_central_series(algebras):
        lengths = set()
        for algebra in algebras:
            n, c = algebra.dim, structure_tensor(algebra)
            series = algebra.lower_central_series()
            assert series[0].dim == n
            for k, term in enumerate(series):
                brackets = [
                    naive_bracket(c, list(unit_vector(n, i)), list(b))
                    for i in range(n)
                    for b in term.basis
                ]
                if k + 1 < len(series):
                    nxt = series[k + 1]
                else:  # the series stops at zero or where it is stationary
                    nxt = Subspace.zero(n) if term.dim == 0 else term
                # nxt is spanned by the brackets: it contains them all and
                # they have its dimension
                assert rank_oracle(Matrix.from_rows(brackets, cols=n)) == nxt.dim
                both = brackets + [list(v) for v in nxt.basis]
                assert rank_oracle(Matrix.from_rows(both, cols=n)) == nxt.dim
            lengths.add(len(series))
        return lengths

    def test_derivation_failing_pairs(self):
        outcomes = set()
        for seed, (algebra, _, _) in enumerate(self.INPUTS):
            n, c = algebra.dim, structure_tensor(algebra)
            rng = random.Random(seed)
            s = random_vector(rng, n)
            ad_s = Matrix.from_cols([naive_bracket(c, list(s), list(unit_vector(n, j))) for j in range(n)])
            m = Matrix.from_rows([random_vector(rng, n) for _ in range(n)])
            for cand in (m, ad_s, Matrix.zero(n)):
                cm = entries(cand)
                expected = []
                for i in range(n):
                    for j in range(i + 1, n):
                        lhs = naive_apply(cm, c[i][j])
                        mi, mj = naive_apply(cm, unit_vector(n, i)), naive_apply(cm, unit_vector(n, j))
                        rhs = [
                            a + b
                            for a, b in zip(
                                naive_bracket(c, mi, list(unit_vector(n, j))),
                                naive_bracket(c, list(unit_vector(n, i)), mj),
                            )
                        ]
                        if lhs != rhs:
                            expected.append((i, j))
                assert _derivation_failures(algebra, cand._scaled[1]) == expected
                outcomes.add(bool(expected))
        assert outcomes == {True, False}

    def test_witness_bracket_failures(self):
        outcomes = set()
        for seed, (algebra, j, phi) in enumerate(self.INPUTS):
            n, names, c = algebra.dim, algebra.basis_names, structure_tensor(algebra)
            rng = random.Random(seed)
            w = Matrix.from_rows([random_vector(rng, n) for _ in range(n)])
            wm = entries(w)
            expected = []
            for i in range(n):
                for k in range(i + 1, n):
                    wi, wk = naive_apply(wm, unit_vector(n, i)), naive_apply(wm, unit_vector(n, k))
                    if naive_apply(wm, c[i][k]) != naive_bracket(c, wi, wk):
                        expected.append(
                            f"witness does not intertwine the bracket at ({names[i]}, {names[k]})"
                        )
            p = PHQAlgebra(algebra, j, phi)
            found = [f for f in verify_witness(p, p, w).failures if "bracket" in f]
            assert found == expected
            outcomes.add(bool(expected))
        assert outcomes == {True, False}

    def test_j_class_on_all_ordered_pairs(self):
        outcomes = set()
        for algebra, j, _ in self.INPUTS:
            n, c, jm = algebra.dim, structure_tensor(algebra), entries(j)
            js = [naive_apply(jm, unit_vector(n, a)) for a in range(n)]
            pairs = [(a, b) for a in range(n) for b in range(n)]
            abelian = all(naive_bracket(c, js[a], js[b]) == c[a][b] for a, b in pairs)
            bi_invariant = all(
                naive_bracket(c, js[a], list(unit_vector(n, b))) == naive_apply(jm, c[a][b])
                for a, b in pairs
            )
            cls = j_class(algebra, j)
            assert (cls.abelian, cls.bi_invariant) == (abelian, bi_invariant)
            outcomes.add((abelian, bi_invariant))
        assert {(True, True), (False, False)} <= outcomes

    def test_structure_tensor_does_not_read_the_adjoint(self, monkeypatch):
        # the oracles compare `_ad_matrix` and the sweeps against
        # `structure`, so the latter must read the table by itself
        algebra = self.INPUTS[1][0]
        expected = structure_tensor(algebra)

        def refuse(*args):
            raise AssertionError("structure went through ad")

        for name in ("_ad_matrix", "_twisted", "_mapped", "_adjoint_rows"):
            monkeypatch.setattr(phq.lie, name, refuse)
        assert structure_tensor(algebra) == expected
        n = algebra.dim
        for (a, b), col in algebra.brackets.items():
            assert expected[a][b] == [col.get(k, 0) for k in range(n)]
            assert expected[b][a] == [-col.get(k, 0) for k in range(n)]


# The ten catalog labels the benchmark transports: the eight non-abelian rows
# of the dimension <= 8 table and two abelian ones.
TEN_LABELS = (
    "L(4,2)", "L(2,4)", "Tstar0K", "TstarTheta3K", "L(2,4)+R(0,2)",
    "L(2,4)+R(2,0)", "L(4,2)+R(0,2)", "L(4,2)+R(2,0)", "R(2,2)", "R(2,4)",
)
BUMPS = (1, -1, 2, Fraction(1, 3), Fraction(-7, 4))


def labels_and_transports():
    """Each of the ten labels in its recipe basis and in one `transported` basis."""
    out = []
    for seed, name in enumerate(TEN_LABELS):
        p = build(name)
        out += [p, transported(p, random.Random(seed))]
    return out


def plane_steps(inputs):
    """(a, b, w) for each plane step of each input's reduction: the double
    extension a of the step's datum, the algebra b it reduced, and the
    adapted basis w, a witness from a to b."""
    steps = []
    for p in inputs:
        current = p
        for step in full_reduction(p).steps:
            if step.kind == "plane_reduction":
                steps.append((phq_double_extension(step.extension_data), current, step.adapted_basis))
            current = step.recovered
    return steps


def bumped(m, rng):
    """m with one seeded entry changed."""
    e = list(m.entries)
    e[rng.randrange(len(e))] += rng.choice(BUMPS)
    return Matrix(m.rows, m.cols, tuple(e))


def broken_witnesses(a, b, w, rng):
    """Nine seeded breakages of a witness: one entry of w, of either j or of
    either phi changed, w scaled, w made singular, and two wrong shapes."""
    n = a.dim
    cols = [w.col(i) for i in range(n)]
    i, k = rng.sample(range(n), 2)
    singular = [cols[k] if c == i else col for c, col in enumerate(cols)]
    other = build("R(2,2)") if n != 4 else build("R(2,4)")
    return [
        (a, b, bumped(w, rng)),
        (PHQAlgebra(a.algebra, bumped(a.j, rng), a.phi), b, w),
        (a, PHQAlgebra(b.algebra, bumped(b.j, rng), b.phi), w),
        (PHQAlgebra(a.algebra, a.j, bumped(a.phi, rng)), b, w),
        (a, PHQAlgebra(b.algebra, b.j, bumped(b.phi, rng)), w),
        (a, b, w.scale(rng.choice((-1, 2, Fraction(1, 2))))),
        (a, b, Matrix.from_cols(singular)),
        (a, b, Matrix.from_cols(cols[:-1], rows=n)),
        (a, other, w),
    ]


class TestWitnessAndJClassAgainstOracles:
    """`verify_witness` and `j_class` against `naive_witness_failures` and
    `naive_j_class`: every message, in order, and both flags."""

    INPUTS = labels_and_transports()

    def test_witness_failures_match_the_oracle(self):
        steps = plane_steps(self.INPUTS)
        assert len(steps) == 16
        cases = list(steps)
        for seed, step in enumerate(steps):
            cases += broken_witnesses(*step, random.Random(seed))
        assert len(cases) - len(steps) >= 100
        seen = Counter()
        for a, b, w in cases:
            expected = naive_witness_failures(a, b, w)
            assert list(verify_witness(a, b, w).failures) == expected
            seen.update(re.sub(r" at \(.*", "", f) for f in expected)
            seen["ok"] += not expected
        assert set(seen) == {
            "ok",
            "dimensions differ",
            "witness matrix has the wrong shape",
            "witness is not invertible",
            "witness does not intertwine the complex structures",
            "witness is not an isometry",
            "witness does not intertwine the bracket",
        }

    def test_j_class_matches_the_oracle(self):
        inputs = [(p.algebra, p.j) for p in self.INPUTS] + [kodaira_thurston()]
        outcomes = Counter()
        for seed, (algebra, j) in enumerate(inputs):
            n, rng = algebra.dim, random.Random(seed)

            def rand(density):
                return Matrix.from_rows(
                    [[rng.choice(BUMPS) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
                )

            candidates = [j, j.scale(-1), bumped(j, rng), rand(1.0), rand(0.2), rand(0.1)]
            candidates += [Matrix.identity(n).scale(rng.choice(BUMPS)), Matrix.zero(n)]
            c = structure_tensor(algebra)
            for m in candidates:
                expected = naive_j_class(c, entries(m))
                cls = j_class(algebra, m)
                assert (cls.abelian, cls.bi_invariant) == expected
                outcomes[expected] += 1
        assert sum(outcomes.values()) >= 160
        assert set(outcomes) == {(True, True), (True, False), (False, True), (False, False)}

import random
import sys
from fractions import Fraction

import pytest

from phq import (
    HypothesisViolated,
    InvalidCentralElement,
    LieAlgebra,
    Matrix,
    NotDefinitePlane,
    NotSymmetricError,
    PHQAlgebra,
    Subspace,
    analyze_skew_pair,
    build,
    check_phq,
    classify,
    find_central_pair,
    fingerprint,
    full_reduction,
    phq_double_extension,
    reduce_by_plane,
    signature,
    split_plane,
    validate_extension_data,
    vector,
    verify_witness,
)
from phq.linalg import add_vec

from test_catalog import ALL_LABELS
from test_constructions import adapted_pair, lemma_adapted_base
from test_structures import transported


def unit(n, i):
    return vector([1 if k == i else 0 for k in range(n)])


def with_phi_entry(p, i, k, value):
    """p with entry (i, k) of phi, alone, replaced: phi is no longer
    symmetric."""
    rows = [[value if (r, c) == (i, k) else p.phi[r, c] for c in range(p.dim)] for r in range(p.dim)]
    return PHQAlgebra(p.algebra, p.j, Matrix.from_rows(rows))


def with_j_column(p, i, image):
    """p with column i of j replaced by ``image``; PHQAlgebra does not check
    the axioms, so the result may break them."""
    cols = [image if k == i else p.j.col(k) for k in range(p.dim)]
    return PHQAlgebra(p.algebra, Matrix.from_cols(cols), p.phi)


NONABELIAN = (
    "L(4,2)",
    "L(2,4)",
    "Tstar0K",
    "TstarTheta3K",
    "L(4,2)+R(2,0)",
    "L(4,2)+R(0,2)",
    "L(2,4)+R(2,0)",
    "L(2,4)+R(0,2)",
)


class TestFindCentralPair:
    def test_abelian_neutral_picks_nonisotropic(self):
        p = build("R(2,2)")
        pair = find_central_pair(p)
        assert pair.subspace == Subspace.full(4)
        assert not pair.in_derived
        assert pair.z == unit(4, 0)  # first basis vector already has norm 1

    def test_core_picks_central_derived_vector(self):
        p = build("L(4,2)")
        pair = find_central_pair(p)
        assert pair.in_derived
        assert pair.z == unit(6, 4)  # x3
        assert p.pairing(pair.z, pair.z) == 0

    def test_untwisted_cotangent_choice(self):
        p = build("Tstar0K")
        pair = find_central_pair(p)
        assert pair.in_derived
        # W ∩ derived = span{x3, x1*, x2*}; the first echelon vector is x3
        assert pair.z == unit(8, 2)

    def test_derived_branch_vectors_are_isotropic(self):
        for name in NONABELIAN:
            p = build(name)
            pair = find_central_pair(p)
            assert pair.in_derived
            assert p.pairing(pair.z, pair.z) == 0


class TestSplitPlane:
    def test_split_positive_plane_from_mixed_abelian(self):
        p = build("R(2,4)")
        rest, sign = split_plane(p, unit(6, 0))
        assert sign == 1
        assert rest.dim == 4
        assert signature(rest.phi) == (0, 4)
        assert check_phq(rest).ok

    def test_split_factor_from_sum(self):
        p = build("L(4,2)+R(2,0)")
        # basis order: core first, then the positive plane at indices 6, 7
        rest, sign = split_plane(p, unit(8, 6))
        assert sign == 1
        assert fingerprint(rest) == fingerprint(build("L(4,2)"))

    def test_split_on_dense_copies(self):
        # a central j-pair vector of nonzero norm in a random basis: the rest
        # is valid, two dimensions smaller, and its signature plus the
        # plane's is the input's
        for name in ("L(4,2)+R(2,0)", "L(2,4)+R(0,2)", "R(2,4)"):
            for seed in range(3):
                p = PHQAlgebra(*transported(build(name), random.Random(seed)))
                w = find_central_pair(p).subspace.basis
                z = next(x for x in [*w, *map(add_vec, w, w[1:])] if p.pairing(x, x))
                rest, sign = split_plane(p, z)
                assert rest.dim == p.dim - 2 and check_phq(rest).ok, (name, seed)
                pos, neg = signature(rest.phi)
                plane = (2, 0) if sign > 0 else (0, 2)
                assert (pos + plane[0], neg + plane[1]) == signature(p.phi), (name, seed)

    def test_rejects_nonsymmetric_metric(self):
        p = with_phi_entry(build("L(4,2)+R(2,0)"), 0, 1, Fraction(1, 3))
        with pytest.raises(NotSymmetricError):
            split_plane(p, unit(8, 6))

    def test_rejects_isotropic_vector(self):
        p = build("Tstar0K")
        with pytest.raises(NotDefinitePlane):
            split_plane(p, unit(8, 2))

    def test_rejects_noncentral_vector(self):
        p = build("L(4,2)")
        with pytest.raises(InvalidCentralElement):
            split_plane(p, unit(6, 0))

    def test_rejects_central_vector_with_noncentral_image(self):
        # e1 is central of norm 1, but this j sends it to the non-central x1
        p = with_j_column(build("L(4,2)+R(2,0)"), 6, unit(8, 0))
        with pytest.raises(InvalidCentralElement, match="^z and jz must be central$"):
            split_plane(p, unit(8, 6))


class TestReduceByPlane:
    def test_abelian_rejected(self):
        p = build("R(4,4)")
        with pytest.raises(InvalidCentralElement):
            reduce_by_plane(p, unit(8, 0))

    def test_core_with_negative_padding(self):
        p = build("L(2,4)+R(0,2)")
        step = reduce_by_plane(p, unit(8, 4))  # z = x3
        assert step.recovered.dim == 4
        assert signature(step.recovered.phi) == (0, 4)
        data = step.extension_data
        assert data.d.is_zero() and data.f.is_zero()
        # s0 is the image of x2, of norm -1 in the negated metric
        assert step.recovered.pairing(data.s0, data.s0) == Fraction(-1)
        rebuilt = phq_double_extension(data)
        assert fingerprint(rebuilt) == fingerprint(p)
        assert verify_witness(rebuilt, p, step.adapted_basis).ok

    def test_twisted_cotangent_recovers_nonzero_map(self):
        p = build("TstarTheta3K")
        step = reduce_by_plane(p, unit(8, 4))  # z = x1*
        assert step.recovered.dim == 4
        assert signature(step.recovered.phi) == (2, 2)
        data = step.extension_data
        assert not data.f.is_zero()
        assert data.d.is_zero()
        assert validate_extension_data(data.base, data.d, data.f, data.s0).ok
        assert fingerprint(phq_double_extension(data)) == fingerprint(p)

    def test_rejects_nonisotropic_central_vector(self):
        p = build("R(2,2)")
        with pytest.raises(InvalidCentralElement):
            reduce_by_plane(p, unit(4, 0))  # not in (empty) derived ideal

    def test_rejects_noncentral_vector(self):
        p = build("L(4,2)")
        with pytest.raises(InvalidCentralElement, match="^z must lie in center ∩ derived$"):
            reduce_by_plane(p, unit(6, 0))  # x1

    def test_rejects_nonsymmetric_metric(self):
        # z = x3 passes every test before the complement is taken
        p = with_phi_entry(build("L(4,2)"), 0, 1, Fraction(1, 3))
        with pytest.raises(NotSymmetricError):
            reduce_by_plane(p, unit(6, 4))

    def test_rejects_central_vector_with_noncentral_image(self):
        # x3 is central and derived, but this j sends it to the non-central x1
        p = with_j_column(build("L(4,2)"), 4, unit(6, 0))
        with pytest.raises(InvalidCentralElement, match="^jz must be central$"):
            reduce_by_plane(p, unit(6, 4))


class TestFullReduction:
    def test_abelian_has_no_steps(self):
        p = build("R(2,2)")
        result = full_reduction(p)
        assert result.steps == ()
        assert result.residue == p

    def test_core_reduces_to_positive_plane(self):
        result = full_reduction(build("L(4,2)"))
        assert [s.kind for s in result.steps] == ["plane_reduction"]
        assert result.residue.dim == 2
        assert signature(result.residue.phi) == (2, 0)

    def test_untwisted_cotangent_single_step(self):
        result = full_reduction(build("Tstar0K"))
        assert [s.kind for s in result.steps] == ["plane_reduction"]
        assert result.residue.dim == 4

    def test_dimension_bookkeeping(self):
        for name in NONABELIAN:
            p = build(name)
            result = full_reduction(p)
            splits = sum(1 for s in result.steps if s.kind == "split_plane")
            planes = sum(1 for s in result.steps if s.kind == "plane_reduction")
            assert p.dim == result.residue.dim + 2 * splits + 4 * planes
            assert result.residue.algebra.is_abelian()

    def test_round_trip_on_catalog(self):
        # the catalog models and dense random-basis copies of them: every
        # plane step is witnessed, every split leaves a valid algebra whose
        # signature plus the removed plane's is the one it came from
        inputs = [(name, build(name)) for name in NONABELIAN]
        inputs += [
            (name, PHQAlgebra(*transported(build(name), random.Random(seed))))
            for seed in range(3)
            for name in NONABELIAN
        ]
        for name, p in inputs:
            result = full_reduction(p)
            current = p
            for step in result.steps:
                if step.kind == "plane_reduction":
                    rebuilt = phq_double_extension(step.extension_data)
                    assert fingerprint(rebuilt) == fingerprint(current), name
                    assert verify_witness(rebuilt, current, step.adapted_basis).ok, name
                else:
                    assert check_phq(step.recovered).ok, name
                    pos, neg = signature(step.recovered.phi)
                    plane = (2, 0) if step.sign > 0 else (0, 2)
                    assert (pos + plane[0], neg + plane[1]) == signature(current.phi), name
                current = step.recovered

    def test_steps_stay_on_the_integer_kernel(self, monkeypatch):
        # a reduction or a classify evaluates no bracket in Fractions; the one
        # adjoint taken is that of s0 in validate_extension_data, once per
        # plane step
        inputs = [(name, build(name)) for name in ALL_LABELS]
        inputs.append(("TstarTheta3K", PHQAlgebra(*transported(build("TstarTheta3K"), random.Random(0)))))
        expected = [(full_reduction(p).describe(), classify(p).label) for _, p in inputs]

        def refuse(self, x, y):
            raise AssertionError("LieAlgebra.bracket was reached")

        callers = []
        adjoint = LieAlgebra.adjoint

        def recording(self, x):
            callers.append(sys._getframe(1).f_code.co_name)
            return adjoint(self, x)

        monkeypatch.setattr(LieAlgebra, "bracket", refuse)
        monkeypatch.setattr(LieAlgebra, "adjoint", recording)
        for (name, p), (lines, label) in zip(inputs, expected):
            callers.clear()
            result = full_reduction(p)
            assert result.describe() == lines, name
            once_per_plane = ["validate_extension_data"] * sum(s.kind == "plane_reduction" for s in result.steps)
            assert callers == once_per_plane, name
            callers.clear()
            assert classify(p).label == label, name
            assert callers == once_per_plane, name


class TestAnalyzeSkewPair:
    def test_adapted_form_read_back(self):
        base = lemma_adapted_base()
        f, d = adapted_pair(1, 0)
        report = analyze_skew_pair(base, f, d)
        assert (report.a, report.b) == (1, 0)
        assert report.kernel_f == Subspace.span(4, [unit(4, 0), unit(4, 1)])
        assert report.kernel_f.is_totally_isotropic(base.phi)

    def test_zero_map_rejected(self):
        base = lemma_adapted_base()
        with pytest.raises(HypothesisViolated):
            analyze_skew_pair(base, Matrix.zero(4), Matrix.zero(4))

    def test_pair_with_nonzero_b(self):
        base = lemma_adapted_base()
        f, d = adapted_pair(1, 1)
        report = analyze_skew_pair(base, f, d)
        assert (report.a, report.b) == (1, 1)
        # ker(F) inside ker(D)
        for v in report.kernel_f.basis:
            assert d.apply(v) == vector([0, 0, 0, 0])

    def test_non_nilpotent_map_rejected(self):
        base = build("R(2,2)")
        with pytest.raises(HypothesisViolated):
            analyze_skew_pair(base, base.j, Matrix.zero(4))

    def test_definite_base_rejected(self):
        base = build("R(4,0)")
        f, d = adapted_pair(1, 0)
        with pytest.raises(HypothesisViolated):
            analyze_skew_pair(base, f, d)

    def test_rank_and_kernel_constraints(self):
        base = lemma_adapted_base()
        f, d = adapted_pair(Fraction(5, 2), Fraction(-2, 3))
        report = analyze_skew_pair(base, f, d)
        assert report.a == Fraction(5, 2)
        assert report.b == Fraction(-2, 3)
        assert report.kernel_f.dim == 2

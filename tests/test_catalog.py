import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import phq.catalog
from phq import (
    CatalogLabel,
    DimensionTooLarge,
    ExtensionData,
    LieAlgebra,
    Matrix,
    PHQAlgebra,
    UnclassifiedFingerprint,
    UnknownLabel,
    abelian_with_signature,
    build,
    check_phq,
    classify,
    fingerprint,
    inequivalence_evidence,
    kodaira_cocycle_basis,
    label,
    phq_double_extension,
    tstar_kodaira,
    verify_witness,
)
from phq.fileformat import MAX_DIM
from phq.linalg import unit_vector

from conftest import ALL_LABELS, in_basis
from oracles import entries, naive_product

INDECOMPOSABLE = ("R(2,0)", "R(0,2)", "L(4,2)", "L(2,4)", "Tstar0K", "TstarTheta3K")


class TestLabels:
    def test_canonical_ordering(self):
        assert str(label("R(2,0)", "L(2,4)")) == "L(2,4)+R(2,0)"
        assert CatalogLabel.parse("R(2,0)+L(2,4)") == label("L(2,4)", "R(2,0)")

    def test_rejects_unknown_factor(self):
        with pytest.raises(UnknownLabel):
            CatalogLabel.parse("L(3,3)")
        with pytest.raises(UnknownLabel):
            CatalogLabel.parse("R(1,1)")

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: CatalogLabel(()), "a label needs at least one factor"),
            (lambda: build("R(1,1)"), "abelian factor needs even nonzero signature: R(1,1)"),
            (lambda: build("R(0,0)"), "abelian factor needs even nonzero signature: R(0,0)"),
            (lambda: build("L(3,3)"), "unknown factor 'L(3,3)'"),
            (lambda: build("R(2,0)+R(2)"), "unknown factor 'R(2)'"),
            (lambda: abelian_with_signature(1, 1), "signature (1,1) must have even nonzero entries"),
            (lambda: abelian_with_signature(0, 0), "signature (0,0) must have even nonzero entries"),
            # one spelling per label: ASCII digits, no leading zero, no trailing newline
            (lambda: CatalogLabel.parse("R(02,0)"), "unknown factor 'R(02,0)'"),
            (lambda: CatalogLabel.parse("R(\u0662,0)"), "unknown factor 'R(\u0662,0)'"),
            (lambda: label("R(2,0)\n"), "unknown factor 'R(2,0)\\n'"),
            # refused before int() meets the interpreter's digit limit
            (
                lambda: build("R(" + "2" * 5000 + ",0)"),
                "abelian factor has a signature entry of more than 600 digits",
            ),
        ],
        ids=[
            "empty", "odd_signature", "zero_signature", "unknown", "unknown_beside_known",
            "odd_abelian", "zero_abelian", "leading_zero", "arabic_indic_digit", "trailing_newline",
            "long_digit_run",
        ],
    )
    def test_messages(self, make, message):
        with pytest.raises(UnknownLabel) as info:
            make()
        assert str(info.value) == message


class TestBuild:
    def test_core_metric_value(self):
        core = build("L(4,2)")
        assert core.pairing(unit_vector(6, 2), unit_vector(6, 2)) == 1  # phi(x2, x2) = 1

    def test_opposite_metric_is_negated(self):
        assert build("L(2,4)").phi == -build("L(4,2)").phi
        assert build("L(2,4)").algebra == build("L(4,2)").algebra

    def test_untwisted_cotangent_label(self):
        assert fingerprint(build("Tstar0K")) == fingerprint(tstar_kodaira())

    def test_every_build_passes_axioms(self):
        for name in ALL_LABELS:
            assert check_phq(build(name)).ok, name

    @pytest.mark.parametrize(
        "make, dim",
        [
            (lambda: build("R(100000000,0)"), 100000000),
            (lambda: build("R(64,2)"), 66),
            (lambda: build("L(4,2)+R(58,0)+R(2,0)"), 66),
            (lambda: build("+".join(["Tstar0K"] * 8) + "+L(2,4)"), 70),
            (lambda: abelian_with_signature(10**600, 2), 10**600 + 2),
        ],
        ids=["nine_digits", "one_factor", "factors_within_the_bound", "models", "abelian"],
    )
    def test_a_label_above_max_dim_is_refused_before_it_is_built(self, monkeypatch, make, dim):
        # the total dimension is read off the label; nothing is allocated
        def build_nothing(*args):
            raise AssertionError("an algebra was built from an oversized label")

        monkeypatch.setattr(Matrix, "diagonal", build_nothing)
        for builder in ("lorentz_core", "tstar_kodaira"):
            monkeypatch.setattr(phq.catalog, builder, build_nothing)
        with pytest.raises(DimensionTooLarge, match=f"^dimension {dim} is above the limit {MAX_DIM}$"):
            make()

    def test_a_label_at_max_dim_builds(self):
        assert build("R(62,2)").dim == build("L(4,2)+R(58,0)").dim == MAX_DIM


class TestClassify:
    def test_round_trip_on_all_labels(self):
        for name in ALL_LABELS:
            got = classify(build(name)).label
            assert str(got) == name

    def test_extension_cases(self):
        base = abelian_with_signature(2, 2)
        iso = phq_double_extension(ExtensionData(base, Matrix.zero(4), Matrix.zero(4), (1, 0, 1, 0)))
        assert str(classify(iso).label) == "Tstar0K"

    def test_other_twists_fold_into_known_classes(self):
        t1, t2, t3, t4 = kodaira_cocycle_basis()
        assert str(classify(tstar_kodaira(t2)).label) == "Tstar0K"
        assert str(classify(tstar_kodaira(t4)).label) == "TstarTheta3K"
        assert str(classify(tstar_kodaira(t3 + t1)).label) == "TstarTheta3K"

    def test_plus_minus_twists_are_the_two_padded_cores(self):
        # theta1 gives the positively-restricted sum, -theta1 the negatively
        # restricted one; they are separated by the restricted signature.
        t1 = kodaira_cocycle_basis()[0]
        plus = tstar_kodaira(t1)
        minus = tstar_kodaira(t1.scale(-1))
        assert str(classify(plus).label) == "L(4,2)+R(0,2)"
        assert str(classify(minus).label) == "L(2,4)+R(2,0)"
        ev = inequivalence_evidence(plus, minus)
        assert ev.field == "sig_phi_on_derived"
        assert (ev.value_a, ev.value_b) == ((1, 0), (0, 1))

    def test_dimension_limit(self):
        with pytest.raises(DimensionTooLarge):
            classify(build("R(6,4)+R(2,0)"))

    def test_invalid_input_rejected(self):
        solvable = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}})
        p = PHQAlgebra(
            solvable,
            Matrix.from_rows([[0, -1], [1, 0]]),
            Matrix.identity(2),
        )
        with pytest.raises(UnclassifiedFingerprint):
            classify(p)

    def test_a_fingerprint_without_a_row_is_named(self, monkeypatch):
        # every valid nilpotent input of dimension <= 8 has a row, so this
        # guard is reached only with a row taken out of the table
        p = build("TstarTheta3K")
        row = fingerprint(p).as_tuple()
        monkeypatch.delitem(phq.catalog._FINGERPRINT_TABLE, row)
        message = f"no classification row matches {row}"
        with pytest.raises(UnclassifiedFingerprint, match=f"^{re.escape(message)}$"):
            classify(p)

    def test_non_nilpotent_input_rejected(self):
        # F = D = j on R(2,2) meets every extension hypothesis, and the
        # extension is a valid structure whose lower central series stalls.
        base = build("R(2,2)")
        p = phq_double_extension(ExtensionData(base, base.j, base.j, (0, 0, 0, 0)))
        assert check_phq(p).ok
        assert fingerprint(p).nilpotency_index is None
        with pytest.raises(UnclassifiedFingerprint, match="^input is not nilpotent$"):
            classify(p)

    def test_evidence_contains_reduction(self):
        result = classify(build("TstarTheta3K"))
        assert result.fingerprint.as_tuple() == (8, 5, 3, 3, (4, 4), (1, 1))
        assert len(result.reduction.steps) == 1


class TestWitness:
    def test_identity_witness(self):
        core = build("L(4,2)")
        assert verify_witness(core, core, Matrix.identity(6)).ok

    def test_scaled_map_is_not_isometry(self):
        core = build("L(4,2)")
        assert not verify_witness(core, core, Matrix.identity(6).scale(2)).ok

    @pytest.mark.parametrize(
        "a, w, failure",
        [
            ("R(2,0)", Matrix.identity(4), "dimensions differ"),
            ("R(2,2)", Matrix.identity(3), "witness matrix has the wrong shape"),
            ("R(2,2)", Matrix.zero(4, 3), "witness matrix has the wrong shape"),
        ],
        ids=["dimensions", "square_shape", "columns"],
    )
    def test_shape_failures(self, a, w, failure):
        assert verify_witness(build(a), build("R(2,2)"), w).failures == (failure,)

    def test_wrong_bracket_detected(self):
        a = build("Tstar0K")
        b = build("TstarTheta3K")
        rep = verify_witness(a, b, Matrix.identity(8))
        assert not rep.ok

    def test_witness_implies_equal_fingerprints(self):
        # swap the two halves of the neutral abelian algebra: an equivalence
        p = build("R(2,2)")
        w = Matrix.from_cols([unit_vector(4, 2), unit_vector(4, 3), unit_vector(4, 0), unit_vector(4, 1)], rows=4)
        rep = verify_witness(p, p, w)
        assert not rep.ok  # swapping positive and negative planes breaks the isometry

    def test_classification_constant_under_witnessed_equivalence(self):
        # rescale the hyperbolic pairs of the untwisted cotangent: a genuine
        # self-equivalence (phi(ax, y/a) preserved, brackets rescale away)
        p = build("Tstar0K")
        cols = []
        for i in range(4):
            cols.append(unit_vector(8, i).__class__(2 * c for c in unit_vector(8, i)))
        for i in range(4, 8):
            cols.append(tuple(c / 2 for c in unit_vector(8, i)))
        w = Matrix.from_cols(cols, rows=8)
        rep = verify_witness(p, p, w)
        if rep.ok:
            assert classify(p).label == classify(p).label
        # brackets [x1,x2] = x3 scale by 4 on the left, 2 on the right: not a witness
        assert not rep.ok


class TestSeparation:
    def test_six_indecomposables_pairwise_distinct(self):
        fps = {name: fingerprint(build(name)) for name in INDECOMPOSABLE}
        for a, b in combinations(INDECOMPOSABLE, 2):
            key_a = (fps[a].dim, fps[a].sig_phi, fps[a].dim_center, fps[a].sig_phi_on_derived)
            key_b = (fps[b].dim, fps[b].sig_phi, fps[b].dim_center, fps[b].sig_phi_on_derived)
            assert key_a != key_b, (a, b)

    def test_evidence_for_all_indecomposable_pairs(self):
        for a, b in combinations(INDECOMPOSABLE, 2):
            ev = inequivalence_evidence(build(a), build(b))
            assert ev.separated, (a, b)

    def test_cotangent_pair_separated_by_center(self):
        ev = inequivalence_evidence(build("Tstar0K"), build("TstarTheta3K"))
        assert ev.field == "dim_center"
        assert (ev.value_a, ev.value_b) == (5, 3)

    def test_self_comparison_reports_no_separation(self):
        p = build("TstarTheta3K")
        ev = inequivalence_evidence(p, p)
        assert not ev.separated
        assert "does not prove" in ev.describe()

    def test_separated_pair_names_the_field(self):
        ev = inequivalence_evidence(build("L(4,2)"), build("L(2,4)"))
        assert ev.describe() == "differ at sig_phi: (4, 2) vs (2, 4)"

    def test_all_labels_pairwise_separated(self):
        # empirical completeness of the fingerprint at dimension <= 8
        fps = {name: fingerprint(build(name)).as_tuple() for name in ALL_LABELS}
        assert len(set(fps.values())) == len(ALL_LABELS)


# The eight non-abelian rows of the table and two abelian labels.
TRANSPORTED_LABELS = (
    "L(4,2)", "L(2,4)", "Tstar0K", "TstarTheta3K",
    "L(2,4)+R(0,2)", "L(2,4)+R(2,0)", "L(4,2)+R(0,2)", "L(4,2)+R(2,0)",
    "R(2,2)", "R(2,4)",
)


def _seeded_basis_change(n, seed):
    """A product M of 2n seeded shears e_i += c e_j, and its inverse."""
    rng = random.Random(seed)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    m, m_inv = ident, ident
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        shear = [row[:] for row in ident]
        unshear = [row[:] for row in ident]
        shear[i][j], unshear[i][j] = c, -c
        m, m_inv = naive_product(m, shear), naive_product(unshear, m_inv)
    return m, m_inv


class TestBasisIndependence:
    @pytest.mark.parametrize("name", TRANSPORTED_LABELS)
    def test_transport_keeps_axioms_label_and_reduction(self, name):
        p = build(name)
        m, m_inv = _seeded_basis_change(p.dim, name)
        assert naive_product(m, m_inv) == entries(Matrix.identity(p.dim))
        q = in_basis(p, m, m_inv)
        assert (q.algebra.brackets, q.phi) != (p.algebra.brackets, p.phi)
        assert check_phq(q).ok
        got, want = classify(q), classify(p)
        assert str(got.label) == str(want.label) == name
        assert _reduction_shape(got.reduction) == _reduction_shape(want.reduction)


def _reduction_shape(result):
    return [(s.kind, s.recovered.dim) for s in result.steps], result.residue.dim


REPO = Path(__file__).resolve().parent.parent

# The classification table `scripts/table_report.py` prints, byte for byte.
TABLE_REPORT = """\
dim | dim[g,g] | sig(phi) | sig(phi|[g,g]) | nilpotency | label
---------------------------------------------------------------
6 | 3 | (2,4) | (0,1) | 3 | L(2,4)
6 | 3 | (4,2) | (1,0) | 3 | L(4,2)
8 | 3 | (2,6) | (0,1) | 3 | L(2,4)+R(0,2)
8 | 3 | (4,4) | (0,1) | 3 | L(2,4)+R(2,0)
8 | 3 | (4,4) | (0,0) | 2 | Tstar0K
8 | 3 | (4,4) | (1,0) | 3 | L(4,2)+R(0,2)
8 | 3 | (6,2) | (1,0) | 3 | L(4,2)+R(2,0)
8 | 5 | (4,4) | (1,1) | 3 | TstarTheta3K
"""


def test_table_report_is_byte_identical():
    env = dict(os.environ, PYTHONPATH="src")
    run = subprocess.run(
        [sys.executable, "scripts/table_report.py"], cwd=REPO, env=env, capture_output=True, timeout=60
    )
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == TABLE_REPORT.encode()

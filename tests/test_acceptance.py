"""Acceptance suite: one test per criterion, exact tolerances everywhere.

Each passing criterion prints one line (visible with ``pytest -v -s`` or in
the captured output section).  Criterion 7b is checked for both signs of the
norm ±2 datum.  For the +2 datum the label worded in the project brief is
shown to be unattainable: the test asserts the forced class and the invariant
that separates it from the worded one (see the repository README).  The
companion test gives explicit rational witnesses for both signs.
"""

import random
from fractions import Fraction
from itertools import combinations

from phq import (
    Cocycle,
    ExtensionData,
    Matrix,
    abelian_with_signature,
    build,
    check_cocycle,
    check_complex,
    check_jacobi,
    check_phq,
    classify,
    complexify,
    fingerprint,
    full_reduction,
    inequivalence_evidence,
    j_class,
    kernel,
    kodaira_cocycle_basis,
    kodaira_thurston,
    phq_double_extension,
    salamon_check,
    signature,
    tensor_construct,
    truncated_poly,
    tstar_kodaira,
    validate_extension_data,
    vector,
    verify_witness,
)
from phq.linalg import unit_vector

from conftest import adapted_pair, lemma_adapted_base
from oracles import (
    entries,
    naive_ad_invariant,
    naive_compatible,
    naive_jacobi_violations,
    naive_nijenhuis_vanishes,
    naive_pair,
    naive_square_is_minus_identity,
    signature_oracle,
    structure_tensor,
)

ABELIAN_LABELS = tuple(
    f"R({2 * r},{2 * s})" for r in range(0, 5) for s in range(0, 5) if 0 < r + s <= 4
)
NONABELIAN_LABELS = (
    "L(4,2)",
    "L(2,4)",
    "Tstar0K",
    "TstarTheta3K",
    "L(4,2)+R(2,0)",
    "L(4,2)+R(0,2)",
    "L(2,4)+R(2,0)",
    "L(2,4)+R(0,2)",
)
INDECOMPOSABLE = ("R(2,0)", "R(0,2)", "L(4,2)", "L(2,4)", "Tstar0K", "TstarTheta3K")


def done(number, text=""):
    print(f"ACCEPTANCE criterion {number}: PASS {text}".rstrip())


def twist_family():
    t1, t2, t3, t4 = kodaira_cocycle_basis()
    return {
        "0": Cocycle.zero(4),
        "+theta1": t1,
        "-theta1": t1.scale(-1),
        "theta2": t2,
        "theta3": t3,
        "theta4": t4,
        "theta3+theta1": t3 + t1,
    }


def test_criterion_1_axiom_suite():
    for name in ABELIAN_LABELS + ("L(4,2)", "L(2,4)"):
        assert check_phq(build(name)).ok, name
    carrier, j = kodaira_thurston()
    assert check_jacobi(carrier).ok
    assert check_complex(carrier, j).ok
    for tag, theta in twist_family().items():
        assert check_phq(tstar_kodaira(theta)).ok, tag
    done(1, "(axioms hold on the whole catalog)")


TABLE_ROWS = {
    "L(2,4)": (6, 3, (2, 4), (0, 1), 3),
    "L(4,2)": (6, 3, (4, 2), (1, 0), 3),
    "L(2,4)+R(0,2)": (8, 3, (2, 6), (0, 1), 3),
    "L(2,4)+R(2,0)": (8, 3, (4, 4), (0, 1), 3),
    "Tstar0K": (8, 3, (4, 4), (0, 0), 2),
    "L(4,2)+R(0,2)": (8, 3, (4, 4), (1, 0), 3),
    "L(4,2)+R(2,0)": (8, 3, (6, 2), (1, 0), 3),
    "TstarTheta3K": (8, 5, (4, 4), (1, 1), 3),
}


def test_criterion_2_table_reproduction():
    for name, row in TABLE_ROWS.items():
        fp = fingerprint(build(name))
        got = (fp.dim, fp.dim_derived, fp.sig_phi, fp.sig_phi_on_derived, fp.nilpotency_index)
        assert got == row, (name, got, row)
        d, dd, sig, sigr, k = row
        expected_line = f"{d} | {dd} | ({sig[0]},{sig[1]}) | ({sigr[0]},{sigr[1]}) | {k}"
        assert fp.table_row() == expected_line
    done(2, "(all eight table rows reproduced exactly)")


def test_criterion_3_separation():
    fps = {name: fingerprint(build(name)) for name in INDECOMPOSABLE}
    assert len({fp.as_tuple() for fp in fps.values()}) == len(INDECOMPOSABLE)
    for a, b in combinations(INDECOMPOSABLE, 2):
        ev = inequivalence_evidence(build(a), build(b))
        assert ev.separated, (a, b)
    ev = inequivalence_evidence(build("Tstar0K"), build("TstarTheta3K"))
    assert ev.field == "dim_center" and (ev.value_a, ev.value_b) == (5, 3)
    done(3, "(all 15 pairs separated; cotangent pair by center dimension)")


def test_criterion_4_cocycles():
    carrier, j = kodaira_thurston()
    for theta in kodaira_cocycle_basis():
        report = check_cocycle(carrier, j, theta)
        assert report["cyclic"].ok and report["2-cocycle"].ok and report["J-compatible"].ok

    # cyclic (and even closed) perturbations that break only the complex
    # compatibility are rejected: deterministic witness plus random samples
    plane6 = build("R(6,0)")
    bad = Cocycle(6, {(0, 2): {4: 1}, (0, 4): {2: -1}, (2, 4): {0: 1}})
    report = check_cocycle(plane6.algebra, plane6.j, bad)
    assert report["cyclic"].ok and report["2-cocycle"].ok and not report["J-compatible"].ok

    rng = random.Random(20250810)
    rejected = 0
    for _ in range(10):
        entries_map = {}
        for (a, b, c) in combinations(range(6), 3):
            coeff = Fraction(rng.randint(-3, 3))
            if coeff:
                entries_map.setdefault((a, b), {})[c] = coeff
                entries_map.setdefault((a, c), {})[b] = -coeff
                entries_map.setdefault((b, c), {})[a] = coeff
        theta = Cocycle(6, entries_map)
        report = check_cocycle(plane6.algebra, plane6.j, theta)
        assert report["cyclic"].ok and report["2-cocycle"].ok
        if not report["J-compatible"].ok:
            rejected += 1
    assert rejected > 0

    # the displayed bracket table for the all-ones twist, coefficient by
    # coefficient (checked in test_constructions in full; spot totals here)
    t1, t2, t3, t4 = kodaira_cocycle_basis()
    out = tstar_kodaira(t1 + t2 + t3 + t4)
    c = out.algebra.structure
    assert c[0][1] == vector([0, 0, 1, 0, 0, 0, 1, 1])
    assert c[2][3] == vector([0, 0, 0, 0, 1, 1, 0, 0])
    assert c[6][1] == vector([0, 0, 0, 0, -1, 0, 0, 0])
    assert check_phq(out).ok
    done(4, f"(basis cocycles pass; {rejected}/10 random perturbations rejected)")


def _skew_commuting_family(base):
    """Basis of phi-skew maps commuting with J, via an exact linear solve."""
    n = base.dim
    g, j = base.phi, base.j
    rows = []
    for a in range(n):
        for b in range(n):
            # (M^T g + g M)[a, b] = sum_k M[k,a] g[k,b] + g[a,k] M[k,b]
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + a] += g[k, b]
                row[k * n + b] += g[a, k]
            rows.append(row)
            # (M j - j M)[a, b] = sum_k M[a,k] j[k,b] - j[a,k] M[k,b]
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[a * n + k] += j[k, b]
                row[k * n + b] -= j[a, k]
            rows.append(row)
    space = kernel(Matrix.from_rows(rows, cols=n * n))
    return [Matrix(n, n, tuple(v)) for v in space.basis]


def test_criterion_5_signature_law():
    rng = random.Random(42)
    bases = [build("R(2,0)"), build("R(0,2)"), build("R(2,2)")]
    families = [_skew_commuting_family(b) for b in bases]
    assert [len(f) for f in families] == [1, 1, 4]
    checked = 0
    while checked < 50:
        base = bases[checked % 3]
        family = families[checked % 3]
        n = base.dim
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in family]
        f = Matrix.zero(n)
        for cf, m in zip(coeffs, family):
            f = f + m.scale(cf)
        beta = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        gamma = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        d = f.scale(beta) + base.j.scale(gamma)
        s0 = vector([Fraction(rng.randint(-4, 4)) for _ in range(n)])
        report = validate_extension_data(base, d, f, s0)
        assert report.ok, report.failures
        out = phq_double_extension(ExtensionData(base, d, f, s0))
        assert check_phq(out).ok
        p0, q0 = signature(base.phi)
        assert signature(out.phi) == (p0 + 2, q0 + 2)
        assert signature_oracle(out.phi) == (p0 + 2, q0 + 2)
        checked += 1
    done(5, "(50 randomized extensions shift the signature by (2,2))")


def test_criterion_6_lorentz_end_to_end():
    base = build("R(2,0)")
    data = ExtensionData(base, Matrix.zero(2), Matrix.zero(2), (4, 0))
    ext = phq_double_extension(data)
    assert str(classify(ext).label) == "L(4,2)"
    half = Fraction(1, 2)
    witness = Matrix.from_cols(
        [
            (0, 0, 0, 0, 0, half),  # x1 -> v/2
            (0, 0, 0, 0, half, 0),  # Jx1 -> Jv/2
            (0, 0, 1, 0, 0, 0),     # x2 -> s0/4
            (0, 0, 0, 1, 0, 0),     # Jx2 -> J s0/4
            (2, 0, 0, 0, 0, 0),     # x3 -> 2z
            (0, 2, 0, 0, 0, 0),     # Jx3 -> 2Jz
        ],
        rows=6,
    )
    assert verify_witness(build("L(4,2)"), ext, witness).ok

    # every Lorentz-signature case splits into the core plus abelian factors
    for name in NONABELIAN_LABELS:
        p = build(name)
        if fingerprint(p).sig_phi[1] != 2:
            continue
        result = full_reduction(p)
        assert result.residue.algebra.is_abelian()
        factors = classify(p).label.factors
        assert factors[0] == "L(4,2)"
        assert all(f.startswith("R(") for f in factors[1:])
    done(6, "(norm-16 extension is the Lorentz core, witness exact)")


def _tstar_witness_columns(eps):
    """Columns of the unit-scale witness from the twisted cotangent model to
    the plane extension with norm 2*eps datum, in extension coordinates
    (z, z', u1..u4, v', v)."""
    base = abelian_with_signature(2, 2)
    s0 = (1, 1, 0, 0) if eps == 1 else (0, 0, 1, 1)
    t0 = (0, 0, 1, 1) if eps == 1 else (1, 1, 0, 0)
    data = ExtensionData(base, Matrix.zero(4), Matrix.zero(4), vector(s0))
    ext = phq_double_extension(data)

    def emb(u):
        return vector((0, 0) + tuple(u) + (0, 0))

    s0e, t0e = emb(s0), emb(t0)
    half = Fraction(1, 2)
    x3 = tuple((a + b) * half for a, b in zip(s0e, t0e))
    x3s = tuple(Fraction(eps) * (a - b) * half for a, b in zip(s0e, t0e))
    cols = [
        unit_vector(8, 7),                 # x1 -> v
        unit_vector(8, 6),                 # x2 -> Jv
        x3,
        ext.j.apply(x3),
        unit_vector(8, 0),                 # x1* -> z
        unit_vector(8, 1),                 # x2* -> Jz
        x3s,
        ext.j.apply(x3s),
    ]
    return ext, Matrix.from_cols(cols, rows=8)


def test_criterion_7_dim8_a_isotropic_datum():
    base = abelian_with_signature(2, 2)
    data = ExtensionData(base, Matrix.zero(4), Matrix.zero(4), (1, 0, 1, 0))
    ext = phq_double_extension(data)
    assert str(classify(ext).label) == "Tstar0K"
    half = Fraction(1, 2)
    witness = Matrix.from_cols(
        [
            unit_vector(8, 7),                      # x1 -> v
            unit_vector(8, 6),                      # x2 -> Jv
            (0, 0, 1, 0, 1, 0, 0, 0),        # x3 -> s0
            (0, 0, 0, 1, 0, 1, 0, 0),        # x4 -> J s0
            unit_vector(8, 0),                      # x1* -> z
            unit_vector(8, 1),                      # x2* -> Jz
            (0, 0, half, 0, -half, 0, 0, 0),  # x3* -> t0
            (0, 0, 0, half, 0, -half, 0, 0),  # x4* -> J t0
        ],
        rows=8,
    )
    assert verify_witness(build("Tstar0K"), ext, witness).ok
    done("7a", "(isotropic datum is the untwisted cotangent model)")


def test_criterion_7_dim8_b_literal_wording():
    """Criterion 7b as worded, for the norm +2 datum s0 = (1, 1, 0, 0).

    The wording pairs this extension with L(2,4)+R(2,0); that label belongs
    to the norm -2 datum (0, 0, 1, 1).  The derived ideal of the extension is
    span(z, z', s0), where z and z' span a totally isotropic plane
    orthogonal to the base, so phi restricted to it has signature (1, 0) for
    the +2 datum and (0, 1) for the -2 datum.  By Sylvester's law that signature is kept by every
    isometric isomorphism, and the table row of L(2,4)+R(2,0) has (0, 1).  So
    the test asserts the forced class L(4,2)+R(0,2), the separating invariant
    against the worded label, and the same signature from the brute-force
    oracles.  The companion test below gives rational witnesses for both signs.
    """
    base = abelian_with_signature(2, 2)
    data = ExtensionData(base, Matrix.zero(4), Matrix.zero(4), (1, 1, 0, 0))  # norm +2
    assert base.pairing(data.s0, data.s0) == 2
    ext = phq_double_extension(data)
    assert str(classify(ext).label) == "L(4,2)+R(0,2)"

    # the worded label is unattainable: a congruence invariant separates them
    ev = inequivalence_evidence(ext, build("L(2,4)+R(2,0)"))
    assert ev.field == "sig_phi_on_derived"
    assert (ev.value_a, ev.value_b) == ((1, 0), (0, 1))

    # the same signature without the library: the Gram matrix of the nonzero
    # brackets of basis vectors (they span [g,g]) has phi's inertia on [g,g]
    c = structure_tensor(ext.algebra)
    g = entries(ext.phi)
    images = sorted(
        {tuple(c[i][j]) for i in range(len(c)) for j in range(i + 1, len(c)) if any(c[i][j])}
    )
    gram = Matrix.from_rows([[naive_pair(g, u, v) for v in images] for u in images])
    assert signature_oracle(gram) == (1, 0)
    done("7b", "(norm +2 datum: the worded label is refuted on sig(phi|[g,g]))")


def test_criterion_7_dim8_b_norm_two_data():
    # The mechanically forced pairing, both signs, with the unit-scale
    # rational witnesses to the two twisted cotangent presentations.
    ext_plus, w_plus = _tstar_witness_columns(1)
    assert str(classify(ext_plus).label) == "L(4,2)+R(0,2)"
    theta1 = kodaira_cocycle_basis()[0]
    assert verify_witness(tstar_kodaira(theta1), ext_plus, w_plus).ok

    ext_minus, w_minus = _tstar_witness_columns(-1)
    assert str(classify(ext_minus).label) == "L(2,4)+R(2,0)"
    assert verify_witness(tstar_kodaira(theta1.scale(-1)), ext_minus, w_minus).ok

    # both extensions are equivalent to core-plus-plane sums with matching rows
    assert fingerprint(ext_plus) == fingerprint(build("L(4,2)+R(0,2)"))
    assert fingerprint(ext_minus) == fingerprint(build("L(2,4)+R(2,0)"))
    done("7b", "(norm ±2 data matched to the two twisted cotangent classes)")


def test_criterion_7_dim8_c_adapted_pair_datum():
    base = lemma_adapted_base()
    f, d = adapted_pair(1, 0)
    data = ExtensionData(base, d, f, (1, 0, 1, 0))  # s0 = u1 + u2, nonzero along u2
    ext = phq_double_extension(data)
    assert str(classify(ext).label) == "TstarTheta3K"

    def emb(u):
        return vector((0, 0) + tuple(u) + (0, 0))

    u1, ju1 = emb((1, 0, 0, 0)), emb((0, 1, 0, 0))
    u2, ju2 = emb((0, 0, 1, 0)), emb((0, 0, 0, 1))
    z, zp = unit_vector(8, 0), unit_vector(8, 1)
    vp, v = unit_vector(8, 6), unit_vector(8, 7)
    add = lambda a, b: tuple(x + y for x, y in zip(a, b))
    sub = lambda a, b: tuple(x - y for x, y in zip(a, b))
    witness = Matrix.from_cols(
        [add(v, u2), add(vp, ju2), u2, ju2, z, zp, sub(u1, z), sub(ju1, zp)],
        rows=8,
    )
    assert verify_witness(build("TstarTheta3K"), ext, witness).ok
    done("7c", "(adapted datum with nonzero isotropic component is the twisted model)")


def test_criterion_8_round_trip_reduction():
    for name in NONABELIAN_LABELS:
        p = build(name)
        result = full_reduction(p)  # ReductionStuck would raise
        assert result.residue.algebra.is_abelian()
        current = p
        for step in result.steps:
            if step.kind == "plane_reduction":
                rebuilt = phq_double_extension(step.extension_data)
                assert fingerprint(rebuilt) == fingerprint(current)
                assert verify_witness(rebuilt, current, step.adapted_basis).ok
            current = step.recovered
    done(8, "(all catalog reductions terminate and re-extend exactly)")


def test_criterion_9_structural_no_gos():
    for name in NONABELIAN_LABELS:
        p = build(name)
        assert j_class(p.algebra, p.j).label == "generic", name
    for name in NONABELIAN_LABELS + ABELIAN_LABELS:
        p = build(name)
        assert p.algebra.nilpotency_index() is not None
        assert salamon_check(p).ok, name
    done(9, "(no abelian or bi-invariant structures; derived sums stay proper)")


def test_criterion_10_constructions_and_oracles():
    core = build("L(4,2)")
    doubled = tensor_construct(core, truncated_poly(2))
    assert doubled.dim == 12 and check_phq(doubled).ok
    assert doubled.algebra.nilpotency_index() is not None

    tripled = tensor_construct(core, truncated_poly(3))
    assert tripled.dim == 18
    assert tripled.algebra.nilpotency_index() is not None

    doubled_c = complexify(core)
    assert doubled_c.dim == 12 and check_phq(doubled_c).ok
    assert doubled_c.algebra.nilpotency_index() is not None

    # independent naive oracle sweep over the axiom checks
    for name in ("L(4,2)", "L(2,4)", "Tstar0K", "TstarTheta3K"):
        p = build(name)
        c = structure_tensor(p.algebra)
        jm, gm = entries(p.j), entries(p.phi)
        assert naive_jacobi_violations(c) == []
        assert naive_square_is_minus_identity(jm)
        assert naive_nijenhuis_vanishes(c, jm)
        assert naive_ad_invariant(c, gm)
        assert naive_compatible(gm, jm)
        assert signature(p.phi) == signature_oracle(p.phi)
    done(10, "(tensor and complexification sane; oracle sweep agrees)")

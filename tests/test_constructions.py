import json
import random
from fractions import Fraction

import pytest

import phq
from phq import (
    Cocycle,
    CommutativeAlgebra,
    DimensionMismatch,
    ExtensionData,
    InvalidAlgebraData,
    InvalidCocycle,
    InvalidExtensionData,
    InvalidParameter,
    LieAlgebra,
    Matrix,
    build,
    check_cocycle,
    check_commutative,
    check_phq,
    complex_units,
    complexify,
    direct_sum,
    fingerprint,
    full_reduction,
    gram_restriction,
    kodaira_cocycle_basis,
    kodaira_thurston,
    parse_recipe_text,
    phq_double_extension,
    signature,
    tensor_construct,
    truncated_poly,
    tstar_extension,
    tstar_kodaira,
    validate_extension_data,
    vector,
    verify_witness,
)
from phq.linalg import unit_vector

from conftest import adapted_pair, lemma_adapted_base, transported
from oracles import (
    cocycle_tensor,
    entries,
    naive_cocycle_violations,
    naive_commutative_failures,
    structure_tensor,
)


class TestDirectSum:
    def test_definite_planes_sum_to_neutral(self):
        s = direct_sum(build("R(2,0)"), build("R(0,2)"))
        assert fingerprint(s) == fingerprint(build("R(2,2)"))

    def test_sum_rows(self):
        assert fingerprint(build("L(2,4)+R(2,0)")).as_tuple() == (8, 3, 5, 3, (4, 4), (0, 1))
        assert fingerprint(build("L(4,2)+R(2,0)")).as_tuple() == (8, 3, 5, 3, (6, 2), (1, 0))

    def test_sums_satisfy_all_axioms(self):
        # the closure of the class under orthogonal sums, re-proved per instance
        for name in ("L(4,2)+R(2,0)", "L(2,4)+R(0,2)", "L(4,2)+R(0,2)", "L(2,4)+R(2,0)"):
            assert check_phq(build(name)).ok

    def test_dimensions_and_signatures_add(self):
        a, b = build("L(4,2)"), build("R(2,2)")
        s = direct_sum(a, b)
        fa, fb, fs = fingerprint(a), fingerprint(b), fingerprint(s)
        assert fs.dim == fa.dim + fb.dim
        assert fs.sig_phi == (fa.sig_phi[0] + fb.sig_phi[0], fa.sig_phi[1] + fb.sig_phi[1])


class TestValidateExtensionData:
    @pytest.mark.parametrize(
        "d, f, s0",
        [
            (Matrix.zero(3), Matrix.zero(4), (0, 0, 0, 0)),
            (Matrix.zero(4), Matrix.zero(4, 3), (0, 0, 0, 0)),
            (Matrix.zero(4), Matrix.zero(4), (0, 0, 0)),
        ],
        ids=["d", "f", "s0"],
    )
    def test_shape_mismatch(self, d, f, s0):
        check = validate_extension_data(build("R(2,2)"), d, f, s0)
        assert check.failures == ("shape mismatch with the base algebra",)

    def test_trivial_data_passes(self):
        base = build("R(2,2)")
        assert validate_extension_data(base, Matrix.zero(4), Matrix.zero(4), unit_vector(4, 0)).ok

    def test_noncentral_s0_on_nonabelian_base_fails(self):
        base = build("L(4,2)")
        rep = validate_extension_data(base, Matrix.zero(6), Matrix.zero(6), unit_vector(6, 0))
        assert not rep.ok
        assert any("ad(s0)" in f for f in rep.failures)
        with pytest.raises(InvalidExtensionData):
            ExtensionData(base, Matrix.zero(6), Matrix.zero(6), unit_vector(6, 0))

    def test_adapted_pair_passes_with_commuting_maps(self):
        base = lemma_adapted_base()
        f, d = adapted_pair(1, 1)
        assert not any((f @ d - d @ f).entries)
        assert validate_extension_data(base, d, f, vector([0, 0, 0, 0])).ok

    def test_non_skew_map_named(self):
        base = build("R(2,2)")
        bad = Matrix.diagonal([1, 0, 0, 0])
        rep = validate_extension_data(base, bad, Matrix.zero(4), vector([0] * 4))
        assert any("D is not skewsymmetric" in f for f in rep.failures)


class TestPlaneDoubleExtension:
    def test_trivial_extension_of_negative_plane(self):
        base = build("R(0,2)")
        out = phq_double_extension(ExtensionData(base, Matrix.zero(2), Matrix.zero(2), (0, 0)))
        assert fingerprint(out).as_tuple() == (6, 0, 6, 1, (2, 4), (0, 0))

    def test_norm_sixteen_datum_reproduces_the_core(self):
        base = build("R(2,0)")
        out = phq_double_extension(ExtensionData(base, Matrix.zero(2), Matrix.zero(2), (4, 0)))
        assert check_phq(out).ok
        assert fingerprint(out) == fingerprint(build("L(4,2)"))

    def test_adapted_datum_reproduces_untwisted_cotangent(self):
        base = lemma_adapted_base()
        f, _ = adapted_pair(1, 0)
        out = phq_double_extension(ExtensionData(base, Matrix.zero(4), f, (0, 0, 0, 0)))
        assert fingerprint(out) == fingerprint(build("Tstar0K"))

    def test_output_always_satisfies_axioms(self):
        base = lemma_adapted_base()
        f, d = adapted_pair(2, Fraction(-1, 3))
        out = phq_double_extension(ExtensionData(base, d, f, (1, 1, 0, 0)))
        assert check_phq(out).ok

    def test_signature_shift_law(self):
        for name in ("R(2,0)", "R(0,2)", "R(2,2)"):
            base = build(name)
            n = base.dim
            out = phq_double_extension(
                ExtensionData(base, Matrix.zero(n), Matrix.zero(n), unit_vector(n, 0))
            )
            p0, q0 = signature(base.phi)
            assert signature(out.phi) == (p0 + 2, q0 + 2)

    def test_nilpotent_data_gives_nilpotent_output(self):
        base = lemma_adapted_base()
        f, d = adapted_pair(1, 1)
        out = phq_double_extension(ExtensionData(base, d, f, (0, 0, 0, 0)))
        assert out.algebra.nilpotency_index() is not None

    def test_non_nilpotent_map_blocks_nilpotency(self):
        # D = F = the complex structure itself is valid extension data over the
        # neutral plane pair but not nilpotent, and neither is the output.
        base = build("R(2,2)")
        j = base.j
        data = ExtensionData(base, j, j, (0, 0, 0, 0))
        out = phq_double_extension(data)
        assert check_phq(out).ok
        assert out.algebra.nilpotency_index() is None


class TestSwap:
    def test_swap_has_explicit_equivalence(self):
        base = lemma_adapted_base()
        f, d = adapted_pair(1, 1)
        data = ExtensionData(base, d, f, (0, 0, 0, 0))
        original = phq_double_extension(data)
        swapped = phq_double_extension(ExtensionData(base, -f, d, data.s0))
        n = base.dim
        cols = [
            vector([0, 1] + [0] * (n + 2)),        # z1 -> z'
            vector([-1, 0] + [0] * (n + 2)),       # z1' -> -z
        ]
        for i in range(n):
            cols.append(unit_vector(n + 4, 2 + i))
        cols.append(vector([0] * (n + 2) + [0, -1]))  # v1' -> -v
        cols.append(vector([0] * (n + 2) + [1, 0]))   # v1 -> v'
        psi = Matrix.from_cols(cols, rows=n + 4)
        assert verify_witness(swapped, original, psi).ok


class TestCocycles:
    def test_zero_cocycle_passes(self):
        k, j = kodaira_thurston()
        assert check_cocycle(k, j, Cocycle.zero(4)).ok

    def test_all_four_basis_cocycles_pass(self):
        k, j = kodaira_thurston()
        for theta in kodaira_cocycle_basis():
            # and in a basis where the table, j and theta all have denominators
            for rep in (check_cocycle(k, j, theta), check_cocycle(*rescaled(k, j, theta, SCALES))):
                assert rep["cyclic"].ok and rep["2-cocycle"].ok and rep["J-compatible"].ok

    def test_tabulated_values(self):
        t1, t2, t3, t4 = kodaira_cocycle_basis()
        assert t3.values[0, 2] == {3: 1}  # theta3(x1,x3) = x4*
        assert t3.values[2, 3] == {0: 1}  # theta3(x3,x4) = x1*
        assert t4.values[1, 2] == {3: 1}  # theta4(x2,x3) = x4*
        assert (2, 3) not in t1.values  # theta1(x3,x4) = 0

    def test_single_value_fails_cyclicity(self):
        k, j = kodaira_thurston()
        theta = Cocycle(4, {(0, 1): {2: 1}})
        rep = check_cocycle(k, j, theta)
        assert not rep["cyclic"].ok
        # theta(x2,x3)x1 = 0 while theta(x1,x2)x3 = 1

    def test_cyclic_cocycle_failing_compatibility(self):
        # On the abelian six-dim space every 3-form is a cyclic cocycle, but
        # the (1,3,5)-form is not compatible with the block structure.
        r6 = build("R(6,0)")
        theta = Cocycle(6, {(0, 2): {4: 1}, (0, 4): {2: -1}, (2, 4): {0: 1}})
        rep = check_cocycle(r6.algebra, r6.j, theta)
        assert rep["cyclic"].ok and rep["2-cocycle"].ok
        assert not rep["J-compatible"].ok

    def test_sum_needs_one_dimension(self):
        with pytest.raises(DimensionMismatch, match="^cocycle dimensions differ$"):
            Cocycle.zero(4) + Cocycle.zero(6)

    @pytest.mark.parametrize(
        "theta, j",
        [
            (Cocycle.zero(6), None),
            (Cocycle.zero(2), None),
            (None, Matrix.from_rows([[0, -1], [1, 0]])),
        ],
        ids=["theta_dim6", "theta_dim2", "j_2x2"],
    )
    def test_shapes_must_fit_the_algebra(self, theta, j):
        k, jk = kodaira_thurston()
        with pytest.raises(DimensionMismatch):
            check_cocycle(k, jk if j is None else j, kodaira_cocycle_basis()[2] if theta is None else theta)

    def test_values_are_read_once(self, monkeypatch):
        # the values are read off the table; theta is evaluated only on the
        # n^2 pairs of columns of j, not per triple
        calls = []
        bilinear = phq.constructions.bilinear
        monkeypatch.setattr(phq.constructions, "bilinear", lambda *a, **kw: calls.append(1) or bilinear(*a, **kw))
        k, j = kodaira_thurston()
        assert check_cocycle(k, j, kodaira_cocycle_basis()[2]).ok
        assert len(calls) == 4**2

    def test_cyclic_but_not_cocycle(self):
        core = build("L(4,2)")
        theta = Cocycle(6, {(0, 4): {5: 1}, (0, 5): {4: -1}, (4, 5): {0: 1}})
        rep = check_cocycle(core.algebra, core.j, theta)
        assert rep["cyclic"].ok
        assert not rep["2-cocycle"].ok


COEFFS = (0, 0, 0, 1, -1, 2, Fraction(1, 2))


def random_theta(rng, n, three_form):
    """A seeded cocycle candidate: an alternating 3-form (always cyclic) or
    arbitrary values on each pair."""
    values = {}
    for a in range(n):
        for b in range(a + 1, n):
            if three_form:
                for c in range(b + 1, n):
                    if w := rng.choice(COEFFS):
                        values.setdefault((a, b), {})[c] = w
                        values.setdefault((a, c), {})[b] = -w
                        values.setdefault((b, c), {})[a] = w
            else:
                values[a, b] = {k: rng.choice(COEFFS) for k in range(n)}
    return Cocycle(n, values)


SCALES = (Fraction(1, 3), Fraction(2, 5), Fraction(-7, 4), 1)


def rescaled(algebra, j, theta, d):
    """The carrier and cocycle in the basis d_a e_a: [e_a, e_b]_c and j_rc
    pick up d_a d_b / d_c and d_c / d_r, theta(e_a, e_b)_c picks up
    d_a d_b d_c, and a valid theta stays valid."""
    n = algebra.dim
    brackets = {
        (a, b): {c: d[a] * d[b] / d[c] * x for c, x in col.items()} for (a, b), col in algebra.brackets.items()
    }
    jm = Matrix.from_rows([[j[r, c] * d[c] / d[r] for c in range(n)] for r in range(n)])
    values = {(a, b): {c: d[a] * d[b] * d[c] * x for c, x in col.items()} for (a, b), col in theta.values.items()}
    return LieAlgebra(algebra.basis_names, brackets), jm, Cocycle(n, values)


def cocycle_inputs():
    kodaira = kodaira_thurston()
    # rational brackets and j: a generic transport, and a rescaled carrier
    # whose valid cocycles pass J-compatibility only with the factor d_j^2
    transport = transported(build("L(4,2)"), random.Random(3))
    carriers = [kodaira] + [(p.algebra, p.j) for p in (build("R(6,0)"), build("L(4,2)"), transport)]
    out = [(*kodaira, theta) for theta in kodaira_cocycle_basis()]
    out += [rescaled(*kodaira, theta, SCALES) for theta in kodaira_cocycle_basis()]
    for seed in range(12):
        rng = random.Random(seed)
        for algebra, j in carriers:
            out.append((algebra, j, random_theta(rng, algebra.dim, three_form=seed % 2 == 0)))
    return out


# a second denominator, so that d_p and d_b are not always the one denominator 2
PRODUCT_COEFFS = COEFFS + (Fraction(2, 3),)


def random_commutative(rng, symmetric, form):
    n = 3
    products = {}
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            products[i, j] = {k: rng.choice(PRODUCT_COEFFS) for k in range(n)}
            if symmetric:
                products[j, i] = products[i, j]
    rows = [[rng.choice(PRODUCT_COEFFS) for _ in range(n)] for _ in range(n)]
    if form == "symmetric":
        rows = [[rows[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    elif form == "zero":
        rows = [[0] * n for _ in range(n)]
    return CommutativeAlgebra(("a", "b", "c"), products, Matrix.from_rows(rows))


class TestChecksAgainstOracles:
    """`check_cocycle` and `check_commutative` against the brute-force oracles,
    failure by failure and in order."""

    def test_cocycle_failures(self):
        outcomes = {label: set() for label in ("cyclic", "2-cocycle", "J-compatible")}
        for algebra, j, theta in cocycle_inputs():
            names = algebra.basis_names
            cyclic, cocycle, compat = naive_cocycle_violations(
                structure_tensor(algebra), entries(j), cocycle_tensor(theta)
            )
            expected = {
                "cyclic": [
                    f"theta({names[i]},{names[b]}){names[k]} != theta({names[b]},{names[k]}){names[i]}"
                    for i, b, k in cyclic
                ],
                "2-cocycle": [
                    f"d theta != 0 on ({names[i]}, {names[b]}, {names[k]})" for i, b, k in cocycle
                ],
                "J-compatible": [
                    f"J-compatibility fails on ({names[i]}, {names[b]}, {names[k]})"
                    for i, b, k in compat
                ],
            }
            report = check_cocycle(algebra, j, theta)
            assert [part.label for part in report.parts] == list(expected)
            for label, failures in expected.items():
                assert report[label].failures == tuple(failures)
                outcomes[label].add(report[label].ok)
        assert all(seen == {True, False} for seen in outcomes.values())

    def test_commutative_failures(self):
        a3 = truncated_poly(3)
        inputs = [truncated_poly(k) for k in range(1, 5)] + [complex_units()]
        for seed in range(24):
            rng = random.Random(seed)
            form = ("symmetric", "general", "zero")[seed % 3]
            inputs.append(random_commutative(rng, symmetric=seed % 2 == 0, form=form))
            # an associative product under a random form
            inputs.append(CommutativeAlgebra(a3.basis_names, a3.products, inputs[-1].form))
        kinds = ("not commutative", "associativity", "form invariance", "not symmetric", "degenerate")
        outcomes = {kind: set() for kind in kinds}
        for a in inputs:
            products = [[[a.products.get((i, j), {}).get(k, Fraction(0)) for k in range(a.dim)]
                         for j in range(a.dim)] for i in range(a.dim)]
            expected = naive_commutative_failures(products, entries(a.form))
            found = check_commutative(a).failures
            assert found == tuple(expected)
            for kind in kinds:
                outcomes[kind].add(any(kind in f for f in found))
        assert all(seen == {True, False} for seen in outcomes.values())


class TestCotangentExtension:
    def test_plane_with_zero_cocycle_is_neutral_abelian(self):
        out = tstar_extension(LieAlgebra.abelian(2), Matrix.from_rows([[0, -1], [1, 0]]), Cocycle.zero(2))
        assert out.algebra.derived_ideal().dim == 0
        assert signature(out.phi) == (2, 2)
        assert check_phq(out).ok

    def test_full_bracket_table_with_unit_coefficients(self):
        k, j = kodaira_thurston()
        t1, t2, t3, t4 = kodaira_cocycle_basis()
        theta = t1 + t2 + t3 + t4
        out = tstar_extension(k, j, theta)
        c = out.algebra.structure
        n8 = lambda *cs: vector(cs)
        assert c[0][1] == n8(0, 0, 1, 0, 0, 0, 1, 1)    # x3 + x3* + x4*
        assert c[0][2] == n8(0, 0, 0, 0, 0, -1, 0, 1)   # -x2* + x4*
        assert c[0][3] == n8(0, 0, 0, 0, 0, -1, -1, 0)  # -x2* - x3*
        assert c[1][2] == n8(0, 0, 0, 0, 1, 0, 0, 1)    # x1* + x4*
        assert c[1][3] == n8(0, 0, 0, 0, 1, 0, -1, 0)   # x1* - x3*
        assert c[2][3] == n8(0, 0, 0, 0, 1, 1, 0, 0)    # x1* + x2*
        assert c[6][0] == n8(0, 0, 0, 0, 0, 1, 0, 0)    # [x3*, x1] = x2*
        assert c[6][1] == n8(0, 0, 0, 0, -1, 0, 0, 0)   # [x3*, x2] = -x1*
        # metric and complex structure
        for i in range(4):
            assert out.phi[i, 4 + i] == 1
        assert out.j.col(0) == unit_vector(8, 1)
        assert out.j.col(4) == unit_vector(8, 5)

    def test_twisted_fingerprint(self):
        out = tstar_kodaira(kodaira_cocycle_basis()[2])
        assert fingerprint(out).as_tuple() == (8, 5, 3, 3, (4, 4), (1, 1))

    def test_rejects_incompatible_cocycle(self):
        r6 = build("R(6,0)")
        theta = Cocycle(6, {(0, 2): {4: 1}, (0, 4): {2: -1}, (2, 4): {0: 1}})
        with pytest.raises(InvalidCocycle):
            tstar_extension(r6.algebra, r6.j, theta)

    def test_rejects_cocycle_of_the_wrong_dimension(self):
        carrier, j = kodaira_thurston()
        with pytest.raises(InvalidCocycle, match="^cocycle dimension does not match the algebra$"):
            tstar_extension(carrier, j, Cocycle.zero(6))

    def test_rejects_carrier_map_that_is_not_complex(self):
        carrier, _ = kodaira_thurston()
        with pytest.raises(InvalidCocycle, match="^the carrier map is not a complex structure$"):
            tstar_extension(carrier, Matrix.identity(4), Cocycle.zero(4))

    def test_untwisted_derived_ideal_is_totally_isotropic(self):
        out = tstar_kodaira()
        derived = out.algebra.derived_ideal()
        assert signature(gram_restriction(out.phi, derived.basis)) == (0, 0)


class TestTensorAndComplexify:
    def test_unit_algebra_preserves_fingerprint(self):
        from phq import CommutativeAlgebra

        unit_alg = CommutativeAlgebra(("1",), {(0, 0): {0: 1}}, Matrix.identity(1))
        assert check_commutative(unit_alg).ok
        core = build("L(4,2)")
        out = tensor_construct(core, unit_alg)
        assert fingerprint(out) == fingerprint(core)

    def test_truncated_poly_rejects_zero(self):
        with pytest.raises(InvalidParameter):
            truncated_poly(0)

    def test_tensor_rejects_non_commutative_products(self):
        # a b = b but b a = 0, so (a a) b = 0 differs from a (a b) = b too
        skew = CommutativeAlgebra(("a", "b"), {(0, 1): {1: 1}}, Matrix.identity(2))
        with pytest.raises(InvalidAlgebraData) as info:
            tensor_construct(build("L(4,2)"), skew)
        assert str(info.value) == (
            "products not commutative at (0,1); products not commutative at (1,0); "
            "associativity fails at (0,0,1)"
        )

    def test_truncated_poly_small_cases(self):
        a1 = truncated_poly(1)
        assert a1.products == {}
        assert a1.form[0, 0] == 1

        a2 = truncated_poly(2)
        assert a2.products == {(0, 0): {1: 1}}  # a*a = a^2, and a*a^2 = 0
        assert a2.form[0, 1] == 1 and a2.form[0, 0] == 0 and a2.form[1, 1] == 0

        a3 = truncated_poly(3)
        assert a3.form == Matrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert check_commutative(a3).ok

    def test_tensor_with_dual_numbers_doubles_dimension(self):
        core = build("L(4,2)")
        out = tensor_construct(core, truncated_poly(2))
        assert out.dim == 12
        assert check_phq(out).ok
        idx = out.algebra.nilpotency_index()
        assert idx is not None and idx <= 3 * 2

    def test_dim24_ladder_rung_passes_check(self):
        # tensor(TstarTheta3K, k=3), the largest rung of the ROADMAP ladder
        theta3 = {"op": "tstar", "base": {"op": "kodaira"}, "theta": ["0", "0", "1", "0"]}
        out = parse_recipe_text(json.dumps({"op": "tensor", "base": theta3, "k": 3})).evaluate()
        assert out.dim == 24
        assert check_phq(out).ok
        current, planes = out, 0
        for step in full_reduction(out).steps:
            if step.kind == "plane_reduction":
                rebuilt = phq_double_extension(step.extension_data)
                assert verify_witness(rebuilt, current, step.adapted_basis).ok
                planes += 1
            current = step.recovered
        assert planes > 0

    def test_complex_units_algebra(self):
        a = complex_units()
        assert check_commutative(a).ok
        assert a.products[1, 1] == {0: -1}

    def test_complexify_positive_plane_is_neutral(self):
        out = complexify(build("R(2,0)"))
        assert fingerprint(out) == fingerprint(build("R(2,2)"))

    def test_complexify_core(self):
        core = build("L(4,2)")
        out = complexify(core)
        assert out.dim == 12
        assert check_phq(out).ok
        assert signature(out.phi) == (6, 6)
        assert out.algebra.center().dim == 2 * core.algebra.center().dim

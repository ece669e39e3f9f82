import hashlib
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from operator import add

import pytest

import phq.linalg
import phq.reduction
import phq.structures
from phq import (
    CentralPair,
    CommutativeAlgebra,
    DimensionMismatch,
    EmptyIntersection,
    HypothesisViolated,
    InvalidCentralElement,
    LieAlgebra,
    Matrix,
    NonIsotropic,
    NotDefinitePlane,
    NotSymmetricError,
    PHQAlgebra,
    ReductionStuck,
    Subspace,
    build,
    check_commutative,
    check_phq,
    check_quadratic,
    classify,
    complexify,
    direct_sum,
    find_central_pair,
    fingerprint,
    full_reduction,
    gram_restriction,
    j_class,
    kernel,
    kodaira_thurston,
    map_image,
    parse_path,
    phq_double_extension,
    reduce_by_plane,
    salamon_check,
    signature,
    solve_linear,
    split_plane,
    tensor_construct,
    truncated_poly,
    validate_extension_data,
    vector,
    verify_witness,
)
from phq.cli import main
from phq.linalg import add_vec

from conftest import FIXTURES
from oracles import entries, naive_apply, naive_bracket, naive_pair, structure_tensor
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


def catalog_inputs():
    """(key, algebra) for the non-abelian models, keyed by label, and for
    three `transported` copies of each, keyed ``label@seed``."""
    inputs = [(name, build(name)) for name in NONABELIAN]
    inputs += [
        (f"{name}@{seed}", PHQAlgebra(*transported(build(name), random.Random(seed))))
        for seed in range(3)
        for name in NONABELIAN
    ]
    return inputs


# sha256 of repr([(kind, z, v, sign, recovered.dim) for each step]) of
# `full_reduction` on each input of `catalog_inputs`
REDUCTION_PINS = {
    "L(4,2)": "dc4ce26586beafb6d1a108c96a9e8b1203567289ece0dd472ea46d82911e3a78",
    "L(2,4)": "a804bd732ad3ae501709fe00f0a85625ddc27c9e6a2861c40be4cd8a2a9af814",
    "Tstar0K": "2fdfa91350becc693355096d7c18bb49aff799c4aeea0fb35adf1846cf104032",
    "TstarTheta3K": "df069ac4a7c239d494966eae2b52964ba7974961d05d9c6e255037cd076cc0ff",
    "L(4,2)+R(2,0)": "df069ac4a7c239d494966eae2b52964ba7974961d05d9c6e255037cd076cc0ff",
    "L(4,2)+R(0,2)": "df069ac4a7c239d494966eae2b52964ba7974961d05d9c6e255037cd076cc0ff",
    "L(2,4)+R(2,0)": "e2f18d812fee1f637b3024665f6bdc40fc0262258aac3d38736b50a600c7ecd0",
    "L(2,4)+R(0,2)": "e2f18d812fee1f637b3024665f6bdc40fc0262258aac3d38736b50a600c7ecd0",
    "L(4,2)@0": "dc4ce26586beafb6d1a108c96a9e8b1203567289ece0dd472ea46d82911e3a78",
    "L(2,4)@0": "a804bd732ad3ae501709fe00f0a85625ddc27c9e6a2861c40be4cd8a2a9af814",
    "Tstar0K@0": "9dcdee17caaa0702c07e9780558dddb4f7d8c7f0c8730122bfb34abd40d10e02",
    "TstarTheta3K@0": "df069ac4a7c239d494966eae2b52964ba7974961d05d9c6e255037cd076cc0ff",
    "L(4,2)+R(2,0)@0": "df069ac4a7c239d494966eae2b52964ba7974961d05d9c6e255037cd076cc0ff",
    "L(4,2)+R(0,2)@0": "df069ac4a7c239d494966eae2b52964ba7974961d05d9c6e255037cd076cc0ff",
    "L(2,4)+R(2,0)@0": "e2f18d812fee1f637b3024665f6bdc40fc0262258aac3d38736b50a600c7ecd0",
    "L(2,4)+R(0,2)@0": "e2f18d812fee1f637b3024665f6bdc40fc0262258aac3d38736b50a600c7ecd0",
    "L(4,2)@1": "7b6a6966099df17f3995fe3b755ffe50a96936f9b4d51afbfb8c6010ef802b88",
    "L(2,4)@1": "83a1d0590a0d7c57c48b71e97f643be906d1626749fd01fafd7789edc28c1793",
    "Tstar0K@1": "63ef5786e6c158aa8f6b1315a965e1e08b50fc5bf301f5c9bef32f3a72e89b9b",
    "TstarTheta3K@1": "1f54fda41db649ca5de91e11716124c7a73b7e1b65ef778d7fae3148b83c874d",
    "L(4,2)+R(2,0)@1": "1f54fda41db649ca5de91e11716124c7a73b7e1b65ef778d7fae3148b83c874d",
    "L(4,2)+R(0,2)@1": "1f54fda41db649ca5de91e11716124c7a73b7e1b65ef778d7fae3148b83c874d",
    "L(2,4)+R(2,0)@1": "807fcfe7b26f47984ac0e31b2adae658036f19553396093f352e07329e422f6c",
    "L(2,4)+R(0,2)@1": "807fcfe7b26f47984ac0e31b2adae658036f19553396093f352e07329e422f6c",
    "L(4,2)@2": "11a096de70c1edae2e3298b5dc69874afbe3f0fb944cf016ca4811987019407b",
    "L(2,4)@2": "f8c6aecfe748fabd1dbdce4bb47565b29e8f6d7ead453048967e5fc1494216dd",
    "Tstar0K@2": "9dcdee17caaa0702c07e9780558dddb4f7d8c7f0c8730122bfb34abd40d10e02",
    "TstarTheta3K@2": "83bdc9670e74b16992037dec81e587dfc852b0fa6b2563e0e24524fa8b5c2204",
    "L(4,2)+R(2,0)@2": "83bdc9670e74b16992037dec81e587dfc852b0fa6b2563e0e24524fa8b5c2204",
    "L(4,2)+R(0,2)@2": "83bdc9670e74b16992037dec81e587dfc852b0fa6b2563e0e24524fa8b5c2204",
    "L(2,4)+R(2,0)@2": "734e2ba780b2043e48044cabfef19907e13c531a82d9764f4c09d7b6493de418",
    "L(2,4)+R(0,2)@2": "734e2ba780b2043e48044cabfef19907e13c531a82d9764f4c09d7b6493de418",
}

# sha256 of repr([(adapted_basis, recovered) for each step]) on the same
# inputs: a new rule for the complement basis (or for z or v) changes these,
# and must re-record them on purpose
BASIS_PINS = {
    "L(4,2)": "3949c2e80b4fcd5e4457ce5699c965e6e71ec9614fa9c08d8dc73a8bf315cf25",
    "L(2,4)": "fbdc300b2cfe04a4222d7a8334ddc6a87309c2d31774c1b11b1e2f21bd1e181e",
    "Tstar0K": "49d0eb61918747ecdfd6a11544a5611bc6ad935a067d034c106dbd41e4a4ea8a",
    "TstarTheta3K": "11a95e49cd2d01e8ef393b2019e10f00a5843ffc33045cc9af50fef83c12b844",
    "L(4,2)+R(2,0)": "be9a88c31e8c35a6f5475d5bf84652dd923bd58398745511d395bd8e5caef55c",
    "L(4,2)+R(0,2)": "37c1019c49e7fb78f06355ec52a55c91154cfc8c1ba7bff91b320f8dc61cf30a",
    "L(2,4)+R(2,0)": "8c80cdd88c51108067b3db613187d702c007ad3f217f75effd44d30148f58914",
    "L(2,4)+R(0,2)": "3269dc5abd3223b322e9ec1d48ad24521301d18a64e15cb584acb216bd29909d",
    "L(4,2)@0": "f0e38648ffe2c20abb026cf330dc993fdd97fac7083697cfefecceeacfb49677",
    "L(2,4)@0": "bcad06e8fd74c89d636f8f3d37e722bc2e4cfadaeb360e9a49e779aae1d16889",
    "Tstar0K@0": "a4717a2cedef070ab4601a9a72f160d1946422ec38045b21efa8f1a914553cfa",
    "TstarTheta3K@0": "77895a7b701eeabe3a04d746c8a881d0b7a5902505a1d6dbf6d474a7b6c061be",
    "L(4,2)+R(2,0)@0": "e6c94e0285b72d44fded2d0897d54006db49a1f54a31c7b3e7f4e07ee44e903f",
    "L(4,2)+R(0,2)@0": "7c2327b184e48668f04b627aa89939c8343fd6bde91646f1af179a1f3f18209f",
    "L(2,4)+R(2,0)@0": "34d7e59aa6eb7e94d7c769449b9864c1b055bb99896865f11c03f284616523af",
    "L(2,4)+R(0,2)@0": "73a207f726700b7d29e24e2a0812c73cd11fbe9e0e3b73922abd7f71b01d6989",
    "L(4,2)@1": "c31b28447d3eef53d3667532f3abb11c1e865c8287313e051027f5edf43c3d35",
    "L(2,4)@1": "2eb1212667d18c4cde58ef3c69a873f88c511755863b9ebdf31487c25943cd64",
    "Tstar0K@1": "7cad815ab0635784d014a866d4b09e4e32fe045d7bfb0b5a84525e2afbe8ff20",
    "TstarTheta3K@1": "84b929193995597d6ac6ebc350c673dd0709dc4fedced46cdba67c358077ab78",
    "L(4,2)+R(2,0)@1": "6b36343da0814fdc2a055c5363491ae293ed04328273c80de50d746462839ec9",
    "L(4,2)+R(0,2)@1": "7faf2c80dd3269a77cf4fd6ce0efb920ff5e3a5a6c4025c4f8b5e49a42c5f4c2",
    "L(2,4)+R(2,0)@1": "b4e76892f20979f32373a7b78be468077ae5ea9fe97a6c026fc5e4120c992379",
    "L(2,4)+R(0,2)@1": "5bc857ee1185d0e16fdad69db7061d09f120bf001aec6ad6329d6bad4af254fd",
    "L(4,2)@2": "4e3e515553652667cbd542ef90ef4cdd1ffcff496147a484e16a43456636eca8",
    "L(2,4)@2": "5427067fd4ae77f575e2357f919b401b9d7f2a3828d5cbe0a3e136f7a23dad61",
    "Tstar0K@2": "40c2b46c7e33c87b020420ff3941d58f1674606d73bd0d0c5ce50effaa178468",
    "TstarTheta3K@2": "0dac68237a8ead111a762f885a5b265483a1b8894ef8c7e26e114a2222752c67",
    "L(4,2)+R(2,0)@2": "71f3e19739c3f80b1c8229f90d2d0e15b7003f8b9ee3da9d30ba95eb99bc38b6",
    "L(4,2)+R(0,2)@2": "7d7b1871f8a3707960702dafb522f27b4f053117c169db3be7ea3713345fcaa4",
    "L(2,4)+R(2,0)@2": "d6884d20b15499e770fc6ad56e3b485f00dad46e26e91121347e8e7d614f5b76",
    "L(2,4)+R(0,2)@2": "18d9355ed50d0b2d1de3f0c066da3ecfeb9e059f945824a0e639ddcd95c98707",
}

CHOOSE = phq.reduction._choose


def generic_z(p, what, *given):
    """The policy, with z = b1 + 2 b2 + ... + k bk over the echelon basis of
    W ∩ [g,g] in place of b1."""
    if what == "z" and given[1].dim:
        b = given[1].basis
        return [tuple(sum(k * x[i] for k, x in enumerate(b, start=1)) for i in range(p.dim))]
    return CHOOSE(p, what, *given)


def shuffled_basis(p, what, *given):
    """The policy, with the complement basis shuffled and then changed by a
    unit upper bidiagonal integer matrix: b_i + c_i b_(i+1), c_i in ±1, ±2."""
    out = CHOOSE(p, what, *given)
    if what == "basis":
        rng = random.Random(len(out))
        b = list(out)
        rng.shuffle(b)
        steps = [(x, y, rng.choice((-2, -1, 1, 2))) for x, y in zip(b, b[1:])]
        out = [tuple(a + k * c for a, c in zip(x, y)) for x, y, k in steps] + b[-1:]
    return out


def moved_v(shift):
    """The policy, with v moved to v + shift(p, z, jz, v)."""

    def policy(p, what, *given):
        out = CHOOSE(p, what, *given)
        if what == "v":
            z, jz = ([Fraction(a, s) for a in x] for s, x in given)
            out = tuple(map(add, out, shift(p, z, jz, out)))
        return out

    return policy


def moved_basis(p, what, *given):
    """The policy, with the first complement vector b moved to b + z: j(b + z)
    has the component jz, outside the complement."""
    out = CHOOSE(p, what, *given)
    if what == "basis":
        s, z = given[0]
        out = [tuple(a + Fraction(c, s) for a, c in zip(out[0], z)), *out[1:]]
    return out


def split_first(p, what, *given):
    """The policy, with z preferring the candidates of nonzero norm, so that a
    definite central plane is split off before any plane reduction."""
    out = CHOOSE(p, what, *given)
    if what == "z":
        out = [z for z in CHOOSE(p, "z", given[0], Subspace.zero(p.dim)) if p.pairing(z, z)] + out
    return out


def assert_valid_chain(p, result, name):
    """Every plane step of ``result`` is witnessed by its double extension,
    every split leaves a valid algebra whose signature plus the removed
    plane's is the one it came from, and the dimensions add up."""
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
    splits = sum(s.kind == "split_plane" for s in result.steps)
    assert p.dim == result.residue.dim + 2 * splits + 4 * (len(result.steps) - splits), name
    assert result.residue.algebra.is_abelian(), name


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

    def test_empty_intersection_carries_w_and_the_center(self):
        # aff(1) + R^2: the center span(e3, e4) is mapped onto span(e1, e2)
        algebra = LieAlgebra(("e1", "e2", "e3", "e4"), {(0, 1): {1: 1}})
        j = Matrix.from_cols([unit(4, 2), unit(4, 3), unit(4, 0), unit(4, 1)], rows=4)
        with pytest.raises(EmptyIntersection) as info:
            find_central_pair(PHQAlgebra(algebra, j, Matrix.identity(4)))
        assert str(info.value) == (
            "W = center ∩ j(center) is zero, with center = span(e3, e4); input is outside the nilpotent case"
        )
        assert info.value.subspace == Subspace.zero(4)
        assert info.value.center == Subspace.span(4, [unit(4, 2), unit(4, 3)])

    def test_reduction_stuck_carries_w_and_the_candidates(self):
        # phi = 0 makes every candidate isotropic, and W = span(e1, e2) misses
        # the derived ideal of the abelian algebra
        j = Matrix.from_cols([(0, 1), (-1, 0)], rows=2)
        with pytest.raises(ReductionStuck) as info:
            find_central_pair(PHQAlgebra(LieAlgebra.abelian(2), j, Matrix.zero(2)))
        assert str(info.value) == (
            "all candidates in W = center ∩ j(center) = span(e1, e2) are isotropic but none lies "
            "in the derived ideal; tried e1, e2, e1 +e2"
        )
        assert info.value.subspace == Subspace.full(2)
        assert info.value.candidates == (unit(2, 0), unit(2, 1), vector([1, 1]))

    def test_reduction_stuck_marks_a_coefficient_too_long_to_print(self):
        # W = span(e3 + L e4) with L of 5,001 digits, which str() refuses
        long = 10**5000
        algebra = LieAlgebra(("e1", "e2", "e3", "e4"), {(0, 1): {2: 1}})
        j = Matrix.from_cols([unit(4, 1), unit(4, 0), vector([0, 0, 1, long]), unit(4, 0)], rows=4)
        with pytest.raises(ReductionStuck) as info:
            find_central_pair(PHQAlgebra(algebra, j, Matrix.zero(4)))
        assert str(info.value) == (
            "all candidates in W = center ∩ j(center) = span(e3 +<long>*e4) are isotropic but none "
            "lies in the derived ideal; tried e3 +<long>*e4"
        )
        assert info.value.candidates == (vector([0, 0, 1, long]),)


class TestSplitPlane:
    def test_split_positive_plane_from_mixed_abelian(self):
        p = build("R(2,4)")
        step = split_plane(p, unit(6, 0))
        assert (step.kind, step.z, step.sign) == ("split_plane", unit(6, 0), 1)
        assert step.v is step.extension_data is step.adapted_basis is None
        assert step.recovered.dim == 4
        assert signature(step.recovered.phi) == (0, 4)
        assert check_phq(step.recovered).ok

    def test_split_factor_from_sum(self):
        p = build("L(4,2)+R(2,0)")
        # basis order: core first, then the positive plane at indices 6, 7
        step = split_plane(p, unit(8, 6))
        assert step.sign == 1
        assert step.v is step.extension_data is step.adapted_basis is None
        assert fingerprint(step.recovered) == fingerprint(build("L(4,2)"))

    def test_split_on_dense_copies(self):
        # a central j-pair vector of nonzero norm in a random basis: the rest
        # is valid, two dimensions smaller, and its signature plus the
        # plane's is the input's
        for name in ("L(4,2)+R(2,0)", "L(2,4)+R(0,2)", "R(2,4)"):
            for seed in range(3):
                p = PHQAlgebra(*transported(build(name), random.Random(seed)))
                w = find_central_pair(p).subspace.basis
                z = next(x for x in [*w, *map(add_vec, w, w[1:])] if p.pairing(x, x))
                step = split_plane(p, z)
                assert step.v is step.extension_data is step.adapted_basis is None
                rest = step.recovered
                assert rest.dim == p.dim - 2 and check_phq(rest).ok, (name, seed)
                pos, neg = signature(rest.phi)
                plane = (2, 0) if step.sign > 0 else (0, 2)
                assert (pos + plane[0], neg + plane[1]) == signature(p.phi), (name, seed)

    def test_rejects_nonsymmetric_metric(self):
        p = with_phi_entry(build("L(4,2)+R(2,0)"), 0, 1, Fraction(1, 3))
        with pytest.raises(NotSymmetricError):
            split_plane(p, unit(8, 6))

    def test_rejects_isotropic_vector(self):
        p = build("Tstar0K")
        with pytest.raises(NotDefinitePlane):
            split_plane(p, unit(8, 2))

    # on the Kodaira-Thurston algebra with its block rotation j, z = x3 is
    # central and derived and jz = x4 is central, so the metric decides
    @pytest.mark.parametrize(
        "phi, z, error, message",
        [
            (Matrix.identity(4), (1, 0), DimensionMismatch, "vector must match the algebra dimension"),
            (Matrix.identity(4), unit(4, 2), NonIsotropic, "z must be isotropic"),
            (
                Matrix.zero(4),
                unit(4, 2),
                InvalidCentralElement,
                "no dual vector for z: metric degenerate on the pair",
            ),
        ],
        ids=["wrong_length", "identity_metric", "zero_metric"],
    )
    def test_guards_on_the_kodaira_thurston_algebra(self, phi, z, error, message):
        p = PHQAlgebra(*kodaira_thurston(), phi)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            reduce_by_plane(p, z)

    def test_rejects_noncentral_vector(self):
        p = build("L(4,2)")
        with pytest.raises(InvalidCentralElement):
            split_plane(p, unit(6, 0))

    def test_rejects_central_vector_with_noncentral_image(self):
        # e1 is central of norm 1, but this j sends it to the non-central x1
        p = with_j_column(build("L(4,2)+R(2,0)"), 6, unit(8, 0))
        with pytest.raises(InvalidCentralElement, match="^z and jz must be central$"):
            split_plane(p, unit(8, 6))


def test_mixed_denominators_pass_every_symmetry_test():
    # phi of this copy has entries over 3, 5, 4 and 9 at once; the symmetry
    # test compares the integers of one common denominator in each caller
    # (`signature` and `orthogonal_complement`: test_linalg)
    p = PHQAlgebra(*transported(build("L(4,2)+R(2,0)"), random.Random(1)))
    assert {3, 5} <= {e.denominator for e in p.phi.entries}
    assert check_quadratic(p.algebra, p.phi).ok
    w = find_central_pair(p).subspace.basis
    z = next(x for x in [*w, *map(add_vec, w, w[1:])] if p.pairing(x, x))
    assert split_plane(p, z).recovered.dim == 6
    assert reduce_by_plane(p, find_central_pair(p).z).recovered.dim == 4
    form = Matrix.from_rows([[Fraction(1, 3), Fraction(2, 5)], [Fraction(2, 5), 0]])
    assert check_commutative(CommutativeAlgebra(("a", "a^2"), truncated_poly(2).products, form)).ok


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
        assert not any(data.d.entries) and not any(data.f.entries)
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
        assert any(data.f.entries)
        assert not any(data.d.entries)
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

    @pytest.mark.parametrize(
        "shift",
        [
            lambda p, z, jz, v: z,  # norm 2
            lambda p, z, jz, v: v,  # phi(z, 2v) = 2
            lambda p, z, jz, v: p.j.apply(v),  # phi(jz, jv) = phi(z, v) = 1
        ],
        ids=["norm", "phi_z", "phi_jz"],
    )
    def test_rejects_a_dual_that_breaks_one_condition(self, monkeypatch, shift):
        monkeypatch.setattr(phq.reduction, "_choose", moved_v(shift))
        message = "v must be isotropic, with phi(z, v) = 1 and phi(jz, v) = 0"
        with pytest.raises(HypothesisViolated, match=f"^{re.escape(message)}$"):
            reduce_by_plane(build("L(4,2)"), unit(6, 4))

    # a split removes no frame vector, so jz leaves its frame; a plane step
    # keeps z and jz in its frame, and j(b + z) has a component along jz
    @pytest.mark.parametrize(
        "step, name, z, message",
        [
            (split_plane, "L(4,2)+R(2,0)", unit(8, 6), "the restriction leaves the frame; the subspace is not invariant"),
            (reduce_by_plane, "L(4,2)", unit(6, 4), "j does not keep the restricted subspace"),
        ],
        ids=["split_plane", "reduce_by_plane"],
    )
    def test_rejects_a_basis_that_j_does_not_keep(self, monkeypatch, step, name, z, message):
        monkeypatch.setattr(phq.reduction, "_choose", moved_basis)
        with pytest.raises(InvalidCentralElement, match=f"^{re.escape(message)}$"):
            step(build(name), z)


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
        for name, p in catalog_inputs():
            assert_valid_chain(p, full_reduction(p), name)

    @pytest.mark.parametrize(
        "policy",
        [
            generic_z,
            shuffled_basis,
            moved_v(lambda p, z, jz, v: [Fraction(-2, 3) * c for c in jz]),
            split_first,
        ],
        ids=["generic_z", "shuffled_basis", "v_plus_a_jz", "split_first"],
    )
    def test_any_admissible_choice_gives_a_valid_chain(self, monkeypatch, policy):
        # a step is valid for any admissible z, v and complement basis: with
        # another policy the steps change but every one of them still checks
        inputs = [(name, build(name)) for name in (*NONABELIAN, "R(2,2)", "R(2,4)")]
        inputs += [(f"complexify({name})", complexify(build(name))) for name in ("L(4,2)", "TstarTheta3K")]
        default = [full_reduction(p) for _, p in inputs]
        monkeypatch.setattr(phq.reduction, "_choose", policy)
        results = [full_reduction(p) for _, p in inputs]
        for (name, p), result in zip(inputs, results):
            assert_valid_chain(p, result, name)
        assert results != default
        splits = any(s.kind == "split_plane" for r in results for s in r.steps)
        assert splits == (policy is split_first)

    def test_full_reduction_calls_the_steps_by_their_module_names(self, monkeypatch):
        # perfbench/spans.py times these three by wrapping the module
        # attributes; a full_reduction that went around one would read 0
        # calls there with no other test failing
        reached = Counter()
        for name in ("find_central_pair", "reduce_by_plane", "split_plane"):

            def counted(*args, real=getattr(phq.reduction, name), name=name):
                reached[name] += 1
                return real(*args)

            monkeypatch.setattr(phq.reduction, name, counted)
        monkeypatch.setattr(phq.reduction, "_choose", split_first)
        result = full_reduction(parse_path(str(FIXTURES / "L42_R20.alg")))
        assert [s.kind for s in result.steps] == ["split_plane", "plane_reduction"]
        assert reached == {"find_central_pair": 2, "split_plane": 1, "reduce_by_plane": 1}

    def test_split_branch(self, monkeypatch, capsys):
        # no model reaches the split branch: offer the R(2,0) plane of
        # L(4,2)+R(2,0), at e7, as the first central pair
        real = phq.reduction.find_central_pair
        calls = []

        def split_first(p):
            calls.append(p)
            pair = real(p)
            return CentralPair(pair.subspace, unit(p.dim, 6), False) if len(calls) == 1 else pair

        monkeypatch.setattr(phq.reduction, "find_central_pair", split_first)
        path = str(FIXTURES / "L42_R20.alg")
        p = parse_path(path)
        result = full_reduction(p)
        lines = (
            "step 1: split_plane sign=+ -> dim 6",
            "step 2: plane_reduction -> dim 2",
            "residue: dim 2, signature (2,0), abelian",
        )
        assert result.describe() == lines
        assert [(s.kind, s.sign) for s in result.steps] == [("split_plane", 1), ("plane_reduction", None)]
        assert signature(result.residue.phi) == (2, 0)
        assert p.dim == result.residue.dim + 2 + 4 == 8

        calls.clear()
        assert main(["reduce", path]) == 0
        assert capsys.readouterr().out.splitlines() == list(lines)
        calls.clear()
        assert main(["--format", "json", "reduce", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        step = doc["steps"][0]
        assert (step["kind"], step["v"], step["sign"], step["recovered_dim"]) == ("split_plane", None, 1, 6)
        assert [s["recovered_dim"] for s in doc["steps"]] == [6, 2] and doc["residue_dim"] == 2

    def test_choices_are_pinned_on_catalog(self):
        # which z and v each step picks, off the fixtures too, and the basis
        # it writes the recovered algebra in: a change to the candidate
        # order, the norm test or the complement basis shows
        for key, p in catalog_inputs():
            steps = full_reduction(p).steps
            r = repr([(s.kind, s.z, s.v, s.sign, s.recovered.dim) for s in steps])
            assert hashlib.sha256(r.encode()).hexdigest() == REDUCTION_PINS[key], key
            r = repr([(s.adapted_basis, s.recovered) for s in steps])
            assert hashlib.sha256(r.encode()).hexdigest() == BASIS_PINS[key], key

    def test_dense_transport_of_the_dim24_rung(self):
        # tensor(TstarTheta3K, k=3) in a seeded dense basis reduces as the
        # sparse rung does, through valid bases and valid extension data
        sparse = tensor_construct(build("TstarTheta3K"), truncated_poly(3))
        p = PHQAlgebra(*transported(sparse, random.Random(7)))
        result = full_reduction(p)
        assert result.describe() == full_reduction(sparse).describe()
        assert sum(s.kind == "plane_reduction" for s in result.steps) == 3
        for step in result.steps:
            assert check_phq(step.recovered).ok
            if step.kind == "plane_reduction":
                data = step.extension_data
                assert validate_extension_data(data.base, data.d, data.f, data.s0).ok

    def test_steps_stay_on_the_integer_kernel(self, monkeypatch):
        # a reduction or a classify evaluates no bracket in Fractions,
        # validate_extension_data multiplies no Matrix, and the witness, the
        # j-class and the Salamon check add, subtract, scale or multiply none
        inputs = [(name, build(name)) for name in ALL_LABELS]
        inputs.append(("TstarTheta3K", PHQAlgebra(*transported(build("TstarTheta3K"), random.Random(0)))))
        expected = [(full_reduction(p).describe(), classify(p).label) for _, p in inputs]
        data = full_reduction(inputs[-1][1]).steps[0].extension_data

        def refuse(self, x, y):
            raise AssertionError("LieAlgebra.bracket was reached")

        refused = {
            "__matmul__": {"validate_extension_data", "verify_witness", "j_class", "salamon_check"},
            "__add__": {"verify_witness", "j_class", "salamon_check"},
            "__sub__": {"verify_witness", "j_class", "salamon_check"},
            "scale": {"verify_witness", "j_class", "salamon_check"},
        }

        def guard(name, method):
            def guarded(self, *args):
                frame = sys._getframe(1)
                while frame is not None:
                    if frame.f_code.co_name in refused[name]:
                        raise AssertionError(f"Matrix.{name} was reached in {frame.f_code.co_name}")
                    frame = frame.f_back
                return method(self, *args)

            return guarded

        monkeypatch.setattr(LieAlgebra, "bracket", refuse)
        for name in refused:
            monkeypatch.setattr(Matrix, name, guard(name, getattr(Matrix, name)))
        for (name, p), (lines, label) in zip(inputs, expected):
            result = full_reduction(p)
            assert result.describe() == lines, name
            assert classify(p).label == label, name
            assert j_class(p.algebra, p.j).label in ("abelian,bi_invariant", "generic"), name
            assert salamon_check(p).ok, name
            current = p
            for step in result.steps:
                if step.kind == "plane_reduction":
                    rebuilt = phq_double_extension(step.extension_data)
                    assert verify_witness(rebuilt, current, step.adapted_basis).ok, name
                current = step.recovered
        # the guard sees validate_extension_data called on its own too
        assert validate_extension_data(data.base, data.d, data.f, data.s0).ok
        # and it fires: a Matrix product inside a guarded verdict is refused
        with pytest.raises(AssertionError, match="__matmul__ was reached in j_class"):
            monkeypatch.setattr(phq.structures, "_mapped", lambda algebra, m: Matrix.identity(1) @ Matrix.identity(1))
            j_class(inputs[0][1].algebra, inputs[0][1].j)

    def test_products_and_ad_columns_multiply_only_ints(self, monkeypatch):
        # `linalg.mat_mul` and `lie._twisted` multiply the integers that the
        # tables and matrices keep, also behind `@`, through
        # the checks, the reductions, the certificates and `j_class`
        import phq.catalog
        import phq.constructions
        import phq.lie
        import phq.structures

        inputs = [build(name) for name in ALL_LABELS]
        inputs.append(PHQAlgebra(*transported(build("TstarTheta3K"), random.Random(0))))
        seen = Counter()

        def ints(*values):
            return all(ints(*v) if isinstance(v, (list, tuple)) else type(v) is int for v in values)

        def guarded_mat_mul(*args):
            out = mat_mul(*args)
            assert ints(args[0], args[3], out), "mat_mul met a non-int entry"
            seen["mat_mul"] += 1
            return out

        def guarded_twisted(algebra, xs):
            xs = list(xs)
            u = twisted(algebra, xs)
            assert ints(xs, *u.values()), "_twisted met a non-int entry"
            seen["_twisted"] += 1
            return u

        mat_mul, twisted = phq.linalg.mat_mul, phq.lie._twisted
        modules = (phq.linalg, phq.lie, phq.structures, phq.constructions, phq.reduction, phq.catalog)
        for name, original, guarded in (("mat_mul", mat_mul, guarded_mat_mul), ("_twisted", twisted, guarded_twisted)):
            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, guarded)
        for p in inputs:
            assert check_phq(p).ok
            assert j_class(p.algebra, p.j).label in ("abelian,bi_invariant", "generic")
            current = p
            for step in full_reduction(p).steps:
                if step.kind == "plane_reduction":
                    rebuilt = phq_double_extension(step.extension_data)
                    assert verify_witness(rebuilt, current, step.adapted_basis).ok
                current = step.recovered
        assert seen["mat_mul"] and seen["_twisted"]

    def test_each_table_and_matrix_is_scaled_once(self, monkeypatch):
        # however many checks, invariants and steps read an algebra's table
        # or a matrix's entries as integers, each object is scaled once, by
        # its own `_scaled`, and no reader mutates the integers it is handed
        created = []  # every LieAlgebra and Matrix built during the run
        filled = []  # the object of each computation of a `_scaled`
        handed = []  # every argument of linalg.scaled
        scale = phq.linalg.scaled
        fresh = {cls: cls.__dict__["_scaled"].func for cls in (LieAlgebra, Matrix)}
        for cls, func in fresh.items():

            def recording(self, post_init=cls.__post_init__):
                created.append(self)
                post_init(self)

            def counting(self, func=func):
                filled.append(self)
                return func(self)

            monkeypatch.setattr(cls, "__post_init__", recording)
            monkeypatch.setattr(cls.__dict__["_scaled"], "func", counting)
        for name, module in list(sys.modules.items()):
            if name.startswith("phq") and getattr(module, "scaled", None) is scale:
                monkeypatch.setattr(module, "scaled", lambda values: handed.append(values) or scale(values))

        inputs = [build(name) for name in ALL_LABELS]
        inputs += [PHQAlgebra(*transported(p, random.Random(1))) for p in inputs]
        for p in inputs:
            assert check_phq(p).ok
            fingerprint(p)
            full_reduction(p)
            classify(p)

        assert len({id(obj) for obj in filled}) == len(filled)
        # a Matrix's entries reach linalg.scaled only through its `_scaled`
        fills = Counter(id(m.entries) for m in filled if isinstance(m, Matrix))
        calls = Counter(map(id, handed))
        assert all(calls[id(m.entries)] == fills[id(m.entries)] for m in created if isinstance(m, Matrix))
        assert any(isinstance(m, Matrix) for m in filled) and any(isinstance(a, LieAlgebra) for a in filled)
        for obj in created:
            if "_scaled" in vars(obj):
                assert vars(obj)["_scaled"] == fresh[type(obj)](obj)


def first_plane_datum(name, seed=None):
    """The extension data of the first step of `full_reduction` on ``name``,
    in its recipe basis or, given a seed, in a `transported` copy."""
    p = build(name) if seed is None else PHQAlgebra(*transported(build(name), random.Random(seed)))
    return full_reduction(p).steps[0].extension_data


@pytest.mark.parametrize(
    "name, seed, read_back",
    [
        pytest.param(name, seed, None, id=name if seed is None else f"{name}@{seed}")
        for name in ("Tstar0K", "TstarTheta3K")
        for seed in (None, 1, 2, 3)
    ]
    + [
        pytest.param(None, None, (a, b), id=f"adapted({a},{b})")
        for a, b in ((1, 0), (1, 1), (Fraction(5, 2), Fraction(-2, 3)))
    ],
)
def test_the_adapted_pair_lemma(name, seed, read_back):
    # the paper's dim-8 lemma on the plane steps that meet its hypotheses, and
    # on the adapted form, whose constants it reads back; a depends on the
    # basis, so only its existence is asserted on the plane steps
    if read_back is None:
        data = first_plane_datum(name, seed)
        base, d, f = data.base, data.d, data.f
    else:
        base, (f, d) = lemma_adapted_base(), adapted_pair(*read_back)
    assert base.dim == 4 and signature(base.phi) == (2, 2)
    assert not any((f @ f @ f @ f).entries) and not any((d @ d @ d @ d).entries)
    ker = kernel(f)
    assert ker.dim == 2 and map_image(base.j, ker) == ker == Subspace.span(4, [f.col(i) for i in range(4)])
    assert not any(gram_restriction(base.phi, ker.basis).entries)
    u1 = ker.basis[0]
    ju1 = base.j.apply(u1)
    assert not any(d.apply(u1) + d.apply(ju1))
    # u2: phi(u1, u2) = 1 and phi(ju1, u2) = 0, moved along u1 to be isotropic
    v0 = solve_linear(Matrix.from_rows([base.phi.apply(u1), base.phi.apply(ju1)]), (1, 0))
    u2 = tuple(x - base.pairing(v0, v0) / 2 * y for x, y in zip(v0, u1))
    (a,) = solve_linear(Matrix.from_cols([ju1]), f.apply(u2))
    (b,) = solve_linear(Matrix.from_cols([ju1]), d.apply(u2))
    assert a != 0 and f.apply(base.j.apply(u2)) == tuple(-a * x for x in u1)
    assert read_back is None or (a, b) == read_back


def test_the_lemma_hypotheses_fail_on_the_other_labels():
    # (dim, signature) of the base and whether F != 0, on the first plane
    # step in the recipe basis and three transports: four bases are not
    # neutral of dimension 4, and two neutral ones have F = 0
    facts = {
        name: {
            (data.base.dim, signature(data.base.phi), any(data.f.entries))
            for data in (first_plane_datum(name, seed) for seed in (None, 1, 2, 3))
        }
        for name in NONABELIAN
        if name not in ("Tstar0K", "TstarTheta3K")
    }
    assert facts == {
        "L(4,2)": {(2, (2, 0), False)},
        "L(2,4)": {(2, (0, 2), False)},
        "L(4,2)+R(2,0)": {(4, (4, 0), False)},
        "L(4,2)+R(0,2)": {(4, (2, 2), False)},
        "L(2,4)+R(2,0)": {(4, (2, 2), False)},
        "L(2,4)+R(0,2)": {(4, (0, 4), False)},
    }


def naive_skew(m, g):
    """g(m e_a, e_b) + g(e_a, m e_b) = 0 for every basis pair."""
    n = len(g)
    units = [list(unit(n, i)) for i in range(n)]
    images = [naive_apply(m, u) for u in units]
    return all(
        naive_pair(g, images[a], units[b]) + naive_pair(g, units[a], images[b]) == 0
        for a in range(n)
        for b in range(n)
    )


def naive_derivation(c, m):
    """m[e_i, e_k] = [m e_i, e_k] + [e_i, m e_k] for every basis pair."""
    n = len(c)
    units = [list(unit(n, i)) for i in range(n)]
    return all(
        naive_apply(m, c[i][k])
        == [
            a + b
            for a, b in zip(
                naive_bracket(c, naive_apply(m, units[i]), units[k]),
                naive_bracket(c, units[i], naive_apply(m, units[k])),
            )
        ]
        for i in range(n)
        for k in range(i + 1, n)
    )


def naive_extension_failures(base, d, f, s0):
    """The failures `validate_extension_data` reports, in its order, from the
    dense structure tensor and naive products on basis vectors."""
    n = base.dim
    c, g, jm, dm, fm = structure_tensor(base.algebra), entries(base.phi), entries(base.j), entries(d), entries(f)
    units = [list(unit(n, i)) for i in range(n)]
    failures = []
    for name, m in (("D", dm), ("F", fm)):
        if not naive_skew(m, g):
            failures.append(f"{name} is not skewsymmetric for the base metric")
        if not naive_derivation(c, m):
            failures.append(f"{name} is not a derivation of the base")

    def f_plus_jd(v):
        return [a + b for a, b in zip(naive_apply(fm, v), naive_apply(jm, naive_apply(dm, v)))]

    if any(f_plus_jd(naive_apply(jm, u)) != naive_apply(jm, f_plus_jd(u)) for u in units):
        failures.append("[F + J D, J] != 0")
    commutator = [
        [a - b for a, b in zip(naive_apply(fm, naive_apply(dm, u)), naive_apply(dm, naive_apply(fm, u)))]
        for u in units
    ]
    if any(naive_bracket(c, list(s0), u) != fdu for u, fdu in zip(units, commutator)):
        failures.append("ad(s0) != F D - D F")
    return tuple(failures)


def elementary(n, a, b, value):
    """The n x n matrix with ``value`` at (a, b) and zeros elsewhere."""
    return Matrix.from_rows([[value if (r, s) == (a, b) else 0 for s in range(n)] for r in range(n)])


def skew_rank_two(g, a, b, value):
    """value * (x -> g(e_a, x) e_b - g(e_b, x) e_a): skewsymmetric for a
    symmetric g."""
    n = len(g)
    rows = [[value * ((r == b) * g[a][s] - (r == a) * g[b][s]) for s in range(n)] for r in range(n)]
    return Matrix.from_rows(rows)


def perturbations(data):
    """One perturbation of the datum per hypothesis, each built to break it,
    with coprime denominators 7, 11, 5 and 13, and the message of the
    hypothesis it targets.  With X skewsymmetric, X - j X j is skewsymmetric
    and commutes with j, and X + j X j is skewsymmetric and anticommutes
    with j (j is skewsymmetric and j^2 = -1):

    - D + I/7 is not skewsymmetric; [F + J D, J] and F D - D F do not move;
    - F + (X - j X j) for an X with denominator 11 that makes it no
      derivation of a nonabelian base;
    - F + (X + j X j), X with denominator 5, does not commute with j; in
      dimension 2 no skewsymmetric map anticommutes with j, and X is an
      elementary matrix there;
    - s0 + e_k/13 for a noncentral e_k of a nonabelian base;
    - F + Y and D + j Y for that X + j X j = Y: F + j D stays and
      F D - D F moves, which also exercises the scale of j.

    On an abelian base every map is a derivation and ad(s0) = 0, so the
    second and fourth are left out."""
    base, d, f, s0 = data.base, data.d, data.f, data.s0
    n, g, j, c = base.dim, entries(base.phi), base.j, structure_tensor(base.algebra)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    out = [((base, d + Matrix.identity(n).scale(Fraction(1, 7)), f, s0), "D is not skewsymmetric for the base metric")]
    if any(any(any(row) for row in plane) for plane in c):
        commuting = (skew_rank_two(g, a, b, Fraction(1, 11)) for a, b in pairs)
        x = next(y for y in (x - j @ x @ j for x in commuting) if not naive_derivation(c, entries(f + y)))
        out.append(((base, d, f + x, s0), "F is not a derivation of the base"))
        k = next(k for k in range(n) if any(any(v) for v in c[k]))
        moved = tuple(v + Fraction(1, 13) * (i == k) for i, v in enumerate(s0))
        out.append(((base, d, f, moved), "ad(s0) != F D - D F"))
    candidates = [skew_rank_two(g, a, b, Fraction(1, 5)) for a, b in pairs]
    candidates += [elementary(n, a, b, Fraction(1, 5)) for a in range(n) for b in range(n)]
    y = next(y for y in (x + j @ x @ j for x in candidates) if any(y.entries))
    out.append(((base, d, f + y, s0), "[F + J D, J] != 0"))
    out.append(((base, d + j @ y, f + y, s0), "ad(s0) != F D - D F"))
    return out


def inner_pair(data):
    """On a base that is not two-step nilpotent, F = ad(e_a)/3, D = 2 ad(e_b)/5
    and s0 = 2 [e_a, e_b]/15 for a pair with [e_a, e_b] not central: F and D
    are skewsymmetric derivations and F D - D F = ad(s0) != 0, so the
    identity holds with both sides nonzero; None on other bases."""
    base = data.base
    n, c = base.dim, structure_tensor(base.algebra)
    units = [list(unit(n, i)) for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    noncentral = [(a, b) for a, b in pairs if any(any(naive_bracket(c, c[a][b], u)) for u in units)]
    if not noncentral:
        return None
    a, b = noncentral[0]
    f = Matrix.from_cols([c[a][k] for k in range(n)]).scale(Fraction(1, 3))
    d = Matrix.from_cols([c[b][k] for k in range(n)]).scale(Fraction(2, 5))
    return base, d, f, tuple(Fraction(2, 15) * v for v in c[a][b])


class TestExtensionDataAgainstOracle:
    # every plane step of three dense transports of each catalog label, whose
    # bases are all abelian, and of the sum L(4,2) + L(2,4), whose first
    # plane step has a nonabelian base
    DATA = [
        step.extension_data
        for seed in range(3)
        for p in [build(name) for name in ALL_LABELS] + [direct_sum(build("L(4,2)"), build("L(2,4)"))]
        for step in full_reduction(PHQAlgebra(*transported(p, random.Random(seed)))).steps
        if step.kind == "plane_reduction"
    ]

    def test_failures_match_the_oracle(self):
        # the report, failure by failure and in order
        seen = set()
        for data in self.DATA:
            inner = [(pair, None)] if (pair := inner_pair(data)) else []
            for (base, d, f, s0), target in [((data.base, data.d, data.f, data.s0), None), *perturbations(data), *inner]:
                expected = naive_extension_failures(base, d, f, s0)
                assert validate_extension_data(base, d, f, s0).failures == expected
                if target is not None:
                    assert target in expected
                seen.update(expected)
        assert len(self.DATA) == 30
        assert seen == {
            "D is not skewsymmetric for the base metric",
            "D is not a derivation of the base",
            "F is not skewsymmetric for the base metric",
            "F is not a derivation of the base",
            "[F + J D, J] != 0",
            "ad(s0) != F D - D F",
        }

"""Named algebras, the dimension-at-most-8 classifier, and witness checks.

Labels are orthogonal-sum decompositions into the six indecomposable models:

    R(p,q)        abelian with a metric of signature (p, q), p and q even
    L(4,2)        the six-dimensional three-step algebra with signature (4,2)
    L(2,4)        the same algebra with the metric negated
    Tstar0K       the untwisted cotangent extension of the Kodaira-Thurston
                  algebra (two-step, derived ideal totally isotropic)
    TstarTheta3K  the cotangent extension twisted by the third basis cocycle

Classification keys on the exact invariant fingerprint, which separates all
cases up to dimension 8; no general isomorphism search is performed.  The
builders of `constructions` and `reduction.full_reduction` are read at call
time, so classifying an algebra never runs `constructions`.
"""

from __future__ import annotations

import re
from functools import reduce

from . import constructions, fileformat, reduction
from .checks import Check, PhqError, Record
from .lie import _CHUNK, LieAlgebra, LinearMap, _mapped
from .linalg import Matrix, _transpose, mat_mul, mat_vec
from .structures import Fingerprint, PHQAlgebra, check_phq, fingerprint


class UnknownLabel(PhqError, ValueError):
    pass


class DimensionTooLarge(PhqError, ValueError):
    pass


class UnclassifiedFingerprint(PhqError, ValueError):
    pass


_ATOM_ORDER = {"L": 0, "T": 1, "R": 2}
# p and q in ASCII decimal without leading zeros, as `fileformat._INDEX`: one spelling per label
_R_ATOM = re.compile(r"R\((0|[1-9][0-9]*),(0|[1-9][0-9]*)\)")
# the builder of each model but R(p,q), whose factors `_signature` reads;
# each looks its function up when called, so a patched or traced one runs
_MODELS = {
    "L(4,2)": lambda: lorentz_core(True),
    "L(2,4)": lambda: lorentz_core(False),
    "Tstar0K": lambda: tstar_kodaira(),
    "TstarTheta3K": lambda: tstar_kodaira(constructions.kodaira_cocycle_basis()[2]),
}


def _signature(atom: str) -> tuple[int, int]:
    """(p, q) of an abelian factor ``R(p,q)``; any other text, an entry of
    more than `_CHUNK` digits, and a signature that is odd or zero, raise
    `UnknownLabel`."""
    m = _R_ATOM.fullmatch(atom)
    if not m:
        raise UnknownLabel(f"unknown factor {atom!r}")
    if max(map(len, m.groups())) > _CHUNK:
        raise UnknownLabel(f"abelian factor has a signature entry of more than {_CHUNK} digits")
    p, q = int(m.group(1)), int(m.group(2))
    if p % 2 or q % 2 or p == q == 0:
        raise UnknownLabel(f"abelian factor needs even nonzero signature: {atom}")
    return p, q


class CatalogLabel(Record):
    """Canonical (sorted) list of indecomposable factors."""

    factors: tuple[str, ...]

    def __post_init__(self):
        if not self.factors:
            raise UnknownLabel("a label needs at least one factor")
        for atom in self.factors:
            if atom not in _MODELS:
                _signature(atom)
        ordered = tuple(sorted(self.factors, key=lambda a: (_ATOM_ORDER[a[0]], a)))
        object.__setattr__(self, "factors", ordered)

    def __str__(self) -> str:
        return "+".join(self.factors)

    @classmethod
    def parse(cls, text: str) -> "CatalogLabel":
        return cls(tuple(part.strip() for part in text.split("+")))


def label(*factors: str) -> CatalogLabel:
    return CatalogLabel(tuple(factors))


def abelian_with_signature(p: int, q: int) -> PHQAlgebra:
    """Abelian algebra of dimension p+q, metric diag(+1 x p, -1 x q), with
    the block rotation complex structure on consecutive pairs."""
    if p % 2 or q % 2 or (p == 0 and q == 0):
        raise UnknownLabel(f"signature ({p},{q}) must have even nonzero entries")
    if p + q > fileformat.MAX_DIM:
        raise DimensionTooLarge(f"dimension {p + q} is above the limit {fileformat.MAX_DIM}")
    phi = Matrix.diagonal([1] * p + [-1] * q)
    return PHQAlgebra(LieAlgebra.abelian(p + q), constructions.block_rotation(p + q), phi)


def lorentz_core(positive: bool = True) -> PHQAlgebra:
    """The six-dimensional three-step model on basis
    (x1, Jx1, x2, Jx2, x3, Jx3):

        [x1, Jx1] = x2,   [x1, x2] = -Jx3,   [Jx1, x2] = x3

    with pairings phi(x1,x3) = phi(Jx1,Jx3) = 1 and phi(x2,x2) =
    phi(Jx2,Jx2) = 1 (all negated when ``positive`` is False).
    """
    names = ("x1", "Jx1", "x2", "Jx2", "x3", "Jx3")
    algebra = LieAlgebra.from_brackets(
        names,
        {
            (0, 1): {2: 1},
            (0, 2): {5: -1},
            (1, 2): {4: 1},
        },
    )
    sign = 1 if positive else -1
    phi = Matrix.from_rows(
        [
            [0, 0, 0, 0, sign, 0],
            [0, 0, 0, 0, 0, sign],
            [0, 0, sign, 0, 0, 0],
            [0, 0, 0, sign, 0, 0],
            [sign, 0, 0, 0, 0, 0],
            [0, sign, 0, 0, 0, 0],
        ]
    )
    return PHQAlgebra(algebra, constructions.block_rotation(6), phi)


def tstar_kodaira(theta: constructions.Cocycle | None = None) -> PHQAlgebra:
    """Cotangent extension of the Kodaira-Thurston carrier by ``theta``."""
    theta = theta if theta is not None else constructions.Cocycle.zero(4)
    return constructions.tstar_extension(*constructions.kodaira_thurston(), theta)


def build(lab: CatalogLabel | str) -> PHQAlgebra:
    """The exact model algebra for a label (factors summed in canonical
    order), whose dimension (6 for an L model, 8 for a T model) is bounded
    by `fileformat.MAX_DIM` before any factor is built."""
    if isinstance(lab, str):
        lab = CatalogLabel.parse(lab)
    dim = sum(sum(_signature(a)) if a[0] == "R" else 6 if a[0] == "L" else 8 for a in lab.factors)
    if dim > fileformat.MAX_DIM:
        raise DimensionTooLarge(f"dimension {dim} is above the limit {fileformat.MAX_DIM}")
    return reduce(
        constructions.direct_sum,
        (_MODELS[a]() if a in _MODELS else abelian_with_signature(*_signature(a)) for a in lab.factors),
    )


# Fingerprint rows of every non-abelian case in dimension at most 8, keyed by
# (dim, dim derived, dim center, nilpotency index, sig phi, sig phi|derived).
_FINGERPRINT_TABLE: dict[tuple, str] = {
    (6, 3, 3, 3, (4, 2), (1, 0)): "L(4,2)",
    (6, 3, 3, 3, (2, 4), (0, 1)): "L(2,4)",
    (8, 3, 5, 2, (4, 4), (0, 0)): "Tstar0K",
    (8, 5, 3, 3, (4, 4), (1, 1)): "TstarTheta3K",
    (8, 3, 5, 3, (2, 6), (0, 1)): "L(2,4)+R(0,2)",
    (8, 3, 5, 3, (4, 4), (0, 1)): "L(2,4)+R(2,0)",
    (8, 3, 5, 3, (4, 4), (1, 0)): "L(4,2)+R(0,2)",
    (8, 3, 5, 3, (6, 2), (1, 0)): "L(4,2)+R(2,0)",
}


class Classification(Record):
    label: CatalogLabel
    fingerprint: Fingerprint
    reduction: reduction.ReductionResult


def classify(p: PHQAlgebra) -> Classification:
    """Identify a valid nilpotent input of dimension at most 8.

    Abelian inputs are labeled by their metric signature.  Everything else is
    matched against the exact fingerprint table; a miss means the input is
    outside the classified range (or invalid) and raises
    UnclassifiedFingerprint.
    """
    if p.dim > 8:
        raise DimensionTooLarge(f"classification covers dimension <= 8, got {p.dim}")
    if p.dim == 0:
        raise UnclassifiedFingerprint("the zero algebra (dimension 0) has no label")
    if not check_phq(p).ok:
        raise UnclassifiedFingerprint("input fails the structure axioms")
    fp = fingerprint(p)
    if fp.nilpotency_index is None:
        raise UnclassifiedFingerprint("input is not nilpotent")
    steps = reduction.full_reduction(p)
    if fp.dim_derived == 0:
        pq = fp.sig_phi
        return Classification(label(f"R({pq[0]},{pq[1]})"), fp, steps)
    name = _FINGERPRINT_TABLE.get(fp.as_tuple())
    if name is None:
        raise UnclassifiedFingerprint(f"no classification row matches {fp.as_tuple()}")
    return Classification(CatalogLabel.parse(name), fp, steps)


def verify_witness(a: PHQAlgebra, b: PHQAlgebra, w: LinearMap) -> Check:
    """Check that w is an invertible map a -> b (columns in b's coordinates)
    intertwining brackets, the complex structures, and the metrics, as
    integer identities on the ``_scaled`` forms, W = d_w w and so on:
    d_ja J_b W = d_jb W J_a, d_ga W^T G_b W = d_w^2 d_gb G_a and, for i < k,
    d_w d_tb W T_a(e_i, e_k) = d_ta T_b(W e_i, W e_k) (`lie._mapped`)."""
    n = a.dim
    if n != b.dim:
        return Check("witness", ("dimensions differ",))
    if w.rows != n or w.cols != n:
        return Check("witness", ("witness matrix has the wrong shape",))
    failures = [] if w.rank() == n else ["witness is not invertible"]
    (dw, wn), (dja, ja), (djb, jb) = w._scaled, a.j._scaled, b.j._scaled
    if [djb * x for x in mat_mul(wn, n, n, ja, n)] != [dja * x for x in mat_mul(jb, n, n, wn, n)]:
        failures.append("witness does not intertwine the complex structures")
    (dga, ga), (dgb, gb) = a.phi._scaled, b.phi._scaled
    pulled = mat_mul(_transpose(wn, n), n, n, mat_mul(gb, n, n, wn, n), n)
    if [dga * x for x in pulled] != [dw * dw * dgb * x for x in ga]:
        failures.append("witness is not an isometry")
    (dta, ta), dtb, names = a.algebra._scaled, b.algebra._scaled[0], a.basis_names
    for (i, k), bracket in _mapped(b.algebra, wn).items():
        image = mat_vec(wn, n, n, ta.get((i, k), {}).items(), 0)
        if any(dw * dtb * x != dta * y for x, y in zip(image, bracket)):
            failures.append(f"witness does not intertwine the bracket at ({names[i]}, {names[k]})")
    return Check("witness", tuple(failures))


# Field order used to report a separating invariant: dimension and signature
# first, then the center, mirroring how the inequivalences are usually argued.
_EVIDENCE_FIELDS = (
    "dim",
    "sig_phi",
    "dim_center",
    "nilpotency_index",
    "dim_derived",
    "sig_phi_on_derived",
)


class InequivalenceEvidence(Record):
    field: str | None
    value_a: object = None
    value_b: object = None

    @property
    def separated(self) -> bool:
        return self.field is not None

    def describe(self) -> str:
        if not self.separated:
            # Equal fingerprints do not prove equivalence; say so explicitly.
            return (
                "no invariant separation: all fingerprint fields agree "
                "(this does not prove the algebras are equivalent)"
            )
        return f"differ at {self.field}: {self.value_a} vs {self.value_b}"


def inequivalence_evidence(a: PHQAlgebra, b: PHQAlgebra) -> InequivalenceEvidence:
    """First fingerprint field (in the documented order) where a and b differ."""
    fa, fb = fingerprint(a), fingerprint(b)
    for name in _EVIDENCE_FIELDS:
        va, vb = getattr(fa, name), getattr(fb, name)
        if va != vb:
            return InequivalenceEvidence(name, va, vb)
    return InequivalenceEvidence(None)

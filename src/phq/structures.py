"""Complex structures, invariant metrics, and their compatibility checks.

The central object is `PHQAlgebra`: a Lie algebra together with a complex
structure ``j`` (square matrix with j^2 = -I and vanishing torsion) and a
metric ``phi`` (symmetric, nondegenerate, ad-invariant) satisfying the
compatibility phi(jx, jy) = phi(x, y).  `fingerprint` collects the exact
invariants used by the classifier.

Every axiom sweep, `lie.check_jacobi` and the checks here, is one pass over
the nonzeros of the integers the table, j and phi keep, T = d_t [ , ],
J = d_j j and G = d_g phi; a failure prints the exact Fraction residual,
the integer residual the sweep holds divided back once.  So is
`validate_extension_data`, the check of the datum `ExtensionData` (D, F, s0)
that a plane double extension builds from and a reduction step reads back.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Sequence

from .checks import Check, PhqError, Record, Report
from .lie import LieAlgebra, LinearMap, check_jacobi, format_vector
from .lie import _ad_matrix, _derivation_failures, _mapped, _twisted
from .linalg import (
    DimensionMismatch,
    Matrix,
    Vector,
    _gram_int,
    _skew,
    _transpose,
    add_vec,
    bilinear,
    dense,
    dot,
    eliminate,
    mat_mul,
    mat_vec,
    scaled,
    signature,
    sub_vec,
    vector,
)


class OddDimension(PhqError, ValueError):
    """Complex structures require even dimension."""


def nijenhuis(algebra: LieAlgebra, j: LinearMap, x: Sequence, y: Sequence) -> Vector:
    """Torsion [x,y] + j[jx,y] + j[x,jy] - [jx,jy] of a candidate j, on
    Fractions; no check calls it."""
    n = algebra.dim
    if j.rows != n or j.cols != n:
        raise DimensionMismatch("j must be square of the algebra dimension")
    xv, yv = vector(x), vector(y)
    jx, jy = j.apply(xv), j.apply(yv)
    t = algebra.brackets
    # j is linear, so j[jx,y] + j[x,jy] is one application of j
    twisted = j.apply(add_vec(bilinear(t, jx, yv), bilinear(t, xv, jy)))
    out = add_vec(bilinear(t, xv, yv), twisted)
    return sub_vec(out, bilinear(t, jx, jy))


def check_complex(algebra: LieAlgebra, j: LinearMap) -> Report:
    """Verify j^2 = -I and vanishing torsion on all basis pairs.

    Raises OddDimension for odd-dimensional algebras.  On J and T, j^2 = -I
    is J^2 = -d_j^2 I.  With U[a][b] = T(J e_a, e_b) = sum_r J_ra T(e_r, e_b),
    built once by `lie._twisted` from the columns J e_a, and
    T(e_a, J e_b) = -U[b][a], the torsion is d_j^2 d_t N(e_a, e_b) =
    d_j^2 T(e_a, e_b) + J (U[a][b] - U[b][a]) - sum_s J_sb U[a][s], so the
    sweep costs O(n^4) on a dense j; a failing pair divides it by d_j^2 d_t.
    """
    n = algebra.dim
    if n % 2 == 1:
        raise OddDimension(f"complex structure on odd dimension {n}")
    if j.rows != n or j.cols != n:
        raise DimensionMismatch("j must be square of the algebra dimension")
    names = algebra.basis_names
    dj, jn = j._scaled
    square_fail = []
    if mat_mul(jn, n, n, jn, n) != [-dj * dj if r == c else 0 for r in range(n) for c in range(n)]:
        square_fail.append("j^2 != -I")

    dt, t = algebra._scaled
    jcols = [[(s, v) for s, v in enumerate(jn[b::n]) if v] for b in range(n)]
    u, zero = _twisted(algebra, [jn[a::n] for a in range(n)]), [0] * n
    torsion_fail = []
    for a in range(n):
        for b in range(a + 1, n):
            residual = [0] * n
            for k, c in t.get((a, b), {}).items():
                residual[k] = dj * dj * c
            for k, x in enumerate(map(sub, u.get((a, b), zero), u.get((b, a), zero))):
                for s, v in jcols[k] if x else ():
                    residual[s] += v * x
            for s, v in jcols[b]:
                if (a, s) in u:
                    residual = [x - v * y for x, y in zip(residual, u[a, s])]
            if any(residual):
                nab = [Fraction(x, dj * dj * dt) for x in residual]
                torsion_fail.append(f"N({names[a]}, {names[b]}) = {format_vector(nab, names)}")
    return Report((Check("J^2", tuple(square_fail)), Check("Nijenhuis", tuple(torsion_fail))))


def check_quadratic(algebra: LieAlgebra, g: Matrix) -> Report:
    """Verify that g is a symmetric, nondegenerate, ad-invariant pairing.

    Ad-invariance means phi([x,y], z) + phi(y, [x,z]) = 0 with phi(x, y) =
    `PHQAlgebra.pairing`, also when g is not symmetric.  Symmetry and the
    rank (`Matrix.rank`) are read off G = d_g g.  The ad-invariance sweep
    builds g ad(e_i) + ad(e_i)^T g from the table pairs that contain i.
    """
    n = algebra.dim
    if g.rows != n or g.cols != n:
        raise DimensionMismatch("metric must be square of the algebra dimension")
    names = algebra.basis_names

    # on G = dg * g, which has the symmetry of g
    gn = g._scaled[1]
    gtn = _transpose(gn, n)
    sym_fail = [] if gn == gtn else ["phi is not symmetric"]
    rank = g.rank()
    nondeg_fail = [] if rank == n else [f"phi is degenerate (rank {rank} < {n})"]

    # phi([ei,ej], ek) + phi(ej, [ei,ek]) is entry (k, j) of
    # g ad(ei) + ad(ei)^T g, kept at skew[i][j * n + k] and scaled by dg * dt.
    t = algebra._scaled[1]
    skew = [[0] * (n * n) for _ in range(n)]
    for (a, b), col in t.items():
        left, right = mat_vec(gn, n, n, col.items(), 0), mat_vec(gtn, n, n, col.items(), 0)
        for i, e, sign in ((a, b, 1), (b, a, -1)):  # [ei, ee] = sign * [ea, eb]
            row = skew[i]
            for k in range(n):
                if left[k]:
                    row[e * n + k] += sign * left[k]
                if right[k]:
                    row[k * n + e] += sign * right[k]
    inv_fail = [
        f"ad-invariance fails on ({names[i]}, {names[jk // n]}, {names[jk % n]})"
        for i, row in enumerate(skew)
        for jk, v in enumerate(row)
        if v
    ]
    return Report(
        (
            Check("symmetric", tuple(sym_fail)),
            Check("nondegenerate", tuple(nondeg_fail)),
            Check("ad-invariant", tuple(inv_fail)),
        )
    )


class PHQAlgebra(Record):
    """A Lie algebra with a compatible complex structure and invariant
    metric; ``j`` and ``phi`` are dense `Matrix` values."""

    algebra: LieAlgebra
    j: LinearMap
    phi: Matrix

    def __post_init__(self):
        n = self.algebra.dim
        for name, m in (("j", self.j), ("phi", self.phi)):
            if m.rows != n or m.cols != n:
                raise DimensionMismatch(f"{name} must be {n}x{n}")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def basis_names(self) -> tuple[str, ...]:
        return self.algebra.basis_names

    def pairing(self, x: Sequence, y: Sequence) -> "Fraction":
        return dot(self.phi.apply(vector(x)), vector(y))


def check_phq(p: PHQAlgebra) -> Report:
    """All axioms at once: Jacobi, complex structure, metric, compatibility.

    Compatibility is checked on J = d_j j and G = d_g phi, both as the
    integer product J^T G J = d_j^2 G and in the equivalent skew form
    J^T G + G J = 0 (`linalg._skew`).
    """
    jac = check_jacobi(p.algebra)
    try:
        complex_parts = check_complex(p.algebra, p.j).parts
    except OddDimension:
        complex_parts = (
            Check("J^2", ("odd dimension admits no complex structure",)),
            Check("Nijenhuis"),
        )
    quad = check_quadratic(p.algebra, p.phi)

    n = p.dim
    dj, jn = p.j._scaled
    gn = p.phi._scaled[1]
    compat_fail = []
    gj = mat_mul(gn, n, n, jn, n)
    if mat_mul(_transpose(jn, n), n, n, gj, n) != [dj * dj * x for x in gn]:
        compat_fail.append("phi(jx, jy) != phi(x, y)")
    if not _skew(jn, gn, n):
        compat_fail.append("j is not phi-skewsymmetric")
    return Report((jac, *complex_parts, *quad.parts, Check("J-compatible", tuple(compat_fail))))


class InvalidExtensionData(PhqError, ValueError):
    def __init__(self, report: Check):
        super().__init__("; ".join(report.failures))
        self.report = report


def validate_extension_data(base: PHQAlgebra, d: LinearMap, f: LinearMap, s0: Sequence) -> Check:
    """All hypotheses for the plane double extension, as a report.

    Checks: d and f are phi-skewsymmetric derivations, f + j d commutes with
    j, and the adjoint of s0 equals the commutator f d - d f entrywise.

    Each is an integer identity on the base's T, J and G (as every sweep
    here); d, f and s0 are scaled by their one common denominator c:
    D = c d, F = c f and S = c s0.  Then D^T G + G D = 0 and the derivation
    identity of D on T (`lie._derivation_failures`), and the same for F;
    [d_j F + J D, J] = 0, which is c d_j [f + j d, j]; and
    c ad(S) = d_t (F D - D F), with ad(S) read off T by `lie._ad_matrix`.
    """
    s0v, n = vector(s0), base.dim
    if len(s0v) != n or d.rows != n or d.cols != n or f.rows != n or f.cols != n:
        return Check("extension data", ("shape mismatch with the base algebra",))
    dt, (dj, jn), g = base.algebra._scaled[0], base.j._scaled, base.phi._scaled[1]
    c, dfs = scaled(d.entries + f.entries + s0v)
    dn, fn, sn = dfs[: n * n], dfs[n * n : 2 * n * n], dfs[2 * n * n :]
    failures = []
    for name, m in (("D", dn), ("F", fn)):
        if not _skew(m, g, n):
            failures.append(f"{name} is not skewsymmetric for the base metric")
        if _derivation_failures(base.algebra, m):
            failures.append(f"{name} is not a derivation of the base")
    a = [dj * x + y for x, y in zip(fn, mat_mul(jn, n, n, dn, n))]
    if mat_mul(a, n, n, jn, n) != mat_mul(jn, n, n, a, n):
        failures.append("[F + J D, J] != 0")
    fd, dfm = mat_mul(fn, n, n, dn, n), mat_mul(dn, n, n, fn, n)
    if any(c * x != dt * (p - q) for x, p, q in zip(_ad_matrix(base.algebra, sn), fd, dfm)):
        failures.append("ad(s0) != F D - D F")
    return Check("extension data", tuple(failures))


class ExtensionData(Record):
    """Input of the plane double extension; `validate_extension_data`
    checks it on construction."""

    base: PHQAlgebra
    d: LinearMap
    f: LinearMap
    s0: Vector

    def __post_init__(self):
        object.__setattr__(self, "s0", vector(self.s0))
        report = validate_extension_data(self.base, self.d, self.f, self.s0)
        if not report.ok:
            raise InvalidExtensionData(report)


class JClassification(Record):
    abelian: bool
    bi_invariant: bool

    @property
    def label(self) -> str:
        if self.abelian and self.bi_invariant:
            return "abelian,bi_invariant"
        if self.abelian:
            return "abelian"
        if self.bi_invariant:
            return "bi_invariant"
        return "generic"


def j_class(algebra: LieAlgebra, j: LinearMap) -> JClassification:
    """Test [jx,jy] = [x,y] (abelian) and [jx,y] = j[x,y] (bi-invariant)
    on all ordered basis pairs; for j^2 = -I both can hold together only on
    abelian algebras.  On T and J = d_j j (``_scaled``) they are
    T(J e_a, J e_b) = d_j^2 T(e_a, e_b) (`lie._mapped`, on the pairs a < b,
    which antisymmetry extends) and T(J e_a, e_b) = J T(e_a, e_b)
    (`lie._twisted`, and J applied to the ``_columns``)."""
    n = algebra.dim
    if j.rows != n or j.cols != n:
        raise DimensionMismatch("j must be square of the algebra dimension")
    (dj, jn), t, zero = j._scaled, algebra._scaled[1], [0] * n
    v, u = _mapped(algebra, jn), _twisted(algebra, [jn[a::n] for a in range(n)])
    jt = {(a, b): mat_vec(jn, n, n, image, 0) for b, col in enumerate(algebra._columns) for a, image in col}
    return JClassification(
        all(x == tuple(dj * dj * c for c in dense(t.get(pair, {}), n, 0)) for pair, x in v.items()),
        all(u.get(pair, zero) == jt.get(pair, zero) for pair in {*u, *jt}),
    )


class Fingerprint(Record):
    """Isomorphism invariants used for the small-dimension classification."""

    dim: int
    dim_derived: int
    dim_center: int
    nilpotency_index: int | None
    sig_phi: tuple[int, int]
    sig_phi_on_derived: tuple[int, int]

    def as_tuple(self):
        return self._key()

    def table_row(self) -> str:
        """The five classification-table columns, pipe-separated."""
        return (
            f"{self.dim} | {self.dim_derived} | ({self.sig_phi[0]},{self.sig_phi[1]}) | "
            f"({self.sig_phi_on_derived[0]},{self.sig_phi_on_derived[1]}) | "
            f"{self.nilpotency_index if self.nilpotency_index is not None else 'not nilpotent'}"
        )


def fingerprint(p: PHQAlgebra) -> Fingerprint:
    """Exact invariants: dimensions, nilpotency index, both signatures.

    The metric restricted to the derived ideal is evaluated on the ideal's
    canonical echelon basis; signatures are congruence invariants, so the
    basis choice does not matter.  The restricted form may be degenerate, in
    which case the (p, q) counts sum to less than the ideal's dimension.
    """
    derived = p.algebra.derived_ideal()
    return Fingerprint(
        dim=p.dim,
        dim_derived=derived.dim,
        dim_center=p.algebra.center().dim,
        nilpotency_index=p.algebra.nilpotency_index(),
        sig_phi=signature(p.phi),
        sig_phi_on_derived=signature(_gram_int(p.dim, *p.phi._scaled, derived._scaled)),
    )


def salamon_check(p: PHQAlgebra) -> Check:
    """For nilpotent input, verify dim([g,g] + j[g,g]) < dim(g): the rank of
    the integer vectors x and J x, J = ``j._scaled``, for the integer rows x
    that the derived ideal keeps."""
    n, jn = p.dim, p.j._scaled[1]
    xs = [x for _, x in p.algebra.derived_ideal()._scaled]
    dim = len(eliminate([*xs, *(mat_vec(jn, n, n, enumerate(x), 0) for x in xs)], n)[1])
    failures = (f"[g,g] + j[g,g] has full dimension {dim}",) if dim == n else ()
    return Check("derived + j(derived) is proper", failures)

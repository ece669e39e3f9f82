"""Inverse procedures: peel definite planes and hyperbolic plane pairs.

A nilpotent algebra with a compatible complex structure and invariant metric
always has a nonzero intersection W of its center with the image of the
center under j.  A vector of W inside the derived ideal drives the inverse
of the plane double extension (`reduce_by_plane`); a vector of nonzero norm
drives an orthogonal split (`split_plane`).  `full_reduction` iterates to an
abelian residue.  `analyze_skew_pair` normalizes a nilpotent skewsymmetric
pair on a neutral four-dimensional base into its adapted form.

Each inverse step computes over int on the integers that the bracket
table, j and phi keep, and makes each Fraction of its result once, at the
end.  A recovered base is scaled once, when `ExtensionData` validates the
data a plane step read off (independently of how the step computed it), and
the next step reads the same integers.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .checks import PhqError, Record
from .constructions import ExtensionData, validate_extension_data
from .lie import LieAlgebra, _twisted, format_vector
from .linalg import (
    ZERO,
    DimensionMismatch,
    Matrix,
    Scaled,
    Subspace,
    Vector,
    _complement_int,
    _gram_int,
    _solve_int,
    add_vec,
    bilinear,
    intersect,
    is_zero_vec,
    kernel,
    map_image,
    mat_vec,
    scaled,
    signature,
    vector,
    zero_vector,
)
from .structures import PHQAlgebra


def _span_text(vectors: Sequence[Vector], names: Sequence[str]) -> str:
    """``span(v, ...)`` in basis names, or ``0``; a coefficient too long to
    print shows as ``<long>`` (`format_vector`)."""
    return f"span({', '.join(format_vector(v, names) for v in vectors)})" if vectors else "0"


class EmptyIntersection(PhqError, ValueError):
    """W = center ∩ j(center) is zero, so the input is not nilpotent; carries
    W as ``subspace`` and the ``center``."""

    def __init__(self, subspace: Subspace, center: Subspace, names: Sequence[str]):
        super().__init__(
            f"W = center ∩ j(center) is zero, with center = {_span_text(center.basis, names)}; "
            "input is outside the nilpotent case"
        )
        self.subspace = subspace
        self.center = center


class ReductionStuck(PhqError, RuntimeError):
    """Central j-pair exists but is neither of nonzero norm nor in the
    derived ideal; outside the guaranteed cases.  Carries W = center ∩
    j(center) as ``subspace`` and the ``candidates`` tried for z."""

    def __init__(self, subspace: Subspace, candidates: Sequence[Vector], names: Sequence[str]):
        super().__init__(
            f"all candidates in W = center ∩ j(center) = {_span_text(subspace.basis, names)} are "
            "isotropic but none lies in the derived ideal; tried "
            + ", ".join(format_vector(z, names) for z in candidates)
        )
        self.subspace = subspace
        self.candidates = tuple(candidates)


class InvalidCentralElement(PhqError, ValueError):
    pass


class NonIsotropic(PhqError, ValueError):
    pass


class NotDefinitePlane(PhqError, ValueError):
    pass


class HypothesisViolated(PhqError, ValueError):
    pass


class CentralPair(Record):
    """Witness of the dichotomy: W = center ∩ j(center) plus the chosen z."""

    subspace: Subspace
    z: Vector
    in_derived: bool  # True: z isotropic in the derived ideal; False: norm != 0


def find_central_pair(p: PHQAlgebra) -> CentralPair:
    """W = center ∩ j(center), plus a deterministic choice of z in W.

    Preference order: the first echelon basis vector of W ∩ derived (such a z
    is automatically isotropic); otherwise the first vector of nonzero norm
    among the echelon basis of W and then pairwise sums of it.  A nonempty W
    is guaranteed for nilpotent input; anything else raises.
    """
    center = p.algebra.center()
    w = intersect(center, map_image(p.j, center))
    if w.dim == 0:
        raise EmptyIntersection(w, center, p.basis_names)
    in_derived = intersect(w, p.algebra.derived_ideal())
    if in_derived.dim > 0:
        return CentralPair(w, in_derived.basis[0], True)
    candidates = list(w.basis)
    candidates += [add_vec(u, v) for i, u in enumerate(w.basis) for v in w.basis[i + 1 :]]
    for z in candidates:
        if _norm(p, scaled(z)) != 0:
            return CentralPair(w, z, False)
    raise ReductionStuck(w, candidates, p.basis_names)


# The helpers below take and give `Scaled` pairs, or integers where only a
# sign or a zero test needs them, on T = d * brackets, J = dj * j, G = dg * phi.


def _vec(p: PHQAlgebra, v: Sequence) -> Scaled:
    v = vector(v)
    if len(v) != p.dim:
        raise DimensionMismatch("vector must match the algebra dimension")
    return scaled(v)


def _jmap(p: PHQAlgebra, x: Scaled) -> Scaled:
    dj, jn = p.j._scaled
    return dj * x[0], mat_vec(jn, p.dim, p.dim, enumerate(x[1]), 0)


def _norm(p: PHQAlgebra, x: Scaled) -> int:
    """dg * s^2 * phi(x, x), of the sign of phi(x, x)."""
    return sum(map(mul, x[1], mat_vec(p.phi._scaled[1], p.dim, p.dim, enumerate(x[1]), 0)))


def _central(p: PHQAlgebra, x: Scaled) -> bool:
    """ad(x) = 0, tested on the integer columns of ad(x) that `_twisted`
    reads off T; the center is never built."""
    return not any(map(any, _twisted(p.algebra, [x[1]]).values()))


def _unscaled(x: Scaled) -> Vector:
    """The Fraction vector of a `Scaled` pair."""
    return tuple(Fraction(a, x[0]) for a in x[1])


def _coords(n: int, frame: Sequence[Scaled], images: Sequence[Scaled], error: Exception) -> list[Vector]:
    """Coordinates of the ``images`` in the independent columns ``frame`` of
    an n-dimensional space, all `Scaled` pairs, from one integer solve of
    [frame | images]: x_c = y_c * s_c / den for the scale s_c of column c and
    the scale den of an image.  Raises ``error`` if any image leaves the
    span of the frame.  `_restrict` and `analyze_skew_pair` share it."""
    rows = [[x[i] for _, x in frame] + [y[i] for _, y in images] for i in range(n)]
    xs = _solve_int(rows, [s for s, _ in frame], [den for den, _ in images])
    if xs is None:
        raise error
    return xs


def _isotropic_dual(p: PHQAlgebra, z: Scaled, zp: Scaled, error: Exception) -> Vector:
    """An isotropic v with phi(z, v) = 1 and phi(zp, v) = 0, for an isotropic
    z orthogonal to zp: the minimal-support solution v0 of the two linear
    conditions, moved along z until it is isotropic, v0 - phi(v0, v0) / 2 z,
    with each entry made once over the common denominator.  Raises ``error``
    if the conditions are inconsistent.  `reduce_by_plane` and
    `analyze_skew_pair` share it."""
    n = p.dim
    dg, g = p.phi._scaled
    # for the `Scaled` pair (s, x) of a vector u, G x is dg * s * phi(u, .)
    rows = [mat_vec(g, n, n, enumerate(x), 0) + [e] for x, e in ((z[1], dg * z[0]), (zp[1], 0))]
    xs = _solve_int(rows, [1] * n, [1])
    if xs is None:
        raise error
    s, x = scaled(xs[0])
    q = _norm(p, (s, x))  # dg s^2 phi(v0, v0)
    sz, zn = z
    return tuple(Fraction(2 * dg * s * sz * a - q * b, 2 * dg * s * s * sz) for a, b in zip(x, zn))


def _restrict(
    p: PHQAlgebra,
    basis: Sequence[Scaled],
    drop: Sequence[Scaled] = (),
    extra: Sequence[tuple[Scaled, Scaled]] = (),
) -> tuple[PHQAlgebra, list[Vector]]:
    """Restriction of brackets, j and phi to the span of ``basis``.

    One integer frame solve in (drop..., basis...) gives the coordinates of
    the images under j of the basis vectors, of their brackets and of the
    brackets of the ``extra`` pairs.  Components along ``drop`` are
    discarded, but j must keep the span of ``basis``.  The metric is the
    Gram block B^T g B on integers.  Returns the restriction and the
    ``basis`` coordinates of the ``extra`` brackets.
    """
    m, k = len(basis), len(drop)
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    d, t = p.algebra._scaled
    images = [_jmap(p, x) for x in basis]
    images += [
        (d * x[0] * y[0], bilinear(t, x[1], y[1], skew=True, zero=0))
        for x, y in [(basis[a], basis[b]) for a, b in pairs] + list(extra)
    ]
    coords = _coords(
        p.dim,
        [*drop, *basis],
        images,
        InvalidCentralElement("the restriction leaves the frame; the subspace is not invariant"),
    )
    if any(any(c[:k]) for c in coords[:m]):
        raise InvalidCentralElement("j does not keep the restricted subspace")
    coords = [c[k:] for c in coords]
    restricted = PHQAlgebra(
        LieAlgebra(
            tuple(f"b{i + 1}" for i in range(m)),
            {pair: dict(enumerate(c)) for pair, c in zip(pairs, coords[m:])},
        ),
        Matrix.from_cols(coords[:m], rows=m),
        _gram_int(p.dim, *p.phi._scaled, basis),
    )
    return restricted, coords[m + len(pairs) :]


def split_plane(p: PHQAlgebra, z: Vector) -> tuple[PHQAlgebra, int]:
    """Remove the definite j-invariant central plane spanned by z and jz.

    Returns the restriction to the orthogonal complement together with the
    sign of phi(z, z).
    """
    zs = _vec(p, z)
    zps = _jmap(p, zs)
    if not (_central(p, zs) and _central(p, zps)):
        raise InvalidCentralElement("z and jz must be central")
    norm = _norm(p, zs)
    if norm == 0:
        raise NotDefinitePlane("phi(z, z) = 0: the plane of z is not definite")
    complement = _complement_int(p.dim, p.phi._scaled[1], [zs[1], zps[1]]).basis
    return _restrict(p, [scaled(b) for b in complement])[0], (1 if norm > 0 else -1)


class ReductionStep(Record):
    """One inverse step; `adapted_basis` maps re-built coordinates to input
    coordinates (for plane reductions it is the witness of the round trip)."""

    kind: str  # "split_plane" | "plane_reduction"
    z: Vector
    v: Vector | None
    sign: int | None
    recovered: PHQAlgebra
    extension_data: ExtensionData | None
    adapted_basis: Matrix | None


def reduce_by_plane(p: PHQAlgebra, z: Vector) -> ReductionStep:
    """Invert the plane double extension at an isotropic central z.

    Requires z in center ∩ derived with jz central (such z are isotropic
    because the derived ideal is the orthogonal of the center).  Constructs
    the dual vector v with phi(z,v) = 1, phi(jz,v) = 0, corrected to be
    isotropic; the recovered base is the orthogonal of span{z, jz, v, jv},
    and the extension data is read off the brackets with v and jv.
    """
    z = vector(z)
    zs = _vec(p, z)
    if not (_central(p, zs) and p.algebra.derived_ideal().contains(z)):
        raise InvalidCentralElement("z must lie in center ∩ derived")
    zps = _jmap(p, zs)
    if not _central(p, zps):
        raise InvalidCentralElement("jz must be central")
    if _norm(p, zs) != 0:
        raise NonIsotropic("z must be isotropic")

    v = _isotropic_dual(
        p, zs, zps, InvalidCentralElement("no dual vector for z: metric degenerate on the pair")
    )
    vs = scaled(v)
    vps = _jmap(p, vs)

    basis = _complement_int(p.dim, p.phi._scaled[1], [zs[1], zps[1], vs[1], vps[1]]).basis
    m = len(basis)
    bs = [scaled(b) for b in basis]
    # F, D and s0 are the base components of [v, x], [v', x] and [v, v'].
    extra = [(w, b) for w in (vs, vps) for b in bs] + [(vs, vps)]
    base, ext = _restrict(p, bs, drop=(zs, zps), extra=extra)
    data = ExtensionData(
        base,
        Matrix.from_cols(ext[m : 2 * m], rows=m),
        Matrix.from_cols(ext[:m], rows=m),
        ext[2 * m],
    )
    return ReductionStep(
        kind="plane_reduction",
        z=z,
        v=v,
        sign=None,
        recovered=base,
        extension_data=data,
        adapted_basis=Matrix.from_cols([z, _unscaled(zps), *basis, _unscaled(vps), v], rows=p.dim),
    )


class ReductionResult(Record):
    steps: tuple[ReductionStep, ...]
    residue: PHQAlgebra

    def describe(self) -> tuple[str, ...]:
        lines = []
        for i, s in enumerate(self.steps, start=1):
            if s.kind == "split_plane":
                lines.append(
                    f"step {i}: split_plane sign={'+' if s.sign > 0 else '-'} -> dim {s.recovered.dim}"
                )
            else:
                lines.append(f"step {i}: plane_reduction -> dim {s.recovered.dim}")
        sig = signature(self.residue.phi)
        lines.append(f"residue: dim {self.residue.dim}, signature ({sig[0]},{sig[1]}), abelian")
        return tuple(lines)


def full_reduction(p: PHQAlgebra) -> ReductionResult:
    """Iterate the dichotomy until the residue is abelian.

    Every step strictly drops the dimension by 2 (split) or 4 (plane
    reduction), so the loop terminates; the dimension bookkeeping
    dim(input) = dim(residue) + 2*(splits) + 4*(plane reductions) holds.
    """
    steps: list[ReductionStep] = []
    current = p
    while not current.algebra.is_abelian():
        pair = find_central_pair(current)
        if pair.in_derived:
            step = reduce_by_plane(current, pair.z)
        else:
            rest, sign = split_plane(current, pair.z)
            step = ReductionStep(
                kind="split_plane",
                z=pair.z,
                v=None,
                sign=sign,
                recovered=rest,
                extension_data=None,
                adapted_basis=None,
            )
        steps.append(step)
        current = step.recovered
    return ReductionResult(tuple(steps), current)


class SkewPairReport(Record):
    """Adapted form of a nilpotent skew pair on a neutral 4-dim base."""

    a: Fraction
    b: Fraction
    kernel_f: Subspace
    adapted_basis: tuple[Vector, Vector, Vector, Vector]  # (u1, ju1, u2, ju2)


def analyze_skew_pair(base: PHQAlgebra, f: Matrix, d: Matrix) -> SkewPairReport:
    """Check the structure of a nilpotent skew pair with f != 0 on a neutral
    four-dimensional base and extract its adapted constants.

    Verifies ker(f) = j(ker f) = im(f), two-dimensional and totally
    isotropic; then picks u1 in ker(f), builds the isotropic dual u2 with
    phi(u1, u2) = 1 and phi(ju1, u2) = 0, and reads off the constants
    f(u2) = a ju1 (a != 0) and d(u2) = b ju1, with d vanishing on ker(f).
    """
    if base.dim != 4 or signature(base.phi) != (2, 2):
        raise HypothesisViolated("base must be four-dimensional of neutral signature")
    # With s0 = 0 the report's ad(s0) = F D - D F is the condition [F, D] = 0.
    report = validate_extension_data(base, d, f, zero_vector(4))
    if not report.ok:
        raise HypothesisViolated("; ".join(report.failures))
    for name, m in (("F", f), ("D", d)):
        power = m
        for _ in range(4):
            power = power @ m
        if not power.is_zero():
            raise HypothesisViolated(f"{name} is not nilpotent")
    if f.is_zero():
        raise HypothesisViolated("F must be nonzero")

    ker_f = kernel(f)
    if ker_f.dim != 2:
        raise HypothesisViolated(f"ker(F) has dimension {ker_f.dim}, expected 2")
    image = Subspace.span(4, [f.col(i) for i in range(4)])
    if map_image(base.j, ker_f) != ker_f or image != ker_f:
        raise HypothesisViolated("ker(F) = j(ker F) = im(F) fails")
    if not ker_f.is_totally_isotropic(base.phi):
        raise HypothesisViolated("ker(F) is not totally isotropic")

    u1 = ker_f.basis[0]
    ju1 = base.j.apply(u1)
    u2 = _isotropic_dual(base, scaled(u1), scaled(ju1), HypothesisViolated("no dual vector for u1"))
    ju2 = base.j.apply(u2)
    fu2, du2, fju2 = _coords(
        4,
        [scaled(x) for x in (u1, ju1, u2, ju2)],
        [scaled(f.apply(u2)), scaled(d.apply(u2)), scaled(f.apply(ju2))],
        HypothesisViolated("adapted frame is degenerate"),
    )
    if fu2[0] != 0 or fu2[2] != 0 or fu2[3] != 0:
        raise HypothesisViolated("F(u2) is not a multiple of ju1")
    if du2[0] != 0 or du2[2] != 0 or du2[3] != 0:
        raise HypothesisViolated("D(u2) is not a multiple of ju1")
    a = fu2[1]
    b = du2[1]
    if a == 0:
        raise HypothesisViolated("the constant a vanishes although F != 0")
    if fju2 != (-a, ZERO, ZERO, ZERO):
        raise HypothesisViolated("F(ju2) != -a u1")
    if not (is_zero_vec(d.apply(u1)) and is_zero_vec(d.apply(ju1))):
        raise HypothesisViolated("D does not vanish on ker(F)")
    return SkewPairReport(a, b, ker_f, (u1, ju1, u2, ju2))

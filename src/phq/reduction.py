"""Inverse procedures: peel definite planes and hyperbolic plane pairs.

A nilpotent algebra with a compatible complex structure and invariant metric
always has a nonzero intersection W of its center with the image of the
center under j.  A vector of W inside the derived ideal drives the inverse
of the plane double extension (`reduce_by_plane`); a vector of nonzero norm
drives an orthogonal split (`split_plane`).  Both steps return a
`ReductionStep`, and `full_reduction` iterates them to an abelian residue.

Each inverse step computes over int on the integers that the bracket
table, j and phi keep, and hands them on: the recovered table, j and phi,
and a plane step's D and F, are born with their integers from the step's
one integer solve, so no step scales what the step before it made.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Sequence

from .checks import PhqError, Record, _setattr
from .lie import LieAlgebra, _twisted, format_vector
from .linalg import (
    DimensionMismatch,
    Matrix,
    Scaled,
    Subspace,
    Vector,
    _complement_int,
    _gram_int,
    _solve_int,
    _unscaled,
    add_vec,
    bilinear,
    intersect,
    map_image,
    mat_vec,
    scaled,
    signature,
    vector,
)
from .structures import ExtensionData, InvalidExtensionData, PHQAlgebra, _extension_check


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
    """W = center ∩ j(center), plus the first admissible z of the candidates
    that `_choose` offers: one in W ∩ derived (so isotropic, the derived
    ideal being the orthogonal of the center) drives a plane reduction, one
    of nonzero norm a split.  A nonempty W is guaranteed for nilpotent
    input; anything else raises."""
    center = p.algebra.center()
    w = intersect(center, map_image(p.j, center))
    if w.dim == 0:
        raise EmptyIntersection(w, center, p.basis_names)
    in_derived = intersect(w, p.algebra.derived_ideal())
    candidates = _choose(p, "z", w, in_derived)
    for z in candidates:
        if (derived := in_derived._holds(z[1])) or _phi(p, z, z) != 0:
            pair = CentralPair(w, _unscaled(z), derived)
            _setattr(p, "_chosen", (pair.z, z))  # the step on pair.z reads z here (`_central_plane`)
            return pair
    raise ReductionStuck(w, [_unscaled(z) for z in candidates], p.basis_names)


def _choose(p: PHQAlgebra, what: str, *given):
    """Every choice of an inverse step, made here and nowhere else: a step is
    valid for any admissible z, isotropic dual v and complement basis
    (Medina–Revoy 1985), and the steps check z and v.  ``what`` is one of
    - ``"z"``, given W and W ∩ derived: the `Scaled` candidates in order of
      preference, the first echelon vector of W ∩ derived if that is not
      zero, else the echelon basis of W and then its pairwise sums;
    - ``"v"``, given the `Scaled` z and jz: `_isotropic_dual`'s `Scaled` solution;
    - ``"basis"``, given the `Scaled` vectors of the plane a step removes:
      the echelon rows (`_complement_int`) of their orthogonal complement.
    """
    if what == "z":
        w, in_derived = given
        if in_derived.dim > 0:
            return [*in_derived.echelon[:1]]
        b = w.basis
        return [*w.echelon, *(scaled(add_vec(u, v)) for i, u in enumerate(b) for v in b[i + 1 :])]
    if what == "v":
        return _isotropic_dual(p, *given)
    return _complement_int(p.dim, p.phi._scaled[1], [x for _, x in given]).echelon


# The helpers below take and give `Scaled` pairs, or integers where only a
# sign or a zero test needs them, on T = d * brackets, J = dj * j, G = dg * phi.


def _jmap(p: PHQAlgebra, x: Scaled) -> Scaled:
    dj, jn = p.j._scaled
    return dj * x[0], mat_vec(jn, p.dim, p.dim, enumerate(x[1]), 0)


def _phi(p: PHQAlgebra, x: Scaled, y: Scaled) -> int:
    """dg * s * t * phi(y, x) for the pairs (s, x) and (t, y), of the sign of
    phi(y, x); with y = x, of the sign of the norm."""
    return sum(map(mul, y[1], mat_vec(p.phi._scaled[1], p.dim, p.dim, enumerate(x[1]), 0)))


def _central(p: PHQAlgebra, x: Scaled) -> bool:
    """ad(x) = 0, tested on the integer columns of ad(x) that `_twisted`
    reads off T; the center is never built."""
    return not any(map(any, _twisted(p.algebra, [x[1]]).values()))


def _isotropic_dual(p: PHQAlgebra, z: Scaled, zp: Scaled) -> Scaled:
    """An isotropic v with phi(z, v) = 1 and phi(zp, v) = 0, for an isotropic
    z orthogonal to zp: the minimal-support solution v0 of the two linear
    conditions, moved along z until it is isotropic, v0 - phi(v0, v0) / 2 z,
    as its `Scaled` pair over the gcd, which is `scaled` of v.  Raises
    `InvalidCentralElement` if the conditions are inconsistent.  The solver
    behind the reduction's choice of v (`_choose`)."""
    n = p.dim
    dg, g = p.phi._scaled
    # for the `Scaled` pair (s, x) of a vector u, G x is dg * s * phi(u, .)
    rows = [mat_vec(g, n, n, enumerate(x), 0) + [e] for x, e in ((z[1], dg * z[0]), (zp[1], 0))]
    xs = _solve_int(rows, [1] * n, [1])
    if xs is None:
        raise InvalidCentralElement("no dual vector for z: metric degenerate on the pair")
    v0 = xs[0]
    q = _phi(p, v0, v0)  # dg s^2 phi(v0, v0)
    (s, x), (sz, zn) = v0, z
    den, x = 2 * dg * s * s * sz, [2 * dg * s * sz * a - q * b for a, b in zip(x, zn)]
    g = gcd(den, *x)
    return den // g, [a // g for a in x]


def _matrix(cols: Sequence[Scaled], m: int) -> Matrix:
    """The m x m matrix of `Scaled` columns over one scale, born with them."""
    return Matrix._from_scaled(m, m, cols[0][0] if cols else 1, [x[r] for r in range(m) for _, x in cols])


def _restrict(
    p: PHQAlgebra,
    basis: Sequence[Scaled],
    drop: Sequence[Scaled] = (),
    extra: Sequence[tuple[Scaled, Scaled]] = (),
) -> tuple[PHQAlgebra, list[Scaled]]:
    """Restriction of brackets, j and phi to the span of ``basis``.

    One integer solve of [frame | images], for the frame (drop..., basis...),
    gives the coordinates of the images under j of the basis vectors, of
    their nonzero brackets and of the brackets of the ``extra`` pairs, all
    `Scaled` pairs over one scale (`_solve_int`).  Components along ``drop``
    are discarded, but j must keep the span of ``basis``.  The table and j
    are born with those integers, the metric with the integer Gram block
    B^T g B.  Returns the restriction and the ``basis`` coordinates of the
    ``extra`` brackets.
    """
    m, k = len(basis), len(drop)
    d, t = p.algebra._scaled
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    products = [(a, b, y) for a, b in pairs if any(y := bilinear(t, basis[a][1], basis[b][1], zero=0))]
    images = [_jmap(p, x) for x in basis]
    images += [(d * basis[a][0] * basis[b][0], y) for a, b, y in products]
    images += [(d * x[0] * y[0], bilinear(t, x[1], y[1], zero=0)) for x, y in extra]
    frame = [*drop, *basis]
    rows = [[x[i] for _, x in frame] + [y[i] for _, y in images] for i in range(p.dim)]
    coords = _solve_int(rows, [s for s, _ in frame], [den for den, _ in images])
    if coords is None:
        raise InvalidCentralElement("the restriction leaves the frame; the subspace is not invariant")
    if any(any(x[:k]) for _, x in coords[:m]):
        raise InvalidCentralElement("j does not keep the restricted subspace")
    coords = [(s, x[k:]) for s, x in coords]
    brackets = {(a, b): dict(enumerate(x)) for (a, b, _), (_, x) in zip(products, coords[m:])}
    restricted = PHQAlgebra(
        LieAlgebra._from_scaled(tuple(f"b{i + 1}" for i in range(m)), coords[0][0] if coords else 1, brackets),
        _matrix(coords[:m], m),
        _gram_int(p.dim, *p.phi._scaled, basis),
    )
    return restricted, coords[m + len(products) :]


def _central_plane(p: PHQAlgebra, z: Vector, derived: bool) -> tuple[Scaled, Scaled, int]:
    """z, jz and the norm of z (`_phi`) for the vector z, after the test,
    shared by both steps, that z and jz are central and, for a plane
    reduction (``derived``), that z lies in the derived ideal."""
    if len(z) != p.dim:
        raise DimensionMismatch("vector must match the algebra dimension")
    zs = chosen[1] if (chosen := getattr(p, "_chosen", None)) and chosen[0] is z else scaled(z)
    zps = _jmap(p, zs)
    both = "z and jz must be central"
    if not _central(p, zs) or derived and not p.algebra.derived_ideal()._holds(zs[1]):
        raise InvalidCentralElement("z must lie in center ∩ derived" if derived else both)
    if not _central(p, zps):
        raise InvalidCentralElement("jz must be central" if derived else both)
    return zs, zps, _phi(p, zs, zs)


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


def split_plane(p: PHQAlgebra, z: Vector) -> ReductionStep:
    """Remove the definite j-invariant central plane spanned by z and jz.

    The step's ``recovered`` is the restriction to the orthogonal complement,
    in the basis that `_choose` picks, and its ``sign`` that of phi(z, z).
    """
    z = vector(z)
    zs, zps, norm = _central_plane(p, z, False)
    if norm == 0:
        raise NotDefinitePlane("phi(z, z) = 0: the plane of z is not definite")
    rest = _restrict(p, _choose(p, "basis", zs, zps))[0]
    return ReductionStep("split_plane", z, None, 1 if norm > 0 else -1, rest, None, None)


def reduce_by_plane(p: PHQAlgebra, z: Vector) -> ReductionStep:
    """Invert the plane double extension at an isotropic central z.

    Requires z in center ∩ derived with jz central (such z are isotropic
    because the derived ideal is the orthogonal of the center).  Takes from
    `_choose` the dual v, checked to be isotropic with phi(z,v) = 1 and
    phi(jz,v) = 0, and the basis of the recovered base, the orthogonal of
    span{z, jz, v, jv}; the extension data is read off the brackets with v
    and jv.
    """
    z = vector(z)
    zs, zps, norm = _central_plane(p, z, True)
    if norm != 0:
        raise NonIsotropic("z must be isotropic")
    vs = _choose(p, "v", zs, zps)
    vps = _jmap(p, vs)
    bs = _choose(p, "basis", zs, zps, vs, vps)
    # tested after the basis, whose choice rejects a phi that is not symmetric
    if _phi(p, vs, vs) or _phi(p, zps, vs) or _phi(p, zs, vs) != p.phi._scaled[0] * zs[0] * vs[0]:
        raise HypothesisViolated("v must be isotropic, with phi(z, v) = 1 and phi(jz, v) = 0")
    m = len(bs)
    # F, D and s0 are the base components of [v, x], [v', x] and [v, v'].
    extra = [(w, b) for w in (vs, vps) for b in bs] + [(vs, vps)]
    base, ext = _restrict(p, bs, drop=(zs, zps), extra=extra)
    f, d = (_matrix(ext[a : a + m], m) for a in (0, m))
    if not (report := _extension_check(base, d, f, ext[2 * m])).ok:  # checked on the integers of s0
        raise InvalidExtensionData(report)
    data = ExtensionData._born(base, d, f, _unscaled(ext[2 * m]))
    v = _unscaled(vs)
    adapted = Matrix.from_cols([z, *map(_unscaled, (zps, *bs, vps)), v], rows=p.dim)
    return ReductionStep("plane_reduction", z, v, None, base, data, adapted)


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
        step = (reduce_by_plane if pair.in_derived else split_plane)(current, pair.z)
        steps.append(step)
        current = step.recovered
    return ReductionResult(tuple(steps), current)


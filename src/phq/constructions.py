"""Forward constructions of metric Lie algebras with complex structures.

Covers orthogonal direct sums, the four-dimensional (plane) double
extension, cotangent-type extensions twisted by a cyclic 2-cocycle,
tensoring with an invariant-form commutative algebra, and complexification.
Every construction either validates its input eagerly or is total.  The
plane double extension takes its datum as a `structures.ExtensionData`,
which `reduction` reads back, so only `construct`, `catalog.build` and
recipes run this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Mapping, Sequence

from . import structures
from .checks import Check, PhqError, Record, Report
from .lie import LieAlgebra, LinearMap
from .linalg import (
    ONE,
    ZERO,
    DimensionMismatch,
    Matrix,
    SparseTable,
    Vector,
    _transpose,
    bilinear,
    dense,
    frac,
    scaled,
    sparse_table,
)
from .structures import PHQAlgebra, check_complex


class InvalidCocycle(PhqError, ValueError):
    pass


class InvalidAlgebraData(PhqError, ValueError):
    pass


class InvalidParameter(PhqError, ValueError):
    pass


def _unique_names(first: Sequence[str], second: Sequence[str]) -> tuple[str, ...]:
    out = list(first)
    seen = set(out)
    for name in second:
        while name in seen:
            name = name + "'"
        seen.add(name)
        out.append(name)
    return tuple(out)


def _shift(col: Mapping[int, Fraction] | Vector, offset: int, sign=ONE) -> dict[int, Fraction]:
    """A sparse or dense column moved ``offset`` places down and scaled by ``sign``."""
    items = col.items() if isinstance(col, Mapping) else enumerate(col)
    return {offset + k: sign * c for k, c in items if c}


def _shifted_table(table: SparseTable, offset: int) -> SparseTable:
    return {(offset + i, offset + j): _shift(col, offset) for (i, j), col in table.items()}


def _block(m: Matrix, offset: int) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries of m, moved ``offset`` places along the diagonal."""
    c = m.cols
    return {(offset + i // c, offset + i % c): x for i, x in enumerate(m.entries) if x}


def _integers(table: SparseTable) -> tuple[int, dict[tuple[int, int], dict[int, int]]]:
    """`scaled` of a cocycle's values or an algebra's products: d and the table d * entries."""
    d, flat = scaled([c for col in table.values() for c in col.values()])
    ints = iter(flat)
    return d, {pair: {k: next(ints) for k in col} for pair, col in table.items()}


def _square(n: int, entries: Mapping[tuple[int, int], Fraction]) -> Matrix:
    """The n x n matrix with the given (row, column) entries and zeros elsewhere."""
    out = [ZERO] * (n * n)
    for (r, c), x in entries.items():
        out[r * n + c] = x
    return Matrix(n, n, tuple(out))


def _kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: entry (i m + r, j m + s) is a[i, j] b[r, s]."""
    m = b.rows
    entries = {
        (i * m + r, j * m + s): a_ij * b_rs
        for (i, j), a_ij in _block(a, 0).items()
        for (r, s), b_rs in _block(b, 0).items()
    }
    return _square(a.rows * m, entries)


def direct_sum(p: PHQAlgebra, q: PHQAlgebra) -> PHQAlgebra:
    """Orthogonal direct sum: block-diagonal brackets, j, and phi."""
    n, m = p.dim, q.dim
    names = _unique_names(p.basis_names, q.basis_names)
    return PHQAlgebra(
        LieAlgebra(names, {**p.algebra.brackets, **_shifted_table(q.algebra.brackets, n)}),
        _square(n + m, {**_block(p.j, 0), **_block(q.j, n)}),
        _square(n + m, {**_block(p.phi, 0), **_block(q.phi, n)}),
    )


def phq_double_extension(data: structures.ExtensionData) -> PHQAlgebra:
    """Four-dimensional double extension by a hyperbolic plane pair.

    New basis, in this normative order: (z, z', base..., v', v).  Brackets:

        [v, v'] = s0
        [v,  x] = F x - phi0(s0, x) z'
        [v', x] = D x + phi0(s0, x) z
        [x,  y] = [x, y]_0 + phi0(D x, y) z' + phi0(F x, y) z

    with pairings phi(z, v) = phi(z', v') = 1 on top of phi0, and the complex
    structure extended by j z = z', j v = v'.  The output metric signature is
    the base signature plus (2, 2).
    """
    base, d, f, s0 = data.base, data.d, data.f, data.s0
    g0, phi0, j0 = base.algebra, base.phi, base.j
    n = g0.dim
    total = n + 4
    z, zp = 0, 1
    vp, v = n + 2, n + 3

    names = _unique_names(("z", "z'"), _unique_names(g0.basis_names, ("v'", "v")))
    phi_s0 = phi0.apply(s0)

    # Written with the smaller index first: [x, v] = -[v, x] and so on.
    table = _shifted_table(g0.brackets, 2)
    table[vp, v] = _shift(s0, 2, -ONE)
    for i in range(n):
        ci = phi_s0[i]
        table[2 + i, v] = {**_shift(f.col(i), 2, -ONE), zp: ci}
        table[2 + i, vp] = {**_shift(d.col(i), 2, -ONE), z: -ci}
        phi_di, phi_fi = phi0.apply(d.col(i)), phi0.apply(f.col(i))
        for j in range(i + 1, n):
            col = table.setdefault((2 + i, 2 + j), {})
            col[zp], col[z] = phi_di[j], phi_fi[j]

    j_entries = {(zp, z): ONE, (z, zp): -ONE, (vp, v): ONE, (v, vp): -ONE, **_block(j0, 2)}
    phi_entries = {(z, v): ONE, (v, z): ONE, (zp, vp): ONE, (vp, zp): ONE, **_block(phi0, 2)}
    return PHQAlgebra(
        LieAlgebra(names, table),
        _square(total, j_entries),
        _square(total, phi_entries),
    )


class Cocycle(Record):
    """An antisymmetric bilinear map into the dual: the sparse table
    ``values[i, j]`` (i < j) holds theta(ei, ej) in dual coordinates."""

    dim: int
    values: SparseTable

    def __post_init__(self):
        object.__setattr__(self, "values", sparse_table(self.values, self.dim, skew=True))

    @classmethod
    def zero(cls, dim: int) -> "Cocycle":
        return cls(dim, {})

    def scale(self, s) -> "Cocycle":
        s = frac(s)
        scaled = {pair: {k: s * c for k, c in col.items()} for pair, col in self.values.items()}
        return Cocycle(self.dim, scaled)

    def __add__(self, other: "Cocycle") -> "Cocycle":
        if self.dim != other.dim:
            raise DimensionMismatch("cocycle dimensions differ")
        total = {pair: dict(col) for pair, col in self.values.items()}
        for pair, col in other.values.items():
            acc = total.setdefault(pair, {})
            for k, c in col.items():
                acc[k] = acc.get(k, ZERO) + c
        return Cocycle(self.dim, total)


def check_cocycle(algebra: LieAlgebra, j: LinearMap, theta: Cocycle) -> Report:
    """Three conditions on a dual-valued antisymmetric 2-form.

    (a) cyclicity  theta(x,y)z = theta(y,z)x  on all basis triples;
    (b) the 2-cocycle identity for the coadjoint Chevalley-Eilenberg
        differential on all basis triples i < j < k (checked in every dual
        slot, with no shortcut through special degeneracies of the algebra);
    (c) the complex-structure compatibility
        theta(x,y)z = theta(jx,jy)z + theta(jy,jz)x + theta(jz,jx)y
        on all basis triples.

    Checked on integers, as `check_phq`, on T = d_t brackets, Θ = d_θ theta
    and J = d_j j: (a) on entries of Θ, (b) times d_t d_θ, and (c) as
    d_j^2 Θ(e_i,e_b)_k = Θ(Je_i,Je_b)_k + Θ(Je_b,Je_k)_i + Θ(Je_k,Je_i)_b.
    """
    n = algebra.dim
    if theta.dim != n:
        raise DimensionMismatch("cocycle dimension does not match the algebra")
    if j.rows != n or j.cols != n:
        raise DimensionMismatch("j must be square of the algebra dimension")
    names, t, columns = algebra.basis_names, algebra._scaled[1], algebra._columns
    values, (dj, jn) = _integers(theta.values)[1], j._scaled
    th = [[[0] * n for _ in range(n)] for _ in range(n)]  # th[a][b] = Θ(e_a, e_b)
    for (a, b), col in values.items():
        for k, c in col.items():
            th[a][b][k], th[b][a][k] = c, -c
    jcols = [jn[c::n] for c in range(n)]
    tj = [[bilinear(values, x, y, skew=True, zero=0) for y in jcols] for x in jcols]

    def d_theta(i: int, b: int, k: int) -> list[int]:
        # e_x . f = -f o ad(e_x), so entry w is f(T(e_w, e_x)): the ad columns of e_x
        out = [0] * n
        for x, f, s in ((i, th[b][k], 1), (b, th[i][k], -1), (k, th[i][b], 1)):
            for w, image in columns[x]:
                out[w] += s * sum(f[m] * c for m, c in image)
        for x, y, z, s in ((i, b, k, -1), (i, k, b, 1), (b, k, i, -1)):  # -Θ(T(e_i, e_b), e_k), ...
            for a, c in t.get((x, y), {}).items():
                out = [o + s * c * v for o, v in zip(out, th[a][z])]
        return out

    every = list(product(range(n), repeat=3))
    conditions = (
        ("cyclic", "theta({0},{1}){2} != theta({1},{2}){0}", every,
         lambda i, b, k: th[i][b][k] != th[b][k][i]),
        ("2-cocycle", "d theta != 0 on ({0}, {1}, {2})", combinations(range(n), 3),
         lambda i, b, k: any(d_theta(i, b, k))),
        ("J-compatible", "J-compatibility fails on ({0}, {1}, {2})", every,
         lambda i, b, k: dj * dj * th[i][b][k] != tj[i][b][k] + tj[b][k][i] + tj[k][i][b]),
    )
    return Report(tuple(
        Check(label, tuple(text.format(*(names[x] for x in ijk)) for ijk in triples if fails(*ijk)))
        for label, text, triples, fails in conditions
    ))


def tstar_extension(algebra: LieAlgebra, j: LinearMap, theta: Cocycle) -> PHQAlgebra:
    """Cotangent-type extension on g + g* twisted by a valid cocycle.

    Bracket  [x+f, y+g] = [x,y] + theta(x,y) + f o ad(y) - g o ad(x),
    metric   phi(x+f, y+g) = f(y) + g(x)  (so the signature is neutral),
    complex structure  x + f  ->  jx - f o j.
    The dual basis is the phi-dual of the input basis.
    """
    n = algebra.dim
    if theta.dim != n:
        raise InvalidCocycle("cocycle dimension does not match the algebra")
    comp = check_complex(algebra, j)
    if not comp.ok:
        raise InvalidCocycle("the carrier map is not a complex structure")
    rep = check_cocycle(algebra, j, theta)
    if not rep.ok:
        bad = [part.label for part in rep.parts if not part.ok]
        raise InvalidCocycle(f"cocycle conditions failed: {', '.join(bad)}")

    names = _unique_names(algebra.basis_names, tuple(f"{s}*" for s in algebra.basis_names))

    table = {pair: dict(col) for pair, col in algebra.brackets.items()}
    for pair, col in theta.values.items():
        table.setdefault(pair, {}).update(_shift(col, n))
    # [ea, eb*] = -(eb* o ad(ea)): dual coordinate k picks -c[a][k][b]
    for (a, k), col in algebra.brackets.items():
        for b, c in col.items():
            table.setdefault((a, n + b), {})[n + k] = -c
            table.setdefault((k, n + b), {})[n + a] = c

    phi_entries = {}
    for a in range(n):
        phi_entries[a, n + a] = phi_entries[n + a, a] = ONE
    return PHQAlgebra(
        LieAlgebra(names, table),
        _square(2 * n, {**_block(j, 0), **_block(-j.transpose(), n)}),
        _square(2 * n, phi_entries),
    )


def block_rotation(n: int) -> LinearMap:
    """The complex structure e_2k -> e_2k+1, e_2k+1 -> -e_2k on consecutive
    basis pairs of an even dimension n."""
    entries = {}
    for a in range(0, n, 2):
        entries[a + 1, a] = ONE
        entries[a, a + 1] = -ONE
    return _square(n, entries)


def kodaira_thurston() -> tuple[LieAlgebra, LinearMap]:
    """The Kodaira-Thurston algebra: Heisenberg plus a line, [x1, x2] = x3,
    with the abelian complex structure x1 -> x2, x3 -> x4."""
    algebra = LieAlgebra.from_brackets(("x1", "x2", "x3", "x4"), {(0, 1): {2: 1}})
    return algebra, block_rotation(4)


def kodaira_cocycle_basis() -> tuple[Cocycle, Cocycle, Cocycle, Cocycle]:
    """The four independent cyclic cocycles on the Kodaira-Thurston carrier,
    tabulated by their nonzero values."""
    theta1 = Cocycle(4, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})
    theta2 = Cocycle(4, {(0, 1): {3: 1}, (0, 3): {1: -1}, (1, 3): {0: 1}})
    theta3 = Cocycle(4, {(0, 2): {3: 1}, (0, 3): {2: -1}, (2, 3): {0: 1}})
    theta4 = Cocycle(4, {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}})
    return theta1, theta2, theta3, theta4


class CommutativeAlgebra(Record):
    """Associative commutative algebra with an invariant nondegenerate form.

    ``products[i, j]`` is the sparse product of basis elements i and j, for
    every ordered pair whose product is nonzero.
    """

    basis_names: tuple[str, ...]
    products: SparseTable
    form: Matrix

    def __post_init__(self):
        object.__setattr__(self, "products", sparse_table(self.products, self.dim, skew=False))

    @property
    def dim(self) -> int:
        return len(self.basis_names)


def check_commutative(a: CommutativeAlgebra) -> Check:
    """Commutativity, associativity, nondegeneracy, and B(ab,c) = B(b,ac),
    in one sweep on P = d_p products and G = d_b B (``form._scaled``): each
    side of associativity is d_p^2 times its product, each side of
    invariance d_p d_b times its form, and each basis product is read once."""
    n = a.dim
    p, g = _integers(a.products)[1], a.form._scaled[1]
    cols = [[p.get((i, j), {}) for j in range(n)] for i in range(n)]
    prod = [[dense(col, n, 0) for col in row] for row in cols]
    failures = [
        f"products not commutative at ({i},{j})"
        for i, j in product(range(n), repeat=2)
        if prod[i][j] != prod[j][i]
    ]
    for i, j, k in product(range(n), repeat=3):
        ij_k = [sum(c * prod[m][k][s] for m, c in cols[i][j].items()) for s in range(n)]
        i_jk = [sum(c * prod[i][m][s] for m, c in cols[j][k].items()) for s in range(n)]
        if ij_k != i_jk:
            failures.append(f"associativity fails at ({i},{j},{k})")
        left = sum(g[k * n + m] * c for m, c in cols[i][j].items())  # G(e_k, P(e_i, e_j))
        if left != sum(c * g[m * n + j] for m, c in cols[i][k].items()):  # G(P(e_i, e_k), e_j)
            failures.append(f"form invariance fails at ({i},{j},{k})")
    if g != _transpose(g, n):
        failures.append("form not symmetric")
    elif a.form.rank() != n:
        failures.append("form degenerate")
    return Check("commutative algebra", tuple(failures))


def truncated_poly(k: int) -> CommutativeAlgebra:
    """Nilpotent truncated polynomial algebra span{a, a^2, ..., a^k} with
    a^i a^j = a^(i+j) for i+j <= k and the anti-diagonal invariant form
    B(a^i, a^j) = 1 exactly when i + j = k + 1."""
    if k < 1:
        raise InvalidParameter("truncated polynomial algebra needs k >= 1")
    names = tuple("a" if i == 0 else f"a^{i + 1}" for i in range(k))
    products = {(i, j): {i + j + 1: ONE} for i in range(k) for j in range(k) if i + j + 1 < k}
    form = _square(k, {(i, k - 1 - i): ONE for i in range(k)})
    return CommutativeAlgebra(names, products, form)


def complex_units() -> CommutativeAlgebra:
    """The two-dimensional algebra {1, i} with B(a, b) = Re(ab)."""
    products = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}, (1, 1): {0: -ONE}}
    return CommutativeAlgebra(("1", "i"), products, Matrix.diagonal([1, -1]))


def tensor_construct(p: PHQAlgebra, a: CommutativeAlgebra) -> PHQAlgebra:
    """Tensor a metric Lie algebra with an invariant-form commutative algebra.

    Basis (x_i . a_j) ordered lexicographically; bracket
    [x@a, y@b] = [x,y] @ ab, complex structure j@id, metric phi x B.
    """
    rep = check_commutative(a)
    if not rep.ok:
        raise InvalidAlgebraData("; ".join(rep.failures))
    m = a.dim
    names = tuple(f"{gn}.{an}" for gn in p.basis_names for an in a.basis_names)

    # i < j makes i m + r < j m + s, so every pair is written in table order;
    # the pairs i > j follow by antisymmetry because a is commutative.
    table = {}
    for (i, j), cij in p.algebra.brackets.items():
        for (r, s), prod in a.products.items():
            table[i * m + r, j * m + s] = {
                kk * m + t: c * q for kk, c in cij.items() for t, q in prod.items()
            }

    return PHQAlgebra(
        LieAlgebra(names, table),
        _kron(p.j, Matrix.identity(m)),
        _kron(p.phi, a.form),
    )


def complexify(p: PHQAlgebra) -> PHQAlgebra:
    """Scalar extension to the complex numbers, seen as a real algebra of
    twice the dimension; the metric doubles its signature to (p+q, p+q)."""
    return tensor_construct(p, complex_units())

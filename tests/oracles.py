"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's Matrix/Subspace machinery: they work
on plain nested lists of Fractions with naive triple loops, and the
signature oracle goes through sympy's exact characteristic polynomial with
Descartes' sign-change rule (valid because symmetric matrices have all-real
spectra).  Any disagreement with the library is a bug in one of the two.
"""

from __future__ import annotations

from fractions import Fraction

import sympy


def entries(matrix) -> list[list[Fraction]]:
    return [[matrix[i, j] for j in range(matrix.cols)] for i in range(matrix.rows)]


def structure_tensor(algebra) -> list[list[list[Fraction]]]:
    n = algebra.dim
    c = algebra.structure  # rebuilt on every access: read it once
    return [[[c[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]


def naive_bracket(c, x, y):
    n = len(c)
    out = [Fraction(0)] * n
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            for k in range(n):
                out[k] += x[i] * y[j] * c[i][j][k]
    return out


def naive_apply(m, v):
    return [sum((m[i][j] * v[j] for j in range(len(v))), Fraction(0)) for i in range(len(m))]


def naive_product(a, b):
    """The product of nested-list matrices, one dot product per entry."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def naive_jacobi_violations(c):
    """All (i, j, k) with i<j<k where the Jacobi cycle does not vanish."""
    n = len(c)
    bad = []
    for i in range(n):
        ei = [Fraction(int(t == i)) for t in range(n)]
        for j in range(i + 1, n):
            ej = [Fraction(int(t == j)) for t in range(n)]
            for k in range(j + 1, n):
                ek = [Fraction(int(t == k)) for t in range(n)]
                term1 = naive_bracket(c, ei, c[j][k])
                term2 = naive_bracket(c, ej, c[k][i])
                term3 = naive_bracket(c, ek, c[i][j])
                if any(a + b + d != 0 for a, b, d in zip(term1, term2, term3)):
                    bad.append((i, j, k))
    return bad


def naive_nijenhuis(c, j, x, y):
    jx, jy = naive_apply(j, x), naive_apply(j, y)
    out = naive_bracket(c, x, y)
    out = [a + b for a, b in zip(out, naive_apply(j, naive_bracket(c, jx, y)))]
    out = [a + b for a, b in zip(out, naive_apply(j, naive_bracket(c, x, jy)))]
    return [a - b for a, b in zip(out, naive_bracket(c, jx, jy))]


def naive_nijenhuis_vanishes(c, j):
    n = len(c)
    for a in range(n):
        ea = [Fraction(int(t == a)) for t in range(n)]
        for b in range(a + 1, n):
            eb = [Fraction(int(t == b)) for t in range(n)]
            if any(t != 0 for t in naive_nijenhuis(c, j, ea, eb)):
                return False
    return True


def naive_pair(g, x, y):
    return sum(
        (g[i][j] * x[i] * y[j] for i in range(len(g)) for j in range(len(g))),
        Fraction(0),
    )


def naive_ad_invariant(c, g):
    n = len(c)
    for i in range(n):
        ei = [Fraction(int(t == i)) for t in range(n)]
        for j in range(n):
            ej = [Fraction(int(t == j)) for t in range(n)]
            for k in range(n):
                ek = [Fraction(int(t == k)) for t in range(n)]
                if naive_pair(g, c[i][j], ek) + naive_pair(g, ej, c[i][k]) != 0:
                    return False
    return True


def naive_compatible(g, j):
    n = len(g)
    for a in range(n):
        ea = [Fraction(int(t == a)) for t in range(n)]
        for b in range(n):
            eb = [Fraction(int(t == b)) for t in range(n)]
            if naive_pair(g, naive_apply(j, ea), naive_apply(j, eb)) != naive_pair(g, ea, eb):
                return False
    return True


def naive_square_is_minus_identity(j):
    n = len(j)
    sq = [[sum((j[i][k] * j[k][l] for k in range(n)), Fraction(0)) for l in range(n)] for i in range(n)]
    return all(sq[i][l] == (-1 if i == l else 0) for i in range(n) for l in range(n))


def naive_witness_failures(a, b, w):
    """The failure messages of a witness w from a to b (columns in b's
    coordinates), in the order `verify_witness` gives them: a shape failure
    alone, else invertibility, j_b w = w j_a, w^T phi_b w = phi_a, and
    w[e_i, e_k] = [w e_i, w e_k] for each pair i < k."""
    n = a.dim
    if n != b.dim:
        return ["dimensions differ"]
    if (w.rows, w.cols) != (n, n):
        return ["witness matrix has the wrong shape"]
    wm = entries(w)
    wt = [list(row) for row in zip(*wm)]
    failures = []
    if rank_oracle(w) != n:
        failures.append("witness is not invertible")
    if naive_product(wm, entries(a.j)) != naive_product(entries(b.j), wm):
        failures.append("witness does not intertwine the complex structures")
    if naive_product(naive_product(wt, entries(b.phi)), wm) != entries(a.phi):
        failures.append("witness is not an isometry")
    ca, cb = structure_tensor(a.algebra), structure_tensor(b.algebra)
    for i in range(n):
        for k in range(i + 1, n):
            if naive_apply(wm, ca[i][k]) != naive_bracket(cb, wt[i], wt[k]):
                names = a.basis_names
                failures.append(f"witness does not intertwine the bracket at ({names[i]}, {names[k]})")
    return failures


def naive_j_class(c, j):
    """(abelian, bi_invariant) of the map j (nested lists) on the algebra of
    structure tensor c: [jx, jy] = [x, y] and [jx, y] = j[x, y] on every
    ordered basis pair."""
    n = len(c)
    units = [[Fraction(int(s == i)) for s in range(n)] for i in range(n)]
    js = [naive_apply(j, u) for u in units]
    pairs = [(a, b) for a in range(n) for b in range(n)]
    abelian = all(naive_bracket(c, js[a], js[b]) == c[a][b] for a, b in pairs)
    bi_invariant = all(naive_bracket(c, js[a], units[b]) == naive_apply(j, c[a][b]) for a, b in pairs)
    return abelian, bi_invariant


def cocycle_tensor(theta) -> list[list[list[Fraction]]]:
    """Dense theta[a][b][k] = theta(ea, eb)(ek) from the sparse i < j table."""
    n = theta.dim
    t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (a, b), col in theta.values.items():
        for k, v in col.items():
            t[a][b][k], t[b][a][k] = v, -v
    return t


def naive_cocycle_violations(c, j, t):
    """The failing triples of the three cocycle conditions, each list in the
    order the triples are visited: cyclicity and J-compatibility over all
    (i, j, k), the coadjoint 2-cocycle identity over i < j < k."""
    n = len(c)
    units = [[Fraction(int(s == i)) for s in range(n)] for i in range(n)]

    def theta(x, y):
        return naive_bracket(t, x, y)

    def coact(x, f):
        # (x . f)(w) = -f([x, w])
        return [-sum((a * b for a, b in zip(f, naive_bracket(c, x, w))), Fraction(0)) for w in units]

    jcol = [naive_apply(j, u) for u in units]
    cyclic, cocycle, compat = [], [], []
    for i in range(n):
        for b in range(n):
            for k in range(n):
                if t[i][b][k] != t[b][k][i]:
                    cyclic.append((i, b, k))
                rhs = (theta(jcol[i], jcol[b])[k] + theta(jcol[b], jcol[k])[i]
                       + theta(jcol[k], jcol[i])[b])
                if t[i][b][k] != rhs:
                    compat.append((i, b, k))
                if i < b < k:
                    x, y, z = units[i], units[b], units[k]
                    terms = (
                        coact(x, theta(y, z)),
                        [-v for v in coact(y, theta(x, z))],
                        coact(z, theta(x, y)),
                        [-v for v in theta(naive_bracket(c, x, y), z)],
                        theta(naive_bracket(c, x, z), y),
                        [-v for v in theta(naive_bracket(c, y, z), x)],
                    )
                    if any(sum(col) != 0 for col in zip(*terms)):
                        cocycle.append((i, b, k))
    return cyclic, cocycle, compat


def naive_commutative_failures(p, g):
    """The failure messages of an algebra with products p[i][j] (a coordinate
    vector) and form g: commutativity, then associativity and invariance
    B(ek, ei ej) = B(ei ek, ej) per triple, then symmetry and degeneracy."""
    n = len(p)
    units = [[Fraction(int(s == i)) for s in range(n)] for i in range(n)]
    failures = [f"products not commutative at ({i},{j})"
                for i in range(n) for j in range(n) if p[i][j] != p[j][i]]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if naive_bracket(p, p[i][j], units[k]) != naive_bracket(p, units[i], p[j][k]):
                    failures.append(f"associativity fails at ({i},{j},{k})")
                if naive_pair(g, units[k], p[i][j]) != naive_pair(g, p[i][k], units[j]):
                    failures.append(f"form invariance fails at ({i},{j},{k})")
    if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
        failures.append("form not symmetric")
    elif sympy.Matrix([[sympy.Rational(v) for v in row] for row in g]).rank() != n:
        failures.append("form degenerate")
    return failures


def _descartes_positive_roots(coeffs) -> int:
    """Sign changes in the coefficient list; exact root count (with
    multiplicity) for polynomials whose roots are all real."""
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def signature_oracle(matrix) -> tuple[int, int]:
    """(positive, negative) eigenvalue counts via sympy's char poly."""
    m = sympy.Matrix(
        [[sympy.Rational(matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)]
    )
    x = sympy.Symbol("x")
    poly = m.charpoly(x)
    coeffs = poly.all_coeffs()
    pos = _descartes_positive_roots(coeffs)
    neg_coeffs = [c * (-1) ** i for i, c in enumerate(reversed(coeffs))]
    neg = _descartes_positive_roots(list(reversed(neg_coeffs)))
    return pos, neg


def rank_oracle(matrix) -> int:
    m = sympy.Matrix(
        [[sympy.Rational(matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)]
    )
    return m.rank()


def _sympy_matrix(matrix):
    return sympy.Matrix(
        [[sympy.Rational(matrix[i, j]) for j in range(matrix.cols)] for i in range(matrix.rows)]
    )


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def rref_oracle(matrix) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """sympy's reduced row echelon form (rows of Fractions) and pivot columns."""
    red, pivots = _sympy_matrix(matrix).rref()
    return [[_fraction(red[i, j]) for j in range(red.cols)] for i in range(red.rows)], tuple(pivots)


def nullspace_oracle(matrix) -> list[list[Fraction]]:
    """The nonzero rows of the RREF of sympy's null-space basis: the
    canonical basis of the kernel."""
    basis = _sympy_matrix(matrix).nullspace()
    if not basis:
        return []
    red, pivots = sympy.Matrix.hstack(*basis).T.rref()
    return [[_fraction(red[i, j]) for j in range(red.cols)] for i in range(len(pivots))]


def solve_oracle(matrix, bs) -> list[list[Fraction]] | None:
    """For each right-hand side b, the solution of matrix @ x = b with zeros
    in the free columns, read off sympy's RREF of [matrix | b]; None if any
    system is inconsistent."""
    a, n = _sympy_matrix(matrix), matrix.cols
    xs = []
    for b in bs:
        red, pivots = a.row_join(sympy.Matrix([sympy.Rational(v) for v in b])).rref()
        if pivots and pivots[-1] == n:
            return None
        x = [Fraction(0)] * n
        for r, c in enumerate(pivots):
            x[c] = _fraction(red[r, n])
        xs.append(x)
    return xs

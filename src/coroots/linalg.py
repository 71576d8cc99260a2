"""Exact rational vectors and small dense matrices.

Everything in this package is exact: vectors are tuples of
`fractions.Fraction` or of ints, matrices are tuples of row tuples, and
there is no floating point anywhere.  Matrices are small and dense: the
catalog stops at rank 12, but the CLI accepts any rank and queries such as
A40 reach ambient dimension 41.  One fraction-free Gauss-Jordan
elimination (_int_echelon) serves inverse, kernel_basis, solve, rank and
in_span: rows are scaled to ints, eliminated with integer row operations
and reduced by their gcds.  kernel_basis, rank and scaled_inverse read the
integer rows directly; row_echelon builds Fractions from them for solve.

The hot loops run on ints instead.  `to_int` is the one way in: it scales
rational vectors by the LCM of their denominators, after which zero tests
and Cartan integers under a scalar form are plain `int_dot` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Q, ...]
Mat = tuple[Vec, ...]
IVec = tuple[int, ...]


def vec(entries: Iterable) -> Vec:
    return tuple(Q(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def zero_vec(n: int) -> Vec:
    return (Q(0),) * n


def add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(c, v: Vec) -> Vec:
    c = Q(c)
    return tuple(c * a for a in v)


# keyed by id() to avoid rehashing large Fraction tuples; the stored gram
# reference keeps the id alive
_diag_memo: dict[int, tuple[Mat, Vec | None]] = {}


def _diagonal_of(gram: Mat) -> Vec | None:
    hit = _diag_memo.get(id(gram))
    if hit is not None and hit[0] is gram:
        return hit[1]
    n = len(gram)
    ok = all(gram[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    diag = tuple(gram[i][i] for i in range(n)) if ok else None
    _diag_memo[id(gram)] = (gram, diag)
    return diag


def dot(u: Vec, v: Vec, gram: Mat | None = None) -> Q:
    """Inner product, Euclidean or with respect to a Gram matrix."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    if gram is None:
        return sum((a * b for a, b in zip(u, v)), Q(0))
    diag = _diagonal_of(gram)
    if diag is not None:
        return sum((a * d * b for a, d, b in zip(u, diag, v)), Q(0))
    return sum(
        (u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v))),
        Q(0),
    )


def int_dot(u: IVec, v: IVec) -> int:
    return sum(map(mul, u, v))


def to_int(vectors, gram: Mat | None = None) -> tuple[list[IVec], int]:
    """The nonzero vectors, times the LCM of their denominators, as int tuples.

    Returns the int tuples and that common scale.  Zero tests and Cartan
    integers are the same for the scaled vectors under the plain dot
    product as for the originals under the form, provided the form is a
    scalar times the identity; any other form raises ValueError.
    """
    if gram is not None:
        c, n = gram[0][0], len(gram)
        if c <= 0 or any(
            gram[i][j] != (c if i == j else 0) for i in range(n) for j in range(n)
        ):
            raise ValueError("the root-set machinery needs a scalar Gram matrix")
    vectors = [v for v in vectors if not is_zero(v)]
    s = lcm(*(x.denominator for v in vectors for x in v))
    return [tuple(x.numerator * (s // x.denominator) for x in v) for v in vectors], s


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def transpose(m: Mat) -> Mat:
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def is_zero(v: Vec) -> bool:
    return all(a == 0 for a in v)


def primitive(v) -> IVec:
    """Scale a nonzero rational vector to integer entries with gcd 1.

    The sign is fixed so the first nonzero entry is positive; a zero
    vector stays zero.
    """
    s = lcm(*(a.denominator for a in v))
    ints = [a.numerator * (s // a.denominator) for a in v]
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if next(a for a in ints if a) < 0:
        g = -g
    return tuple(a // g for a in ints)


def _int_echelon(m) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on the rows of m.

    Each row is scaled once to ints by the LCM of its denominators,
    eliminated with integer row operations p row_i - f row_r and divided by
    its gcd.  Returns the int rows and the pivot columns: row r holds its
    pivot p_r and zeros in the other pivot columns, so x / p_r is the
    reduced row echelon form (which is unique).
    """
    rows = []
    for row in m:
        s = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(n_rows):
            f = rows[i][c]
            if i != r and f:
                row = [p * x - f * y for x, y in zip(rows[i], top)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def row_echelon(m: Mat) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    The Fractions x / p_r are built once, from the integer elimination.
    """
    rows, pivots = _int_echelon(m)
    dens = [rows[i][c] for i, c in enumerate(pivots)] + [1] * (len(rows) - len(pivots))
    return [tuple(Q(x, d) for x in row) for row, d in zip(rows, dens)], pivots


def scaled_inverse(m) -> tuple[list[IVec], int]:
    """The inverse of a square matrix as D m^-1 in ints, and D, the LCM of
    its entries' denominators; raises ValueError if m is singular.

    Every row of the eliminated [m | I] has gcd 1: scaled to ints it has
    gcd 1 (it holds the scale itself in the identity block), and it is
    divided by its gcd whenever it changes.  So row r of the inverse is
    x / p_r with no factor common to p_r and all of x, and D is the LCM of
    the pivots.
    """
    n = len(m)
    aug = [list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots = _int_echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    den = lcm(*(row[i] for i, row in enumerate(rows)))
    return [tuple(x * (den // row[i]) for x in row[n:]) for i, row in enumerate(rows)], den


def inverse(m: Mat) -> Mat:
    """Inverse of a square matrix; raises ValueError if it is singular."""
    rows, den = scaled_inverse(m)
    return tuple(tuple(Q(x, den) for x in row) for row in rows)


def rank(m: Mat) -> int:
    return len(_int_echelon(m)[1])


def kernel_basis(m) -> list[IVec]:
    """Basis of the right kernel, as primitive integer vectors.

    The vector of free column f has x_f = 1 and x_c = -x_{r,f} / p_r at the
    pivot c of row r; times the LCM of the pivots it is integral.  m may
    hold ints or Fractions.
    """
    if not m:
        return []
    n_cols = len(m[0])
    rows, pivots = _int_echelon(m)
    pivot_rows = list(zip(pivots, rows))
    den = lcm(*(row[c] for c, row in pivot_rows))
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        v = [0] * n_cols
        v[f] = den
        for c, row in pivot_rows:
            v[c] = -row[f] * (den // row[c])
        basis.append(primitive(v))
    return basis


def solve(m: Mat, b: Vec) -> Vec | None:
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return () if is_zero(b) else None
    n_cols = len(m[0])
    aug = mat([list(row) + [bi] for row, bi in zip(m, b, strict=True)])
    rows, pivots = row_echelon(aug)
    if n_cols in pivots:
        return None
    x = [Q(0)] * n_cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][n_cols]
    return tuple(x)


def in_span(v: Vec, basis: Sequence[Vec]) -> bool:
    if not basis:
        return is_zero(v)
    return solve(transpose(mat(basis)), v) is not None


def coords_in_basis(v: Vec, basis: Sequence[Vec]) -> Vec | None:
    """Coordinates of v in a linearly independent spanning list, if any."""
    if not basis:
        return () if is_zero(v) else None
    return solve(transpose(mat(basis)), v)


def in_lattice(v: Vec, basis: Sequence[Vec]) -> bool:
    """Membership of v in the integer span of a linearly independent basis."""
    c = coords_in_basis(v, basis)
    return c is not None and all(x.denominator == 1 for x in c)


def gram_of(vectors: Sequence[Vec], gram: Mat | None = None) -> Mat:
    """Symmetric matrix of pairwise inner products."""
    return tuple(tuple(dot(u, v, gram) for v in vectors) for u in vectors)


def orthogonal_project(v: Vec, span: Sequence[Vec], gram: Mat | None = None) -> Vec:
    """Orthogonal projection of v onto span(span) under the given Gram form.

    The spanning vectors need not be independent or orthogonal.  Rejects a
    form that is degenerate on the span, which signals a bad root datum.
    """
    return project_many([v], span, gram)[0]


def project_many(vs: Sequence[Vec], span: Sequence[Vec], gram: Mat | None = None) -> list[Vec]:
    """Orthogonal projections of several vectors onto one span."""
    if not span:
        return [zero_vec(len(v)) for v in vs]
    # Reduce to an independent spanning subset once.
    indep: list[Vec] = []
    for s in span:
        if not in_span(s, indep):
            indep.append(s)
    g = gram_of(indep, gram)
    if rank(g) < len(indep):
        raise ValueError("gram form degenerate on span")
    out = []
    for v in vs:
        rhs = tuple(dot(v, s, gram) for s in indep)
        coeffs = solve(g, rhs)
        if coeffs is None:
            raise ValueError("gram form degenerate on span")
        p = zero_vec(len(v))
        for c, s in zip(coeffs, indep):
            p = add(p, scale(c, s))
        out.append(p)
    return out


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    Every division is exact (E. Bareiss, Math. Comp. 22, 1968), so the
    entries stay integers bounded by minors of m.
    """
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p, top = a[k][k], a[k][k + 1 :]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i][k + 1 :] = [(p * x - f * y) // prev for x, y in zip(a[i][k + 1 :], top)]
        prev = p
    return sign * prev if n else 1


def lattice_index(sub: Sequence[Vec], sup: Sequence[Vec]) -> int:
    """Index of the lattice spanned by `sub` inside the one spanned by `sup`.

    Both lists must be bases of the same rational vector space.
    """
    if len(sub) != len(sup):
        raise ValueError("lattices of different rank")
    if not sub:
        return 1
    coords = [coords_in_basis(v, sup) for v in sub]
    if any(c is None for c in coords):
        raise ValueError("sublattice not contained in span")
    det = _det(mat(coords))
    if det == 0:
        raise ValueError("degenerate sublattice")
    det = abs(det)
    if det.denominator != 1:
        raise ValueError("not a sublattice")
    return int(det)


def _det(m: Mat) -> Q:
    rows = [list(r) for r in m]
    n = len(rows)
    det = Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det

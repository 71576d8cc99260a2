"""Exact rational vectors and small dense matrices.

Everything in this package is exact: vectors are tuples of
`fractions.Fraction` or of ints, matrices are tuples of row tuples, and
there is no floating point anywhere.  Matrices are dense, of about the
rank of the type: the CLI accepts any rank, and A160 queries run.  One
fraction-free Gauss-Jordan
elimination (_int_echelon) serves inverse, scaled_inverse, kernel_basis
and rank: rows are scaled to ints, eliminated with integer row operations
and reduced by their gcds, and the callers read the integer rows directly.

The hot loops run on ints instead.  `to_int` is the one way in: it scales
rational vectors by the LCM of their denominators, after which zero tests
and Cartan integers under a scalar form are plain `int_dot` arithmetic.
Every catalog form is a scalar times the identity, and `dot` admits no
other.
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


def dot(u: Vec, v: Vec, gram: Mat | None = None) -> Q:
    """Inner product, Euclidean or under a scalar Gram matrix c I (read off
    its first entry)."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    total = sum((a * b for a, b in zip(u, v)), Q(0))
    return total if gram is None else gram[0][0] * total


def int_dot(u: IVec, v: IVec) -> int:
    return sum(map(mul, u, v))


def cartan_integers(prods) -> tuple[IVec, ...]:
    """The Cartan integers n(i, j) = 2 p(i, j) / p(j, j) of a matrix of
    pairwise inner products; a non-integral entry raises AssertionError."""
    out = []
    for i, row in enumerate(prods):
        ints = []
        for j, x in enumerate(row):
            c, r = divmod(2 * x, prods[j][j])
            if r:
                raise AssertionError(f"non-integral Cartan integer at ({i},{j})")
            ints.append(c)
        out.append(tuple(ints))
    return tuple(out)


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

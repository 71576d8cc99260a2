"""Exact integer linear algebra on small dense matrices.

Vectors are tuples of ints (IVec) and matrices are tuples of row tuples;
there is no floating point anywhere, and nothing here builds a Fraction.
Matrices are dense, of about the rank of the type: the CLI accepts any
rank, and A160 queries run.  One fraction-free Gauss-Jordan elimination
(_int_echelon) serves scaled_inverse, kernel_basis and positive_kernel:
rows are eliminated with integer row operations and reduced by their
gcds, and the callers read the integer rows directly.  Bareiss elimination
gives integer determinants (det_int).

Int matrices in, int results out: every caller in the package builds its
matrices from ints.  A rational matrix is scaled to ints by its caller; the
one that takes Fractions, ambient.inverse, scales each row at its edge.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Sequence

IVec = tuple[int, ...]


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


def transpose(m):
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def primitive(v) -> IVec:
    """An integer vector divided by the gcd of its entries.

    The sign is fixed so the first nonzero entry is positive; a zero
    vector stays zero.
    """
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    if next(a for a in v if a) < 0:
        g = -g
    return tuple(a // g for a in v)


def _int_echelon(m) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on the rows of an int matrix.

    Each row is eliminated with integer row operations p row_i - f row_r
    and divided by its gcd.  Returns the int rows and the pivot columns:
    row r holds its pivot p_r and zeros in the other pivot columns, so
    x / p_r is the reduced row echelon form (which is unique).
    """
    rows = [list(row) for row in m]
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
    """The inverse of a square int matrix as D m^-1 in ints, and D, the LCM
    of its entries' denominators; raises ValueError if m is singular.

    Every row of the eliminated [m | I] has gcd 1: it starts with a 1 in
    the identity block, and it is divided by its gcd whenever it changes.
    So row r of the inverse is x / p_r with no factor common to p_r and all
    of x, and D is the LCM of the pivots.
    """
    n = len(m)
    aug = [list(row) + [int(j == i) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots = _int_echelon(aug)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    den = lcm(*(row[i] for i, row in enumerate(rows)))
    return [tuple(x * (den // row[i]) for x in row[n:]) for i, row in enumerate(rows)], den


def kernel_basis(m) -> list[IVec]:
    """Basis of the right kernel, as primitive integer vectors.

    The vector of free column f has x_f = 1 and x_c = -x_{r,f} / p_r at the
    pivot c of row r; times the LCM of the pivots it is integral.
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


def positive_kernel(m) -> IVec | None:
    """The positive primitive vector spanning the right kernel of m, or
    None unless the kernel is one line through such a vector."""
    ker = kernel_basis(m)
    if len(ker) == 1 and min(ker[0]) > 0:
        return ker[0]
    return None


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

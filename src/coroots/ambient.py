"""The ambient realization of a catalog type: vectors, a form and the alcove.

datum() realizes a simple type in standard coordinates: rational vectors
for the extended roots and coroots and a Gram matrix, a scalar times the
identity, with short coroots of squared length 2.  It takes h and g from
the bond table (rootdata.root_integers, rootdata.coroot_integers) and
checks its vectors against the table, both relations, the normalization
and coweight duality (_check_datum).  alcove() and coroot_coord_matrix()
are the alcove vertices and the coordinate map in the same coordinates,
and ambient_roots() writes roots given in simple-root coordinates as its
vectors.

No query builds any of this: every query computes from the bond table.
The tests and the stage benchmark read it as a second route to the table.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from typing import NamedTuple

from . import rootdata
from .linalg import (
    Mat,
    Vec,
    add,
    cartan_integers,
    dot,
    int_dot,
    inverse,
    mat,
    scale,
    sub,
    to_int,
    vec,
    zero_vec,
)
from .rootdata import TRIVIAL, SimpleType, validate_type


class RootDatum(NamedTuple):
    type: SimpleType
    ambient_dim: int
    gram: Mat
    extended_roots: tuple[Vec, ...]
    extended_coroots: tuple[Vec, ...]
    h: tuple[int, ...]
    g: tuple[int, ...]
    coroot_lattice_basis: tuple[Vec, ...]
    coweight_lattice_basis: tuple[Vec, ...]
    # simple-coroot coordinates of the fundamental coweights
    coweight_coroot_coords: tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return self.type.rank

    def nodes(self) -> range:
        return range(self.rank + 1)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Extended coroot-diagram Cartan matrix n(i,j) over node ids.

        The coroots are scaled once to int tuples (the form is a scalar
        times the identity), so n(i,j) = 2(u,v)/(v,v) on their dot products.
        """
        cr = to_int(self.extended_coroots, self.gram)[0]
        return cartan_integers([[int_dot(u, v) for v in cr] for u in cr])


class AlcoveData(NamedTuple):
    vertices: tuple[Vec, ...]  # vertex i corresponds to node i; vertex 0 is the origin


def _basis_vec(i: int, n: int) -> Vec:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def _identity(n: int, factor=1) -> Mat:
    f = Q(factor)
    return tuple(tuple(f if i == j else Q(0) for j in range(n)) for i in range(n))


def _coroot_of(root: Vec, gram: Mat) -> Vec:
    return scale(2 / dot(root, root, gram), root)


@lru_cache(maxsize=None)
def datum(st: SimpleType) -> RootDatum:
    """The catalog realization of a simple type in standard coordinates."""
    validate_type(st)
    fam, n = st.family, st.rank
    if st == TRIVIAL:
        raise ValueError("the trivial type A0 has no root datum")
    if fam == "B" and n == 2:
        # B_2 is exposed as an alias of C_2 (one datum, C_2 orientation).
        return datum(SimpleType("C", 2))._replace(type=st)

    if fam == "A":
        dim = n + 1
        gram = _identity(dim)
        e = [_basis_vec(i, dim) for i in range(dim)]
        simples = [sub(e[i], e[i + 1]) for i in range(n)]
        highest = sub(e[0], e[n])
    elif fam == "B":
        dim = n
        gram = _identity(dim)
        e = [_basis_vec(i, dim) for i in range(dim)]
        simples = [sub(e[i], e[i + 1]) for i in range(n - 1)] + [e[n - 1]]
        highest = add(e[0], e[1])
    elif fam == "C":
        dim = n
        gram = _identity(dim, 2)
        e = [_basis_vec(i, dim) for i in range(dim)]
        # realized through the coroots: chain of long coroots ending short
        cr = [sub(e[i], e[i + 1]) for i in range(n - 1)] + [e[n - 1]]
        simples = [_coroot_of(v, gram) for v in cr]
        highest = e[0]
    elif fam == "D":
        dim = n
        gram = _identity(dim)
        e = [_basis_vec(i, dim) for i in range(dim)]
        simples = [sub(e[i], e[i + 1]) for i in range(n - 1)] + [add(e[n - 2], e[n - 1])]
        highest = add(e[0], e[1])
    elif fam == "E":
        dim = 8
        gram = _identity(dim)
        e = [_basis_vec(i, dim) for i in range(dim)]
        half = Q(1, 2)
        a1 = scale(half, vec([1, -1, -1, -1, -1, -1, -1, 1]))
        a2 = add(e[0], e[1])
        chain = [sub(e[i + 1], e[i]) for i in range(6)]  # a3..a8
        all_simple = [a1, a2] + chain
        simples = all_simple[:n]
        if n == 8:
            highest = add(e[6], e[7])
        elif n == 7:
            highest = sub(e[7], e[6])
        else:
            highest = scale(half, vec([1, 1, 1, 1, 1, -1, -1, 1]))
    elif fam == "F":
        dim = 4
        gram = _identity(dim)
        e = [_basis_vec(i, dim) for i in range(dim)]
        simples = [
            sub(e[1], e[2]),
            sub(e[2], e[3]),
            e[3],
            scale(Q(1, 2), vec([1, -1, -1, -1])),
        ]
        highest = add(e[0], e[1])
    elif fam == "G":
        dim = 3
        gram = _identity(dim, Q(1, 3))
        e = [_basis_vec(i, dim) for i in range(dim)]
        simples = [sub(e[0], e[1]), vec([-2, 1, 1])]
        highest = vec([-1, -1, 2])
    elif fam == "BC":
        dim = n
        gram = _identity(dim, 2)
        e = [_basis_vec(i, dim) for i in range(dim)]
        # Non-reduced: the highest root is 2e_0, but the extended diagram
        # node is its indivisible half so that the short-coroot
        # normalization and the figure marks (g on the extended node = 2)
        # come out right.
        cr = [sub(e[i], e[i + 1]) for i in range(n - 1)] + [scale(2, e[n - 1])]
        simples = [_coroot_of(v, gram) for v in cr]
        highest = e[0]
    else:  # pragma: no cover
        raise AssertionError(fam)

    roots = (scale(-1, highest),) + tuple(simples)
    coroots = tuple(_coroot_of(r, gram) for r in roots)
    q_basis = coroots[1:]
    p_basis, p_coords = _coweights(roots[1:], q_basis, gram)
    d = RootDatum(
        st,
        dim,
        gram,
        roots,
        coroots,
        rootdata.root_integers(st),
        rootdata.coroot_integers(st),
        q_basis,
        p_basis,
        p_coords,
    )
    _check_datum(d)
    return d


def ambient_roots(st: SimpleType, coords) -> list[Vec]:
    """The datum's vectors sum_i c_i a_i of roots given by their simple-root
    coordinates c."""
    simples, s = to_int(datum(st).extended_roots[1:])
    cols = list(zip(*simples))
    return [tuple(Q(int_dot(r, col), s) for col in cols) for r in coords]


def _coweights(simple_roots, simple_coroots, gram) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Fundamental coweights in the span of the coroots, and their
    simple-coroot coordinates.

    With P[k][j] = <a_k, s_j>, the coweight w_i = sum_j C[j][i] s_j is dual
    to the simple roots exactly when C = P^{-1}; its coordinates are the
    i-th column of C.  The form is c times the identity, so with a and s
    scaled to ints by s_a and s_c, P = c/(s_a s_c) int_dot(a_k, s_j): one
    integer matrix is inverted.  Each coweight is then an integer column
    sum of the int coroots over one denominator.
    """
    a, s_a = to_int(simple_roots, gram)
    s, s_c = to_int(simple_coroots, gram)
    try:
        inv = inverse(mat([[int_dot(x, y) for y in s] for x in a]))
    except ValueError:
        raise AssertionError("degenerate simple system") from None
    f = gram[0][0] / (s_a * s_c)
    coords = tuple(tuple(x / f for x in col) for col in zip(*inv))
    nums, den = to_int(coords)
    cols = tuple(zip(*s))
    weights = tuple(tuple(Q(int_dot(x, col), den * s_c) for col in cols) for x in nums)
    return weights, coords


def _check_datum(d: RootDatum) -> None:
    """The bond table, the catalog relations, the normalization and
    coweight duality.

    All tests are integer sums: roots, coroots and coweights are scaled to
    ints (by s_a, s_c and s_w) and the form is c times the identity, so
    <a_j, w_i> = delta_ij reads c int_dot(a_j, w_i) == delta_ij s_a s_w.
    """
    n = d.rank
    c = d.gram[0][0]
    roots, s_a = to_int(d.extended_roots, d.gram)
    coroots, s_c = to_int(d.extended_coroots, d.gram)
    if d.cartan_matrix() != rootdata.extended_cartan(d.type):
        raise AssertionError(f"coroot vectors of {d.type} disagree with the bond table")
    # single exact relations with the catalog integers
    for ints, coeffs in ((roots, d.h), (coroots, d.g)):
        if any(int_dot(coeffs, xs) for xs in zip(*ints)):
            raise AssertionError(f"relation failure for {d.type}")
    if d.h[0] != 1:
        raise AssertionError("extended root integer must be 1")
    if d.type.family != "BC":
        if d.g[0] != 1:
            raise AssertionError("extended coroot integer must be 1")
        if any(d.h[i] % d.g[i] for i in d.nodes()):
            raise AssertionError("coroot integers must divide root integers")
    if c * min(int_dot(v, v) for v in coroots) != 2 * s_c * s_c:
        raise AssertionError(f"short coroot not normalized for {d.type}")
    # fundamental coweights are exactly dual to the simple roots
    weights, s_w = to_int(d.coweight_lattice_basis, d.gram)
    for i, w in enumerate(weights):
        for j in range(1, n + 1):
            if c * int_dot(roots[j], w) != (j == i + 1) * s_a * s_w:
                raise AssertionError(f"coweight duality broken for {d.type}")


@lru_cache(maxsize=None)
def alcove(st: SimpleType) -> AlcoveData:
    """Alcove vertex data in the datum's ambient coordinates: the origin
    plus the vertices opposite each wall.

    Vertex i (for a finite node i) is the fundamental coweight divided by
    the root integer; it lies on every simple-root wall except the i-th and
    on the affine wall of the highest root.
    """
    d = datum(st)
    verts = [zero_vec(d.ambient_dim)]
    for i in range(1, d.rank + 1):
        verts.append(scale(Q(1, d.h[i]), d.coweight_lattice_basis[i - 1]))
    return AlcoveData(tuple(verts))


@lru_cache(maxsize=None)
def coroot_coord_matrix(st: SimpleType) -> Mat:
    """Left inverse of the coroot basis: coords(v) = M v for v in the span."""
    d = datum(st)
    b = mat(d.coroot_lattice_basis)  # rows are basis vectors
    gram = tuple(tuple(dot(u, v) for v in b) for u in b)
    n = len(b)
    inv = inverse(gram)
    # M = gram^{-1} * B  (Euclidean pairing suffices for coordinates)
    return tuple(
        tuple(
            sum((inv[i][k] * b[k][j] for k in range(n)), Q(0))
            for j in range(d.ambient_dim)
        )
        for i in range(n)
    )

"""Catalog of simple (and BC) root systems: the bond table and what it decides.

Every query reads one per-family bond table (extended_cartan), the
extended coroot-diagram Cartan matrix.  Off it come the root integers h
(sum_i h_i a_i = 0) and coroot integers g (sum_i g_i a_i^vee = 0) as
positive kernels, and the alcove vertices in simple-coroot coordinates,
which give the group law on the center.

datum() is the ambient realization of a type: rational coordinates and a
Gram matrix with short coroots of squared length 2.  It takes h and g from
the table and checks its vectors against both.  No query builds it; the
tests and the stage benchmark read it as a second route to the table.

Node numbering: node 0 is always the extended node, nodes 1..n follow the
Bourbaki numbering of the finite diagram (for classical types, the chain
e_0-e_1, e_1-e_2, ...).
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from functools import lru_cache
from typing import NamedTuple

from .linalg import (
    IVec,
    Mat,
    Vec,
    add,
    cartan_integers,
    det_int,
    dot,
    int_dot,
    inverse,
    kernel_basis,
    mat,
    scale,
    scaled_inverse,
    sub,
    to_int,
    transpose,
    vec,
    zero_vec,
)

FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "BC")

class SimpleType(NamedTuple):
    family: str
    rank: int

    def __str__(self) -> str:
        if self.family == "A" and self.rank == 0:
            return "A0 (trivial)"
        return f"{self.family}{self.rank}"

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0


TRIVIAL = SimpleType("A", 0)

_GROUP_ALIASES = [
    (re.compile(r"^SU\((\d+)\)$"), lambda m: SimpleType("A", int(m.group(1)) - 1)),
    (re.compile(r"^Spin\((\d+)\)$"), lambda m: _spin(int(m.group(1)))),
    (re.compile(r"^Sp\((\d+)\)$"), lambda m: _sp(int(m.group(1)))),
    (re.compile(r"^(BC|[ABCDEFG])_?(\d+)$"), lambda m: SimpleType(m.group(1), int(m.group(2)))),
]


def _spin(m: int) -> SimpleType:
    if m % 2 == 0 and m >= 8:
        return SimpleType("D", m // 2)
    if m % 2 == 1 and m >= 5:
        return SimpleType("B", (m - 1) // 2)
    if m == 6:
        return SimpleType("A", 3)
    if m == 5:
        return SimpleType("C", 2)
    if m == 3:
        return SimpleType("A", 1)
    raise ValueError(f"unsupported Spin({m})")


def _sp(m: int) -> SimpleType:
    if m % 2 != 0 or m < 2:
        raise ValueError(f"Sp({m}) needs an even positive argument")
    if m == 2:
        return SimpleType("A", 1)
    return SimpleType("C", m // 2)


def parse_type(text: str) -> SimpleType:
    """Parse a group spec like 'E8', 'A_5', 'Spin(12)', 'SU(7)', 'BC3'."""
    s = text.strip()
    for rx, build in _GROUP_ALIASES:
        m = rx.match(s)
        if m:
            st = build(m)
            validate_type(st)
            return st
    raise ValueError(f"unrecognized group spec {text!r}")


def validate_type(st: SimpleType) -> None:
    fam, n = st.family, st.rank
    ok = (
        (fam == "A" and n >= 0)
        or (fam == "B" and n >= 2)
        or (fam == "C" and n >= 2)
        or (fam == "D" and n >= 4)
        or (fam == "E" and n in (6, 7, 8))
        or (fam == "F" and n == 4)
        or (fam == "G" and n == 2)
        or (fam == "BC" and n >= 1)
    )
    if not ok:
        raise ValueError(f"invalid simple type {fam}{n}")


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


def _chain(a: int, b: int) -> list[tuple[int, int, int, int]]:
    return [(i, i + 1, 1, 1) for i in range(a, b)]


# Bonds (u, v, a, b) of each family's extended coroot diagram: the Cartan
# integers are n(u,v) = -a and n(v,u) = -b, every other pair is unbonded.
_BONDS = {
    "A": lambda n: _chain(0, n) + [(0, n, 1, 1)],
    "B": lambda n: [(0, 2, 1, 1)] + _chain(1, n - 1) + [(n - 1, n, 1, 2)],
    "C": lambda n: [(0, 1, 1, 2)] + _chain(1, n - 1) + [(n - 1, n, 2, 1)],
    "D": lambda n: [(0, 2, 1, 1), (n - 2, n, 1, 1)] + _chain(1, n - 1),
    "E": lambda n: [{6: (0, 2, 1, 1), 7: (0, 1, 1, 1), 8: (0, 8, 1, 1)}[n],
                    (1, 3, 1, 1), (2, 4, 1, 1)] + _chain(3, n),
    "F": lambda n: _chain(0, 2) + [(2, 3, 1, 2), (3, 4, 1, 1)],
    "G": lambda n: [(0, 2, 1, 1), (1, 2, 3, 1)],
    "BC": lambda n: [(0, 1, 1, 2)] + _chain(1, n - 1) + [(n - 1, n, 1, 2)],
}
_SPECIAL_BONDS = {
    TRIVIAL: [],
    SimpleType("A", 1): [(0, 1, 2, 2)],
    SimpleType("B", 2): _BONDS["C"](2),  # the C_2 orientation, as in datum
    SimpleType("BC", 1): [(0, 1, 1, 4)],
}


@lru_cache(maxsize=None)
def extended_cartan(st: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Extended coroot-diagram Cartan matrix of a catalog type, off the bond
    table: node 0 is the extended node, nodes 1..n are numbered as in the
    datum.  datum() checks its coroot vectors against this matrix."""
    validate_type(st)
    n = st.rank
    bonds = _SPECIAL_BONDS[st] if st in _SPECIAL_BONDS else _BONDS[st.family](n)
    cart = [[2 * (i == j) for j in range(n + 1)] for i in range(n + 1)]
    for u, v, a, b in bonds:
        cart[u][v], cart[v][u] = -a, -b
    return tuple(map(tuple, cart))


def _positive_relation(m, st: SimpleType) -> tuple[int, ...]:
    if st == TRIVIAL:
        raise ValueError("the trivial type A0 has no root datum")
    ker = kernel_basis(m)
    if len(ker) != 1 or min(ker[0]) <= 0:
        raise AssertionError(f"the bond table of {st} has no unique positive relation")
    return ker[0]


@lru_cache(maxsize=None)
def root_integers(st: SimpleType) -> tuple[int, ...]:
    """The root integers h, with sum_i h_i a_i = 0 on the extended roots.

    The table holds n(i, j) = a_j(a_i^vee), so h is its positive kernel;
    AssertionError unless that kernel is one positive vector.
    """
    return _positive_relation(extended_cartan(st), st)


@lru_cache(maxsize=None)
def coroot_integers(st: SimpleType) -> tuple[int, ...]:
    """The coroot integers g, with sum_i g_i a_i^vee = 0: the positive
    kernel of the transposed table, checked as for root_integers."""
    return _positive_relation(transpose(extended_cartan(st)), st)


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
        root_integers(st),
        coroot_integers(st),
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
    if d.cartan_matrix() != extended_cartan(d.type):
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


def dual_coxeter(st: SimpleType) -> int:
    """Dual Coxeter number, the sum of the extended coroot integers."""
    if st == TRIVIAL:
        return 1
    return sum(coroot_integers(st))


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


def center_vertex_nodes(st: SimpleType) -> list[int]:
    """Nodes whose alcove vertex exponentiates to a central element.

    These are exactly the nodes with root integer 1; node 0 stands for the
    identity (vertex at the origin).
    """
    return [i for i, x in enumerate(root_integers(st)) if x == 1]


@lru_cache(maxsize=None)
def alcove_coroot_coords(st: SimpleType) -> tuple[Vec, ...]:
    """Simple-coroot coordinates of the alcove vertices, node by node.

    Vertex i is the i-th fundamental coweight w_i divided by h_i.  With
    P[k][j] = a_k(a_j^vee) = n(j, k), w_i = sum_j (P^-1)[j][i] a_j^vee is
    dual to the simple roots, so its coordinates are column i of P^-1.
    """
    cart, n = extended_cartan(st), st.rank
    inv, den = scaled_inverse([[cart[j][k] for j in range(1, n + 1)] for k in range(1, n + 1)])
    h = root_integers(st)
    return (zero_vec(n),) + tuple(
        tuple(Q(x, den * h[i]) for x in col) for i, col in enumerate(zip(*inv), start=1)
    )


@lru_cache(maxsize=None)
def alcove_int_coords(st: SimpleType) -> tuple[tuple[IVec, ...], int]:
    """The alcove vertices' simple-coroot coordinates times L, as int
    tuples, and L, the LCM of their denominators."""
    ints, s = to_int(alcove_coroot_coords(st)[1:])
    return ((0,) * st.rank,) + tuple(ints), s


@lru_cache(maxsize=None)
def _center_residues(st: SimpleType) -> dict[IVec, int]:
    """Central node of each class of the coweight lattice mod the coroot
    lattice, keyed by the residues mod L of the scaled coordinates (the
    fractional parts of the simple-coroot coordinates, times L)."""
    coords, s = alcove_int_coords(st)
    table: dict[IVec, int] = {}
    for c in center_vertex_nodes(st):
        key = tuple(x % s for x in coords[c])
        if key in table:
            raise AssertionError(f"central vertices {table[key]} and {c} share a class")
        table[key] = c
    return table


def _center_coords(st: SimpleType, node: int) -> IVec:
    if root_integers(st)[node] != 1:
        raise ValueError(f"node {node} does not carry a central vertex")
    return alcove_int_coords(st)[0][node]


def _central_node_of(st: SimpleType, v: list[int], failure: str) -> int:
    s = alcove_int_coords(st)[1]
    c = _center_residues(st).get(tuple(x % s for x in v))
    if c is None:
        raise AssertionError(failure)
    return c


@lru_cache(maxsize=None)
def center_element_sum(st: SimpleType, node_a: int, node_b: int) -> int:
    """Group law on center nodes: the node of exp(v_a) * exp(v_b).

    exp(v) depends only on v modulo the coroot lattice, that is on the
    scaled simple-coroot coordinates modulo L.
    """
    target = [a + b for a, b in zip(_center_coords(st, node_a), _center_coords(st, node_b))]
    return _central_node_of(st, target, "center nodes not closed under addition")


@lru_cache(maxsize=None)
def center_element_inverse(st: SimpleType, node: int) -> int:
    target = [-x for x in _center_coords(st, node)]
    return _central_node_of(st, target, "center node has no inverse")


@lru_cache(maxsize=None)
def fundamental_group_order(st: SimpleType) -> int:
    """Index of the coroot lattice in the coweight lattice, by two routes.

    It is |det| of the finite Cartan matrix (the coweights are the dual
    basis of the simple roots, and the Cartan matrix writes the simple
    coroots in them), and it is the number of h=1 nodes, one per central
    alcove vertex.  The indivisible roots of BC_n form B_n (A_1 for n = 1)
    on the same simple roots, so BC_n counts the h=1 nodes of that type.
    """
    cart = extended_cartan(st)
    det = abs(det_int([row[1:] for row in cart[1:]]))
    reduced = st
    if st.family == "BC":
        reduced = SimpleType("B", st.rank) if st.rank > 1 else SimpleType("A", 1)
    count = root_integers(reduced).count(1)
    if det != count:
        raise AssertionError(f"{st}: |det| of the Cartan matrix is {det}, {count} h=1 nodes")
    return det


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

"""Catalog of simple (and BC) root systems: the bond table and what it decides.

Every query reads one per-family bond table (extended_cartan), the
extended coroot-diagram Cartan matrix.  The coroot integers g
(sum_i g_i a_i^vee = 0) and the dual Coxeter number are the marks of
diagrams.diagram_of and their sum; the root integers h (sum_i h_i a_i = 0)
follow from g and the coroot lengths.  Off the table also come the alcove
vertices in simple-coroot coordinates, which give the group law on the
center.

The ambient realization of a type (datum, alcove, coroot_coord_matrix) is
in coroots.ambient, a second route to the table that no query builds.

Node numbering: node 0 is always the extended node, nodes 1..n follow the
Bourbaki numbering of the finite diagram (for classical types, the chain
e_0-e_1, e_1-e_2, ...).
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

from .linalg import IVec, det_int, primitive, scaled_inverse

FAMILIES = ("A", "B", "C", "D", "E", "F", "G", "BC")

# The largest rank a query may name: a type is built as dense (n+1)^2
# matrices, so an unbounded rank is an unbounded allocation.
MAX_RANK = 1000

class SimpleType(namedtuple("SimpleType", "family rank")):
    """family: str, one of FAMILIES; rank: int."""

    __slots__ = ()

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


def beyond_max_rank(text: str) -> bool:
    """Whether text is a numeral two digits longer than MAX_RANK: it then
    names a higher rank, or node, in every spelling, and one of thousands
    of digits is past what int() converts."""
    return text.isdecimal() and len(text.lstrip("0")) > len(str(MAX_RANK)) + 1


def parse_type(text: str) -> SimpleType:
    """Parse a group spec like 'E8', 'A_5', 'Spin(12)', 'SU(7)', 'BC3', of
    rank at most MAX_RANK."""
    s = text.strip()
    for rx, build in _GROUP_ALIASES:
        m = rx.match(s)
        if m:
            if beyond_max_rank(m.group(m.lastindex)):
                raise ValueError(f"{s} is above the largest supported rank {MAX_RANK}")
            st = build(m)
            validate_type(st)
            if st.rank > MAX_RANK:
                raise ValueError(f"{st} is above the largest supported rank {MAX_RANK}")
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
    datum.  ambient.datum() checks its coroot vectors against this matrix."""
    validate_type(st)
    n = st.rank
    bonds = _SPECIAL_BONDS[st] if st in _SPECIAL_BONDS else _BONDS[st.family](n)
    cart = [[2 * (i == j) for j in range(n + 1)] for i in range(n + 1)]
    for u, v, a, b in bonds:
        cart[u][v], cart[v][u] = -a, -b
    return tuple(map(tuple, cart))


@lru_cache(maxsize=None)
def root_integers(st: SimpleType) -> tuple[int, ...]:
    """The root integers h, with sum_i h_i a_i = 0 on the extended roots.

    a_i^vee = |a_i^vee|^2 a_i / 2, so sum_i g_i a_i^vee = 0 makes h the
    primitive vector of g_i l_i, with g and l the marks and squared lengths
    of diagrams.diagram_of.  In matrix terms: the table C holds
    n(i, j) = a_j(a_i^vee), g spans the kernel of C^T and C diag(l) is
    symmetric, so C (g_i l_i) = diag(l) C^T g = 0; make_diagram has shown
    that kernel one positive line, and rank C = rank C^T.
    """
    if st == TRIVIAL:
        raise ValueError("the trivial type A0 has no root datum")
    from .diagrams import _ints, diagram_of

    dia = diagram_of(st)
    return primitive([g * l for g, l in zip(dia.marks, _ints(dia.sq_lengths, "squared length"))])


def center_vertex_nodes(st: SimpleType) -> list[int]:
    """Nodes whose alcove vertex exponentiates to a central element.

    These are exactly the nodes with root integer 1; node 0 stands for the
    identity (vertex at the origin).
    """
    return [i for i, x in enumerate(root_integers(st)) if x == 1]


@lru_cache(maxsize=None)
def alcove_int_coords(st: SimpleType) -> tuple[tuple[IVec, ...], int]:
    """The alcove vertices' simple-coroot coordinates times L, as int
    tuples, and L, the LCM of their denominators; vertex 0 is the origin.

    Vertex i is the i-th fundamental coweight w_i divided by h_i.  With
    P[k][j] = a_k(a_j^vee) = n(j, k), w_i = sum_j (P^-1)[j][i] a_j^vee is
    dual to the simple roots, so its coordinates are column i of P^-1, that
    is column i of the scaled inverse D P^-1 over D h_i.  In lowest terms
    that column has denominator D h_i / gcd(D h_i, column).
    """
    cart, n = extended_cartan(st), st.rank
    inv, den = scaled_inverse([[cart[j][k] for j in range(1, n + 1)] for k in range(1, n + 1)])
    h = root_integers(st)
    cols = [(den * h[i], col) for i, col in enumerate(zip(*inv), start=1)]
    s = lcm(*(d // gcd(d, *col) for d, col in cols))
    return ((0,) * n,) + tuple(tuple(x * s // d for x in col) for d, col in cols), s


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


_AMBIENT = ("datum", "alcove", "coroot_coord_matrix")


def __getattr__(name: str):
    # perfbench's worker reads these three caches as rootdata attributes;
    # they live in coroots.ambient, which no query imports
    if name in _AMBIENT:
        from . import ambient

        return getattr(ambient, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

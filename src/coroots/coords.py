"""The integer simple-coroot coordinate layer: forms, projections, subspaces.

A vector sum_i x_i a_i^vee of the coroot span is its integer coordinate
tuple x.  Every extended coroot is an integer vector there (e_i, or -g/g_0
for node 0), and the form is one integer matrix B = s ((a_i^vee, a_j^vee))
per type, built in ints from the catalog diagram's Cartan integers and its
integral squared lengths (coroot_form); root_form is the form on the simple
roots up to a positive scale.  Orbit averages are scaled to ints by one
common L (orbit_averages); their pairwise B-values give the Cartan
integers (linalg.cartan_integers) and the squared lengths as exact
fractions over s L^2.

The subspaces are primitive integer bases cached per (type, subgroup):
the fixed subspace of w_C, the kernel of M_g - I over the generators g
(fixed_subspace_coords) and, inside it, the torus t^{w_C}(gbar, k)
(torus_subspace_coords), whose defining roots pair with coordinates through
rows of the integer Cartan matrix.  Only annihilator_factors needs the
torus basis; check_samediags takes the averages' Gram matrix from project().

project() computes, once per (type, subgroup), the orbit-projected coroots
pi(a^v) = (1/n) sum of the orbit, their Gram matrix, exact Cartan integers
and classified type: the coordinate-level oracle that check_diagram1
compares node for node with the quotient diagram.  It checks each average
against the defining property of the orthogonal projection, with no
inverse: the generators, applied as permutations, fix it, and the orbit's
coroot minus it is B-orthogonal to the fixed subspace.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm

from .center import (
    CenterSubgroup,
    OrbitSet,
    _permute,
    orbit_data,
    perm_matrix_on_coroots_of,
    quotient_diagram,
)
from .diagrams import (
    AffineDiagram,
    ClassifyResult,
    DiagramError,
    _ints,
    classify,
    diagram_of,
    make_diagram,
)
from .linalg import IVec, cartan_integers, int_dot, kernel_basis
from .rootdata import TRIVIAL, SimpleType


def _integer_form(num, den: int) -> tuple[tuple[IVec, ...], int]:
    """The matrix num / den times the least positive integer s that makes
    it integral, and s: the numerators over their gcd with den."""
    g = gcd(den, *(x for row in num for x in row))
    return tuple(tuple(x // g for x in row) for row in num), den // g


def _finite_part(st: SimpleType) -> tuple[list[IVec], IVec]:
    """The finite block of the catalog Cartan matrix and the squared
    lengths of its nodes, which are integers (the shortest is 2)."""
    dia = diagram_of(st)
    return [row[1:] for row in dia.cartan[1:]], _ints(dia.sq_lengths[1:], "squared length")


@lru_cache(maxsize=None)
def coroot_form(st: SimpleType) -> tuple[tuple[IVec, ...], int]:
    """The form on the simple coroots as an integer matrix B, and its scale s:
    B = s ((a_i^vee, a_j^vee)), with (a_i^vee, a_j^vee) = n(i, j) |a_j^vee|^2 / 2."""
    c, sq = _finite_part(st)
    return _integer_form([[x * l for x, l in zip(row, sq)] for row in c], 2)


@lru_cache(maxsize=None)
def root_form(st: SimpleType) -> tuple[IVec, ...]:
    """The form on the simple roots as an integer matrix, a positive multiple
    of ((a_i, a_j)) = (2 n(i, j) / |a_i^vee|^2)."""
    c, sq = _finite_part(st)
    den = lcm(*sq)
    return _integer_form([[2 * (den // l) * x for x in row] for row, l in zip(c, sq)], den)[0]


def products(form, vectors) -> list[list[int]]:
    """Pairwise values of a symmetric integer form on integer coordinate vectors."""
    images = [tuple(int_dot(v, col) for col in form) for v in vectors]
    return [[int_dot(a, v) for v in vectors] for a in images]


def _extended_coroot_coords(g: tuple[int, ...], u: int) -> IVec:
    """g_0 times the coordinates of the extended coroot of node u: g_0 e_u,
    or -(g_1, ..., g_n) for node 0 (sum_i g_i a_i^vee = 0)."""
    if u == 0:
        return tuple(-x for x in g[1:])
    return tuple(g[0] * (i == u) for i in range(1, len(g)))


def orbit_averages(g: tuple[int, ...], orbits) -> tuple[list[IVec], int]:
    """Coordinates of the orbit averages of the extended coroots, all times
    one common integer L; returns them and L."""
    m = lcm(*(o.size for o in orbits))
    sums = [
        map(sum, zip(*(_extended_coroot_coords(g, u) for u in o.nodes)))
        for o in orbits
    ]
    return [tuple(m // o.size * x for x in s) for o, s in zip(orbits, sums)], m * g[0]


@lru_cache(maxsize=None)
def fixed_subspace_coords(st: SimpleType, sub_: CenterSubgroup) -> tuple[IVec, ...]:
    """Simple-coroot coordinates of a basis of the subspace fixed by w_C.

    The primitive integer kernel of the stacked M_e - I over the generators
    e, computed once per (type, subgroup); the trivial subgroup fixes
    everything and gets the unit vectors.
    """
    n = st.rank
    rows = []
    for e in sub_.generators():
        m = perm_matrix_on_coroots_of(st, e.perm)
        rows.extend(tuple(m[i][j] - (i == j) for j in range(n)) for i in range(n))
    if not rows:
        return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    return tuple(kernel_basis(rows))


@lru_cache(maxsize=None)
def torus_subspace_coords(st: SimpleType, sub_: CenterSubgroup, k: int) -> tuple[IVec, ...]:
    """Simple-coroot coordinates of a basis of t^{w_C}(gbar, k).

    That is the kernel, inside the fixed subspace, of the roots of the
    orbits whose mark k does not divide (0 in the degenerate case, where
    the fixed subspace is 0).  The root of node o takes the value
    sum_i x_i n(i, o) on sum_i x_i a_i^vee, so its row is column o of the
    catalog Cartan matrix.
    """
    orbits = orbit_data(st, sub_)
    fixed = fixed_subspace_coords(st, sub_)
    cart = diagram_of(st).cartan
    rows = []
    for o in orbits.orbits:
        if o.mark % k != 0:
            col = tuple(cart[i][o.nodes[0]] for i in range(1, st.rank + 1))
            rows.append(tuple(int_dot(b, col) for b in fixed))
    if not rows:
        return fixed
    return tuple(
        tuple(sum(c * b[i] for c, b in zip(ker, fixed)) for i in range(st.rank))
        for ker in kernel_basis(rows)
    )


class ProjectedSystem(namedtuple(
    "ProjectedSystem", "type fixed_coords orbits averages scale gram diagram classified"
)):
    """type: SimpleType; fixed_coords: tuple[IVec, ...], the
    fixed_subspace_coords; orbits: OrbitSet; averages: tuple[IVec, ...],
    the projected coroots' coordinates times scale; scale: int; gram:
    tuple[IVec, ...], the averages' B-products (coroot_form); diagram:
    AffineDiagram; classified: ClassifyResult."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.fixed_coords)


@lru_cache(maxsize=None)
def project(st: SimpleType, sub_: CenterSubgroup) -> ProjectedSystem:
    """Projected-coroot system of the fixed subspace of a center subgroup."""
    g = diagram_of(st).marks
    orbits = orbit_data(st, sub_)
    span = fixed_subspace_coords(st, sub_)
    avgs, common = orbit_averages(g, orbits.orbits)
    form, s = coroot_form(st)
    prods = tuple(map(tuple, products(form, avgs)))
    if orbits.degenerate:
        if span:
            raise AssertionError("degenerate orbit with nonzero fixed space")
        dia = AffineDiagram(((2,),), (sum(g),), (Q(2),))
        res = ClassifyResult(TRIVIAL, sum(g), (0,))
        return ProjectedSystem(st, span, orbits, tuple(avgs), common, prods, dia, res)
    # dual route: each orbit average must be the orthogonal projection of
    # the orbit's first coroot x, which it is exactly when it lies in the
    # fixed subspace (the generators fix it) and x - avg is B-orthogonal to
    # the span; in ints, the residual is x L - avg g_0.  It is zero on a
    # one-node orbit (avg = m x, L = m g_0), so the walls B k are built only
    # once a residual is not
    gens = [e.perm for e in sub_.generators()]
    walls: list[IVec] = []
    for o, avg in zip(orbits.orbits, avgs):
        x = _extended_coroot_coords(g, o.nodes[0])
        residual = tuple(a * common - b * g[0] for a, b in zip(x, avg))
        if any(residual) and not walls:
            walls = [tuple(int_dot(k, col) for col in form) for k in span]
        if any(_permute(p, g, avg) != avg for p in gens) or any(
            int_dot(residual, w) for w in walls
        ):
            raise AssertionError("orbit average differs from orthogonal projection")
    if not all(map(any, avgs)):
        raise AssertionError("nonzero projection expected off the degenerate case")
    if len(orbits.orbits) != len(span) + 1:
        raise AssertionError("orbit count is not the fixed dimension plus one")
    lens = tuple(Q(row[i], s * common * common) for i, row in enumerate(prods))
    # an affine matrix has corank 1, and it is the Gram matrix of the
    # averages times a positive diagonal, so they span the fixed subspace
    try:
        dia = make_diagram(cartan_integers(prods), orbits.marks, lens)
    except DiagramError as exc:
        raise AssertionError(f"projected coroots do not span the fixed subspace: {exc}") from None
    res = classify(dia)
    if res is None:
        raise AssertionError("projected diagram failed to classify")
    return ProjectedSystem(st, span, orbits, tuple(avgs), common, prods, dia, res)


class DiagramReport(namedtuple("DiagramReport", "equal detail node_bijection", defaults=(None,))):
    """equal: bool; detail: str; node_bijection: tuple[int, ...] or None."""

    __slots__ = ()


def check_diagram1(st: SimpleType, sub_: CenterSubgroup) -> DiagramReport:
    """Node-for-node equality of the projected diagram with the quotient.

    Both sides list orbits by least original node, so the identity is the
    candidate bijection; any discrepancy is reported.
    """
    ps = project(st, sub_)
    qd = quotient_diagram(st, sub_)
    if ps.diagram.n_nodes != qd.n_nodes:
        return DiagramReport(False, "orbit counts differ")
    n = qd.n_nodes
    for i in range(n):
        if ps.diagram.marks[i] != qd.marks[i]:
            return DiagramReport(False, f"marks differ at orbit {i}")
        for j in range(n):
            if ps.diagram.cartan[i][j] != qd.cartan[i][j]:
                return DiagramReport(
                    False, f"Cartan integers differ at orbit pair ({i},{j})"
                )
    return DiagramReport(True, "projected and quotient diagrams agree", tuple(range(n)))


"""The integer simple-coroot coordinate layer: forms, projections, subspaces.

A vector sum_i x_i a_i^vee of the coroot span is its integer coordinate
tuple x.  Every extended coroot is an integer vector there (e_i, or -g/g_0
for node 0), and the form is one integer matrix B = s ((a_i^vee, a_j^vee))
per type, read off the catalog diagram (coroot_form); root_form is the
form on the simple roots up to a positive scale.  The orthogonal projector
onto a span K is K (K^T B K)^{-1} K^T B, built once per span over one
denominator from a single small inverse (projector), so projecting is int
arithmetic.  Orbit averages are scaled to ints by one common L
(orbit_averages); their pairwise B-values give the Cartan integers
(linalg.cartan_integers) and the squared lengths as exact fractions over
s L^2.

The subspaces the coordinate cross-checks work in are primitive integer
bases cached per (type, subgroup): the fixed subspace of w_C
(fixed_subspace_coords) and, inside it, the torus t^{w_C}(gbar, k)
(torus_subspace_coords), whose defining roots pair with coordinates
through rows of the integer Cartan matrix.

project() computes the orbit-projected coroots pi(a^v) = (1/n) sum of the
orbit, their exact Cartan integers and the classified type: the
coordinate-level oracle that check_diagram1 compares node for node with
the purely combinatorial quotient diagram.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .center import (
    CenterSubgroup,
    OrbitSet,
    orbit_data,
    perm_matrix_on_coroots_of,
    quotient_diagram,
)
from .diagrams import AffineDiagram, ClassifyResult, classify, diagram_of, make_diagram
from .linalg import (
    IVec,
    cartan_integers,
    int_dot,
    kernel_basis,
    rank as mat_rank,
    scaled_inverse,
)
from .rootdata import TRIVIAL, SimpleType


def _integer_form(st: SimpleType, entry) -> tuple[tuple[IVec, ...], int]:
    """The matrix of entry(cartan, sq_lengths, i, j) over the finite nodes
    of the catalog diagram, times the least positive integer s that makes
    it integral; returns it and s."""
    dia = diagram_of(st)
    nodes = range(1, dia.n_nodes)
    form = [[entry(dia.cartan, dia.sq_lengths, i, j) for j in nodes] for i in nodes]
    s = lcm(*(x.denominator for row in form for x in row))
    return tuple(tuple(int(x * s) for x in row) for row in form), s


@lru_cache(maxsize=None)
def coroot_form(st: SimpleType) -> tuple[tuple[IVec, ...], int]:
    """The form on the simple coroots as an integer matrix B, and its scale s:
    B = s ((a_i^vee, a_j^vee)), with (a_i^vee, a_j^vee) = n(i, j) |a_j^vee|^2 / 2."""
    return _integer_form(st, lambda c, sq, i, j: c[i][j] * sq[j] / 2)


@lru_cache(maxsize=None)
def root_form(st: SimpleType) -> tuple[IVec, ...]:
    """The form on the simple roots as an integer matrix, a positive multiple
    of ((a_i, a_j)) = (2 n(i, j) / |a_i^vee|^2)."""
    return _integer_form(st, lambda c, sq, i, j: 2 * c[i][j] / sq[i])[0]


def products(form, vectors) -> list[list[int]]:
    """Pairwise values of a symmetric integer form on integer coordinate vectors."""
    images = [tuple(int_dot(v, col) for col in form) for v in vectors]
    return [[int_dot(a, v) for v in vectors] for a in images]


def form_products(st: SimpleType, vectors) -> list[list[int]]:
    """Pairwise values of B on integer coroot coordinate vectors."""
    return products(coroot_form(st)[0], vectors)


@lru_cache(maxsize=None)
def projector(st: SimpleType, span: tuple[IVec, ...]) -> tuple[tuple[IVec, ...], int]:
    """Orthogonal projector onto an independent span, in coroot coordinates.

    With K the matrix whose columns span, P = K (K^T B K)^{-1} K^T B.  One
    small inverse gives it over a single denominator: returns (D P, D) as
    an integer matrix and D.
    """
    form = coroot_form(st)[0]
    kb = [tuple(int_dot(k, col) for col in form) for k in span]
    inv, den = scaled_inverse([[int_dot(a, k) for k in span] for a in kb])
    cols = list(zip(*kb))
    w = [tuple(int_dot(row, col) for col in cols) for row in inv]
    return tuple(tuple(int_dot(ka, wc) for wc in zip(*w)) for ka in zip(*span)), den


def apply_projector(p: tuple[IVec, ...], x: IVec) -> IVec:
    return tuple(int_dot(row, x) for row in p)


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

    The primitive integer kernel of the stacked M_e - I over the non-identity
    elements e, computed once per (type, subgroup); the trivial subgroup
    fixes everything and gets the unit vectors.
    """
    n = st.rank
    rows = []
    for e in sub_.elements:
        if e.is_identity:
            continue
        m = perm_matrix_on_coroots_of(st, e.perm)
        rows.extend(tuple(m[i][j] - (i == j) for j in range(n)) for i in range(n))
    if not rows:
        return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))
    return tuple(kernel_basis(rows))


@lru_cache(maxsize=None)
def torus_subspace_coords(st: SimpleType, sub_: CenterSubgroup, k: int) -> tuple[IVec, ...]:
    """Simple-coroot coordinates of a basis of t^{w_C}(gbar, k).

    That is the kernel, inside the fixed subspace, of the roots of the
    orbits whose mark k does not divide (none in the degenerate case).  The
    root of node o takes the value sum_i x_i n(i, o) on sum_i x_i a_i^vee,
    so its row is column o of the catalog Cartan matrix.
    """
    orbits = orbit_data(st, sub_)
    if orbits.degenerate:
        return ()
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


class ProjectedSystem(NamedTuple):
    type: SimpleType
    fixed_coords: tuple[IVec, ...]  # fixed_subspace_coords
    orbits: OrbitSet
    averages: tuple[IVec, ...]  # projected coroots' coordinates, times scale
    scale: int
    diagram: AffineDiagram
    classified: ClassifyResult

    @property
    def rank(self) -> int:
        return len(self.fixed_coords)


def project(st: SimpleType, sub_: CenterSubgroup) -> ProjectedSystem:
    """Projected-coroot system of the fixed subspace of a center subgroup."""
    g = diagram_of(st).marks
    orbits = orbit_data(st, sub_)
    span = fixed_subspace_coords(st, sub_)
    avgs, common = orbit_averages(g, orbits.orbits)
    if orbits.degenerate:
        if span:
            raise AssertionError("degenerate orbit with nonzero fixed space")
        dia = AffineDiagram(((2,),), (sum(g),), (Q(2),))
        res = ClassifyResult(TRIVIAL, sum(g), (0,))
        return ProjectedSystem(st, span, orbits, tuple(avgs), common, dia, res)
    # dual route: the orbit averages must be the orthogonal projections
    p, den = projector(st, span)
    for o, avg in zip(orbits.orbits, avgs):
        direct = apply_projector(p, _extended_coroot_coords(g, o.nodes[0]))
        # avg / common == direct / (den g_0)
        if any(a * den * g[0] != b * common for a, b in zip(avg, direct)):
            raise AssertionError("orbit average differs from orthogonal projection")
    if not all(map(any, avgs)):
        raise AssertionError("nonzero projection expected off the degenerate case")
    if mat_rank(avgs) != len(span):
        raise AssertionError("projected coroots do not span the fixed subspace")
    if len(orbits.orbits) != len(span) + 1:
        raise AssertionError("orbit count is not the fixed dimension plus one")
    if any(int_dot(orbits.marks, xs) for xs in zip(*avgs)):
        raise AssertionError("projected coroot relation fails")
    prods = form_products(st, avgs)
    s = coroot_form(st)[1]
    lens = tuple(Q(row[i], s * common * common) for i, row in enumerate(prods))
    dia = make_diagram(cartan_integers(prods), orbits.marks, lens)
    res = classify(dia)
    if res is None:
        raise AssertionError("projected diagram failed to classify")
    return ProjectedSystem(st, span, orbits, tuple(avgs), common, dia, res)


class DiagramReport(NamedTuple):
    equal: bool
    detail: str
    node_bijection: tuple[int, ...] | None = None


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


"""Projection and restriction root systems on the fixed subspace.

project() computes the orbit-projected coroots pi(a^v) = (1/n) sum of the
orbit, their exact Cartan integers, and the classified type: this is the
coordinate-level oracle that check_diagram1 compares against the purely
combinatorial quotient diagram.  fold() and restricted_type() classify the
restricted root system (nonzero restrictions of roots) by reflection
closure of the orbit restrictions.

The projected coroots are computed in simple-coroot coordinates, where
every extended coroot is an integer vector (e_i, or -g/g_0 for node 0) and
the form is one integer matrix B = s ((a_i^vee, a_j^vee)) per type
(coroot_form).  The orthogonal projector onto a span K is
K (K^T B K)^{-1} K^T B, built once per span over one denominator from a
single small inverse (projector), so projecting is int arithmetic.  Orbit
averages are scaled to ints by one common L (orbit_averages); their
pairwise B-values give the Cartan integers (linalg.cartan_integers) and the
squared lengths as exact fractions over s L^2.

The finite root-set machinery (reflection closure, irreducible components,
classification) runs on integer vectors.  Every catalog form is a scalar
times the identity, and the only questions asked of a root set, "is
(u, v) zero?" and "what is 2(u, v)/(v, v)?", do not change when all vectors
are scaled by one common positive integer.  So the roots are int tuples
(_integer_roots_of), restrictions are orbit averages of the int extended
roots times the LCM of the orbit sizes, and the annihilator of a subspace
is read off one per-type table of the values r(a_i^vee) on the simple
coroots, paired with the subspace's simple-coroot coordinates.  A root
set's factors are read off the Cartan matrix of one simple system of its
indivisible roots (_classify_components).
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from math import lcm
from typing import NamedTuple

from . import rootdata
from .center import (
    CenterSubgroup,
    OrbitSet,
    fixed_subspace_coords,
    orbit_data,
    quotient_diagram,
)
from .diagrams import (
    AffineDiagram,
    ClassifyResult,
    _candidate_types,
    _invariants,
    _isomorphisms,
    classify,
    connected_components,
    diagram_of,
    generated_group,
    make_diagram,
    orbits_of,
)
from .linalg import (
    IVec,
    Vec,
    cartan_integers,
    int_dot,
    kernel_basis,
    rank as mat_rank,
    scaled_inverse,
    to_int,
)
from .rootdata import TRIVIAL, SimpleType


class ProjectedSystem(NamedTuple):
    type: SimpleType
    fixed_coords: tuple[IVec, ...]  # center.fixed_subspace_coords
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
    d = rootdata.datum(st)
    orbits = orbit_data(st, sub_)
    span = fixed_subspace_coords(st, sub_)
    avgs, common = orbit_averages(d.g, orbits.orbits)
    if orbits.degenerate:
        if span:
            raise AssertionError("degenerate orbit with nonzero fixed space")
        dia = AffineDiagram(((2,),), (sum(d.g),), (Q(2),))
        res = ClassifyResult(TRIVIAL, sum(d.g), (0,))
        return ProjectedSystem(st, span, orbits, tuple(avgs), common, dia, res)
    # dual route: the orbit averages must be the orthogonal projections
    p, den = projector(st, span)
    for o, avg in zip(orbits.orbits, avgs):
        direct = apply_projector(p, _extended_coroot_coords(d.g, o.nodes[0]))
        # avg / common == direct / (den g_0)
        if any(a * den * d.g[0] != b * common for a, b in zip(avg, direct)):
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


@lru_cache(maxsize=None)
def coroot_form(st: SimpleType) -> tuple[tuple[IVec, ...], int]:
    """The form on the simple coroots as an integer matrix B, and its scale s.

    B = s ((a_i^vee, a_j^vee)) for the least positive integer s; each entry
    (a_i^vee, a_j^vee) = n(i, j) |a_j^vee|^2 / 2 is read off the catalog
    diagram.
    """
    dia = diagram_of(st)
    nodes = range(1, dia.n_nodes)
    form = [[dia.cartan[i][j] * dia.sq_lengths[j] / 2 for j in nodes] for i in nodes]
    s = lcm(*(x.denominator for row in form for x in row))
    return tuple(tuple(int(x * s) for x in row) for row in form), s


def form_products(st: SimpleType, vectors) -> list[list[int]]:
    """Pairwise values of B on integer coordinate vectors."""
    form = coroot_form(st)[0]
    images = [tuple(int_dot(v, col) for col in form) for v in vectors]
    return [[int_dot(a, v) for v in vectors] for a in images]


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


# ---------------------------------------------------------------------------
# Finite root-set machinery (restriction side)

# every root times this scale is an int tuple (the LCM of its denominators)
_ROOT_SCALE = {"C": 2, "BC": 2, "E": 2, "F": 2}


@lru_cache(maxsize=None)
def all_roots_of(st: SimpleType) -> tuple[Vec, ...]:
    """Every root of a catalog type as an exact vector, in sorted order."""
    s = _ROOT_SCALE.get(st.family, 1)
    return tuple(tuple(Q(x, s) for x in v) for v in _integer_roots_of(st))


@lru_cache(maxsize=None)
def _integer_roots_of(st: SimpleType) -> tuple[IVec, ...]:
    """Every root of a catalog type times _ROOT_SCALE, generated directly as
    int tuples, in sorted order.

    The count is checked against the known cardinality for each family, and
    the scaled simple roots must be among the generated ones.
    """
    d = rootdata.datum(st)
    fam, n = st.family, st.rank
    dim = d.ambient_dim
    out: set[IVec] = set()

    def axes(m, c):
        for i in range(m):
            for x in (c, -c):
                out.add(tuple(x if k == i else 0 for k in range(dim)))

    def pairs(m, c, signs=((1, 1), (1, -1), (-1, 1), (-1, -1))):
        for i in range(m):
            for j in range(i + 1, m):
                for si, sj in signs:
                    v = [0] * dim
                    v[i], v[j] = si * c, sj * c
                    out.add(tuple(v))

    if fam == "A":
        pairs(n + 1, 1, ((1, -1), (-1, 1)))
        expect = n * (n + 1)
    elif fam in ("B", "C", "D", "BC"):
        pairs(n, 1)
        if fam in ("B", "BC"):
            axes(n, 1)
        if fam in ("C", "BC"):
            axes(n, 2)
        expect = {
            "B": 2 * n * n,
            "C": 2 * n * n,
            "D": 2 * n * (n - 1),
            "BC": 2 * n * n + 2 * n,
        }[fam]
    elif fam == "E":
        # E8 in the even coordinate system; E7/E6 are the roots lying in the
        # span of their simple roots
        pairs(8, 2)
        out.update(v for v in product((1, -1), repeat=8) if v.count(-1) % 2 == 0)
        if n < 8:
            # v lies in the span S of the simple coroots exactly when it is
            # orthogonal to the kernel S^perp of the matrix whose rows are S
            perp = kernel_basis(d.extended_coroots[1:])
            out = {v for v in out if not any(int_dot(v, c) for c in perp)}
        expect = {6: 72, 7: 126, 8: 240}[n]
    elif fam == "F":
        axes(4, 2)
        pairs(4, 2)
        out.update(product((1, -1), repeat=4))
        expect = 48
    elif fam == "G":
        pairs(3, 1, ((1, -1), (-1, 1)))
        for i in range(3):
            v = tuple(2 if k == i else -1 for k in range(3))
            out.update((v, tuple(-x for x in v)))
        expect = 12
    else:  # pragma: no cover
        raise AssertionError(fam)
    if len(out) != expect:
        raise AssertionError(f"generated {len(out)} roots for {st}, expected {expect}")
    s = _ROOT_SCALE.get(fam, 1)
    if any(tuple(s * x for x in v) not in out for v in d.extended_roots[1:]):
        raise AssertionError("simple roots missing from the generated root set")
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _root_coroot_values(st: SimpleType) -> tuple[IVec, ...]:
    """The values r(a_i^vee) of every root (in _integer_roots_of order) on
    the simple coroots, all times one positive integer: the roots and the
    coroots are int tuples and the form is a scalar times the identity."""
    d = rootdata.datum(st)
    roots, columns = _integer_roots_of(st), []
    for c in to_int(d.coroot_lattice_basis, d.gram)[0]:
        col = [0] * len(roots)
        for k in (k for k, x in enumerate(c) if x):  # a coroot has few nonzero entries
            col = [v + r[k] * c[k] for v, r in zip(col, roots)]
        columns.append(col)
    return tuple(zip(*columns))


def annihilator_factors(st: SimpleType, coords) -> list[SimpleType]:
    """Simple factors of the root subsystem vanishing on a subspace, given
    by the simple-coroot coordinates of a basis.

    A root r takes the value sum_i x_i r(a_i^vee) on sum_i x_i a_i^vee.
    """
    return _classify_components([
        r
        for r, values in zip(_integer_roots_of(st), _root_coroot_values(st))
        if not any(int_dot(values, x) for x in coords)
    ])


def _classify_components(roots: list[IVec]) -> list[SimpleType]:
    """Types of the irreducible factors of a finite (possibly non-reduced)
    root system, sorted: the components of the Cartan matrix of a simple
    system of the indivisible roots.  The roots v with 2v a root form a Weyl
    group orbit, which meets the simple roots: a factor is BC when twice one
    of its simple roots is a root."""
    if not roots:
        return []
    rset = set(roots)
    # v / 2 can only be a root when it is an int tuple at the same scale
    simples = _simple_system([
        v for v in roots if any(x % 2 for x in v) or tuple(x // 2 for x in v) not in rset
    ])
    cartan = cartan_integers([[int_dot(a, b) for b in simples] for a in simples])
    types = []
    for block in connected_components(range(len(simples)), lambda i, j: cartan[i][j]):
        st = classify_finite_cartan([[cartan[i][j] for j in block] for i in block])
        if any(tuple(2 * x for x in simples[i]) in rset for i in block):
            st = SimpleType("BC", st.rank)
        types.append(st)
    return sorted(types)


def _reflection_closure(seeds: list[IVec]) -> set[IVec]:
    """The orbit of the seeds under the group their reflections generate.

    That group already contains the reflection in every root of the orbit
    (s_{w a} = w s_a w^-1), so the orbit is the closure under all of them
    (Bourbaki, Lie Groups VI 1.5); it holds -a = s_a(a) as well.  Each new
    root is reflected in the seeds only.
    """
    walls = [(u, int_dot(u, u)) for u in dict.fromkeys(seeds)]
    roots = set(seeds)
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        for u, uu in walls:
            c, r = divmod(2 * int_dot(v, u), uu)
            if r:
                raise AssertionError("non-integral reflection coefficient")
            if c:
                w = tuple(x - c * y for x, y in zip(v, u))
                if w not in roots:
                    roots.add(w)
                    frontier.append(w)
    return roots


def _simple_system(roots: list[IVec]) -> list[IVec]:
    """Simple roots of a reduced root system for a generic functional, sorted.

    The positive roots are scanned by increasing value: one that is not
    simple is a simple root found before it plus a positive root (Humphreys,
    Introduction to Lie Algebras, 10.2 Lemma A)."""
    dim = len(roots[0])
    t = 1
    while True:
        weights = tuple(t**i for i in range(dim))
        vals = {int_dot(v, weights) for v in roots}
        if 0 not in vals and len(vals) == len(roots):
            break
        t += 1
    pos = sorted((h, v) for v in roots if (h := int_dot(v, weights)) > 0)
    pset = {v for _, v in pos}
    simples: list[IVec] = []
    for _, a in pos:
        if not any(tuple(x - y for x, y in zip(a, b)) in pset for b in simples):
            simples.append(a)
    return sorted(simples)


def classify_finite_cartan(cartan) -> SimpleType:
    """Match an indecomposable finite Cartan matrix against the catalog.

    Both sides are diagrams with unit marks, matched by the one isomorphism
    search; a decomposable matrix matches no catalog one.  B_n and C_n come
    before BC_n, whose finite part is B_n (C_2, A_1 for n < 3).
    """
    n = len(cartan)
    if n == 0:
        return TRIVIAL
    probe = AffineDiagram(tuple(tuple(int(x) for x in row) for row in cartan), (1,) * n, ())
    inv = _invariants(probe)
    for st in _candidate_types(n):
        if _isomorphisms(probe, inv, *_catalog_finite(st), first_only=True):
            return st
    raise AssertionError("unrecognized finite Cartan matrix")


@lru_cache(maxsize=None)
def _catalog_finite(st: SimpleType) -> tuple[AffineDiagram, tuple]:
    # the catalog stores the coroot-side matrix; the root-side one is its
    # transpose (n(a,b) = n(b^v, a^v))
    cat = diagram_of(st).cartan
    nodes = range(1, st.rank + 1)
    fin = AffineDiagram(
        tuple(tuple(cat[j][i] for j in nodes) for i in nodes), (1,) * st.rank, ()
    )
    return fin, _invariants(fin)


# ---------------------------------------------------------------------------
# Restricted root systems: outer foldings and center subgroups


def fold(st: SimpleType, tau: tuple[int, ...]) -> SimpleType:
    """Type of the restricted root system of a finite-diagram automorphism.

    tau is a permutation of nodes 0..n fixing 0 (the extended node) or of
    1..n given on the finite nodes; it must preserve the finite Cartan
    matrix.
    """
    d = rootdata.datum(st)
    n = d.rank
    if len(tau) == n:
        tau = (0,) + tuple(tau)
    if len(tau) != n + 1 or tau[0] != 0 or sorted(tau) != list(range(n + 1)):
        raise ValueError("tau must be a permutation of the finite nodes")
    cart = rootdata.extended_cartan(st)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if cart[tau[i]][tau[j]] != cart[i][j]:
                raise ValueError("tau is not an automorphism of the finite diagram")
    if tau == tuple(range(n + 1)):
        return st
    # node 0 is fixed; its orbit is the first one
    orbits = orbits_of(generated_group([tau], n + 1), n + 1)[1:]
    return _restricted_from_orbits(d, orbits)


def restricted_type(st: SimpleType, sub_: CenterSubgroup) -> SimpleType:
    """Type of the restricted root system of a center subgroup's Weyl part."""
    d = rootdata.datum(st)
    orbits = orbit_data(st, sub_)
    if orbits.degenerate:
        return TRIVIAL
    return _restricted_from_orbits(d, [o.nodes for o in orbits.orbits])


def _restricted_from_orbits(d, orbits) -> SimpleType:
    """Classify restrictions of the (extended) roots to the fixed subspace.

    The restriction of an orbit is the orbit average of its roots, taken
    here on the int extended roots times the LCM of the orbit sizes.  The
    orbit restrictions generate the restricted system under reflections
    once the doubled restrictions of exceptional orbits (bonded A_2 pairs)
    are thrown in.
    """
    roots = to_int(d.extended_roots, d.gram)[0]
    m = lcm(*(len(o) for o in orbits))
    avgs = [tuple(m // len(o) * sum(xs) for xs in zip(*(roots[u] for u in o))) for o in orbits]
    fixed_dim = mat_rank(avgs)
    cart = diagram_of(d.type).cartan
    seeds = []
    for o, avg in zip(orbits, avgs):
        if not any(avg):
            continue
        seeds.append(avg)
        if any(cart[u][v] for i, u in enumerate(o) for v in o[i + 1 :]):
            seeds.append(tuple(2 * x for x in avg))
    factors = _classify_components(list(_reflection_closure(seeds)))
    if len(factors) != 1 or factors[0].rank != fixed_dim:
        raise AssertionError(f"restricted factors {factors}, want one of rank {fixed_dim}")
    return factors[0]


def nonmultipliable(st: SimpleType) -> SimpleType:
    """The subsystem of non-multipliable roots (BC_n -> C_n)."""
    if st.family != "BC":
        return st
    if st.rank == 1:
        return SimpleType("A", 1)
    return SimpleType("C", st.rank)


def projection_type(st: SimpleType, sub_: CenterSubgroup) -> SimpleType:
    """Type of the full projection root system (possibly non-reduced).

    The classified quotient type already carries the BC label when the
    projected simple coroots are non-reduced; an exceptional orbit upgrades
    a reduced C-type answer to BC because the exceptional pair sums also
    project to coroots.
    """
    cls = project(st, sub_).classified.type
    has_exceptional = any(o.eps == 2 for o in orbit_data(st, sub_).orbits)
    if cls.family == "BC" or not has_exceptional:
        return cls
    if cls == SimpleType("A", 1) or cls.family == "C":
        return SimpleType("BC", cls.rank)
    raise AssertionError("exceptional orbit with non-C classified quotient")

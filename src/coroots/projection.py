"""Root systems on the fixed subspace: annihilators and restrictions.

fold() and restricted_type() classify the restricted root system (nonzero
restrictions of roots) by reflection closure of the orbit restrictions;
annihilator_factors() gives the simple factors of the roots vanishing on a
subspace; projection_type() labels the projected-coroot system that
coords.project() builds.  Everything is read off the catalog diagram and
computed in integer coordinates, with no ambient realization.

Roots live in simple-root coordinates, with products through the integer
root form ((a_i, a_j)) up to a positive scale (coords.root_form).
root_system generates every root from the Cartan matrix by the
root-string rule, with its values on the simple coroots; the annihilator
of a subspace keeps the roots whose values vanish on the subspace's
simple-coroot coordinates.  Restrictions are orbit averages of the
extended roots (e_i, or -h for node 0) times the LCM of the orbit sizes.
Scaling all vectors by one positive integer, or the form by a positive
scalar, changes neither "is (u, v) zero?" nor 2(u, v)/(v, v), the only
questions asked of a root set.  A root set's factors are read off the
Cartan matrix of one simple system of its indivisible roots
(_classify_components).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from . import rootdata
from .center import CenterSubgroup, orbit_data
# check_diagram1 is imported for perfbench's worker, which reads it here
from .coords import check_diagram1, products, project, root_form  # noqa: F401
from .diagrams import (
    AffineDiagram,
    _candidate_types,
    _invariants,
    _isomorphisms,
    connected_components,
    diagram_of,
    generated_group,
    orbits_of,
)
from .linalg import IVec, Vec, cartan_integers, int_dot, rank as mat_rank
from .rootdata import TRIVIAL, SimpleType


# ---------------------------------------------------------------------------
# Finite root-set machinery (restriction side)

# number of roots of each family, the check on the generated root set
_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
    "BC": lambda n: 2 * n * (n + 1),
}


@lru_cache(maxsize=None)
def root_system(st: SimpleType) -> tuple[tuple[IVec, ...], tuple[IVec, ...]]:
    """Every root of a catalog type in simple-root coordinates, and the
    values r(a_i^vee) of each on the simple coroots.

    The positive roots are generated height by height from the simple ones
    (Humphreys, Introduction to Lie Algebras, 9.4 and 10.1).  The a_j-string
    through a positive root r is r - p a_j, ..., r + q a_j with
    p - q = r(a_j^vee), and p is known once the lower heights are, so r + a_j
    is a root exactly when r(a_j^vee) < p.  Since a_j(a_i^vee) = n(i, j), the
    values of r + a_j are those of r plus column j of the table.  BC_n adds
    the doubles of its short roots.  The count is checked per family.
    """
    cart, n = rootdata.extended_cartan(st), st.rank
    cols = [tuple(cart[i][j] for i in range(1, n + 1)) for j in range(1, n + 1)]
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    values = dict(zip(units, cols))
    layer = units
    while layer:
        nxt = []
        for r in layer:
            vr = values[r]
            for j in range(n):
                if vr[j] >= 0:  # a root needs p > 0, so r - a_j >= 0
                    if not r[j]:
                        continue
                    p, down = 0, list(r)
                    down[j] -= 1
                    while tuple(down) in values:
                        p += 1
                        down[j] -= 1
                    if vr[j] >= p:
                        continue
                up = r[:j] + (r[j] + 1,) + r[j + 1 :]
                if up not in values:
                    values[up] = tuple(x + y for x, y in zip(vr, cols[j]))
                    nxt.append(up)
        layer = nxt
    roots = list(values.items())
    roots += [(tuple(-x for x in r), tuple(-x for x in v)) for r, v in roots]
    if st.family == "BC":
        # (r, r) = sum_i r_i (r, a_i) = sum_i r_i r(a_i^vee) (a_i, a_i) / 2
        diag = [row[i] for i, row in enumerate(root_form(st))]
        sq = [sum(x * y * z for x, y, z in zip(r, v, diag)) for r, v in roots]
        short = min(sq)
        roots += [
            (tuple(2 * x for x in r), tuple(2 * x for x in v))
            for (r, v), x in zip(roots, sq)
            if x == short
        ]
    if len(roots) != _ROOT_COUNT[st.family](n):
        raise AssertionError(f"generated {len(roots)} roots for {st}")
    return tuple(r for r, _ in roots), tuple(v for _, v in roots)


@lru_cache(maxsize=None)
def all_roots_of(st: SimpleType) -> tuple[Vec, ...]:
    """Every root of a catalog type as an exact vector of its datum, in
    sorted order.  Only the tests and the stage benchmark read it."""
    from .ambient import ambient_roots

    return tuple(sorted(ambient_roots(st, root_system(st)[0])))


def annihilator_factors(st: SimpleType, coords) -> list[SimpleType]:
    """Simple factors of the root subsystem vanishing on a subspace, given
    by the simple-coroot coordinates of a basis.

    A root r takes the value sum_i x_i r(a_i^vee) on sum_i x_i a_i^vee.
    """
    roots, values = root_system(st)
    return _classify_components(
        [r for r, v in zip(roots, values) if not any(int_dot(v, x) for x in coords)],
        root_form(st),
    )


def _classify_components(roots: list[IVec], form) -> list[SimpleType]:
    """Types of the irreducible factors of a finite (possibly non-reduced)
    root system, sorted: the components of the Cartan matrix, under the
    integer form, of a simple system of the indivisible roots.  The roots v
    with 2v a root form a Weyl group orbit, which meets the simple roots: a
    factor is BC when twice one of its simple roots is a root."""
    if not roots:
        return []
    rset = set(roots)
    # v / 2 can only be a root when it is an int tuple at the same scale
    simples = _simple_system([
        v for v in roots if any(x % 2 for x in v) or tuple(x // 2 for x in v) not in rset
    ])
    cartan = cartan_integers(products(form, simples))
    types = []
    for block in connected_components(range(len(simples)), lambda i, j: cartan[i][j]):
        st = classify_finite_cartan([[cartan[i][j] for j in block] for i in block])
        if any(tuple(2 * x for x in simples[i]) in rset for i in block):
            st = SimpleType("BC", st.rank)
        types.append(st)
    return sorted(types)


def _reflection_closure(seeds: list[IVec], form) -> set[IVec]:
    """The orbit of the seeds under the group their reflections generate,
    with products through the symmetric integer form.

    That group already contains the reflection in every root of the orbit
    (s_{w a} = w s_a w^-1), so the orbit is the closure under all of them
    (Bourbaki, Lie Groups VI 1.5); it holds -a = s_a(a) as well.  Each new
    root is reflected in the seeds only.
    """
    walls = []
    for u in dict.fromkeys(seeds):
        bu = tuple(int_dot(u, col) for col in form)
        walls.append((u, bu, int_dot(u, bu)))
    roots = set(seeds)
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        for u, bu, uu in walls:
            c, r = divmod(2 * int_dot(v, bu), uu)
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
    n = st.rank
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
    return _restricted_from_orbits(st, orbits)


def restricted_type(st: SimpleType, sub_: CenterSubgroup) -> SimpleType:
    """Type of the restricted root system of a center subgroup's Weyl part."""
    orbits = orbit_data(st, sub_)
    if orbits.degenerate:
        return TRIVIAL
    return _restricted_from_orbits(st, [o.nodes for o in orbits.orbits])


def _restricted_from_orbits(st: SimpleType, orbits) -> SimpleType:
    """Classify restrictions of the (extended) roots to the fixed subspace.

    The restriction of an orbit is the orbit average of its roots, taken
    here in simple-root coordinates (e_i for node i, -h for node 0, as
    sum_i h_i a_i = 0) times the LCM of the orbit sizes.  The orbit
    restrictions generate the restricted system under reflections once the
    doubled restrictions of exceptional orbits (bonded A_2 pairs) are
    thrown in.
    """
    h, n = rootdata.root_integers(st), st.rank
    roots = [tuple(-x for x in h[1:])]
    roots += [tuple(int(k == i) for k in range(1, n + 1)) for i in range(1, n + 1)]
    m = lcm(*(len(o) for o in orbits))
    avgs = [tuple(m // len(o) * sum(xs) for xs in zip(*(roots[u] for u in o))) for o in orbits]
    fixed_dim = mat_rank(avgs)
    cart = diagram_of(st).cartan
    seeds = []
    for o, avg in zip(orbits, avgs):
        if not any(avg):
            continue
        seeds.append(avg)
        if any(cart[u][v] for i, u in enumerate(o) for v in o[i + 1 :]):
            seeds.append(tuple(2 * x for x in avg))
    form = root_form(st)
    factors = _classify_components(list(_reflection_closure(seeds, form)), form)
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

"""Root systems on a subspace: restrictions and annihilators.

fold() and restricted_type() classify the restricted root system (the
nonzero restrictions of the roots) on the subspace fixed by a diagram
automorphism or by a center subgroup's Weyl part w_C, and
annihilator_factors() gives the simple factors of the roots vanishing on a
subspace.  No query enumerates roots: both walk a basis of the subspace
into the dominant chamber (_chamber_walk), after which the roots vanishing
on it are the parabolic subsystem on the simple roots J vanishing there,
and the restricted simple roots are the distinct restrictions of the
other simple roots.  projection_type() labels the projected-coroot system
that coords.project() builds.  Everything is read off the catalog diagram
and computed in integer coordinates, with no ambient realization;
all_roots_of (for the tests) closes the simple roots under reflections.

A subspace is given by the simple-coroot coordinates of a basis, and a
root by its values on that basis.  Roots live in simple-root coordinates
only in all_roots_of, with products through the integer root form
((a_i, a_j)) up to a positive scale (coords.root_form).
"""

from __future__ import annotations

from functools import lru_cache

from . import rootdata
from .center import CenterSubgroup, orbit_data
# check_diagram1 is imported for perfbench's worker, which reads it here
from .coords import (  # noqa: F401
    check_diagram1,
    coroot_form,
    fixed_subspace_coords,
    products,
    project,
    root_form,
)
from .diagrams import (
    _candidate_types,
    _ints,
    _invariants,
    _isomorphisms,
    closure,
    connected_components,
    generated_group,
    orbits_of,
)
from .linalg import IVec, cartan_integers, int_dot, scaled_inverse
from .rootdata import TRIVIAL, SimpleType


# ---------------------------------------------------------------------------
# Every root of a type, for the tests

@lru_cache(maxsize=None)
def all_roots_of(st: SimpleType) -> tuple[tuple, ...]:
    """Every root of a catalog type as an exact vector of its datum, in
    sorted order: the reflection closure of the simple roots, plus the
    doubles of the short roots for BC.  Only the tests and the stage
    benchmark read it."""
    from .ambient import ambient_roots

    form, n = root_form(st), st.rank
    roots = _reflection_closure([tuple(int(i == j) for i in range(n)) for j in range(n)], form)
    if st.family == "BC":
        short = min(row[i] for i, row in enumerate(form))
        roots |= {tuple(2 * x for x in r) for r in roots if products(form, [r]) == [[short]]}
    return tuple(sorted(ambient_roots(st, roots)))


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

    def reflections(v: IVec):
        for u, bu, uu in walls:
            c, r = divmod(2 * int_dot(v, bu), uu)
            if r:
                raise AssertionError("non-integral reflection coefficient")
            if c:
                yield tuple(x - c * y for x, y in zip(v, u))

    return closure(seeds, reflections)


# ---------------------------------------------------------------------------
# The chamber walk, annihilators and the finite classifier


def _chamber_walk(cart, coords) -> tuple[list[list[int]], set[int]]:
    """Walk a basis of a subspace X, given by the simple-coroot coordinates
    of its vectors, into a dominant position u X by one Weyl group element
    u; returns the values a_j(u x) of each basis vector x and the set J of
    simple roots vanishing on u X.  cart is the finite Cartan matrix,
    cart[i][j] = a_i(a_j^vee).

    Each basis vector x in turn is walked into the dominant chamber of the
    simple roots J that vanish on the vectors before it, by reflections s_k
    (k in J) with a_k(x) < 0, which fix those vectors; later vectors move
    with x.  The roots vanishing on a dominant point are those on the
    simple roots vanishing there (Humphreys, Introduction to Lie Algebras,
    10.3 Lemma B), so J shrinks to those.  x is held as its values a_j(x),
    which s_k changes by a_k(x) times column k of cart.
    """
    values = [[int_dot(row, x) for row in cart] for x in coords]
    bonds = [[(j, a) for j, a in enumerate(col) if a] for col in zip(*cart)]
    live = set(range(len(cart)))
    for t, vals in enumerate(values):
        stack = [k for k in live if vals[k] < 0]
        while stack:
            k = stack.pop()
            if vals[k] >= 0:
                continue
            for later in values[t:]:
                c = later[k]
                if c:
                    for j, a in bonds[k]:
                        later[j] -= c * a
            stack += [j for j, _ in bonds[k] if j in live and vals[j] < 0]
        live = {k for k in live if not vals[k]}
    return values, live


@lru_cache(maxsize=None)
def annihilator_factors(st: SimpleType, coords: tuple[IVec, ...]) -> tuple[SimpleType, ...]:
    """Simple factors of the root subsystem vanishing on a subspace, given
    by the simple-coroot coordinates of a basis (a tuple of int tuples, as
    coords.torus_subspace_coords returns it), once per (type, basis).

    They are the components of the diagram on the simple roots J that
    vanish on the walked subspace (_chamber_walk); a BC factor holds a
    doubling short root.
    """
    cart = _catalog_finite(st)[0]
    live = _chamber_walk(cart, coords)[1]
    diag = [row[i] for i, row in enumerate(root_form(st))]
    doubled = {i for i, x in enumerate(diag) if st.family == "BC" and x == min(diag)}
    types = []
    for block in connected_components(sorted(live), lambda i, j: cart[i][j]):
        ft = _classify_finite(tuple(tuple(cart[i][j] for j in block) for i in block))[0]
        types.append(SimpleType("BC", ft.rank) if doubled & set(block) else ft)
    return tuple(sorted(types))


def classify_finite_cartan(cartan) -> SimpleType:
    """Match an indecomposable finite Cartan matrix against the catalog.

    Both sides are matched by the one isomorphism search on their Cartan
    integers; a decomposable matrix matches no catalog one.  B_n and C_n come
    before BC_n, whose finite part is B_n (C_2, A_1 for n < 3).  A
    non-integral entry raises DiagramError.
    """
    return _classify_finite(tuple(_ints(row, "cartan entry") for row in cartan))[0]


@lru_cache(maxsize=None)
def _classify_finite(cartan: tuple[IVec, ...]) -> tuple[SimpleType, tuple[int, ...]]:
    """classify_finite_cartan on a matrix of ints, once per matrix, and a
    node map: input node i is the catalog type's finite node map[i] + 1."""
    n = len(cartan)
    if n == 0:
        return TRIVIAL, ()
    inv = _invariants(cartan)
    for st in _candidate_types(n):
        iso = _isomorphisms(cartan, inv, *_catalog_finite(st), first_only=True)
        if iso:
            return st, iso[0]
    raise AssertionError("unrecognized finite Cartan matrix")


@lru_cache(maxsize=None)
def _catalog_finite(st: SimpleType) -> tuple[tuple[IVec, ...], tuple]:
    # the catalog stores the coroot-side matrix; the root-side one is its
    # transpose (n(a,b) = n(b^v, a^v))
    fin = tuple(zip(*(row[1:] for row in rootdata.extended_cartan(st)[1:])))
    return fin, _invariants(fin)


# ---------------------------------------------------------------------------
# Restricted root systems: outer foldings and center subgroups


def fold(st: SimpleType, tau: tuple[int, ...]) -> SimpleType:
    """Type of the restricted root system of a finite-diagram automorphism.

    tau is a permutation of nodes 0..n fixing 0 (the extended node) or of
    1..n given on the finite nodes; it must preserve the finite Cartan
    matrix.  The fixed subspace is spanned by the tau-orbit sums of the
    simple coroots.
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
    return _restricted(st, tuple(tuple(int(i in o) for i in range(1, n + 1)) for o in orbits))


def restricted_type(st: SimpleType, sub_: CenterSubgroup) -> SimpleType:
    """Type of the restricted root system of a center subgroup's Weyl part,
    on its fixed subspace (coords.fixed_subspace_coords); the trivial
    subgroup fixes everything."""
    if sub_.is_trivial:
        return st
    return _restricted(st, fixed_subspace_coords(st, sub_))


def _restricted(st: SimpleType, coords: tuple[IVec, ...]) -> SimpleType:
    """Type of the restricted root system on a subspace X of a reduced
    type, given by the simple-coroot coordinates of a basis.

    After the walk (_chamber_walk) every positive root is lexicographically
    nonnegative on the walked basis, and zero exactly on the roots of J, so
    the restrictions of the other simple roots span the positive
    restrictions.  Grouped by their values, they are the restricted simple
    roots when there are dim X groups.  For the fixed subspace of an
    element of W, a flat (Steinberg's fixer theorem), each group is one
    simple root; for a diagram automorphism it is an orbit.

    A restriction with values v on the basis is B-dual to the vector with
    coordinates G^-1 v in it, G the B-Gram matrix of the basis, which the
    walk keeps (B is W-invariant); so two restrictions pair as v^T G^-1 w.
    The roots
    restricting to multiples of a group S's restriction are those of the
    subdiagram on J and S, and a root of a component C of it restricts to
    its coefficients summed over S times that: at most the sum for the
    highest root of C.  The system is BC when that sum is 2 for some C.
    """
    cart = _catalog_finite(st)[0]
    values, live = _chamber_walk(cart, coords)
    groups: dict[IVec, list[int]] = {}
    for j in range(st.rank):
        if j not in live:
            groups.setdefault(tuple(v[j] for v in values), []).append(j)
    if len(groups) != len(coords):
        raise AssertionError(f"{len(groups)} restricted simple roots in dimension {len(coords)}")
    inv, _ = scaled_inverse(products(coroot_form(st)[0], coords))
    res = _classify_finite(cartan_integers(products(inv, list(groups))))[0]
    doubles = False
    for group in groups.values():
        for block in connected_components(sorted(live.union(group)), lambda i, j: cart[i][j]):
            if live.issuperset(block):
                continue
            ft, node_map = _classify_finite(tuple(tuple(cart[i][j] for j in block) for i in block))
            h = rootdata.root_integers(ft)
            c = sum(h[node_map[p] + 1] for p, i in enumerate(block) if i in group)
            if c > 2:
                raise AssertionError(f"a root restricts to {c} times a restricted simple root")
            doubles = doubles or c == 2
    return SimpleType("BC", res.rank) if doubles else res


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

"""Center elements realized as diagram automorphisms via the alcove oracle.

A central element c corresponds to the alcove vertex exponentiating to it
(node 0 = identity, otherwise a node with root integer 1).  Its Weyl part
is computed, never transcribed: among all diagram automorphisms of the
extended coroot diagram, exactly one induces an affine map
t -> w(t - zeta_{c^-1}) that permutes the alcove vertices and translates
the central vertices by c.  That automorphism is nu(c).  A map sending the
alcove onto itself sends the vertex off wall i to the vertex off wall
perm[i], so the oracle maps each vertex once, against that one image, and
the translation is the identity perm[d] = c + d on the central nodes.
Every center subgroup is the closure of its generators' automorphisms
under composition, so the oracle runs on generators only.  Each generator
acts on the central nodes as translation by its node under the group law
(nu's node test), and composing translations adds them, so the closure
obeys that law; center_group checks that it reaches the central nodes.

The oracle runs on int tuples: the alcove vertices' simple-coroot
coordinates times L, the LCM of their denominators
(rootdata.alcove_int_coords; the coordinate map is injective on the coroot
span).  There an automorphism acts as a permutation of the coordinates
plus, when it moves the extended node, one step along the relation
sum_i g_i a_i^vee = 0.  Every group type has g_0 = 1, so that step is an
integer; a step with g_0 != 1 raises AssertionError.  The group law the
oracle checks against looks up the scaled coordinates' residues mod L
(rootdata.center_element_sum), and an automorphism's matrix on the
coroots is an integer matrix (perm_matrix_on_coroots_of).

quotient_diagram is the one cached quotient of the extended diagram by a
subgroup, and orbit_data the one cached orbit set, shared by every
consumer.  The subspaces of the coordinate cross-checks (the fixed
subspace of w_C and the tori t^{w_C}(gbar, k)) are in coroots.coords.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import rootdata
from .diagrams import (
    AffineDiagram,
    automorphism_group,
    connected_components,
    diagram_of,
    generated_group,
    orbit_kind,
    orbits_of,
    quotient,
)
from .linalg import IVec, transpose
from .rootdata import SimpleType


class CenterElement(namedtuple("CenterElement", "node perm order")):
    """node: int; perm: tuple[int, ...]; order: int."""

    __slots__ = ()

    @property
    def is_identity(self) -> bool:
        return self.node == 0


class CenterSubgroup(namedtuple("CenterSubgroup", "type elements")):
    """type: SimpleType; elements: tuple[CenterElement, ...], sorted by
    node id, identity first."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(e.node for e in self.elements)

    def perms(self) -> list[tuple[int, ...]]:
        return [e.perm for e in self.elements]

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_cyclic(self) -> bool:
        return any(e.order == self.order for e in self.elements)

    def generator(self) -> CenterElement:
        """Smallest-node element of maximal order (for cyclic subgroups)."""
        best = max(self.elements, key=lambda e: (e.order, -e.node))
        if best.order != self.order:
            raise ValueError("subgroup is not cyclic")
        return best

    def generators(self) -> tuple[CenterElement, ...]:
        """The non-identity generators: one for a cyclic subgroup, every
        element of Z/2 x Z/2.  What they fix, the subgroup fixes."""
        gens = (self.generator(),) if self.is_cyclic else self.elements
        return tuple(e for e in gens if not e.is_identity)

    def describe(self) -> str:
        if self.is_trivial:
            return "trivial"
        kind = "cyclic" if self.is_cyclic else "Z/2 x Z/2"
        return f"order {self.order} ({kind}), nodes {list(self.nodes)}"


def _permute(perm: tuple[int, ...], g: tuple[int, ...], x: IVec) -> IVec:
    """Coordinates of the image of sum_i x_i a_i^vee under a_i^vee -> a_{perm[i]}^vee.

    A coroot sent to the extended node contributes -x_i (g_1..g_n), from
    sum_i g_i a_i^vee = 0; that step is integral because g_0 = 1.
    """
    y = [0] * len(x)
    shift = 0
    for xi, j in zip(x, perm[1:]):
        if j:
            y[j - 1] += xi
        elif g[0] != 1:
            raise AssertionError(f"coroot relation has g_0 = {g[0]}, not 1")
        else:
            shift = xi
    if shift:
        y = [yj - shift * gj for yj, gj in zip(y, g[1:])]
    return tuple(y)


@lru_cache(maxsize=None)
def perm_matrix_on_coroots_of(st: SimpleType, perm: tuple[int, ...]) -> tuple[IVec, ...]:
    """Integer matrix (in the simple-coroot basis) of the linear map sending
    the extended coroot of node i to that of perm[i].

    Column i is e_{perm[i]}, or the coordinates -(g_1..g_n) of the extended
    coroot when perm[i] = 0.
    """
    g = diagram_of(st).marks
    n = st.rank
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    return transpose(tuple(_permute(perm, g, e) for e in units))


@lru_cache(maxsize=None)
def _aut_group(st: SimpleType) -> tuple[tuple[int, ...], ...]:
    return tuple(automorphism_group(diagram_of(st)))


@lru_cache(maxsize=None)
def nu(st: SimpleType, target_node: int) -> CenterElement:
    """The Weyl part of the center element attached to an h=1 node.

    Found by the alcove vertex-permutation oracle: the affine map
    t -> w(t - zeta) with zeta the vertex of the inverse element must
    permute the alcove vertices and act on the central vertices as
    translation by the element.  Exactly one diagram automorphism passes.
    In one pass: v_i must map to v_{perm[i]}, and perm[d] must be c + d on
    the central nodes d (see the module docstring).
    """
    if rootdata.root_integers(st)[target_node] != 1:
        raise ValueError(f"node {target_node} does not carry a central element")
    g = diagram_of(st).marks
    verts = rootdata.alcove_int_coords(st)[0]
    central = rootdata.center_vertex_nodes(st)
    zeta = verts[rootdata.center_element_inverse(st, target_node)]
    # the node test goes first, as it is the cheap one; it starts at d = 0,
    # which is the convention w_c(extended node) = node of c
    winners = [
        perm
        for perm in _aut_group(st)
        if all(perm[d] == rootdata.center_element_sum(st, target_node, d) for d in central)
        and all(
            _permute(perm, g, tuple(a - b for a, b in zip(v, zeta))) == verts[perm[i]]
            for i, v in enumerate(verts)
        )
    ]
    if len(winners) != 1:
        raise AssertionError(
            f"vertex oracle found {len(winners)} automorphisms for node "
            f"{target_node} of {st}"
        )
    return _element(winners[0])


def _element(perm: tuple[int, ...]) -> CenterElement:
    """Node perm[0]; order the length of node 0's cycle (the action is free)."""
    order, v = 1, perm[0]
    while v:
        order, v = order + 1, perm[v]
    return CenterElement(perm[0], perm, order)


@lru_cache(maxsize=None)
def _generated(st: SimpleType, perms: tuple[tuple[int, ...], ...]) -> CenterSubgroup:
    """The subgroup the perms generate; every center subgroup is built here,
    once per (type, generators)."""
    elements = map(_element, generated_group(perms, st.rank + 1))
    return CenterSubgroup(st, tuple(sorted(elements, key=lambda e: e.node)))


@lru_cache(maxsize=None)
def center_group(st: SimpleType) -> CenterSubgroup:
    """The full center.  The oracle runs on the central nodes not yet reached:
    once for A, B, C, E6 and E7, twice for D, never for E8, F4 and G2."""
    central = rootdata.center_vertex_nodes(st)
    gens: tuple[tuple[int, ...], ...] = ()
    grp = _generated(st, gens)
    for n in central:
        if n not in grp.nodes:
            gens += (nu(st, n).perm,)
            grp = _generated(st, gens)
    if list(grp.nodes) != central:
        raise AssertionError(f"the center of {st} does not reach exactly its central nodes")
    return grp


def trivial_subgroup(st: SimpleType) -> CenterSubgroup:
    return _generated(st, ())


def subgroup_generated(st: SimpleType, nodes) -> CenterSubgroup:
    by_node = {e.node: e.perm for e in center_group(st).elements}
    for n in nodes:
        if n not in by_node:
            raise ValueError(f"node {n} is not a center node of {st}")
    return _generated(st, tuple(by_node[n] for n in nodes))


def all_subgroups(st: SimpleType) -> list[CenterSubgroup]:
    """All subgroups of the center: the cyclic ones, plus the full center
    when it is not cyclic (the only such case is D_{2n})."""
    full = center_group(st)
    subs = {_generated(st, (e.perm,)) for e in full.elements} | {full}
    return sorted(subs, key=lambda s: (s.order, s.nodes))


@lru_cache(maxsize=None)
def quotient_diagram(st: SimpleType, sub_: CenterSubgroup) -> AffineDiagram:
    """The quotient of the extended coroot diagram by a center subgroup,
    computed once per (type, subgroup)."""
    return quotient(diagram_of(st), sub_.perms())


# ---------------------------------------------------------------------------
# Orbits of a center subgroup on the extended diagram


class Orbit(namedtuple("Orbit", "nodes eps mark")):
    """nodes: tuple[int, ...]; eps: int; mark: int."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.nodes)


class OrbitSet(namedtuple("OrbitSet", "orbits degenerate")):
    """orbits: tuple[Orbit, ...]; degenerate: bool."""

    __slots__ = ()

    @property
    def marks(self) -> tuple[int, ...]:
        return tuple(o.mark for o in self.orbits)


@lru_cache(maxsize=None)
def orbit_data(st: SimpleType, sub_: CenterSubgroup) -> OrbitSet:
    """The orbits of a subgroup on the extended diagram, computed once per
    (type, subgroup)."""
    dia = diagram_of(st)
    g = dia.marks
    orbs = orbits_of(sub_.perms(), dia.n_nodes)
    if len(orbs) == 1:
        return OrbitSet((Orbit(orbs[0], 1, sum(g)),), True)
    return OrbitSet(tuple(Orbit(o, orbit_kind(dia, o), len(o) * g[o[0]]) for o in orbs), False)


def l_c_factors(st: SimpleType, sub_: CenterSubgroup) -> tuple[list[int], int]:
    """Special-unitary factor sizes of the subgroup L attached to sub_.

    For a cyclic subgroup these are the orbit sizes of the Weyl part on the
    extended diagram (size-1 orbits are trivial factors, returned as the
    second component).  The non-cyclic full center of D_{2n} is handled via
    the simple roots not orthogonal to the center, giving n+1 copies of
    SU(2).
    """
    if sub_.is_cyclic:
        sizes = sorted((o.size for o in orbit_data(st, sub_).orbits), reverse=True)
        factors = [s for s in sizes if s > 1]
        trivial = len(sizes) - len(factors)
        nontrivial = _l_c_from_coefficients(st, sub_)
        if sorted(nontrivial, reverse=True) != factors:
            raise AssertionError("orbit factors disagree with coefficient factors")
        return factors, trivial
    if st.family == "D" and st.rank % 2 == 0 and sub_.order == 4:
        return sorted(_l_c_from_coefficients(st, sub_), reverse=True), 0
    raise ValueError("unsupported non-cyclic center subgroup")


def _l_c_from_coefficients(st: SimpleType, sub_: CenterSubgroup) -> list[int]:
    """SU factor sizes from the simple roots with non-integral coefficients.

    log(c) written in the simple coroots has some non-integral coefficients;
    the union over the subgroup spans a subdiagram whose components are all
    of A type, one SU(m+1) per component of size m.
    """
    verts, s = rootdata.alcove_int_coords(st)
    marked: set[int] = set()
    for e in sub_.elements:
        if e.is_identity:
            continue
        for i, x in enumerate(verts[e.node]):
            if x % s:
                marked.add(i + 1)
    if not marked:
        return []
    dia = diagram_of(st)
    cartan = dia.cartan
    comps = connected_components(sorted(marked), lambda u, v: cartan[u][v])
    for comp in comps:
        _assert_a_type(dia, comp)
    return [len(c) + 1 for c in comps]


def _assert_a_type(dia, comp) -> None:
    for u in comp:
        inside = [v for v in dia.neighbors(u) if v in comp]
        if len(inside) > 2 or any(dia.bond_mult(u, v) != 1 for v in inside):
            raise AssertionError("subdiagram component is not of A type")
    if len(comp) > 1 and sum(
        1 for u in comp if len([v for v in dia.neighbors(u) if v in comp]) == 1
    ) != 2:
        raise AssertionError("subdiagram component is not a chain")


# ---------------------------------------------------------------------------
# Center spec parsing (CLI surface)


def parse_center(st: SimpleType, spec: str) -> CenterSubgroup:
    """Center specs: trivial, full, c, c_SO, c_exotic, or node:<id>."""
    s = spec.strip()
    if s == "trivial":
        return trivial_subgroup(st)
    if s == "full":
        return center_group(st)
    if s == "c":
        full = center_group(st)
        if full.is_trivial:
            raise ValueError(f"{st} has trivial center; use 'trivial'")
        if not full.is_cyclic:
            raise ValueError(
                f"center of {st} is not cyclic; use c_SO, c_exotic or full"
            )
        return full
    if s in ("c_SO", "c_so"):
        if st.family != "D":
            raise ValueError("c_SO is only defined for D types")
        return subgroup_generated(st, [1])
    if s == "c_exotic":
        if st.family != "D" or st.rank % 2 != 0:
            raise ValueError("c_exotic is only defined for D_{2n}")
        return subgroup_generated(st, [st.rank - 1])
    if s.startswith("node:"):
        try:
            node = int(s[5:])
        except ValueError:
            raise ValueError(f"center node {s[5:]!r} is not an integer") from None
        return subgroup_generated(st, [node])
    raise ValueError(f"unrecognized center spec {spec!r}")

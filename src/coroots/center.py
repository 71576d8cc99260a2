"""Center elements realized as diagram automorphisms via the alcove oracle.

A central element c corresponds to the alcove vertex exponentiating to it
(node 0 = identity, otherwise a node with root integer 1).  Its Weyl part
is computed, never transcribed: among all diagram automorphisms of the
extended coroot diagram, exactly one induces an affine map
t -> w(t - zeta_{c^-1}) that permutes the alcove vertices and translates
the central vertices by c.  That automorphism is nu(c).

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

from functools import lru_cache
from typing import NamedTuple

from . import rootdata
from .diagrams import (
    AffineDiagram,
    automorphism_group,
    compose,
    connected_components,
    diagram_of,
    orbit_kind,
    orbits_of,
    quotient,
)
from .linalg import IVec, transpose
from .rootdata import SimpleType


class CenterElement(NamedTuple):
    node: int
    perm: tuple[int, ...]
    order: int

    @property
    def is_identity(self) -> bool:
        return self.node == 0


class CenterSubgroup(NamedTuple):
    type: SimpleType
    elements: tuple[CenterElement, ...]  # sorted by node id, identity first

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
    """
    if rootdata.root_integers(st)[target_node] != 1:
        raise ValueError(f"node {target_node} does not carry a central element")
    g = diagram_of(st).marks
    verts = rootdata.alcove_int_coords(st)[0]
    central = rootdata.center_vertex_nodes(st)
    zeta = verts[rootdata.center_element_inverse(st, target_node)]
    vertex_set = set(verts)
    winners = []
    # per the convention w_c(extended node) = node of c, only automorphisms
    # with that image can pass; filtering keeps the search fast
    for perm in _aut_group(st):
        if perm[0] != target_node:
            continue

        def phi(x: IVec) -> IVec:
            return _permute(perm, g, tuple(a - b for a, b in zip(x, zeta)))

        if any(phi(v) not in vertex_set for v in verts):
            continue
        ok = True
        for dn in central:
            expect = verts[rootdata.center_element_sum(st, target_node, dn)]
            if phi(verts[dn]) != expect:
                ok = False
                break
        if ok:
            winners.append(perm)
    if len(winners) != 1:
        raise AssertionError(
            f"vertex oracle found {len(winners)} automorphisms for node "
            f"{target_node} of {st}"
        )
    perm = winners[0]
    if perm[0] != target_node:
        raise AssertionError("oracle winner does not send the extended node to c")
    return CenterElement(target_node, perm, _node_order(st, target_node))


def _node_order(st: SimpleType, node: int) -> int:
    order = 1
    acc = node
    while acc != 0:
        acc = rootdata.center_element_sum(st, acc, node)
        order += 1
    return order


@lru_cache(maxsize=None)
def center_group(st: SimpleType) -> CenterSubgroup:
    """The full center, realized through the vertex oracle."""
    elements = tuple(
        sorted((nu(st, n) for n in rootdata.center_vertex_nodes(st)), key=lambda e: e.node)
    )
    grp = CenterSubgroup(st, elements)
    _check_homomorphism(st, grp)
    return grp


def _check_homomorphism(st: SimpleType, grp: CenterSubgroup) -> None:
    by_node = {e.node: e for e in grp.elements}
    for a in grp.elements:
        for b in grp.elements:
            prod = rootdata.center_element_sum(st, a.node, b.node)
            if compose(a.perm, b.perm) != by_node[prod].perm:
                raise AssertionError(f"nu is not a homomorphism for {st}")
    perms = {e.perm for e in grp.elements}
    if len(perms) != len(grp.elements):
        raise AssertionError(f"nu is not injective for {st}")


def trivial_subgroup(st: SimpleType) -> CenterSubgroup:
    return CenterSubgroup(st, (nu(st, 0),))


def subgroup_generated(st: SimpleType, nodes) -> CenterSubgroup:
    full = center_group(st)
    by_node = {e.node: e for e in full.elements}
    got = {0}
    frontier = list(nodes)
    while frontier:
        n = frontier.pop()
        if n not in by_node:
            raise ValueError(f"node {n} is not a center node of {st}")
        if n in got:
            continue
        got.add(n)
        for m in list(got):
            s = rootdata.center_element_sum(st, n, m)
            if s not in got:
                frontier.append(s)
    elements = tuple(sorted((by_node[n] for n in got), key=lambda e: e.node))
    return CenterSubgroup(st, elements)


def all_subgroups(st: SimpleType) -> list[CenterSubgroup]:
    """All subgroups of the center: the cyclic ones, plus the full center
    when it is not cyclic (the only such case is D_{2n})."""
    full = center_group(st)
    seen: dict[tuple[int, ...], CenterSubgroup] = {}
    for e in full.elements:
        sub_ = subgroup_generated(st, [e.node])
        seen.setdefault(sub_.nodes, sub_)
    if not full.is_cyclic:
        seen.setdefault(full.nodes, full)
    return sorted(seen.values(), key=lambda s: (s.order, s.nodes))


def cyclic_subgroups(st: SimpleType) -> list[CenterSubgroup]:
    return [s for s in all_subgroups(st) if s.is_cyclic]


@lru_cache(maxsize=None)
def quotient_diagram(st: SimpleType, sub_: CenterSubgroup) -> AffineDiagram:
    """The quotient of the extended coroot diagram by a center subgroup,
    computed once per (type, subgroup)."""
    return quotient(diagram_of(st), sub_.perms())


# ---------------------------------------------------------------------------
# Orbits of a center subgroup on the extended diagram


class Orbit(NamedTuple):
    nodes: tuple[int, ...]
    eps: int
    mark: int

    @property
    def size(self) -> int:
        return len(self.nodes)


class OrbitSet(NamedTuple):
    orbits: tuple[Orbit, ...]
    degenerate: bool

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
    for o in orbs:
        marks = {g[u] for u in o}
        if len(marks) != 1:
            raise AssertionError("coroot integers not constant on an orbit")
    if len(orbs) == 1:
        return OrbitSet((Orbit(orbs[0], 1, sum(g)),), True)
    out = []
    for o in orbs:
        eps = orbit_kind(dia, o)
        out.append(Orbit(o, eps, len(o) * g[o[0]]))
    return OrbitSet(tuple(out), False)


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
    verts = rootdata.alcove_coroot_coords(st)
    marked: set[int] = set()
    for e in sub_.elements:
        if e.is_identity:
            continue
        for i, x in enumerate(verts[e.node]):
            if x.denominator != 1:
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
        return subgroup_generated(st, [full.generator().node])
    if s in ("c_SO", "c_so"):
        if st.family != "D":
            raise ValueError("c_SO is only defined for D types")
        return subgroup_generated(st, [1])
    if s == "c_exotic":
        if st.family != "D" or st.rank % 2 != 0:
            raise ValueError("c_exotic is only defined for D_{2n}")
        return subgroup_generated(st, [st.rank - 1])
    if s.startswith("node:"):
        return subgroup_generated(st, [int(s[5:])])
    raise ValueError(f"unrecognized center spec {spec!r}")

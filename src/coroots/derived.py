"""Derived diagrams: the surviving-node construction on a marked diagram.

Given a marked diagram (n = n0 * g) and an admissible k, the nodes with
k | n_v survive; the rest span a disjoint union of A-type chains.  Each
survivor gets a type from the shape of its adjacent chains, a rescaled
length l_k = l / sqrt(type), and the new bonds give the extended coroot
diagram of the root system on the corresponding torus.  check_samediags
rebuilds the same diagram from exact coordinates and compares.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import NamedTuple

from .center import CenterSubgroup, _assert_a_type, orbit_data
from .coords import (
    DiagramReport,
    apply_projector,
    form_products,
    orbit_averages,
    projector,
    torus_subspace_coords,
)
from .diagrams import (
    AffineDiagram,
    ClassifyResult,
    classify,
    connected_components,
    diagram_of,
    make_diagram,
)
from .linalg import cartan_integers
from .numerology import I_set, MarkedDiagram, quotient_marked
from .rootdata import TRIVIAL, SimpleType

TYPE_INF = "inf"
TYPE_DIVISORS = {"inf": 0, "1": 1, "2i": 2, "2ii": 2, "3": 3, "4i": 4, "4ii": 4, "4iii": 4}


def _i_components(m: MarkedDiagram, k: int) -> list[tuple[int, ...]]:
    """Connected components of I_set(m, k), each sorted, in sorted order."""
    cartan = m.diagram.cartan
    comps = connected_components(I_set(m, k), lambda u, v: cartan[u][v])
    return sorted(tuple(sorted(c)) for c in comps)


def node_type(m: MarkedDiagram, k: int, v: int) -> str:
    """Survivor type tag: one of inf, 1, 2i, 2ii, 3, 4i, 4ii, 4iii."""
    if m.n[v] % k != 0:
        raise ValueError(f"node {v} does not survive at k={k}")
    survivors = [u for u in m.diagram.nodes() if m.n[u] % k == 0]
    if len(survivors) == 1:
        return TYPE_INF
    comps = _i_components(m, k)
    adjacent = [c for c in comps if any(m.diagram.bonded(v, u) for u in c)]
    lv = m.diagram.sq_lengths[v]
    if not adjacent:
        return "1"
    bonded_nodes = [u for c in adjacent for u in c if m.diagram.bonded(v, u)]
    if len(adjacent) == 1 and len(bonded_nodes) == 1:
        u = bonded_nodes[0]
        if len(adjacent[0]) == 1 and lv < m.diagram.sq_lengths[u]:
            return "2ii"
    if len(adjacent) == 2:
        sizes = sorted(len(c) for c in adjacent)
        if sizes == [1, 1]:
            l1 = m.diagram.sq_lengths[adjacent[0][0]]
            l2 = m.diagram.sq_lengths[adjacent[1][0]]
            return "2i" if lv <= min(l1, l2) else "4i"
        if sizes == [2, 2]:
            return "3"
        if sizes == [3, 3]:
            return "4ii"
        if sizes == [1, 3]:
            return "4iii"
    raise AssertionError(
        f"node {v} fits no survivor type at k={k} (adjacent chains {adjacent})"
    )


class DerivedDiagram(NamedTuple):
    parent: MarkedDiagram
    k: int
    survivors: tuple[int, ...]
    node_types: dict[int, str]
    ell_k_sq: dict[int, Q]
    diagram: AffineDiagram
    classified: ClassifyResult

    @property
    def surviving_values(self) -> tuple[int, ...]:
        return tuple(self.parent.n[v] for v in self.survivors)


def derived(m: MarkedDiagram, k: int) -> DerivedDiagram:
    """The derived diagram of (m, k), classified."""
    if k < 1 or all(x % k for x in m.n):
        raise ValueError(f"{k} divides no node value")
    survivors = tuple(v for v in m.diagram.nodes() if m.n[v] % k == 0)
    if len(survivors) == m.diagram.n_nodes:
        dia = m.diagram
        res = classify(dia)
        return DerivedDiagram(
            m, k, survivors, {v: "1" for v in survivors},
            {v: dia.sq_lengths[v] for v in survivors}, dia, res,
        )
    base = classify(m.diagram)
    if base is not None and base.type in (SimpleType("G", 2), SimpleType("BC", 1)):
        if len(survivors) >= 2:
            raise AssertionError("G2/BC1 parent cannot have two survivors")
    comps = _i_components(m, k)
    kp = k // gcd(k, m.n0)
    for c in comps:
        if kp % (len(c) + 1) != 0:
            raise AssertionError("complement chain size+1 does not divide k")
        _assert_a_type(m.diagram, c)
    types = {v: node_type(m, k, v) for v in survivors}
    if len(survivors) == 1:
        v = survivors[0]
        dia = AffineDiagram(((2,),), (1,), (Q(2),))
        return DerivedDiagram(
            m, k, survivors, types, {v: Q(0)}, dia,
            ClassifyResult(TRIVIAL, 1, (0,)),
        )
    ell = {
        v: m.diagram.sq_lengths[v] / TYPE_DIVISORS[types[v]] for v in survivors
    }
    adj_comp = {
        v: [c for c in comps if any(m.diagram.bonded(v, u) for u in c)]
        for v in survivors
    }
    n = len(survivors)
    pos = {v: i for i, v in enumerate(survivors)}
    bonded = [[False] * n for _ in range(n)]
    for i, v in enumerate(survivors):
        for j, w in enumerate(survivors):
            if j <= i:
                continue
            direct = m.diagram.bonded(v, w)
            shared = any(c in adj_comp[w] for c in adj_comp[v])
            bonded[i][j] = bonded[j][i] = direct or shared
    cartan = [[0] * n for _ in range(n)]
    for i in range(n):
        cartan[i][i] = 2
    for i, v in enumerate(survivors):
        for j, w in enumerate(survivors):
            if j <= i or not bonded[i][j]:
                continue
            others_i = any(bonded[i][t] for t in range(n) if t != j)
            others_j = any(bonded[j][t] for t in range(n) if t != i)
            if not others_i and not others_j and ell[v] == ell[w]:
                cartan[i][j] = cartan[j][i] = -2
                continue
            hi, lo = (i, j) if ell[v] >= ell[w] else (j, i)
            ratio = ell[survivors[hi]] / ell[survivors[lo]]
            if ratio.denominator != 1:
                raise AssertionError("l_k ratio of bonded survivors not integral")
            cartan[hi][lo] = -int(ratio)
            cartan[lo][hi] = -1
    dia = make_diagram(
        tuple(tuple(r) for r in cartan),
        sq_lengths=tuple(2 * ell[v] / min(ell.values()) for v in survivors),
    )
    res = classify(dia)
    if res is None:
        raise AssertionError("derived diagram failed to classify")
    # the surviving values divided by k are proportional to the marks
    ratios = {Q(m.n[v], k * dia.marks[pos[v]]) for v in survivors}
    if len(ratios) != 1:
        raise AssertionError("surviving values not proportional to derived marks")
    return DerivedDiagram(m, k, survivors, types, ell, dia, res)


def check_samediags(st: SimpleType, sub_: CenterSubgroup, k: int) -> DiagramReport:
    """Derived diagram vs the coordinate diagram on t^{w_C}(gbar, k).

    The coordinate side projects the surviving orbit coroots orthogonally
    onto t^{w_C}(gbar, k) (coords.torus_subspace_coords) and takes exact
    Cartan integers, all in integer simple-coroot coordinates.
    """
    orbits = orbit_data(st, sub_)
    mq = quotient_marked(st, sub_)
    dd = derived(mq, k)
    if orbits.degenerate:
        return DiagramReport(dd.diagram.n_nodes == 1, "degenerate quotient")
    span = torus_subspace_coords(st, sub_, k)
    surviving = [o for o, mark in zip(orbits.orbits, mq.n) if mark % k == 0]
    if len(surviving) != dd.diagram.n_nodes:
        return DiagramReport(False, "survivor counts differ")
    if len(surviving) == 1:
        ok = not span or not any(row[i] for i, row in enumerate(form_products(st, span)))
        return DiagramReport(bool(ok and dd.diagram.n_nodes == 1), "rank-0 case")
    avgs, _ = orbit_averages(diagram_of(st).marks, surviving)
    p, _ = projector(st, span)
    prods = form_products(st, [apply_projector(p, v) for v in avgs])
    for i, row in enumerate(cartan_integers(prods)):
        for j, c in enumerate(row):
            if c != dd.diagram.cartan[i][j]:
                return DiagramReport(
                    False,
                    f"Cartan integers differ at survivors ({i},{j}): "
                    f"coordinate {c} vs derived {dd.diagram.cartan[i][j]}",
                )
    return DiagramReport(True, "derived and coordinate diagrams agree",
                         tuple(range(len(surviving))))

"""Derived diagrams: the surviving-node construction on a marked diagram.

Given a marked diagram (n = n0 * g) and an admissible k, the nodes with
k | n_v survive; the rest span a disjoint union of A-type chains.  Each
survivor gets a type from the shape of its adjacent chains, a rescaled
length l_k = l / sqrt(type), and the new bonds give the extended coroot
diagram of the root system on the corresponding torus.  check_samediags
rebuilds the same diagram from exact coordinates, as a Schur complement of
the orbit averages' Gram matrix that project() computes once per (type,
subgroup), and compares.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd

from .center import CenterSubgroup
from .coords import DiagramReport, products, project
from .diagrams import classify, connected_components, make_diagram, subdiagram_type
from .linalg import cartan_integers, scaled_inverse
from .numerology import I_set, MarkedDiagram, quotient_marked
from .rootdata import SimpleType

TYPE_INF = "inf"
TYPE_DIVISORS = {"inf": 0, "1": 1, "2i": 2, "2ii": 2, "3": 3, "4i": 4, "4ii": 4, "4iii": 4}


def _chains(m: MarkedDiagram, k: int):
    """The components of I_set(m, k), each sorted, in sorted order, and for
    each survivor the list of those it is bonded to."""
    dia = m.diagram
    comps = connected_components(I_set(m, k), lambda u, v: dia.cartan[u][v])
    chains = sorted(tuple(sorted(c)) for c in comps)
    adjacent = {
        v: [c for c in chains if any(dia.bonded(v, u) for u in c)]
        for v in dia.nodes() if m.n[v] % k == 0
    }
    return chains, adjacent


def _survivor_type(m: MarkedDiagram, k: int, v: int, chains_of) -> str:
    """The type tag of survivor v, from each survivor's adjacent chains."""
    adjacent = chains_of[v]
    if not adjacent:
        return "1"
    if len(chains_of) == 1:
        return TYPE_INF
    lv = m.diagram.sq_lengths[v]
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


class DerivedDiagram(namedtuple(
    "DerivedDiagram", "parent k survivors node_types ell_k_sq diagram classified"
)):
    """parent: MarkedDiagram; k: int; survivors: tuple[int, ...];
    node_types: dict[int, str]; ell_k_sq: dict[int, Q]; diagram:
    AffineDiagram; classified: ClassifyResult."""

    __slots__ = ()

    @property
    def surviving_values(self) -> tuple[int, ...]:
        return tuple(self.parent.n[v] for v in self.survivors)


@lru_cache(maxsize=None)
def derived(m: MarkedDiagram, k: int) -> DerivedDiagram:
    """The derived diagram of (m, k), classified; cached, so no caller may change its dicts."""
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
    chains, adjacent = _chains(m, k)
    kp = k // gcd(k, m.n0)
    for c in chains:
        if kp % (len(c) + 1) != 0:
            raise AssertionError("complement chain size+1 does not divide k")
        if subdiagram_type(m.diagram.cartan, c)[0].family != "A":
            raise AssertionError("subdiagram component is not of A type")
    types = {v: _survivor_type(m, k, v, adjacent) for v in survivors}
    if len(survivors) == 1:
        dia = make_diagram(((2,),), (1,))
        return DerivedDiagram(m, k, survivors, types, {survivors[0]: Q(0)}, dia, classify(dia))
    ell = {
        v: m.diagram.sq_lengths[v] / TYPE_DIVISORS[types[v]] for v in survivors
    }
    n = len(survivors)
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, v in enumerate(survivors):
        for j, w in enumerate(survivors[:i]):
            if not m.diagram.bonded(v, w) and not any(c in adjacent[w] for c in adjacent[v]):
                continue
            # an affine diagram is connected: a pair with no other bond is all of it
            if n == 2 and ell[v] == ell[w]:
                cartan[i][j] = cartan[j][i] = -2
                continue
            hi, lo = (i, j) if ell[v] >= ell[w] else (j, i)
            ratio = ell[survivors[hi]] / ell[survivors[lo]]
            if ratio.denominator != 1:
                raise AssertionError("l_k ratio of bonded survivors not integral")
            cartan[hi][lo] = -int(ratio)
            cartan[lo][hi] = -1
    # the lengths make_diagram derives from these ratios are ell, min scaled to 2
    dia = make_diagram(cartan)
    res = classify(dia)
    if res is None:
        raise AssertionError("derived diagram failed to classify")
    # the surviving values divided by k are proportional to the marks
    ratios = {Q(m.n[v], k * mark) for v, mark in zip(survivors, dia.marks)}
    if len(ratios) != 1:
        raise AssertionError("surviving values not proportional to derived marks")
    return DerivedDiagram(m, k, survivors, types, ell, dia, res)


def check_samediags(st: SimpleType, sub_: CenterSubgroup, k: int) -> DiagramReport:
    """Derived diagram vs the coordinate diagram on t^{w_C}(gbar, k).

    On the fixed subspace the root of orbit o vanishes exactly on the
    B-orthogonal complement of o's average, so t^{w_C}(gbar, k) is the
    complement there of the span of the averages of the orbits I whose mark
    k does not divide.  With P the B-Gram matrix of all orbit averages,
    cached by project() once its averages pass the orthogonal-projection
    check, the surviving averages' projections onto it have B-products the
    Schur complement P_SS - P_SI P_II^-1 P_IS, in ints den P_SS - P_SI (den
    P_II^-1) P_IS; their exact Cartan integers are compared with the
    derived diagram's.  P_II is positive definite: I spans a proper
    subdiagram of an affine diagram, which is of finite type.
    """
    ps = project(st, sub_)
    mq = quotient_marked(st, sub_)
    dd = derived(mq, k)
    keep = [i for i, mark in enumerate(mq.n) if mark % k == 0]
    if len(keep) == 1:
        # the m averages span the fixed subspace (project asserts it) with one
        # all-positive relation, the marks, so any m - 1 of them span it too
        return DiagramReport(True, "rank-0 case")
    p = ps.gram
    cut = [i for i, mark in enumerate(mq.n) if mark % k]
    inv, den = scaled_inverse([[p[i][j] for j in cut] for i in cut])
    cross = products(inv, [[p[s][i] for i in cut] for s in keep])
    prods = [[den * p[s][t] - x for t, x in zip(keep, r)] for s, r in zip(keep, cross)]
    for i, row in enumerate(cartan_integers(prods)):
        for j, c in enumerate(row):
            if c != dd.diagram.cartan[i][j]:
                return DiagramReport(
                    False,
                    f"Cartan integers differ at survivors ({i},{j}): "
                    f"coordinate {c} vs derived {dd.diagram.cartan[i][j]}",
                )
    return DiagramReport(True, "derived and coordinate diagrams agree", tuple(range(len(keep))))

"""Components of the moduli spaces of commuting and almost-commuting triples.

Everything is read off the quotient marked diagram: an order k is
admissible when it divides some induced coroot integer, there are phi(k)
components of that order with invariants ell/k, and the dimension data
comes from the divisibility counts.  Shapes follow the explicit case list
for a nontrivial cyclic center element, backed by an exact computation of
the annihilator subgroup's simple factors.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from math import gcd

from .center import CenterSubgroup, all_subgroups
from .diagrams import diagram_of
from .numerology import ClockPartition, MarkedDiagram, clocked, marked, quotient_marked
from .rootdata import TRIVIAL, SimpleType

SHAPE_SBAR3 = "sbar3"  # (Sbar x Sbar x Sbar)/W
SHAPE_SBAR2_S = "sbar2_s"  # (Sbar x Sbar x S)/W
SHAPE_S3_MOD_F = "s3_modF"  # ((S x S x S)/F)/W
SHAPE_POINT = "point"

SHAPE_DISPLAY = {
    SHAPE_SBAR3: "(Sbar x Sbar x Sbar)/W",
    SHAPE_SBAR2_S: "(Sbar x Sbar x S)/W",
    SHAPE_S3_MOD_F: "((S x S x S)/F)/W",
    SHAPE_POINT: "point",
}


class ComponentRecord(namedtuple(
    "ComponentRecord", "order label d_X dim shape cs torus_rank f_order", defaults=(None,)
)):
    """order: int; label: int, a unit mod order, and (order, cs)
    identifies the component; d_X: int; dim: int; shape: str; cs: Q;
    torus_rank: int; f_order: int or None, the finite quotient group's
    order, in the non-cyclic case only."""

    __slots__ = ()

    def sort_key(self):
        return (self.order, self.label)


def record_to_json(r: ComponentRecord) -> dict:
    return {**r._asdict(), "cs": str(r.cs)}


def units_mod(k: int) -> list[int]:
    if k == 1:
        return [1]
    return [l for l in range(1, k) if gcd(l, k) == 1]


def _record(k: int, label: int, d_X: int, shape: str, f_order=None) -> ComponentRecord:
    cs = Q(label % k, k)
    return ComponentRecord(k, label, d_X, 3 * (d_X - 1), shape, cs, d_X - 1, f_order)


def _shape_cyclic(st: SimpleType, sub_: CenterSubgroup, m: MarkedDiagram, k: int, d_X: int) -> str:
    if d_X == 1:
        return SHAPE_POINT
    if sub_.is_trivial:
        return SHAPE_SBAR3
    from .coords import torus_subspace_coords
    from .projection import annihilator_factors

    n0 = m.n0
    factors = annihilator_factors(st, torus_subspace_coords(st, sub_, k))
    non_a = [f for f in factors if f.family != "A"]
    if n0 % k == 0:
        # L is all of A type: the finite stabilizer on the third factor is
        # trivial and the component is (Sbar x Sbar x S)/W
        if non_a:
            raise AssertionError("A-type subgroup expected when k divides n0")
        return SHAPE_SBAR2_S
    if len(non_a) != 1:
        raise AssertionError("exactly one non-A factor expected when k does not divide n0")
    fam = st.family
    if fam == "B" or (st == SimpleType("E", 7)):
        return SHAPE_SBAR3
    if fam in ("C", "D"):
        return SHAPE_SBAR2_S
    raise AssertionError(f"unlisted shape case for {st} at k={k}")


def components(st: SimpleType, sub_: CenterSubgroup) -> list[ComponentRecord]:
    """All moduli components for a trivial or cyclic center subgroup.

    One record per admissible order k and unit label; the pairing of a
    geometric component with a specific unit is conventional, (order, cs)
    is the invariant content.
    """
    if not (sub_.is_trivial or sub_.is_cyclic):
        raise ValueError("non-cyclic subgroup: use noncyclic_components")
    m = quotient_marked(st, sub_)
    records = []
    for k in m.admissible_orders():
        d_X = sum(1 for x in m.n if x % k == 0)
        shape = _shape_cyclic(st, sub_, m, k, d_X)
        for label in units_mod(k):
            records.append(_record(k, label, d_X, shape))
    return sorted(records, key=ComponentRecord.sort_key)


def noncyclic_components(st: SimpleType) -> list[ComponentRecord]:
    """The four components for the full non-cyclic center of D_{2n}.

    Orders (1, 2, 4, 4) with invariants (0, 1/2, 1/4, 3/4); the order-4
    pair carries opposite quarter invariants and which one gets +1/4 is not
    canonical.  The finite groups F, F' are recorded by their orders.
    """
    if st.family != "D" or st.rank % 2 != 0:
        raise ValueError("non-cyclic full center requires D_{2n}")
    n = st.rank // 2
    if n < 2:
        raise ValueError("D_{2n} needs n >= 2")
    f_big = 2 ** (2 * n - 3)
    f_small = 2 ** (2 * n - 4)
    shape_12 = SHAPE_S3_MOD_F
    shape_4 = SHAPE_POINT if n == 2 else SHAPE_S3_MOD_F
    return [
        _record(1, 1, n, shape_12, f_big),
        _record(2, 1, n, shape_12, f_big),
        _record(4, 1, n - 1, shape_4, f_small),
        _record(4, 3, n - 1, shape_4, f_small),
    ]


def components_for(st: SimpleType, sub_: CenterSubgroup) -> list[ComponentRecord]:
    if sub_.is_trivial or sub_.is_cyclic:
        return components(st, sub_)
    return noncyclic_components(st)


def rank_zero_list(
    k: int, central: bool, max_rank: int = 12
) -> list[tuple[SimpleType, str]]:
    """Groups (with a center spec) admitting a rank-zero triple of order k.

    The criterion is that k divides exactly one induced coroot integer of
    the quotient marked diagram.
    """
    if k < 1:
        raise ValueError("order must be positive")
    out: list[tuple[SimpleType, str]] = []
    if not central and k == 1:
        return [(TRIVIAL, "trivial")]
    for st in catalog_types(max_rank):
        if not central:
            m = marked(diagram_of(st))
            if sum(1 for x in m.n if x % k == 0) == 1:
                out.append((st, "trivial"))
            continue
        for sub_ in all_subgroups(st):
            if sub_.is_trivial or not sub_.is_cyclic:
                continue
            m = quotient_marked(st, sub_)
            if sum(1 for x in m.n if x % k == 0) == 1:
                out.append((st, f"node:{sub_.generator().node}"))
    return sorted(out, key=lambda p: (p[0], p[1]))


def catalog_types(max_rank: int = 12) -> list[SimpleType]:
    """All simple compact types up to a rank bound (B_2 aliased away)."""
    out = [SimpleType("A", n) for n in range(1, max_rank + 1)]
    out += [SimpleType("B", n) for n in range(3, max_rank + 1)]
    out += [SimpleType("C", n) for n in range(2, max_rank + 1)]
    out += [SimpleType("D", n) for n in range(4, max_rank + 1)]
    out += [SimpleType("E", n) for n in (6, 7, 8) if n <= max_rank]
    out += [SimpleType("F", 4)] if max_rank >= 4 else []
    out += [SimpleType("G", 2)] if max_rank >= 2 else []
    return out


class ClockReport(namedtuple("ClockReport", "g windows parity components valid")):
    """The J-window partition with the component records that own its
    windows: g, windows and parity as in ClockPartition; components:
    tuple[ComponentRecord, ...]; valid: bool."""

    __slots__ = ()

    union = ClockPartition.union


def clock_report(st: SimpleType, sub_: CenterSubgroup) -> ClockReport:
    """J-window partition of one parity class of Z/2g by the components.

    The windows, their parity and g come from the quotient marked diagram
    (numerology.clocked): d_x points spaced 2 centered at 2g r/x.  Each
    component of order k and invariant ell/k must own the window (k, ell),
    and its d_X must be that window's size; the component records are
    derived separately (written out by hand for the non-cyclic D_{2n}
    center).
    """
    recs = components_for(st, sub_)
    cp = clocked(quotient_marked(st, sub_))
    sizes = {(r.order, r.label): r.d_X for r in recs}
    if sizes != {key: len(w) for key, w in cp.windows.items()}:
        raise AssertionError(f"component records disagree with the clock windows of {st}")
    return ClockReport(cp.g, cp.windows, cp.parity, tuple(recs), True)

"""Arithmetic of marked affine diagrams.

A marked diagram carries a function n = n0 * g on the nodes, where g is
the affine relation vector.  From it come the survivor sets I(n,k), the
statistics i(x) and d_x, the cyclic-cover decomposition of the residues,
and the rotation-invariant partition of Z/2g by the J(x,r) windows.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import gcd

from .center import CenterSubgroup, quotient_diagram
from .diagrams import AffineDiagram
from .rootdata import SimpleType


def euler_phi(n: int) -> int:
    out = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


class MarkedDiagram(namedtuple("MarkedDiagram", "diagram n")):
    """diagram: AffineDiagram; n: tuple[int, ...]."""

    __slots__ = ()

    @property
    def n0(self) -> int:
        return gcd(*self.n)

    def reduced(self) -> tuple[int, ...]:
        n0 = self.n0
        return tuple(x // n0 for x in self.n)

    def admissible_orders(self) -> list[int]:
        """All k >= 1 dividing at least one node value."""
        out = [k for k in range(1, max(self.n) + 1) if any(x % k == 0 for x in self.n)]
        return out


def marked(diagram: AffineDiagram, n=None) -> MarkedDiagram:
    if n is None:
        n = diagram.marks
    n = tuple(int(x) for x in n)
    if len(n) != diagram.n_nodes or any(x <= 0 for x in n):
        raise ValueError("node function must be positive on every node")
    # n must be a positive multiple of the relation vector
    if diagram.n_nodes > 1:
        g, gm = gcd(*n), gcd(*diagram.marks)
        if tuple(x // g for x in n) != tuple(m // gm for m in diagram.marks):
            raise ValueError("node function is not a multiple of the marks")
    return MarkedDiagram(diagram, n)


@lru_cache(maxsize=None)
def quotient_marked(st: SimpleType, sub_: CenterSubgroup) -> MarkedDiagram:
    """The quotient diagram with the induced coroot integers as marking."""
    return marked(quotient_diagram(st, sub_))


def I_set(m: MarkedDiagram, k: int) -> tuple[int, ...]:
    """Nodes whose value is not divisible by k (rejects inadmissible k)."""
    if k < 1 or all(x % k for x in m.n):
        raise ValueError(f"{k} divides no node value")
    return tuple(v for v in m.diagram.nodes() if m.n[v] % k != 0)


class Decomposition(namedtuple("Decomposition", "subgroup_orders assignment")):
    """subgroup_orders: tuple[int, ...], cyclic subgroups of Z/k, by
    order; assignment: tuple[tuple[int, ...], ...], the nodes assigned to
    each subgroup."""

    __slots__ = ()


def _punctured(k: int, d: int) -> list[int]:
    step = k // d
    return [step * j for j in range(1, d)]


def residue_cover(residues, k: int) -> tuple[int, ...] | None:
    """Cover a multiset of nonzero residues mod k by punctured cyclic
    subgroups of Z/k; returns the sorted multiset of subgroup orders, or
    None when no cover exists.

    The cover is unique, so it is counted, not searched: the punctured
    subgroup of order d holds each residue of exact order e | d once, so
    the phi(e) residues of exact order e occur equally often, N_e times,
    and N_e is the number of chosen orders that e divides.  Taking the
    divisors of k largest first, order d is chosen n_d = N_d - sum of the
    n_e over its multiples e times; there is no cover when the counts
    differ or some n_d is negative.  Exposed separately so inputs outside
    the catalog can be explored.
    """
    counts = Counter(r % k for r in residues)
    if counts[0]:
        raise ValueError("residues must be nonzero mod k")
    chosen: dict[int, int] = {}
    for d in (d for d in range(k, 1, -1) if k % d == 0):
        step = k // d
        ns = {counts[step * j] for j in range(1, d) if gcd(j, d) == 1}
        n = ns.pop() - sum(c for e, c in chosen.items() if e % d == 0)
        if ns or n < 0:
            return None
        chosen[d] = n
    return tuple(sorted(d for d, n in chosen.items() for _ in range(n)))


def check_assumption(m: MarkedDiagram, k: int) -> Decomposition | None:
    """Cover the residues of I(n,k) by punctured cyclic subgroups of Z/k.

    Returns the smallest multiset of subgroup orders with a witness node
    assignment, or None when no cover exists (which never happens for
    catalog data).  residue_cover's counts make the cover's multiset of
    residues that of the nodes, so each node is assigned exactly once.
    """
    nodes = I_set(m, k)
    orders = residue_cover([m.n[v] for v in nodes], k)
    if orders is None:
        return None
    assignment: list[tuple[int, ...]] = []
    pool = list(nodes)
    for d in orders:
        picked = []
        for r in _punctured(k, d):
            v = next(v for v in pool if m.n[v] % k == r)
            pool.remove(v)
            picked.append(v)
        assignment.append(tuple(picked))
    return Decomposition(tuple(orders), tuple(assignment))


class NumerologyCounts(namedtuple("NumerologyCounts", "N g i d")):
    """N: int; g: int; i: dict[int, int]; d: dict[int, int]."""

    __slots__ = ()


def counts(m: MarkedDiagram) -> NumerologyCounts:
    """The i(x)/d_x statistics, with the structure of the value set verified."""
    values = m.n
    N = max(values)
    g = sum(values)
    i = {}
    for x in values:
        i[x] = i.get(x, 0) + 1
    d = {}
    for x in range(1, N + 1):
        dx = sum(1 for v in values if v % x == 0)
        if dx:
            d[x] = dx
    n0 = m.n0
    # values are exactly the positive multiples of n0 up to N
    expected = set(range(n0, N + 1, n0))
    if set(i) != expected:
        raise AssertionError("value set is not the full n0-multiple range")
    Nred = N // n0
    if euler_phi(Nred) > 2:
        raise AssertionError("reduced maximum violates phi(N) <= 2")
    for l in sorted(i):
        lr = l // n0
        if lr > 1 and i[l] == 1 and any(i.get(t * l, 0) for t in range(2, Nred + 1)):
            raise AssertionError("single node value with a proper multiple present")
    # i(r,k) depends only on the subgroup generated by the residue, for
    # every admissible k (dividing at least one node value)
    for k in range(2, N + 1):
        if all(v % k for v in values):
            continue
        for r in range(1, k):
            for s in range(1, k):
                if gcd(r, k) == gcd(s, k):
                    irk = sum(1 for v in values if v % k == r % k)
                    isk = sum(1 for v in values if v % k == s % k)
                    if irk != isk:
                        raise AssertionError("i(r,k) not constant on generators")
    return NumerologyCounts(N, g, i, d)


class ClockPartition(namedtuple("ClockPartition", "g windows parity")):
    """g: int; windows: dict[tuple[int, int], tuple[int, ...]], (x, r) ->
    residues mod 2g; parity: str, "even" or "odd"."""

    __slots__ = ()

    def union(self) -> set[int]:
        return set().union(*self.windows.values())


def clocked(m: MarkedDiagram) -> ClockPartition:
    """The J(x,r) windows in Z/2g: d_x points with spacing 2 centered at
    2gr/x, one window per admissible x and unit r; verified disjoint with
    union one full parity class."""
    c = counts(m)
    g = c.g
    windows: dict[tuple[int, int], tuple[int, ...]] = {}
    for x in sorted(c.d):
        if (2 * g) % x != 0:
            raise AssertionError(f"{x} does not divide 2g")
        dx = c.d[x]
        for r in range(1, x + 1):
            if gcd(r, x) != 1:
                continue
            center = 2 * g * r // x
            pts = tuple(
                (center - dx + 1 + 2 * t) % (2 * g) for t in range(dx)
            )
            windows[(x, r)] = pts
    total = sum(len(w) for w in windows.values())
    union = set().union(*windows.values())
    if len(union) != total:
        raise AssertionError("J windows overlap")
    evens = set(range(0, 2 * g, 2))
    odds = set(range(1, 2 * g, 2))
    if union == evens:
        parity = "even"
    elif union == odds:
        parity = "odd"
    else:
        raise AssertionError("J windows do not fill a parity class")
    n0 = m.n0
    if n0 > 1:
        shift = 2 * g // n0
        if {(p + shift) % (2 * g) for p in union} != union:
            raise AssertionError("windows not invariant under the reduced shift")
    return ClockPartition(g, windows, parity)

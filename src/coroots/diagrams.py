"""Generalized Cartan matrices of affine type and diagram operations.

An AffineDiagram is the universal currency here: an indecomposable
generalized Cartan matrix together with the positive integral relation
vector (the marks) and the squared node lengths.  Nodes are 0..n-1; for
catalog diagrams node 0 is the extended node.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from numbers import Rational
from operator import mul

from . import rootdata
from .linalg import IVec, positive_kernel, transpose
from .rootdata import FAMILIES, TRIVIAL, SimpleType


class AffineDiagram(namedtuple("AffineDiagram", "cartan marks sq_lengths")):
    """cartan: tuple[tuple[int, ...], ...]; marks: tuple[int, ...];
    sq_lengths: tuple[Q, ...]."""

    __slots__ = ()

    @property
    def n_nodes(self) -> int:
        return len(self.marks)

    def nodes(self) -> range:
        return range(self.n_nodes)

    def bonded(self, u: int, v: int) -> bool:
        return u != v and self.cartan[u][v] != 0

    def neighbors(self, u: int) -> list[int]:
        return [v for v in self.nodes() if self.bonded(u, v)]

    def bond_mult(self, u: int, v: int) -> int:
        return self.cartan[u][v] * self.cartan[v][u]

    def to_json(self) -> dict:
        return {
            "nodes": list(self.nodes()),
            "cartan": [list(r) for r in self.cartan],
            "marks": list(self.marks),
            "sq_lengths": [str(x) for x in self.sq_lengths],
        }

    @staticmethod
    def from_json(obj: dict) -> "AffineDiagram":
        """The diagram of a to_json payload, validated by make_diagram."""
        return make_diagram(obj["cartan"], obj["marks"], obj["sq_lengths"])


def label(st: SimpleType) -> str:
    if st.rank == 0:
        return "0"
    return f"{st.family}{st.rank}"


def render_diagram(d: AffineDiagram) -> str:
    """Deterministic one-line-per-bond ASCII rendering.

    A node prints as id(mark); a bond of multiplicity m prints as =m=> with
    the arrow toward the shorter node, --- when m = 1, and <=2=> for the
    two-node cycle.
    """
    if d.n_nodes == 1:
        return f"*({d.marks[0]})"
    lines = [" ".join(f"{u}({d.marks[u]})" for u in d.nodes())]
    for u in d.nodes():
        for v in d.nodes():
            if v <= u or not d.bonded(u, v):
                continue
            nuv, nvu = d.cartan[u][v], d.cartan[v][u]
            m = nuv * nvu
            if nuv == nvu == -1:
                bond = "---"
            elif nuv == nvu:
                bond = f"<={m}=>"
            elif abs(nuv) > abs(nvu):
                bond = f"={m}=>"
            else:
                bond = f"<={m}="
            lines.append(f"  {u}({d.marks[u]}) {bond} {v}({d.marks[v]})")
    return "\n".join(lines)


class DiagramError(ValueError):
    pass


def _ints(xs, what: str) -> IVec:
    """The entries as ints; DiagramError unless each one is an integral
    rational number (an int, Fraction or sympy Integer, say) or float.  A
    row of plain ints, what the library builds, comes back as it is."""
    xs = tuple(xs)
    if all(type(x) is int for x in xs):
        return xs
    for x in xs:
        if not isinstance(x, (Rational, float)) or x % 1:
            raise DiagramError(f"{what} {x!r} is not an integer")
    return tuple(map(int, xs))


def _check_gcm(cartan) -> None:
    """An indecomposable generalized Cartan matrix, or DiagramError naming
    the first condition that fails."""
    n = len(cartan)
    if any(len(row) != n for row in cartan):
        raise DiagramError("cartan matrix is not square")
    for i in range(n):
        if cartan[i][i] != 2:
            raise DiagramError(f"diagonal entry at node {i} is not 2")
        for j in range(n):
            if i != j and cartan[i][j] > 0:
                raise DiagramError(f"positive off-diagonal entry at ({i},{j})")
            if i != j and (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise DiagramError(f"asymmetric zero pattern at ({i},{j})")
    if len(connected_components(range(n), lambda u, v: cartan[u][v])) != 1:
        raise DiagramError("cartan matrix is decomposable")


def connected_components(nodes, adjacent) -> list[list]:
    """Connected components of the graph on `nodes` in which u and w are
    joined when adjacent(u, w) is true (or a nonzero number).

    Each component lists its nodes in the order they are reached.
    """
    todo = list(nodes)
    comps = []
    while todo:
        comp = [todo.pop()]
        for u in comp:
            rest = []
            for w in todo:
                (comp if adjacent(u, w) else rest).append(w)
            todo = rest
        comps.append(comp)
    return comps


def is_affine_type(cartan) -> tuple[int, ...] | None:
    """The positive primitive kernel vector of an affine-type GCM, or None.

    The input must satisfy the generalized-Cartan conditions and be
    indecomposable; violations are rejected with the failing condition.
    A single node is the degenerate rank-0 diagram with marks (1,).
    """
    return _relation_vector(tuple(_ints(row, "cartan entry") for row in cartan))


@lru_cache(maxsize=None)
def _relation_vector(cartan: tuple[IVec, ...]) -> tuple[int, ...] | None:
    """is_affine_type on a matrix of ints, once per matrix."""
    _check_gcm(cartan)
    if len(cartan) == 1:
        return (1,)
    return positive_kernel(transpose(cartan))


def make_diagram(cartan, marks=None, sq_lengths=None) -> AffineDiagram:
    """Validated AffineDiagram; marks/lengths are derived when omitted.

    Entries and marks must be integers (2.0 is, 2.5 is not).  The relation
    vector and the lengths derived from the Cartan integers are computed
    once per matrix; given marks must be positive and the relation vector
    times their gcd, given lengths one per node, positive and a multiple of
    the derived ones.  Those are the lengths with n(u,v) l(v)^2 =
    n(v,u) l(u)^2 on every bond: the diagram is connected, so the bonds fix
    them up to a scale.
    """
    cartan = tuple(_ints(row, "cartan entry") for row in cartan)
    rel = _relation_vector(cartan)
    if rel is None:
        raise DiagramError("cartan matrix is not of affine type")
    if marks is None:
        marks = rel
    else:
        marks = _ints(marks, "mark")
        if any(m <= 0 for m in marks):
            raise DiagramError("marks must be positive")
        if len(marks) != len(rel) or (
            len(rel) > 1 and tuple(m // gcd(*marks) for m in marks) != rel
        ):
            raise DiagramError("marks are not the affine relation vector")
    lens = _lengths_from_cartan(cartan)
    if sq_lengths is None:
        sq_lengths = lens
    else:
        sq_lengths = tuple(Q(x) for x in sq_lengths)
        if len(sq_lengths) != len(lens):
            raise DiagramError(f"{len(sq_lengths)} squared lengths for {len(lens)} nodes")
        if any(x <= 0 for x in sq_lengths):
            raise DiagramError("squared lengths must be positive")
        if any(x * lens[0] != sq_lengths[0] * y for x, y in zip(sq_lengths, lens)):
            raise DiagramError("lengths inconsistent with Cartan integers")
    return AffineDiagram(cartan, marks, sq_lengths)


@lru_cache(maxsize=None)
def _lengths_from_cartan(cartan: tuple[IVec, ...]) -> tuple[Q, ...]:
    """Squared lengths consistent with the Cartan integers, min scaled to 2,
    once per matrix.

    The walk is in ints from 12 at node 0: an affine diagram's squared
    lengths are 1 to 4 times the shortest, in the ratios 1:2:4 or 1:3
    (Kac, Ch. 4), so each one is 12 times a ratio whose denominator
    divides 12."""
    n = len(cartan)
    lens: list[int | None] = [None] * n
    lens[0] = 12
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v != u and cartan[u][v] != 0:
                # n(u,v) l(v)^2 = n(v,u) l(u)^2
                lv, r = divmod(lens[u] * cartan[v][u], cartan[u][v])
                if lens[v] is None and not r:
                    lens[v] = lv
                    stack.append(v)
                elif r or lens[v] != lv:
                    raise DiagramError("inconsistent length assignment")
    lo = min(lens)
    return tuple(Q(2 * x, lo) for x in lens)


@lru_cache(maxsize=None)
def diagram_of(st: SimpleType) -> AffineDiagram:
    """Extended coroot diagram of a catalog type, off the bond table
    (rootdata.extended_cartan) without building the datum: the marks are
    the kernel of the transposed matrix, the lengths follow from the Cartan
    integers with the shortest 2."""
    return make_diagram(rootdata.extended_cartan(st))


def dual_coxeter(st: SimpleType) -> int:
    """Dual Coxeter number, the sum of the coroot integers (the marks of
    diagram_of); 1 for A0."""
    return sum(diagram_of(st).marks)


# ---------------------------------------------------------------------------
# isomorphism and automorphisms


def _invariants(c: tuple[IVec, ...]) -> tuple[tuple, tuple, tuple]:
    """Per-node isomorphism invariants of a Cartan matrix (its sorted row
    and column), their sorted list, and each node's neighbours in
    ascending order.

    Lengths and marks are not read: a bijection that preserves the Cartan
    integers of an indecomposable affine matrix preserves the ratios of its
    lengths and its marks, the line its transpose kills (Kac, Ch. 4).
    """
    nodes = range(len(c))
    nbrs = tuple(tuple(v for v in nodes if v != u and (c[u][v] or c[v][u])) for u in nodes)
    base = [(tuple(sorted(row)), tuple(sorted(col))) for row, col in zip(c, zip(*c))]
    # one round of neighbor refinement
    inv = tuple((base[u], tuple(sorted(base[v] for v in nbrs[u]))) for u in nodes)
    return inv, tuple(sorted(inv)), nbrs


@lru_cache(maxsize=None)
def _catalog_invariants(st: SimpleType) -> tuple[tuple, tuple, tuple]:
    return _invariants(rootdata.extended_cartan(st))


def _isomorphisms(c1: tuple[IVec, ...], inv1, c2: tuple[IVec, ...], inv2, first_only: bool):
    """Node bijections p with c2[p(u)][p(v)] == c1[u][v].

    inv1, inv2 are the _invariants of c1 and c2, which callers compute
    once.  Nodes of c1 are placed in the order a graph search reaches them,
    so each new node u but a component's first has a placed neighbour; u's
    image is drawn, in ascending order, from the neighbours of that
    neighbour's image, since any other target breaks the bond.  The bonds
    of u are checked against its placed neighbours only, and the image must
    have as many placed neighbours, so no other bond appears.
    """
    if len(c1) != len(c2) or inv1[1] != inv2[1]:
        return []
    n = len(c1)
    (inv1, _, nbrs1), (inv2, _, nbrs2) = inv1, inv2
    order = [u for c in connected_components(range(n), lambda u, v: c1[u][v]) for u in c]
    pos = {u: i for i, u in enumerate(order)}
    # per step: the node and its neighbours placed before it
    steps = [(u, [v for v in nbrs1[u] if pos[v] < i]) for i, u in enumerate(order)]
    found: list[tuple[int, ...]] = []
    perm = [-1] * n
    used = [False] * n
    placed_nbrs2 = [0] * n  # per node of d2, how many of its neighbours are images

    def extend(i: int) -> bool:
        if i == n:
            found.append(tuple(perm))
            return first_only
        u, back = steps[i]
        for t in nbrs2[perm[back[0]]] if back else range(n):
            if used[t] or placed_nbrs2[t] != len(back) or inv1[u] != inv2[t]:
                continue
            for v in back:
                if c1[u][v] != c2[t][perm[v]] or c1[v][u] != c2[perm[v]][t]:
                    break
            else:
                perm[u] = t
                used[t] = True
                for w in nbrs2[t]:
                    placed_nbrs2[w] += 1
                if extend(i + 1):
                    return True
                for w in nbrs2[t]:
                    placed_nbrs2[w] -= 1
                used[t] = False
                perm[u] = -1
        return False

    extend(0)
    return found


def automorphism_group(d: AffineDiagram) -> list[tuple[int, ...]]:
    """All Cartan-matrix automorphisms, sorted; each keeps the marks too."""
    inv = _invariants(d.cartan)
    return sorted(_isomorphisms(d.cartan, inv, d.cartan, inv, first_only=False))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p after q): node v goes to p[q[v]]."""
    return tuple(p[q[v]] for v in range(len(p)))


def composition_table(group: list[tuple[int, ...]]) -> list[list[int]]:
    index = {p: i for i, p in enumerate(group)}
    return [[index[compose(p, q)] for q in group] for p in group]


def closure(seeds, step) -> set:
    """The smallest set that holds the seeds and every element that
    step(x) yields for each x in it."""
    out = set(seeds)
    todo = list(out)
    while todo:
        for y in step(todo.pop()):
            if y not in out:
                out.add(y)
                todo.append(y)
    return out


def generated_group(gens, n: int) -> list[tuple[int, ...]]:
    return sorted(closure([tuple(range(n))], lambda p: (compose(g, p) for g in gens)))


class ClassifyResult(namedtuple("ClassifyResult", "type scale node_map")):
    """type: SimpleType; scale: int, the marks are scale * (catalog coroot
    integers); node_map: tuple[int, ...], input node -> catalog node."""

    __slots__ = ()


@lru_cache(maxsize=None)
def _candidate_types(rank: int) -> tuple[SimpleType, ...]:
    out = []
    for fam in FAMILIES:
        st = SimpleType(fam, rank)
        try:
            rootdata.validate_type(st)
        except ValueError:
            continue
        if fam == "B" and rank == 2:
            continue  # alias of C2, one datum
        out.append(st)
    return tuple(out)


def classify(d: AffineDiagram) -> ClassifyResult | None:
    """Catalog type whose extended coroot diagram is isomorphic to d.

    The marks must be positive and killed by the transposed matrix, a test
    made once: they are then a multiple (the scale) of the coroot integers
    and every isomorphism carries them, so the search reads the Cartan
    matrices alone, the catalog's off the bond table.  Lengths are not read
    either; the answer is computed once per (cartan, marks).  Returns None
    for marks that fail the test and for diagrams outside the catalog,
    which affine-type input never is."""
    return _classify(tuple(map(tuple, d.cartan)), tuple(d.marks))


@lru_cache(maxsize=None)
def _classify(cartan: tuple[IVec, ...], marks: IVec) -> ClassifyResult | None:
    if len(marks) == 1:
        return ClassifyResult(TRIVIAL, marks[0], (0,))
    if min(marks) <= 0 or any(sum(map(mul, marks, col)) for col in zip(*cartan)):
        return None
    inv = _invariants(cartan)
    for st in _candidate_types(len(marks) - 1):
        cat = rootdata.extended_cartan(st)
        iso = _isomorphisms(cartan, inv, cat, _catalog_invariants(st), first_only=True)
        if iso:
            return ClassifyResult(st, gcd(*marks), iso[0])
    return None


# ---------------------------------------------------------------------------
# Quotient diagrams


def orbits_of(group, n_nodes: int) -> list[tuple[int, ...]]:
    """Orbits of a permutation list, each sorted, ordered by least element."""
    placed: set[int] = set()
    orbits = []
    for v in range(n_nodes):
        if v not in placed:
            orbit = closure([v], lambda u: (p[u] for p in group))
            placed |= orbit
            orbits.append(tuple(sorted(orbit)))
    return orbits


def orbit_kind(d: AffineDiagram, orbit: tuple[int, ...]) -> int:
    """1 for an ordinary orbit, 2 for an exceptional one; else DiagramError."""
    inner = [
        (u, v) for i, u in enumerate(orbit) for v in orbit[i + 1 :] if d.bonded(u, v)
    ]
    if not inner:
        return 1
    partner: dict[int, int] = {}
    for u, v in inner:
        if u in partner or v in partner:
            raise DiagramError(f"orbit {orbit} is neither ordinary nor exceptional")
        if d.cartan[u][v] != -1 or d.cartan[v][u] != -1:
            raise DiagramError(f"orbit {orbit} has a multiple internal bond")
        partner[u] = v
        partner[v] = u
    if len(partner) != len(orbit):
        raise DiagramError(f"orbit {orbit} is neither ordinary nor exceptional")
    return 2


def _validate_subgroup(d: AffineDiagram, group) -> list[tuple[int, ...]]:
    """The sorted group of diagram automorphisms listed (the identity may
    be left out), or DiagramError.  Each element must be a permutation that
    keeps the marks.  The Cartan integers are checked on generators only,
    the elements not yet generated in list order, and the list is closed
    exactly when it is the group they generate."""
    n, cartan, marks = d.n_nodes, d.cartan, d.marks
    perms = [tuple(p) for p in group]
    ident = tuple(range(n))
    if ident not in perms:
        perms.append(ident)
    gens: list[tuple[int, ...]] = []
    generated = {ident}
    for p in perms:
        if sorted(p) != list(range(n)):
            raise DiagramError(f"{p} is not a permutation of the nodes")
        if p not in generated:
            if any(cartan[p[u]][p[v]] != cartan[u][v] for u in range(n) for v in range(n)):
                raise DiagramError(f"{p} is not a diagram automorphism")
            gens.append(p)
            generated = set(generated_group(gens, n))
        if any(marks[p[u]] != marks[u] for u in range(n)):
            raise DiagramError(f"{p} does not preserve the marks")
    if generated != set(perms):
        raise DiagramError("automorphism list is not closed under composition")
    return sorted(generated)


def quotient(d: AffineDiagram, group) -> AffineDiagram:
    """Quotient diagram of d by a subgroup of its automorphisms.

    Nodes of the quotient are orbits ordered by least original node.  The
    Cartan integers are n(ou,ov) = eps(ov) * sum over ov of n(u,.), which
    reduces to the two stabilizer-containment formulas on trees and handles
    the cycle diagrams uniformly.  Marks add up over orbits.  In the
    degenerate case of a transitive action on a cycle the quotient is a
    single node whose mark is the sum of all marks.
    """
    perms = _validate_subgroup(d, group)
    orbs = orbits_of(perms, d.n_nodes)
    if len(orbs) == 1:
        # of the affine diagrams only the A cycles have a transitive group
        res = d.n_nodes > 1 and classify(d)
        if not res or res.type.family != "A":
            raise DiagramError("transitive action on a non-cycle diagram")
        return AffineDiagram(((2,),), (sum(d.marks),), (Q(2),))
    eps = [orbit_kind(d, o) for o in orbs]
    k = len(orbs)
    cartan = [[0] * k for _ in range(k)]
    for i in range(k):
        cartan[i][i] = 2
    for i, ou in enumerate(orbs):
        for j, ov in enumerate(orbs):
            if i == j:
                continue
            vals = {
                eps[j] * sum(d.cartan[u][v] for v in ov) for u in ou
            }
            if len(vals) != 1:
                raise DiagramError(
                    f"Cartan integer between orbits {ou} and {ov} is ill-defined"
                )
            cartan[i][j] = vals.pop()
    marks = tuple(sum(d.marks[u] for u in o) for o in orbs)
    return make_diagram(cartan, marks)


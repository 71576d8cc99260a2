"""Fraction routes that only the tests use.

The library computes in integer simple-coroot coordinates.  The routes
here work on Fraction vectors, ambient ones where a root datum is
involved, with their own Gauss-Jordan elimination and a general Gram
form.  They share no code with the library's integer elimination, kernels
and scaling to ints, so a test that compares a library result with one of
them compares two different routes.  coroots.linalg takes ints only, so
int_rows scales a rational matrix's rows to ints for it; the Fraction
routes keep the unscaled matrix.

The three adapters near the end are not oracles: they give the integer
root-set routes (coroots.projection's reflection closure and the
classifier at the end of this file) the Fraction-vector signature they
once had, so tests can feed them Fraction roots.  Ambient vectors under a
scalar form go in with the identity as the integer form.

The root-datum section also holds what only tests read: the squared
coroot lengths of a datum, the alcove barycenter and the known center
orders per family.  Two more routes follow it: the Weyl part w_c of each
central element as a product of longest elements, which shares no code
with coroots.center, and the full-scan isomorphism search, by recursion,
that the library's neighbour-driven search on a stack must agree with,
pruned by invariants that hold the marks where the library's do not; a
group's composition table follows it.  The classifier built on it builds
every candidate's catalog diagram and matches the marks node for node;
the library tests the marks once and reads the bond tables.  Beside it
are the bond rule for an A_n chain, which the library reads off the
finite classifier, the JSON reader of a component record, and the
all-pairs rule for a list of automorphisms, which checks
every element against the Cartan matrix and closure on every product,
where the library checks generators and compares with the group they
generate.  Then three rules the library now reaches another way: the
pairwise bond rule for given squared lengths (make_diagram tests a
multiple of the lengths it derives), the length walk on Fractions (the
library walks in ints), and the survivor type tags of a derived diagram,
read off chains this file grows itself.

After the adapters comes the inverse route to the projected coroots: each
orbit's first extended coroot times the orthogonal projector onto the
fixed subspace, solved here on Fractions.  coords.project checks the
defining property of the projection instead, so the two share no step.

Then comes the root-filter route to the annihilator factors that
coroots.projection reads off a Weyl-chamber walk: every root generated by
the root-string rule, filtered by its values on a basis, split into
orthogonal classes and named by counting roots.  The last section is the
root-enumeration route to the restricted root systems that the same walk
gives: the reflection closure of the orbit restrictions, a simple system
of its indivisible roots for a generic functional, and the Cartan matrix
of that system, classified component by component.
"""

from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul

from coroots.ambient import add, alcove, datum, is_zero, mat, scale
from coroots.center import orbit_data
from coroots.coords import coroot_form, fixed_subspace_coords, products, root_form
from coroots.diagrams import (
    ClassifyResult,
    DiagramError,
    _candidate_types,
    classify_finite_cartan,
    compose,
    connected_components,
    diagram_of,
)
from coroots.linalg import cartan_integers, int_dot, transpose
from coroots.moduli import ComponentRecord
from coroots.projection import _reflection_closure
from coroots.rootdata import TRIVIAL, SimpleType, extended_cartan, root_integers

# ---------------------------------------------------------------------------
# Linear algebra on Fractions


def dot(u, v, gram=None):
    """Inner product, Euclidean or with respect to any Gram matrix."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    if gram is None:
        return sum((a * b for a, b in zip(u, v)), Q(0))
    # root and coroot vectors are sparse: only nonzero entries contribute
    support = [j for j, x in enumerate(v) if x]
    return sum((a * gram[i][j] * v[j] for i, a in enumerate(u) if a for j in support), Q(0))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def row_echelon(m):
    """Gauss-Jordan elimination on Fractions: (reduced rows, pivot columns).
    Integer entries stay ints until a pivot other than 1 or -1 divides
    them."""
    rows = [list(r) for r in m]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv in (1, -1):
            rows[r] = [x * pv for x in rows[r]]
        else:
            rows[r] = [x / Q(pv) for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        if len(pivots) == n_rows:
            break
    return [tuple(row) for row in rows], pivots


def rank(m):
    return len(row_echelon(m)[1])


def row_scale(row):
    """The least positive int that makes a rational row integral: the LCM
    of its denominators."""
    return lcm(*(Q(x).denominator for x in row))


def int_rows(m):
    """A rational matrix with each row times its row_scale, as int tuples:
    the input coroots.linalg takes.  Scaling rows keeps the kernel and the
    reduced row echelon form."""
    out = []
    for row in m:
        s = row_scale(row)
        out.append(tuple(int(x * s) for x in row))
    return out


def gauss_jordan_inverse(m):
    """The inverse of a square matrix, read off the reduced [m | I], or None
    if m is singular."""
    n = len(m)
    rows, pivots = row_echelon([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)])
    if pivots != list(range(n)):
        return None
    return [tuple(Q(x) for x in row[n:]) for row in rows]


def solve(m, b):
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return () if is_zero(b) else None
    n = len(m[0])
    rows, pivots = row_echelon([list(row) + [bi] for row, bi in zip(m, b, strict=True)])
    if n in pivots:
        return None
    x = [Q(0)] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return tuple(x)


def coords_in_basis(v, basis):
    """Coordinates of v in a linearly independent list, or None off its span."""
    if not basis:
        return () if is_zero(v) else None
    return solve(transpose(mat(basis)), v)


def in_span(v, basis):
    return coords_in_basis(v, basis) is not None


def in_lattice(v, basis):
    """Membership of v in the integer span of a linearly independent basis."""
    c = coords_in_basis(v, basis)
    return c is not None and all(x.denominator == 1 for x in c)


def kernel(m):
    """Right kernel basis, each vector coprime integers with positive lead."""
    rows, pivots = row_echelon(m)
    out = []
    for f in (c for c in range(len(m[0])) if c not in pivots):
        v = [Q(int(c == f)) for c in range(len(m[0]))]
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        s = lcm(*(x.denominator for x in v))
        ints = [int(x * s) for x in v]
        g = gcd(*ints) if next(x for x in ints if x) > 0 else -gcd(*ints)
        out.append(tuple(x // g for x in ints))
    return out


def det(m):
    """Determinant by Fraction elimination."""
    rows = [[Q(x) for x in r] for r in m]
    n = len(rows)
    out = Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def lattice_index(sub, sup):
    """Index of the lattice of basis `sub` in that of `sup` (same span)."""
    if len(sub) != len(sup):
        raise ValueError("lattices of different rank")
    coords = [coords_in_basis(v, sup) for v in sub]
    if any(c is None for c in coords):
        raise ValueError("sublattice not contained in span")
    index = abs(det(coords))
    if index == 0 or index.denominator != 1:
        raise ValueError("not a sublattice")
    return int(index)


def gram_of(vectors, gram=None):
    """Symmetric matrix of pairwise inner products."""
    return tuple(tuple(dot(u, v, gram) for v in vectors) for u in vectors)


def orthogonal_project(v, span, gram=None):
    """Orthogonal projection of v onto span(span) under the Gram form; the
    spanning vectors need not be independent.  Rejects a degenerate form."""
    return project_many([v], span, gram)[0]


def project_many(vs, span, gram=None):
    """Orthogonal projections of several vectors onto one span."""
    indep = []
    for s in span:
        if not in_span(s, indep):
            indep.append(s)
    g = gram_of(indep, gram)
    if len(row_echelon(g)[1]) < len(indep):
        raise ValueError("gram form degenerate on span")
    out = []
    for v in vs:
        p = tuple(Q(0) for _ in v)
        for c, s in zip(solve(g, tuple(dot(v, s, gram) for s in indep)), indep):
            p = add(p, scale(c, s))
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# Root data in ambient coordinates


def pairing(d, root, t):
    """Value a(t) of the root with vector `root` on t."""
    return dot(root, t, d.gram)


def cartan(d, u, v):
    """Cartan number 2<u,v>/<v,v> of two nonzero vectors."""
    return 2 * dot(u, v, d.gram) / dot(v, v, d.gram)


def center_vertex(st, node):
    """The ambient alcove vertex of an h=1 node (node 0 -> origin)."""
    assert datum(st).h[node] == 1
    return alcove(st).vertices[node]


def coroot_sq_lengths(d):
    """Squared lengths of the extended coroots under the Gram form."""
    return tuple(dot(v, v, d.gram) for v in d.extended_coroots)


def barycenter(st):
    """Barycenter of the ambient alcove vertices."""
    verts = alcove(st).vertices
    total = tuple(Q(0) for _ in verts[0])
    for v in verts:
        total = add(total, v)
    return scale(Q(1, len(verts)), total)


# Known orders of the center (coweight/coroot lattice index) per family.
CENTER_ORDER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
    "F": lambda n: 1,
    "G": lambda n: 1,
    "BC": lambda n: 1,
}


def center_order(st):
    return CENTER_ORDER[st.family](st.rank)


def coroot_coords(d, v):
    """Coordinates of a coroot-span vector in the simple-coroot basis."""
    return coords_in_basis(v, d.coroot_lattice_basis)


def from_coroot_coords(d, coords):
    out = tuple(Q(0) for _ in range(d.ambient_dim))
    for c, b in zip(coords, d.coroot_lattice_basis, strict=True):
        out = add(out, scale(c, b))
    return out


def apply_perm_coords(perm, g, x):
    """Coordinates of the image of sum_i x_i a_i^vee under a_i^vee -> a_{perm[i]}^vee."""
    y = [Q(0)] * len(x)
    shift = Q(0)
    for i, xi in enumerate(x, start=1):
        j = perm[i]
        if j:
            y[j - 1] += xi
        else:
            shift = xi / g[0]
    if shift:
        y = [yj - shift * gj for yj, gj in zip(y, g[1:])]
    return tuple(y)


def perm_matrix_on_coroots(d, perm):
    """Matrix in the simple-coroot basis of a_i^vee -> a_{perm[i]}^vee, as
    int rows: entry (k, i) is 1 where perm sends node i to node k, and -g_k
    where it sends node i to node 0, as a_0^vee = -sum_k g_k a_k^vee when
    g_0 = 1 (every type with a nontrivial center)."""
    assert perm[0] == 0 or d.g[0] == 1
    nodes = range(1, d.rank + 1)
    return tuple(
        tuple(int(perm[i] == k) - (d.g[k] if perm[i] == 0 else 0) for i in nodes)
        for k in nodes
    )


def fixed_subspace_kernel(d, sub_):
    """Simple-coroot coordinates of a basis of the subspace fixed by w_C:
    the kernel of M_e - I stacked over every non-identity element e, or the
    unit vectors."""
    n = d.rank
    rows = []
    for e in sub_.elements:
        if not e.is_identity:
            m = perm_matrix_on_coroots(d, e.perm)
            rows += [[x - 1 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    return kernel(rows) if rows else [tuple(int(j == i) for j in range(n)) for i in range(n)]


def fixed_subspace_basis(d, sub_):
    """Ambient basis of the subspace of the coroot span fixed by w_C."""
    return [from_coroot_coords(d, c) for c in fixed_subspace_kernel(d, sub_)]


# ---------------------------------------------------------------------------
# Weyl group elements by descent


def _longest(cartan, nodes):
    """The longest element w of the Weyl group generated by the reflections
    at `nodes`, as the images w(a_j) of the simple roots in integer
    simple-root coordinates; cartan[j][i] = a_i(a_j^vee).  Built by descent:
    w becomes w s_j while some j in nodes has w(a_j) > 0."""
    n = len(cartan)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    while True:
        j = next((j for j in nodes if max(cols[j]) > 0), None)
        if j is None:
            return cols
        wj = cols[j]
        for i in range(n):
            if cartan[j][i]:  # (w s_j)(a_i) = w(a_i) - a_i(a_j^vee) w(a_j)
                cols[i] = [x - cartan[j][i] * y for x, y in zip(cols[i], wj)]


def w_c_perms(st):
    """{c: perm} over the nontrivial central nodes c (root integer 1), where
    w_c = w_0^J w_0 with J the finite nodes other than c (Bourbaki, Lie
    Groups and Lie Algebras VI.2.3) maps a_i to a_{perm[i]}.

    The Cartan integers and the root integers h come from the ambient
    datum's vectors, and the extended root a_0 = -theta = -sum h_i a_i is
    written in simple-root coordinates."""
    d = datum(st)
    roots, n = d.extended_roots, st.rank
    cartan = [[int(pairing(d, roots[i], d.extended_coroots[j])) for i in range(1, n + 1)]
              for j in range(1, n + 1)]
    h = [int(x) for x in coords_in_basis(scale(-1, roots[0]), roots[1:])]
    ext = [tuple(-x for x in h)] + [tuple(int(i == j) for i in range(n)) for j in range(n)]

    def act(cols, x):
        return tuple(sum(xj * col[k] for xj, col in zip(x, cols)) for k in range(n))

    w0 = _longest(cartan, range(n))
    out = {}
    for c in (j + 1 for j in range(n) if h[j] == 1):
        w0_J = _longest(cartan, [j for j in range(n) if j != c - 1])
        out[c] = tuple(ext.index(act(w0_J, act(w0, a))) for a in ext)
    return out


# ---------------------------------------------------------------------------
# Diagram isomorphisms by a full scan


def mark_invariants(c, marks):
    """Per-node invariants of a Cartan matrix with node marks, refined once
    by the neighbours' (the mark and the sorted row and column of each
    node), and their sorted list.  The library's invariants leave the marks
    out, so the scan below prunes on finer ones."""
    nodes = range(len(c))
    base = [(m, tuple(sorted(row)), tuple(sorted(col))) for m, row, col in zip(marks, c, zip(*c))]
    inv = tuple(
        (base[u], tuple(sorted(base[v] for v in nodes if v != u and (c[u][v] or c[v][u]))))
        for u in nodes
    )
    return inv, tuple(sorted(inv))


def scan_isomorphisms(c1, inv1, c2, inv2):
    """Node bijections p with c2[p(u)][p(v)] == c1[u][v] and equal marks,
    lazily, in the order coroots.diagrams._isomorphisms finds them.

    inv1, inv2 are the mark_invariants of the two Cartan matrices with
    their marks.  Nodes of c1 are placed in the same graph-search order, but
    each tries every unused target with equal invariants against every node
    placed so far, by recursion."""
    if len(c1) != len(c2) or inv1[1] != inv2[1]:
        return
    n = len(c1)
    inv1, inv2 = inv1[0], inv2[0]
    order = [u for c in connected_components(range(n), lambda u, v: c1[u][v]) for u in c]
    perm = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            yield tuple(perm)
            return
        u = order[i]
        for t in range(n):
            if used[t] or inv1[u] != inv2[t]:
                continue
            for v in order[:i]:
                if c1[u][v] != c2[t][perm[v]] or c1[v][u] != c2[perm[v]][t]:
                    break
            else:
                perm[u] = t
                used[t] = True
                yield from extend(i + 1)
                used[t] = False
                perm[u] = -1

    yield from extend(0)


def composition_table(group):
    """Index of p after q in the group, for each pair (p, q) of its list."""
    index = {p: i for i, p in enumerate(group)}
    return [[index[compose(p, q)] for q in group] for p in group]


def classify_by_catalog_scan(d):
    """coroots.diagrams.classify by building every candidate's catalog
    diagram: d's marks over their gcd must equal the candidate's coroot
    integers under a bijection that the full scan finds, pruned by
    mark_invariants.  The library tests the marks once and searches on the
    Cartan matrices alone."""
    if d.n_nodes == 1:
        return ClassifyResult(TRIVIAL, d.marks[0], (0,))
    scale = gcd(*d.marks)
    inv = mark_invariants(d.cartan, tuple(m // scale for m in d.marks))
    for st in _candidate_types(d.n_nodes - 1):
        cat = diagram_of(st)
        cat_inv = mark_invariants(cat.cartan, cat.marks)
        iso = next(scan_isomorphisms(d.cartan, inv, cat.cartan, cat_inv), None)
        if iso is not None:
            return ClassifyResult(st, scale, iso)
    return None


def is_a_chain(cartan, comp):
    """Whether the nodes comp of a Cartan matrix span an A_n chain, by the
    bond rule the library once applied: each node has at most two simply
    laced neighbours in comp, and a component of two or more nodes has
    exactly two ends."""
    nbrs = {u: [v for v in comp if v != u and cartan[u][v]] for u in comp}
    if any(len(vs) > 2 or any(cartan[u][v] * cartan[v][u] != 1 for v in vs)
           for u, vs in nbrs.items()):
        return False
    return len(comp) == 1 or sum(len(vs) == 1 for vs in nbrs.values()) == 2


def record_from_json(obj):
    """The ComponentRecord of a moduli.record_to_json payload."""
    return ComponentRecord(
        int(obj["order"]),
        int(obj["label"]),
        int(obj["d_X"]),
        int(obj["dim"]),
        str(obj["shape"]),
        Q(obj["cs"]),
        int(obj["torus_rank"]),
        None if obj.get("f_order") is None else int(obj["f_order"]),
    )


def validate_subgroup_all_pairs(d, group):
    """The sorted list of group's automorphisms with the identity, checked
    element by element (a permutation, the Cartan integers on every pair
    of nodes, the marks) and then for closure on all |G|^2 products; raises
    DiagramError with the library's messages."""
    n, cartan, marks = d.n_nodes, d.cartan, d.marks
    perms = [tuple(p) for p in group]
    if tuple(range(n)) not in perms:
        perms.append(tuple(range(n)))
    for p in perms:
        if sorted(p) != list(range(n)):
            raise DiagramError(f"{p} is not a permutation of the nodes")
        for u in range(n):
            for v in range(n):
                if cartan[p[u]][p[v]] != cartan[u][v]:
                    raise DiagramError(f"{p} is not a diagram automorphism")
        if any(marks[p[u]] != marks[u] for u in range(n)):
            raise DiagramError(f"{p} does not preserve the marks")
    for p in perms:
        for q in perms:
            if tuple(p[q[v]] for v in range(n)) not in perms:
                raise DiagramError("automorphism list is not closed under composition")
    return sorted(set(perms))


def kac_accepts(cartan, marks):
    """Kac's criterion for a Cartan matrix with given marks: an
    indecomposable generalized Cartan matrix whose transpose kills a
    positive vector is of affine type, and that vector spans the kernel
    (Kac, Infinite-dimensional Lie algebras, Thm 4.3 and Cor. 4.3).  No
    elimination: true when the matrix is an indecomposable GCM and the marks
    are positive, one per node, with A^T marks = 0.  A single node is the
    rank-0 diagram and takes any positive mark."""
    n = len(cartan)
    if any(len(row) != n for row in cartan) or len(marks) != n:
        return False
    if any(cartan[i][i] != 2 for i in range(n)):
        return False
    for i in range(n):
        for j in range(n):
            if i != j and (cartan[i][j] > 0 or (cartan[i][j] == 0) != (cartan[j][i] == 0)):
                return False
    if len(connected_components(range(n), lambda u, v: cartan[u][v])) != 1:
        return False
    if any(m <= 0 for m in marks):
        return False
    return n == 1 or all(sum(m * a for m, a in zip(marks, col)) == 0 for col in zip(*cartan))


def check_lengths(cartan, lens):
    """One positive squared length per node, with n(u,v) l(v)^2 =
    n(v,u) l(u)^2 on every bonded pair, or DiagramError with the failing
    condition.  The pairwise rule make_diagram's multiple-of-the-derived-
    lengths test replaced; cartan must be a GCM."""
    n = len(cartan)
    if len(lens) != n:
        raise DiagramError(f"{len(lens)} squared lengths for {n} nodes")
    if any(x <= 0 for x in lens):
        raise DiagramError("squared lengths must be positive")
    for u in range(n):
        for v in range(u + 1, n):
            if cartan[u][v] and cartan[u][v] * lens[v] != cartan[v][u] * lens[u]:
                raise DiagramError("lengths inconsistent with Cartan integers")


def lengths_from_cartan(cartan):
    """Squared lengths with n(u,v) l(v)^2 = n(v,u) l(u)^2 on every bond, the
    shortest 2, by a walk on Fractions from 1 at node 0: the route
    make_diagram took before its walk went to ints.  cartan must be an
    indecomposable GCM; an inconsistent bond raises DiagramError."""
    n = len(cartan)
    lens = [None] * n
    lens[0] = Q(1)
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v != u and cartan[u][v] != 0:
                lv = lens[u] * Q(cartan[v][u], cartan[u][v])
                if lens[v] is None:
                    lens[v] = lv
                    stack.append(v)
                elif lens[v] != lv:
                    raise DiagramError("inconsistent length assignment")
    lo = min(lens)
    return tuple(2 * x / lo for x in lens)


def node_type(m, k, v):
    """The type tag of survivor v of the marked diagram m at order k, from
    a scan of its own: the non-surviving nodes (k does not divide n_u) are
    grown into chains along bonds, and v's tag is read off the chains it
    touches.  inf for a lone survivor, 1 beside no chain; one chain of one
    node, longer than v: 2ii; two chains of sizes (1, 1): 2i, or 4i when v
    is longer than one of them; (2, 2): 3, (3, 3): 4ii, (1, 3): 4iii."""
    dia = m.diagram
    nodes = range(dia.n_nodes)
    assert m.n[v] % k == 0, (v, k)
    rest = {u for u in nodes if m.n[u] % k}
    chains = []
    while rest:
        chain, todo = set(), [min(rest)]
        while todo:
            u = todo.pop()
            if u in rest:
                rest.remove(u)
                chain.add(u)
                todo += [w for w in rest if dia.cartan[u][w]]
        chains.append(chain)
    touching = [c for c in chains if any(dia.cartan[v][u] for u in c)]
    if not touching:
        return "1"
    if sum(m.n[u] % k == 0 for u in nodes) == 1:
        return "inf"
    lens = dia.sq_lengths
    sizes = tuple(sorted(len(c) for c in touching))
    if sizes == (1,) and lens[v] < lens[min(touching[0])]:
        return "2ii"
    if sizes == (1, 1):
        return "2i" if all(lens[v] <= lens[min(c)] for c in touching) else "4i"
    tag = {(2, 2): "3", (3, 3): "4ii", (1, 3): "4iii"}.get(sizes)
    assert tag is not None, (v, k, sizes)
    return tag


# ---------------------------------------------------------------------------
# Adapters: Fraction vectors into the integer root-set routes


def _scaled(vectors, gram):
    """The nonzero vectors times the LCM of their denominators, as int
    tuples, with the identity as their integer form; the Gram form must be
    a scalar times the identity."""
    if gram is not None:
        n, c = len(gram), gram[0][0]
        if c <= 0 or any(gram[i][j] != c * (i == j) for i in range(n) for j in range(n)):
            raise ValueError("the root-set machinery needs a scalar Gram matrix")
    vectors = [v for v in vectors if not is_zero(v)]
    s = lcm(*(x.denominator for v in vectors for x in v))
    dim = len(vectors[0]) if vectors else 0
    identity = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return [tuple(int(x * s) for x in v) for v in vectors], identity, s


def close_under_reflections(vectors, gram):
    """Reflection closure of a set of exact root vectors, sorted."""
    ints, identity, s = _scaled(vectors, gram)
    return [tuple(Q(x, s) for x in v) for v in sorted(_reflection_closure(ints, identity))]


def classify_finite_roots(roots, gram):
    """Type of an irreducible finite (possibly non-reduced) root system;
    A0 for an empty one."""
    factors = classify_root_components(roots, gram)
    if len(factors) > 1:
        raise AssertionError("root system is not irreducible")
    return factors[0] if factors else TRIVIAL


def classify_root_components(roots, gram):
    """Types of the irreducible factors of a finite root system, sorted."""
    return _classify_components(*_scaled(roots, gram)[:2])


# ---------------------------------------------------------------------------
# Projected coroots by the projector's inverse


def projected_coroots_by_inverse(st, sub_):
    """P x for each orbit's first extended coroot x, in simple-coroot
    coordinates over one common denominator: (the vectors times it, it).
    P is the B-orthogonal projector onto the fixed subspace with basis K:
    P x = K c with (K^T B K) c = K^T B x, solved on Fractions."""
    g = diagram_of(st).marks
    form = coroot_form(st)[0]
    span = fixed_subspace_coords(st, sub_)
    kb = [mat_vec(form, k) for k in span]
    gram = [[dot(a, k) for k in span] for a in kb]
    out = []
    for o in orbit_data(st, sub_).orbits:
        u = o.nodes[0]
        if u == 0:
            x = tuple(-Q(y, g[0]) for y in g[1:])
        else:
            x = tuple(Q(int(i == u)) for i in range(1, len(g)))
        c = solve(gram, tuple(dot(a, x) for a in kb))
        out.append(tuple(sum(ci * k[i] for ci, k in zip(c, span)) for i in range(st.rank)))
    den = lcm(*(x.denominator for v in out for x in v))
    return [tuple(int(x * den) for x in v) for v in out], den


# ---------------------------------------------------------------------------
# Annihilator factors by filtering every root

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


def root_system(st):
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
    cart, n = extended_cartan(st), st.rank
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
    return [r for r, _ in roots], [v for _, v in roots]


def annihilator_by_roots(st, coords):
    """Sorted types of the irreducible factors of the roots that vanish on
    every vector of a basis given in simple-coroot coordinates.

    A root r takes the value sum_i x_i r(a_i^vee) on sum_i x_i a_i^vee.  The
    kept roots are split into classes joined by non-orthogonality; each
    class is named by its rank, its number of indivisible roots and how
    many of those are shortest (_name_by_counts)."""
    roots, values = root_system(st)
    form = root_form(st)
    kept = [r for r, v in zip(roots, values) if not any(sum(map(mul, v, x)) for x in coords)]
    # the form's image of a root, as its nonzero (index, entry) pairs
    images = {
        r: [(i, c) for i, row in enumerate(form) if (c := sum(map(mul, row, r)))] for r in kept
    }
    todo, classes = kept, []
    while todo:
        cls, todo = [todo[0]], todo[1:]
        for u in cls:
            rest = []
            for w in todo:
                (cls if sum(c * w[i] for i, c in images[u]) else rest).append(w)
            todo = rest
        classes.append(cls)
    return sorted(_name_by_counts(cls, images) for cls in classes)


def _name_by_counts(roots, images):
    """The type of an irreducible root system, from its rank, its number N
    of indivisible roots and the number S of those that are shortest: BC_n
    when some root doubles; with one root length A_n (N = n(n+1)), D_n
    (N = 2n(n-1)) or E_n; with two, G_2, F_4, C_2, B_n (S = 2n) or C_n
    (S = 2n(n-1))."""
    rset = set(roots)
    indiv = [r for r in roots if any(x % 2 for x in r) or tuple(x // 2 for x in r) not in rset]
    n = len(row_echelon(indiv)[1])
    if len(indiv) != len(roots):
        return SimpleType("BC", n)
    sq = [sum(c * r[i] for i, c in images[r]) for r in roots]
    count, short = len(roots), sq.count(min(sq))
    if short == count:
        if count == n * (n + 1):
            family = "A"
        elif count == 2 * n * (n - 1):
            family = "D"
        elif (n, count) in ((6, 72), (7, 126), (8, 240)):
            family = "E"
        else:
            raise AssertionError(f"no simply laced type of rank {n} with {count} roots")
    elif (n, count) in ((2, 8), (2, 12), (4, 48)):
        family = {8: "C", 12: "G", 48: "F"}[count]
    elif short == 2 * n:
        family = "B"
    elif short == 2 * n * (n - 1):
        family = "C"
    else:
        raise AssertionError(f"no type of rank {n} with {count} roots, {short} short")
    return SimpleType(family, n)


# ---------------------------------------------------------------------------
# Restricted root systems by reflection closure


def restricted_by_roots(st, orbits):
    """Classify restrictions of the (extended) roots to the fixed subspace.

    The restriction of an orbit is the orbit average of its roots, taken
    here in simple-root coordinates (e_i for node i, -h for node 0, as
    sum_i h_i a_i = 0) times the LCM of the orbit sizes.  The orbit
    restrictions generate the restricted system under reflections once the
    doubled restrictions of exceptional orbits (bonded A_2 pairs) are
    thrown in.
    """
    h, n = root_integers(st), st.rank
    roots = [tuple(-x for x in h[1:])]
    roots += [tuple(int(k == i) for k in range(1, n + 1)) for i in range(1, n + 1)]
    m = lcm(*(len(o) for o in orbits))
    avgs = [tuple(m // len(o) * sum(xs) for xs in zip(*(roots[u] for u in o))) for o in orbits]
    fixed_dim = rank(avgs)
    cart = extended_cartan(st)
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


def _classify_components(roots, form):
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


def _simple_system(roots):
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
    simples = []
    for _, a in pos:
        if not any(tuple(x - y for x, y in zip(a, b)) in pset for b in simples):
            simples.append(a)
    return sorted(simples)

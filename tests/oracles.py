"""Fraction routes that only the tests use.

The library computes in integer simple-coroot coordinates.  The routes
here work on Fraction vectors, ambient ones where a root datum is
involved, with their own Gauss-Jordan elimination and a general Gram
form.  They share no code with the library's integer elimination, kernels
and scaling to ints, so a test that compares a library result with one of
them compares two different routes.

The three adapters at the end are not oracles: they give the integer
root-set routes of coroots.projection the Fraction-vector signature they
once had, so tests can feed them Fraction roots.  Ambient vectors under a
scalar form go in with the identity as the integer form.

The root-datum section also holds what only tests read: the squared
coroot lengths of a datum, the alcove barycenter and the known center
orders per family.  Two more routes follow it: the Weyl part w_c of each
central element as a product of longest elements, which shares no code
with coroots.center, and the full-scan isomorphism search that the
library's neighbour-driven search must agree with.

The last section is the inverse route to the projected coroots: each
orbit's first extended coroot times the projector (coords.projector),
built from one small inverse.  coords.project checks the defining property
of the projection instead, so the two share no step.
"""

from fractions import Fraction as Q
from math import gcd, lcm

from coroots.ambient import alcove, datum
from coroots.center import orbit_data
from coroots.coords import apply_projector, fixed_subspace_coords, projector
from coroots.diagrams import connected_components, diagram_of
from coroots.linalg import add, is_zero, mat, scale, transpose
from coroots.projection import _classify_components, _reflection_closure
from coroots.rootdata import TRIVIAL

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
    """Gauss-Jordan elimination on Fractions: (reduced rows, pivot columns)."""
    rows = [[Q(x) for x in r] for r in m]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        if len(pivots) == n_rows:
            break
    return [tuple(row) for row in rows], pivots


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
    """Matrix in the simple-coroot basis of a_i^vee -> a_{perm[i]}^vee."""
    units = [tuple(Q(int(k == i)) for k in range(d.rank)) for i in range(d.rank)]
    return transpose(tuple(apply_perm_coords(perm, d.g, e) for e in units))


def fixed_subspace_basis(d, sub_):
    """Ambient basis of the subspace of the coroot span fixed by w_C: the
    kernel of the stacked M_e - I, or every simple coroot."""
    n = d.rank
    rows = []
    for e in sub_.elements:
        if not e.is_identity:
            m = perm_matrix_on_coroots(d, e.perm)
            rows += [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    coords = kernel(rows) if rows else [[int(j == i) for j in range(n)] for i in range(n)]
    return [from_coroot_coords(d, c) for c in coords]


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


def scan_isomorphisms(c1, inv1, c2, inv2, first_only):
    """Node bijections p with c2[p(u)][p(v)] == c1[u][v] and equal marks, in
    the order coroots.diagrams._isomorphisms finds them.

    inv1, inv2 are diagrams._invariants of the two Cartan matrices with
    their marks.  Nodes of c1 are placed in the same graph-search order, but
    each tries every unused target with equal invariants against every node
    placed so far."""
    if len(c1) != len(c2) or inv1[1] != inv2[1]:
        return []
    n = len(c1)
    inv1, inv2 = inv1[0], inv2[0]
    order = [u for c in connected_components(range(n), lambda u, v: c1[u][v]) for u in c]
    found = []
    perm = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            found.append(tuple(perm))
            return first_only
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
                if extend(i + 1):
                    return True
                used[t] = False
                perm[u] = -1
        return False

    extend(0)
    return found


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
    P is coords.projector of the fixed subspace; x is the coroot times g_0."""
    g = diagram_of(st).marks
    p, den = projector(st, fixed_subspace_coords(st, sub_))
    firsts = []
    for o in orbit_data(st, sub_).orbits:
        u = o.nodes[0]
        firsts.append(tuple(-x for x in g[1:]) if u == 0 else
                      tuple(g[0] * (i == u) for i in range(1, len(g))))
    return [apply_projector(p, x) for x in firsts], den * g[0]

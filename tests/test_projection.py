"""The fixed-subspace systems: projections, restrictions, foldings."""

from fractions import Fraction as Q

import pytest

from coroots.center import (
    all_subgroups,
    orbit_data,
    parse_center,
    trivial_subgroup,
)
from coroots.coords import check_diagram1, project, torus_subspace_coords
from coroots.derived import quotient_marked
from coroots.diagrams import diagram_of
from coroots.linalg import (
    add,
    dot,
    int_dot,
    is_zero,
    kernel_basis,
    mat,
    rank,
    scale,
    sub,
    vec,
    zero_vec,
)
from coroots.moduli import catalog_types
from coroots.projection import (
    _simple_system,
    all_roots_of,
    annihilator_factors,
    classify_finite_cartan,
    fold,
    nonmultipliable,
    projection_type,
    restricted_type,
    root_system,
)
from coroots.ambient import datum
from coroots.rootdata import SimpleType, parse_type
from oracles import (
    cartan,
    classify_finite_roots,
    classify_root_components,
    close_under_reflections,
    fixed_subspace_basis,
    from_coroot_coords,
    in_span,
    mat_vec,
    pairing,
    perm_matrix_on_coroots,
    project_many,
)

SWEEP = (
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(3, 13)]
    + [f"C{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def lbl(t):
    return f"{t.family}{t.rank}"


@pytest.mark.parametrize("spec", SWEEP)
def test_diagram1_all_center_subgroups(spec):
    """The projected-coroot diagram equals the quotient diagram."""
    st = parse_type(spec)
    for sub in all_subgroups(st):
        rep = check_diagram1(st, sub)
        assert rep.equal, (spec, sub.nodes, rep.detail)


def test_project_examples():
    st = parse_type("E6")
    ps = project(st, parse_center(st, "full"))
    assert lbl(ps.classified.type) == "G2"
    assert sorted(ps.diagram.marks) == [3, 3, 6]
    st = parse_type("B6")
    ps = project(st, parse_center(st, "full"))
    assert lbl(ps.classified.type) == "BC5"
    assert sorted(ps.diagram.marks) == [1, 2, 2, 2, 2, 2]
    st = parse_type("A5")
    ps = project(st, trivial_subgroup(st))
    assert ps.diagram.cartan == diagram_of(st).cartan
    assert ps.diagram.marks == diagram_of(st).marks


def test_project_degenerate_full_center_of_a():
    st = parse_type("A4")
    ps = project(st, parse_center(st, "full"))
    assert ps.rank == 0
    assert ps.diagram.n_nodes == 1 and ps.diagram.marks == (5,)
    assert check_diagram1(st, parse_center(st, "full")).equal


@pytest.mark.parametrize("spec", ["B5", "C6", "D7", "E6", "E7"])
def test_projection_span_and_relation(spec):
    st = parse_type(spec)
    sub = parse_center(st, "full")
    ps = project(st, sub)
    assert ps.rank + 1 == len(ps.orbits.orbits)
    assert len(ps.averages) == len(ps.orbits.orbits)


def test_cartanints_branch_formulas():
    """The coordinate Cartan integers match the stabilizer-containment
    formulas on tree diagrams."""
    for spec in ["B5", "C5", "C6", "D6", "D7", "E6", "E7"]:
        st = parse_type(spec)
        d = datum(st)
        dia = diagram_of(st)
        for sub in all_subgroups(st):
            if sub.is_trivial:
                continue
            od = orbit_data(st, sub)
            ps = project(st, sub)
            orbs = [o.nodes for o in od.orbits]
            eps = [o.eps for o in od.orbits]
            stab = [
                [p for p in sub.perms() if all(p[u] == u for u in o)] for o in orbs
            ]
            for i, ou in enumerate(orbs):
                for j, ov in enumerate(orbs):
                    if i == j:
                        continue
                    pairs = [
                        (u, v) for u in ou for v in ov if dia.cartan[u][v] != 0
                    ]
                    if not pairs:
                        assert ps.diagram.cartan[i][j] == 0
                        continue
                    u, v = pairs[0]
                    contain_uv = all(p in stab[j] for p in stab[i])
                    contain_vu = all(p in stab[i] for p in stab[j])
                    assert contain_uv or contain_vu
                    if contain_uv:
                        expect = eps[j] * dia.cartan[u][v]
                    else:
                        expect = (
                            eps[j] * len(ov) * dia.cartan[u][v] // len(ou)
                        )
                    assert ps.diagram.cartan[i][j] == expect


FOLD_CASES = [
    # (type, tau on finite nodes, restricted type)
    ("A2", (2, 1), "BC1"),
    ("A4", (4, 3, 2, 1), "BC2"),
    ("A6", (6, 5, 4, 3, 2, 1), "BC3"),
    ("A8", (8, 7, 6, 5, 4, 3, 2, 1), "BC4"),
    ("A3", (3, 2, 1), "C2"),
    ("A5", (5, 4, 3, 2, 1), "C3"),
    ("A7", (7, 6, 5, 4, 3, 2, 1), "C4"),
    ("D4", (1, 2, 4, 3), "B3"),
    ("D5", (1, 2, 3, 5, 4), "B4"),
    ("D8", (1, 2, 3, 4, 5, 6, 8, 7), "B7"),
    ("D4", (3, 2, 4, 1), "G2"),
    ("E6", (6, 2, 5, 4, 3, 1), "F4"),
    ("E6", (1, 2, 3, 4, 5, 6), "E6"),
    ("G2", (1, 2), "G2"),
]


@pytest.mark.parametrize("spec,tau,want", FOLD_CASES)
def test_fold(spec, tau, want):
    assert lbl(fold(parse_type(spec), tau)) == want


def test_fold_rejects_non_automorphism():
    with pytest.raises(ValueError, match="automorphism"):
        fold(parse_type("A3"), (2, 1, 3))
    with pytest.raises(ValueError, match="permutation"):
        fold(parse_type("A3"), (1, 1, 2))


# the nine rows of the fixed-subspace reference table, instantiated over
# every catalog rank; B2 = C2 under the alias
WMC_TABLE = [
    ("B",  range(3, 13), "full", lambda n: (f"C{n-1}", f"B{n-1}", f"BC{n-1}", f"BC{n-1}")),
    ("C+", range(3, 13, 2), "full", lambda n: (_c((n - 1) // 2), f"BC{(n-1)//2}", f"BC{(n-1)//2}", _c((n - 1) // 2))),
    ("C",  range(2, 13, 2), "full", lambda n: (_c(n // 2), _c(n // 2) if n > 2 else "A1", f"BC{n//2}", f"BC{n//2}")),
    ("D",  range(4, 13), "c_SO", lambda n: (_c(n - 2), f"B{n-2}" if n > 4 else "C2", _c(n - 2), _c(n - 2))),
    ("D2", range(6, 13, 2), "c_exotic", lambda n: (f"B{n//2}", f"C{n//2}", f"B{n//2}", f"B{n//2}")),
    ("D+", range(5, 13, 2), "full", lambda n: (_c((n - 1) // 2 - 1), f"BC{(n-1)//2-1}", f"BC{(n-1)//2-1}", _c((n - 1) // 2 - 1))),
    ("D2", range(4, 13, 2), "full", lambda n: (_c(n // 2 - 1), f"BC{n//2-1}", f"BC{n//2-1}", f"BC{n//2-1}")),
    ("E",  [6], "full", lambda n: ("G2", "G2", "G2", "G2")),
    ("E",  [7], "full", lambda n: ("F4", "F4", "F4", "F4")),
]


def _c(r):
    if r == 0:
        return "A0"
    if r == 1:
        return "A1"
    return f"C{r}"


def _norm(s):
    return "C2" if s == "B2" else s


@pytest.mark.parametrize("fam,ranks,center,expect", WMC_TABLE)
def test_fixed_subspace_table(fam, ranks, center, expect):
    for n in ranks:
        st = SimpleType(fam.rstrip("+2"), n)
        sub = parse_center(st, center)
        want_w, want_res, want_proj, want_wc = (_norm(x) for x in expect(n))
        proj = projection_type(st, sub)
        res = restricted_type(st, sub)
        wc = project(st, sub).classified.type
        got = (_norm(lbl(nonmultipliable(proj))), _norm(lbl(res)), _norm(lbl(proj)), _norm(lbl(wc)))
        assert got == (want_w, want_res, want_proj, want_wc), (st, center, got)


def test_resdualproj_for_simply_laced():
    """Simply laced input: the restricted system is inverse to the
    projection system, so the Cartan matrix over the restricted coroots
    (the epsilon-weighted orbit sums) is the transpose of the projected
    one."""
    for spec, center in [("D5", "c_SO"), ("D6", "c_exotic"), ("E6", "full"), ("E7", "full"), ("A5", "node:3"), ("D5", "full")]:
        st = parse_type(spec)
        sub = parse_center(st, center)
        d = datum(st)
        od = orbit_data(st, sub)
        ps = project(st, sub)
        from coroots.linalg import add, dot, scale, zero_vec

        n = len(od.orbits)
        restr_coroots = []
        for o in od.orbits:
            s = zero_vec(d.ambient_dim)
            for u in o.nodes:
                s = add(s, d.extended_coroots[u])
            restr_coroots.append(scale(o.eps, s))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                u, v = restr_coroots[i], restr_coroots[j]
                c = 2 * dot(u, v, d.gram) / dot(v, v, d.gram)
                assert c == ps.diagram.cartan[j][i], (spec, center, i, j)


def test_all_roots_counts():
    for spec, count in [("A5", 30), ("B4", 32), ("C4", 32), ("D5", 40),
                        ("E6", 72), ("E7", 126), ("E8", 240), ("F4", 48),
                        ("G2", 12), ("BC3", 24)]:
        assert len(all_roots_of(parse_type(spec))) == count


@pytest.mark.parametrize(
    "st", catalog_types(12) + [SimpleType("BC", n) for n in range(1, 13)], ids=str
)
def test_integer_roots_are_the_scaled_roots(st):
    """The roots generated in integer simple-root coordinates, mapped
    through the datum's simple roots, are the Fraction reflection closure
    of those simple roots (with the doubled short roots for BC), and each
    generated value vector is the Fraction pairing with the simple coroots."""
    d = datum(st)
    simples, coroots = d.extended_roots[1:], d.extended_coroots[1:]
    want = close_under_reflections(simples, d.gram)
    if st.family == "BC":
        short = min(dot(v, v, d.gram) for v in want)
        want += [scale(2, v) for v in want if dot(v, v, d.gram) == short]
    roots, values = root_system(st)
    assert all(type(x) is int for r in roots + values for x in r)
    # the Gram images of the coroots: a pairing is then one Euclidean dot
    gram_coroots = [mat_vec(d.gram, c) for c in coroots]
    ambient = []
    for r, vals in zip(roots, values):
        v = zero_vec(d.ambient_dim)
        for c, a in zip(r, simples):
            if c:
                v = add(v, scale(c, a))
        assert vals == tuple(dot(v, gc) for gc in gram_coroots), (st, r)
        ambient.append(v)
    assert list(all_roots_of(st)) == sorted(ambient) == sorted(want)


def test_classify_root_components():
    st = parse_type("D6")
    d = datum(st)
    roots = all_roots_of(st)
    assert classify_root_components(roots, d.gram) == [SimpleType("D", 6)]
    # closure of the simple roots regenerates the full system
    closure = close_under_reflections(d.extended_roots[1:], d.gram)
    assert sorted(closure) == sorted(roots)


def test_classify_finite_roots_bc():
    st = parse_type("BC2")
    d = datum(st)
    assert classify_finite_roots(all_roots_of(st), d.gram) == SimpleType("BC", 2)


# ---------------------------------------------------------------------------
# The integer root-set layer against the Fraction routes it replaced.  These
# oracles reflect in every root found so far, test span membership by a
# linear solve and dot through the Gram matrix; none of them goes through
# the integer helpers.

CATALOG_8 = catalog_types(8)


def _fraction_closure(vectors, gram):
    roots = {v for v in vectors if not is_zero(v)}
    roots |= {scale(-1, v) for v in roots}
    frontier = list(roots)
    while frontier:
        u = frontier.pop()
        uu = dot(u, u, gram)
        for v in list(roots):
            c = 2 * dot(v, u, gram) / uu
            if c == 0:
                continue
            w = sub(v, scale(c, u))
            if w not in roots:
                roots.add(w)
                roots.add(scale(-1, w))
                frontier.append(w)
    return sorted(roots)


def _fraction_simple_system(roots, gram):
    dim = len(roots[0])
    t = 1
    while True:
        weights = tuple(Q(t) ** i for i in range(dim))
        vals = {dot(v, weights) for v in roots}
        if 0 not in vals and len(vals) == len(roots):
            break
        t += 1
    pos = [v for v in roots if dot(v, weights) > 0]
    pset = set(pos)
    return [a for a in pos if not any(sub(a, b) in pset for b in pos if b != a)]


def _fraction_classify(roots, gram):
    roots = [v for v in roots if not is_zero(v)]
    if not roots:
        return SimpleType("A", 0)
    rset = set(roots)
    indiv = [v for v in roots if scale(Q(1, 2), v) not in rset]
    simples = _fraction_simple_system(indiv, gram)
    cartan = tuple(
        tuple(int(2 * dot(a, b, gram) / dot(b, b, gram)) for b in simples)
        for a in simples
    )
    st = classify_finite_cartan(cartan)
    if any(scale(2, v) in rset for v in roots):
        return SimpleType("BC", st.rank)
    return st


def _fraction_components(roots, gram):
    todo = [v for v in roots if not is_zero(v)]
    comps = []
    while todo:
        comp = [todo.pop()]
        grew = True
        while grew:
            grew = False
            for w in list(todo):
                if any(dot(u, w, gram) != 0 for u in comp):
                    comp.append(w)
                    todo.remove(w)
                    grew = True
        comps.append(comp)
    return sorted(_fraction_classify(c, gram) for c in comps)


@pytest.mark.parametrize("st", CATALOG_8, ids=lbl)
def test_closure_of_simple_roots_matches_fraction_route(st):
    d = datum(st)
    simples = d.extended_roots[1:]
    closure = close_under_reflections(simples, d.gram)
    assert closure == _fraction_closure(simples, d.gram)
    assert closure == list(all_roots_of(st))
    assert classify_root_components(closure, d.gram) == [st]


@pytest.mark.parametrize("spec", ["A5", "A7", "B4", "C5", "D5", "D6", "E6", "E7"])
def test_closure_of_restricted_seeds_matches_fraction_route(spec):
    """Orbit averages are fractional and doubled seeds make the system
    non-reduced, so this exercises the common scale and the BC test."""
    st = parse_type(spec)
    d = datum(st)
    cart = d.cartan_matrix()
    for sub_ in all_subgroups(st):
        od = orbit_data(st, sub_)
        if sub_.is_trivial or od.degenerate:
            continue
        seeds = []
        for o in od.orbits:
            total = zero_vec(d.ambient_dim)
            for u in o.nodes:
                total = add(total, d.extended_roots[u])
            avg = scale(Q(1, o.size), total)
            seeds.append(avg)
            if any(cart[u][v] for u in o.nodes for v in o.nodes if u != v):
                seeds.append(scale(2, avg))
        closure = close_under_reflections(seeds, d.gram)
        assert closure == _fraction_closure(seeds, d.gram), (spec, sub_.nodes)
        assert classify_finite_roots(closure, d.gram) == _fraction_classify(closure, d.gram)
        assert classify_finite_roots(closure, d.gram) == restricted_type(st, sub_)


def test_e6_e7_roots_are_the_e8_roots_in_their_span():
    e8 = all_roots_of(SimpleType("E", 8))
    for n in (6, 7):
        span = datum(SimpleType("E", n)).extended_coroots[1:]
        want = tuple(v for v in e8 if in_span(v, span))
        assert all_roots_of(SimpleType("E", n)) == want


def test_non_scalar_gram_is_rejected():
    roots = [vec([1, -1]), vec([-1, 1])]
    for gram in ([vec([1, 0]), vec([0, 2])], [vec([1, 1]), vec([1, 1])]):
        with pytest.raises(ValueError, match="scalar Gram"):
            close_under_reflections(roots, gram)
        with pytest.raises(ValueError, match="scalar Gram"):
            classify_finite_roots(roots, gram)
        with pytest.raises(ValueError, match="scalar Gram"):
            classify_root_components(roots, gram)
    # a scalar form other than the identity is accepted
    two = [vec([2, 0]), vec([0, 2])]
    assert classify_finite_roots(roots, two) == SimpleType("A", 1)


def test_non_crystallographic_seeds_are_rejected():
    # reflecting (1, 0) in (1, 2) needs 2 (1, 0).(1, 2) / (1, 2).(1, 2) = 2/5
    with pytest.raises(AssertionError, match="non-integral reflection"):
        close_under_reflections([vec([1, 0]), vec([1, 2])], None)


@pytest.mark.parametrize("st", CATALOG_8, ids=lbl)
def test_annihilator_factors_match_fraction_route(st):
    d = datum(st)
    roots = all_roots_of(st)
    for sub_ in all_subgroups(st):
        for k in quotient_marked(st, sub_).admissible_orders():
            coords = torus_subspace_coords(st, sub_, k)
            space = [from_coroot_coords(d, c) for c in coords]
            kept = [r for r in roots if all(pairing(d, r, b) == 0 for b in space)]
            want = _fraction_components(kept, d.gram)
            assert annihilator_factors(st, coords) == want, (st, sub_.nodes, k)


@pytest.mark.parametrize("st", catalog_types(12), ids=lbl)
def test_simple_system_matches_pairwise_definition(st):
    """The scan against the simple roots found so far gives the positive
    roots that are not a sum of two positive roots: on every catalog root
    system, and up to rank 8 on every annihilator root set."""
    roots, values = root_system(st)
    sets = [list(roots)]
    if st.rank <= 8:
        for sub_ in all_subgroups(st):
            for k in quotient_marked(st, sub_).admissible_orders():
                coords = torus_subspace_coords(st, sub_, k)
                kept = [
                    r
                    for r, vals in zip(roots, values)
                    if not any(int_dot(vals, x) for x in coords)
                ]
                if kept:
                    sets.append(kept)
    for rs in sets:
        assert _simple_system(rs) == sorted(_fraction_simple_system(rs, None))


@pytest.mark.parametrize(
    "specs",
    [("BC2", "A1"), ("BC1", "BC3", "C2"), ("G2", "BC2", "BC2"), ("BC1", "B3", "A2")],
)
def test_components_of_direct_sums_with_non_reduced_factors(specs):
    """Each factor keeps its own BC test when several are summed."""
    blocks = [all_roots_of(parse_type(s)) for s in specs]
    dims = [len(b[0]) for b in blocks]
    roots = [
        zero_vec(sum(dims[:i])) + v + zero_vec(sum(dims[i + 1 :]))
        for i, b in enumerate(blocks)
        for v in b
    ]
    want = sorted(parse_type(s) for s in specs)
    assert _fraction_components(roots, None) == want
    assert classify_root_components(roots, None) == want


@pytest.mark.parametrize("st", catalog_types(12), ids=lbl)
def test_root_counts_and_cartan_match_sympy(st):
    """sympy's liealgebras shares no code with this package."""
    pytest.importorskip("sympy")
    from sympy.liealgebras.cartan_matrix import CartanMatrix
    from sympy.liealgebras.root_system import RootSystem

    # sympy's C_n starts at n = 3 and its CartanMatrix fails on rank 1
    name = "B2" if st == SimpleType("C", 2) else lbl(st)
    if st.rank > 1:
        theirs = CartanMatrix(name).tolist()
        assert classify_finite_cartan(tuple(map(tuple, theirs))) == st
    d = datum(st)
    simples = d.extended_roots[1:]
    ours = tuple(tuple(int(cartan(d, a, b)) for b in simples) for a in simples)
    assert classify_finite_cartan(ours) == st
    assert len(all_roots_of(st)) == len(RootSystem(name).all_roots())


# ---------------------------------------------------------------------------
# The projected-coroot route in coroot coordinates against the ambient
# Fraction route it replaced: fixed subspace from the ambient images of the
# kernel, projections by oracles.project_many under d.gram, subspaces of
# t^{w_C}(gbar, k) by pairing ambient roots with the ambient fixed basis.


def _ambient_fixed_basis(d, sub_):
    n = d.rank
    rows = []
    for e in sub_.elements:
        if e.is_identity:
            continue
        m = perm_matrix_on_coroots(d, e.perm)
        rows += [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    if not rows:
        coords = [vec([int(j == i) for j in range(n)]) for i in range(n)]
    else:
        coords = kernel_basis(mat(rows))
    return [from_coroot_coords(d, c) for c in coords]


def _ambient_subspace(d, sub_, k):
    orbits = orbit_data(sub_.type, sub_)
    if orbits.degenerate:
        return []
    fixed = _ambient_fixed_basis(d, sub_)
    rows = [
        [dot(d.extended_roots[o.nodes[0]], b, d.gram) for b in fixed]
        for o in orbits.orbits
        if o.mark % k
    ]
    if not rows:
        return fixed
    out = []
    for c in kernel_basis(mat(rows)):
        v = zero_vec(d.ambient_dim)
        for x, b in zip(c, fixed):
            v = add(v, scale(x, b))
        out.append(v)
    return out


def _same_span(us, vs):
    if not us or not vs:
        return not us and not vs
    return rank(mat(us)) == rank(mat(vs)) == rank(mat(list(us) + list(vs)))


@pytest.mark.parametrize("st", CATALOG_8, ids=lbl)
def test_projected_coroots_match_ambient_projection(st):
    d = datum(st)
    for sub_ in all_subgroups(st):
        ps = project(st, sub_)
        basis = _ambient_fixed_basis(d, sub_)
        fixed = [from_coroot_coords(d, c) for c in ps.fixed_coords]
        assert fixed == basis == fixed_subspace_basis(d, sub_)
        projected = [
            from_coroot_coords(d, [Q(x, ps.scale) for x in a]) for a in ps.averages
        ]
        if ps.orbits.degenerate:
            assert projected == [zero_vec(d.ambient_dim)]
            continue
        firsts = [d.extended_coroots[o.nodes[0]] for o in ps.orbits.orbits]
        proj = project_many(firsts, basis, d.gram)
        assert projected == proj, (st, sub_.nodes)
        cartan = tuple(
            tuple(2 * dot(u, v, d.gram) / dot(v, v, d.gram) for v in proj) for u in proj
        )
        assert ps.diagram.cartan == cartan
        assert ps.diagram.sq_lengths == tuple(dot(v, v, d.gram) for v in proj)


@pytest.mark.parametrize("st", CATALOG_8, ids=lbl)
def test_subspace_for_matches_ambient_kernel_route(st):
    d = datum(st)
    for sub_ in all_subgroups(st):
        for k in quotient_marked(st, sub_).admissible_orders():
            space = [from_coroot_coords(d, c) for c in torus_subspace_coords(st, sub_, k)]
            assert _same_span(space, _ambient_subspace(d, sub_, k)), (st, sub_.nodes, k)

from fractions import Fraction as Q

import pytest

from coroots.ambient import datum
from coroots.center import all_subgroups, orbit_data, parse_center, trivial_subgroup
from coroots.derived import check_samediags, derived, node_type, quotient_marked
from coroots.diagrams import diagram_of
from coroots.linalg import add, dot, kernel_basis, mat, scale, vec, zero_vec
from coroots.moduli import catalog_types
from coroots.coords import DiagramReport
from coroots.numerology import marked
from coroots.rootdata import parse_type
from oracles import from_coroot_coords, perm_matrix_on_coroots, project_many


def lbl(t):
    return f"{t.family}{t.rank}"


def test_node_types_e8():
    m = marked(diagram_of(parse_type("E8")))
    # k=3: the branch node (mark 3 at Bourbaki node 2) sees two A_2 chains
    survivors3 = [v for v in m.diagram.nodes() if m.n[v] % 3 == 0]
    types3 = {v: node_type(m, 3, v) for v in survivors3}
    assert sorted(types3.values()) == ["1", "3", "3"]
    # k=2: the mark-6 node is adjacent to two A_1 chains of its own length
    survivors2 = [v for v in m.diagram.nodes() if m.n[v] % 2 == 0]
    types2 = {v: node_type(m, 2, v) for v in survivors2}
    # equal lengths put the mark-6 node in case 2(i), like the other
    # doubly-flanked survivors of a simply laced diagram
    six = next(v for v in survivors2 if m.n[v] == 6)
    assert types2[six] == "2i"
    assert sorted(types2.values()) == ["1", "1", "2i", "2i", "2i"]
    # k=5, k=6: unique survivor
    assert node_type(m, 5, next(v for v in m.diagram.nodes() if m.n[v] == 5)) == "inf"
    with pytest.raises(ValueError):
        node_type(m, 2, next(v for v in m.diagram.nodes() if m.n[v] == 5))


def test_node_types_e8_k4():
    m = marked(diagram_of(parse_type("E8")))
    survivors = [v for v in m.diagram.nodes() if m.n[v] % 4 == 0]
    types = sorted(node_type(m, 4, v) for v in survivors)
    assert types == ["4ii", "4iii"]


def test_derived_k1_is_parent():
    m = marked(diagram_of(parse_type("F4")))
    dd = derived(m, 1)
    assert dd.diagram == m.diagram
    assert lbl(dd.classified.type) == "F4"


# every row of the order-k table over the catalog ranks
TK_ROWS = []
for n in range(3, 13):
    TK_ROWS.append((f"B{n}", 2, "C" + str(n - 3) if n > 4 else ("A1" if n == 4 else "A0")))
for n in range(4, 13):
    TK_ROWS.append((f"D{n}", 2, "C" + str(n - 4) if n > 5 else ("A1" if n == 5 else "A0")))
TK_ROWS += [
    ("E6", 2, "A2"), ("E6", 3, "A0"),
    ("E7", 2, "B3"), ("E7", 3, "A1"), ("E7", 4, "A0"),
    ("E8", 2, "F4"), ("E8", 3, "G2"), ("E8", 4, "A1"), ("E8", 5, "A0"), ("E8", 6, "A0"),
    ("F4", 2, "A1"), ("F4", 3, "A0"), ("G2", 2, "A0"),
]


def _canon(s):
    return {"C0": "A0", "C1": "A1", "B2": "C2"}.get(s, s)


@pytest.mark.parametrize("spec,k,want", TK_ROWS)
def test_order_k_table(spec, k, want):
    st = parse_type(spec)
    dd = derived(marked(diagram_of(st)), k)
    assert _canon(lbl(dd.classified.type)) == _canon(want), (spec, k, dd.classified)
    rep = check_samediags(st, trivial_subgroup(st), k)
    assert rep.equal, rep.detail


# the quotient-torus table rows across catalog ranks
TWC_ROWS = []
for n in range(3, 13):
    TWC_ROWS.append((f"B{n}", "full", 2, f"C{n-2}", (2,) * (n - 1)))
for n in range(4, 13, 2):
    TWC_ROWS.append((f"C{n}", "full", 2, f"C{n//2 - 1}", (2,) * (n // 2)))
for n in range(6, 13, 2):
    TWC_ROWS.append((f"D{n}", "c_exotic", 4, f"C{n//2 - 3}", (4,) * (n // 2 - 2)))
for n in range(4, 13, 2):
    TWC_ROWS.append((f"D{n}", "full", 4, f"C{n//2 - 2}", (4,) * (n // 2 - 1)))
TWC_ROWS += [
    ("E6", "full", 2, "A0", (6,)),
    ("E6", "full", 6, "A0", (6,)),
    ("E7", "full", 4, "A1", (4, 4)),
    ("E7", "full", 3, "A0", (6,)),
    ("E7", "full", 6, "A0", (6,)),
]


@pytest.mark.parametrize("spec,center,k,want,marks", TWC_ROWS)
def test_quotient_torus_table(spec, center, k, want, marks):
    st = parse_type(spec)
    sub = parse_center(st, center)
    dd = derived(quotient_marked(st, sub), k)
    assert _canon(lbl(dd.classified.type)) == _canon(want), (spec, center, k, dd.classified)
    assert sorted(dd.surviving_values) == sorted(marks)
    rep = check_samediags(st, sub, k)
    assert rep.equal, rep.detail


def test_derived_rejects_bad_k():
    m = marked(diagram_of(parse_type("G2")))
    with pytest.raises(ValueError):
        derived(m, 5)


def test_derived_length_integrality():
    """Bonded survivors have integral rescaled length ratios."""
    for spec in ["E7", "E8", "B6", "C8", "F4"]:
        st = parse_type(spec)
        m = marked(diagram_of(st))
        for k in m.admissible_orders():
            dd = derived(m, k)
            for i, v in enumerate(dd.survivors):
                for j, w in enumerate(dd.survivors):
                    if i != j and dd.diagram.bonded(i, j):
                        lv, lw = dd.ell_k_sq[v], dd.ell_k_sq[w]
                        if lv >= lw:
                            assert (lv / lw).denominator == 1


@pytest.mark.parametrize(
    "spec",
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(3, 13)]
    + [f"C{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"],
)
def test_samediags_sweep(spec):
    """Derived and coordinate diagrams coincide for every subgroup and k."""
    st = parse_type(spec)
    for sub in all_subgroups(st):
        mq = quotient_marked(st, sub)
        for k in mq.admissible_orders():
            rep = check_samediags(st, sub, k)
            assert rep.equal, (spec, sub.nodes, k, rep.detail)


def _ambient_samediags(st, sub_, k):
    """The Fraction route check_samediags replaced: ambient fixed basis,
    kernel of the ambient root pairings, oracles.project_many under d.gram."""
    d = datum(st)
    orbits = orbit_data(st, sub_)
    mq = quotient_marked(st, sub_)
    dd = derived(mq, k)
    if orbits.degenerate:
        return DiagramReport(dd.diagram.n_nodes == 1, "degenerate quotient")
    n = d.rank
    rows = []
    for e in sub_.elements:
        if not e.is_identity:
            m = perm_matrix_on_coroots(d, e.perm)
            rows += [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
    coords = kernel_basis(mat(rows)) if rows else [
        vec([int(j == i) for j in range(n)]) for i in range(n)
    ]
    fixed = [from_coroot_coords(d, c) for c in coords]
    rows = [
        [dot(d.extended_roots[o.nodes[0]], b, d.gram) for b in fixed]
        for o, mark in zip(orbits.orbits, mq.n)
        if mark % k != 0
    ]
    if rows:
        subspace = []
        for c in kernel_basis(mat(rows)):
            v = zero_vec(d.ambient_dim)
            for x, b in zip(c, fixed):
                v = add(v, scale(x, b))
            subspace.append(v)
    else:
        subspace = fixed
    surviving = [o for o, mark in zip(orbits.orbits, mq.n) if mark % k == 0]
    if len(surviving) != dd.diagram.n_nodes:
        return DiagramReport(False, "survivor counts differ")
    if len(surviving) == 1:
        ok = not subspace or all(dot(v, v, d.gram) == 0 for v in subspace)
        return DiagramReport(bool(ok and dd.diagram.n_nodes == 1), "rank-0 case")
    avgs = []
    for o in surviving:
        avg = zero_vec(d.ambient_dim)
        for u in o.nodes:
            avg = add(avg, d.extended_coroots[u])
        avgs.append(scale(Q(1, o.size), avg))
    proj = project_many(avgs, subspace, d.gram)
    for i, u in enumerate(proj):
        for j, v in enumerate(proj):
            c = 2 * dot(u, v, d.gram) / dot(v, v, d.gram)
            if c.denominator != 1:
                return DiagramReport(False, f"non-integral coordinate Cartan number at ({i},{j})")
            if int(c) != dd.diagram.cartan[i][j]:
                return DiagramReport(
                    False,
                    f"Cartan integers differ at survivors ({i},{j}): "
                    f"coordinate {int(c)} vs derived {dd.diagram.cartan[i][j]}",
                )
    return DiagramReport(True, "derived and coordinate diagrams agree",
                         tuple(range(len(surviving))))


@pytest.mark.parametrize("st", catalog_types(8), ids=str)
def test_samediags_matches_ambient_route(st):
    for sub in all_subgroups(st):
        for k in quotient_marked(st, sub).admissible_orders():
            assert check_samediags(st, sub, k) == _ambient_samediags(st, sub, k), (
                st, sub.nodes, k,
            )


def test_derived_submodule_is_not_shadowed():
    """The package does not bind the function derived over its submodule."""
    import coroots.derived as m

    assert callable(m.quotient_marked)

"""Catalog regression: the extended coroot diagrams node-for-node."""

from fractions import Fraction as Q
from math import gcd, lcm

import pytest

from coroots.ambient import (
    add,
    alcove,
    coroot_coord_matrix,
    datum,
    is_zero,
    mat,
    scale,
    sub,
    zero_vec,
)
from coroots.center import center_group
from coroots.diagrams import diagram_of, dual_coxeter
from coroots.linalg import det_int, positive_kernel
from coroots import rootdata
from coroots.moduli import catalog_types
from coroots.rootdata import (
    SimpleType,
    alcove_int_coords,
    center_element_inverse,
    center_element_sum,
    center_vertex_nodes,
    fundamental_group_order,
    parse_type,
)
from oracles import (
    cartan,
    center_order,
    center_vertex,
    coroot_sq_lengths,
    dot,
    in_lattice,
    lattice_index,
    mat_vec,
    pairing,
    solve,
)

ALL_SPECS = (
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(3, 13)]
    + [f"C{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
    + [f"BC{n}" for n in range(1, 13)]
)


def bonds(cartan):
    n = len(cartan)
    return {
        (i, j): (cartan[i][j], cartan[j][i])
        for i in range(n)
        for j in range(i + 1, n)
        if cartan[i][j] != 0
    }


def chain(*pairs):
    return {(min(i, j), max(i, j)): v if i < j else (v[1], v[0]) for i, j, v in pairs}


S = (-1, -1)  # single bond


def expected_figure(spec):
    """Bond structure and marks straight from the catalog figures.

    Node 0 is the extended node; finite nodes follow the standard chain
    numbering (Bourbaki for the exceptional types).
    """
    fam, n = parse_type(spec).family, parse_type(spec).rank
    if fam == "A" and n == 1:
        return {(0, 1): (-2, -2)}, (1, 1)
    if fam == "A":
        b = {(i, i + 1): S for i in range(1, n)}
        b[(0, 1)] = S
        b[(0, n)] = S
        return b, (1,) * (n + 1)
    if fam == "B":
        b = {(0, 2): S, (1, 2): S}
        b.update({(i, i + 1): S for i in range(2, n - 1)})
        b[(n - 1, n)] = (-1, -2)  # double bond, arrow toward the chain
        return b, (1, 1) + (2,) * (n - 2) + (1,)
    if fam == "C":
        b = {(0, 1): (-1, -2)}
        b.update({(i, i + 1): S for i in range(1, n - 1)})
        b[(n - 1, n)] = (-2, -1)
        return b, (1,) * (n + 1)
    if fam == "D":
        b = {(0, 2): S, (1, 2): S, (n - 2, n): S}
        b.update({(i, i + 1): S for i in range(2, n - 1)})
        return b, (1, 1) + (2,) * (n - 3) + (1, 1)
    if spec == "E6":
        b = {(0, 2): S, (2, 4): S, (1, 3): S, (3, 4): S, (4, 5): S, (5, 6): S}
        return b, (1, 1, 2, 2, 3, 2, 1)
    if spec == "E7":
        b = {(0, 1): S, (1, 3): S, (3, 4): S, (2, 4): S, (4, 5): S, (5, 6): S, (6, 7): S}
        return b, (1, 2, 2, 3, 4, 3, 2, 1)
    if spec == "E8":
        b = {(0, 8): S, (8, 7): S, (7, 6): S, (6, 5): S, (5, 4): S, (2, 4): S, (4, 3): S, (3, 1): S}
        b = {(min(u, v), max(u, v)): S for u, v in b}
        return b, (1, 2, 3, 4, 6, 5, 4, 3, 2)
    if spec == "F4":
        # double bond with arrow toward the short coroot node a_2 (mark 3)
        return (
            {(0, 1): S, (1, 2): S, (2, 3): (-1, -2), (3, 4): S},
            (1, 2, 3, 2, 1),
        )
    if spec == "G2":
        return {(0, 2): S, (1, 2): (-3, -1)}, (1, 1, 2)
    if spec == "BC1":
        return {(0, 1): (-1, -4)}, (2, 1)
    if fam == "BC":
        b = {(0, 1): (-1, -2)}
        b.update({(i, i + 1): S for i in range(1, n - 1)})
        b[(n - 1, n)] = (-1, -2)
        return b, (2,) * n + (1,)
    raise AssertionError(spec)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_figures_node_for_node(spec):
    st = parse_type(spec)
    d = diagram_of(st)
    expect_bonds, expect_marks = expected_figure(spec)
    assert d.marks == expect_marks
    assert bonds(d.cartan) == expect_bonds


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_datum_relations(spec):
    st = parse_type(spec)
    d = datum(st)
    hsum = zero_vec(d.ambient_dim)
    gsum = zero_vec(d.ambient_dim)
    for i in d.nodes():
        hsum = add(hsum, scale(d.h[i], d.extended_roots[i]))
        gsum = add(gsum, scale(d.g[i], d.extended_coroots[i]))
    assert is_zero(hsum) and is_zero(gsum)
    assert min(coroot_sq_lengths(d)) == 2
    assert d.h[0] == 1
    if st.family != "BC":
        assert d.g[0] == 1
        assert all(d.h[i] % d.g[i] == 0 for i in d.nodes())


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_values_corollary(spec):
    """The coroot integers hit every value 1..N along a simply laced chain."""
    st = parse_type(spec)
    if st.family == "BC":
        return
    d = datum(st)
    N = max(d.g)
    assert set(d.g) == set(range(1, N + 1))
    # greedy simply-laced chain from the extended node realizing 1..N
    dia = diagram_of(st)
    node, found = 0, [0]
    for want in range(2, N + 1):
        nxt = [
            v
            for v in dia.neighbors(node)
            if d.g[v] == want and dia.bond_mult(node, v) == 1
        ]
        assert nxt, f"no simply laced step to value {want}"
        node = nxt[0]
        found.append(node)
    assert [d.g[v] for v in found] == list(range(1, N + 1))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_gcd_corollary(spec):
    st = parse_type(spec)
    if st.family == "BC":
        return
    g = datum(st).g
    for k in range(1, max(g) + 1):
        divisible = [x for x in g if x % k == 0]
        if divisible:
            acc = 0
            for x in divisible:
                acc = gcd(acc, x)
            assert acc == k


@pytest.mark.parametrize(
    "spec,expect",
    [("A5", 6), ("A12", 13), ("B7", 2), ("C9", 2), ("D8", 4), ("D9", 4),
     ("E6", 3), ("E7", 2), ("E8", 1), ("F4", 1), ("G2", 1)],
)
def test_center_order(spec, expect):
    assert fundamental_group_order(parse_type(spec)) == expect


@pytest.mark.parametrize(
    "spec,expect",
    [("E8", 30), ("A5", 6), ("G2", 4), ("F4", 9), ("B6", 11), ("C6", 7),
     ("D7", 12), ("E6", 12), ("E7", 18), ("BC3", 7), ("A0", 1)],
)
def test_dual_coxeter(spec, expect):
    assert dual_coxeter(parse_type(spec)) == expect


def test_dual_coxeter_a_family():
    for n in range(1, 13):
        assert dual_coxeter(SimpleType("A", n)) == n + 1


@pytest.mark.parametrize("spec", ["A1", "A4", "C2", "D5", "E7", "G2", "F4"])
def test_alcove_defining_equations(spec):
    """Nonzero vertices kill every simple root but one and lie on the
    affine wall of the highest root."""
    st = parse_type(spec)
    d = datum(st)
    alc = alcove(st)
    assert alc.vertices[0] == zero_vec(d.ambient_dim)
    highest = scale(-1, d.extended_roots[0])
    for i in range(1, d.rank + 1):
        v = alc.vertices[i]
        for j in range(1, d.rank + 1):
            expect = Q(1, d.h[i]) if j == i else Q(0)
            assert pairing(d, d.extended_roots[j], v) == expect
        assert pairing(d, highest, v) == 1


def test_alcove_a1():
    st = parse_type("A1")
    d = datum(st)
    alc = alcove(st)
    half = scale(Q(1, 2), d.extended_coroots[1])
    assert alc.vertices == (zero_vec(2), half)


def test_c2_alcove_highest_value():
    st = parse_type("C2")
    d = datum(st)
    alc = alcove(st)
    highest = scale(-1, d.extended_roots[0])
    assert len(alc.vertices) == 3
    for i in (1, 2):
        assert pairing(d, highest, alc.vertices[i]) == 1


def test_center_group_law_matches_known_groups():
    # A_n: inverse of node i is node n+1-i
    for n in (2, 4, 7):
        st = SimpleType("A", n)
        for i in range(1, n + 1):
            assert center_element_inverse(st, i) == n + 1 - i
            for j in range(1, n + 1):
                s = (i + j) % (n + 1)
                assert center_element_sum(st, i, j) == s
    # D_{2n}: Klein four group, all elements self-inverse
    st = SimpleType("D", 6)
    for node in center_vertex_nodes(st):
        assert center_element_inverse(st, node) == node
    # D_{2n+1}: cyclic of order 4, spinor nodes inverse to each other
    st = SimpleType("D", 5)
    assert center_element_inverse(st, 4) == 5
    assert center_element_sum(st, 4, 4) == 1


@pytest.mark.parametrize("st", catalog_types(8), ids=str)
def test_group_law_matches_ambient_lattice_test(st):
    """The residue lookup agrees with coroot-lattice membership of
    v_a + v_b - v_c, decided by an ambient lattice solve."""
    basis = datum(st).coroot_lattice_basis
    nodes = center_vertex_nodes(st)
    for a in nodes:
        va = center_vertex(st, a)
        for c in nodes:
            inverse = in_lattice(add(va, center_vertex(st, c)), basis)
            assert (center_element_inverse(st, a) == c) == inverse
        for b in nodes:
            vab = add(va, center_vertex(st, b))
            for c in nodes:
                member = in_lattice(sub(vab, center_vertex(st, c)), basis)
                assert (center_element_sum(st, a, b) == c) == member


def test_group_law_above_the_catalog():
    st = SimpleType("A", 20)
    for i in range(21):
        assert center_element_inverse(st, i) == (21 - i) % 21
        for j in range(21):
            assert center_element_sum(st, i, j) == (i + j) % 21
    # D_13: cyclic of order 4 generated by a spinor node; the spinor nodes
    # are inverse to each other and square to the vector node 1
    st = SimpleType("D", 13)
    assert center_vertex_nodes(st) == [0, 1, 12, 13]
    assert center_element_inverse(st, 12) == 13
    assert center_element_sum(st, 12, 12) == 1
    assert center_element_sum(st, 13, 13) == 1
    assert center_element_sum(st, 12, 13) == 0
    assert center_element_sum(st, 1, 1) == 0
    assert center_element_sum(st, 1, 12) == 13
    # C_14: Z/2
    st = SimpleType("C", 14)
    assert center_vertex_nodes(st) == [0, 14]
    assert center_element_sum(st, 14, 14) == 0
    assert center_element_inverse(st, 14) == 14
    for spec in ("A20", "D13", "C14"):
        st = parse_type(spec)
        grp = center_group(st)
        assert grp.order == center_order(st)
        assert list(grp.nodes) == center_vertex_nodes(st)


@pytest.mark.parametrize("st", catalog_types(12), ids=str)
def test_alcove_coords_match_coroot_coord_matrix(st):
    """Coordinates read off the scaled Cartan inverse, over L, equal the
    dense left inverse of the coroot basis applied to the ambient
    vertices, and L is their least common denominator."""
    m = coroot_coord_matrix(st)
    want = tuple(mat_vec(m, v) for v in alcove(st).vertices)
    ints, s = alcove_int_coords(st)
    assert tuple(tuple(Q(x, s) for x in v) for v in ints) == want
    assert s == lcm(*(x.denominator for v in want for x in v))


@pytest.mark.parametrize(
    "st", catalog_types(12) + [SimpleType("BC", n) for n in range(1, 13)], ids=str
)
def test_cartan_matrix_matches_fraction_route(st):
    """The integer-dot Cartan matrix equals 2(u, v)/(v, v) taken through
    the Fraction Gram matrix."""
    d = datum(st)
    cr = d.extended_coroots
    want = tuple(tuple(cartan(d, u, v) for v in cr) for u in cr)
    assert all(x.denominator == 1 for row in want for x in row)
    assert d.cartan_matrix() == want


def _fraction_coweights(simple_roots, simple_coroots, gram):
    """Oracle: the coweights from the inverse of the Fraction pairing matrix,
    column by column through the Fraction elimination."""
    span = mat(simple_coroots)
    p = [[dot(a, s, gram) for s in span] for a in simple_roots]
    coords = tuple(solve(p, [Q(int(j == i)) for j in range(len(p))]) for i in range(len(p)))
    out = []
    for c in coords:
        w = zero_vec(len(span[0]))
        for x, s in zip(c, span):
            w = add(w, scale(x, s))
        out.append(w)
    return tuple(out), coords


def _fraction_check_datum(d):
    """Oracle: the datum checks as Fraction vector sums and Gram pairings."""
    hsum = zero_vec(d.ambient_dim)
    gsum = zero_vec(d.ambient_dim)
    for i in d.nodes():
        hsum = add(hsum, scale(d.h[i], d.extended_roots[i]))
        gsum = add(gsum, scale(d.g[i], d.extended_coroots[i]))
    assert is_zero(hsum) and is_zero(gsum)
    assert min(coroot_sq_lengths(d)) == 2
    for i, w in enumerate(d.coweight_lattice_basis):
        for j in range(1, d.rank + 1):
            assert pairing(d, d.extended_roots[j], w) == (1 if j == i + 1 else 0)


@pytest.mark.parametrize(
    "st", catalog_types(16) + [SimpleType("BC", n) for n in range(1, 17)], ids=str
)
def test_datum_matches_fraction_route(st):
    """The integer coweights equal the Fraction pairing-inverse route, and
    the datum passes the Fraction checks."""
    d = datum(st)
    weights, coords = _fraction_coweights(d.extended_roots[1:], d.coroot_lattice_basis, d.gram)
    assert d.coweight_lattice_basis == weights
    assert d.coweight_coroot_coords == coords
    assert all(type(x) is Q for w in d.coweight_lattice_basis + d.coweight_coroot_coords for x in w)
    _fraction_check_datum(d)


def test_parse_aliases():
    assert parse_type("Spin(12)") == SimpleType("D", 6)
    assert parse_type("Spin(7)") == SimpleType("B", 3)
    assert parse_type("SU(7)") == SimpleType("A", 6)
    assert parse_type("Sp(6)") == SimpleType("C", 3)
    assert parse_type("B2") == SimpleType("B", 2)
    assert datum(parse_type("B2")).extended_coroots == datum(parse_type("C2")).extended_coroots
    with pytest.raises(ValueError):
        parse_type("D3")
    with pytest.raises(ValueError):
        parse_type("E9")
    with pytest.raises(ValueError):
        datum(SimpleType("A", 0))


TYPES_TO_40 = (
    [SimpleType("A", n) for n in range(1, 41)]
    + [SimpleType(f, n) for f in ("B", "C") for n in range(2, 41)]
    + [SimpleType("D", n) for n in range(4, 41)]
    + [SimpleType("E", n) for n in (6, 7, 8)]
    + [SimpleType("F", 4), SimpleType("G", 2)]
    + [SimpleType("BC", n) for n in range(1, 41)]
)


def test_fundamental_group_order_two_routes_to_rank_40():
    """|det| of the finite Cartan matrix equals the number of h=1 nodes
    (of B_n, or A_1, for BC_n, whose indivisible roots form that type)."""
    for st in TYPES_TO_40:
        d = datum(st)
        cart = diagram_of(st).cartan
        det = abs(det_int([row[1:] for row in cart[1:]]))
        reduced = st
        if st.family == "BC":
            reduced = SimpleType("B", st.rank) if st.rank > 1 else SimpleType("A", 1)
        h = datum(reduced).h
        assert det == sum(1 for x in h if x == 1), st
        assert fundamental_group_order(st) == det, st
        if st.family != "BC":
            assert det == center_order(st) == len([x for x in d.h if x == 1]), st


@pytest.mark.parametrize(
    "st", catalog_types(40) + [SimpleType("B", 2)] + [SimpleType("BC", n) for n in range(1, 25)],
    ids=str,
)
def test_root_integers_are_the_positive_kernel_of_the_table(st):
    """h read off diagram_of's marks and lengths equals the dense positive
    kernel of the extended Cartan matrix, the elimination it replaced."""
    assert rootdata.root_integers(st) == positive_kernel(rootdata.extended_cartan(st))


@pytest.mark.parametrize(
    "st", catalog_types(24) + [SimpleType("BC", n) for n in range(1, 25)], ids=str
)
def test_fundamental_group_order_is_the_lattice_index(st):
    d = datum(st)
    assert fundamental_group_order(st) == lattice_index(
        d.coroot_lattice_basis, d.coweight_lattice_basis
    )


def test_datum_rejects_a_bond_table_that_disagrees(monkeypatch):
    """The datum's coroot vectors are checked against the bond table: a
    table with C_3's last bond reversed (BC_3's, still of affine type) fails."""
    bc3 = rootdata.extended_cartan(SimpleType("BC", 3))
    monkeypatch.setattr(rootdata, "extended_cartan", lambda st: bc3)
    with pytest.raises(AssertionError, match="bond table"):
        datum.__wrapped__(SimpleType("C", 3))

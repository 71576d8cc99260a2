from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from math import gcd, lcm

import pytest

from coroots.center import (
    CenterElement,
    _permute,
    all_subgroups,
    center_group,
    l_c_factors,
    nu,
    orbit_data,
    parse_center,
    perm_matrix_on_coroots_of,
    subgroup_generated,
    trivial_subgroup,
)
from coroots.ambient import add, alcove, datum, sub as vsub
from coroots.diagrams import automorphism_group, diagram_of
from coroots.linalg import transpose
from coroots.moduli import catalog_types
from coroots.rootdata import (
    SimpleType,
    alcove_int_coords,
    center_element_inverse,
    center_element_sum,
    center_vertex_nodes,
    parse_type,
)
from oracles import (
    apply_perm_coords as _apply_perm_coords,
    barycenter,
    coroot_coords,
    from_coroot_coords,
    mat_vec,
    perm_matrix_on_coroots,
    w_c_perms,
)

TYPES_TO_12 = (
    [SimpleType("A", n) for n in range(1, 13)]
    + [SimpleType("B", n) for n in range(3, 13)]
    + [SimpleType("C", n) for n in range(2, 13)]
    + [SimpleType("D", n) for n in range(4, 13)]
    + [SimpleType("E", n) for n in (6, 7, 8)]
    + [SimpleType("F", 4), SimpleType("G", 2)]
)


@lru_cache(maxsize=None)
def _whole_group(st):
    """Every automorphism of the extended diagram, which the oracles below
    scan in full where nu searches only those that move node 0 to c."""
    return tuple(automorphism_group(diagram_of(st)))


@lru_cache(maxsize=None)
def _scaled_vertex_coords(st):
    """The ambient alcove vertices' simple-coroot coordinates, solved once
    per type and scaled to ints by their common denominator."""
    d = datum(st)
    xs = [coroot_coords(d, v) for v in alcove(st).vertices]
    s = lcm(*(x.denominator for x in sum(xs, ())))
    return [tuple(int(x * s) for x in v) for v in xs]


def oracle_winners(st, target_node):
    """All diagram automorphisms passing the vertex test, without the
    node-image prefilter used by nu()."""
    d = datum(st)
    central = center_vertex_nodes(st)
    # in the scaled vertex coordinates the affine map t -> M (t - zeta) is
    # an integer matrix product
    xs = _scaled_vertex_coords(st)
    zeta = xs[center_element_inverse(st, target_node)]
    xset = set(xs)
    winners = []
    for perm in _whole_group(st):
        pm = perm_matrix_on_coroots(d, perm)

        def phi(x):
            y = [a - b for a, b in zip(x, zeta)]
            return tuple(sum(a * b for a, b in zip(row, y)) for row in pm)

        if any(phi(x) not in xset for x in xs):
            continue
        if all(phi(xs[c]) == xs[center_element_sum(st, target_node, c)] for c in central):
            winners.append(perm)
    return winners


@pytest.mark.parametrize(
    "spec",
    ["A1", "A2", "A5", "A12", "B3", "C2", "C6", "D4", "D5", "D6", "D7", "E6", "E7"]
    + ["A20", "B12", "C14", "D13", "D14", "E8"],
)
def test_oracle_uniqueness_over_all_automorphisms(spec):
    st = parse_type(spec)
    for node in center_vertex_nodes(st):
        winners = oracle_winners(st, node)
        assert len(winners) == 1
        assert winners[0] == nu(st, node).perm
        assert winners[0][0] == node


def test_nu_examples():
    # A2: a nonidentity element is a 3-cycle rotation
    st = parse_type("A2")
    e = nu(st, 1)
    assert sorted(e.perm) == [0, 1, 2] and e.perm != (0, 1, 2)
    assert e.order == 3
    # E7: the flip fixing the branch node
    st = parse_type("E7")
    e = nu(st, 7)
    assert e.perm[2] == 2 and e.perm[0] == 7 and e.order == 2
    # identity
    assert nu(st, 0).perm == tuple(range(8))


@pytest.mark.parametrize("spec", [f"{f}{n}" for f, n in
                                  [("A", 6), ("A", 12), ("B", 9), ("C", 8),
                                   ("D", 9), ("D", 12), ("E", 6), ("E", 7), ("E", 8)]])
def test_nu_homomorphism_and_marks(spec):
    st = parse_type(spec)
    d = datum(st)
    grp = center_group(st)
    by_node = {e.node: e for e in grp.elements}
    for a in grp.elements:
        # preserves both mark functions
        assert all(d.g[a.perm[i]] == d.g[i] for i in d.nodes())
        assert all(d.h[a.perm[i]] == d.h[i] for i in d.nodes())
        for b in grp.elements:
            prod = center_element_sum(st, a.node, b.node)
            composed = tuple(a.perm[b.perm[i]] for i in d.nodes())
            assert composed == by_node[prod].perm


@pytest.mark.parametrize("spec", ["A4", "B5", "D5", "D6", "E6"])
def test_affine_action_fixes_barycenter(spec):
    st = parse_type(spec)
    d = datum(st)
    alc = alcove(st)
    bary = barycenter(st)
    for e in center_group(st).elements:
        pm = perm_matrix_on_coroots(d, e.perm)
        zeta = alc.vertices[center_element_inverse(st, e.node)]
        image = from_coroot_coords(d, mat_vec(pm, coroot_coords(d, vsub(bary, zeta))))
        assert image == bary


def test_center_group_isomorphism_types():
    assert center_group(parse_type("A4")).order == 5
    assert center_group(parse_type("A4")).is_cyclic
    d6 = center_group(parse_type("D6"))
    assert d6.order == 4 and not d6.is_cyclic
    d5 = center_group(parse_type("D5"))
    assert d5.order == 4 and d5.is_cyclic
    d4 = center_group(parse_type("D4"))
    assert d4.order == 4 and not d4.is_cyclic
    assert {e.order for e in d4.elements} == {1, 2}


def test_orbit_data_examples():
    st = parse_type("E7")
    od = orbit_data(st, center_group(st))
    assert sorted(o.size for o in od.orbits) == [1, 1, 2, 2, 2]
    assert sorted(od.marks) == [2, 2, 4, 4, 6]
    st = parse_type("D4")
    od = orbit_data(st, parse_center(st, "c_exotic"))
    assert sorted(od.marks) == [2, 2, 2]
    od = orbit_data(st, trivial_subgroup(st))
    assert all(o.size == 1 for o in od.orbits)
    assert od.marks == datum(st).g


def test_orbit_marks_constant_before_scaling():
    for spec in ["A5", "B6", "C7", "D8", "E6", "E7"]:
        st = parse_type(spec)
        d = datum(st)
        for sub in all_subgroups(st):
            for o in orbit_data(st, sub).orbits:
                assert len({d.g[u] for u in o.nodes}) == 1
                assert o.mark == o.size * d.g[o.nodes[0]]


def test_l_c_factors():
    st = parse_type("E7")
    assert l_c_factors(st, center_group(st)) == ([2, 2, 2], 2)
    st = parse_type("E6")
    assert l_c_factors(st, center_group(st)) == ([3, 3], 1)
    st = parse_type("A5")
    assert l_c_factors(st, trivial_subgroup(st))[0] == []
    # non-cyclic D_{2n} full center: n+1 copies of SU(2)
    for n in (2, 3, 4):
        st = SimpleType("D", 2 * n)
        factors, trivial = l_c_factors(st, center_group(st))
        assert factors == [2] * (n + 1)
    with pytest.raises(ValueError):
        l_c_factors(parse_type("D4"), center_group(parse_type("D4")).__class__(
            parse_type("D4"), center_group(parse_type("D4")).elements[:3]
        ))


def test_subgroup_enumeration():
    assert [s.order for s in all_subgroups(parse_type("A11"))] == [1, 2, 3, 4, 6, 12]
    subs = all_subgroups(parse_type("D6"))
    assert sorted(s.order for s in subs) == [1, 2, 2, 2, 4]
    assert [s.order for s in subs if s.is_cyclic] == [1, 2, 2, 2]


def _generated_by_pairs(st, nodes):
    """The center nodes that the nodes generate: add the sum of every pair
    of nodes found so far until nothing new appears."""
    got = {0, *nodes}
    while new := {center_element_sum(st, a, b) for a in got for b in got} - got:
        got |= new
    return tuple(sorted(got))


def test_subgroup_generated_by_two_nodes():
    pairs = 0
    for st in catalog_types(16):
        nodes = [n for n in center_vertex_nodes(st) if n]
        for a, b in product(nodes, repeat=2):
            assert subgroup_generated(st, [a, b]).nodes == _generated_by_pairs(st, [a, b])
            pairs += 1
        if st.family == "D" and st.rank % 2 == 0:
            assert subgroup_generated(st, [1, st.rank - 1]) == center_group(st)
    assert pairs == 1647
    with pytest.raises(ValueError, match="not a center node"):
        subgroup_generated(SimpleType("B", 5), [1, 2])


def test_parse_center():
    st = parse_type("D6")
    assert parse_center(st, "trivial").is_trivial
    assert parse_center(st, "full").order == 4
    assert parse_center(st, "c_SO").nodes == (0, 1)
    assert parse_center(st, "c_exotic").nodes == (0, 5)
    assert parse_center(st, "node:6").nodes == (0, 6)
    with pytest.raises(ValueError):
        parse_center(st, "c")  # non-cyclic center has no canonical generator
    with pytest.raises(ValueError):
        parse_center(parse_type("E8"), "c")
    with pytest.raises(ValueError):
        parse_center(parse_type("E6"), "c_SO")
    assert parse_center(parse_type("D5"), "c").order == 4


# ---------------------------------------------------------------------------
# Fraction oracle for the integer center layer: the vertex oracle and the
# residue group law as they run on Fraction simple-coroot coordinates.


def _residue(v):
    return tuple(x % 1 for x in v)


class FractionCenter:
    """The group law and nu on Fraction coordinates, keyed on fractional parts."""

    def __init__(self, st):
        self.st = st
        self.g = datum(st).g
        ints, s = alcove_int_coords(st)
        self.verts = [tuple(Q(x, s) for x in v) for v in ints]
        self.central = center_vertex_nodes(st)
        self.table = {_residue(self.verts[c]): c for c in self.central}
        assert len(self.table) == len(self.central)

    def sum(self, a, b):
        return self.table[_residue(add(self.verts[a], self.verts[b]))]

    def inverse(self, a):
        return self.table[_residue(tuple(-x for x in self.verts[a]))]

    def order(self, a):
        order, acc = 1, a
        while acc != 0:
            acc, order = self.sum(acc, a), order + 1
        return order

    def nu(self, target):
        zeta = self.verts[self.inverse(target)]
        vertex_set = set(self.verts)
        winners = []
        for perm in _whole_group(self.st):
            if perm[0] != target:
                continue

            def phi(x):
                return _apply_perm_coords(perm, self.g, vsub(x, zeta))

            if any(phi(v) not in vertex_set for v in self.verts):
                continue
            if all(phi(self.verts[c]) == self.verts[self.sum(target, c)] for c in self.central):
                winners.append(perm)
        assert len(winners) == 1
        return CenterElement(target, winners[0], self.order(target))


ORACLE_TYPES = catalog_types(24) + [SimpleType("A", 40)]


@pytest.mark.parametrize("st", ORACLE_TYPES, ids=str)
def test_integer_center_layer_matches_fraction_oracle(st):
    ref = FractionCenter(st)
    for a in ref.central:
        assert center_element_inverse(st, a) == ref.inverse(a)
        for b in ref.central:
            assert center_element_sum(st, a, b) == ref.sum(a, b)
    expect = tuple(ref.nu(c) for c in ref.central)
    assert tuple(nu(st, c) for c in ref.central) == expect
    assert center_group(st).elements == expect


def test_the_oracle_runs_on_generators_only(monkeypatch):
    """center_group runs the vertex oracle once per cyclic center, twice for
    D_n, never for a trivial center and never on node 0; composition gives
    every other element.  trivial_subgroup runs it not at all."""
    import coroots.center

    calls = []

    def counted(st, node):
        calls.append(node)
        return nu(st, node)

    monkeypatch.setattr(coroots.center, "nu", counted)
    center_group.cache_clear()
    for st in ORACLE_TYPES:
        calls.clear()
        trivial_subgroup(st)
        assert calls == [], st
        center_group(st)
        if st in (SimpleType("E", 8), SimpleType("F", 4), SimpleType("G", 2)):
            assert calls == [], st
        else:
            assert len(calls) == (2 if st.family == "D" else 1) and 0 not in calls, (st, calls)


@pytest.mark.slow
@pytest.mark.parametrize("st", ORACLE_TYPES, ids=str)
def test_nu_is_w0J_w0(st):
    """The Weyl part of each nontrivial central element is w_0^J w_0, built
    by descent with no alcove."""
    expect = w_c_perms(st)
    assert sorted(expect) == center_vertex_nodes(st)[1:]
    for c, perm in expect.items():
        assert nu(st, c).perm == perm


@pytest.mark.parametrize("st", catalog_types(40), ids=str)
def test_center_elements_translate_the_central_nodes(st):
    """Every element of the center, not only the generators that nu's node
    test checks, acts on the central nodes as translation by its node under
    the group law; so composing any two elements follows that law."""
    central = center_vertex_nodes(st)
    for e in center_group(st).elements:
        assert [e.perm[d] for d in central] == [center_element_sum(st, e.node, d) for d in central]


@pytest.mark.parametrize("st", ORACLE_TYPES, ids=str)
def test_perm_matrix_is_the_integer_fraction_formula(st):
    g = datum(st).g
    n = st.rank
    units = [tuple(Q(int(k == i)) for k in range(n)) for i in range(n)]
    for perm in _whole_group(st):
        m = perm_matrix_on_coroots_of(st, perm)
        assert all(type(x) is int for row in m for x in row)
        assert m == transpose(tuple(_apply_perm_coords(perm, g, e) for e in units))


def test_permute_rejects_a_non_integral_shift():
    g = datum(SimpleType("BC", 3)).g
    assert g[0] == 2
    assert _permute((0, 1, 2, 3), g, (1, 2, 3)) == (1, 2, 3)
    with pytest.raises(AssertionError, match="g_0 = 2"):
        _permute((1, 0, 2, 3), g, (1, 2, 3))


def _dictated_factors(st):
    """Cyclic factor orders of the center the type dictates."""
    fam, n = st.family, st.rank
    if fam == "A":
        return (n + 1,)
    if fam in ("B", "C") or st == SimpleType("E", 7):
        return (2,)
    if fam == "D":
        return (4,) if n % 2 else (2, 2)
    return (3,) if st == SimpleType("E", 6) else ()


@pytest.mark.parametrize("st", ORACLE_TYPES, ids=str)
def test_center_group_is_the_group_its_type_dictates(st):
    """Z/(n+1) for A_n; Z/2 for B, C and E7; Z/4 for D_odd; Z/2 x Z/2 for
    D_even; Z/3 for E6; trivial for E8, F4 and G2.  Some choice of
    generators maps the model group bijectively onto the center nodes,
    turns its addition into the group law and keeps element orders."""
    factors = _dictated_factors(st)
    elements = {e.node: e for e in center_group(st).elements}
    model = list(product(*(range(f) for f in factors)))

    def power(a, k):
        acc = 0
        for _ in range(k):
            acc = center_element_sum(st, acc, a)
        return acc

    for gens in product(elements, repeat=len(factors)):
        image = {}
        for x in model:
            acc = 0
            for g, k in zip(gens, x):
                acc = center_element_sum(st, acc, power(g, k))
            image[x] = acc
        if sorted(image.values()) == sorted(elements):
            break
    else:
        pytest.fail(f"no generators realize {factors} in the center of {st}")
    for x in model:
        order = lcm(*(f // gcd(f, k) for f, k in zip(factors, x)))
        assert elements[image[x]].order == order
        for y in model:
            xy = tuple((a + b) % f for a, b, f in zip(x, y, factors))
            assert image[xy] == center_element_sum(st, image[x], image[y])

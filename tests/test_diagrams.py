from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from coroots.diagrams import (
    AffineDiagram,
    DiagramError,
    _invariants,
    automorphism_group,
    classify,
    compose,
    composition_table,
    diagram_of,
    generated_group,
    is_affine_type,
    make_diagram,
    orbit_kind,
    orbits_of,
    quotient,
)
from coroots.ambient import datum
from coroots.center import all_subgroups, center_group, quotient_diagram, subgroup_generated
from coroots.derived import derived, quotient_marked
from coroots.linalg import kernel_basis, to_int, transpose
from coroots.moduli import catalog_types
from coroots.rootdata import TRIVIAL, SimpleType, extended_cartan, parse_type
from oracles import coroot_sq_lengths, scan_isomorphisms


def test_is_affine_type_examples():
    assert is_affine_type([[2, -2], [-2, 2]]) == (1, 1)
    assert is_affine_type(diagram_of(parse_type("E8")).cartan) == (1, 2, 3, 4, 6, 5, 4, 3, 2)
    assert is_affine_type([[2, -1], [-1, 2]]) is None  # finite A_2


def test_is_affine_type_rejects_bad_input():
    with pytest.raises(DiagramError, match="diagonal"):
        is_affine_type([[1, -1], [-1, 2]])
    with pytest.raises(DiagramError, match="positive off-diagonal"):
        is_affine_type([[2, 1], [1, 2]])
    with pytest.raises(DiagramError, match="asymmetric zero"):
        is_affine_type([[2, -1, 0], [-1, 2, -1], [-1, -1, 2]])
    with pytest.raises(DiagramError, match="decomposable"):
        is_affine_type([[2, 0], [0, 2]])


@pytest.mark.parametrize(
    "st",
    catalog_types(40) + [SimpleType("B", 2)] + [SimpleType("BC", n) for n in range(1, 41)],
    ids=str,
)
def test_diagram_of_matches_the_datum_vectors(st):
    """The bond-table diagram equals the one read off the datum's coroot
    vectors: their Cartan integers, the relation among them and their
    lengths, in values and in types."""
    d = datum(st)
    ints = to_int(d.extended_coroots, d.gram)[0]
    (relation,) = kernel_basis(transpose(ints))
    expected = AffineDiagram(d.cartan_matrix(), relation, coroot_sq_lengths(d))
    got = diagram_of(st)
    assert got == expected
    assert [type(x) for x in got.marks + got.sq_lengths] == [
        type(x) for x in expected.marks + expected.sq_lengths
    ]


def test_extended_cartan_special_cases():
    assert extended_cartan(SimpleType("A", 1)) == ((2, -2), (-2, 2))
    assert extended_cartan(SimpleType("BC", 1)) == ((2, -1), (-4, 2))
    assert diagram_of(TRIVIAL) == AffineDiagram(((2,),), (1,), (Q(2),))


def test_classify_examples():
    # 5-node chain with a double bond as in the F_4 coroot figure
    f4 = diagram_of(parse_type("F4"))
    res = classify(make_diagram(f4.cartan))
    assert res.type == SimpleType("F", 4) and res.scale == 1
    bc1 = classify(make_diagram([[2, -4], [-1, 2]], marks=(1, 2)))
    assert bc1.type == SimpleType("BC", 1)
    single = classify(AffineDiagram(((2,),), (7,), (None,)))
    assert single.type == TRIVIAL and single.scale == 7


def test_classify_is_mark_sensitive():
    # the A_1 cycle and its doubled marking classify with different scales
    a1 = diagram_of(parse_type("A1"))
    assert classify(a1).scale == 1
    doubled = AffineDiagram(a1.cartan, (3, 3), a1.sq_lengths)
    res = classify(doubled)
    assert res.type == SimpleType("A", 1) and res.scale == 3


@pytest.mark.slow
@pytest.mark.parametrize(
    "st", catalog_types(40) + [SimpleType("BC", n) for n in range(1, 41)], ids=str
)
def test_automorphism_group_matches_the_full_scan(st):
    d = diagram_of(st)
    inv = _invariants(d)
    assert automorphism_group(d) == sorted(scan_isomorphisms(d, inv, d, inv, first_only=False))


@pytest.mark.parametrize("st", catalog_types(12), ids=str)
def test_classify_node_map_is_the_full_scans_first(st):
    """The neighbour-driven search finds the same first isomorphism."""
    for sub_ in all_subgroups(st):
        q = quotient_diagram(st, sub_)
        if q.n_nodes == 1:
            continue
        res = classify(q)
        probe = AffineDiagram(q.cartan, tuple(m // res.scale for m in q.marks), q.sq_lengths)
        cat = diagram_of(res.type)
        first = scan_isomorphisms(probe, _invariants(probe), cat, _invariants(cat), True)
        assert res.node_map == first[0]


def test_automorphism_groups():
    assert len(automorphism_group(diagram_of(parse_type("A2")))) == 6
    assert len(automorphism_group(diagram_of(parse_type("E8")))) == 1
    assert len(automorphism_group(diagram_of(parse_type("D4")))) == 24
    group = automorphism_group(diagram_of(parse_type("A3")))
    assert len(group) == 8  # dihedral on the 4-cycle
    table = composition_table(group)
    ident = group.index(tuple(range(4)))
    assert all(table[ident][j] == j for j in range(len(group)))
    for i, p in enumerate(group):
        for j, q in enumerate(group):
            assert group[table[i][j]] == compose(p, q)


def test_quotient_identity_and_degenerate():
    d = diagram_of(parse_type("D5"))
    assert quotient(d, [tuple(range(6))]) == make_diagram(d.cartan, d.marks)
    a4 = diagram_of(parse_type("A4"))
    full = center_group(parse_type("A4")).perms()
    q = quotient(a4, full)
    assert q.n_nodes == 1 and q.marks == (5,)


def test_quotient_e7_flip():
    st = parse_type("E7")
    q = quotient(diagram_of(st), center_group(st).perms())
    res = classify(q)
    assert res.type == SimpleType("F", 4) and res.scale == 2
    assert sorted(q.marks) == [2, 2, 4, 4, 6]


def test_quotient_d4_full_center():
    st = parse_type("D4")
    q = quotient(diagram_of(st), center_group(st).perms())
    res = classify(q)
    assert res.type == SimpleType("BC", 1) and res.scale == 2
    assert sorted(q.marks) == [2, 4]


def test_quotient_rejects_non_automorphism():
    d = diagram_of(parse_type("D5"))
    bad = (0, 1, 3, 2, 4, 5)  # swapping interior chain nodes breaks bonds
    with pytest.raises(DiagramError, match="automorphism"):
        quotient(d, [bad, tuple(range(6))])


def test_quotient_rejects_unclosed_list():
    st = parse_type("A4")
    gen = center_group(st).elements[1].perm
    with pytest.raises(DiagramError, match="closed under composition"):
        quotient(diagram_of(st), [tuple(range(5)), gen])


def test_orbit_kind():
    d = diagram_of(parse_type("C3"))  # chain 0-1-2-3
    assert orbit_kind(d, (0, 3)) == 1
    assert orbit_kind(d, (1, 2)) == 2  # bonded equal-length pair
    with pytest.raises(DiagramError, match="neither ordinary nor exceptional"):
        orbit_kind(d, (1, 2, 3))
    with pytest.raises(DiagramError, match="multiple internal bond"):
        orbit_kind(d, (0, 1))


def test_quotient_tower_property():
    """Quotient by G equals the two-step quotient through a normal H."""
    cases = [("D5", [1]), ("A7", [2]), ("A11", [4]), ("D6", [1]), ("D6", [5])]
    for spec, gens in cases:
        st = parse_type(spec)
        full = center_group(st)
        h = subgroup_generated(st, gens)
        if h.order == full.order:
            continue
        d = diagram_of(st)
        q_h = quotient(d, h.perms())
        orbits_h = orbits_of(h.perms(), d.n_nodes)
        index = {o: i for i, o in enumerate(orbits_h)}
        induced = []
        for e in full.elements:
            img = []
            for o in orbits_h:
                target = tuple(sorted(e.perm[u] for u in o))
                img.append(index[target])
            induced.append(tuple(img))
        q_two_step = quotient(q_h, generated_group(induced, len(orbits_h)))
        q_direct = quotient(d, full.perms())
        assert q_two_step.cartan == q_direct.cartan
        assert q_two_step.marks == q_direct.marks


def test_quotient_is_affine_for_all_center_subgroups():
    for spec in ["A5", "B4", "C5", "D5", "D6", "E6", "E7"]:
        st = parse_type(spec)
        for sub in all_subgroups(st):
            q = quotient(diagram_of(st), sub.perms())
            marks = is_affine_type(q.cartan)
            assert marks is not None
            from math import gcd

            g = 0
            for m in q.marks:
                g = gcd(g, m)
            if q.n_nodes > 1:
                assert tuple(m // g for m in q.marks) == marks


def test_json_round_trip():
    for spec in ["A1", "G2", "BC3", "E7"]:
        d = diagram_of(parse_type(spec))
        assert AffineDiagram.from_json(d.to_json()) == d


@lru_cache(maxsize=None)
def _relabel_pool():
    """Catalog, quotient and derived diagrams of every type of rank <= 8."""
    pool = []
    for st in catalog_types(8) + [SimpleType("BC", n) for n in range(1, 5)]:
        pool.append(diagram_of(st))
        if st.family == "BC":
            continue
        for sub_ in all_subgroups(st):
            if not sub_.is_trivial:
                pool.append(quotient_diagram(st, sub_))
            mq = quotient_marked(st, sub_)
            pool.extend(derived(mq, k).diagram for k in mq.admissible_orders() if k > 1)
    return [d for d in pool if d.n_nodes > 2]


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_classify_is_invariant_under_relabeling(data):
    d = data.draw(hst.sampled_from(_relabel_pool()))
    rest = data.draw(hst.permutations(range(1, d.n_nodes)))
    sigma = (0, *rest)  # old node u becomes new node sigma[u]; node 0 stays
    inv = [0] * d.n_nodes
    for u, v in enumerate(sigma):
        inv[v] = u
    relabeled = AffineDiagram(
        tuple(tuple(d.cartan[inv[a]][inv[b]] for b in d.nodes()) for a in d.nodes()),
        tuple(d.marks[inv[a]] for a in d.nodes()),
        tuple(d.sq_lengths[inv[a]] for a in d.nodes()),
    )
    res, new = classify(d), classify(relabeled)
    assert (new.type, new.scale) == (res.type, res.scale)
    # the two node maps differ by an automorphism of the catalog diagram
    auts = automorphism_group(diagram_of(res.type))
    assert any(
        all(new.node_map[sigma[u]] == a[res.node_map[u]] for u in d.nodes()) for a in auts
    )


def test_make_diagram_rejects_inconsistent_lengths():
    """n(u,v) l(v)^2 = n(v,u) l(u)^2 must hold on every bond."""
    c3 = diagram_of(parse_type("C3"))
    assert make_diagram(c3.cartan, c3.marks, c3.sq_lengths) == c3
    with pytest.raises(DiagramError, match="lengths inconsistent with Cartan integers"):
        make_diagram(c3.cartan, c3.marks, (2,) * c3.n_nodes)
    # one wrong node on a simply laced cycle breaks its two bonds only
    a4 = diagram_of(parse_type("A4"))
    with pytest.raises(DiagramError, match="lengths inconsistent with Cartan integers"):
        make_diagram(a4.cartan, a4.marks, (2, 2, 4, 2, 2))


@lru_cache(maxsize=None)
def _quotient_pool():
    """Every nontrivial center subgroup of every catalog type of rank <= 10."""
    return [
        (st, sub_)
        for st in catalog_types(10)
        for sub_ in all_subgroups(st)
        if not sub_.is_trivial
    ]


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_quotient_is_invariant_under_relabeling(data):
    """Relabel the diagram and conjugate the subgroup's permutations along;
    the quotient is the same up to the induced relabeling of the orbits,
    and classifies to the same type and scale."""
    st, sub_ = data.draw(hst.sampled_from(_quotient_pool()))
    d = diagram_of(st)
    sigma = data.draw(hst.permutations(range(d.n_nodes)))  # old u becomes sigma[u]
    inv = [0] * d.n_nodes
    for u, v in enumerate(sigma):
        inv[v] = u
    relabeled = AffineDiagram(
        tuple(tuple(d.cartan[inv[a]][inv[b]] for b in d.nodes()) for a in d.nodes()),
        tuple(d.marks[inv[a]] for a in d.nodes()),
        tuple(d.sq_lengths[inv[a]] for a in d.nodes()),
    )
    perms = [tuple(sigma[p[inv[a]]] for a in d.nodes()) for p in sub_.perms()]
    q, q_new = quotient(d, sub_.perms()), quotient(relabeled, perms)
    index = {o: i for i, o in enumerate(orbits_of(perms, d.n_nodes))}
    # orbit i of the original goes to orbit tau[i] of the relabeled diagram
    tau = [index[tuple(sorted(sigma[u] for u in o))] for o in orbits_of(sub_.perms(), d.n_nodes)]
    assert sorted(tau) == list(range(q.n_nodes)) and q_new.n_nodes == q.n_nodes
    for i in q.nodes():
        assert q_new.marks[tau[i]] == q.marks[i]
        assert q_new.sq_lengths[tau[i]] == q.sq_lengths[i]
        for j in q.nodes():
            assert q_new.cartan[tau[i]][tau[j]] == q.cartan[i][j]
    res, res_new = classify(q), classify(q_new)
    assert (res_new.type, res_new.scale) == (res.type, res.scale)

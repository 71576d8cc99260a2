import ast
import json
import random
import subprocess
import sys
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from coroots import center as center_mod, derived as derived_mod, diagrams as diagrams_mod
from coroots.diagrams import (
    AffineDiagram,
    DiagramError,
    _classify,
    _ints,
    _lengths_from_cartan,
    _validate_subgroup,
    automorphism_group,
    classify,
    closure,
    compose,
    diagram_of,
    generated_group,
    is_affine_type,
    make_diagram,
    orbit_kind,
    orbits_of,
    quotient,
    subdiagram_type,
)
from coroots.ambient import datum, to_int
from coroots.center import (
    all_subgroups,
    center_group,
    l_c_factors,
    quotient_diagram,
    subgroup_generated,
)
from coroots.coords import project
from coroots.derived import derived, quotient_marked
from coroots.linalg import kernel_basis, transpose
from coroots.moduli import catalog_types
from coroots.rootdata import TRIVIAL, SimpleType, extended_cartan, parse_type
from oracles import (
    check_lengths,
    classify_by_catalog_scan,
    composition_table,
    coroot_sq_lengths,
    is_a_chain,
    kac_accepts,
    lengths_from_cartan,
    mark_invariants,
    scan_isomorphisms,
    validate_subgroup_all_pairs,
)


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
    # a diagram built with lists classifies as the tuple one does
    assert classify(AffineDiagram([[2, -4], [-1, 2]], [1, 2], None)) == bc1


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
    """The library's search reads the Cartan integers alone, the scan
    prunes on the marks too; both find the same group, and every
    automorphism keeps the marks.  The search seeded with node 0's image
    finds exactly the automorphisms that send node 0 there."""
    d = diagram_of(st)
    inv = mark_invariants(d.cartan, d.marks)
    c = d.cartan
    group = automorphism_group(d)
    assert group == sorted(scan_isomorphisms(c, inv, c, inv))
    assert all(tuple(d.marks[p[u]] for u in d.nodes()) == d.marks for p in group)
    for t in d.nodes():
        assert automorphism_group(d, t) == [p for p in group if p[0] == t]


@pytest.mark.parametrize("st", catalog_types(12), ids=str)
def test_classify_node_map_is_the_full_scans_first(st):
    """The neighbour-driven search on the Cartan integers finds the same
    first isomorphism as the full scan pruned by the marks."""
    for sub_ in all_subgroups(st):
        q = quotient_diagram(st, sub_)
        if q.n_nodes == 1:
            continue
        res = classify(q)
        inv = mark_invariants(q.cartan, tuple(m // res.scale for m in q.marks))
        cat = diagram_of(res.type)
        cat_inv = mark_invariants(cat.cartan, cat.marks)
        first = next(scan_isomorphisms(q.cartan, inv, cat.cartan, cat_inv))
        assert res.node_map == first


def _diagrams_built_from(st):
    """The catalog diagram of st and, per center subgroup, its quotient,
    projected and derived diagrams."""
    yield diagram_of(st)
    for sub_ in all_subgroups(st) if st.family != "BC" else ():
        yield quotient_diagram(st, sub_)
        yield project(st, sub_).diagram
        mq = quotient_marked(st, sub_)
        for k in mq.admissible_orders():
            yield derived(mq, k).diagram


@pytest.mark.slow
@pytest.mark.parametrize(
    "st", catalog_types(24) + [SimpleType("BC", n) for n in range(1, 25)], ids=str
)
def test_classify_matches_the_catalog_diagram_scan(st):
    """Type, scale and node map equal those found by building every
    candidate's catalog diagram and scanning it with the marks."""
    for d in _diagrams_built_from(st):
        assert classify(d) == classify_by_catalog_scan(d), d


@pytest.mark.parametrize(
    "marks", [(1, 1, 2), (-1, -1, -1), (-2, -2, -2), (0, 1, 1), (0, 0, 0)], ids=str
)
def test_classify_rejects_marks_off_the_relation_line(marks):
    """Marks that are not a positive multiple of the relation vector (A2's
    is (1, 1, 1)) classify as nothing, though the matrix is A2's."""
    a2 = diagram_of(parse_type("A2"))
    d = AffineDiagram(a2.cartan, marks, a2.sq_lengths)
    assert classify(d) is None
    if any(marks):
        assert classify_by_catalog_scan(d) is None


def test_a_transitive_group_needs_an_a_cycle():
    """A group acting transitively on the nodes is refused unless the
    diagram is an A cycle: on one node, and on the triangle of double
    bonds, which no affine matrix is."""
    with pytest.raises(DiagramError, match="transitive action on a non-cycle diagram"):
        quotient(diagram_of(TRIVIAL), [])
    c = tuple(tuple(2 if i == j else -2 for j in range(3)) for i in range(3))
    with pytest.raises(DiagramError, match="transitive action on a non-cycle diagram"):
        quotient(AffineDiagram(c, (1, 1, 1), (Q(2),) * 3), [(1, 2, 0), (2, 0, 1)])
    a3 = diagram_of(parse_type("A3"))
    assert quotient(a3, automorphism_group(a3)).marks == (4,)


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


# the last diagram's marks are not its relation vector, so some of its
# automorphisms fail the marks check
_SMALL_DIAGRAMS = [
    diagram_of(parse_type(s)) for s in ("A1", "A2", "A3", "A5", "C3", "D4", "D5", "D6", "E6")
] + [diagram_of(parse_type("A3"))._replace(marks=(1, 2, 1, 2))]


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_validate_subgroup_matches_the_all_pairs_rule(data):
    """Checking the Cartan integers on generators and closure against the
    group they generate accepts, rejects and names the failure exactly as
    the all-pairs rule does.  The lists are a subgroup of the automorphism
    group with at most one element dropped and up to two added: further
    automorphisms, arbitrary permutations or non-permutations."""
    d = data.draw(hst.sampled_from(_SMALL_DIAGRAMS))
    n = d.n_nodes
    auts = automorphism_group(d)
    base = generated_group(data.draw(hst.lists(hst.sampled_from(auts), max_size=3)), n)
    drop = data.draw(hst.sampled_from([None] + base))
    extra = data.draw(hst.lists(
        hst.sampled_from(auts)
        | hst.permutations(range(n)).map(tuple)
        | hst.lists(hst.integers(0, n - 1), min_size=n, max_size=n).map(tuple),
        max_size=2,
    ))
    group = data.draw(hst.permutations([p for p in base if p != drop] + extra))
    want = _outcome(validate_subgroup_all_pairs, d, group)
    assert _outcome(_validate_subgroup, d, group) == want, (d.cartan, group)
    if want is None:
        assert _validate_subgroup(d, group) == validate_subgroup_all_pairs(d, group)


def test_validate_subgroup_on_every_center_subgroup():
    """Every center subgroup to rank 16 and of A40, listed in reverse,
    comes back sorted and as the all-pairs rule returns it."""
    for st in catalog_types(16) + [SimpleType("A", 40)]:
        d = diagram_of(st)
        for sub_ in all_subgroups(st):
            perms = sub_.perms()[::-1]
            assert _validate_subgroup(d, perms) == validate_subgroup_all_pairs(d, perms)
            assert _validate_subgroup(d, perms) == sorted(perms)


def test_closure_is_the_least_closed_set():
    assert closure([0], lambda x: [(x + 4) % 10]) == {0, 2, 4, 6, 8}
    assert closure([1, 1], lambda x: []) == {1}
    assert closure([], lambda x: [x + 1]) == set()
    # two steps from each element: the subgroup of Z/12 that 8 and 9 generate
    assert closure([0], lambda x: [(x + 8) % 12, (x + 9) % 12]) == set(range(12))
    assert closure([0], lambda x: [(x + 8) % 12, (x + 6) % 12]) == {0, 2, 4, 6, 8, 10}


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


@pytest.mark.parametrize(
    "payload,match",
    [
        ({"cartan": [[2, 0], [0, 2]], "marks": [1, 1], "sq_lengths": ["2", "2"]}, "decomposable"),
        (
            {"cartan": [[2, -1], [-1, 2]], "marks": [5, 1], "sq_lengths": ["2", "-2"]},
            "not of affine type",
        ),
    ],
)
def test_from_json_validates_the_diagram(payload, match):
    """A payload that is not an affine diagram raises DiagramError, as in
    make_diagram: a decomposable matrix, and marks with a negative length
    on the finite A2 matrix."""
    with pytest.raises(DiagramError, match=match):
        AffineDiagram.from_json(payload)


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


def _non_integers():
    """Finite numbers that are not integers: floats and Fractions."""
    floats = hst.floats(-8, 8, allow_nan=False).filter(lambda x: x != int(x))
    fractions = hst.fractions(-8, 8).filter(lambda x: x.denominator != 1)
    return floats | fractions


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_non_integral_entries_and_marks_are_rejected(data):
    """A Cartan entry or a mark that is not an integer raises DiagramError
    from make_diagram, AffineDiagram.from_json and (for an entry)
    is_affine_type, instead of being truncated to an affine diagram, as
    make_diagram([[2, -2.5], [-2.5, 2]]) once was; the same diagram with
    integer-valued floats, the marks given as a generator, is accepted."""
    types = [parse_type(s) for s in ("A1", "A3", "C2", "G2", "BC2")]
    d = diagram_of(data.draw(hst.sampled_from(types)))
    cartan = [list(row) for row in d.cartan]
    marks = list(d.marks)
    payload = d.to_json()
    bad = data.draw(_non_integers())
    if data.draw(hst.booleans()):
        i = data.draw(hst.integers(0, d.n_nodes - 1))
        j = data.draw(hst.integers(0, d.n_nodes - 1))
        cartan[i][j] = payload["cartan"][i][j] = bad
        match = "cartan entry"
    else:
        marks[data.draw(hst.integers(0, d.n_nodes - 1))] = bad
        payload["marks"] = marks
        match = "mark"
    with pytest.raises(DiagramError, match=f"{match} .* is not an integer"):
        make_diagram(cartan, marks)
    with pytest.raises(DiagramError, match=f"{match} .* is not an integer"):
        AffineDiagram.from_json(payload)
    if match == "cartan entry":
        with pytest.raises(DiagramError, match="cartan entry .* is not an integer"):
            is_affine_type(cartan)
    as_floats = [[float(x) for x in row] for row in d.cartan]
    assert make_diagram(as_floats, (float(m) for m in d.marks)) == make_diagram(d.cartan, d.marks)


@pytest.mark.parametrize("row,want", [
    ((2, -1, 0), (2, -1, 0)),
    ([2, -1, 0], (2, -1, 0)),
    ((), ()),
    ((2, Q(-1), 0.0), (2, -1, 0)),
    ([Q(4, 2), -3], (2, -3)),
], ids=str)
def test_ints_passes_int_rows_and_converts_integral_ones(row, want):
    """A row of plain ints comes back as it is (the same tuple when given
    one); a row with a Fraction or float of integral value comes back as
    ints."""
    got = _ints(row, "entry")
    assert got == want and all(type(x) is int for x in got)
    if type(row) is tuple and all(type(x) is int for x in row):
        assert got is row


@pytest.mark.parametrize("row", [
    (2, 2.5, 0), (2, -1, "2"), ("2",), (2, Q(1, 2), -1), (2, None), (-1, 2, 0.5),
], ids=str)
def test_ints_rejects_a_non_integer_among_ints(row):
    with pytest.raises(DiagramError, match="entry .* is not an integer"):
        _ints(row, "entry")


def test_make_diagram_rejects_non_positive_marks():
    """Marks are a positive multiple of the relation vector on every size,
    the single node included."""
    cycle = diagram_of(parse_type("A2")).cartan
    for cartan, marks in [
        ([[2]], [-3]), ([[2]], [0]), ([[2, -2], [-2, 2]], [0, 0]),
        ([[2, -2], [-2, 2]], [-1, -1]), (cycle, (1, 0, 1)),
    ]:
        with pytest.raises(DiagramError, match="marks must be positive"):
            make_diagram(cartan, marks)
    with pytest.raises(DiagramError, match="marks are not the affine relation vector"):
        make_diagram([[2]], [1, 1])
    assert classify(make_diagram([[2]], [3])) == (TRIVIAL, 3, (0,))


def test_make_diagram_rejects_bad_length_lists():
    """One positive squared length per node, on every size."""
    a2 = diagram_of(parse_type("A2"))
    for lens in [(2, 2), (2, 2, 2, 2)]:
        with pytest.raises(DiagramError, match=f"{len(lens)} squared lengths for 3 nodes"):
            make_diagram(a2.cartan, a2.marks, lens)
    for cartan, marks, lens in [
        ([[2]], [1], [0]), ([[2]], [1], [-2]), (a2.cartan, a2.marks, (-2, -2, -2)),
        (a2.cartan, a2.marks, (0, 0, 0)),
    ]:
        with pytest.raises(DiagramError, match="squared lengths must be positive"):
            make_diagram(cartan, marks, lens)
    assert make_diagram([[2]], [1], [4]).sq_lengths == (4,)


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


# ---------------------------------------------------------------------------
# Given marks: the kernel of the transpose against Kac's criterion


def _kernel_route(cartan, marks):
    """The check of given positive marks by elimination alone, with the
    messages make_diagram has always given: the relation vector of
    is_affine_type against the marks over their gcd."""
    rel = is_affine_type(cartan)
    if rel is None:
        raise DiagramError("cartan matrix is not of affine type")
    if len(cartan) > 1 and tuple(m // gcd(*marks) for m in marks) != rel:
        raise DiagramError("marks are not the affine relation vector")


def _outcome(fn, *args):
    """None if fn(*args) returns, else the DiagramError's message."""
    try:
        fn(*args)
    except DiagramError as exc:
        return str(exc)
    return None


def _assert_routes_agree(cartan, marks):
    """make_diagram accepts positive marks exactly when Kac's criterion
    (oracles.kac_accepts, no elimination) does, keeps them, and otherwise
    names the failure as the elimination alone does."""
    got = _outcome(make_diagram, cartan, marks)
    assert (got is None) == kac_accepts(cartan, marks), (cartan, marks, got)
    assert got == _outcome(_kernel_route, cartan, marks), (cartan, marks)
    if got is None:
        assert make_diagram(cartan, marks).marks == tuple(marks)


@lru_cache(maxsize=None)
def _check_all_diagrams(max_rank):
    """The distinct (cartan, marks) of every diagram run_check_all builds:
    catalog, quotient, projected and derived."""
    out = set()
    bc = [SimpleType("BC", n) for n in range(1, max_rank + 1)]
    for st in catalog_types(max_rank) + bc:
        dias = [diagram_of(st)]
        for sub_ in all_subgroups(st) if st.family != "BC" else []:
            mq = quotient_marked(st, sub_)
            dias += [quotient_diagram(st, sub_), project(st, sub_).diagram]
            dias += [derived(mq, k).diagram for k in mq.admissible_orders()]
        out.update((d.cartan, d.marks) for d in dias)
    return sorted(out)


def test_kac_route_matches_the_kernel_on_check_all_diagrams():
    """Every diagram of check-all --max-rank 12 is accepted with its marks
    and their multiples; one mark raised by 1 is rejected by both routes
    alike (a single node takes any positive mark)."""
    for cartan, marks in _check_all_diagrams(12):
        _assert_routes_agree(cartan, marks)
        _assert_routes_agree(cartan, tuple(3 * m for m in marks))
        for u in range(len(marks)):
            _assert_routes_agree(cartan, marks[:u] + (marks[u] + 1,) + marks[u + 1 :])


_BONDS = [(0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-1, -4), (-4, -1),
          (-2, -2), (0, -1), (1, -1)]


@hst.composite
def _gcms_with_positive_vectors(draw):
    """A small square matrix, mostly a GCM, and a positive vector; when the
    matrix is affine the vector is often a multiple of its relation vector."""
    n = draw(hst.integers(1, 5))
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cartan[i][j], cartan[j][i] = draw(hst.sampled_from(_BONDS))
    if draw(hst.integers(0, 9)) == 0:
        i = draw(hst.integers(0, n - 1))
        cartan[i][i] = draw(hst.sampled_from([0, 1, 3]))
    cartan = tuple(map(tuple, cartan))
    marks = tuple(draw(hst.lists(hst.integers(1, 6), min_size=n, max_size=n)))
    if draw(hst.booleans()):
        try:
            rel = is_affine_type(cartan)
        except DiagramError:
            rel = None
        if rel is not None:
            marks = tuple(draw(hst.integers(1, 3)) * x for x in rel)
    return cartan, marks


@settings(max_examples=400, deadline=None)
@given(_gcms_with_positive_vectors())
def test_kac_route_matches_the_kernel_on_random_gcms(case):
    _assert_routes_agree(*case)


@hst.composite
def _affine_trees_and_cycles(draw):
    """An affine GCM with its nodes relabelled at random: a catalog diagram
    of rank at most 12 (BC_n too) or its transpose, which between them give
    every affine type (Kac, Ch. 4, Tables Aff 1-3).  All are trees but the
    cycles of A_n, n >= 2, and the relabelling moves the node a walk starts
    from."""
    st = draw(hst.sampled_from(catalog_types(12) + [SimpleType("BC", n) for n in range(1, 13)]))
    c = extended_cartan(st)
    if draw(hst.booleans()):
        c = transpose(c)
    n = len(c)
    p = draw(hst.permutations(range(n)))
    return tuple(tuple(c[p[i]][p[j]] for j in range(n)) for i in range(n))


@settings(max_examples=200, deadline=None)
@given(_affine_trees_and_cycles(), hst.data())
def test_kac_route_matches_the_kernel_on_random_affine_trees_and_cycles(cartan, data):
    """A multiple of the relation vector is accepted, and one mark raised
    by 1 rejected, by both routes alike."""
    marks = tuple(data.draw(hst.integers(1, 3)) * x for x in is_affine_type(cartan))
    _assert_routes_agree(cartan, marks)
    u = data.draw(hst.integers(0, len(marks) - 1))
    _assert_routes_agree(cartan, marks[:u] + (marks[u] + 1,) + marks[u + 1 :])


# ---------------------------------------------------------------------------
# Given lengths: a multiple of the derived lengths against the pairwise rule


@lru_cache(maxsize=None)
def _catalog_and_quotient_diagrams(max_rank):
    """Every catalog diagram (BC_n too) and center quotient up to max_rank."""
    out = set()
    for st in catalog_types(max_rank):
        out.add(diagram_of(st))
        out.update(quotient_diagram(st, sub_) for sub_ in all_subgroups(st))
    out.update(diagram_of(SimpleType("BC", n)) for n in range(1, max_rank + 1))
    return sorted(out)


def _assert_length_checks_agree(cartan, marks, lens):
    """make_diagram accepts given lengths exactly when the pairwise rule of
    oracles.check_lengths does, keeps them, and otherwise fails with the
    rule's message."""
    got = _outcome(make_diagram, cartan, marks, lens)
    assert got == _outcome(check_lengths, cartan, tuple(Q(x) for x in lens)), (cartan, lens)
    if got is None:
        assert make_diagram(cartan, marks, lens).sq_lengths == tuple(Q(x) for x in lens)


def test_given_lengths_match_the_pairwise_rule_on_catalog_and_quotients():
    """Multiples of each diagram's lengths are accepted; one entry raised,
    one entry zero or negative, and one length too few or too many are
    rejected, each with the pairwise rule's message."""
    for d in _catalog_and_quotient_diagrams(12):
        lens = d.sq_lengths
        for c in (1, 3, Q(1, 2)):
            _assert_length_checks_agree(d.cartan, d.marks, [c * x for x in lens])
        for u in d.nodes():
            for x in (lens[u] + 1, 0, -lens[u]):
                _assert_length_checks_agree(d.cartan, d.marks, lens[:u] + (x,) + lens[u + 1 :])
        for wrong in (lens[:-1], lens + (2,)):
            _assert_length_checks_agree(d.cartan, d.marks, wrong)


@hst.composite
def _length_vectors(draw):
    """A catalog or quotient diagram and a length vector: a positive
    multiple of its lengths, with one entry perturbed or zero, or one entry
    dropped or added."""
    d = draw(hst.sampled_from(_catalog_and_quotient_diagrams(12)))
    c = draw(hst.fractions(min_value=Q(1, 12), max_value=12))
    lens = [c * x for x in d.sq_lengths]
    u = draw(hst.integers(0, d.n_nodes - 1))
    kind = draw(hst.sampled_from(["multiple", "perturbed", "zero", "count"]))
    if kind == "perturbed":
        lens[u] += draw(hst.fractions(min_value=-3, max_value=3))
    elif kind == "zero":
        lens[u] = 0
    elif kind == "count":
        lens = lens[:-1] if draw(hst.booleans()) else lens + [lens[u]]
    return d.cartan, d.marks, lens


@settings(max_examples=300, deadline=None)
@given(_length_vectors())
def test_given_lengths_match_the_pairwise_rule_on_random_vectors(case):
    _assert_length_checks_agree(*case)


def _assert_length_walks_agree(cartan):
    """The int walk of make_diagram gives the Fraction walk's lengths, as
    Fractions."""
    got = _lengths_from_cartan(cartan)
    assert got == lengths_from_cartan(cartan), cartan
    assert all(type(x) is Q for x in got)


def test_int_length_walk_matches_the_fraction_walk_on_check_all_diagrams():
    for cartan, _ in _check_all_diagrams(12):
        _assert_length_walks_agree(cartan)


@settings(max_examples=300, deadline=None)
@given(_affine_trees_and_cycles())
def test_int_length_walk_matches_the_fraction_walk_on_random_affine_diagrams(cartan):
    _assert_length_walks_agree(cartan)


_CACHE_GUARD = """
import json, sys
from coroots import center, diagrams

seen = {}
for module, name in %s:
    cached, keys, calls = getattr(module, name), set(), [0]

    def spy(*key, cached=cached, keys=keys, calls=calls):
        keys.add(key)
        calls[0] += 1
        return cached(*key)

    setattr(module, name, spy)
    seen[name] = (cached, keys, calls)
%s
out = {}
for name, (cached, keys, calls) in seen.items():
    info = cached.cache_info()
    out[name] = [calls[0], len(keys), info.hits, info.misses]
print(json.dumps(out))
"""


def _assert_each_value_computed_once(caches, run, *argv):
    """Run the script with the named caches spied on, in a fresh
    interpreter: each cache misses once per distinct key and is hit on
    every repeat, and there are repeats."""
    proc = subprocess.run(
        [sys.executable, "-c", _CACHE_GUARD % (caches, run), *argv],
        capture_output=True, text=True, cwd=Path(__file__).resolve().parent.parent,
    )
    assert proc.returncode == 0, proc.stderr
    for name, (calls, distinct, hits, misses) in json.loads(proc.stdout.splitlines()[-1]).items():
        assert misses == distinct and hits == calls - distinct > 0, (name, calls, distinct)


def test_check_all_validates_and_classifies_each_diagram_once():
    """A cold run_check_all(6) misses the classification cache once per
    distinct (cartan, marks), and those of the relation vector (which
    validates every diagram) and the lengths once per distinct matrix, and
    hits them on every repeat."""
    _assert_each_value_computed_once(
        "[(diagrams, n) for n in ('_classify', '_relation_vector', '_lengths_from_cartan')]",
        "from coroots.checks import run_check_all\nassert run_check_all(6, lambda line: None)",
    )


def test_paper_tables_classifies_each_finite_matrix_and_subgroup_once(tmp_path):
    """A cold paper-tables --max-rank 6 misses the finite classifier's
    cache once per distinct matrix and center._generated's once per
    (type, generators), and hits them on every repeat."""
    _assert_each_value_computed_once(
        "[(diagrams, '_classify_finite'), (center, '_generated')]",
        "from coroots.cli import main\n"
        "assert main(['paper-tables', '--max-rank', '6', '--out', sys.argv[1]]) == 0",
        str(tmp_path),
    )


def test_only_diagrams_names_the_search_and_the_finite_classifier():
    """No other module reaches the search or its invariants, and none
    imports _classify_finite by name, which would go round the spy of
    the cache guard above."""
    private = {"_isomorphisms", "_invariants", "_candidate_types", "_classify_finite"}
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "coroots").glob("*.py")):
        if path.stem == "diagrams":
            continue
        tree = ast.parse(path.read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
        assert not names & private, (path.name, names & private)


@pytest.mark.parametrize(
    "st,marks",
    [
        (SimpleType("A", 1000), (1,) * 1001),
        (SimpleType("D", 1000), (1, 1) + (2,) * 997 + (1, 1)),
    ],
    ids=["A1000", "D1000"],
)
def test_a_search_of_1001_nodes_needs_no_recursion(st, marks, monkeypatch):
    """The 1001-node extended matrices, with their marks written out,
    classify past the interpreter's default recursion limit of 1000, and
    without building the catalog diagram."""

    def unbuilt(st):
        raise AssertionError(f"diagram_of({st}) was built")

    monkeypatch.setattr(diagrams_mod, "diagram_of", unbuilt)
    res = _classify(extended_cartan(st), marks)
    assert res.type == st and res.scale == 1


def test_the_chain_rule_agrees_with_the_classifier_on_every_component_met(monkeypatch):
    """Every component that derived() and the L_C factors check to be an
    A_n chain in the rank-12 catalog: the bond rule of oracles.is_a_chain
    and the finite classifier's family agree on it."""
    met = []

    def spy(cartan, nodes):
        met.append((cartan, tuple(nodes)))
        return subdiagram_type(cartan, nodes)

    monkeypatch.setattr(center_mod, "subdiagram_type", spy)
    monkeypatch.setattr(derived_mod, "subdiagram_type", spy)
    for st in catalog_types(12):
        for sub_ in all_subgroups(st):
            l_c_factors(st, sub_)
            mq = quotient_marked(st, sub_)
            for k in mq.admissible_orders():
                derived.__wrapped__(mq, k)
    assert len({c for _, c in met}) > 10
    for cartan, nodes in met:
        assert is_a_chain(cartan, nodes) == (subdiagram_type(cartan, nodes)[0].family == "A")


@pytest.mark.parametrize(
    "st", [t for t in catalog_types(12) if t.family in "BCDEFG"], ids=str
)
def test_the_chain_rule_and_the_classifier_refuse_other_blocks(st):
    """A finite Cartan matrix of another family, its nodes shuffled, is no
    A_n chain by either rule."""
    n = st.rank
    fin = [row[1:] for row in extended_cartan(st)[1:]]
    perm = random.Random(str(st)).sample(range(n), n)
    block = tuple(tuple(fin[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    assert not is_a_chain(block, range(n))
    assert subdiagram_type(block, range(n))[0].family != "A"

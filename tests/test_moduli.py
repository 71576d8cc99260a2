from fractions import Fraction as Q

import pytest

from coroots.center import all_subgroups, center_group, parse_center, trivial_subgroup
from coroots.diagrams import dual_coxeter
from coroots.moduli import (
    catalog_types,
    clock_report,
    components,
    components_for,
    noncyclic_components,
    rank_zero_list,
    record_from_json,
    record_to_json,
    units_mod,
)
from coroots.numerology import euler_phi
from coroots.rootdata import SimpleType, parse_type


def lbl(t):
    return f"{t.family}{t.rank}"


def test_e8_trivial_components():
    st = parse_type("E8")
    recs = components(st, trivial_subgroup(st))
    assert len(recs) == 12
    orders = sorted({r.order for r in recs})
    assert orders == [1, 2, 3, 4, 5, 6]
    counts = {k: sum(1 for r in recs if r.order == k) for k in orders}
    assert counts == {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2}
    d_by_k = {k: next(r.d_X for r in recs if r.order == k) for k in orders}
    assert d_by_k == {1: 9, 2: 5, 3: 3, 4: 2, 5: 1, 6: 1}
    assert sum(r.d_X for r in recs) == 30


def test_e7_full_components():
    st = parse_type("E7")
    recs = components(st, parse_center(st, "full"))
    assert len(recs) == 8
    assert sum(r.d_X for r in recs) == 18
    assert sorted({r.order for r in recs}) == [1, 2, 3, 4, 6]


def test_su_n_single_component():
    st = parse_type("A6")
    recs = components(st, trivial_subgroup(st))
    assert len(recs) == 1
    r = recs[0]
    assert (r.order, r.dim, r.shape) == (1, 18, "sbar3")


def test_cs_values_are_primitive_torsion():
    for spec, center in [("E8", "trivial"), ("E7", "full"), ("D5", "full"), ("C6", "full")]:
        st = parse_type(spec)
        recs = components_for(st, parse_center(st, center))
        for k in {r.order for r in recs}:
            got = sorted(r.cs for r in recs if r.order == k)
            want = sorted(Q(l % k, k) for l in units_mod(k))
            assert got == want


def test_shape_bullets():
    st = parse_type("B6")
    shapes = {r.order: r.shape for r in components(st, parse_center(st, "full"))}
    assert shapes == {1: "sbar2_s", 2: "sbar3"}
    st = parse_type("E7")
    shapes = {r.order: r.shape for r in components(st, parse_center(st, "full"))}
    assert shapes == {1: "sbar2_s", 2: "sbar2_s", 3: "point", 4: "sbar3", 6: "point"}
    st = parse_type("C8")
    shapes = {r.order: r.shape for r in components(st, parse_center(st, "full"))}
    assert shapes == {1: "sbar2_s", 2: "sbar2_s"}
    st = parse_type("D8")
    shapes = {r.order: r.shape for r in components(st, parse_center(st, "c_exotic"))}
    assert shapes == {1: "sbar2_s", 2: "sbar2_s", 4: "sbar2_s"}
    st = parse_type("E8")
    shapes = {r.order: r.shape for r in components(st, trivial_subgroup(st))}
    assert shapes == {1: "sbar3", 2: "sbar3", 3: "sbar3", 4: "sbar3", 5: "point", 6: "point"}


def test_noncyclic_spin8():
    recs = noncyclic_components(parse_type("D4"))
    assert [r.order for r in recs] == [1, 2, 4, 4]
    assert [str(r.cs) for r in recs] == ["0", "1/2", "1/4", "3/4"]
    assert [r.torus_rank for r in recs] == [1, 1, 0, 0]
    assert [r.shape for r in recs] == ["s3_modF", "s3_modF", "point", "point"]
    assert [r.f_order for r in recs] == [2, 2, 1, 1]
    assert sum(r.d_X for r in recs) == 6


def test_noncyclic_spin_4n():
    for n in (3, 4, 5, 6):
        st = SimpleType("D", 2 * n)
        recs = noncyclic_components(st)
        assert [r.d_X for r in recs] == [n, n, n - 1, n - 1]
        assert sum(r.d_X for r in recs) == dual_coxeter(st)
        assert [r.f_order for r in recs] == [2 ** (2 * n - 3)] * 2 + [2 ** (2 * n - 4)] * 2
    with pytest.raises(ValueError):
        noncyclic_components(parse_type("D5"))


def test_counts_are_phi_k_everywhere():
    for spec in ["A7", "B5", "C7", "D6", "D7", "E6", "F4", "G2"]:
        st = parse_type(spec)
        for sub in all_subgroups(st):
            recs = components_for(st, sub)
            for k in {r.order for r in recs}:
                assert sum(1 for r in recs if r.order == k) == euler_phi(k)
            assert sum(r.d_X for r in recs) == dual_coxeter(st)


def test_rank_zero_noncentral_lists():
    assert [(lbl(t), c) for t, c in rank_zero_list(1, False)] == [("A0", "trivial")]
    assert sorted(lbl(t) for t, _ in rank_zero_list(2, False)) == ["B3", "D4", "G2"]
    assert sorted(lbl(t) for t, _ in rank_zero_list(3, False)) == ["E6", "F4"]
    assert sorted(lbl(t) for t, _ in rank_zero_list(4, False)) == ["E7"]
    assert sorted(lbl(t) for t, _ in rank_zero_list(5, False)) == ["E8"]
    assert sorted(lbl(t) for t, _ in rank_zero_list(6, False)) == ["E8"]


def test_rank_zero_central_lists():
    # the five case families: A_n with a generator and k | n+1; C_2 at k=2;
    # D_6 exotic at k=4; E_6 at k=2 and 6; E_7 at k=3 and 6
    got2 = rank_zero_list(2, True, 8)
    assert sorted(lbl(t) for t, _ in got2) == ["A1", "A3", "A5", "A7", "C2", "E6"]
    got3 = rank_zero_list(3, True, 8)
    assert sorted(lbl(t) for t, _ in got3) == ["A2", "A5", "A8", "E7"]
    got4 = rank_zero_list(4, True, 8)
    assert sorted(lbl(t) for t, _ in got4) == ["A3", "A7", "D6", "D6"]
    assert {c for t, c in got4 if lbl(t) == "D6"} == {"node:5", "node:6"}
    got6 = rank_zero_list(6, True, 8)
    assert sorted(lbl(t) for t, _ in got6) == ["A5", "E6", "E7"]
    got5 = rank_zero_list(5, True, 8)
    assert sorted(lbl(t) for t, _ in got5) == ["A4"]


def test_a_family_rank_zero_requires_generator():
    # A_5 with the order-3 subgroup has two marks divisible by 3: no row
    rows = rank_zero_list(3, True, 5)
    a5_rows = [c for t, c in rows if lbl(t) == "A5"]
    assert a5_rows == ["node:1"]


def test_clock_report_spots():
    st = parse_type("G2")
    cr = clock_report(st, trivial_subgroup(st))
    assert cr.parity == "even" and cr.valid
    assert set(cr.windows[(1, 1)]) == {6, 0, 2} and cr.windows[(2, 1)] == (4,)
    st = parse_type("E8")
    cr = clock_report(st, trivial_subgroup(st))
    assert cr.valid and len(cr.windows) == 12
    assert len(cr.union()) == 30
    st = parse_type("A1")
    cr = clock_report(st, trivial_subgroup(st))
    assert cr.parity == "odd" and set(cr.windows[(1, 1)]) == {1, 3}


def test_clock_report_noncyclic():
    for n in (2, 3, 4):
        st = SimpleType("D", 2 * n)
        cr = clock_report(st, center_group(st))
        assert cr.valid


def test_record_json_round_trip():
    st = parse_type("E7")
    for r in components(st, parse_center(st, "full")):
        assert record_from_json(record_to_json(r)) == r


def test_catalog_types_bounds():
    types = catalog_types(6)
    assert SimpleType("E", 6) in types and SimpleType("E", 7) not in types
    assert SimpleType("B", 2) not in types  # aliased to C2
    assert SimpleType("C", 2) in types

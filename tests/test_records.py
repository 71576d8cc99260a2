"""The record types: what the package relies on of their tuple behaviour.

Every record is an immutable named tuple.  These tests pin the parts the
code and its output depend on: the repr format, tuple order on SimpleType
(the catalog order is the sorted order), the B2 alias, the flat field
list of ClockReport, and immutability.
"""

import random

import pytest

from coroots.center import parse_center
from coroots.diagrams import classify, diagram_of
from coroots.moduli import ClockReport, catalog_types, clock_report
from coroots.projection import DiagramReport, check_diagram1
from coroots.rootdata import RootDatum, SimpleType, datum, parse_type


def test_repr_format():
    assert repr(SimpleType("A", 3)) == "SimpleType(family='A', rank=3)"
    assert repr(classify(diagram_of(parse_type("A3")))) == (
        "ClassifyResult(type=SimpleType(family='A', rank=3), scale=1, node_map=(1, 2, 3, 0))"
    )
    assert repr(DiagramReport(False, "orbit counts differ")) == (
        "DiagramReport(equal=False, detail='orbit counts differ', node_bijection=None)"
    )
    st = parse_type("A3")
    assert repr(check_diagram1(st, parse_center(st, "full"))) == (
        "DiagramReport(equal=True, detail='projected and quotient diagrams agree',"
        " node_bijection=(0,))"
    )


def test_sorted_catalog_is_catalog_order():
    types = catalog_types(24)
    for seed in range(5):
        shuffled = list(types)
        random.Random(seed).shuffle(shuffled)
        assert sorted(shuffled) == types


def test_b2_is_c2_but_for_its_type():
    b2, c2 = datum(SimpleType("B", 2)), datum(SimpleType("C", 2))
    assert b2.type == SimpleType("B", 2) and c2.type == SimpleType("C", 2)
    for field in RootDatum._fields:
        if field != "type":
            assert getattr(b2, field) == getattr(c2, field), field


def test_clock_report_fields_and_union():
    assert ClockReport._fields == ("g", "windows", "parity", "components", "valid")
    st = parse_type("D4")
    cr = clock_report(st, parse_center(st, "full"))
    assert cr.union() == set().union(*cr.windows.values())
    assert cr.parity == "odd" and cr.union() == set(range(1, 2 * cr.g, 2))


def test_records_are_immutable():
    st = SimpleType("A", 3)
    with pytest.raises(AttributeError):
        st.rank = 4
    d = diagram_of(st)
    with pytest.raises(AttributeError):
        d.marks = (1, 1, 1, 1)
    assert st == SimpleType("A", 3) and d.marks == (1, 1, 1, 1)

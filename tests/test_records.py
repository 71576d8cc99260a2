"""The record types: what the package relies on of their tuple behaviour.

Every record is an immutable named tuple, a ``collections.namedtuple``
subclass with empty ``__slots__``.  These tests pin the parts the code and
its output depend on: the field lists and defaults, the repr format, tuple
order on SimpleType (the catalog order is the sorted order), the B2 alias,
``_replace`` keeping the subclass, and immutability.
"""

import importlib
import pkgutil
import random

import pytest

import coroots
from coroots.ambient import RootDatum, datum
from coroots.center import parse_center
from coroots.coords import DiagramReport, check_diagram1
from coroots.diagrams import classify, diagram_of
from coroots.moduli import ClockReport, ComponentRecord, catalog_types, clock_report
from coroots.rootdata import SimpleType, parse_type

FIELDS = {
    "ambient.AlcoveData": ("vertices",),
    "ambient.RootDatum": (
        "type", "ambient_dim", "gram", "extended_roots", "extended_coroots", "h", "g",
        "coroot_lattice_basis", "coweight_lattice_basis", "coweight_coroot_coords",
    ),
    "center.CenterElement": ("node", "perm", "order"),
    "center.CenterSubgroup": ("type", "elements"),
    "center.Orbit": ("nodes", "eps", "mark"),
    "center.OrbitSet": ("orbits", "degenerate"),
    "coords.DiagramReport": ("equal", "detail", "node_bijection"),
    "coords.ProjectedSystem": (
        "type", "fixed_coords", "orbits", "averages", "scale", "gram", "diagram",
        "classified",
    ),
    "derived.DerivedDiagram": (
        "parent", "k", "survivors", "node_types", "ell_k_sq", "diagram", "classified",
    ),
    "diagrams.AffineDiagram": ("cartan", "marks", "sq_lengths"),
    "diagrams.ClassifyResult": ("type", "scale", "node_map"),
    "moduli.ClockReport": ("g", "windows", "parity", "components", "valid"),
    "moduli.ComponentRecord": (
        "order", "label", "d_X", "dim", "shape", "cs", "torus_rank", "f_order",
    ),
    "numerology.ClockPartition": ("g", "windows", "parity"),
    "numerology.Decomposition": ("subgroup_orders", "assignment"),
    "numerology.MarkedDiagram": ("diagram", "n"),
    "numerology.NumerologyCounts": ("N", "g", "i", "d"),
    "rootdata.SimpleType": ("family", "rank"),
    "tables.TableDocument": ("name", "title", "rows"),
}


def record_classes():
    """Every tuple subclass defined in a coroots module, by module.name."""
    out = {}
    for info in pkgutil.iter_modules(coroots.__path__):
        module = importlib.import_module(f"coroots.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, tuple)
                    and obj.__module__ == module.__name__):
                out[f"{info.name}.{name}"] = obj
    return out


def test_every_record_class_is_pinned():
    assert set(record_classes()) == set(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_slots_and_replace(name):
    cls = record_classes()[name]
    assert cls._fields == FIELDS[name]
    assert "__slots__" in vars(cls) and cls.__slots__ == ()
    rec = cls._make(range(len(cls._fields)))
    assert not hasattr(rec, "__dict__")
    swapped = rec._replace(**{cls._fields[0]: -1})
    assert type(swapped) is cls and swapped[0] == -1 and swapped[1:] == rec[1:]


def test_optional_last_fields_default_to_none():
    assert DiagramReport(True, "x").node_bijection is None
    assert ComponentRecord(1, 1, 1, 0, "point", 0, 0).f_order is None


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

"""Reference tables: concrete instantiations of the bundled summary data.

Four deterministic text documents mirror the reference material shipped
with this package: the catalog of extended coroot diagrams, the quotient
diagrams for every center subgroup, the fixed-subspace root-system table,
and the torus root-system tables for k > 1.  The CLI regenerates them;
tests diff them against the checked-in golden copies.
"""

from __future__ import annotations

from typing import NamedTuple

from .center import (
    all_subgroups,
    l_c_factors,
    orbit_data,
    parse_center,
    quotient_diagram,
)
from .coords import torus_subspace_coords
from .derived import derived
from .diagrams import classify, diagram_of, label, render_diagram
from .moduli import catalog_types
from .numerology import quotient_marked
from .projection import annihilator_factors, nonmultipliable, projection_type, restricted_type
from .rootdata import SimpleType


class TableDocument(NamedTuple):
    name: str
    title: str
    rows: tuple[str, ...]

    def text(self) -> str:
        head = [f"# {self.title}", ""]
        return "\n".join(head + list(self.rows)) + "\n"


def _sub_name(st: SimpleType, sub_) -> str:
    if sub_.is_trivial:
        return "trivial"
    if len(sub_.nodes) == len(parse_center(st, "full").nodes):
        return "full"
    if st.family == "D" and sub_.nodes == (0, 1):
        return "c_SO"
    if st.family == "D" and st.rank % 2 == 0 and len(sub_.nodes) == 2:
        return f"c_exotic[{sub_.nodes[1]}]"
    return "<node:" + ",".join(str(n) for n in sub_.nodes if n) + ">"


def coroot_diagram_table(max_rank: int = 12) -> TableDocument:
    rows = []
    types = catalog_types(max_rank) + [SimpleType("BC", n) for n in range(1, max_rank + 1)]
    for st in types:
        d = diagram_of(st)
        rows.append(f"{label(st)}:")
        rows.append(render_diagram(d))
        rows.append("")
    return TableDocument(
        "coroot-diagrams", "Extended coroot diagrams and coroot integers", tuple(rows)
    )


def quotient_diagram_table(max_rank: int = 12) -> TableDocument:
    rows = []
    for st in catalog_types(max_rank):
        for sub_ in all_subgroups(st):
            if sub_.is_trivial:
                continue
            q = quotient_diagram(st, sub_)
            res = classify(q)
            rows.append(
                f"{label(st)} / {_sub_name(st, sub_)} -> {label(res.type)}"
                f" (scale {res.scale})"
            )
            rows.append(render_diagram(q))
            rows.append("")
    return TableDocument(
        "quotient-diagrams",
        "Quotient extended coroot diagrams and quotient coroot integers",
        tuple(rows),
    )


def fixed_subspace_table(max_rank: int = 12) -> TableDocument:
    """Per-type rows: L_C factors and the four fixed-subspace root systems."""
    rows = [
        "group | center | L_C | Phi^w | Phi^res | Phi^proj | Phi(w_C) | marks"
    ]
    for st in catalog_types(max_rank):
        for sub_ in all_subgroups(st):
            if sub_.is_trivial or orbit_data(st, sub_).degenerate:
                continue
            factors, trivial_count = l_c_factors(st, sub_)
            lc = (
                " x ".join(f"A{m - 1}" for m in factors) if factors else "1"
            )
            pt = projection_type(st, sub_)
            rt = restricted_type(st, sub_)
            wc = classify(quotient_diagram(st, sub_))
            marks = ",".join(str(m) for m in orbit_data(st, sub_).marks)
            rows.append(
                f"{label(st)} | {_sub_name(st, sub_)} | {lc} | "
                f"{label(nonmultipliable(pt))} | {label(rt)} | {label(pt)} | "
                f"{label(wc.type)} | {marks}"
            )
    return TableDocument(
        "fixed-subspace", "Root systems on the fixed subspace of the center", tuple(rows)
    )


def torus_table(max_rank: int = 12) -> TableDocument:
    """Derived root systems on t(k) and on t^{w_C}(gbar,k) for k > 1."""
    rows = ["group | center | k | L | root system | surviving marks"]
    for st in catalog_types(max_rank):
        for sub_ in all_subgroups(st):
            m = quotient_marked(st, sub_)
            for k in m.admissible_orders():
                if k == 1:
                    continue
                if not sub_.is_trivial and k % m.n0 == 0:
                    continue  # mirrors the reference table's k not dividing n0
                dd = derived(m, k)
                ann = annihilator_factors(st, torus_subspace_coords(st, sub_, k))
                lbl = " x ".join(label(f) for f in ann) if ann else "1"
                marks = ",".join(str(x) for x in dd.surviving_values)
                rows.append(
                    f"{label(st)} | {_sub_name(st, sub_)} | {k} | {lbl} | "
                    f"{label(dd.classified.type)} | {marks}"
                )
    return TableDocument(
        "torus-k", "Root systems on the order-k tori", tuple(rows)
    )


def all_tables(max_rank: int = 12) -> list[TableDocument]:
    return [
        coroot_diagram_table(max_rank),
        quotient_diagram_table(max_rank),
        fixed_subspace_table(max_rank),
        torus_table(max_rank),
    ]

"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is exact: all quantities are integers or
rationals and comparisons are equalities.
"""

import time
from fractions import Fraction as Q

from coroots.center import (
    all_subgroups,
    center_group,
    parse_center,
    subgroup_generated,
    trivial_subgroup,
)
from coroots.cli import run_check_all
from coroots.coords import check_diagram1, project
from coroots.derived import check_samediags, derived, quotient_marked
from coroots.diagrams import classify, diagram_of, quotient
from coroots.moduli import (
    catalog_types,
    clock_report,
    components_for,
    noncyclic_components,
    rank_zero_list,
    units_mod,
)
from coroots.numerology import check_assumption, clocked, counts, euler_phi, marked
from coroots.projection import nonmultipliable, projection_type, restricted_type
from coroots.rootdata import SimpleType, dual_coxeter, parse_type

from test_center import oracle_winners
from test_rootdata import ALL_SPECS, bonds, expected_figure

MAX_RANK = 12
ALL_TYPES = catalog_types(MAX_RANK)


def done(n, msg):
    print(f"PASS criterion {n}: {msg}")


def lbl(t):
    return f"{t.family}{t.rank}"


def canon(s):
    return {"C0": "A0", "C1": "A1", "B2": "C2"}.get(s, s)


# one representative per catalog figure (the figures are generic in n)
FIGURE_SPECS = ["A1", "A4", "B5", "C4", "D6", "E6", "E7", "E8", "F4", "G2", "BC1", "BC4"]


def test_criterion_1_figures():
    """Every extended coroot diagram figure, node for node, in under 1s."""
    t0 = time.time()
    for spec in FIGURE_SPECS:
        st = parse_type(spec)
        d = diagram_of(st)
        expect_bonds, expect_marks = expected_figure(spec)
        assert d.marks == expect_marks, spec
        assert bonds(d.cartan) == expect_bonds, spec
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"figure regression took {elapsed:.2f}s"
    # the full rank sweep, untimed
    for spec in ALL_SPECS:
        st = parse_type(spec)
        d = diagram_of(st)
        expect_bonds, expect_marks = expected_figure(spec)
        assert d.marks == expect_marks and bonds(d.cartan) == expect_bonds, spec
    done(1, f"all {len(ALL_SPECS)} diagram figures reproduced; the {len(FIGURE_SPECS)} family figures in {elapsed:.2f}s")


def quotient_expectations():
    """Every row family of the quotient-diagram section at ranks <= 12."""
    rows = []
    for n in range(1, MAX_RANK + 1):
        for m in range(2, n + 2):
            if (n + 1) % m:
                continue
            if m == n + 1:
                rows.append((f"A{n}", [1], "A0", n + 1, [n + 1]))
            else:
                sz = (n + 1) // m
                rows.append((f"A{n}", [sz], f"A{sz - 1}", m, [m] * sz))
    for n in range(3, MAX_RANK + 1):
        rows.append((f"B{n}", "full", f"BC{n - 1}", 1, [1] + [2] * (n - 1)))
    for n in range(2, MAX_RANK + 1, 2):
        rows.append((f"C{n}", "full", f"BC{n // 2}", 1, [1] + [2] * (n // 2)))
    for n in range(3, MAX_RANK + 1, 2):
        half = (n - 1) // 2
        rows.append((f"C{n}", "full", "A1" if half == 1 else f"C{half}", 2, [2] * (half + 1)))
    for n in range(4, MAX_RANK + 1):
        rows.append((f"D{n}", "c_SO", f"C{n - 2}", 2, [2] * (n - 1)))
    rows.append(("D4", "c_exotic", "C2", 2, [2, 2, 2]))
    for n in range(6, MAX_RANK + 1, 2):
        h = n // 2
        rows.append((f"D{n}", "c_exotic", f"B{h}", 2, [2, 2, 2] + [4] * (h - 2)))
    for n in range(5, MAX_RANK + 1, 2):
        h = (n - 1) // 2
        rows.append((f"D{n}", "full", "A1" if h == 2 else f"C{h - 1}", 4, [4] * h))
    rows.append(("D4", "full", "BC1", 2, [2, 4]))
    for n in range(6, MAX_RANK + 1, 2):
        h = n // 2
        rows.append((f"D{n}", "full", f"BC{h - 1}", 2, [2] + [4] * (h - 1)))
    rows.append(("E6", "full", "G2", 3, [3, 3, 6]))
    rows.append(("E7", "full", "F4", 2, [2, 2, 4, 4, 6]))
    return rows


def test_criterion_2_quotient_tables():
    rows = quotient_expectations()
    for spec, center, want, scale, marks in rows:
        st = parse_type(spec)
        if isinstance(center, list):
            sub = subgroup_generated(st, [center[0]])
        else:
            sub = parse_center(st, center)
        q = quotient(diagram_of(st), sub.perms())
        res = classify(q)
        assert canon(lbl(res.type)) == canon(want), (spec, center, res)
        assert res.scale == scale, (spec, center, res.scale)
        assert sorted(q.marks) == sorted(marks), (spec, center, q.marks)
    done(2, f"{len(rows)} quotient-diagram rows classified with exact marks")


def test_criterion_3_diagram1_oracle():
    cases = 0
    for st in ALL_TYPES:
        for sub in all_subgroups(st):
            rep = check_diagram1(st, sub)
            assert rep.equal, (st, sub.nodes, rep.detail)
            cases += 1
    done(3, f"projected = quotient diagram in all {cases} (type, subgroup) cases")


def test_criterion_4_fixed_subspace_table():
    """The nine row families: L_C factors and all four classifications."""
    from coroots.center import l_c_factors

    rows = []  # (type, center, L_C sizes, Phi^w, Phi^res, Phi^proj, Phi(w_C))
    for n in range(3, MAX_RANK + 1):
        rows.append((f"B{n}", "full", [2], f"C{n-1}", f"B{n-1}", f"BC{n-1}", f"BC{n-1}"))
    for n in range(3, MAX_RANK + 1, 2):
        h = (n + 1) // 2
        rows.append((f"C{n}", "full", [2] * h, f"C{h-1}", f"BC{h-1}", f"BC{h-1}", f"C{h-1}"))
    for n in range(2, MAX_RANK + 1, 2):
        h = n // 2
        rows.append((f"C{n}", "full", [2] * h, f"C{h}", f"C{h}", f"BC{h}", f"BC{h}"))
    for n in range(4, MAX_RANK + 1):
        rows.append((f"D{n}", "c_SO", [2, 2], f"C{n-2}", f"B{n-2}", f"C{n-2}", f"C{n-2}"))
    for n in range(6, MAX_RANK + 1, 2):
        h = n // 2
        rows.append((f"D{n}", "c_exotic", [2] * h, f"B{h}", f"C{h}", f"B{h}", f"B{h}"))
    for n in range(5, MAX_RANK + 1, 2):
        h = (n - 1) // 2
        rows.append((f"D{n}", "full", [4] + [2] * (h - 1), f"C{h-1}", f"BC{h-1}", f"BC{h-1}", f"C{h-1}"))
    for n in range(4, MAX_RANK + 1, 2):
        h = n // 2
        rows.append((f"D{n}", "full", [2] * (h + 1), f"C{h-1}", f"BC{h-1}", f"BC{h-1}", f"BC{h-1}"))
    rows.append(("E6", "full", [3, 3], "G2", "G2", "G2", "G2"))
    rows.append(("E7", "full", [2, 2, 2], "F4", "F4", "F4", "F4"))

    for spec, center, lc, w, res, proj, wc in rows:
        st = parse_type(spec)
        sub = parse_center(st, center)
        factors, _ = l_c_factors(st, sub)
        assert sorted(factors) == sorted(lc), (spec, center, factors)
        pt = projection_type(st, sub)
        assert canon(lbl(pt)) == canon(proj), (spec, center, pt)
        assert canon(lbl(nonmultipliable(pt))) == canon(w), (spec, center)
        rt = restricted_type(st, sub)
        assert canon(lbl(rt)) == canon(res), (spec, center, rt)
        got_wc = project(st, sub).classified.type
        assert canon(lbl(got_wc)) == canon(wc), (spec, center, got_wc)
        # the induced marks are a single multiple of the classified catalog marks
        q = classify(quotient(diagram_of(st), sub.perms()))
        assert q.scale >= 1
    done(4, f"fixed-subspace table: {len(rows)} rows with all four classifications")


def tk_expectations():
    rows = []
    for n in range(3, MAX_RANK + 1):
        rows.append((f"B{n}", "trivial", 2, f"C{n-3}", [2] * (n - 2)))
    for n in range(4, MAX_RANK + 1):
        rows.append((f"D{n}", "trivial", 2, f"C{n-4}", [2] * (n - 3)))
    rows += [
        ("E6", "trivial", 2, "A2", [2, 2, 2]), ("E6", "trivial", 3, "C0", [3]),
        ("E7", "trivial", 2, "B3", [2, 4, 2, 2]), ("E7", "trivial", 3, "A1", [3, 3]),
        ("E7", "trivial", 4, "C0", [4]),
        ("E8", "trivial", 2, "F4", [2, 4, 6, 4, 2]), ("E8", "trivial", 3, "G2", [3, 6, 3]),
        ("E8", "trivial", 4, "A1", [4, 4]), ("E8", "trivial", 5, "C0", [5]),
        ("E8", "trivial", 6, "C0", [6]),
        ("F4", "trivial", 2, "A1", [2, 2]), ("F4", "trivial", 3, "C0", [3]),
        ("G2", "trivial", 2, "C0", [2]),
    ]
    return rows


def twck_expectations():
    rows = []
    for n in range(3, MAX_RANK + 1):
        rows.append((f"B{n}", "full", 2, f"C{n-2}", [2] * (n - 1)))
    for n in range(4, MAX_RANK + 1, 2):
        h = n // 2
        rows.append((f"C{n}", "full", 2, f"C{h-1}", [2] * h))
    for n in range(6, MAX_RANK + 1, 2):
        h = n // 2
        rows.append((f"D{n}", "c_exotic", 4, f"C{h-3}", [4] * (h - 2)))
    for n in range(4, MAX_RANK + 1, 2):
        h = n // 2
        rows.append((f"D{n}", "full", 4, f"C{h-2}", [4] * (h - 1)))
    rows += [
        ("E6", "full", 2, "C0", [6]), ("E6", "full", 6, "C0", [6]),
        ("E7", "full", 4, "A1", [4, 4]), ("E7", "full", 3, "C0", [6]),
        ("E7", "full", 6, "C0", [6]),
    ]
    return rows


def test_criterion_5_torus_tables():
    n_rows = 0
    for spec, center, k, want, marks in tk_expectations() + twck_expectations():
        st = parse_type(spec)
        sub = parse_center(st, center)
        dd = derived(quotient_marked(st, sub), k)
        assert canon(lbl(dd.classified.type)) == canon(want), (spec, center, k, dd.classified)
        assert sorted(dd.surviving_values) == sorted(marks), (spec, center, k)
        rep = check_samediags(st, sub, k)
        assert rep.equal, (spec, center, k, rep.detail)
        n_rows += 1
    done(5, f"both torus tables: {n_rows} rows via derived + coordinate oracle")


def test_criterion_6_numerology():
    t0 = time.time()
    mds = [marked(diagram_of(st)) for st in ALL_TYPES]
    mds += [marked(diagram_of(SimpleType("BC", n))) for n in range(1, MAX_RANK + 1)]
    for st in ALL_TYPES:
        for sub in all_subgroups(st):
            if not sub.is_trivial:
                mds.append(quotient_marked(st, sub))
    for m in mds:
        c = counts(m)  # verifies the value-range, phi(N), and i(r,k) identities
        assert sum(euler_phi(x) * dx for x, dx in c.d.items()) == c.g
        clocked(m)  # verifies disjointness and the parity-class union
        for k in m.admissible_orders():
            if k > 1:
                assert check_assumption(m, k) is not None, (m.n, k)
    elapsed = time.time() - t0
    assert elapsed < 30, f"numerology suite took {elapsed:.1f}s"
    done(6, f"numerology identities on {len(mds)} marked diagrams in {elapsed:.1f}s")


def test_criterion_7_moduli():
    cases = 0
    for st in ALL_TYPES:
        g = dual_coxeter(st)
        for sub in all_subgroups(st):
            recs = components_for(st, sub)
            assert sum(r.d_X for r in recs) == g, (st, sub.nodes)
            orders = {r.order for r in recs}
            for k in orders:
                of_k = [r for r in recs if r.order == k]
                assert len(of_k) == euler_phi(k)
                assert sorted(r.cs for r in of_k) == sorted(
                    Q(l % k, k) for l in units_mod(k)
                )
            assert clock_report(st, sub).valid
            cases += 1
    # spot values
    e8 = components_for(parse_type("E8"), trivial_subgroup(parse_type("E8")))
    assert len(e8) == 12 and sum(r.d_X for r in e8) == 30
    e7 = components_for(parse_type("E7"), parse_center(parse_type("E7"), "full"))
    assert len(e7) == 8 and sum(r.d_X for r in e7) == 18
    spin8 = noncyclic_components(parse_type("D4"))
    assert sorted(r.cs for r in spin8) == [Q(0), Q(1, 4), Q(1, 2), Q(3, 4)]
    done(7, f"component counts, CS torsion and window partitions over {cases} cases")


def test_criterion_8_rank_zero_lists():
    noncentral = {
        1: ["A0"], 2: ["B3", "D4", "G2"], 3: ["E6", "F4"],
        4: ["E7"], 5: ["E8"], 6: ["E8"],
    }
    for k, want in noncentral.items():
        got = sorted(lbl(t) for t, _ in rank_zero_list(k, False, MAX_RANK))
        assert got == sorted(want), (k, got)
    # the central case: five families; scan at rank 12 and compare with the
    # predicted pattern
    for k in range(2, 7):
        got = sorted(
            (lbl(t), c) for t, c in rank_zero_list(k, True, MAX_RANK)
        )
        want = []
        for n in range(1, MAX_RANK + 1):
            if (n + 1) % k == 0:
                want.append((f"A{n}", "node:1"))
        if k == 2:
            want += [("C2", "node:2"), ("E6", "node:1")]
        if k == 3:
            want += [("E7", "node:7")]
        if k == 4:
            want += [("D6", "node:5"), ("D6", "node:6")]
        if k == 6:
            want += [("E6", "node:1"), ("E7", "node:7")]
        assert got == sorted(want), (k, got)
    done(8, "rank-zero lists match the non-central and central case lists")


def test_criterion_9_oracle_uniqueness():
    from coroots.rootdata import center_vertex_nodes

    elements = 0
    for st in ALL_TYPES:
        grp = center_group(st)  # asserts injective homomorphism internally
        for node in center_vertex_nodes(st):
            winners = oracle_winners(st, node)
            assert len(winners) == 1, (st, node, len(winners))
            elements += 1
    done(9, f"vertex oracle unique for all {elements} center elements")


def test_criterion_10_determinism():
    lines1: list[str] = []
    lines2: list[str] = []
    assert run_check_all(6, lines1.append)
    assert run_check_all(6, lines2.append)
    assert "\n".join(lines1) == "\n".join(lines2)
    assert lines1[-1] == "all checks passed"
    done(10, "two check-all runs produced byte-identical output")

"""One benchmark operation in a fresh interpreter.

``run.py`` starts this script once per operation, so every ``lru_cache`` of
the package starts cold, as it does for a user who runs one command.  The
script drives the package only through its public functions and prints one
JSON object as the last line of its standard output.

Operations:

    check-all     run_check_all over the catalog up to --rank
    paper-tables  ``coroots paper-tables --out DIR --max-rank R``
    query         one CLI command, given after ``--``
    sweep         the per-layer stage sweep (see ``op_sweep``)

``--seed`` permutes the order in which the catalog is visited; the set of
computations, and so the amount of work, does not depend on it.
``--profile`` runs the operation under cProfile and adds per-module self
time, call counts and the ``cache_info()`` of the public caches.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import pstats
import random
import sys
import time
import traceback

MODULES = (
    "rootdata", "diagrams", "center", "projection", "numerology",
    "derived", "moduli", "tables", "linalg", "cli",
)

# (module, function) of every public lru_cache the traced run reports.
CACHES = (
    ("rootdata", "datum"),
    ("rootdata", "alcove"),
    ("rootdata", "center_element_sum"),
    ("rootdata", "coroot_coord_matrix"),
    ("diagrams", "diagram_of"),
    ("center", "nu"),
    ("center", "center_group"),
    ("center", "perm_matrix_on_coroots_of"),
    ("projection", "all_roots_of"),
)

# Per-subgroup sweep stages that each rank-cliff command exercises.
QUERY_STAGES = {
    "components": ("components", "clock"),
    "project": ("quotient", "diagram1"),
    "derived": ("derived", "samediags"),
}

CHECK_FAMILIES = (
    "nu-oracle", "diagram1", "samediags", "assumption",
    "numerology", "clock", "components",
)


def shuffle_catalog(seed: int) -> None:
    """Make every ``catalog_types`` visible in the package seed-ordered."""
    import coroots.cli  # noqa: F401 - imports every module that may hold the name
    from coroots import moduli

    original = moduli.catalog_types

    def shuffled(max_rank: int = 12):
        types = original(max_rank)
        random.Random(f"{seed}:{max_rank}").shuffle(types)
        return types

    for name, mod in list(sys.modules.items()):
        if name.startswith("coroots") and getattr(mod, "catalog_types", None) is original:
            mod.catalog_types = shuffled


def cache_counts() -> dict:
    import importlib

    out = {}
    for mod_name, fn_name in CACHES:
        mod = importlib.import_module(f"coroots.{mod_name}")
        fn = getattr(mod, fn_name, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{mod_name}.{fn_name}"] = {
            "hits": info.hits if info else 0,
            "misses": info.misses if info else 0,
        }
    return out


def profile_summary(prof: cProfile.Profile) -> dict:
    """Self time and call count per package module, plus ``fractions``."""
    stats = pstats.Stats(prof).stats
    out = {m: {"self_s": 0.0, "calls": 0} for m in MODULES + ("fractions",)}
    total = 0.0
    for (filename, _line, _fn), (_cc, nc, tt, _ct, _callers) in stats.items():
        total += tt
        path = filename.replace("\\", "/")
        stem = os.path.splitext(os.path.basename(path))[0]
        if "/coroots/" in path and stem in out:
            key = stem
        elif stem == "fractions" and "/coroots/" not in path:
            key = "fractions"
        else:
            continue
        out[key]["self_s"] += tt
        out[key]["calls"] += nc
    return {"modules": out, "total_self_s": total}


# ---------------------------------------------------------------------------
# Operations


def op_check_all(args) -> dict:
    from coroots.cli import run_check_all

    lines: list[str] = []
    ok = run_check_all(args.rank, lines.append)
    return {"ok": ok, "lines": lines}


def op_paper_tables(args) -> dict:
    from coroots.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(["paper-tables", "--out", args.out, "--max-rank", str(args.rank)])
    return {"ok": rc == 0, "exit": rc, "lines": out.getvalue().splitlines()}


def op_query(args) -> dict:
    from coroots.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(args.argv)
    return {"ok": rc == 0, "exit": rc, "stdout": out.getvalue()}


def op_sweep(args) -> dict:
    """Call each layer's public entry points in dependency order.

    Each stage runs over every case before the next stage starts, so a
    stage pays only for the work its predecessors did not already cache.
    A case is a type with the center subgroups to visit (all of them, or
    the one a query names), the orders k to visit and, for a query, the
    per-subgroup stages its command uses (``QUERY_STAGES``).
    """
    from coroots import rootdata
    from coroots.center import all_subgroups, center_group, orbit_data, parse_center
    from coroots.derived import check_samediags, derived, quotient_marked
    from coroots.diagrams import automorphism_group, classify, diagram_of, quotient
    from coroots.moduli import catalog_types, clock_report, components_for
    from coroots.numerology import check_assumption, clocked, counts, marked
    from coroots.projection import all_roots_of, check_diagram1, restricted_type
    from coroots.rootdata import SimpleType, parse_type
    from coroots.tables import all_tables

    if args.cases:
        cases = [
            (parse_type(c["group"]), c["center"], [c["k"]] if "k" in c else [],
             QUERY_STAGES[c["command"]])
            for c in json.loads(args.cases)
        ]
        extra = []
    else:
        cases = [(st, None, None, None) for st in catalog_types(args.rank)]
        extra = [SimpleType("BC", n) for n in range(1, args.rank + 1)]
    groups = [case[0] for case in cases]

    checks = {name: 0 for name in CHECK_FAMILIES}
    failures: list[str] = []

    def check(family: str, ok: bool, ctx: str) -> None:
        checks[family] += 1
        if not ok:
            failures.append(f"{family}: {ctx}")

    subs: dict = {}
    marks: dict = {}

    def pairs(stage=None):
        for i, (st, _spec, _ks, stages) in enumerate(cases):
            if stage is None or stages is None or stage in stages:
                for sub_ in subs[i]:
                    yield i, st, sub_

    def orders(i, sub_):
        ks = cases[i][2]
        return marks[i, sub_.nodes].admissible_orders() if ks is None else ks

    def s_datum():
        for st in groups:
            rootdata.datum(st)
            rootdata.alcove(st)
            rootdata.coroot_coord_matrix(st)

    def s_diagram():
        for st in groups + extra:
            d = diagram_of(st)
            automorphism_group(d)
            classify(d)

    def s_group_law():
        for st in groups:
            nodes = rootdata.center_vertex_nodes(st)
            for a in nodes:
                rootdata.center_element_inverse(st, a)
                for b in nodes:
                    rootdata.center_element_sum(st, a, b)

    def s_oracle():
        for i, (st, spec, _ks, _stages) in enumerate(cases):
            check("nu-oracle", center_group(st) is not None, str(st))
            subs[i] = [parse_center(st, spec)] if spec else all_subgroups(st)

    def s_quotient():
        for _i, st, sub_ in pairs("quotient"):
            if not sub_.is_trivial:
                classify(quotient(diagram_of(st), sub_.perms()))

    def s_roots():
        for st in groups:
            all_roots_of(st)

    def s_restricted():
        for _i, st, sub_ in pairs("restricted"):
            if not sub_.is_trivial and not orbit_data(st, sub_).degenerate:
                restricted_type(st, sub_)

    def s_diagram1():
        for _i, st, sub_ in pairs("diagram1"):
            check("diagram1", check_diagram1(st, sub_).equal, f"{st}/{sub_.describe()}")

    def s_marked():
        for st in groups + extra:
            m0 = marked(diagram_of(st))
            check("numerology", counts(m0) is not None, str(st))
            check("clock", clocked(m0) is not None, str(st))
            for k in m0.admissible_orders():
                if k > 1:
                    check("assumption", check_assumption(m0, k) is not None, f"{st} k={k}")
        for i, st, sub_ in pairs():
            mq = marks[i, sub_.nodes] = quotient_marked(st, sub_)
            if not sub_.is_trivial:
                ctx = f"{st}/{sub_.describe()}"
                check("numerology", counts(mq) is not None, ctx)
                check("clock", clocked(mq) is not None, ctx)
                for k in mq.admissible_orders():
                    if k > 1:
                        ok = check_assumption(mq, k) is not None
                        check("assumption", ok, f"{ctx} k={k}")

    def s_derived():
        for i, _st, sub_ in pairs("derived"):
            for k in orders(i, sub_):
                derived(marks[i, sub_.nodes], k)

    def s_samediags():
        for i, st, sub_ in pairs("samediags"):
            for k in orders(i, sub_):
                ok = check_samediags(st, sub_, k).equal
                check("samediags", ok, f"{st}/{sub_.describe()} k={k}")

    def s_components():
        for _i, st, sub_ in pairs("components"):
            components_for(st, sub_)

    def s_clock():
        for _i, st, sub_ in pairs("clock"):
            check("components", clock_report(st, sub_).valid, f"{st}/{sub_.describe()}")

    def s_render():
        all_tables(args.table_rank)

    stages = [
        ("rootdata.datum_s", s_datum),
        ("diagrams.diagram_s", s_diagram),
        ("rootdata.group_law_s", s_group_law),
        ("center.oracle_s", s_oracle),
        ("diagrams.quotient_s", s_quotient),
        ("projection.roots_s", s_roots),
        ("projection.restricted_s", s_restricted),
        ("projection.diagram1_s", s_diagram1),
        ("numerology.marked_s", s_marked),
        ("derived.derived_s", s_derived),
        ("derived.samediags_s", s_samediags),
        ("moduli.components_s", s_components),
        ("moduli.clock_s", s_clock),
        ("tables.render_s", s_render),
    ]
    origin = time.perf_counter()
    spans = []
    for name, body in stages:
        t0 = time.perf_counter()
        body()
        t1 = time.perf_counter()
        spans.append({"name": name, "parent": "sweep", "start": t0 - origin, "end": t1 - origin})
    return {"ok": not failures, "failures": failures, "checks": checks, "spans": spans}


OPS = {
    "check-all": op_check_all,
    "paper-tables": op_paper_tables,
    "query": op_query,
    "sweep": op_sweep,
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("op", choices=sorted(OPS))
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--table-rank", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--cases", default=None, help="sweep cases as a JSON list")
    p.add_argument("--profile", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = p.parse_args(argv[:split])
    args.argv = argv[split + 1:]  # CLI arguments for 'query'

    shuffle_catalog(args.seed)
    prof = cProfile.Profile() if args.profile else None
    try:
        if prof:
            prof.enable()
        try:
            result = OPS[args.op](args)
        finally:
            if prof:
                prof.disable()
    except Exception as exc:  # noqa: BLE001 - reported to the parent as a failed op
        result = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=4),
        }
    if prof:
        result["profile"] = profile_summary(prof)
        result["caches"] = cache_counts()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

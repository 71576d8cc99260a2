"""Command-line front end.

Subcommands: datum, quotient, project, derived, components, clock,
rank-zero, paper-tables, check-all.  Everything is exact and
deterministic; two runs of the same command produce identical bytes.
Exit codes: 0 success, 1 rejected computation or failed internal
invariant, 2 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import rootdata
from .diagrams import DiagramError, classify, diagram_of, label, render_diagram
from .rootdata import dual_coxeter, parse_type

SCHEMA_DIAGRAM = "coroots/diagram/v1"
SCHEMA_COMPONENTS = "coroots/components/v1"


class UsageError(Exception):
    """Bad query syntax (unknown group or center spec): exit code 2."""


def _parse_type(text: str):
    try:
        return parse_type(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_group(text: str):
    """A group spec for the commands that need a group: BC_n is rejected."""
    st = _parse_type(text)
    if st.family == "BC":
        raise UsageError(
            f"{st} is not a group: BC_n is a non-reduced root system "
            "(use datum or check-all)"
        )
    return st


def _parse_center(st, text: str):
    from .center import parse_center

    try:
        return parse_center(st, text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _positive_int(text: str) -> int:
    """argparse type for --k and --max-rank: a bad value exits 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _diagram_payload(d, extra=None) -> dict:
    out = {"schema": SCHEMA_DIAGRAM, **d.to_json()}
    if extra:
        out.update(extra)
    return out


def cmd_datum(args) -> int:
    st = _parse_type(args.group)
    dia = diagram_of(st)
    h = rootdata.root_integers(st)
    order = rootdata.fundamental_group_order(st)
    payload = _diagram_payload(
        dia,
        {
            "group": label(st),
            "dual_coxeter": dual_coxeter(st),
            "root_integers": list(h),
            "center_order": order,
        },
    )
    text = "\n".join(
        [
            f"extended coroot diagram of {label(st)}",
            render_diagram(dia),
            f"coroot integers: {list(dia.marks)}",
            f"root integers:   {list(h)}",
            f"dual Coxeter number: {dual_coxeter(st)}",
            f"center order: {order}",
        ]
    )
    _emit(args, payload, text)
    return 0


def cmd_quotient(args) -> int:
    from .center import quotient_diagram

    st = _parse_type(args.group)
    sub_ = _parse_center(st, args.center)
    q = quotient_diagram(st, sub_)
    res = classify(q)
    payload = _diagram_payload(
        q,
        {
            "group": label(st),
            "center": args.center,
            "classified": label(res.type),
            "scale": res.scale,
        },
    )
    text = "\n".join(
        [
            f"{label(st)} / {args.center}: type {label(res.type)}"
            f" (marks = {res.scale} x catalog)",
            render_diagram(q),
        ]
    )
    _emit(args, payload, text)
    return 0


def cmd_project(args) -> int:
    from .coords import check_diagram1, project

    st = _parse_type(args.group)
    sub_ = _parse_center(st, args.center)
    ps = project(st, sub_)
    rep = check_diagram1(st, sub_)
    payload = _diagram_payload(
        ps.diagram,
        {
            "group": label(st),
            "center": args.center,
            "classified": label(ps.classified.type),
            "fixed_rank": ps.rank,
            "quotient_match": rep.equal,
        },
    )
    text = "\n".join(
        [
            f"projected coroots of {label(st)} / {args.center}:"
            f" type {label(ps.classified.type)}, fixed rank {ps.rank}",
            render_diagram(ps.diagram),
            f"matches quotient diagram: {rep.equal}",
        ]
    )
    _emit(args, payload, text)
    return 0


def cmd_derived(args) -> int:
    from .derived import check_samediags, derived
    from .numerology import quotient_marked

    st = _parse_type(args.group)
    sub_ = _parse_center(st, args.center)
    m = quotient_marked(st, sub_)
    dd = derived(m, args.k)
    rep = check_samediags(st, sub_, args.k)
    payload = _diagram_payload(
        dd.diagram,
        {
            "group": label(st),
            "center": args.center,
            "k": args.k,
            "classified": label(dd.classified.type),
            "survivors": list(dd.survivors),
            "surviving_marks": list(dd.surviving_values),
            "node_types": {str(v): dd.node_types[v] for v in dd.survivors},
            "coordinate_match": rep.equal,
        },
    )
    text = "\n".join(
        [
            f"derived diagram of {label(st)} / {args.center} at k={args.k}:"
            f" type {label(dd.classified.type)}",
            render_diagram(dd.diagram),
            f"surviving marks: {list(dd.surviving_values)}",
            f"matches coordinate diagram: {rep.equal}",
        ]
    )
    _emit(args, payload, text)
    return 0


def cmd_components(args) -> int:
    from .moduli import SHAPE_DISPLAY, components_for, record_to_json

    st = _parse_group(args.group)
    sub_ = _parse_center(st, args.center)
    recs = components_for(st, sub_)
    g = dual_coxeter(st)
    payload = {
        "schema": SCHEMA_COMPONENTS,
        "group": label(st),
        "center": args.center,
        "dual_coxeter": g,
        "components": [record_to_json(r) for r in recs],
    }
    lines = [f"components of the order-k triple moduli for {label(st)} / {args.center}"]
    lines.append("order label  d_X  dim  cs     shape")
    for r in recs:
        lines.append(
            f"{r.order:>5} {r.label:>5} {r.d_X:>4} {r.dim:>4}  {str(r.cs):<6} "
            + SHAPE_DISPLAY[r.shape]
        )
    lines.append(f"sum d_X = {sum(r.d_X for r in recs)} = g")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_clock(args) -> int:
    from .moduli import clock_report

    st = _parse_group(args.group)
    sub_ = _parse_center(st, args.center)
    cr = clock_report(st, sub_)
    payload = {
        "schema": "coroots/clock/v1",
        "group": label(st),
        "center": args.center,
        "g": cr.g,
        "parity": cr.parity,
        "valid": cr.valid,
        "windows": {
            f"{k}/{r}": list(w) for (k, r), w in sorted(cr.windows.items())
        },
    }
    lines = [
        f"invariant windows for {label(st)} / {args.center}:"
        f" g = {cr.g}, parity class {cr.parity}, valid = {cr.valid}"
    ]
    for (k, r), w in sorted(cr.windows.items()):
        lines.append(f"  order {k}, invariant {r}/{k}: {sorted(w)} (mod {2 * cr.g})")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_rank_zero(args) -> int:
    from .moduli import rank_zero_list

    rows = rank_zero_list(args.k, args.central, args.max_rank)
    payload = {
        "schema": "coroots/rank-zero/v1",
        "k": args.k,
        "central": args.central,
        "entries": [{"group": label(t), "center": c} for t, c in rows],
    }
    lines = [f"groups with a rank-zero triple of order {args.k}"
             + (" (central case)" if args.central else "")]
    for t, c in rows:
        lines.append(f"  {label(t)}  center {c}")
    if not rows:
        lines.append("  (none)")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_paper_tables(args) -> int:
    from .tables import all_tables

    outdir = args.out or os.environ.get("COROOTS_TABLE_DIR", "golden")
    os.makedirs(outdir, exist_ok=True)
    for doc in all_tables(args.max_rank):
        path = os.path.join(outdir, doc.name + ".txt")
        with open(path, "w") as fh:
            fh.write(doc.text())
        print(f"wrote {path}")
    return 0


def cmd_check_all(args) -> int:
    ok = run_check_all(args.max_rank, print)
    return 0 if ok else 1


def run_check_all(max_rank: int, emit) -> bool:
    from .checks import run_check_all
    return run_check_all(max_rank, emit)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coroots",
        description="Exact moduli data for almost-commuting triples in "
        "compact simple Lie groups",
    )
    sp = p.add_subparsers(dest="command", required=True)

    def common(q, center=True, fmt=True):
        q.add_argument("--group", required=True, help="e.g. E8, A5, Spin(12), SU(7), BC3")
        if center:
            q.add_argument(
                "--center",
                default="trivial",
                help="trivial, full, c, c_SO, c_exotic, or node:<id>",
            )
        if fmt:
            q.add_argument("--format", choices=("text", "json"), default="text")

    q = sp.add_parser("datum", help="extended coroot diagram and integers")
    common(q, center=False)
    q.set_defaults(fn=cmd_datum)

    q = sp.add_parser("quotient", help="quotient diagram by a center subgroup")
    common(q)
    q.set_defaults(fn=cmd_quotient)

    q = sp.add_parser("project", help="projected-coroot diagram on the fixed subspace")
    common(q)
    q.set_defaults(fn=cmd_project)

    q = sp.add_parser("derived", help="derived diagram at an order k")
    common(q)
    q.add_argument("--k", type=_positive_int, required=True)
    q.set_defaults(fn=cmd_derived)

    q = sp.add_parser("components", help="moduli components for a center subgroup")
    common(q)
    q.set_defaults(fn=cmd_components)

    q = sp.add_parser("clock", help="rotation-invariant window partition")
    common(q)
    q.set_defaults(fn=cmd_clock)

    q = sp.add_parser("rank-zero", help="groups with rank-zero triples of order k")
    q.add_argument("--k", type=_positive_int, required=True)
    q.add_argument("--central", action="store_true")
    q.add_argument("--max-rank", type=_positive_int, default=12)
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(fn=cmd_rank_zero)

    q = sp.add_parser("paper-tables", help="regenerate the reference tables")
    q.add_argument("--out", default=None, help="output directory (or $COROOTS_TABLE_DIR)")
    q.add_argument("--max-rank", type=_positive_int, default=12)
    q.set_defaults(fn=cmd_paper_tables)

    q = sp.add_parser("check-all", help="run every cross-check over the catalog")
    q.add_argument("--max-rank", type=_positive_int, default=12)
    q.set_defaults(fn=cmd_check_all)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (ValueError, DiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

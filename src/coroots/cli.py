"""Command-line front end.

Subcommands: datum, quotient, project, derived, components, clock,
rank-zero, paper-tables, check-all.  Everything is exact and
deterministic; two runs of the same command produce identical bytes.
Each command is one row of ``_COMMANDS``; ``main`` resolves its group
and center subgroup once and hands them to the command's handler.
Exit codes: 0 success, 1 rejected computation, failed internal
invariant or closed stdout, 2 usage errors, 141 when the reader closes
stdout early.  ``run`` is the program entry; ``main`` is what it and any
in-process caller run.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from . import rootdata
from .diagrams import classify, diagram_of, dual_coxeter, label, render_diagram
from .rootdata import parse_type

SCHEMA_DIAGRAM = "coroots/diagram/v1"
SCHEMA_COMPONENTS = "coroots/components/v1"


class UsageError(Exception):
    """Bad query (an unknown group or center spec, or a center named for
    BC_n): exit code 2."""


def _resolve(args):
    """The query's group and center subgroup, None where its command takes
    no --group or no --center.  A command that takes --center takes a
    group, so BC_n is refused there before the center layer loads; A0 is
    refused once its center spec has been read.  A --max-rank above
    rootdata.MAX_RANK is refused too."""
    if getattr(args, "max_rank", 0) > rootdata.MAX_RANK:
        raise UsageError(
            f"--max-rank {args.max_rank} is above the largest supported rank {rootdata.MAX_RANK}"
        )
    if not hasattr(args, "group"):
        return None, None
    try:
        st = parse_type(args.group)
        if not hasattr(args, "center"):
            return st, None
        if st.family == "BC":
            raise ValueError(
                f"{st} is not a group: BC_n is a non-reduced root system "
                "(use datum or check-all)"
            )
        from .center import parse_center

        sub_ = parse_center(st, args.center)
        if st == rootdata.TRIVIAL:
            raise ValueError("the trivial type A0 has no root datum")
        return st, sub_
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


def _diagram_payload(d, extra: dict) -> dict:
    return {"schema": SCHEMA_DIAGRAM, **d.to_json(), **extra}


def cmd_datum(args, st, sub_) -> int:
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


def cmd_quotient(args, st, sub_) -> int:
    from .center import quotient_diagram

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


def cmd_project(args, st, sub_) -> int:
    from .coords import check_diagram1, project

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


def cmd_derived(args, st, sub_) -> int:
    from .derived import check_samediags, derived
    from .numerology import quotient_marked

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


def cmd_components(args, st, sub_) -> int:
    from .moduli import SHAPE_DISPLAY, components_for, record_to_json

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


def cmd_clock(args, st, sub_) -> int:
    from .moduli import clock_report

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


def cmd_rank_zero(args, st, sub_) -> int:
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


def cmd_paper_tables(args, st, sub_) -> int:
    from .tables import all_tables

    outdir = args.out or os.environ.get("COROOTS_TABLE_DIR", "golden")
    os.makedirs(outdir, exist_ok=True)
    for doc in all_tables(args.max_rank):
        path = os.path.join(outdir, doc.name + ".txt")
        with open(path, "w") as fh:
            fh.write(doc.text())
        print(f"wrote {path}")
    return 0


def cmd_check_all(args, st, sub_) -> int:
    return 0 if run_check_all(args.max_rank, print) else 1


def run_check_all(max_rank: int, emit) -> bool:
    from .checks import run_check_all
    return run_check_all(max_rank, emit)


_OPTIONS = {
    "group": {"required": True, "help": "e.g. E8, A5, Spin(12), SU(7), BC3"},
    "center": {"default": "trivial", "help": "trivial, full, c, c_SO, c_exotic, or node:<id>"},
    "format": {"choices": ("text", "json"), "default": "text"},
    "k": {"type": _positive_int, "required": True},
    "central": {"action": "store_true"},
    "max-rank": {"type": _positive_int, "default": 12},
    "out": {"help": "output directory (or $COROOTS_TABLE_DIR)"},
}

_COMMANDS = (
    ("datum", cmd_datum, "extended coroot diagram and integers", "group format"),
    ("quotient", cmd_quotient, "quotient diagram by a center subgroup", "group center format"),
    ("project", cmd_project, "projected-coroot diagram on the fixed subspace",
     "group center format"),
    ("derived", cmd_derived, "derived diagram at an order k", "group center format k"),
    ("components", cmd_components, "moduli components for a center subgroup",
     "group center format"),
    ("clock", cmd_clock, "rotation-invariant window partition", "group center format"),
    ("rank-zero", cmd_rank_zero, "groups with rank-zero triples of order k",
     "k central max-rank format"),
    ("paper-tables", cmd_paper_tables, "regenerate the reference tables", "out max-rank"),
    ("check-all", cmd_check_all, "run every cross-check over the catalog", "max-rank"),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coroots",
        description="Exact moduli data for almost-commuting triples in "
        "compact simple Lie groups",
    )
    sp = p.add_subparsers(dest="command", required=True)
    for name, fn, help_, options in _COMMANDS:
        q = sp.add_parser(name, help=help_)
        for opt in options.split():
            q.add_argument("--" + opt, **_OPTIONS[opt])
        q.set_defaults(fn=fn, parser=q)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if sys.stdout is None:  # fd 1 closed at start: output that goes nowhere is no pass
        print("error: stdout is closed", file=sys.stderr)
        return 1
    try:
        code = args.fn(args, *_resolve(args))
        print(end="", flush=True)  # a reader gone after the last write fails here
        return code
    except BrokenPipeError:  # quiet, as SIGPIPE would be; the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        args.parser.print_usage(sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # DiagramError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The program: main, then exit without collecting the heap.

    main has flushed stdout by now.  Freezing moves every object out of
    the collector's reach, so the exit's module teardown runs no final
    cyclic collection over the caches; the OS reclaims the memory.  main
    itself leaves the collector alone for in-process callers.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

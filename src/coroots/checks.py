"""Every cross-check over the catalog: ``coroots check-all``."""

from __future__ import annotations

from .center import all_subgroups
from .coords import DiagramReport, check_diagram1
from .derived import check_samediags
from .diagrams import diagram_of, label
from .moduli import catalog_types, clock_report
from .numerology import check_assumption, clocked, counts, marked, quotient_marked
from .rootdata import SimpleType


def run_check_all(max_rank: int, emit) -> bool:
    """Every cross-check over the catalog; prints one line per family."""
    checks = {
        "nu-oracle": 0,
        "diagram1": 0,
        "samediags": 0,
        "assumption": 0,
        "numerology": 0,
        "clock": 0,
        "components": 0,
    }
    failures: list[str] = []

    def guarded(name, fn, ctx):
        """fn(), or None once its exception is recorded as a failure."""
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            failures.append(f"{name}: {ctx}: {type(exc).__name__}: {exc}")
            return None

    def attempt(name, fn, ctx):
        """Run one check; fn returns a DiagramReport, a bool or the data later
        checks build on.  Returns that result if it passed, else None."""
        res = guarded(name, fn, ctx)
        if isinstance(res, DiagramReport) and not res.equal:
            failures.append(f"{name}: {ctx}: {res.detail}")
        elif res is False:
            failures.append(f"{name}: {ctx}")
        elif res is not None:
            checks[name] += 1
            return res
        return None

    def check_marked(m, ctx):
        attempt("numerology", lambda: counts(m) is not None, ctx)
        attempt("clock", lambda: clocked(m) is not None, ctx)
        for k in m.admissible_orders():
            if k > 1:
                attempt("assumption", lambda: check_assumption(m, k) is not None, f"{ctx} k={k}")

    # attempt calls fn at once, so the lambdas below read the loop variables
    # as they are; a type whose center or marking fails skips what builds on it
    bc_types = [SimpleType("BC", n) for n in range(1, max_rank + 1)]
    for st in catalog_types(max_rank) + bc_types:
        subs = []
        if st.family != "BC":
            # all_subgroups realizes the center through the nu oracle first
            subs = attempt("nu-oracle", lambda: all_subgroups(st), label(st)) or []
        m0 = guarded("marked", lambda: marked(diagram_of(st)), label(st))
        if m0 is not None:
            check_marked(m0, label(st))
        for sub_ in subs:
            ctx = f"{label(st)}/{sub_.describe()}"
            attempt("diagram1", lambda: check_diagram1(st, sub_), ctx)
            mq = guarded("quotient", lambda: quotient_marked(st, sub_), ctx)
            if mq is not None:
                if not sub_.is_trivial:
                    check_marked(mq, ctx)
                for k in mq.admissible_orders():
                    attempt("samediags", lambda: check_samediags(st, sub_, k), f"{ctx} k={k}")
            attempt("components", lambda: clock_report(st, sub_).valid, ctx)
    for name in sorted(checks):
        emit(f"{name}: {checks[name]} passed")
    if failures:
        for f in failures:
            emit(f"FAIL {f}")
        emit(f"{len(failures)} failures")
        return False
    emit("all checks passed")
    return True

"""Benchmark of the coroots calculator, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-check --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --smoke          # every workload, tiny sizes

Workloads (BENCHMARK.json says why each one is there):

    catalog-check  run_check_all over the catalog up to a rank bound
    paper-tables   the four reference tables up to a rank bound, rows
                   compared with golden/*.txt
    rank-cliff     single CLI queries above the catalog, each in a fresh
                   interpreter

Every operation runs in a fresh interpreter with PYTHONPATH=src, one at a
time, so the package's caches start cold as they do for a user.  Times are
wall seconds scaled to a fixed reference speed (see ``reference_s``).  With
``--trace 0`` the run repeats the workload for ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs the stage
sweep, one profiled and one plain repetition, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction

from worker import CACHES, CHECK_FAMILIES, MODULES  # noqa: F401 - names of the traced metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "coroots")
GOLDEN = os.path.join(ROOT, "golden")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench-tmp")
OUT = os.path.join(ROOT, ".perfbench-out")

DEADLINE_S = 170.0  # a run must end within 180 s

# check-all family counts per rank bound, recorded from a passing run.
EXPECTED_CHECKS = {
    3: {"assumption": 13, "clock": 17, "components": 14, "diagram1": 14,
        "nu-oracle": 7, "numerology": 17, "samediags": 24},
    6: {"assumption": 57, "clock": 56, "components": 50, "diagram1": 50,
        "nu-oracle": 21, "numerology": 56, "samediags": 101},
}

# rank-cliff queries: (command, equivalent group spellings, center, k).
# The seed picks a spelling and the order; the work does not depend on it.
QUERIES = (
    ("components", ("A13", "SU(14)"), "full", None),
    ("project", ("D13", "Spin(26)"), "full", None),
    ("components", ("C14", "Sp(28)"), "full", None),
    ("derived", ("D13", "Spin(26)"), "trivial", 2),
)
SMOKE_QUERIES = (
    ("components", ("A4", "SU(5)"), "full", None),
    ("project", ("D5", "Spin(10)"), "full", None),
    ("derived", ("D4", "Spin(8)"), "trivial", 2),
)

SIZES = {
    "full": {"catalog_rank": 6, "table_rank": 6, "queries": QUERIES,
             "probes": 5, "min_reps": 3},
    "smoke": {"catalog_rank": 3, "table_rank": 3, "queries": SMOKE_QUERIES,
              "probes": 2, "min_reps": 1},
}

WORKLOADS = ("catalog-check", "paper-tables", "rank-cliff")
TABLES = ("coroot-diagrams", "quotient-diagrams", "fixed-subspace", "torus-k")
BLOCK_TABLES = ("coroot-diagrams", "quotient-diagrams")  # records are blank-line blocks


# ---------------------------------------------------------------------------
# Child processes


# Time metrics are seconds at the speed at which reference_s() takes this long.
REFERENCE_S = 0.05


def reference_s() -> float:
    """Seconds this process takes for a fixed exact-arithmetic kernel.

    The speed of a shared host drifts over minutes: on a 2-vCPU VM the
    median time of identical ``check-all`` runs moved between 0.96 s and
    1.36 s from one 36 s window to the next.  The drift slows this process
    and its children alike when they share a CPU, so an operation's wall
    time divided by this kernel's time taken just before and just after it
    cancels most of it.  The kernel is Gauss-Jordan elimination over
    ``fractions.Fraction``, the arithmetic that dominates the package's
    profile, and uses none of the package's code, so no change to the
    package moves it.
    """
    n = 9
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + 13 * (i == j)
          for j in range(n)] for i in range(n)]
    t0 = time.perf_counter()
    for _ in range(22):
        a = [row[:] for row in m]
        for c in range(n):
            for r in range(n):
                if r != c and a[r][c]:
                    f = a[r][c] / a[c][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - t0


class Child:
    """One finished child process: wall time, peak RSS, exit code, output.

    ``ref_s`` is the mean of ``reference_s()`` just before and just after it.
    """

    def __init__(self, start, wall_s, ref_s, rss_mb, code, stdout, stderr):
        self.start = start
        self.wall_s = wall_s
        self.ref_s = ref_s
        self.rss_mb = rss_mb
        self.norm_s = wall_s * REFERENCE_S / ref_s  # wall time at the reference speed
        self.code = code
        self.stdout = stdout
        self.stderr = stderr

    def last_json(self):
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            return None


def child_env(extra=None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("COROOTS_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def run_child(argv, deadline, cwd=ROOT, env=None) -> Child:
    """Run ``argv`` to completion and measure it with ``wait4``.

    A watchdog thread kills the child at ``deadline``, so at most two
    threads exist and no child outlives the run.
    """
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        ref_before = reference_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env or child_env(), stdout=out, stderr=err)
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        with lock:
            reaped = True
            proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
        ref_s = (ref_before + reference_s()) / 2
        out.seek(0)
        err.seek(0)
        return Child(
            t0,
            wall,
            ref_s,
            usage.ru_maxrss / 1024.0,  # KiB on Linux
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def worker_argv(op, *args) -> list[str]:
    return [sys.executable, WORKER, op, *map(str, args)]


# ---------------------------------------------------------------------------
# Correctness gate


class Gate:
    """Counts attempted and failed operations; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(why)

    def same_as_first(self, firsts: dict, key, value, what: str) -> None:
        """Outputs of one operation must be byte-identical across repeats."""
        first = firsts.setdefault(key, value)
        self.record(1, int(value != first), f"{what}: output differs between repeats")


def child_error(child: Child) -> str:
    res = child.last_json() or {}
    tail = (child.stderr.strip().splitlines() or ["no output"])[-1]
    return res.get("error") or f"exit {child.code}: {tail}"


def gate_check_all(gate: Gate, child: Child, rank: int, firsts: dict) -> None:
    expected = EXPECTED_CHECKS[rank]
    total = sum(expected.values())
    res = child.last_json()
    if not res or "lines" not in res:
        gate.record(total, total, f"check-all crashed: {child_error(child)}")
        return
    passed = {}
    for line in res["lines"]:
        m = re.fullmatch(r"(\S+): (\d+) passed", line)
        if m:
            passed[m.group(1)] = int(m.group(2))
    missing = sum(max(0, n - passed.get(f, 0)) for f, n in expected.items())
    complete = res["lines"][-1:] == ["all checks passed"] and passed == expected
    failed = missing or int(not complete)
    gate.record(total, failed, f"check-all: {res['lines'][-3:]}")
    gate.same_as_first(firsts, "check-all", res["lines"], "check-all")


def _records(name: str, text: str) -> list[str]:
    if name in BLOCK_TABLES:
        return [b for b in text.split("\n\n") if b.strip()]
    return [line for line in text.split("\n") if line.strip()]


def _record_rank(record: str):
    m = re.match(r"(?:BC|[A-G])(\d+)\b", record)
    return int(m.group(1)) if m else None


def golden_records(rank: int) -> dict:
    """The golden records a run at this rank bound must reproduce."""
    out = {}
    for name in TABLES:
        with open(os.path.join(GOLDEN, name + ".txt")) as fh:
            records = _records(name, fh.read())
        out[name] = collections.Counter(
            r for r in records if (_record_rank(r) or 0) <= rank
        )
    return out


def golden_digest() -> str:
    h = hashlib.sha256()
    for name in TABLES:
        with open(os.path.join(GOLDEN, name + ".txt"), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def gate_tables(gate: Gate, child: Child, outdir: str, expected: dict, firsts: dict) -> None:
    total = sum(sum(c.values()) for c in expected.values())
    if child.code != 0:
        gate.record(total, total, f"paper-tables failed: {child_error(child)}")
        return
    texts = {}
    for name in TABLES:
        path = os.path.join(outdir, name + ".txt")
        if not os.path.exists(path):
            n = sum(expected[name].values())
            gate.record(n, n, f"paper-tables wrote no {name}.txt")
            continue
        with open(path) as fh:
            texts[name] = fh.read()
        got = collections.Counter(_records(name, texts[name]))
        missing = sum((expected[name] - got).values())
        extra = sum((got - expected[name]).values())
        gate.record(
            sum(expected[name].values()) + extra,
            missing + extra,
            f"{name}: {missing} golden rows missing, {extra} rows not in golden",
        )
    gate.same_as_first(firsts, "paper-tables", texts, "paper-tables")


def query_argv(query, spelling: str) -> list[str]:
    cmd, _names, center, k = query
    argv = [cmd, "--group", spelling, "--center", center]
    if k is not None:
        argv += ["--k", str(k)]
    return argv + ["--format", "json"]


def gate_query(gate: Gate, argv: list[str], code: int, stdout: str, firsts: dict) -> None:
    what = " ".join(argv)
    try:
        payload = json.loads(stdout) if code == 0 else None
    except json.JSONDecodeError:
        payload = None
    if payload is None:
        gate.record(1, 1, f"{what}: exit {code}, no JSON payload")
        return
    cmd = argv[0]
    if cmd == "components":
        d_x = [c.get("d_X", 0) for c in payload.get("components", [])]
        ok = bool(d_x) and sum(d_x) == payload.get("dual_coxeter")
    elif cmd == "project":
        ok = payload.get("quotient_match") is True
    elif cmd == "derived":
        ok = payload.get("coordinate_match") is True
    else:
        ok = True
    gate.record(1, int(not ok), f"{what}: invariant broken")
    gate.same_as_first(firsts, tuple(argv), stdout, what)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Seeded inputs of one workload and how to run and check one repetition."""

    def __init__(self, name: str, seed: int, size: dict):
        self.name = name
        self.seed = seed
        self.size = size
        self.rng = random.Random(f"{name}:{seed}")
        self.queries = [
            (q, self.rng.choice(q[1])) for q in size["queries"]
        ] if name == "rank-cliff" else []
        self.firsts: dict = {}
        self.expected_rows = golden_records(size["table_rank"]) if name == "paper-tables" else None

    def rep(self, gate: Gate, deadline: float, profile: bool = False):
        """One repetition: returns [(operation key, Child)]."""
        extra = ["--profile"] if profile else []
        if self.name == "catalog-check":
            rank = self.size["catalog_rank"]
            child = run_child(
                worker_argv("check-all", "--rank", rank, "--seed", self.seed, *extra), deadline
            )
            gate_check_all(gate, child, rank, self.firsts)
            done = [("check-all", child)]
        elif self.name == "paper-tables":
            done = [("paper-tables", self._tables_rep(gate, deadline, extra))]
        else:
            done = []
            order = list(self.queries)
            self.rng.shuffle(order)
            for query, spelling in order:
                argv = query_argv(query, spelling)
                if profile:
                    child = run_child(worker_argv("query", *extra, "--", *argv), deadline)
                    res = child.last_json() or {}
                    stdout = res.get("stdout", "")
                    code = res.get("exit", child.code)
                else:
                    child = run_child([sys.executable, "-m", "coroots.cli", *argv], deadline)
                    stdout, code = child.stdout, child.code
                gate_query(gate, argv, code, stdout, self.firsts)
                done.append((" ".join(argv), child))
        return done

    def _tables_rep(self, gate: Gate, deadline: float, extra) -> Child:
        rank = self.size["table_rank"]
        before = golden_digest()
        outdir = tempfile.mkdtemp(dir=WORK)
        try:
            child = run_child(
                worker_argv("paper-tables", "--rank", rank, "--seed", self.seed,
                            "--out", outdir, *extra),
                deadline,
                cwd=outdir,
                env=child_env({"COROOTS_TABLE_DIR": outdir}),
            )
            gate_tables(gate, child, outdir, self.expected_rows, self.firsts)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        gate.record(1, int(golden_digest() != before), "golden/*.txt changed")
        return child

    def sweep_argv(self) -> list[str]:
        if self.name == "rank-cliff":
            cases = [
                {"command": q[0], "group": spelling, "center": q[2],
                 **({"k": q[3]} if q[3] else {})}
                for q, spelling in self.queries
            ]
            return worker_argv("sweep", "--cases", json.dumps(cases),
                               "--table-rank", SIZES["smoke"]["table_rank"], "--seed", self.seed)
        rank = self.size["catalog_rank" if self.name == "catalog-check" else "table_rank"]
        return worker_argv("sweep", "--rank", rank, "--table-rank", rank, "--seed", self.seed)


def setup_probe(gate: Gate, deadline: float, firsts: dict) -> float:
    """Fresh interpreter until ``datum --group A1`` is answered."""
    argv = [sys.executable, "-m", "coroots.cli", "datum", "--group", "A1"]
    child = run_child(argv, deadline)
    ok = child.code == 0 and child.stdout.startswith("extended coroot diagram of A1")
    gate.record(1, int(not ok), f"setup probe: {child_error(child)}")
    gate.same_as_first(firsts, "setup", child.stdout, "datum --group A1")
    return child.norm_s


def measure(work: Workload, seconds: float, gate: Gate, deadline: float, record: dict) -> dict:
    """End-to-end metrics, tracing off.

    Times are ``Child.norm_s``, wall seconds at the reference speed; the
    record keeps the wall seconds too.  Set-up probes run before the
    repetitions and once after each repetition, so they sample the same
    machine state as the workload.
    """
    setup_probe(gate, deadline, work.firsts)  # warm the bytecode cache; not timed
    setup = [setup_probe(gate, deadline, work.firsts) for _ in range(work.size["probes"])]
    per_query = collections.defaultdict(list)
    rss = collections.defaultdict(list)
    walls, wall_seconds, refs = [], [], []
    t0 = time.monotonic()
    while True:
        done = work.rep(gate, deadline)
        walls.append(sum(c.norm_s for _, c in done))
        wall_seconds.append(sum(c.wall_s for _, c in done))
        for key, child in done:
            per_query[key].append(child.norm_s)
            rss[key].append(child.rss_mb)
            refs.append(child.ref_s)
        setup.append(setup_probe(gate, deadline, work.firsts))
        elapsed = time.monotonic() - t0
        enough = len(walls) >= work.size["min_reps"]
        if enough and elapsed + elapsed / len(walls) > seconds:
            break
        if time.monotonic() + 2 * elapsed / len(walls) > deadline:
            break
    record["samples"] = {"setup_s": setup, "wall_s": walls, "raw_wall_s": wall_seconds,
                         "reference_s": refs, "query_s": per_query, "rss_mb": rss}
    record["raw"] = {"reps": len(walls), "raw_wall_s": statistics.median(wall_seconds),
                     "reference_s": statistics.median(refs)}
    query_medians = [statistics.median(v) for v in per_query.values()]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "query_p50_s": statistics.median(query_medians),
        "query_max_s": max(query_medians),
        "peak_rss_mb": max(statistics.median(v) for v in rss.values()),
    }


def trace(work: Workload, gate: Gate, deadline: float, record: dict) -> dict:
    """Per-layer metrics: the stage sweep, one profiled and one plain repetition.

    Times are scaled to the reference speed like the end-to-end ones, each
    by the kernel time beside its child; the record's spans stay in wall
    seconds.
    """
    origin = time.perf_counter()
    sweep = run_child(work.sweep_argv(), deadline)
    res = sweep.last_json() or {}
    checks = res.get("checks", {})
    failures = res.get("failures", [])
    gate.record(sum(checks.values()), len(failures), f"sweep: {failures}")
    if not res.get("ok") and not failures:
        gate.record(1, 1, f"sweep crashed: {child_error(sweep)}")
    scale = REFERENCE_S / sweep.ref_s
    out = {s["name"]: (s["end"] - s["start"]) * scale for s in res.get("spans", [])}
    out.update({f"checks.{f}": checks.get(f, 0) for f in CHECK_FAMILIES})

    profiled = work.rep(gate, deadline, profile=True)
    plain = work.rep(gate, deadline)
    # stage spans are timed from the sweep's own start, after its imports
    spans = [{"name": "sweep", "parent": None, "start": sweep.start - origin,
              "end": sweep.start - origin + sweep.wall_s}]
    spans += [{**s, "start": s["start"] + spans[0]["start"], "end": s["end"] + spans[0]["start"]}
              for s in res.get("spans", [])]
    for parent, children in (("profiled", profiled), ("plain", plain)):
        spans += [{"name": key, "parent": parent, "start": c.start - origin,
                   "end": c.start - origin + c.wall_s} for key, c in children]
    traced_s = sum(c.norm_s for _, c in profiled)
    plain_s = sum(c.norm_s for _, c in plain)
    out["trace.overhead_s"] = traced_s - plain_s
    out["trace.overhead_share"] = (traced_s - plain_s) / plain_s

    modules = collections.defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    caches = collections.defaultdict(lambda: {"hits": 0, "misses": 0})
    total_self = 0.0
    for _, child in profiled:
        res = child.last_json() or {}
        prof = res.get("profile", {"modules": {}, "total_self_s": 0.0})
        scale = REFERENCE_S / child.ref_s
        total_self += prof["total_self_s"] * scale
        for mod, v in prof["modules"].items():
            modules[mod]["self_s"] += v["self_s"] * scale
            modules[mod]["calls"] += v["calls"]
        for fn, v in res.get("caches", {}).items():
            caches[fn]["hits"] += v["hits"]
            caches[fn]["misses"] += v["misses"]
    for mod in MODULES + ("fractions",):
        out[f"{mod}.self_s"] = modules[mod]["self_s"]
    out["linalg.calls"] = modules["linalg"]["calls"]
    out["fractions.calls"] = modules["fractions"]["calls"]
    out["fractions.share"] = modules["fractions"]["self_s"] / total_self if total_self else 0.0
    for mod, name in CACHES:
        fn = f"{mod}.{name}"
        v = caches[fn]
        n = v["hits"] + v["misses"]
        out[f"{fn}.hits"] = v["hits"]
        out[f"{fn}.misses"] = v["misses"]
        out[f"{fn}.hit_ratio"] = v["hits"] / n if n else 0.0
    out.update(src_lines())
    record["spans"] = spans
    record["profile_modules"] = dict(modules)
    record["caches"] = dict(caches)
    return out


# ---------------------------------------------------------------------------
# Provenance and output


def package_sources() -> dict:
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                out[name[:-3]] = fh.read()
    return out


def src_lines() -> dict:
    """Line count of each package module and of the whole package."""
    counts = {m: text.count(b"\n") for m, text in package_sources().items()}
    out = {f"src_lines.{m}": counts.get(m, 0) for m in MODULES}
    out["src_lines.total"] = sum(counts.values())
    return out


def provenance(workload: str, seed: int, seconds: float, trace_on: bool, smoke: bool) -> dict:
    h = hashlib.sha256()
    for name, text in package_sources().items():
        h.update(name.encode() + b"\0" + text)
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace_on),
        "smoke": smoke,
        **src_lines(),
    }


def declared_metrics(trace_on: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def run_workload(name, seed, seconds, trace_on, smoke, deadline) -> tuple[Gate, dict, dict]:
    gate = Gate()
    work = Workload(name, seed, SIZES["smoke" if smoke else "full"])
    record = {"provenance": provenance(name, seed, seconds, trace_on, smoke)}
    values = (trace(work, gate, deadline, record) if trace_on
              else measure(work, seconds, gate, deadline, record))
    units = declared_metrics(trace_on)
    if set(values) != set(units) and not gate.failed:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )
    # a failed operation may leave metrics unmeasured; the run is refused anyway
    metrics = {k: {"value": values.get(k, 0.0), "unit": units[k]} for k in units}
    record["metrics"] = metrics
    record["failures"] = gate.messages
    return gate, metrics, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="coroots benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")
    args = p.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0

    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")) or not os.path.isdir(GOLDEN):
        print(f"error: no coroots source tree under {ROOT}", file=sys.stderr)
        return 2
    start = time.monotonic()
    if hasattr(os, "sched_setaffinity"):
        # children inherit the CPU, so reference_s() times the CPU they run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total = Gate()
    metrics: dict = {}
    try:
        for i, name in enumerate(names):
            # in 'all' mode each workload gets an equal share of the time limit
            deadline = start + DEADLINE_S * (i + 1) / len(names)
            gate, wl_metrics, record = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke, deadline
            )
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
            print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
            for key, m in wl_metrics.items():
                print(f"{name:14} {key:42} {m['value']:>14.6g} {m['unit']}")
            for key, v in record.get("raw", {}).items():
                unit = "count" if key == "reps" else "s"
                print(f"{name:14} {key:42} {v:>14.6g} {unit} (not a metric)")
            ratio = gate.failed / gate.attempted if gate.attempted else 1.0
            print(f"{name:14} {'failed_ratio':42} {ratio:>14.6g} "
                  f"({gate.failed}/{gate.attempted} ops)")
            for msg in gate.messages:
                print(f"{name:14} FAIL {msg}")
            total.record(gate.attempted, gate.failed)
            if len(names) == 1:
                metrics = wl_metrics
            else:
                metrics.update({f"{name}.{k}": v for k, v in wl_metrics.items()})
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    correct = total.failed == 0 and total.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(total.attempted, 1),
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

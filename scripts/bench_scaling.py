#!/usr/bin/env python3
"""Cold wall time of the largest single queries, parent against change.

Each query runs RUNS times on each of two checkouts, the parent commit's
(given by its root directory) and this one, alternating between them run
by run and swapping which goes first, each run in a fresh interpreter with
PYTHONPATH=<checkout>/src so every cache starts cold.  Interleaving the two
trees keeps load drift on a shared host from reading as a difference.  The
median and quartiles of each query's raw wall seconds (not scaled to a
reference speed) are printed as the "scaling" block of a BENCH_<n>.json file:
{"runs": 7, "unit": "s", "bytecode_cached": bool, "parent": {query:
{"median": s, "q1_q3": [s, s], "src_lines_loaded": n}}, "change": {...}}.
"src_lines_loaded" counts the lines of the coroots source files the query
imported, read off sys.modules in one extra untimed run per query and tree:
what a cold query compiles when no bytecode is cached.  `datum --group A1` is
the cold-start floor: interpreter start and package import with next to no
computation.  "bytecode_cached" is false when the children may not write
bytecode (PYTHONDONTWRITEBYTECODE or -B, which they inherit), so each one
compiles the package afresh; runs with and without it do not compare.  A query that exits
nonzero aborts the run with exit code 1.

    python3 scripts/bench_scaling.py PARENT_ROOT
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 7

QUERIES = {
    "check-all --max-rank 24": ["check-all", "--max-rank", "24"],
    "components --group A40 --center full": ["components", "--group", "A40", "--center", "full"],
    "components --group A80 --center full": ["components", "--group", "A80", "--center", "full"],
    "derived --group D30 --center trivial --k 2": [
        "derived", "--group", "D30", "--center", "trivial", "--k", "2",
    ],
    "components --group C30 --center full": ["components", "--group", "C30", "--center", "full"],
    "datum --group A40": ["datum", "--group", "A40"],
    "datum --group A1": ["datum", "--group", "A1"],
}


def cold_wall(root: str, argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "coroots.cli", *argv],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{root}: {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


# Runs one query with its output discarded and prints the line count of the
# coroots modules it left in sys.modules.
LINES_PROBE = (
    "import contextlib, io, sys\n"
    "from coroots.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = main(sys.argv[1:])\n"
    "files = [m.__file__ for n, m in list(sys.modules.items())\n"
    "         if n == 'coroots' or n.startswith('coroots.')]\n"
    "print(rc, sum(sum(1 for _ in open(f)) for f in files))\n"
)


def src_lines_loaded(root: str, argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", LINES_PROBE, *argv],
        cwd=root, env=env, capture_output=True, text=True,
    )
    out = proc.stdout.split()
    if proc.returncode != 0 or out[:1] != ["0"]:
        sys.exit(f"{root}: {' '.join(argv)} failed the line probe: {proc.stderr.strip()}")
    return int(out[1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="root directory of a checkout of the parent commit")
    args = p.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    out: dict = {
        "unit": "s",
        "runs": RUNS,
        "bytecode_cached": not sys.dont_write_bytecode,
        "parent": {},
        "change": {},
    }
    for name, argv in QUERIES.items():
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for run in range(RUNS):
            order = ("parent", "change") if run % 2 == 0 else ("change", "parent")
            for label in order:
                times[label].append(cold_wall(trees[label], argv))
        for label in trees:
            q1, _, q3 = statistics.quantiles(times[label], n=4)
            out[label][name] = {
                "median": round(statistics.median(times[label]), 3),
                "q1_q3": [round(q1, 3), round(q3, 3)],
                "src_lines_loaded": src_lines_loaded(trees[label], argv),
            }
        print(f"{name}: {out['parent'][name]} -> {out['change'][name]}", file=sys.stderr)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

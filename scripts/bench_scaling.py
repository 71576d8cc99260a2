#!/usr/bin/env python3
"""Cold wall time of the largest single queries, by rank.

Each query runs RUNS times, one after another, each in a fresh
interpreter with PYTHONPATH=src, so every cache starts cold.  The median
raw wall seconds of each query (not scaled to a reference speed) are
printed as one JSON object {"runs": 3, "unit": "s", LABEL: {query: s}}.
A query that exits nonzero aborts the run with exit code 1.

    python3 scripts/bench_scaling.py LABEL

The "scaling" block of a BENCH_<n>.json file is the union of two such
objects: one printed with LABEL=parent by a copy of this script placed in
a checkout of the parent commit, one with LABEL=change in this checkout.
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
RUNS = 3

QUERIES = {
    "check-all --max-rank 24": ["check-all", "--max-rank", "24"],
    "components --group A40 --center full": ["components", "--group", "A40", "--center", "full"],
    "derived --group D30 --center trivial --k 2": [
        "derived", "--group", "D30", "--center", "trivial", "--k", "2",
    ],
    "components --group C30 --center full": ["components", "--group", "C30", "--center", "full"],
    "datum --group A40": ["datum", "--group", "A40"],
}


def cold_wall(argv: list[str]) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "coroots.cli", *argv],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("label", help="key of the results, e.g. parent or change")
    args = p.parse_args()
    out = {}
    for name, argv in QUERIES.items():
        times = [cold_wall(argv) for _ in range(RUNS)]
        out[name] = round(statistics.median(times), 3)
        print(f"{name}: {out[name]} s", file=sys.stderr)
    print(json.dumps({"unit": "s", "runs": RUNS, args.label: out}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

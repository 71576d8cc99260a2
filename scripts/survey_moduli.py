#!/usr/bin/env python3
"""Print the component survey: every (type, center subgroup) up to a rank
bound with orders, dimensions and invariants on one line each."""

import argparse
import sys

from coroots.center import all_subgroups
from coroots.cli import _positive_int
from coroots.diagrams import dual_coxeter, label
from coroots.moduli import catalog_types, components_for


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-rank", type=_positive_int, default=8)
    args = ap.parse_args()
    for st in catalog_types(args.max_rank):
        for sub in all_subgroups(st):
            recs = components_for(st, sub)
            cells = " ".join(f"{r.order}:{r.cs}(d={r.d_X})" for r in recs)
            print(f"{label(st):>4} / {sub.describe():<34} g={dual_coxeter(st):>2}  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

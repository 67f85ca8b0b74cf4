#!/usr/bin/env python3
"""Print (and optionally certify) the degree census over a range of degrees.

Example:
    python3 scripts/run_census.py --n-min 3 --n-max 10 --certify
"""

import argparse
import sys

from hesstop.census import certify_row, enumerate_rows
from hesstop.errors import HesstopError


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--certify", action="store_true")
    args = ap.parse_args()

    failed = 0
    print(f"{'n':>3} {'k':>3} {'m':>3} {'index':>7} {'bound':>6}")
    for n in range(args.n_min, args.n_max + 1):
        for row in enumerate_rows(n):
            line = f"{row.n:>3} {row.k:>3} {row.m:>3} {str(row.index):>7} {row.lower_bound:>6}"
            if args.certify:
                try:
                    bundle = certify_row(row)
                    line += f"   certified (index {bundle['index']})"
                except HesstopError as exc:
                    name = getattr(exc, "hypothesis", type(exc).__name__)
                    line += f"   FAILED: {name}"
                    failed += 1
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Enumerate admissible HN polygons and verify oper-polygon maximality.

For each (rank, genus) in the requested ranges, runs the exhaustive
enumerator, checks that every polygon is dominated by the oper polygon
in the Shatz order, and reports counts and timings.  Optionally
cross-checks the fast enumerator against the independent slow generator.
"""

import argparse
import sys
import time

from opercalc import enumerate_admissible_slow, verify_oper_maximality


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=7)
    parser.add_argument("--max-genus", type=int, default=3)
    parser.add_argument(
        "--cross-check", action="store_true",
        help="also run the slow oracle generator and compare; it dominates the "
        "run time: about 0.01 s at r=6 g=2, 0.15 s at r=6 g=3 and 1 s at r=7 "
        "g=3 (2-CPU host)",
    )
    args = parser.parse_args()

    all_ok = True
    for r in range(2, args.max_rank + 1):
        for g in range(2, args.max_genus + 1):
            start = time.monotonic()
            report = verify_oper_maximality(r, g)
            elapsed = time.monotonic() - start
            status = "ok" if report.passed else "FAILED"
            print(
                f"rank={r} genus={g}: {report.count} polygons, "
                f"dominance {status} ({elapsed:.2f}s)"
            )
            all_ok = all_ok and report.passed
            if args.cross_check:
                agree = enumerate_admissible_slow(r, g) == report.polygons
                print(f"  slow oracle: {'agrees' if agree else 'DISAGREES'}")
                all_ok = all_ok and agree
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

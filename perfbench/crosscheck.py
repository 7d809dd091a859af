#!/usr/bin/env python3
"""Compare the fast enumerator with the independent slow oracle.

    PYTHONPATH=src python3 perfbench/crosscheck.py RANK GENUS [RANK GENUS ...]

Prints one JSON line per (rank, genus) pair with the polygon count and whether
the two routes agree; exits 1 if any pair disagrees.
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

# Called through the package attributes, so that a traced run which wraps
# them sees these calls too.
import opercalc


def main(argv: Sequence[str]) -> int:
    if not argv or len(argv) % 2:
        print("usage: crosscheck.py RANK GENUS [RANK GENUS ...]", file=sys.stderr)
        return 2
    numbers = [int(a) for a in argv]
    ok = True
    for r, g in zip(numbers[::2], numbers[1::2]):
        slow = opercalc.enumerate_admissible_slow(r, g)
        fast = opercalc.enumerate_admissible(r, g)
        agree = slow == fast
        print(json.dumps({"rank": r, "genus": g, "count": len(fast), "agree": agree},
                         sort_keys=True))
        ok = ok and agree
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

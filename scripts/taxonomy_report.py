#!/usr/bin/env python3
"""Brute-force check of the rate sandwich r(T) <= vc(e2e) <= r(T) + r(1) for
a few representative growth rates, including one produced by the diagonal
construction.

Example:
    python scripts/taxonomy_report.py --Tmax 6
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arlab.classes import RateTable, diagonal_rate
from arlab.verify import taxonomy_sandwich


def check_rate(name: str, rate: RateTable, t_max: int) -> bool:
    cls, rows = taxonomy_sandwich(rate, t_max, s_max=t_max)
    print(f"-- {name} (|class| = {len(cls)})")
    ok = True
    for T, r_T, vc, lower_ok, upper_ok in rows:
        good = lower_ok and upper_ok
        ok &= good
        print(f"   T={T}: r={r_T} vc={vc} {'ok' if good else 'VIOLATION'}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Tmax", type=int, default=6)
    args = ap.parse_args()
    t = args.Tmax

    rates = {
        "constant": RateTable((1,) * t),
        "ceil(sqrt(T))": RateTable(tuple(math.isqrt(T - 1) + 1 for T in range(1, t + 1))),
        "linear": RateTable(tuple(range(1, t + 1))),
        "2*ceil(T/2)": RateTable(tuple(2 * ((T + 1) // 2) for T in range(1, t + 1))),
    }
    diag = diagonal_rate(lambda d, T: math.sqrt(T), d_max=1, search_cap=1000)
    rates["diagonal (vs sqrt table)"] = RateTable(diag.values[:t])

    ok = all(check_rate(name, r, t) for name, r in rates.items())
    print("all sandwiches hold" if ok else "sandwich violated")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

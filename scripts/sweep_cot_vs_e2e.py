#!/usr/bin/env python3
"""Empirical sample complexity of CoT-compression vs e2e ERM across T.

Reproduces the headline contrast at desk scale: on the interval-density class
F(N={1,3,4}) the e2e learner's sample complexity tracks the growing restricted
VC dimension, while the chain-of-thought compression learner stays within a
small constant band.

Example:
    python scripts/sweep_cot_vs_e2e.py --Ts 1,2,4,8 --R 100 --seed 0 \
        --csv sweep.csv --svg sweep.svg
"""

import argparse
import csv
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arlab.cli import write_svg_lines
from arlab.verify import cot_vs_e2e_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Ts", default="1,2,4,8")
    ap.add_argument("--R", type=int, default=100)
    ap.add_argument("--eps", default="0.1")
    ap.add_argument("--delta", default="0.1")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smax", type=int, default=12)
    ap.add_argument("--csv", default=None)
    ap.add_argument("--svg", default=None)
    args = ap.parse_args()

    Ts = [int(t) for t in args.Ts.split(",")]
    sweeps = cot_vs_e2e_sweep(
        Ts, args.R, args.seed, args.smax, Fraction(args.eps), Fraction(args.delta)
    )
    all_rows = []
    for learner, rows in sweeps.items():
        for r in rows:
            print(f"{learner:12s} T={r['T']:2d} m_hat={r['m_hat']:3d} "
                  f"failure_rate={float(r['failure_rate']):.2f}")
        all_rows += [(r["T"], r["mode"], learner, r["m_hat"],
                      float(r["failure_rate"])) for r in rows]

    cot = [r["m_hat"] for r in sweeps["cot_compress"]]
    print(f"cot spread: max/min = {max(cot)}/{min(cot)}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("T", "mode", "learner", "m_hat", "failure_rate"))
            w.writerows(all_rows)
    if args.svg:
        write_svg_lines(args.svg, {
            learner: [(r["T"], r["m_hat"]) for r in rows]
            for learner, rows in sweeps.items()
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())

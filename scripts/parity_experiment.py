#!/usr/bin/env python3
"""Monte-Carlo replay of the odd-T unlearnability of the parity-pathology
class: even with full chain-of-thought supervision, unseen question bits stay
coin flips, so error >= 1/4 with frequency around (or above) one half.

Example:
    python scripts/parity_experiment.py --n 4 --R 200 --seed 0
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arlab.classes import make_parity_class
from arlab.harness import PARITY_LEARNERS, parity_lower_bound_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4, help="training sample size")
    ap.add_argument("--R", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--T", type=int, default=3, help="odd generation length")
    ap.add_argument("--k-max", type=int, default=None)
    ap.add_argument("--learner", default="cot_compress", choices=PARITY_LEARNERS)
    args = ap.parse_args()

    k_max = args.k_max or max(2 * args.n, 2)
    cls = make_parity_class(k_max, H=64)
    stats = parity_lower_bound_experiment(
        cls, k_max=k_max, n=args.n, R=args.R, seed=args.seed,
        T=args.T, learner=args.learner, m=max(2 * args.n, 2),
    )
    print(f"trials: {stats.R}")
    print(f"freq(error >= 1/4): {float(stats.frequency_quarter):.3f}")
    print(f"bad-count symmetry: above {stats.above_half}, below {stats.below_half}")
    errs = Counter(float(t.error) for t in stats.trials)
    for e in sorted(errs):
        print(f"  error {e:.3f}: {errs[e]} trials")
    return 0 if stats.frequency_quarter >= 0.4 else 1


if __name__ == "__main__":
    sys.exit(main())

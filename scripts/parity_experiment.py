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
from arlab.cli import int_at_least
from arlab.errors import EnumerationTooLarge
from arlab.harness import PARITY_LEARNERS, parity_lower_bound_experiment
from arlab.verify import PARITY_PASS_FREQ


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int_at_least(0), default=4,
                    help="training sample size")
    ap.add_argument("--R", type=int_at_least(1), default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--T", type=int_at_least(1), default=3, help="odd generation length")
    ap.add_argument("--k-max", type=int_at_least(1), default=None)
    ap.add_argument("--learner", default="cot_compress", choices=PARITY_LEARNERS)
    args = ap.parse_args()

    m = max(2 * args.n, 2)
    k_max = args.k_max or m
    if args.T % 2 == 0:
        ap.error(f"--T must be odd, got {args.T}")
    if k_max < m:
        ap.error(f"--k-max must be >= max(2n, 2) = {m}, got {k_max}")
    try:  # the cap check runs before any generator is built
        cls = make_parity_class(k_max, H=64)
    except EnumerationTooLarge as e:
        ap.error(f"k_max = {k_max} (--k-max, default 2n): {e}")
    stats = parity_lower_bound_experiment(
        cls, k_max=k_max, n=args.n, R=args.R, seed=args.seed,
        T=args.T, learner=args.learner, m=m,
    )
    print(f"trials: {stats.R}")
    print(f"freq(error >= 1/4): {float(stats.frequency_quarter):.3f}")
    print(f"bad-count symmetry: above {stats.above_half}, below {stats.below_half}")
    errs = Counter(float(t.error) for t in stats.trials)
    for e in sorted(errs):
        print(f"  error {e:.3f}: {errs[e]} trials")
    return 0 if stats.frequency_quarter >= PARITY_PASS_FREQ else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics, as the acceptance check of
the benchmark computes it: one run per seed, then for each metric the
distance between the first and third quartile of its values as a share of
their median.

    python3 perfbench/spread.py --workload trees --seeds 1-10 --seconds 20

Prints one line per run and a table of median, spread and bound per metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} ops failed")
        row = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>8s}")
    for k, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:14s} {med:12.5g} {spread:8.4f} {bounds.get(k, float('nan')):8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

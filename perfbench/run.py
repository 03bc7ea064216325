"""arlab benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload dims --seed 1 --seconds 30 --trace 0

Runs passes of the workload until ``--seconds`` of timed phase have
accumulated (at least three passes). Each pass is ``worker.py`` in a fresh
interpreter: set-up, then every op of the workload once, closed loop, one
client, no extra threads. Every pass of a run builds the same inputs from
``--seed`` and starts from cold caches, so op i does the same work in every
pass.

Op latencies are corrected for the drift of the machine's speed. Every
20 ms the worker times a fixed pure-Python probe (``worker.Probes``); an
op's time, less the probes inside it, is scaled by PROBE_NOMINAL_S / (mean
of the probes around the op). That is its time on a machine that runs the
probe in exactly PROBE_NOMINAL_S. An op's latency is then the median of its
corrected times over the passes.

``--trace 0`` prints the end-to-end metrics:

- ``ops_per_s``: ops per pass over the sum of op latencies;
- ``op_p50_ms``, ``op_p90_ms``: percentiles of the op latencies;
- ``setup_s``: interpreter start to first op (imports, class construction,
  input generation), corrected like an op latency, median over the passes;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of the run's passes;
- ``ok_frac``: ops that returned the right answer, over ops attempted.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (the smallest value over them, uncorrected;
counts are the same in every pass), the cache counters, and the tracing
overhead. The line before the result is the run record: git sha, Python,
CPU, load average before and after, per-pass details.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dims", "trees", "pac")
MIN_PASSES = 3
# Latencies are reported at the speed at which one probe (worker.probe_work)
# takes this long, about the fastest it runs on a 2-vCPU Xeon VM.
PROBE_NOMINAL_S = 1e-4
RUN_LIMIT_S = 175  # a run must end within 180 s
RUN_BUDGET_S = 150  # start no pass that would end past this

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

LAYER_UNITS = {
    "core.eval.calls": "count",
    "core.eval.busy_s": "s",
    "classes.build.busy_s": "s",
    "classes.build.generators": "count",
    "dims.restrict.calls": "count",
    "dims.restrict.self_s": "s",
    "dims.restrict.patterns": "count",
    "dims.shatter.calls": "count",
    "dims.shatter.busy_s": "s",
    "dims.littlestone.busy_s": "s",
    "dims.atdim.busy_s": "s",
    "dims.leveled.busy_s": "s",
    "dims.oracle.busy_s": "s",
    "dims.sauer.self_s": "s",
    "learners.cot_compress.calls": "count",
    "learners.cot_compress.busy_s": "s",
    "learners.cot_compress.voters": "count",
    "learners.kernel_ratio": "ratio",
    "learners.kernel_ratio.base_m": "count",
    "learners.cot_reconstruct.busy_s": "s",
    "learners.erm.busy_s": "s",
    "learners.max_margin.busy_s": "s",
    "learners.margin_cache.hits": "count",
    "learners.margin_cache.misses": "count",
    "harness.run_trial.calls": "count",
    "harness.run_trial.self_s": "s",
    "harness.e2e_table.hits": "count",
    "harness.e2e_table.misses": "count",
    "harness.eval_cache.hits": "count",
    "harness.eval_cache.misses": "count",
    "verify.inputs.busy_s": "s",
    "trace.ops_per_s.untraced": "1/s",
    "trace.ops_per_s.traced": "1/s",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, trace: int, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass with seed {seed} exceeded {timeout:.0f} s") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode} (seed {seed})")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock on Linux, so the
    # worker's first-op stamp and the spawn stamp share a time base.
    raw = res.pop("first_op") - spawned
    if not 0 < raw < timeout:
        raise BenchError(f"implausible set-up time {raw}")
    res["setup_s_uncorrected"] = raw
    res["setup_s"] = corrected_setup(raw, res["probes"])
    res.update(seed=seed, trace=trace)
    return res


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def corrected_latencies(p: dict) -> list[float]:
    """One pass's op latencies scaled by PROBE_NOMINAL_S / (mean probe time
    around the op). Around an op of duration d are the probes that ended from
    2d + 50 ms before it starts to 2d + 50 ms after it ends."""
    ends = [t for t, _ in p["probes"]]
    durations = [d for _, d in p["probes"]]
    out = []
    for start, d in zip(p["starts"], p["latencies"]):
        margin = 2 * d + 0.05
        lo = bisect.bisect_left(ends, start - margin)
        hi = bisect.bisect_right(ends, start + d + margin)
        out.append(d * PROBE_NOMINAL_S / statistics.fmean(durations[lo:hi]))
    return out


def corrected_setup(raw: float, probes: list) -> float:
    """Set-up time less the probes run during it, scaled like an op that
    spans the set-up (probes end at negative times before the first op)."""
    inside = [d for t, d in probes if t < 0]
    near = inside or [d for _, d in probes[:5]]
    return (raw - sum(inside)) * PROBE_NOMINAL_S / statistics.fmean(near)


def op_latencies(passes: list[dict]) -> list[float]:
    """Per op, in seconds at the nominal speed: the median over the passes
    of its corrected latency."""
    corrected = [corrected_latencies(p) for p in passes]
    return [statistics.median(col) for col in zip(*corrected)]


def ops_per_s(passes: list[dict]) -> float:
    lat = op_latencies(passes)
    return len(lat) / sum(lat)


def end_to_end(passes: list[dict], attempted: int, failed: int) -> dict[str, float]:
    lat_ms = [x * 1e3 for x in op_latencies(passes)]
    return {
        "ops_per_s": ops_per_s(passes),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    out = {}
    for name in LAYER_UNITS:
        if name.startswith("trace."):
            continue
        out[name] = min({**p["layers"], **p["caches"]}[name] for p in traced)
    out["trace.ops_per_s.untraced"] = ops_per_s(plain)
    out["trace.ops_per_s.traced"] = ops_per_s(traced)
    out["trace.overhead"] = out["trace.ops_per_s.untraced"] / out["trace.ops_per_s.traced"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="arlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "arlab" / "__init__.py").is_file():
        print(f"error: no arlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    load_before = os.getloadavg()
    started = time.perf_counter()
    passes: list[dict] = []
    longest = 0.0
    try:
        while True:
            # one round: an untraced pass, then with --trace 1 a traced pass
            t0 = time.perf_counter()
            for trace in range(args.trace + 1):
                left = RUN_LIMIT_S - (time.perf_counter() - started)
                passes.append(run_pass(args.workload, args.seed, trace, left))
            longest = max(longest, time.perf_counter() - t0)
            timed = sum(p["timed_s"] for p in passes)
            if len(passes) >= MIN_PASSES and timed >= args.seconds:
                break
            if time.perf_counter() - started + longest > RUN_BUDGET_S:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    # every pass computes the same answers; a pass that disagrees with the
    # first one has all its ops counted as failed
    for p in passes[1:]:
        if p["answers_sha"] != passes[0]["answers_sha"]:
            print("error: answers of a pass differ from the first pass", file=sys.stderr)
            failed += len(p["latencies"]) - len(p["failed"])
    if len({len(p["latencies"]) for p in passes}) != 1:
        print("error: passes ran different numbers of ops", file=sys.stderr)
        return 1
    metrics = (
        per_layer(passes) if args.trace else end_to_end(passes, attempted, failed)
    )
    units = LAYER_UNITS if args.trace else END_TO_END
    samples = len(passes[0]["latencies"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "noisy": max(load_before[0], load_after[0]) > nproc,
        "op_samples": samples,
        "samples_beyond_p90": samples - int(0.9 * samples),
        "passes": [
            {
                key: p[key]
                for key in ("seed", "trace", "setup_s", "setup_s_uncorrected",
                            "timed_s", "answers_sha", "maxrss_kb", "caches")
            }
            | {
                "ops": len(p["latencies"]),
                "failed": p["failed"][:10],
                "ops_per_s_uncorrected": len(p["latencies"]) / sum(p["latencies"]),
                "probe_ms_min": min(d for _, d in p["probes"]) * 1e3,
                "probe_ms_median": statistics.median(d for _, d in p["probes"]) * 1e3,
            }
            for p in passes
        ],
    }
    if record["noisy"]:
        print(f"warning: load average exceeded {nproc} cores during the run",
              file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

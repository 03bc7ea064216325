"""One benchmark pass, in a fresh interpreter so that arlab's module-level
caches (``harness._e2e_table``, ``harness._eval_cache``,
``learners._margin_core``) start empty, as they do for a CLI user.

Sets up one workload, runs each of its ops once in a closed loop (the next op
starts when the previous one returns), then checks the answers and prints
one JSON line. ``run.py`` starts this; it is not meant to be run by hand.

    python3 perfbench/worker.py --workload dims --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CACHES = {
    "harness.e2e_table": ("harness", "_e2e_table"),
    "harness.eval_cache": ("harness", "_eval_cache"),
    "learners.margin_cache": ("learners", "_margin_core"),
}


def cache_counts() -> dict[str, int]:
    from arlab import harness, learners

    mods = {"harness": harness, "learners": learners}
    out = {}
    for name, (mod, attr) in CACHES.items():
        info = getattr(mods[mod], attr).cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    return out


clock = time.perf_counter
PROBE_EVERY_S = 0.02


def probe_work() -> None:
    """A fixed piece of pure-Python work (string keys, a dict, a sort),
    about 0.1 ms; its time tracks how fast the machine runs at the moment."""
    d = {}
    for i in range(400):
        d[str(i) * 2] = i
    sorted(d, key=d.get)


class Probes:
    """Times ``probe_work`` every PROBE_EVERY_S seconds of wall time, from a
    SIGALRM handler in the main thread, so the speed is sampled during long
    ops too. Starts no thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, duration)

    def _fire(self, _signum, _frame) -> None:
        t0 = clock()
        probe_work()
        t1 = clock()
        self.samples.append((t1, t1 - t0))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def time_in(self, start: float, end: float) -> float:
        """Probe time spent inside [start, end]; samples are in time order."""
        i = bisect.bisect_left(self.samples, (start,))
        total = 0.0
        while i < len(self.samples) and self.samples[i][0] <= end:
            total += self.samples[i][1]
            i += 1
        return total


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    answers = []
    spans = []  # (start, end) of each op
    # probes run through set-up as well, so that set-up time can be
    # corrected like the op latencies
    with Probes() as probes:
        tracer = None
        span = lambda _name: nullcontext()
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            span = tracer.span
        import workloads

        ops = workloads.build(args.workload, args.seed, span)

        first_op = clock()
        for k, op in enumerate(ops):
            if tracer:
                tracer.op = k
            t0 = clock()
            try:
                answer = op.run()
            except Exception as exc:  # a failing op is counted, the pass goes on
                answer = exc
                traceback.print_exc()
            spans.append((t0, clock()))
            answers.append(answer)
        timed_s = clock() - first_op
    if tracer:
        tracer.restore()

    failed = [
        op.name
        for op, answer in zip(ops, answers)
        if isinstance(answer, Exception) or not op.check(answer)
    ]
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()[:16]
    result = {
        "first_op": first_op,
        "timed_s": timed_s,
        # op start and latency without the probes that ran inside it, and the
        # probes as (end, duration), all times relative to the first op
        "starts": [t0 - first_op for t0, _ in spans],
        "latencies": [t1 - t0 - probes.time_in(t0, t1) for t0, t1 in spans],
        "probes": [(t - first_op, d) for t, d in probes.samples],
        "failed": failed,
        "answers_sha": digest,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "caches": cache_counts(),
        "layers": None,
    }
    if tracer:
        from tracer import summarize

        result["layers"] = summarize(tracer.finished(), tracer.leaves)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

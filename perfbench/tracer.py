"""Layer tracer for the benchmark, wrapped around arlab from the outside.

``Tracer.install()`` replaces the public functions of arlab's layers with
timing wrappers, in every arlab module that holds a reference to them (the
name each calling module imported, e.g. ``dims.e2e_output`` and
``harness.cot_trace``), and ``restore()`` puts the originals back. Nothing
under ``src/`` changes.

Two kinds of record:

- spans, at layer boundaries: (name, start, end, parent, op, leaf_s, info),
  kept in memory. ``parent`` is the index of the enclosing span; ``leaf_s``
  is the time spent in hot leaf calls made directly inside the span; ``info``
  is a count read off the call (patterns returned, generators built, ...).
- hot leaf calls (``core.eval``: generator evaluation, millions of calls on
  ``dims``): only a call count and busy time.

A span's self time is its duration minus the part of it that its child spans
and its leaf calls cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import NamedTuple

clock = time.perf_counter

# Hot leaf calls: counted and timed, never stored one by one. Wrapped only in
# the modules that import them, so core's own nested calls (e2e_output calling
# cot_trace) count once.
LEAVES = {
    "core.eval": ("core", ("cot_trace", "e2e_output", "realized_trace_tree")),
}


def _len(_args, result):
    return len(result)


def _compress_info(args, result):
    sample = args[1]
    return (len(result.side_info), len(result.kernel), len(sample))


# layer -> (home module, functions, info(args, result) or None)
SPANS = {
    "classes.build": (
        "classes",
        (
            "make_full_class",
            "make_shifted_subset_class",
            "make_product_class",
            "make_taxonomy_class",
            "make_parity_class",
            "make_atdim_example_class",
            "enumerate_linear_class",
        ),
        _len,
    ),
    "dims.restrict": ("dims", ("restrict_base", "restrict_e2e", "restrict_cot"), _len),
    "dims.shatter": (
        "dims",
        ("vc_dimension", "natarajan_dimension", "growth_function", "dual_vc_dimension"),
        None,
    ),
    "dims.littlestone": ("dims", ("littlestone_dimension",), None),
    "dims.atdim": ("dims", ("atdim_realized", "atdim_shattered"), None),
    "dims.leveled": ("dims", ("leveled_subtree_depth",), None),
    "dims.oracle": ("dims", ("leveled_subtree_depth_exhaustive",), None),
    "dims.sauer": ("dims", ("leaf_count_bound_check",), None),
    "learners.cot_compress": ("learners", ("cot_compress",), _compress_info),
    "learners.cot_reconstruct": ("learners", ("cot_reconstruct",), None),
    "learners.erm": ("learners", ("erm",), None),
    "learners.max_margin": ("learners", ("max_margin",), None),
    "harness.run_trial": ("harness", ("run_trial",), None),
}

MODULES = ("core", "classes", "dims", "learners", "harness", "verify")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    leaf_s: float = 0.0
    info: object = None


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals and
    minus the leaf-call time recorded directly inside it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - union_length(children.get(i, ()), s.start, s.end) - s.leaf_s
        for i, s in enumerate(spans)
    ]


def busy_time(spans: list[Span], name: str) -> float:
    """Wall time during which at least one span of this layer was open."""
    mine = [(s.start, s.end) for s in spans if s.name == name]
    if not mine:
        return 0.0
    return union_length(mine, min(a for a, _ in mine), max(b for _, b in mine))


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.leaves = {name: [0, 0.0] for name in LEAVES}
        self.op = -1  # -1 is set-up
        self._open: list[int] = []
        # leaf time per open span; the bottom entry collects leaf calls made
        # outside any span
        self._leaf_acc: list[float] = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> tuple[int, int | None]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(idx)
        self._leaf_acc.append(0.0)
        return idx, parent

    def _exit(self, idx, parent, name, start, info=None) -> None:
        end = clock()
        self._open.pop()
        leaf = self._leaf_acc.pop()
        self.spans[idx] = Span(name, start, end, parent, self.op, leaf, info)

    @contextmanager
    def span(self, name: str):
        idx, parent = self._enter(name)
        start = clock()
        try:
            yield
        finally:
            self._exit(idx, parent, name, start)

    def _wrap_span(self, name, fn, info):
        def wrapped(*args, **kwargs):
            idx, parent = self._enter(name)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._exit(
                    idx, parent, name, start,
                    info(args, result) if info and result is not None else None,
                )

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrap_leaf(self, name, fn):
        stat = self.leaves[name]
        acc = self._leaf_acc

        def wrapped(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt
            acc[-1] += dt
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"arlab.{m}") for m in MODULES}
        for name, (home, funcs) in LEAVES.items():
            for f in funcs:
                orig = getattr(mods[home], f)
                w = self._wrap_leaf(name, orig)
                self._patch(mods, orig, w, skip=home)
        for name, (home, funcs, info) in SPANS.items():
            for f in funcs:
                orig = getattr(mods[home], f)
                self._patch(mods, orig, self._wrap_span(name, orig, info))

    def _patch(self, mods, orig, wrapped, skip=None) -> None:
        for mname, mod in mods.items():
            if mname == skip:
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def summarize(spans: list[Span], leaves: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (cache counters are added by the
    worker)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def outer_info(name):
        # only spans not nested in a span of the same layer, so that e.g. a
        # taxonomy class does not count its shifted-subset part twice
        return [
            spans[i].info
            for i in by_name.get(name, ())
            if spans[i].info is not None
            and (spans[i].parent is None or spans[spans[i].parent].name != name)
        ]

    compress = outer_info("learners.cot_compress")
    kernel = sum(k for _, k, _ in compress)
    base_m = sum(m for _, _, m in compress)
    eval_calls, eval_busy = leaves["core.eval"]
    return {
        "core.eval.calls": eval_calls,
        "core.eval.busy_s": eval_busy,
        "classes.build.busy_s": busy_time(spans, "classes.build"),
        "classes.build.generators": sum(outer_info("classes.build")),
        "dims.restrict.calls": calls("dims.restrict"),
        "dims.restrict.self_s": self_s("dims.restrict"),
        "dims.restrict.patterns": sum(outer_info("dims.restrict")),
        "dims.shatter.calls": calls("dims.shatter"),
        "dims.shatter.busy_s": busy_time(spans, "dims.shatter"),
        "dims.littlestone.busy_s": busy_time(spans, "dims.littlestone"),
        "dims.atdim.busy_s": busy_time(spans, "dims.atdim"),
        "dims.leveled.busy_s": busy_time(spans, "dims.leveled"),
        "dims.oracle.busy_s": busy_time(spans, "dims.oracle"),
        "dims.sauer.self_s": self_s("dims.sauer"),
        "learners.cot_compress.calls": calls("learners.cot_compress"),
        "learners.cot_compress.busy_s": busy_time(spans, "learners.cot_compress"),
        "learners.cot_compress.voters": sum(v for v, _, _ in compress),
        "learners.kernel_ratio": kernel / base_m if base_m else 0.0,
        "learners.kernel_ratio.base_m": base_m,
        "learners.cot_reconstruct.busy_s": busy_time(spans, "learners.cot_reconstruct"),
        "learners.erm.busy_s": busy_time(spans, "learners.erm"),
        "learners.max_margin.busy_s": busy_time(spans, "learners.max_margin"),
        "harness.run_trial.calls": calls("harness.run_trial"),
        "harness.run_trial.self_s": self_s("harness.run_trial"),
        "verify.inputs.busy_s": busy_time(spans, "verify.inputs"),
    }

"""The three benchmark workloads: seeded inputs, timed ops, answer checks.

A workload is built by ``build(name, seed)``, which runs during set-up and
returns the list of ops. Each op is one timed call into arlab; its answer is
checked afterwards, outside the timed phase:

- ``dims``: one op per (class, domain, T, dimension) cell, as one row of
  ``arlab dims``, with stored answers. The seed orders the ops.
- ``trees``: one op per tree: fast leveled-subtree depth, the exhaustive
  oracle, and the Sauer check on the padded tree. AC5's depth-10 random
  trees, each mirrored or not by the seed, are checked by oracle agreement;
  the 625 trees with <= 7 nodes also against their stored depths.
- ``pac``: the AC11 sweep rows and the AC7 parity experiment (fixed anchors
  with stored answers), plus the 500 CoT-compression round trips of AC8 and
  the 500 linear stable-compression samples of AC9 with their deletion
  replays. The seed reorders each sample's examples and picks the boosting
  seeds; these ops are checked by consistency, kernel size and stability.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import replace
from fractions import Fraction
from typing import Callable, NamedTuple

from arlab import classes, dims, harness, learners, verify

import reference

# Random trees per pass: a trees pass takes about 8 s on a 2-vCPU Xeon VM.
TREES_RANDOM = 400
# AC8's and AC9's sample counts; with them the 9 heavy sweep and parity ops
# are under 1% of pac's ops, so op_p90_ms falls among the round trips.
PAC_COT_SAMPLES = 500
PAC_LINEAR_SAMPLES = 500


class Op(NamedTuple):
    """One timed call: ``run()`` returns the answer, ``check(answer)`` says
    whether it is right (evaluated after the timed phase)."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def expect(value) -> Callable[[object], bool]:
    return lambda got: got == value


def build(name: str, seed: int, span) -> list[Op]:
    """Set up workload ``name`` from ``seed``. ``span(label)`` is a context
    manager the tracer uses to time input generation."""
    if name == "dims":
        return _dims(seed)
    if name == "trees":
        return _trees(seed, span)
    if name == "pac":
        return _pac(seed, span)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# dims
# ---------------------------------------------------------------------------


def _dimension(which: str, cls, dom, T: int):
    """The value of one ``arlab dims`` row; restricted VC and Natarajan cells
    also return the pattern count. ``growth<m>`` is the growth function of
    the e2e restriction at m."""
    if which == "vc_base":
        pats = dims.restrict_base(cls, dom)
        return len(pats), dims.vc_dimension(pats)
    if which == "vc_e2e":
        pats = dims.restrict_e2e(cls, dom, T)
        return len(pats), dims.vc_dimension(pats)
    if which == "nat_cot":
        pats = dims.restrict_cot(cls, dom, T)
        return len(pats), dims.natarajan_dimension(pats)
    if which == "vc_dual":
        return dims.dual_vc_dimension(cls, dom)
    if which == "littlestone":
        return dims.littlestone_dimension(cls, dom, depth_cap=12)
    if which == "atdim":
        return dims.atdim_realized(cls, dom, T)
    if which.startswith("growth"):
        return dims.growth_function(dims.restrict_e2e(cls, dom, T), int(which[6:]))
    raise ValueError(which)


def dims_cells() -> list[tuple[str, object, tuple, int, str]]:
    """(label, class, domain, T, dimension) for every dims cell, in canonical
    domain order. Builds the classes, so it runs in set-up."""
    cells = []

    def add(label, cls, dom, T, which):
        cells.append((f"{label}/T{T}/{which}", cls, tuple(dom), T, which))

    # AC2: full class H=16 on chain:10.
    full = classes.make_full_class(16)
    chain10 = dims.chain_domain(10)
    add("full16/chain10", full, chain10, 0, "vc_base")
    for T in range(1, 6):
        add("full16/chain10", full, chain10, T, "vc_e2e")

    # AC1: F(N={1,3,4}), s_max=16, on chain:8; every dimension of `arlab dims`.
    f134 = classes.make_shifted_subset_class(classes.IntervalSet((1, 3, 4)), 16, 32)
    chain8 = dims.chain_domain(8)
    for which in ("vc_base", "vc_dual", "littlestone"):
        add("F134/chain8", f134, chain8, 0, which)
    for T in range(1, 9):
        for which in ("vc_e2e", "nat_cot", "atdim"):
            add("F134/chain8", f134, chain8, T, which)
    # AC10: growth of the e2e restriction on every m-subset of the domain.
    for T in (3, 6):
        for m in range(1, 9):
            add("F134/chain8", f134, chain8, T, f"growth{m}")

    # AC4: product of two F(N={1,3}) copies, and one copy on its own.
    part = classes.make_shifted_subset_class(classes.IntervalSet((1, 3)), 8, 16)
    prod = classes.make_product_class([part, part])
    chain3 = dims.chain_domain(3)
    pdom = tuple(p + x for p in classes.relocation_prefixes(2) for x in chain3)
    add("F13/chain3", part, chain3, 0, "vc_base")
    add("F13/chain3", part, chain3, 2, "vc_e2e")
    # (vc_dual is left out: its 1296 generator columns make the search explode)
    for which in ("vc_base", "littlestone"):
        add("F13xF13/prod6", prod, pdom, 0, which)
    for T in range(1, 4):
        for which in ("vc_e2e", "nat_cot", "atdim"):
            add("F13xF13/prod6", prod, pdom, T, which)

    # AC7: parity class; at even T it collapses to one e2e pattern.
    parity = classes.make_parity_class(8, 64)
    qdom = tuple("0" * k + "1" for k in range(1, 9)) + ("11", "0110", "1")
    for T in range(1, 7):
        add("parity8/q11", parity, qdom, T, "vc_e2e")

    # scripts/taxonomy_report.py: the rate sandwich for five rates, T=1..6.
    t_max = 6
    diag = classes.diagonal_rate(lambda d, T: math.sqrt(T), d_max=1, search_cap=1000)
    rates = {
        "const": (1,) * t_max,
        "sqrt": tuple(math.isqrt(T - 1) + 1 for T in range(1, t_max + 1)),
        "linear": tuple(range(1, t_max + 1)),
        "twoceil": tuple(2 * ((T + 1) // 2) for T in range(1, t_max + 1)),
        "diag": diag.values[:t_max],
    }
    for rname, values in rates.items():
        rate = classes.RateTable(values)
        c = rate(1)
        N = classes.rate_to_set(classes.normalize_rate(rate))
        cls = classes.make_taxonomy_class(rate, t_max, N.bound + 2 * t_max + 2)
        reach = range(1, max(N.bound, 1) + 1)
        if c == 1:
            dom = tuple("0" * t for t in reach)
        else:
            dom = tuple(p + "0" * t for p in classes.relocation_prefixes(c) for t in reach)
        for T in range(1, t_max + 1):
            add(f"tax-{rname}", cls, dom, T, "vc_e2e")

    # AC6: depth-4 branch class on its 31 node labels.
    branch = classes.make_atdim_example_class(4, 64)
    labels = tuple(classes.atdim_node_label(i) for i in range(1, 32))
    for which in ("vc_base", "vc_dual", "littlestone"):
        add("branch4/labels31", branch, labels, 0, which)
    add("branch4/labels31", branch, labels, 6, "atdim")
    return cells


def _dims(seed: int) -> list[Op]:
    # The cells are a fixed table and the seed only orders them: permuting
    # the domains as well moved the early exits of the shattering searches
    # enough to make op_p90_ms depend on the seed more than on the code.
    ops = [
        Op(label, lambda c=cls, d=dom, T=T, w=which: _dimension(w, c, d, T),
           expect(reference.DIMS[label]))
        for label, cls, dom, T, which in dims_cells()
    ]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


def tree_op(tree) -> tuple[int, int, bool]:
    """(fast depth, oracle depth, Sauer bound holds on the padded tree)."""
    fast = dims.leveled_subtree_depth(tree)
    oracle = dims.leveled_subtree_depth_exhaustive(tree)
    sauer = dims.leaf_count_bound_check(dims.pad_to_depth(tree, 10))
    return fast, oracle, sauer


def _tree_ok(want_depth=None):
    def check(got):
        fast, oracle, sauer = got
        return fast == oracle and sauer and want_depth in (None, fast)

    return check


MIRROR = str.maketrans("01", "10")


def _trees(seed: int, span) -> list[Op]:
    # The random trees are the first ones of AC5's stream (its seed 7), so
    # every run has the same tree sizes and ops_per_s does not hinge on which
    # trees a seed draws. The seed mirrors each of them (swaps left and right,
    # which keeps every answer) with probability 1/2 and orders the ops.
    rng = random.Random(seed)
    ac5 = random.Random(7)
    with span("verify.inputs"):
        randoms = [verify.random_tree(ac5, 10) for _ in range(TREES_RANDOM)]
        small = list(verify.enumerate_all_trees(7))
    randoms = [
        frozenset(p.translate(MIRROR) for p in t) if rng.random() < 0.5 else t
        for t in randoms
    ]
    if len(small) != len(reference.SMALL_TREE_DEPTHS):
        raise RuntimeError("enumerate_all_trees(7) no longer yields 625 trees")
    ops = [
        Op(f"random/{i}", lambda t=t: tree_op(t), _tree_ok())
        for i, t in enumerate(randoms)
    ]
    ops += [
        Op(f"small/{i}", lambda t=t: tree_op(t), _tree_ok(int(want)))
        for i, (t, want) in enumerate(zip(small, reference.SMALL_TREE_DEPTHS))
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# pac
# ---------------------------------------------------------------------------

SWEEP_SUPPORT = ("0", "00", "000", "0000", "01")
SWEEP_TS = (1, 2, 4, 8)
SWEEP_LEARNERS = (("cot_compress", "cot"), ("erm_e2e", "e2e"))


def sweep_row(cfg, T: int):
    """One ``arlab sweep`` row: m_hat and the failure curve behind it."""
    est = harness.estimate_sample_complexity(
        replace(cfg, T=T), Fraction(1, 10), Fraction(1, 10), R=100
    )
    return est.m_hat, tuple((m, str(rate)) for m, rate in est.failure_rates)


def parity_op(cls):
    """AC7's experiment: the failure frequency, the sign-test counts, and a
    digest of every trial's (|J|, bad, error)."""
    stats = harness.parity_lower_bound_experiment(cls, k_max=8, n=4, R=200, seed=0)
    trials = repr([(t.unseen, t.bad, str(t.error)) for t in stats.trials])
    digest = hashlib.sha256(trials.encode()).hexdigest()[:16]
    return str(stats.frequency_quarter), stats.above_half, stats.below_half, digest


def cot_round_trip(cls, cache, S, boost_seed: int):
    """Compress, reconstruct, and regenerate every trace of the sample."""
    comp = learners.cot_compress(cls, S, rng_seed=boost_seed, cache=cache)
    hyp = learners.cot_reconstruct(cls, comp, S.T, cache=cache)
    return comp.kernel.examples, tuple(hyp(x) for x, _ in S)


def _cot_ok(S):
    def check(got):
        kernel, traces = got
        return traces == tuple(y for _, y in S) and set(kernel) <= set(S.examples)

    return check


def linear_round_trip(S, d: int):
    """Stable kernel, the traces its reconstruction generates, and the kernel
    after deleting each non-kernel example in turn (AC9)."""
    kernel = learners.stable_compress_cot(S, d)
    hyp = learners.stable_reconstruct_cot(kernel, d, S.T)
    traces = tuple(hyp(x) for x, _ in S)
    kept = set(kernel.examples)
    first: dict = {}
    for j, ex in enumerate(S.examples):
        first.setdefault(ex, j)
    replays = []
    for j, ex in enumerate(S.examples):
        if ex in kept and first[ex] == j:
            continue
        rest = learners.CotSample(S.examples[:j] + S.examples[j + 1 :], S.T)
        replays.append(learners.stable_compress_cot(rest, d).examples)
    return kernel.examples, traces, tuple(replays)


def _linear_ok(S, d: int):
    def check(got):
        kernel, traces, replays = got
        return (
            len(kernel) <= d + 1
            and traces == tuple(y for _, y in S)
            and all(r == kernel for r in replays)
        )

    return check


def _shuffled(S, rng):
    examples = list(S.examples)
    rng.shuffle(examples)
    return learners.CotSample(tuple(examples), S.T)


def _pac(seed: int, span) -> list[Op]:
    ops = []
    f134 = classes.make_shifted_subset_class(classes.IntervalSet((1, 3, 4)), 12, 32)
    dist = harness.Distribution.uniform(SWEEP_SUPPORT)
    for learner, mode in SWEEP_LEARNERS:
        cfg = harness.TrialConfig(
            cls=f134, dist=dist, T=1, mode=mode, learner=learner, m=0, rng_seed=0
        )
        for T in SWEEP_TS:
            label = f"sweep/{learner}/T{T}"
            run = lambda cfg=cfg, T=T: sweep_row(cfg, T)
            ops.append(Op(label, run, expect(reference.PAC[label])))

    parity = classes.make_parity_class(8, 64)
    ops.append(Op("parity", lambda: parity_op(parity), expect(reference.PAC["parity"])))

    # The samples are AC8's and AC9's (their seeds 2024 and 31), so every
    # run sees the same sample sizes and the latency percentiles do not
    # hinge on a few draws; the run's seed reorders each sample's examples,
    # picks the boosting seeds, and orders the ops.
    rng = random.Random(seed)
    cot_cls = classes.make_shifted_subset_class(classes.IntervalSet((1, 3, 4)), 16, 32)
    cache = learners.EvalCache(cot_cls)
    grids = {d: classes.enumerate_linear_class(d, 2, 64) for d in (1, 2, 3)}
    with span("verify.inputs"):
        ac8 = random.Random(2024)
        pool = verify.mixed_prompt_pool(ac8, 6, 8)
        for i in range(PAC_COT_SAMPLES):
            m, T = ac8.randrange(1, 21), ac8.randrange(1, 5)
            S, _ = verify.random_realizable_cot_sample(cot_cls, ac8, m, T, pool)
            S = _shuffled(S, rng)
            boost = rng.randrange(2**32)
            run = lambda S=S, boost=boost: cot_round_trip(cot_cls, cache, S, boost)
            ops.append(Op(f"cot/{i}", run, _cot_ok(S)))
        ac9 = random.Random(31)
        for i in range(PAC_LINEAR_SAMPLES):
            d, m, T = ac9.randrange(1, 4), ac9.randrange(1, 16), ac9.randrange(1, 4)
            lpool = list(verify._random_domain(ac9, 6, 8))
            S, _ = verify.random_realizable_cot_sample(grids[d], ac9, m, T, lpool)
            S = _shuffled(S, rng)
            run = lambda S=S, d=d: linear_round_trip(S, d)
            ops.append(Op(f"linear/{i}", run, _linear_ok(S, d)))
    rng.shuffle(ops)
    return ops

"""The paper's property checks, the named suites behind `arlab verify`, and
the seeded random generators (trees, realizable samples) they share.

Each property has one `check_*` function; its arguments are the data the
check runs on (an rng, a count, a horizon). It returns a list of
`Check(name, passed, detail)` rows. A suite is a list of calls with fixed
values; the acceptance tests call the same functions with their own seeds and
counts, and the CLI prints one line per row and exits nonzero on any failure.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from . import classes, dims, harness, learners
from .core import FiniteClass, cot_trace


# ---------------------------------------------------------------------------
# Seeded random structures
# ---------------------------------------------------------------------------


def random_tree(rng: random.Random, depth: int) -> frozenset[str]:
    """Random prefix-closed binary tree of depth <= depth with <= 63 nodes;
    grown breadth-first, a node gets two children with probability 0.4 and
    one with probability 0.5, and expansion stops once the cap is reached."""
    paths = {""}
    frontier = [""]
    count = 1
    for _ in range(depth):
        nxt = []
        for p in frontier:
            if count + 2 > 63:
                break
            u = rng.random()
            if u < 0.4:
                kids = ["0", "1"]
            elif u < 0.9:
                kids = [rng.choice("01")]
            else:
                kids = []
            for b in kids:
                q = p + b
                paths.add(q)
                nxt.append(q)
                count += 1
        frontier = nxt
        if not frontier:
            break
    return frozenset(paths)


def enumerate_all_trees(max_nodes: int):
    """Every rooted binary tree (left/right-distinguished) with at most
    max_nodes nodes, as prefix-path sets."""

    def shapes(n: int):
        # n = 0 is the absent subtree
        if n == 0:
            yield frozenset()
            return
        for left_n in range(n):
            rights = [{"1" + p for p in rt} for rt in shapes(n - 1 - left_n)]
            for lt in shapes(left_n):
                left = {""} | {"0" + p for p in lt}
                for right in rights:
                    yield frozenset(left | right)

    for n in range(1, max_nodes + 1):
        yield from shapes(n)


def random_realizable_cot_sample(
    cls: FiniteClass,
    rng: random.Random,
    m: int,
    T: int,
    prompt_pool: list[str],
):
    """A CoT sample labeled by a uniformly drawn member of the class."""
    target = cls[rng.randrange(len(cls))]
    xs = [prompt_pool[rng.randrange(len(prompt_pool))] for _ in range(m)]
    return (
        learners.CotSample(tuple((x, cot_trace(target, x, T)) for x in xs), T),
        target,
    )


def mixed_prompt_pool(rng: random.Random, max_len: int, chain_len: int) -> list[str]:
    pool = ["0" * t for t in range(1, chain_len + 1)]
    for _ in range(12):
        ln = rng.randrange(max_len + 1)
        pool.append("".join(rng.choice("01") for _ in range(ln)))
    return list(dict.fromkeys(pool))


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def check_taxonomy_identity() -> list[Check]:
    N = classes.IntervalSet((1, 3, 4))
    cls = classes.make_shifted_subset_class(N, s_max=16, H=32)
    dom = dims.chain_domain(8)
    got = tuple(dims.vc_dimension(dims.restrict_e2e(cls, dom, T)) for T in range(1, 7))
    want = tuple(classes.interval_density(N, T) for T in range(1, 7))
    name = "taxonomy identity: vc(e2e restriction) == interval density, N={1,3,4}"
    return [Check(name, got == want == (1, 2, 2, 3, 3, 3), f"got {got}")]


def check_full_class_linearity(H: int, chain: int, t_max: int) -> list[Check]:
    """vc of the full class's e2e restriction to chain:`chain` is T."""
    full = classes.make_full_class(H)
    dom = dims.chain_domain(chain)
    got = tuple(
        dims.vc_dimension(dims.restrict_e2e(full, dom, T)) for T in range(1, t_max + 1)
    )
    return [Check(f"full-class linearity (H={H} smoke): vc(e2e) == T for T=1..{t_max}",
                  got == tuple(range(1, t_max + 1)), f"got {got}")]


def check_rate_round_trip() -> list[Check]:
    r = classes.RateTable(tuple(math.isqrt(T - 1) + 1 for T in range(1, 65)))
    Nr = classes.rate_to_set(r)
    rt_ok = all(classes.interval_density(Nr, T) == r(T) for T in range(1, 65))
    return [Check("rate round trip: ceil(sqrt(T)) to T_max=64", rt_ok)]


def check_product_additivity() -> list[Check]:
    N13 = classes.IntervalSet((1, 3))
    part = classes.make_shifted_subset_class(N13, s_max=8, H=16)
    prod = classes.make_product_class([part, part])
    prefixes = classes.relocation_prefixes(2)
    pdom = tuple(p + "0" * t for p in prefixes for t in range(1, 4))
    base_vc = dims.vc_dimension(dims.restrict_base(prod, pdom))
    part_vc = dims.vc_dimension(dims.restrict_base(part, dims.chain_domain(3)))
    e2e_vc = dims.vc_dimension(dims.restrict_e2e(prod, pdom, 2))
    single = dims.vc_dimension(dims.restrict_e2e(part, dims.chain_domain(3), 2))
    return [Check("product additivity: base VC sums, e2e VC doubles at T=2",
                  base_vc == 2 * part_vc and e2e_vc == 2 * single,
                  f"base {base_vc} vs 2*{part_vc}, e2e {e2e_vc} vs 2*{single}")]


def check_branch_class() -> list[Check]:
    at = classes.make_atdim_example_class(4, H=64)
    labels = tuple(classes.atdim_node_label(i) for i in range(1, 32))
    vc_at = dims.vc_dimension(dims.restrict_base(at, labels))
    atd = dims.atdim_realized(at, labels, 6)
    ldim = dims.littlestone_dimension(at, labels, depth_cap=12)
    return [Check("branch class: VC = 1, realized ATdim = 1, Littlestone >= 4",
                  vc_at == 1 and atd == 1 and ldim >= 4,
                  f"vc {vc_at}, atdim {atd}, L {ldim}")]


def check_growth_inequalities(rng: random.Random, n_classes: int) -> list[Check]:
    """On n_classes random small classes: the growth functions of the base
    and e2e restrictions obey Sauer-Shelah-Perles (exactly 1 at VC 0), and the
    base growth never exceeds the CoT-trace growth (projection)."""
    detail = ""
    for _ in range(n_classes):
        cls_r, dom_r = _random_small_class(rng)
        T = rng.randrange(1, 4)
        base = dims.restrict_base(cls_r, dom_r)
        traces = dims.restrict_cot(cls_r, dom_r, T)
        for pats in (base, dims.restrict_e2e(cls_r, dom_r, T)):
            vc = dims.vc_dimension(pats)
            for m in range(1, len(dom_r) + 1):
                g = dims.growth_function(pats, m)
                if vc == 0 and g != 1:
                    detail = "VC 0 but more than one pattern"
                elif vc > 0 and g > (2 * math.e * m) ** (2 * vc):
                    detail = f"SSP violated at m={m}"
        for m in range(len(dom_r) + 1):
            gb = dims.growth_function(base, m)
            gt = dims.growth_function(traces, m)
            if gb > gt:
                detail = f"projection growth {gb} > trace growth {gt}"
    return [Check(f"growth inequalities on {n_classes} random classes",
                  not detail, detail)]


def _random_small_class(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        full = classes.make_full_class(6)
        idx = sorted(rng.sample(range(len(full)), rng.randrange(2, 13)))
        cls = FiniteClass(tuple(full[i] for i in idx), full.horizon)
        dom = _random_domain(rng, cls.horizon - 3, 5)
    elif kind == 1:
        pts = sorted(rng.sample(range(1, 6), rng.randrange(1, 4)))
        cls = classes.make_shifted_subset_class(
            classes.IntervalSet(tuple(pts)), s_max=rng.randrange(0, 4), H=12
        )
        dom = _random_domain(rng, 6, 5)
    else:
        cls = classes.make_parity_class(3, H=16)
        dom = tuple(["01", "001", "0001", "011", "11"][: rng.randrange(2, 6)])
    return cls, dom


def _random_domain(rng: random.Random, max_len: int, count: int):
    out = []
    while len(out) < count:
        ln = rng.randrange(max_len + 1)
        s = "".join(rng.choice("01") for _ in range(ln))
        if s not in out:
            out.append(s)
    return tuple(out)


def check_cot_round_trips(
    rng: random.Random, n: int, boost_base: int = 0
) -> list[Check]:
    """CoT compression then reconstruction is consistent with each of n
    random realizable samples over F(N={1,3,4}); sample i boosts with seed
    boost_base + i."""
    N = classes.IntervalSet((1, 3, 4))
    cls = classes.make_shifted_subset_class(N, s_max=16, H=32)
    pool = mixed_prompt_pool(rng, 6, 8)
    failures = 0
    for i in range(n):
        m = rng.randrange(1, 21)
        T = rng.randrange(1, 5)
        S, _ = random_realizable_cot_sample(cls, rng, m, T, pool)
        hyp, _ = harness.train_cot(cls, S, "cot_compress", boost_base + i)
        if any(hyp(x) != y for x, y in S):
            failures += 1
    return [Check(f"CoT compression round trip on {n} samples over F(N={{1,3,4}})",
                  failures == 0, f"{failures} failures")]


def check_linear_stable_compression(rng: random.Random, n: int) -> list[Check]:
    """Stable compression of n random samples over the linear grids (d=1..3,
    weight bound 2): kernel size <= d+1, round-trip consistency, and the same
    kernel after deleting any example off it."""
    grids = {d: classes.enumerate_linear_class(d, 2, H=64) for d in (1, 2, 3)}
    lin_failures = 0
    size_viol = 0
    stab_viol = 0
    for _ in range(n):
        d = rng.randrange(1, 4)
        m = rng.randrange(1, 16)
        T = rng.randrange(1, 4)
        pool_l = _random_domain(rng, 6, 8)
        S, _ = random_realizable_cot_sample(grids[d], rng, m, T, list(pool_l))
        hyp, kernel = harness.train_cot(grids[d], S, "linear_stable", d=d)
        if len(kernel) > d + 1:
            size_viol += 1
        if any(hyp(x) != y for x, y in S):
            lin_failures += 1
        kern = set(kernel.examples)
        first = {}
        for j, ex in enumerate(S.examples):
            first.setdefault(ex, j)
        for j, ex in enumerate(S.examples):
            if ex in kern and first[ex] == j:
                continue
            rest = learners.CotSample(
                S.examples[:j] + S.examples[j + 1:], S.T
            )
            if learners.stable_compress_cot(rest, d).examples != kernel.examples:
                stab_viol += 1
    return [
        Check(f"linear stable compression on {n} samples: kernel <= d+1",
              size_viol == 0, f"{size_viol} oversize kernels"),
        Check("linear stable compression: round-trip consistency",
              lin_failures == 0, f"{lin_failures} failures"),
        Check("linear stable compression: deletion stability off the kernel",
              stab_viol == 0, f"{stab_viol} violations"),
    ]


def check_parity_collapse() -> list[Check]:
    """At even T the parity class's e2e restriction to the question prompts
    0^k 1 and a few others is a single pattern."""
    cls = classes.make_parity_class(8, H=64)
    dom = tuple("0" * k + "1" for k in range(1, 9)) + ("11", "0110", "01000", "1")
    checks = []
    for T in (2, 4):
        pats = dims.restrict_e2e(cls, dom, T)
        checks.append(Check(
            f"parity class: e2e restriction at T={T} is a single pattern (VC 0)",
            len(pats) == 1 and dims.vc_dimension(pats) == 0, f"{len(pats)} patterns"))
    return checks


# the parity experiment passes when error >= 1/4 in at least this share of trials
PARITY_PASS_FREQ = Fraction(2, 5)


def check_parity_lower_bound(R: int, seed: int) -> list[Check]:
    """Odd-T parity experiment (n=4): error >= 1/4 in at least a
    PARITY_PASS_FREQ share of R trials, and bad-answer counts symmetric
    about |J|/2."""
    cls = classes.make_parity_class(8, H=64)
    stats = harness.parity_lower_bound_experiment(cls, k_max=8, n=4, R=R, seed=seed)
    nonties = stats.above_half + stats.below_half
    slack = 4.5 * math.sqrt(max(nonties, 1))
    return [
        Check(f"parity lower bound: freq(error >= 1/4) >= "
              f"{float(PARITY_PASS_FREQ)} over R={R}",
              stats.frequency_quarter >= PARITY_PASS_FREQ,
              f"freq {float(stats.frequency_quarter):.3f}"),
        Check("parity lower bound: bad-count symmetry about |J|/2 (sign test)",
              abs(stats.above_half - stats.below_half) <= slack,
              f"above {stats.above_half}, below {stats.below_half}"),
    ]


def check_random_trees(rng: random.Random, n: int) -> list[Check]:
    """On n random depth-10 trees: the leveled-subtree Sauer bound of the
    padded tree, and fast leveled-subtree depth == exhaustive oracle."""
    bound_viol = 0
    oracle_viol = 0
    for _ in range(n):
        t = random_tree(rng, 10)
        if not dims.leaf_count_bound_check(dims.pad_to_depth(t, 10)):
            bound_viol += 1
        if dims.leveled_subtree_depth(t) != dims.leveled_subtree_depth_exhaustive(t):
            oracle_viol += 1
    return [
        Check(f"leveled-subtree Sauer bound on {n} random depth-10 trees",
              bound_viol == 0, f"{bound_viol} violations"),
        Check("fast leveled-subtree depth == exhaustive oracle on the same trees",
              oracle_viol == 0, f"{oracle_viol} disagreements"),
    ]


def check_small_trees(max_nodes: int) -> list[Check]:
    """Fast leveled-subtree depth == exhaustive oracle on every tree with at
    most max_nodes nodes; the name reports how many trees were checked."""
    small_viol = 0
    count = 0
    for t in enumerate_all_trees(max_nodes):
        count += 1
        if dims.leveled_subtree_depth(t) != dims.leveled_subtree_depth_exhaustive(t):
            small_viol += 1
    return [Check(f"oracle agreement on all {count} trees with <= {max_nodes} nodes",
                  small_viol == 0, f"{small_viol} disagreements")]


def taxonomy_sandwich(
    rate: classes.RateTable, t_max: int, s_max: int, cap: int = classes.DEFAULT_CAP
) -> tuple[FiniteClass, list[tuple[int, int, int, bool, bool]]]:
    """The class realizing `rate` and, for T = 1..t_max, the rows
    (T, r(T), vc_e2e, r(T) <= vc_e2e, vc_e2e <= r(T) + r(1))."""
    c = rate(1)
    N = classes.rate_to_set(classes.normalize_rate(rate))
    # parts must also absorb the longest relocation prefix (length c+1)
    horizon = N.bound + s_max + t_max + c + 2
    cls = classes.make_taxonomy_class(rate, s_max, horizon, cap)
    chain = dims.chain_domain(max(N.bound, 1))
    if c == 1:
        domain = chain
    else:
        domain = tuple(p + x for p in classes.relocation_prefixes(c) for x in chain)
    rows = []
    for T in range(1, t_max + 1):
        vc = dims.vc_dimension(dims.restrict_e2e(cls, domain, T))
        r_T = rate(T)
        rows.append((T, r_T, vc, vc >= r_T, vc <= r_T + c))
    return cls, rows


def cot_vs_e2e_sweep(
    Ts, R: int, seed: int = 0, s_max: int = 12,
    eps=Fraction(1, 10), delta=Fraction(1, 10),
) -> dict[str, list[dict]]:
    """`harness.sweep_T` rows of CoT compression (cot supervision) and of e2e
    ERM (e2e supervision) on F(N={1,3,4}) under the uniform distribution on
    0, 00, 000, 0000, 01; keyed by learner, CoT first."""
    cls = classes.make_shifted_subset_class(classes.IntervalSet((1, 3, 4)), s_max, H=32)
    dist = harness.Distribution.uniform(("0", "00", "000", "0000", "01"))
    sweeps = {}
    for learner, mode in (("cot_compress", "cot"), ("erm_e2e", "e2e")):
        cfg = harness.TrialConfig(
            cls=cls, dist=dist, T=1, mode=mode, learner=learner, m=0, rng_seed=seed
        )
        sweeps[learner] = harness.sweep_T(cfg, Ts, eps, delta, R)
    return sweeps


def check_sweep_shapes(sweeps: dict[str, list[dict]]) -> list[Check]:
    """CoT m_hat stays within a factor 2 across T; e2e m_hat never drops."""
    cot = [r["m_hat"] for r in sweeps["cot_compress"]]
    e2e = [r["m_hat"] for r in sweeps["erm_e2e"]]
    return [
        Check("CoT compression m_hat spread <= 2x across T",
              min(cot) > 0 and max(cot) / min(cot) <= 2, f"m_hat {cot}"),
        Check("e2e ERM m_hat non-decreasing in T",
              all(a <= b for a, b in zip(e2e, e2e[1:])), f"m_hat {e2e}"),
    ]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_lemmas(seed: int = 0, trials: int | None = None) -> list[Check]:
    n = trials if trials is not None else 50
    return (
        check_taxonomy_identity()
        + check_full_class_linearity(H=10, chain=5, t_max=3)
        + check_rate_round_trip()
        + check_product_additivity()
        + check_branch_class()
        + check_growth_inequalities(random.Random(seed), n)
    )


def suite_compression(seed: int = 0, trials: int | None = None) -> list[Check]:
    n = trials if trials is not None else 500
    rng = random.Random(seed)
    cot = check_cot_round_trips(rng, n, seed * 1000003)
    return cot + check_linear_stable_compression(rng, n)


def suite_parity(seed: int = 0, trials: int | None = None) -> list[Check]:
    R = trials if trials is not None else 200
    return check_parity_collapse() + check_parity_lower_bound(R, seed)


def suite_sauer(seed: int = 0, trials: int | None = None) -> list[Check]:
    n = trials if trials is not None else 1000
    return check_random_trees(random.Random(seed), n) + check_small_trees(7)

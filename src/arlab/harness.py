"""PAC simulation: exact finite-support distributions, seeded trials,
empirical sample-complexity search, and the parity lower-bound experiment.

Population error is computed exactly over the distribution's support (no test
sampling), so sweep shapes are attributable to training randomness only. All
randomness flows through random.Random (Mersenne Twister); each trial derives
its own integer seed from (master_seed, grid position, trial index), so
results are independent of scheduling order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .core import FiniteClass, cot_trace, e2e_ones, e2e_output, first_fit
from .errors import Unlearnable
from .learners import (
    CompressedCot,
    CotHypothesis,
    CotSample,
    EvalCache,
    cot_compress,
    cot_reconstruct,
    erm,
    inflate,
    stable_compress_cot,
    stable_reconstruct_cot,
)

# the supervision mode each learner trains on; its keys are the learner names
LEARNER_MODES = {
    "erm_e2e": "e2e", "erm_cot": "cot", "cot_compress": "cot", "linear_stable": "cot"
}
# the CoT learners the parity experiment runs: those defined on any class
PARITY_LEARNERS = ("cot_compress", "erm_cot")


@dataclass(frozen=True)
class Distribution:
    """Finite-support distribution with exact rational probabilities."""

    support: tuple[str, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs must align")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support must be distinct")
        if any(p <= 0 for p in self.probs):
            raise ValueError("probabilities must be positive")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("probabilities must sum to 1 exactly")

    @staticmethod
    def uniform(support: Sequence[str]) -> "Distribution":
        n = len(support)
        return Distribution(tuple(support), (Fraction(1, n),) * n)

    def sample(self, rng: random.Random, m: int) -> list[str]:
        if m == 0:
            return []
        weights = [float(p) for p in self.probs]
        return rng.choices(self.support, weights=weights, k=m)


@dataclass(frozen=True)
class TrialConfig:
    """One seeded learning trial; evaluation is exact over the support."""

    cls: FiniteClass
    dist: Distribution
    T: int
    mode: str  # 'e2e' or 'cot'
    learner: str
    m: int
    rng_seed: int
    target_index: int | None = None
    d: int | None = None  # the tail window of linear_stable

    def __post_init__(self):
        mode = LEARNER_MODES.get(self.learner)
        if mode is None:
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.mode != mode:
            raise ValueError(f"{self.learner} expects {mode}-mode supervision")
        if self.learner == "linear_stable" and self.d is None:
            raise ValueError("linear_stable needs the window d")
        if self.target_index is not None and not (
            0 <= self.target_index < len(self.cls)
        ):
            raise ValueError("target generator must belong to the class")


@dataclass(frozen=True)
class TrialResult:
    population_error: Fraction
    kernel_size: int | None
    wall_time_ms: float


@lru_cache(maxsize=64)
def _e2e_table(cls: FiniteClass, T: int, support: tuple[str, ...]) -> tuple[int, ...]:
    """Per-(class, T, support) end-to-end masks, one per support prompt."""
    cache = EvalCache(cls)
    return tuple(e2e_ones(cache, x, T) for x in support)


@lru_cache(maxsize=32)
def _eval_cache(cls: FiniteClass) -> EvalCache:
    return EvalCache(cls)


def _e2e_row(table: tuple[int, ...], g: int) -> tuple[str, ...]:
    """Generator g's end-to-end outputs on the table's support."""
    return tuple("1" if m >> g & 1 else "0" for m in table)


def erm_e2e(n: int, table, sampled: list[tuple[int, str]]) -> int:
    """e2e ERM: the first of n generators whose end-to-end outputs, read off
    the table, fit the sampled (support position, bit) pairs."""
    ok_masks = (table[i] if y == "1" else ~table[i] for i, y in sampled)
    return first_fit((1 << n) - 1, ok_masks)


def train_cot(
    cls: FiniteClass, S: CotSample, learner: str, boost_seed: int = 0,
    d: int | None = None,
) -> tuple[CotHypothesis, CompressedCot | CotSample | None]:
    """Train the named CoT learner on S, evaluating through the class's shared
    EvalCache. Returns its hypothesis and kernel: the compression for
    cot_compress (boosting seeded by boost_seed), the kernel sample for
    linear_stable (window d), None for erm_cot."""
    if learner == "linear_stable":
        kernel = stable_compress_cot(S, d)
        return stable_reconstruct_cot(kernel, d, S.T), kernel
    cache = _eval_cache(cls)
    if learner == "erm_cot":
        return CotHypothesis(erm(cls, inflate(S), cache), S.T), None
    if learner == "cot_compress":
        comp = cot_compress(cls, S, rng_seed=boost_seed, cache=cache)
        return cot_reconstruct(cls, comp, S.T, cache=cache), comp
    raise ValueError(f"unknown CoT learner {learner!r}")


def run_trial(cfg: TrialConfig) -> TrialResult:
    """Draw m i.i.d. prompts, label them by the target (e2e bit or full
    trace), train the named learner, and return the exact population error of
    the learned end-to-end predictor."""
    t0 = time.perf_counter()
    rng = random.Random(cfg.rng_seed)
    cls, dist, T = cfg.cls, cfg.dist, cfg.T
    target_idx = (
        cfg.target_index
        if cfg.target_index is not None
        else rng.randrange(len(cls))
    )
    xs = dist.sample(rng, cfg.m)
    table = _e2e_table(cls, T, dist.support)
    truth = _e2e_row(table, target_idx)
    kernel = None

    if cfg.learner == "erm_e2e":
        sup_pos = {x: i for i, x in enumerate(dist.support)}
        sampled = [(sup_pos[x], truth[sup_pos[x]]) for x in xs]
        predictions = _e2e_row(table, erm_e2e(len(cls), table, sampled))
    else:
        target = cls[target_idx]
        S = CotSample(tuple((x, cot_trace(target, x, T)) for x in xs), T)
        # every CoT learner draws a boosting seed; as the last draw it moves no S
        hyp, kernel = train_cot(cls, S, cfg.learner, rng.randrange(2**32), d=cfg.d)
        predictions = tuple(hyp.e2e(x) for x in dist.support)

    err = sum(
        (p for p, a, b in zip(dist.probs, predictions, truth) if a != b),
        Fraction(0),
    )
    kernel_size = None if kernel is None else len(kernel)
    return TrialResult(err, kernel_size, (time.perf_counter() - t0) * 1e3)


def child_seed(master: int, block: int, index: int) -> int:
    """Deterministic per-trial seed: disjoint for block < 2^20, index < 2^20."""
    return (master * (1 << 40) + block * (1 << 20) + index) % (1 << 62)


@dataclass(frozen=True)
class ComplexityEstimate:
    m_hat: int
    failure_rates: tuple[tuple[int, Fraction], ...]

    def rate_at(self, m: int) -> Fraction:
        return dict(self.failure_rates)[m]


def _check_trial_count(R: int) -> None:
    if R < 1:
        raise ValueError(f"trial count R must be >= 1, got {R}")


def failure_rate(cfg: TrialConfig, m: int, eps, R: int) -> Fraction:
    """Fraction of R seeded trials with population error > eps (exact)."""
    _check_trial_count(R)
    eps = Fraction(eps)
    fails = 0
    for r in range(R):
        trial = replace(cfg, m=m, rng_seed=child_seed(cfg.rng_seed, m, r))
        if run_trial(trial).population_error > eps:
            fails += 1
    return Fraction(fails, R)


def estimate_sample_complexity(
    cfg: TrialConfig,
    eps,
    delta,
    R: int,
    m_cap: int = 4096,
) -> ComplexityEstimate:
    """Smallest m on a doubling-then-bisection grid whose empirical failure
    rate over R trials is <= delta. cfg.m is ignored; cfg.rng_seed acts as the
    master seed. Raises Unlearnable if nothing up to m_cap succeeds, and
    ValueError (through failure_rate, before any trial) for R < 1."""
    eps = Fraction(eps)
    delta = Fraction(delta)
    curve: dict[int, Fraction] = {}

    def ok(m: int) -> bool:
        if m not in curve:
            rate = failure_rate(cfg, m, eps, R)
            curve[m] = rate
        return curve[m] <= delta

    if ok(0):
        return ComplexityEstimate(0, tuple(sorted(curve.items())))
    lo, hi = 0, None
    m = 1
    while m <= m_cap:
        if ok(m):
            hi = m
            break
        lo = m
        m *= 2
    if hi is None:
        raise Unlearnable(f"no m <= {m_cap} reached failure rate <= {delta}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return ComplexityEstimate(hi, tuple(sorted(curve.items())))


def sweep_T(
    cfg: TrialConfig,
    Ts: Sequence[int],
    eps,
    delta,
    R: int,
    m_cap: int = 4096,
) -> list[dict]:
    """estimate_sample_complexity per T; one row per T, sorted by T."""
    rows = []
    for T in sorted(Ts):
        est = estimate_sample_complexity(replace(cfg, T=T), eps, delta, R, m_cap)
        rows.append(
            {
                "T": T,
                "mode": cfg.mode,
                "m_hat": est.m_hat,
                "failure_rate": est.rate_at(est.m_hat),
            }
        )
    return rows


@dataclass(frozen=True)
class ParityTrial:
    unseen: int  # |J|
    bad: int  # wrong answers among unseen questions
    error: Fraction


@dataclass(frozen=True)
class ParityStats:
    trials: tuple[ParityTrial, ...]
    frequency_quarter: Fraction  # empirical Pr[error >= 1/4]
    above_half: int  # trials with bad > |J|/2
    below_half: int  # trials with bad < |J|/2

    @property
    def R(self) -> int:
        return len(self.trials)


def parity_lower_bound_experiment(
    cls: FiniteClass,
    k_max: int,
    n: int,
    R: int,
    seed: int,
    T: int = 3,
    learner: str = "cot_compress",
    m: int | None = None,
) -> ParityStats:
    """Monte-Carlo replay of the odd-T unlearnability argument.

    Per trial: draw the target bits uniformly, draw n training prompts from
    the uniform distribution on the questions Q_1..Q_m with m = 2n, train the
    CoT learner, and compute the exact error. Unseen questions stay coin
    flips for the learner, so bad-answer counts are Binomial(|J|, 1/2) and
    the frequency of {error >= 1/4} concentrates at or above 1/2.

    m defaults to 2n; n = 0 needs an explicit support size.
    """
    if T % 2 != 1:
        raise ValueError("the experiment is defined for odd T")
    _check_trial_count(R)
    if learner not in PARITY_LEARNERS:
        raise ValueError(f"unsupported parity learner {learner!r}")
    if m is None:
        m = 2 * n
    if m < 1:
        raise ValueError("support size m must be >= 1; pass m explicitly for n=0")
    if k_max < m:
        raise ValueError(f"k_max={k_max} must be >= m={m}")
    questions = ["0" * k + "1" for k in range(1, m + 1)]
    trials = []
    quarter = Fraction(1, 4)
    freq = 0
    above = below = 0
    for r in range(R):
        rng = random.Random(child_seed(seed, 0, r))
        target_idx = rng.randrange(len(cls))
        target = cls[target_idx]
        xs = [questions[rng.randrange(m)] for _ in range(n)]
        S = CotSample(tuple((x, cot_trace(target, x, T)) for x in xs), T)
        hyp, _ = train_cot(cls, S, learner, rng.randrange(2**32))
        seen = set(xs)
        unseen = [q for q in questions if q not in seen]
        wrong = [
            q for q in questions if hyp.e2e(q) != e2e_output(target, q, T)
        ]
        bad = sum(1 for q in wrong if q not in seen)
        err = Fraction(len(wrong), m)
        trials.append(ParityTrial(len(unseen), bad, err))
        if err >= quarter:
            freq += 1
        if 2 * bad > len(unseen):
            above += 1
        elif 2 * bad < len(unseen):
            below += 1
    return ParityStats(tuple(trials), Fraction(freq, R), above, below)

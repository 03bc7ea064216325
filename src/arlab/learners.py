"""ERM, the inflation-based CoT compression learner, and the stable
max-margin compression lift for linear autoregressors.

The boosting learner realizes the existence argument behind the majority-vote
compression scheme constructively: multiplicative-weights boosting over the
inflated sample, with every voter an ERM on the inflation of a few original
CoT examples. The linear scheme computes hard-margin separators exactly over
the rationals so that kernel choice, and hence deletion stability, is
bit-for-bit deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_
from typing import Iterable, NamedTuple, Sequence

from .classes import LinearParams, make_linear_generator, tail_encoding
from .core import EvalCache, FiniteClass, Generator, cot_trace, first_fit
from .dims import _shatter
from .errors import BoostingFailed, NotSeparable, OriginMissing

HYPOTHESIS_HORIZON = 1 << 30
# cot_compress's boosting budget, voter-subset scale and reweighting
BOOST_ROUNDS = 256
BOOST_RETRIES = 20
S_MULTIPLIER = 12
WEIGHT_FACTOR = 2.0


class LabeledBit(NamedTuple):
    """Binary-labeled example; origin is the index of the CoT example whose
    inflation produced it (None for free-standing samples)."""

    x: str
    y: str
    origin: int | None = None


@dataclass(frozen=True)
class CotSample:
    """Labeled examples (prompt, length-T trace)."""

    examples: tuple[tuple[str, str], ...]
    T: int

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("T must be >= 1")
        for x, y in self.examples:
            if len(y) != self.T:
                raise ValueError(f"trace {y!r} has length {len(y)} != T={self.T}")

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, i):
        return self.examples[i]


def inflate(S: CotSample) -> list[LabeledBit]:
    """Unroll each (x_i, y_i) into the T next-bit examples
    (x_i + y_{i,<t}, y_{i,t}), tagged with origin i. Size is exactly m*T."""
    out = []
    for i, (x, y) in enumerate(S):
        for t in range(S.T):
            out.append(LabeledBit(x + y[:t], y[t], i))
    return out


def deflate(inflated: Iterable[LabeledBit], S: CotSample) -> CotSample:
    """Sub-CotSample of S whose indices appear among the origins."""
    origins = set()
    for e in inflated:
        if e.origin is None:
            raise OriginMissing(f"inflated example {e!r} has no origin")
        if not 0 <= e.origin < len(S):
            raise OriginMissing(f"origin {e.origin} outside sample of size {len(S)}")
        origins.add(e.origin)
    return CotSample(tuple(S[i] for i in sorted(origins)), S.T)


def erm(cls: FiniteClass, sample: Iterable[LabeledBit], cache: EvalCache | None = None) -> Generator:
    """First generator in class order consistent with the binary sample."""
    cache = cache or EvalCache(cls)
    return cls[first_fit(cache.full, (cache.ok_mask(e.x, e.y) for e in sample))]


@dataclass(frozen=True)
class CompressedCot:
    """Kernel subsample plus index lists reconstructing the voter subsets."""

    kernel: CotSample
    side_info: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:  # the kernel size
        return len(self.kernel)

    def size_report(self, m_original: int) -> dict:
        """Index-list cost as stored, and the information-theoretic s*n*log m
        estimate for the side information, s the largest voter subset."""
        import math

        n = len(self.side_info)
        k = len(self.kernel)
        per_index = math.ceil(math.log2(k)) if k > 1 else 1
        index_bits = sum(len(a) for a in self.side_info) * per_index
        s = max((len(a) for a in self.side_info), default=0)
        info_bits = s * n * math.log2(m_original) if m_original > 1 else 0.0
        return {
            "kernel_size": k,
            "n_voters": n,
            "index_bits": index_bits,
            "info_bits_estimate": info_bits,
        }


@dataclass(frozen=True)
class MajorityGenerator(Generator):
    """Pointwise majority of voters; ties (even counts) resolve to 0."""

    voters: tuple[Generator, ...]
    horizon: int

    def __post_init__(self):
        if not self.voters:
            raise ValueError("need at least one voter")

    def step(self, x: str) -> str:
        ones = sum(1 for v in self.voters if v.step(x) == "1")
        return "1" if 2 * ones > len(self.voters) else "0"


@dataclass(frozen=True)
class CotHypothesis:
    """A next-bit generator iterated T times: maps a prompt to its trace."""

    generator: Generator
    T: int

    def __call__(self, x: str) -> str:
        return cot_trace(self.generator, x, self.T)

    def e2e(self, x: str) -> str:
        return self(x)[-1]


def _base_vc_estimate(cache: EvalCache, xs: Sequence[str]) -> int:
    """VC dimension of the base class on the distinct prompts, memoized by
    their set of next-bit masks."""
    return _base_vc_core(cache.full, frozenset(map(cache.ones, set(xs))))


@lru_cache(maxsize=4096)
def _base_vc_core(full: int, masks: frozenset) -> int:
    """The cell search with the generators of full as rows and each mask as
    a column; its value does not depend on the column order."""
    return _shatter(full.bit_length(), [[m, full ^ m] for m in masks])


def cot_compress(
    cls: FiniteClass,
    S: CotSample,
    rng_seed: int = 0,
    cache: EvalCache | None = None,
) -> CompressedCot:
    """Compress a realizable CoT sample to voter subsets A_1..A_n of size <= s
    each, such that the unweighted majority of the ERM voters h_j =
    erm(inflate(A_j)) labels every inflated example correctly; s is
    S_MULTIPLIER times the base VC estimate of the inflated prompts.

    Boosting over the inflated sample: each of at most BOOST_ROUNDS rounds
    draws s inflated examples from the current weight distribution, deflates
    them to original CoT examples, takes the ERM voter, and requires weighted
    error <= 1/3 (redrawing up to BOOST_RETRIES times); weights of
    misclassified examples are multiplied by WEIGHT_FACTOR and renormalized.
    Before the first round the first generator in class order (the ERM of
    the empty set) is tried, so trivially compressible inputs get n = 1,
    A_1 = empty. Deterministic for a fixed rng_seed.
    """
    cache = cache or EvalCache(cls)
    U = inflate(S)
    ok = [cache.ok_mask(e.x, e.y) for e in U]
    # the ERM of the whole sample; generator 0 is the ERM of the empty set
    if first_fit(cache.full, ok) == 0:
        return CompressedCot(CotSample((), S.T), ((),))

    s = S_MULTIPLIER * max(1, _base_vc_estimate(cache, [e.x for e in U]))
    # each origin's ok-mask: the AND over its T inflated examples
    org_ok = [reduce(and_, ok[o * S.T:(o + 1) * S.T]) for o in range(len(S))]

    rng = random.Random(rng_seed)
    mU = len(U)
    w = [1.0 / mU] * mU
    idx = list(range(mU))
    voters: list[tuple[tuple[int, ...], int]] = []
    votes1 = [0] * mU

    for _ in range(BOOST_ROUNDS):
        accepted = None
        for _attempt in range(BOOST_RETRIES):
            draw = rng.choices(idx, weights=w, k=s)
            origins = tuple(sorted({U[i].origin for i in draw}))
            g = first_fit(cache.full, (org_ok[o] for o in origins))
            errs = [i for i in idx if not ok[i] >> g & 1]
            if sum(w[i] for i in errs) <= 1.0 / 3.0:
                accepted = (origins, g, errs)
                break
        if accepted is None:
            raise BoostingFailed(
                f"retry cap {BOOST_RETRIES} exhausted; s={s} may be too small"
            )
        origins, g, errs = accepted
        voters.append((origins, g))
        for i in errs:
            w[i] *= WEIGHT_FACTOR
        tot = sum(w)
        w = [v / tot for v in w]
        n = len(voters)
        for i in idx:
            votes1[i] += cache.ones(U[i].x) >> g & 1
        if all(
            ("1" if 2 * votes1[i] > n else "0") == U[i].y for i in idx
        ):
            kernel_origins = sorted(set().union(*(o for o, _ in voters)))
            kernel = CotSample(tuple(S[i] for i in kernel_origins), S.T)
            pos = {o: j for j, o in enumerate(kernel_origins)}
            side = tuple(tuple(pos[o] for o in origins) for origins, _ in voters)
            return CompressedCot(kernel, side)
    raise BoostingFailed(f"no correct majority within {BOOST_ROUNDS} rounds")


def cot_reconstruct(
    cls: FiniteClass, c: CompressedCot, T: int, cache: EvalCache | None = None
) -> CotHypothesis:
    """Rebuild the ERM voters from the kernel and side information and return
    the T-step iteration of their pointwise majority."""
    cache = cache or EvalCache(cls)
    voters = []
    for idxs in c.side_info:
        sub = CotSample(tuple(c.kernel[i] for i in idxs), c.kernel.T)
        voters.append(erm(cls, inflate(sub), cache))
    maj = MajorityGenerator(tuple(voters), cls.horizon)
    return CotHypothesis(maj, T)


# ---------------------------------------------------------------------------
# Exact hard-margin separation and the stable compression lift.
# ---------------------------------------------------------------------------


def _solve_square(aug: list[list[int]]):
    """Fraction-free Gauss-Jordan (Bareiss) on an n x (n+1) augmented integer
    matrix: (det, nums) with the unique solution x_k = nums[k] / det and
    det > 0, or None if the system is singular. Every division is exact;
    aug is overwritten."""
    n = len(aug)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        rk = aug[k]
        pk = rk[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(pk * a - f * b) // prev for a, b in zip(aug[i], rk)]
        prev = pk
    sign = 1 if prev > 0 else -1
    return sign * prev, [sign * row[n] for row in aug]


@lru_cache(maxsize=8192)
def _margin_core(contents: tuple, d: int):
    """Exact max-margin separator of a canonical content set, with its support.

    contents is a sorted tuple of distinct ((0/1,)*d, label) pairs, labels
    s = +/-1. Subsets A of at most d+1 points are visited in (size, lex)
    order, and for each the dual KKT system in the unknowns (lambda_A, b)

        sum_j lambda_j s_j = 0,
        s_i (sum_j lambda_j s_j p_j.p_i + b) = 1      (i in A)

    is solved exactly. The first A whose system is nonsingular, with
    lambda >= 0 and margin >= 1 on every point, certifies the unique optimum
    w = sum_j lambda_j s_j p_j. Returns (params, support_contents), the
    support being that A; raises NotSeparable when no A qualifies.
    """
    pts = [p for p, _ in contents]
    sg = [1 if y == "1" else -1 for _, y in contents]
    # gram[i][j] = s_i s_j p_i.p_j, so margin_i = sum_j lambda_j gram[i][j] + s_i b
    gram = [
        [si * sj * sum(a * c for a, c in zip(pi, pj)) for pj, sj in zip(pts, sg)]
        for pi, si in zip(pts, sg)
    ]
    for size in range(1, d + 2):
        for A in itertools.combinations(range(len(pts)), size):
            aug = [[sg[j] for j in A] + [0, 0]]
            aug += [[gram[i][j] for j in A] + [sg[i], 1] for i in A]
            sol = _solve_square(aug)
            if sol is None:
                continue
            det, nums = sol
            lam, b = nums[:-1], nums[-1]
            if any(v < 0 for v in lam):
                continue
            if all(
                sum(v * gi[j] for v, j in zip(lam, A)) + si * b >= det
                for gi, si in zip(gram, sg)
            ):
                w = [
                    sum(v * sg[j] * pts[j][k] for v, j in zip(lam, A))
                    for k in range(d)
                ]
                params = LinearParams(
                    tuple(Fraction(v, det) for v in w), Fraction(b, det)
                )
                return params, tuple(contents[j] for j in A)
    raise NotSeparable("no margin-1 separator exists for the sample")


def max_margin(
    sample: Iterable[LabeledBit], d: int
) -> tuple[LinearParams, list[LabeledBit]]:
    """Exact maximum-margin separator of a binary sample in the d-bit tail
    encoding, plus the support set that determines it.

    The sample is reduced to its canonically sorted distinct (point, label)
    contents, and `_margin_core` returns the first (size, lex) subset of at
    most d+1 of them whose dual KKT system certifies the optimum. That
    support depends only on the contents, so the compression map is stable
    under deletion of non-support examples. A one-label sample comes out as
    the constant separator (w = 0, b = +/-1) supported on its canonically
    smallest point. Support representatives are chosen by lowest origin,
    which deletions of other examples preserve.

    The stable CoT scheme reads per-example contents instead
    (`_cot_contents`); this `LabeledBit` entry is the oracle it is tested
    against.
    """
    reps: dict[tuple, LabeledBit] = {}
    for e in sample:
        key = (tail_encoding(e.x, d), e.y)
        best = reps.get(key)
        if best is None or _rep_order(e) < _rep_order(best):
            reps[key] = e
    params, support_contents = _margin_core(_sorted_contents(reps), d)
    return params, [reps[c] for c in support_contents]


def _rep_order(e: LabeledBit):
    o = e.origin if e.origin is not None else -1
    return (o, e.x, e.y)


def _sorted_contents(contents: Iterable[tuple]) -> tuple:
    """Distinct (tail point, label) contents in canonical (sorted) order;
    raises NotSeparable when one point carries both labels."""
    contents = tuple(sorted(contents))
    seen = {}
    for p, y in contents:
        if seen.setdefault(p, y) != y:
            raise NotSeparable(f"contradictory labels at tail point {p}")
    return contents


@lru_cache(maxsize=1 << 14)
def _example_contents(x: str, y: str, d: int) -> tuple:
    """The T (tail point, label) pairs of one CoT example's inflation."""
    return tuple((tail_encoding(x + y[:t], d), y[t]) for t in range(len(y)))


def _cot_contents(S: CotSample, d: int) -> tuple[tuple, dict]:
    """The sorted distinct contents of inflate(S), and each content's lowest
    origin."""
    origin: dict[tuple, int] = {}
    for i, (x, y) in enumerate(S):
        for c in _example_contents(x, y, d):
            origin.setdefault(c, i)
    return _sorted_contents(origin), origin


def stable_compress_cot(S: CotSample, d: int) -> CotSample:
    """Kernel of the lifted stable scheme: the examples behind the max-margin
    support of the inflated sample, each support content taken from its
    lowest origin (the same kernel as deflating `max_margin`'s support).
    Size <= d+1; an empty sample has the empty kernel."""
    if len(S) == 0:
        return S
    contents, origin = _cot_contents(S, d)
    _, support = _margin_core(contents, d)
    return CotSample(tuple(S[i] for i in sorted({origin[c] for c in support})), S.T)


def stable_reconstruct_cot(K: CotSample, d: int, T: int) -> CotHypothesis:
    """T-step iteration of the max-margin separator of the inflated kernel.

    An empty kernel reconstructs to the constant-1 rule (w = 0, b = 1)."""
    if len(K) == 0:
        params = LinearParams.of((0,) * d, 1)
    else:
        params, _ = _margin_core(_cot_contents(K, d)[0], d)
    return CotHypothesis(make_linear_generator(params, HYPOTHESIS_HORIZON), T)

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
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .classes import LinearParams, make_linear_generator, tail_encoding
from .core import EvalCache, FiniteClass, Generator, cot_trace, first_index
from .dims import _shatter
from .errors import (
    BoostingFailed,
    NotRealizable,
    NotSeparable,
    OriginMissing,
)

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


def realizes_cot(f: Generator, S: CotSample) -> bool:
    return all(cot_trace(f, x, S.T) == y for x, y in S)


def check_realizable(cls: FiniteClass, S: CotSample) -> int:
    """Index of the first generator whose CoT map is consistent with S."""
    for i, f in enumerate(cls):
        if realizes_cot(f, S):
            return i
    raise NotRealizable("no generator in the class produces every trace in S")


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
    mask = cache.full
    for e in sample:
        mask &= cache.ok_mask(e.x, e.y)
        if not mask:
            raise NotRealizable("no generator consistent with the binary sample")
    if not mask:
        raise NotRealizable("class is empty")
    return cls[first_index(mask)]


@dataclass(frozen=True)
class CompressedCot:
    """Kernel subsample plus index lists reconstructing the voter subsets."""

    kernel: CotSample
    side_info: tuple[tuple[int, ...], ...]

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
    kind = "majority"

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
    """VC dimension of the base class on the distinct prompts: the cell
    search with generators as rows and each prompt's next-bit mask as a
    column."""
    cols = [[m, cache.full ^ m] for m in map(cache.ones, dict.fromkeys(xs))]
    return _shatter(len(cache.cls), cols)


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
    consistent = cache.full
    for m in ok:
        consistent &= m
    if not consistent:
        raise NotRealizable("sample is not realizable by the class")

    if all(m & 1 for m in ok):
        return CompressedCot(CotSample((), S.T), ((),))

    s = S_MULTIPLIER * max(1, _base_vc_estimate(cache, [e.x for e in U]))

    org_mask = {}
    for e, m in zip(U, ok):
        org_mask[e.origin] = org_mask.get(e.origin, cache.full) & m

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
            mask = cache.full
            for o in origins:
                mask &= org_mask[o]
            g = first_index(mask)
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


def _solve_affine(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Exact solution set of a linear system: (particular, null_basis), or
    None if inconsistent. Unknown count is len(rows[0])."""
    n = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][c]
        aug[r] = [v / scale for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = aug[i][n]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return particular, basis


def _min_norm_solution(rows, rhs, d):
    """Minimize ||w||^2 (first d coordinates) over the affine solution set of
    the system; returns (w, b) or None if the system is inconsistent."""
    sol = _solve_affine(rows, rhs)
    if sol is None:
        return None
    v0, basis = sol
    if basis:
        gram = [
            [sum(bi[k] * bj[k] for k in range(d)) for bj in basis] for bi in basis
        ]
        rhs2 = [-sum(v0[k] * bi[k] for k in range(d)) for bi in basis]
        tsol = _solve_affine(gram, rhs2)
        if tsol is None:
            return None
        t, tbasis = tsol
        if tbasis:
            # norm not pinned down in (w, b); cannot determine a hyperplane
            return None
        v0 = [
            v0[k] + sum(t[j] * basis[j][k] for j in range(len(basis)))
            for k in range(len(v0))
        ]
    return tuple(v0[:d]), v0[d]


@lru_cache(maxsize=8192)
def _margin_core(contents: tuple, d: int):
    """Exact max-margin solution for a canonical content set.

    contents is a sorted tuple of ((0/1,)*d, label) pairs with both labels
    present. Returns (params, support_contents) where support_contents is the
    first (size, lex) subset of tight points carrying a nonnegative dual
    representation of the optimum.
    """
    signed = [
        (tuple(Fraction(v) for v in p), Fraction(1 if y == "1" else -1), (p, y))
        for p, y in contents
    ]
    best = None  # (norm2, w, b)
    for size in range(1, d + 2):
        for subset in itertools.combinations(range(len(signed)), size):
            rows = []
            rhs = []
            for i in subset:
                p, sg, _ = signed[i]
                rows.append([sg * v for v in p] + [sg])
                rhs.append(Fraction(1))
            got = _min_norm_solution(rows, rhs, d)
            if got is None:
                continue
            w, b = got
            if all(
                sg * (sum(wi * pi for wi, pi in zip(w, p)) + b) >= 1
                for p, sg, _ in signed
            ):
                norm2 = sum(v * v for v in w)
                if best is None or norm2 < best[0]:
                    best = (norm2, w, b)
    if best is None:
        raise NotSeparable("no margin-1 separator exists for the sample")
    _, w, b = best

    tight = [
        i
        for i, (p, sg, _) in enumerate(signed)
        if sg * (sum(wi * pi for wi, pi in zip(w, p)) + b) == 1
    ]
    for size in range(1, d + 2):
        for subset in itertools.combinations(tight, size):
            # lambda >= 0 with sum l_i sg_i p_i = w and sum l_i sg_i = 0
            rows = [
                [signed[i][1] * signed[i][0][k] for i in subset] for k in range(d)
            ]
            rows.append([signed[i][1] for i in subset])
            rhs = [Fraction(v) for v in w] + [Fraction(0)]
            sol = _solve_affine(rows, rhs)
            if sol is None:
                continue
            lam, basis = sol
            if basis:
                continue  # a smaller or equal independent subset exists first
            if all(l >= 0 for l in lam):
                return LinearParams(tuple(w), b), tuple(
                    signed[i][2] for i in subset
                )
    raise AssertionError("optimum must have a Caratheodory support")


def max_margin(
    sample: Iterable[LabeledBit | tuple], d: int
) -> tuple[LinearParams, list[LabeledBit]]:
    """Exact maximum-margin separator of a binary sample in the d-bit tail
    encoding, plus the minimal support set that determines it.

    Candidate support subsets of size <= d+1 are scanned in (size, lex) order
    over the canonically sorted distinct points; each induces the minimum-norm
    solution with its constraints tight, and the valid candidate of maximum
    margin is the global optimum. The reported support is the first subset of
    tight points carrying a nonnegative dual representation of the optimum,
    which makes the compression map stable under deletion of non-support
    examples. One-class samples get the constant separator (w = 0, b = +/-1)
    supported on the canonically smallest example. Support representatives
    are chosen by lowest origin, which deletions of other examples preserve.
    """
    exs = [e if isinstance(e, LabeledBit) else LabeledBit(*e) for e in sample]
    reps: dict[tuple, LabeledBit] = {}
    for e in exs:
        key = (tail_encoding(e.x, d), e.y)
        best = reps.get(key)
        if best is None or _rep_order(e) < _rep_order(best):
            reps[key] = e
    contents = tuple(sorted(reps, key=lambda k: (k[0], k[1])))
    seen = {}
    for p, y in contents:
        if seen.setdefault(p, y) != y:
            raise NotSeparable(f"contradictory labels at tail point {p}")

    labels = {y for _, y in contents}
    if len(labels) == 1:
        y = next(iter(labels))
        params = LinearParams.of((0,) * d, 1 if y == "1" else -1)
        return params, [reps[contents[0]]]

    params, support_contents = _margin_core(contents, d)
    return params, [reps[c] for c in support_contents]


def _rep_order(e: LabeledBit):
    o = e.origin if e.origin is not None else -1
    return (o, e.x, e.y)


def stable_compress_cot(S: CotSample, d: int) -> CotSample:
    """Kernel of the lifted stable scheme: deflate the max-margin support of
    the inflated sample. Size <= d+1; an empty sample has the empty kernel."""
    if len(S) == 0:
        return S
    params, support = max_margin(inflate(S), d)
    return deflate(support, S)


def stable_reconstruct_cot(K: CotSample | None, d: int, T: int) -> CotHypothesis:
    """T-step iteration of the max-margin separator of the inflated kernel.

    An empty kernel reconstructs to the constant-1 rule (w = 0, b = 1)."""
    if K is None or len(K) == 0:
        params = LinearParams.of((0,) * d, 1)
    else:
        params, _ = max_margin(inflate(K), d)
    return CotHypothesis(make_linear_generator(params, HYPOTHESIS_HORIZON), T)

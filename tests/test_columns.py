"""Closed-form next-bit masks, the trace-partition walk and restriction
through generator-bitmask columns, each tied to its per-generator loop:
ones_by_step for the mask rules, cot_trace/e2e_output per generator for the
walk's realized trees and e2e tables, and the trace-per-generator loop that
restrict_base/e2e/cot keep for classes without a rule."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from arlab import classes, core, dims, harness
from arlab.classes import (
    IntervalSet,
    make_full_class,
    make_parity_class,
    make_product_class,
    make_shifted_subset_class,
)
from arlab.core import (
    EvalCache,
    FiniteClass,
    SequenceGenerator,
    cot_trace,
    e2e_output,
    first_index,
    ones_by_step,
    realized_trace_tree,
    trace_blocks,
)
from arlab.dims import (
    atdim_realized,
    chain_domain,
    restrict_base,
    restrict_cot,
    restrict_e2e,
    vc_dimension,
)
from arlab.errors import HorizonExceeded, NotRealizable
from arlab.learners import CotSample, erm, inflate
from conftest import ConstantGenerator

FULL6 = make_full_class(6)


def full6_subsets(max_size=64):
    """Members of the full class at H=6, in sorted or drawn (shuffled) order."""

    def build(draw):
        idx, in_order = draw
        return FiniteClass(tuple(FULL6[i] for i in (sorted(idx) if in_order else idx)), 6)

    members = st.lists(st.integers(0, 63), unique=True, max_size=max_size)
    return st.tuples(members, st.booleans()).map(build)


def shifted_classes(max_points=4, max_shift=3):
    @st.composite
    def draw(draw):
        pts = draw(st.lists(st.integers(1, 4), unique=True, max_size=max_points))
        s_max = draw(st.integers(0, max_shift))
        N = IntervalSet(tuple(sorted(pts)))
        H = draw(st.integers(max(2, N.bound + s_max), 8))
        return make_shifted_subset_class(N, s_max, H)

    return draw()


def parity_classes(max_k=5):
    @st.composite
    def draw(draw):
        k = draw(st.integers(1, max_k))
        return make_parity_class(k, draw(st.integers(k + 2, 9)))

    return draw()


def product_classes():
    part = st.one_of(
        full6_subsets(max_size=6), shifted_classes(2, 1), parity_classes(max_k=2)
    )
    return st.lists(part, min_size=1, max_size=3).filter(
        lambda ps: _size(ps) <= 128
    ).map(make_product_class)


def _size(parts):
    n = 1
    for p in parts:
        n *= len(p)
    return n


ruled_classes = st.one_of(
    full6_subsets(), shifted_classes(), parity_classes(), product_classes()
)


def prompts_within(cls):
    """Every prompt shorter than the horizon, up to length 8."""
    for n in range(min(cls.horizon, 9)):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


@settings(max_examples=60, deadline=None)
@given(ruled_classes)
def test_mask_rule_matches_step_loop(cls):
    rule = cls.mask_rule
    if not len(cls):
        assert rule is None
        return
    assert rule is not None
    for x in prompts_within(cls):
        assert rule(x) == ones_by_step(cls, x), x


def _restrictions(cls, domain, T, loop_max):
    with mock.patch.object(dims, "LOOP_MAX_CLASS", loop_max):
        return (
            restrict_base(cls, domain),
            restrict_e2e(cls, domain, T),
            restrict_cot(cls, domain, T),
        )


def _columns(cls, domain, T):
    return _restrictions(cls, domain, T, -1)


def _loop(cls, domain, T):
    return _restrictions(cls, domain, T, float("inf"))


@st.composite
def restriction_cases(draw):
    cls = draw(st.one_of(ruled_classes, st.just(FiniteClass((), 6))))
    T = draw(st.integers(1, min(cls.horizon - 1, 4)))
    prompt = st.text(alphabet="01", max_size=cls.horizon - T)
    domain = draw(st.lists(prompt, unique=True, max_size=5))
    return cls, tuple(domain), T


@settings(max_examples=80, deadline=None)
@given(restriction_cases())
def test_column_restriction_matches_loop(case):
    cls, domain, T = case
    assert _columns(cls, domain, T) == _loop(cls, domain, T)


def test_restriction_edge_cases():
    empty = FiniteClass((), 6)
    for cls, domain in ((FULL6, ()), (empty, ()), (empty, ("0", "1"))):
        assert _columns(cls, domain, 2) == _loop(cls, domain, 2)
    assert _columns(FULL6, (), 2) == ({()},) * 3
    # T < 1 fails on the first evaluation, so only with a prompt and a class
    for run in (_columns, _loop):
        with pytest.raises(ValueError):
            run(FULL6, ("0",), 0)
        assert run(FULL6, (), 0) == ({()},) * 3
        assert run(empty, ("0",), 0) == (frozenset(),) * 3


def test_constructions_own_their_rules():
    # the rules live on the class, built on first use, not by the constructor
    part = make_shifted_subset_class(IntervalSet((1, 3)), 2, 8)
    prod = make_product_class([part, make_parity_class(2, 8)])
    assert isinstance(prod, classes.ProductClass)
    assert isinstance(make_parity_class(2, 8), classes.ParityClass)
    for cls in (part, prod, make_parity_class(2, 8)):
        assert "mask_rule" not in vars(cls)
        assert cls.mask_rule is not None
    assert FiniteClass(prod.generators, prod.horizon).mask_rule is None
    # a product's parts are not part of its identity
    assert prod == classes.ProductClass(prod.generators, prod.horizon)
    # the hash is the dataclass's value, kept once computed
    for cls in (part, prod, make_parity_class(2, 8)):
        assert hash(cls) == hash((cls.generators, cls.horizon))
        assert vars(cls)["_hash"] == hash(cls)
    again = make_product_class([make_shifted_subset_class(IntervalSet((1, 3)), 2, 8),
                                make_parity_class(2, 8)])
    assert again is not prod and again == prod and hash(again) == hash(prod)
    plain = FiniteClass(prod.generators, prod.horizon)
    assert hash(plain) == hash(prod) and plain != prod


FULL_ANCHORS = (11, 20, 36, 64, 112)


def test_full_class_columns_never_call_step(monkeypatch):
    full = make_full_class(16)
    dom = chain_domain(10)

    def step_called(self, x):
        raise AssertionError("the column path must not call Generator.step")

    monkeypatch.setattr(SequenceGenerator, "step", step_called)
    pats = restrict_e2e(full, dom, 5)
    assert len(pats) == 112 and vc_dimension(pats) == 5
    got = [len(restrict_e2e(full, dom, T)) for T in range(1, 6)]
    assert tuple(got) == FULL_ANCHORS
    assert [vc_dimension(restrict_e2e(full, dom, T)) for T in range(1, 6)] == [1, 2, 3, 4, 5]


def test_loop_oracle_calls_no_rule_helper(monkeypatch):
    cases = [
        (make_full_class(8), chain_domain(5), 3),
        (make_product_class([make_shifted_subset_class(IntervalSet((1, 3)), 2, 8)] * 2),
         tuple(p + "0" * t for p in classes.relocation_prefixes(2) for t in range(1, 4)), 2),
        (make_parity_class(4, 16), ("01", "001", "0001", "00001", "011", "11"), 3),
    ]
    want = [_columns(cls, dom, T) for cls, dom, T in cases]
    masks = [[cls.mask_rule(x) for x in dom] for cls, dom, _ in cases]

    def rule_called(*args, **kwargs):
        raise AssertionError("the loop oracle must not use a mask rule")

    for name in ("trace_blocks", "e2e_ones"):
        monkeypatch.setattr(core, name, rule_called)
    for name in ("trace_blocks", "e2e_ones", "_refine", "_bits"):
        monkeypatch.setattr(dims, name, rule_called)
    monkeypatch.setattr(core, "sequence_mask_rule", rule_called)
    for cls_type in (FiniteClass, classes.ProductClass, classes.ParityClass):
        monkeypatch.setattr(cls_type, "mask_rule", property(rule_called))
    assert [_loop(cls, dom, T) for cls, dom, T in cases] == want
    assert [[ones_by_step(cls, x) for x in dom] for cls, dom, _ in cases] == masks


# ---------------------------------------------------------------------------
# The trace-partition walk: realized trees, e2e tables, and e2e and CoT ERM
# ---------------------------------------------------------------------------

LINEAR = {d: classes.enumerate_linear_class(d, 1, 8) for d in (1, 2)}
BRANCH = classes.make_atdim_example_class(2, 10)


@st.composite
def ruleless_classes(draw):
    """Classes without a mask rule, members drawn in any order: constants
    and sequence followers mixed, linear grids, the branch class."""
    kind = draw(st.sampled_from(["mixed", "linear", "branch"]))
    if kind == "mixed":
        gens = st.one_of(
            st.sampled_from([ConstantGenerator("0", 6), ConstantGenerator("1", 6)]),
            st.sampled_from(FULL6.generators),
        )
        return FiniteClass(tuple(draw(st.lists(gens, max_size=12))), 6)
    pool = LINEAR[draw(st.sampled_from([1, 2]))] if kind == "linear" else BRANCH
    idx = draw(st.permutations(range(len(pool))))[: draw(st.integers(0, len(pool)))]
    return FiniteClass(tuple(pool[i] for i in idx), pool.horizon)


@st.composite
def walk_cases(draw):
    cls = draw(st.one_of(ruled_classes, ruleless_classes()))
    T = draw(st.integers(1, min(cls.horizon - 1, 4)))
    prompt = st.text(alphabet="01", max_size=cls.horizon - T)
    support = tuple(draw(st.lists(prompt, unique=True, min_size=1, max_size=4)))
    labels = st.tuples(st.integers(0, 3), st.booleans(), st.integers(0, 15))
    return cls, support, T, draw(st.lists(labels, max_size=6))


@settings(max_examples=80, deadline=None)
@given(walk_cases())
def test_walk_matches_per_generator_definitions(case):
    cls, support, T, draws = case
    traces = [[cot_trace(f, x, T) for x in support] for f in cls]
    for i, x in enumerate(support):
        lowest: dict[str, int] = {}
        for g, row in enumerate(traces):
            lowest.setdefault(row[i], g)
        tree = realized_trace_tree(cls, x, T)
        assert {p for p in tree if len(p) == T} == set(lowest)
        # each block, in trace order, keeps the lowest generator of its trace
        blocks = trace_blocks(EvalCache(cls), x, T)
        assert [(t, first_index(v)) for t, v in blocks] == sorted(lowest.items())
    table = harness._e2e_table(cls, T, support)
    for g, f in enumerate(cls):
        assert [m >> g & 1 for m in table] == [e2e_output(f, x, T) == "1" for x in support]
    draws = [(i % len(support), bit, j) for i, bit, j in draws]
    # e2e ERM: the first generator whose final bits fit the sample
    sampled = [(i, "1" if bit else "0") for i, bit, _ in draws]
    fits = [g for g, row in enumerate(traces) if all(row[i][-1] == y for i, y in sampled)]
    if fits:
        assert harness.erm_e2e(len(cls), table, sampled) == fits[0]
    else:
        with pytest.raises(NotRealizable):
            harness.erm_e2e(len(cls), table, sampled)
    # CoT ERM: the first generator whose steps fit every inflated example of
    # a sample of generator j's traces, the last bit flipped when bit is set
    rows = traces or [["0" * T] * len(support)]
    examples = []
    for i, bit, j in draws:
        t = rows[j % len(rows)][i]
        examples.append((support[i], t[:-1] + str(int(t[-1]) ^ bit)))
    U = inflate(CotSample(tuple(examples), T))
    fits = [g for g, f in enumerate(cls) if all(f.step(e.x) == e.y for e in U)]
    if fits:
        assert erm(cls, U) is cls[fits[0]]
    else:
        with pytest.raises(NotRealizable):
            erm(cls, U)


@st.composite
def tree_cases(draw):
    linear = st.sampled_from([LINEAR[1], LINEAR[2]])
    cls = draw(st.one_of(ruled_classes, linear, st.just(FiniteClass((), 6))))
    T = draw(st.integers(1, min(cls.horizon - 1, 4)))
    return cls, draw(st.text(alphabet="01", max_size=cls.horizon - T)), T


@settings(max_examples=40, deadline=None)
@given(tree_cases())
def test_realized_tree_is_prefix_closure_of_traces(case):
    cls, x, T = case
    traces = {cot_trace(f, x, T) for f in cls}
    want = {""} | {t[:i] for t in traces for i in range(1, T + 1)}
    assert realized_trace_tree(cls, x, T) == want


def test_walk_edge_cases():
    empty = FiniteClass((), 6)
    # T < 1 fails only for a nonempty class; the horizon is checked first
    with pytest.raises(ValueError, match="T must be >= 1"):
        realized_trace_tree(FULL6, "0", 0)
    with pytest.raises(ValueError, match="T must be >= 1"):
        harness._e2e_table(FULL6, 0, ("0",))
    assert realized_trace_tree(empty, "0", 0) == {""}
    assert harness._e2e_table(empty, 0, ("0", "1")) == (0, 0)
    with pytest.raises(HorizonExceeded, match=r"\|x\|\+T=7 > horizon=6"):
        realized_trace_tree(empty, "00000", 2)
    with pytest.raises(HorizonExceeded, match=r"\|x\|\+T=7 > horizon=6"):
        harness._e2e_table(FULL6, 2, ("0", "00000"))


def test_walk_steps_each_generator_once_per_depth(monkeypatch):
    cls = classes.enumerate_linear_class(2, 2, 16)
    assert cls.mask_rule is None
    calls = [0]
    step = type(cls[0]).step

    def counted(self, x):
        calls[0] += 1
        return step(self, x)

    monkeypatch.setattr(type(cls[0]), "step", counted)
    T = 6
    for x in ("", "0", "1", "0110"):
        calls[0] = 0
        tree = realized_trace_tree(cls, x, T)
        assert calls[0] <= len(cls) * T
        # more than T inner nodes: stepping the whole class at each would exceed it
        assert sum(len(p) < T for p in tree) > T
        calls[0] = 0
        harness._e2e_table.__wrapped__(cls, T, (x,))
        assert calls[0] <= len(cls) * T


def test_walk_never_steps_a_ruled_class(monkeypatch):
    full = make_full_class(16)
    T = 3
    x = "01"  # generators off this prompt trace 000, the others follow it
    lowest: dict[str, int] = {}
    ones = 0
    for g, f in enumerate(full):
        trace = cot_trace(f, x, T)
        lowest.setdefault(trace, g)
        ones |= (trace[-1] == "1") << g

    def step_called(self, x):
        raise AssertionError("a class with a mask rule must not call Generator.step")

    monkeypatch.setattr(SequenceGenerator, "step", step_called)
    assert {p for p in realized_trace_tree(full, x, T) if len(p) == T} == set(lowest)
    blocks = trace_blocks(EvalCache(full), x, T)
    assert [(t, first_index(v)) for t, v in blocks] == sorted(lowest.items())
    assert harness._e2e_table.__wrapped__(full, T, (x,)) == (ones,)
    assert atdim_realized(full, chain_domain(10), 5) == 5

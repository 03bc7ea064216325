"""Closed-form next-bit masks and restriction through generator-bitmask
columns, each tied to its per-generator loop: ones_by_step for the mask
rules, and the trace-per-generator loop that restrict_base/e2e/cot keep for
classes without a rule."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from arlab import classes, core, dims
from arlab.classes import (
    IntervalSet,
    make_full_class,
    make_parity_class,
    make_product_class,
    make_shifted_subset_class,
)
from arlab.core import FiniteClass, SequenceGenerator, ones_by_step
from arlab.dims import chain_domain, restrict_base, restrict_cot, restrict_e2e, vc_dimension

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

    for name in ("_trace_blocks", "_refine", "_bits"):
        monkeypatch.setattr(dims, name, rule_called)
    monkeypatch.setattr(core, "sequence_mask_rule", rule_called)
    for cls_type in (FiniteClass, classes.ProductClass, classes.ParityClass):
        monkeypatch.setattr(cls_type, "mask_rule", property(rule_called))
    assert [_loop(cls, dom, T) for cls, dom, T in cases] == want
    assert [[ones_by_step(cls, x) for x in dom] for cls, dom, _ in cases] == masks

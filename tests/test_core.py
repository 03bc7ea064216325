"""Core generator evaluation, traces, and generation trees."""

import pytest
from hypothesis import given, settings, strategies as st

from arlab.core import (
    EvalCache,
    FiniteClass,
    SequenceGenerator,
    cot_trace,
    e2e_output,
    first_index,
    realized_trace_tree,
    trace_blocks,
)
from arlab.dims import tree_leaves
from arlab.classes import make_atdim_example_class, make_full_class, make_parity_class
from arlab.errors import HorizonExceeded
from conftest import ConstantGenerator, apply_and_append, full_generation_tree

H = 16
const0 = ConstantGenerator("0", H)
const1 = ConstantGenerator("1", H)


def alt_seq(h):
    # "0101..." truncated to length h
    return ("01" * h)[:h]


def test_apply_and_append_constant():
    assert apply_and_append(const0, "10") == "100"
    assert apply_and_append(const1, "") == "1"


def test_apply_and_append_sequence_follower():
    f = SequenceGenerator(alt_seq(H), H)
    # "0" is a prefix of 0101..., next bit is a_2 = 1
    assert apply_and_append(f, "0") == "01"


def test_apply_and_append_horizon():
    with pytest.raises(HorizonExceeded):
        apply_and_append(const0, "0" * H)


def test_cot_trace_constant():
    assert cot_trace(const1, "0", 3) == "111"


def test_cot_trace_sequence_two_steps():
    f = SequenceGenerator(alt_seq(H), H)
    # step 1: "0" -> "01"; step 2 reads a_3 = 0
    assert cot_trace(f, "0", 2) == "10"


def test_cot_trace_parity_question():
    # from Q_2 the trace alternates (b_2, 0, b_2)
    cls = make_parity_class(4, H=32)
    for f in cls:
        b2 = f.b[1]
        assert cot_trace(f, "001", 3) == b2 + "0" + b2


def test_cot_trace_horizon():
    with pytest.raises(HorizonExceeded):
        cot_trace(const0, "0" * (H - 1), 2)
    with pytest.raises(ValueError):
        cot_trace(const0, "0", 0)


def test_e2e_constant():
    for x in ("", "0", "1101"):
        for T in (1, 2, 5):
            assert e2e_output(const0, x, T) == "0"


def test_e2e_parity_even_odd():
    # the trace from a question prompt is (b_k 0)^{T/2} at even T
    cls = make_parity_class(5, H=64)
    for f in cls:
        for k in (1, 3, 5):
            q = "0" * k + "1"
            assert cot_trace(f, q, 4) == (f.b[k - 1] + "0") * 2
            assert e2e_output(f, q, 4) == "0"
            assert e2e_output(f, q, 2) == "0"
            assert e2e_output(f, q, 3) == f.b[k - 1]
            assert e2e_output(f, q, 5) == f.b[k - 1]


def traces(tree, T):
    """The realized traces of a length-T realized tree: its paths of length T."""
    return {p for p in tree if len(p) == T}


def test_realized_trace_tree_constants():
    cls = FiniteClass((const0, const1), H)
    tree = realized_trace_tree(cls, "", 2)
    assert traces(tree, 2) == {"00", "11"}
    assert tree == {"", "0", "1", "00", "11"}


def test_realized_trace_tree_full_class():
    cls = make_full_class(8)
    tree = realized_trace_tree(cls, "0", 2)
    assert traces(tree, 2) == {"00", "01", "10", "11"}
    assert tree == full_generation_tree(2)


def test_realized_trace_tree_atdim_right_collapse():
    # branch functions are constant 0 off the all-zero spine, so no realized
    # branch that starts with 1 ever branches again
    cls = make_atdim_example_class(3, H=32)
    tree = realized_trace_tree(cls, "0", 3)
    right = [b for b in traces(tree, 3) if b[0] == "1"]
    assert right == ["1" + "0" * 2]


def test_realized_trace_tree_witnesses():
    # each trace block's first generator (the ERM tie-break) produces its trace
    cls = make_full_class(8)
    blocks = trace_blocks(EvalCache(cls), "0", 3)
    assert {trace for trace, _ in blocks} == traces(realized_trace_tree(cls, "0", 3), 3)
    for trace, version in blocks:
        assert cot_trace(cls[first_index(version)], "0", 3) == trace


def test_full_generation_tree_figure():
    # the depth-2 tree below prompt "0": 7 nodes, 4 leaves
    t = full_generation_tree(2)
    assert len(t) == 7
    assert {"0" + p for p in tree_leaves(t)} == {"000", "001", "010", "011"}


def test_full_generation_tree_small():
    assert full_generation_tree(0) == {""}
    assert {"1" + p for p in full_generation_tree(1)} == {"1", "10", "11"}
    with pytest.raises(ValueError):
        full_generation_tree(-1)


def test_trie_paths_prefix_closed():
    cls = FiniteClass((const0, const1), H)
    tree = realized_trace_tree(cls, "0", 3)
    for p in tree:
        if p:
            assert p[:-1] in tree


generators = st.one_of(
    st.just(const0),
    st.just(const1),
    st.text(alphabet="01", min_size=H, max_size=H).map(
        lambda s: SequenceGenerator(s, H)
    ),
)


@settings(max_examples=120, deadline=None)
@given(generators, st.text(alphabet="01", max_size=6), st.integers(1, 6))
def test_trace_laws(f, x, T):
    tr = cot_trace(f, x, T)
    assert len(tr) == T
    assert apply_and_append(f, x) == x + f.step(x)
    if T >= 2:
        assert tr[: T - 1] == cot_trace(f, x, T - 1)
    # determinism
    assert cot_trace(f, x, T) == tr
    assert e2e_output(f, x, T) == tr[-1]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(generators, min_size=1, max_size=6),
    st.text(alphabet="01", max_size=4),
    st.integers(1, 5),
)
def test_trace_trie_sound_and_complete(gens, x, T):
    cls = FiniteClass(tuple(gens), H)
    tree = realized_trace_tree(cls, x, T)
    assert traces(tree, T) == {cot_trace(f, x, T) for f in cls}
    assert all(len(p) <= T for p in tree)

"""Unit tests of the benchmark's tracer.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from tracer import Span, Tracer, busy_time, self_times, union_length  # noqa: E402


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(1, 3), (2, 5), (7, 8)], 2.5, 7.5) == pytest.approx(3.0)
    assert union_length([], 0, 10) == 0


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] holds two children and 0.5 s of leaf calls; child a
    # [1, 4] holds a grandchild [2, 3]; child b [3.5, 6] overlaps a, so the
    # root's covered part is the union [1, 6], not 3 + 2.5.
    spans = [
        Span("root", 0.0, 10.0, None, 0, leaf_s=0.5),
        Span("a", 1.0, 4.0, 0, 0),
        Span("g", 2.0, 3.0, 1, 0, leaf_s=0.25),
        Span("b", 3.5, 6.0, 0, 0, leaf_s=1.0),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 0.5, 3 - 1, 1 - 0.25, 2.5 - 1.0])


def test_busy_time_counts_nested_spans_of_a_layer_once():
    spans = [
        Span("classes.build", 0.0, 4.0, None, -1),
        Span("classes.build", 1.0, 2.0, 0, -1),
        Span("classes.build", 6.0, 7.0, None, -1),
    ]
    assert busy_time(spans, "classes.build") == 5.0
    assert busy_time(spans, "dims.restrict") == 0.0


def test_install_counts_calls_and_restore_puts_originals_back():
    from arlab import classes, core, dims

    originals = (dims.e2e_output, dims.restrict_e2e, core.cot_trace)
    tracer = Tracer()
    tracer.install()
    try:
        cls = classes.make_full_class(4)
        pats = dims.restrict_e2e(cls, ("0", "00"), 2)
    finally:
        tracer.restore()
    assert (dims.e2e_output, dims.restrict_e2e, core.cot_trace) == originals
    # 16 generators x 2 prompts, each one e2e_output call; e2e_output's own
    # call to cot_trace inside core is not counted again
    assert tracer.leaves["core.eval"][0] == 32
    names = [s.name for s in tracer.finished()]
    assert names == ["classes.build", "dims.restrict"]
    restrict = tracer.finished()[1]
    assert restrict.info == len(pats)
    assert 0 < restrict.leaf_s <= restrict.end - restrict.start

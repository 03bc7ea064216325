"""The benchmark under perfbench/ builds its workloads from arlab's public
and cache names; build each workload, run one cheap op of it and read the
cache counters, so that renaming a name the benchmark uses fails here."""

import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "name, op_name",
    [
        ("dims", "F13/chain3/T0/vc_base"),
        ("trees", "small/0"),
        ("pac", "cot/0"),
        ("pac", "linear/0"),
    ],
)
def test_workload_builds_and_runs_one_op(name, op_name):
    ops = {op.name: op for op in workloads.build(name, 1, nullcontext)}
    op = ops[op_name]
    assert op.check(op.run())


def test_cache_counts_reads_every_cache():
    counts = worker.cache_counts()
    assert sorted(counts) == sorted(
        f"{name}.{kind}" for name in worker.CACHES for kind in ("hits", "misses")
    )
    assert all(isinstance(v, int) for v in counts.values())


def test_every_dims_op_matches_reference():
    # a change to any benchmark class's pattern set or dimension fails here
    ops = workloads.build("dims", 1, nullcontext)
    assert sorted(op.name for op in ops) == sorted(reference.DIMS)
    wrong = [op.name for op in ops if not op.check(op.run())]
    assert not wrong

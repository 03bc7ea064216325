"""Inflation, ERM, the boosting compression scheme, and the stable
max-margin lift."""

import random
from fractions import Fraction

import pytest

from arlab import verify
from arlab.classes import (
    IntervalSet,
    enumerate_linear_class,
    make_shifted_subset_class,
)
from arlab.core import ConstantGenerator, FiniteClass, cot_trace
from arlab.errors import NotRealizable, NotSeparable, OriginMissing
from arlab.learners import (
    CotSample,
    EvalCache,
    LabeledBit,
    MajorityGenerator,
    check_realizable,
    cot_compress,
    cot_reconstruct,
    deflate,
    erm,
    inflate,
    max_margin,
    realizes_cot,
    stable_compress_cot,
    stable_reconstruct_cot,
)

H = 16
const0 = ConstantGenerator("0", H)
const1 = ConstantGenerator("1", H)
both = FiniteClass((const0, const1), H)


def small_class():
    return make_shifted_subset_class(IntervalSet((1, 3)), s_max=3, H=12)


# -- inflation / deflation ---------------------------------------------------


def test_inflate_example():
    S = CotSample((("0", "101"),), 3)
    assert inflate(S) == [
        LabeledBit("0", "1", 0),
        LabeledBit("01", "0", 0),
        LabeledBit("010", "1", 0),
    ]


def test_inflate_size_and_t1():
    S = CotSample((("0", "1"), ("11", "0")), 1)
    infl = inflate(S)
    assert len(infl) == 2
    assert [(e.x, e.y) for e in infl] == [("0", "1"), ("11", "0")]
    S2 = CotSample((("0", "10"), ("", "01"), ("1", "11")), 2)
    assert len(inflate(S2)) == 6


def test_inflation_consistency_equivalence():
    cls = small_class()
    rng = random.Random(1)
    pool = ["", "0", "00", "01", "1"]
    for _ in range(30):
        S, _ = verify.random_realizable_cot_sample(cls, rng, 3, 3, pool)
        infl = inflate(S)
        for f in cls:
            base_ok = all(f.step(e.x) == e.y for e in infl)
            assert base_ok == realizes_cot(f, S)


def test_deflate():
    S = CotSample((("0", "10"), ("1", "00"), ("00", "01")), 2)
    infl = inflate(S)
    assert deflate([], S).examples == ()
    assert deflate([infl[2]], S).examples == (("1", "00"),)
    sub = deflate(infl[0:3], S)
    assert len(sub) <= 3
    with pytest.raises(OriginMissing):
        deflate([LabeledBit("0", "1", None)], S)


# -- ERM ---------------------------------------------------------------------


def test_erm_examples():
    assert erm(both, []) is const0
    assert erm(both, [LabeledBit("", "1")]) is const1
    with pytest.raises(NotRealizable):
        erm(both, [LabeledBit("", "1"), LabeledBit("0", "0")])


def test_erm_deflate_inflate_superset():
    # the voter built from deflate-then-inflate sees a superset of the drawn
    # examples, so it stays consistent with the draw itself
    cls = small_class()
    rng = random.Random(2)
    pool = ["", "0", "00", "000"]
    for _ in range(30):
        S, _ = verify.random_realizable_cot_sample(cls, rng, 4, 3, pool)
        infl = inflate(S)
        draw = [infl[rng.randrange(len(infl))] for _ in range(3)]
        h = erm(cls, inflate(deflate(draw, S)))
        assert all(h.step(e.x) == e.y for e in draw)


def test_check_realizable():
    cls = small_class()
    f = cls[5]
    S = CotSample((("0", cot_trace(f, "0", 3)),), 3)
    assert realizes_cot(cls[check_realizable(cls, S)], S)
    with pytest.raises(NotRealizable):
        check_realizable(both, CotSample((("", "01"),), 2))


# -- boosting compression ----------------------------------------------------


def test_compress_singleton_class():
    cls = FiniteClass((const1,), H)
    S = CotSample((("0", "111"), ("10", "111")), 3)
    comp = cot_compress(cls, S, rng_seed=0)
    assert len(comp.kernel) == 0
    assert comp.side_info == ((),)
    hyp = cot_reconstruct(cls, comp, 3)
    assert hyp("0") == "111"


def test_compress_empty_sample():
    comp = cot_compress(both, CotSample((), 2), rng_seed=0)
    assert comp.side_info == ((),)
    assert cot_reconstruct(both, comp, 2)("") == "00"


def test_compress_not_realizable():
    with pytest.raises(NotRealizable):
        cot_compress(both, CotSample((("", "01"),), 2), rng_seed=0)


def test_compress_budget_exhaustion(monkeypatch):
    from arlab import learners
    from arlab.errors import BoostingFailed

    # consistent generators exist but zero rounds are allowed
    monkeypatch.setattr(learners, "BOOST_ROUNDS", 0)
    S = CotSample((("", "11"),), 2)
    with pytest.raises(BoostingFailed):
        cot_compress(both, S, rng_seed=0)


def test_compress_deterministic():
    cls = make_shifted_subset_class(IntervalSet((1, 3, 4)), s_max=16, H=32)
    rng = random.Random(4)
    pool = verify.mixed_prompt_pool(rng, 6, 8)
    S, _ = verify.random_realizable_cot_sample(cls, rng, 12, 3, pool)
    a = cot_compress(cls, S, rng_seed=99)
    b = cot_compress(cls, S, rng_seed=99)
    assert a == b
    hyp = cot_reconstruct(cls, a, 3)
    assert all(hyp(x) == y for x, y in S)


def test_compress_round_trips():
    cls = make_shifted_subset_class(IntervalSet((1, 3, 4)), s_max=16, H=32)
    cache = EvalCache(cls)
    rng = random.Random(8)
    pool = verify.mixed_prompt_pool(rng, 6, 8)
    for i in range(40):
        m = rng.randrange(1, 21)
        T = rng.randrange(1, 5)
        S, _ = verify.random_realizable_cot_sample(cls, rng, m, T, pool)
        comp = cot_compress(cls, S, rng_seed=i, cache=cache)
        hyp = cot_reconstruct(cls, comp, T, cache=cache)
        assert all(hyp(x) == y for x, y in S)
        n = len(comp.side_info)
        assert len(comp.kernel) <= min(len(S), 12 * n)
        rep = comp.size_report(len(S))
        assert rep["kernel_size"] == len(comp.kernel)


def test_majority_ties_to_zero():
    maj = MajorityGenerator((const0, const1), H)
    assert maj.step("") == "0"
    maj3 = MajorityGenerator((const0, const0, const1), H)
    assert cot_trace(maj3, "1", 3) == "000"


def test_reconstruct_single_voter():
    cls = small_class()
    f = cls[7]
    S = CotSample((("0", cot_trace(f, "0", 2)),), 2)
    comp = cot_compress(cls, S, rng_seed=3)
    hyp = cot_reconstruct(cls, comp, 2)
    assert hyp("0") == cot_trace(f, "0", 2)


# -- max margin ---------------------------------------------------------------


def test_max_margin_1d():
    params, support = max_margin([("0", "0"), ("1", "1")], 1)
    assert -params.b / params.w[0] == Fraction(1, 2)
    assert len(support) == 2


def test_max_margin_duplicates():
    a = max_margin([("0", "0"), ("1", "1")], 1)
    b = max_margin([("0", "0"), ("1", "1"), ("1", "1"), ("0", "0")], 1)
    assert a[0] == b[0]


def test_max_margin_one_class():
    params, support = max_margin([("01", "1"), ("11", "1")], 2)
    assert params.w == (0, 0) and params.b == 1
    assert len(support) == 1
    params0, _ = max_margin([("01", "0")], 2)
    assert params0.b == -1


def test_max_margin_contradiction():
    with pytest.raises(NotSeparable):
        max_margin([("1", "0"), ("1", "1")], 1)


def test_max_margin_inseparable():
    # XOR on two tail bits is not linearly separable
    pts = [("00", "0"), ("11", "0"), ("01", "1"), ("10", "1")]
    with pytest.raises(NotSeparable):
        max_margin(pts, 2)


def test_max_margin_kkt_certificate():
    # at the optimum both classes carry a margin-tight point; every point is
    # separated with margin >= 1 exactly
    rng = random.Random(29)
    for _ in range(40):
        d = rng.randrange(1, 4)
        pts = {}
        for _ in range(rng.randrange(2, 9)):
            p = "".join(rng.choice("01") for _ in range(d))
            pts.setdefault(p, rng.choice("01"))
        sample = [(p, y) for p, y in pts.items()]
        if len({y for _, y in sample}) < 2:
            continue
        try:
            params, support = max_margin(sample, d)
        except NotSeparable:
            continue
        margins = {}
        for p, y in sample:
            val = sum(
                w * (1 if c == "1" else 0) for w, c in zip(params.w, p)
            ) + params.b
            sg = 1 if y == "1" else -1
            assert sg * val >= 1
            margins[(p, y)] = sg * val
        assert any(margins[(e.x, e.y)] == 1 and e.y == "1" for e in support)
        assert any(margins[(e.x, e.y)] == 1 and e.y == "0" for e in support)


def test_max_margin_non_support_deletion():
    pts = [
        LabeledBit("000", "0", 0),
        LabeledBit("001", "1", 1),
        LabeledBit("011", "1", 2),
        LabeledBit("111", "1", 3),
    ]
    params, support = max_margin(pts, 3)
    keep = {(e.x, e.y) for e in support}
    for i, e in enumerate(pts):
        if (e.x, e.y) in keep:
            continue
        params2, _ = max_margin(pts[:i] + pts[i + 1:], 3)
        assert params2 == params


# -- stable compression lift --------------------------------------------------


def test_stable_single_example():
    S = CotSample((("0", "1"),), 1)
    K = stable_compress_cot(S, 1)
    assert K.examples == S.examples
    hyp = stable_reconstruct_cot(K, 1, 1)
    assert hyp("0") == "1"


def test_stable_round_trip_and_stability():
    rng = random.Random(13)
    for i in range(30):
        d = rng.randrange(1, 4)
        grid = enumerate_linear_class(d, 2, H=64)
        pool = verify._random_domain(rng, 5, 6)
        m = rng.randrange(1, 13)
        T = rng.randrange(1, 4)
        S, _ = verify.random_realizable_cot_sample(grid, rng, m, T, list(pool))
        K = stable_compress_cot(S, d)
        assert len(K) <= d + 1
        hyp = stable_reconstruct_cot(K, d, T)
        assert all(hyp(x) == y for x, y in S)
        kern = set(K.examples)
        first = {}
        for j, ex in enumerate(S.examples):
            first.setdefault(ex, j)
        for j, ex in enumerate(S.examples):
            if ex in kern and first[ex] == j:
                continue
            rest = CotSample(S.examples[:j] + S.examples[j + 1:], T)
            assert stable_compress_cot(rest, d).examples == K.examples


def test_stable_reconstruct_matches_superset():
    # reconstructing from the kernel equals reconstructing from any superset
    # with the same kernel
    rng = random.Random(17)
    grid = enumerate_linear_class(2, 2, H=64)
    pool = ["", "0", "1", "01", "10", "11"]
    S, _ = verify.random_realizable_cot_sample(grid, rng, 10, 2, pool)
    K = stable_compress_cot(S, 2)
    h_kernel = stable_reconstruct_cot(K, 2, 2)
    h_full = stable_reconstruct_cot(S, 2, 2)
    for x in pool:
        assert h_kernel(x) == h_full(x)


def test_stable_empty_kernel_convention():
    hyp = stable_reconstruct_cot(None, 2, 3)
    assert hyp("0") == "111"

"""Inflation, ERM, the boosting compression scheme, and the stable
max-margin lift."""

import itertools
import random
from fractions import Fraction

import pytest

from arlab import learners, verify
from arlab.classes import (
    IntervalSet,
    LinearParams,
    enumerate_linear_class,
    make_shifted_subset_class,
)
from arlab.core import FiniteClass, cot_trace
from arlab.errors import NotRealizable, NotSeparable, OriginMissing
from arlab.learners import (
    CotSample,
    EvalCache,
    LabeledBit,
    MajorityGenerator,
    cot_compress,
    cot_reconstruct,
    deflate,
    erm,
    inflate,
    max_margin,
    stable_compress_cot,
    stable_reconstruct_cot,
)
from conftest import ConstantGenerator

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
            assert base_ok == all(cot_trace(f, x, S.T) == y for x, y in S)


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


def bits(pairs):
    return [LabeledBit(x, y) for x, y in pairs]


def test_max_margin_1d():
    params, support = max_margin(bits([("0", "0"), ("1", "1")]), 1)
    assert -params.b / params.w[0] == Fraction(1, 2)
    assert len(support) == 2


def test_max_margin_duplicates():
    a = max_margin(bits([("0", "0"), ("1", "1")]), 1)
    b = max_margin(bits([("0", "0"), ("1", "1"), ("1", "1"), ("0", "0")]), 1)
    assert a[0] == b[0]


def test_max_margin_one_class():
    params, support = max_margin(bits([("01", "1"), ("11", "1")]), 2)
    assert params.w == (0, 0) and params.b == 1
    assert support == [LabeledBit("01", "1")]
    params0, _ = max_margin(bits([("01", "0")]), 2)
    assert params0.b == -1


def test_max_margin_contradiction():
    with pytest.raises(NotSeparable, match="contradictory labels"):
        max_margin(bits([("1", "0"), ("1", "1")]), 1)


def test_max_margin_inseparable():
    # XOR on two tail bits is not linearly separable
    pts = bits([("00", "0"), ("11", "0"), ("01", "1"), ("10", "1")])
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
        sample = bits(pts.items())
        if len({e.y for e in sample}) < 2:
            continue
        try:
            params, support = max_margin(sample, d)
        except NotSeparable:
            continue
        margins = {}
        for p, y, _ in sample:
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


# The primal oracle for learners._margin_core: the minimum-norm solution with
# each subset's constraints tight, the best valid one over all subsets, then a
# second scan of the tight points for the first nonnegative dual support, and
# the constant separator for one-label sets. All arithmetic is Fraction.


def _solve_affine(rows, rhs):
    """Exact solution set of a linear system: (particular, null_basis), or
    None if inconsistent. Unknown count is len(rows[0])."""
    n = len(rows[0])
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        scale = aug[r][c]
        aug[r] = [v / scale for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = aug[i][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return particular, basis


def _min_norm_solution(rows, rhs, d):
    """Minimize ||w||^2 (first d coordinates) over the affine solution set of
    the system; (w, b), or None if inconsistent or the norm is not pinned."""
    sol = _solve_affine(rows, rhs)
    if sol is None:
        return None
    v0, basis = sol
    if basis:
        gram = [
            [sum(bi[k] * bj[k] for k in range(d)) for bj in basis] for bi in basis
        ]
        rhs2 = [-sum(v0[k] * bi[k] for k in range(d)) for bi in basis]
        tsol = _solve_affine(gram, rhs2)
        if tsol is None or tsol[1]:
            return None
        t = tsol[0]
        v0 = [
            v0[k] + sum(t[j] * basis[j][k] for j in range(len(basis)))
            for k in range(len(v0))
        ]
    return tuple(v0[:d]), v0[d]


def margin_oracle(contents, d):
    """(params, support_contents) for a canonical content set, as
    learners._margin_core must return them."""
    labels = {y for _, y in contents}
    if len(labels) == 1:
        params = LinearParams.of((0,) * d, 1 if labels == {"1"} else -1)
        return params, (contents[0],)
    signed = [
        (tuple(Fraction(v) for v in p), Fraction(1 if y == "1" else -1), (p, y))
        for p, y in contents
    ]
    best = None  # (norm2, w, b)
    for size in range(1, d + 2):
        for subset in itertools.combinations(range(len(signed)), size):
            rows = []
            for i in subset:
                p, sg, _ = signed[i]
                rows.append([sg * v for v in p] + [sg])
            got = _min_norm_solution(rows, [Fraction(1)] * size, d)
            if got is None:
                continue
            w, b = got
            if all(
                sg * (sum(wi * pi for wi, pi in zip(w, p)) + b) >= 1
                for p, sg, _ in signed
            ):
                norm2 = sum(v * v for v in w)
                if best is None or norm2 < best[0]:
                    best = (norm2, w, b)
    if best is None:
        raise NotSeparable("no margin-1 separator exists for the sample")
    _, w, b = best
    tight = [
        i
        for i, (p, sg, _) in enumerate(signed)
        if sg * (sum(wi * pi for wi, pi in zip(w, p)) + b) == 1
    ]
    for size in range(1, d + 2):
        for subset in itertools.combinations(tight, size):
            # lambda >= 0 with sum l_i sg_i p_i = w and sum l_i sg_i = 0
            rows = [
                [signed[i][1] * signed[i][0][k] for i in subset] for k in range(d)
            ]
            rows.append([signed[i][1] for i in subset])
            sol = _solve_affine(rows, [Fraction(v) for v in w] + [Fraction(0)])
            if sol is None or sol[1]:
                continue
            if all(v >= 0 for v in sol[0]):
                return LinearParams(tuple(w), b), tuple(signed[i][2] for i in subset)
    raise AssertionError("optimum must have a Caratheodory support")


def test_solve_square_matches_fraction_elimination():
    # integer systems with zero pivots and singular ones: x = nums / det
    # exactly, and None exactly when the solution is not unique
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 6)
        aug = [[rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n + 1)] for _ in range(n)]
        want = _solve_affine([[Fraction(v) for v in row[:n]] for row in aug],
                             [Fraction(row[n]) for row in aug])
        got = learners._solve_square([row[:] for row in aug])
        if got is None:
            assert want is None or want[1]
        else:
            det, nums = got
            assert det > 0 and want[1] == []
            assert [Fraction(v, det) for v in nums] == want[0]


def labelled_subsets(d):
    """Every nonempty labelled subset of {0,1}^d as a sorted content set:
    each point absent, labelled 0 or labelled 1."""
    pts = list(itertools.product((0, 1), repeat=d))
    for states in itertools.product((None, "0", "1"), repeat=len(pts)):
        contents = tuple((p, y) for p, y in zip(pts, states) if y is not None)
        if contents:
            yield contents


def margin_outcome(fn, contents, d):
    try:
        return fn(contents, d)
    except NotSeparable as e:
        return str(e)


# d = 3 sets whose support has d+1 points, with a subset before it in scan
# order that separates every point with margin >= 1 and some dual weight < 0
NEGATIVE_DUAL_FIRST = [
    "010:0 011:1 100:0 101:1 111:0",
    "000:0 001:0 010:0 011:1 100:0 101:1 110:1 111:1",  # majority of 3 bits
]


def parse_contents(text):
    return tuple(
        (tuple(int(c) for c in p), y) for p, y in (tok.split(":") for tok in text.split())
    )


def test_margin_core_ties_primal_oracle():
    # every labelled subset of {0,1}^d for d <= 2, a seeded sample of the
    # 6,561 for d = 3, and the sets above; params and support must be identical
    cases = [(c, d) for d in (1, 2) for c in labelled_subsets(d)]
    cases += [(c, 3) for c in random.Random(5).sample(list(labelled_subsets(3)), 40)]
    cases += [(parse_contents(text), 3) for text in NEGATIVE_DUAL_FIRST]
    kinds = set()
    for contents, d in cases:
        got = margin_outcome(learners._margin_core, contents, d)
        assert got == margin_outcome(margin_oracle, contents, d), contents
        kinds.add(len({y for _, y in contents}) if isinstance(got, tuple) else 0)
    assert kinds == {0, 1, 2}  # non-separable, one-label, two-label


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
    hyp = stable_reconstruct_cot(CotSample((), 3), 2, 3)
    assert hyp("0") == "111"


def test_stable_content_path_matches_max_margin_oracle():
    # the per-example content path against max_margin on the inflated sample:
    # AC9-style samples, the same examples repeated and reordered, and the
    # union of two targets' samples, which may contradict
    rng = random.Random(23)
    grids = {d: enumerate_linear_class(d, 2, H=64) for d in (1, 2, 3)}
    contradictions = 0
    for _ in range(100):
        d = rng.randrange(1, 4)
        T = rng.randrange(1, 4)
        pool = list(verify._random_domain(rng, 6, 8))
        S, _ = verify.random_realizable_cot_sample(grids[d], rng, rng.randrange(1, 16), T, pool)
        S2, _ = verify.random_realizable_cot_sample(grids[d], rng, rng.randrange(1, 8), T, pool)
        shuffled = list(S.examples * 2)
        rng.shuffle(shuffled)
        for sample in (S, CotSample(tuple(shuffled), T), CotSample(S.examples + S2.examples, T)):
            try:
                _, support = max_margin(inflate(sample), d)
            except NotSeparable as e:
                contradictions += str(e).startswith("contradictory")
                for content_path in (
                    lambda: stable_compress_cot(sample, d),
                    lambda: stable_reconstruct_cot(sample, d, T),
                ):
                    with pytest.raises(NotSeparable) as got:
                        content_path()
                    assert str(got.value) == str(e)
                continue
            K = stable_compress_cot(sample, d)
            assert K == deflate(support, sample)
            hyp = stable_reconstruct_cot(K, d, T)
            assert hyp.generator.params == max_margin(inflate(K), d)[0]
    assert contradictions

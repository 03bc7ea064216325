"""Trials, sample-complexity estimation, and the parity experiment."""

from fractions import Fraction

import pytest

from arlab import harness
from arlab.classes import IntervalSet, make_parity_class, make_shifted_subset_class
from arlab.core import FiniteClass
from arlab.errors import Unlearnable
from arlab.harness import (
    Distribution,
    TrialConfig,
    child_seed,
    estimate_sample_complexity,
    parity_lower_bound_experiment,
    run_trial,
    sweep_T,
)
from conftest import ConstantGenerator

H = 16


def taxonomy_class():
    return make_shifted_subset_class(IntervalSet((1, 3, 4)), s_max=12, H=32)


def test_distribution_validation():
    Distribution(("0", "1"), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        Distribution(("0", "0"), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        Distribution(("0", "1"), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        Distribution(("0",), (Fraction(0),))


def test_trial_config_rejects_learner_mode_mismatch():
    cls = taxonomy_class()
    dist = Distribution.uniform(["0"])
    for learner, mode in harness.LEARNER_MODES.items():
        wrong = "cot" if mode == "e2e" else "e2e"
        with pytest.raises(ValueError, match=f"expects {mode}-mode"):
            TrialConfig(
                cls=cls, dist=dist, T=1, mode=wrong, learner=learner, m=0, rng_seed=0
            )


def test_trial_covering_sample_zero_error():
    cls = taxonomy_class()
    dist = Distribution.uniform(["0", "00", "000"])
    cfg = TrialConfig(
        cls=cls, dist=dist, T=2, mode="e2e", learner="erm_e2e", m=60, rng_seed=5
    )
    assert run_trial(cfg).population_error == 0


def test_trial_m0_default_hypothesis():
    cls = taxonomy_class()
    dist = Distribution.uniform(["0", "00"])
    cfg = TrialConfig(
        cls=cls,
        dist=dist,
        T=1,
        mode="e2e",
        learner="erm_e2e",
        m=0,
        rng_seed=7,
        target_index=3,  # (s=0, A={1,3}): b = 1010...
    )
    # with no data ERM returns the first generator (constant 0); the target
    # labels are f^{e2e,1}: "0" is not a prefix of 1010.., so label 0; same
    # for "00"; expected error 0
    assert run_trial(cfg).population_error == 0
    cfg2 = TrialConfig(
        cls=cls,
        dist=dist,
        T=1,
        mode="e2e",
        learner="erm_e2e",
        m=0,
        rng_seed=7,
        target_index=9,  # (s=1, A={1}): b = 0100...
    )
    # labels: f("0") = b_2 = 1 (prefix holds), f("00") = 0 -> error 1/2
    assert run_trial(cfg2).population_error == Fraction(1, 2)


def test_trial_reproducible():
    cls = taxonomy_class()
    dist = Distribution.uniform(["0", "00", "000"])
    cfg = TrialConfig(
        cls=cls, dist=dist, T=3, mode="cot", learner="cot_compress", m=5, rng_seed=11
    )
    r1, r2 = run_trial(cfg), run_trial(cfg)
    assert r1.population_error == r2.population_error
    assert r1.kernel_size == r2.kernel_size


def test_trial_cot_consistency_on_support():
    cls = taxonomy_class()
    dist = Distribution.uniform(["0", "00", "000"])
    cfg = TrialConfig(
        cls=cls, dist=dist, T=2, mode="cot", learner="cot_compress", m=40, rng_seed=3
    )
    assert run_trial(cfg).population_error == 0


def test_estimate_singleton_class():
    cls = FiniteClass((ConstantGenerator("0", H),), H)
    dist = Distribution.uniform(["0", "1"])
    cfg = TrialConfig(
        cls=cls, dist=dist, T=1, mode="e2e", learner="erm_e2e", m=0, rng_seed=0
    )
    est = estimate_sample_complexity(cfg, "0.1", "0.1", R=10)
    assert est.m_hat == 0


def test_estimate_unlearnable_cap():
    # a two-constant class with an adversarial fixed target is learnable, but
    # an absurd eps makes every trial fail; the cap must fire
    cls = FiniteClass((ConstantGenerator("0", H), ConstantGenerator("1", H)), H)
    dist = Distribution.uniform(["0", "1"])
    cfg = TrialConfig(
        cls=cls, dist=dist, T=1, mode="e2e", learner="erm_e2e", m=0, rng_seed=0,
        target_index=1,
    )
    with pytest.raises(Unlearnable):
        estimate_sample_complexity(cfg, Fraction(-1), "0.0", R=4, m_cap=4)


@pytest.mark.parametrize("R", [0, -1])
def test_estimate_rejects_bad_R(monkeypatch, R):
    # rejected before the first trial, not by Fraction(fails, 0)
    monkeypatch.setattr(harness, "run_trial", None)
    cfg = TrialConfig(
        cls=taxonomy_class(), dist=Distribution.uniform(["0"]), T=1, mode="e2e",
        learner="erm_e2e", m=0, rng_seed=0,
    )
    with pytest.raises(ValueError, match="R must be >= 1"):
        harness.failure_rate(cfg, 1, Fraction(1, 10), R)
    with pytest.raises(ValueError, match="R must be >= 1"):
        estimate_sample_complexity(cfg, Fraction(1, 10), Fraction(1, 10), R=R)


def test_sweep_rows():
    cls = taxonomy_class()
    dist = Distribution.uniform(["0", "00"])
    cfg = TrialConfig(
        cls=cls, dist=dist, T=1, mode="e2e", learner="erm_e2e", m=0, rng_seed=1
    )
    rows = sweep_T(cfg, [2, 1], "0.1", "0.1", R=8)
    assert [r["T"] for r in rows] == [1, 2]
    assert all(r["mode"] == "e2e" for r in rows)
    assert sweep_T(cfg, [], "0.1", "0.1", R=8) == []


def test_sweep_erm_cot_pinned():
    # AC11's class and support under CoT ERM; the seeded rows are pinned
    cls = taxonomy_class()
    dist = Distribution.uniform(["0", "00", "000", "0000", "01"])
    cfg = TrialConfig(
        cls=cls, dist=dist, T=1, mode="cot", learner="erm_cot", m=0, rng_seed=0
    )
    rows = sweep_T(cfg, [1, 2, 4, 8], "0.1", "0.1", R=20)
    assert [(r["T"], r["mode"], r["m_hat"], r["failure_rate"]) for r in rows] == [
        (1, "cot", 4, Fraction(1, 20)),
        (2, "cot", 3, Fraction(1, 10)),
        (4, "cot", 4, Fraction(1, 10)),
        (8, "cot", 2, Fraction(1, 10)),
    ]


def test_child_seed_disjoint():
    seen = {child_seed(0, b, i) for b in range(4) for i in range(100)}
    assert len(seen) == 400


def test_parity_even_T_needs_no_data():
    # at even T the induced e2e class is a single pattern, so m_hat = 0
    cls = make_parity_class(6, H=64)
    dist = Distribution.uniform(["0" * k + "1" for k in range(1, 7)])
    for T in (2, 4):
        cfg = TrialConfig(
            cls=cls, dist=dist, T=T, mode="e2e", learner="erm_e2e", m=0, rng_seed=9
        )
        assert estimate_sample_complexity(cfg, "0.1", "0.1", R=10).m_hat == 0


def test_parity_no_information():
    cls = make_parity_class(8, H=64)
    stats = parity_lower_bound_experiment(cls, k_max=8, n=0, R=60, seed=5, m=8)
    assert stats.frequency_quarter >= Fraction(4, 5)
    assert all(t.unseen == 8 for t in stats.trials)


def test_parity_requires_odd_T():
    cls = make_parity_class(4, H=64)
    with pytest.raises(ValueError):
        parity_lower_bound_experiment(cls, k_max=4, n=2, R=5, seed=0, T=2)
    with pytest.raises(ValueError):
        parity_lower_bound_experiment(cls, k_max=4, n=4, R=5, seed=0)


def test_parity_rejects_bad_R_and_learner(monkeypatch):
    # both are rejected before the first trial
    monkeypatch.setattr(harness, "train_cot", None)
    cls = make_parity_class(4, H=64)
    with pytest.raises(ValueError, match="R must be >= 1"):
        parity_lower_bound_experiment(cls, k_max=4, n=2, R=0, seed=0)
    with pytest.raises(ValueError, match="unsupported parity learner"):
        parity_lower_bound_experiment(cls, k_max=4, n=2, R=5, seed=0, learner="erm_e2e")


def test_parity_smoke():
    cls = make_parity_class(8, H=64)
    stats = parity_lower_bound_experiment(cls, k_max=8, n=4, R=40, seed=1)
    assert stats.R == 40
    assert 0 <= float(stats.frequency_quarter) <= 1
    for t in stats.trials:
        assert t.bad <= t.unseen
        assert 0 <= t.error <= 1


@pytest.mark.parametrize("learner", ["cot_compress", "erm_cot"])
def test_parity_learners_answer_seen_questions(learner):
    # every wrong answer is on an unseen question: error * m == bad
    cls = make_parity_class(8, H=64)
    stats = parity_lower_bound_experiment(
        cls, k_max=8, n=4, R=100, seed=0, learner=learner
    )
    assert all(t.error * 8 == t.bad for t in stats.trials)


@pytest.mark.parametrize("learner", harness.PARITY_LEARNERS)
def test_parity_learners_answer_unseen_questions_zero(monkeypatch, learner):
    # every unseen question is answered 0, so error * m is the number of
    # unseen questions whose target bit is 1
    runs = []  # per trial: the sample, the hypothesis, the target's e2e bits

    def train_cot(*args, **kwargs):
        hyp, kernel = train_cot_orig(*args, **kwargs)
        runs.append((args[1], hyp, {}))
        return hyp, kernel

    def e2e_output(f, x, T):
        runs[-1][2][x] = bit = e2e_output_orig(f, x, T)
        return bit

    train_cot_orig, e2e_output_orig = harness.train_cot, harness.e2e_output
    monkeypatch.setattr(harness, "train_cot", train_cot)
    monkeypatch.setattr(harness, "e2e_output", e2e_output)
    cls = make_parity_class(8, H=64)
    stats = parity_lower_bound_experiment(
        cls, k_max=8, n=4, R=100, seed=0, learner=learner
    )
    assert len(runs) == len(stats.trials) == 100
    for (S, hyp, target), t in zip(runs, stats.trials):
        unseen = set(target) - {x for x, _ in S}
        assert len(target) == 8 and len(unseen) == t.unseen
        assert all(hyp.e2e(q) == "0" for q in unseen)
        assert t.error * 8 == sum(target[q] == "1" for q in unseen)

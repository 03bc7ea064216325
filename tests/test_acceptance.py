"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Each criterion calls the
property checks in `arlab.verify` that `arlab verify` runs, with its own
seeds and counts. Tolerances are pinned there: identities are exact, the
parity frequency carries 0.1 Monte-Carlo slack, and the sweep criterion is
the stated factor-2 / non-decreasing shape check.
"""

import random
import time
from contextlib import contextmanager

from arlab import verify
from arlab.classes import atdim_node_label, make_atdim_example_class
from arlab.core import realized_trace_tree


@contextmanager
def criterion(name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}  [{time.perf_counter() - t0:.1f}s]")
        raise
    print(f"PASS {name}  [{time.perf_counter() - t0:.1f}s]")


def assert_passed(checks):
    for c in checks:
        assert c.passed, f"{c.name}: {c.detail}"


def test_ac1_taxonomy_identity():
    with criterion("AC1 taxonomy identity: vc(e2e) == interval density for N={1,3,4}"):
        assert_passed(verify.check_taxonomy_identity())


def test_ac2_full_class_linearity():
    with criterion("AC2 full class: vc(e2e restriction) == T for T = 1..5 at H=16"):
        assert_passed(verify.check_full_class_linearity(H=16, chain=10, t_max=5))


def test_ac3_rate_round_trip():
    with criterion("AC3 rate round trip: ceil(sqrt(T)) up to T_max = 64"):
        assert_passed(verify.check_rate_round_trip())


def test_ac4_product_additivity():
    with criterion("AC4 product of two F(N={1,3}) copies: base VC and e2e VC add"):
        assert_passed(verify.check_product_additivity())


def test_ac5_leveled_subtree_sauer():
    with criterion(
        "AC5 leveled-subtree Sauer: 1000 random depth-10 trees + oracle agreement"
    ):
        checks = verify.suite_sauer(seed=7, trials=1000)
        assert_passed(checks)
        assert checks[-1].name == "oracle agreement on all 625 trees with <= 7 nodes"


def test_ac6_atdim_example():
    with criterion(
        "AC6 branch class (D=4): VC=1, ATdim=1, Littlestone>=4, branches <= T^2"
    ):
        assert_passed(verify.check_branch_class())
        cls = make_atdim_example_class(4, H=64)
        labels = tuple(atdim_node_label(i) for i in range(1, 32))
        for T in range(2, 7):
            for x in labels:
                tree = realized_trace_tree(cls, x, T)
                assert sum(len(p) == T for p in tree) <= T * T


def test_ac7_parity_dichotomy():
    with criterion(
        "AC7 parity class: e2e VC 0 at even T; odd-T failure frequency >= 0.4"
    ):
        assert_passed(verify.check_parity_collapse())
        assert_passed(verify.check_parity_lower_bound(R=200, seed=0))


def test_ac8_cot_compression_round_trips():
    with criterion("AC8 CoT compression: 500 seeded round trips, zero failures"):
        assert_passed(verify.check_cot_round_trips(random.Random(2024), 500))


def test_ac9_linear_stable_compression():
    with criterion(
        "AC9 linear stable compression: 500 samples, kernel <= d+1, "
        "deletion-stable, consistent"
    ):
        assert_passed(verify.check_linear_stable_compression(random.Random(31), 500))


def test_ac10_growth_inequalities():
    with criterion(
        "AC10 growth inequalities on 50 seeded classes: projection and SSP"
    ):
        assert_passed(verify.check_growth_inequalities(random.Random(404), 50))


def test_ac11_sweep_shapes():
    with criterion(
        "AC11 sweep on F(N={1,3,4}), T in {1,2,4,8}: CoT spread <= 2x, "
        "e2e ERM non-decreasing"
    ):
        sweeps = verify.cot_vs_e2e_sweep([1, 2, 4, 8], R=100, seed=0, s_max=12)
        cot, e2e = ([r["m_hat"] for r in rows] for rows in sweeps.values())
        print(f"  cot m_hat {cot}, e2e m_hat {e2e}")
        assert_passed(verify.check_sweep_shapes(sweeps))

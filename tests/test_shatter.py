"""The bitset cell search behind vc_dimension, natarajan_dimension,
dual_vc_dimension, growth_function and the CoT learner's base VC estimate,
each tied to a definition-level tuple scan kept here as its oracle.

The scans project the label tuples onto every coordinate subset in
lexicographic order, size ascending; they call nothing from the cell search.
"""

import itertools
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from arlab import classes, dims, learners, verify
from arlab.dims import (
    chain_domain,
    dual_vc_dimension,
    growth_function,
    natarajan_dimension,
    restrict_e2e,
    vc_dimension,
)

from test_dims import _mask_oracle_cases


# -- the oracles -------------------------------------------------------------


def _vc_scan(patterns) -> int:
    """Largest k such that some k coordinates carry all 2^k binary
    sub-patterns; stops at the first size with no shattered subset."""
    pats = list(set(patterns))
    if not pats:
        return 0
    m = len(pats[0])
    d = 0
    for k in range(1, m + 1):
        if not any(
            len({tuple(p[c] for c in cols) for p in pats}) == 2**k
            for cols in itertools.combinations(range(m), k)
        ):
            break
        d = k
    return d


def _natarajan_scan(patterns) -> int:
    """Largest k admitting coordinates and realized reference labelings
    h1 != h2 (pointwise) whose 2^k mixtures are all realized."""
    pats = list(set(patterns))
    if not pats:
        return 0
    m = len(pats[0])
    d = 0
    for k in range(1, m + 1):
        found = False
        for cols in itertools.combinations(range(m), k):
            proj = sorted({tuple(p[c] for c in cols) for p in pats})
            pset = set(proj)
            for h1, h2 in itertools.permutations(proj, 2):
                if any(a == b for a, b in zip(h1, h2)):
                    continue
                if all(
                    tuple(h1[i] if mask >> i & 1 else h2[i] for i in range(k)) in pset
                    for mask in range(2**k)
                ):
                    found = True
                    break
            if found:
                break
        if not found:
            break
        d = k
    return d


def _growth_scan(patterns, m: int) -> int:
    """max over size-m coordinate subsets of the distinct sub-patterns."""
    pats = list(set(patterns))
    if m == 0:
        return 1
    arity = len(pats[0]) if pats else 0
    if m > arity:
        raise ValueError(f"m={m} exceeds domain size {arity}")
    return max(
        len({tuple(p[i] for i in cols) for p in pats})
        for cols in itertools.combinations(range(arity), m)
    )


def _dual_vc_scan(cls, domain) -> int:
    """VC scan of the transposed evaluation matrix, one row of step calls
    per prompt."""
    return _vc_scan({tuple(f.step(x) for f in cls) for x in domain})


# -- property ties -----------------------------------------------------------


def pattern_sets(labels: str, max_width: int = 6, max_size: int = 40):
    """Sets of equal-length label tuples; width 0 and the empty set included."""
    return st.integers(0, max_width).flatmap(
        lambda w: st.sets(
            st.tuples(*[st.sampled_from(labels)] * w), max_size=max_size
        )
    )


multi_label_sets = st.sampled_from(["01", "012", "0123"]).flatmap(
    lambda labels: pattern_sets(labels, max_width=5, max_size=24)
)


@settings(max_examples=200, deadline=None)
@given(pattern_sets("01"))
def test_vc_matches_scan(pats):
    assert vc_dimension(pats) == _vc_scan(pats)


@settings(max_examples=150, deadline=None)
@given(multi_label_sets)
def test_natarajan_matches_scan(pats):
    assert natarajan_dimension(pats) == _natarajan_scan(pats)


@settings(max_examples=100, deadline=None)
@given(multi_label_sets)
def test_growth_matches_scan_at_every_m(pats):
    width = len(next(iter(pats))) if pats else 0
    for m in range(width + 1):
        assert growth_function(pats, m) == _growth_scan(pats, m)
    with pytest.raises(ValueError):
        growth_function(pats, width + 1)


def test_searches_reach_the_log2_cap():
    # 2^k distinct patterns shattering k coordinates: the answer is the cap
    for k in range(6):
        cube = set(itertools.product("01", repeat=k))
        assert vc_dimension(cube) == natarajan_dimension(cube) == k
        # a constant and a repeated coordinate change nothing
        padded = {p + ("0",) + p[:1] for p in cube}
        assert vc_dimension(padded) == _vc_scan(padded) == k
    # three labels, every mixture of the pairs (0, 1) and (1, 2)
    mixtures = set(itertools.product("01", "12", "012"))
    assert natarajan_dimension(mixtures) == _natarajan_scan(mixtures) == 3


def test_vc_rejects_more_than_two_labels():
    with pytest.raises(ValueError):
        vc_dimension({("0",), ("1",), ("2",)})
    with pytest.raises(ValueError):
        vc_dimension({("0", "a"), ("1", "b"), ("1", "c")})
    assert natarajan_dimension({("0",), ("1",), ("2",)}) == 1


def test_dual_vc_matches_scan():
    # 40 verify._random_small_class draws, then every construction
    for cls, dom in _mask_oracle_cases():
        assert dual_vc_dimension(cls, dom) == _dual_vc_scan(cls, dom)


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"search did not finish within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_ac4_product_dual_vc_finishes():
    # 1,296 generator columns over 6 prompts: the transposed tuple scan never
    # finishes; the cell search drops repeated columns and stops at log2(6)
    part = classes.make_shifted_subset_class(classes.IntervalSet((1, 3)), s_max=8, H=16)
    prod = classes.make_product_class([part, part])
    pdom = tuple(p + "0" * t for p in classes.relocation_prefixes(2) for t in range(1, 4))
    assert len(prod) == 1296
    with time_limit(10):
        assert dual_vc_dimension(prod, pdom) == 2


def test_base_vc_estimate_matches_scan_on_ac8(monkeypatch):
    # every prompt list AC8's round trips hand to the estimate
    seen = []
    estimate = learners._base_vc_estimate

    def record(cache, xs):
        got = estimate(cache, xs)
        seen.append((cache.cls, tuple(xs), got))
        return got

    monkeypatch.setattr(learners, "_base_vc_estimate", record)
    assert verify.check_cot_round_trips(random.Random(2024), 500)[0].passed
    assert len(seen) == 146
    for cls, xs, got in seen:
        cols = tuple(dict.fromkeys(xs))
        assert got == _vc_scan({tuple(f.step(x) for x in cols) for f in cls})


def test_oracles_independent_of_cell_search(monkeypatch):
    def fast_path_called(*args, **kwargs):
        raise AssertionError("the oracles must not use the cell search")

    for name in ("_shatter", "_rectangle", "_label_columns"):
        monkeypatch.setattr(dims, name, fast_path_called)
    full = classes.make_full_class(16)
    got = [_vc_scan(restrict_e2e(full, chain_domain(10), T)) for T in range(1, 6)]
    assert got == [1, 2, 3, 4, 5]
    f134 = classes.make_shifted_subset_class(classes.IntervalSet((1, 3, 4)), 16, 32)
    got = [_vc_scan(restrict_e2e(f134, chain_domain(8), T)) for T in range(1, 7)]
    assert got == [1, 2, 2, 3, 3, 3]
    with pytest.raises(AssertionError):
        vc_dimension(restrict_e2e(f134, chain_domain(8), 1))

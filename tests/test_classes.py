"""Class constructions and the rate machinery."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from arlab import classes, dims
from arlab.classes import (
    IntervalSet,
    LinearParams,
    RateTable,
    diagonal_rate,
    enumerate_linear_class,
    interval_density,
    make_atdim_example_class,
    make_full_class,
    make_linear_generator,
    make_parity_class,
    make_product_class,
    make_shifted_subset_class,
    make_taxonomy_class,
    normalize_rate,
    rate_to_set,
    relocation_prefixes,
    shifted_subset_generator,
)
from arlab.core import cot_trace, e2e_output
from arlab.errors import (
    EnumerationTooLarge,
    HorizonTooSmall,
    RateInvalid,
    RateNotNormalized,
)


# -- rate tables ------------------------------------------------------------


def test_rate_table_validation():
    RateTable((1, 2, 2, 3))
    with pytest.raises(RateInvalid):
        RateTable((2, 1))
    with pytest.raises(RateInvalid):
        RateTable((1, 1, 1, 4))  # r(2+2) > r(2)+r(2)
    with pytest.raises(RateInvalid):
        RateTable((0, 1))
    with pytest.raises(RateInvalid):
        RateTable(())


def test_interval_density_examples():
    N = IntervalSet((1, 3, 4))
    assert interval_density(N, 1) == 1
    assert interval_density(N, 2) == 2
    assert interval_density(N, 4) == 3
    assert interval_density(IntervalSet(()), 7) == 0
    k = 5
    assert interval_density(IntervalSet(tuple(range(1, k + 1))), k) == k


def test_rate_to_set_examples():
    r = RateTable(tuple(math.isqrt(T - 1) + 1 for T in range(1, 11)))
    assert rate_to_set(r).points == (1, 2, 5, 10)
    assert rate_to_set(RateTable((1, 1, 1))).points == (1,)
    assert rate_to_set(RateTable((1, 2, 3))).points == (1, 2, 3)
    with pytest.raises(RateNotNormalized):
        rate_to_set(RateTable((2, 2)))


def test_normalize_rate_examples():
    assert normalize_rate(RateTable((3, 4, 6))).values == (1, 2, 2)
    r = RateTable((1, 2, 2))
    assert normalize_rate(r).values == r.values
    assert normalize_rate(RateTable((2, 2, 2))).values == (1, 1, 1)


@st.composite
def nonempty_point_sets(draw):
    pts = draw(st.sets(st.integers(1, 24), min_size=1, max_size=8))
    return IntervalSet(tuple(sorted(pts)))


@settings(max_examples=80, deadline=None)
@given(nonempty_point_sets(), st.integers(1, 12), st.integers(1, 12))
def test_interval_density_monotone_subadditive(N, T1, T2):
    assert interval_density(N, T1) <= interval_density(N, T1 + 1)
    assert interval_density(N, T1 + T2) <= interval_density(N, T1) + interval_density(
        N, T2
    )


@settings(max_examples=60, deadline=None)
@given(nonempty_point_sets(), st.integers(4, 16))
def test_rate_round_trip(N, t_max):
    # every interval-density profile is a valid normalized rate, and
    # inverting it reproduces the profile exactly
    r = RateTable(tuple(interval_density(N, T) for T in range(1, t_max + 1)))
    if r(1) != 1:
        return
    N2 = rate_to_set(r)
    for T in range(1, t_max + 1):
        assert interval_density(N2, T) == r(T)


# -- the full class ---------------------------------------------------------


def test_make_full_class_small():
    cls = make_full_class(2)
    assert len(cls) == 4
    f01 = cls[0b01]
    assert f01.seq == "01"
    assert f01.step("0") == "1"
    assert f01.step("1") == "0"
    for f in cls:
        assert f.step("") == f.seq[0]


def test_full_class_base_vc_is_one():
    cls = make_full_class(8)
    assert dims.vc_dimension(dims.restrict_base(cls, ("", "0", "1"))) == 1


def test_full_class_cap():
    with pytest.raises(EnumerationTooLarge):
        make_full_class(12, cap=1000)


# -- shifted subsets --------------------------------------------------------


def test_shifted_subset_generator_examples():
    g = shifted_subset_generator(1, (2,), 8)
    assert g.seq == "00100000"
    assert g.step("00") == "1"
    g0 = shifted_subset_generator(3, (), 8)
    assert g0.seq == "0" * 8
    # lower-bound witness: f_{T+A} labels 0^t with [t in A] after T steps
    g2 = shifted_subset_generator(4, (1,), 16)
    assert e2e_output(g2, "0", 4) == "1"
    g3 = shifted_subset_generator(4, (3,), 16)
    assert e2e_output(g3, "0", 4) == "0"
    assert e2e_output(g3, "000", 4) == "1"


def test_shifted_subset_class_shape():
    N = IntervalSet((1, 3, 4))
    cls = make_shifted_subset_class(N, s_max=2, H=8)
    assert len(cls) == 3 * 8
    # order: s ascending, then subset bitmask ascending
    assert cls[0].params == (0, ())
    assert cls[1].params == (0, (1,))
    assert cls[8].params == (1, ())
    with pytest.raises(HorizonTooSmall):
        make_shifted_subset_class(N, s_max=10, H=8)
    with pytest.raises(EnumerationTooLarge):
        make_shifted_subset_class(N, s_max=1000, H=2000, cap=100)


# -- products ---------------------------------------------------------------


def test_product_relocation():
    N = IntervalSet((1, 3))
    part = make_shifted_subset_class(N, s_max=4, H=12)
    prod = make_product_class([part, part])
    p1, p2 = relocation_prefixes(2)
    assert (p1, p2) == ("01", "001")
    g = prod[17 * len(part) + 3]  # parts (17, 3)
    assert g.step(p1 + "00") == part[17].step("00")
    assert g.step(p2 + "00") == part[3].step("00")
    assert g.step("000000") == "0"


def test_product_constant_parts():
    from arlab.core import FiniteClass
    from conftest import ConstantGenerator

    c0 = FiniteClass((ConstantGenerator("0", 8),), 8)
    prod = make_product_class([c0, c0])
    assert len(prod) == 1
    for x in ("", "0", "01", "00111"):
        assert prod[0].step(x) == "0"


def test_product_trace_isolation():
    # traces only append, so evolution started in one part's region stays there
    N = IntervalSet((1, 3))
    part = make_shifted_subset_class(N, s_max=4, H=12)
    prod = make_product_class([part, part])
    p1, p2 = relocation_prefixes(2)
    for g in (prod[5], prod[100], prod[len(prod) - 1]):
        tr = cot_trace(g, p1 + "0", 4)
        full = p1 + "0" + tr
        assert full.startswith(p1) and not full.startswith(p2)


def test_product_base_vc_additive():
    N = IntervalSet((1, 3))
    part = make_shifted_subset_class(N, s_max=4, H=12)
    prod = make_product_class([part, part])
    p1, p2 = relocation_prefixes(2)
    dom_part = dims.chain_domain(3)
    dom_prod = tuple(p + x for p in (p1, p2) for x in dom_part)
    vc_part = dims.vc_dimension(dims.restrict_base(part, dom_part))
    vc_prod = dims.vc_dimension(dims.restrict_base(prod, dom_prod))
    assert vc_prod == 2 * vc_part == 2


# -- taxonomy pipeline ------------------------------------------------------


def test_taxonomy_single_copy_reduces():
    r = RateTable((1, 2, 2))
    cls = make_taxonomy_class(r, s_max=4, H=16)
    ref = make_shifted_subset_class(rate_to_set(r), s_max=4, H=16)
    assert cls.generators == ref.generators


def test_taxonomy_sandwich_r1_gt_1():
    r = RateTable((2, 2, 2, 4))
    cls = make_taxonomy_class(r, s_max=6, H=16)
    N = rate_to_set(normalize_rate(r))
    prefixes = relocation_prefixes(2)
    dom = tuple(p + "0" * t for p in prefixes for t in range(1, max(N.points) + 1))
    for T in range(1, 5):
        vc = dims.vc_dimension(dims.restrict_e2e(cls, dom, T))
        assert r(T) <= vc <= r(T) + r(1)


def test_taxonomy_sqrt_rate_at_4():
    r = RateTable(tuple(math.isqrt(T - 1) + 1 for T in range(1, 11)))
    cls = make_taxonomy_class(r, s_max=10, H=32)
    dom = dims.chain_domain(10)
    assert dims.vc_dimension(dims.restrict_e2e(cls, dom, 4)) == 2


# -- diagonal rate ----------------------------------------------------------


def test_diagonal_rate_sqrt():
    r = diagonal_rate(lambda d, T: math.sqrt(T), d_max=1, search_cap=1000)
    # N_1 = 257 hence T_1 = max(4, 257) = 257
    assert r.t_max == 257
    assert r(1) == 1
    assert r(257) == math.ceil(257 / 2)
    # construction already validated monotone + subadditive by RateTable


def test_diagonal_rate_search_cap():
    from arlab.errors import SearchCapExceeded

    with pytest.raises(SearchCapExceeded):
        diagonal_rate(lambda d, T: math.sqrt(T), d_max=1, search_cap=100)


# -- linear -----------------------------------------------------------------


def test_linear_generator_examples():
    f = make_linear_generator(LinearParams.of((1,), -1), 16)
    assert f.step("0") == "0"
    assert f.step("1") == "1"
    g = make_linear_generator(LinearParams.of((3, -2), 0), 16)
    assert g.step("") == "1"  # empty sum leaves sign(b)
    z = make_linear_generator(LinearParams.of((0, 0), -1), 16)
    for x in ("", "1", "11", "0101"):
        assert z.step(x) == "0"


def test_linear_padding_agreement():
    f = make_linear_generator(LinearParams.of((1, -2, 3), 1), 32)
    for x in ("010", "1101", "00011"):
        assert f.step(x) == f.step("0" + x)


def test_enumerate_linear_class():
    cls = enumerate_linear_class(1, 1, H=16)
    assert len(cls) == 9
    behaviors = {tuple(f.step(x) for x in ("", "0", "1")) for f in cls}
    assert ("0", "0", "0") in behaviors
    assert ("1", "1", "1") in behaviors
    with pytest.raises(EnumerationTooLarge):
        enumerate_linear_class(4, 10, H=16, cap=100)


def test_linear_grid_vc_halfplanes():
    cls = enumerate_linear_class(2, 2, H=16)
    dom = ("00", "01", "10", "11")
    assert dims.vc_dimension(dims.restrict_base(cls, dom)) <= 3


# -- parity -----------------------------------------------------------------


def test_parity_cases():
    cls = make_parity_class(3, H=32)
    f = cls[0b101]  # b = 101
    assert f.step("01") == "1"  # Q_1 -> b_1
    assert f.step("001") == "0"  # Q_2 -> b_2
    assert f.step("0001") == "1"  # Q_3 -> b_3
    # A_{k,y,t} = 0^k 1 (y0)^t y and B_{k,y,t} = 0^k 1 (y0)^{t+1}, b-independent
    for any_f in cls:
        assert any_f.step("011") == "0"  # A_{1,1,0}
        assert any_f.step("0110") == "1"  # B_{1,1,0} -> y = 1
        assert any_f.step("0100") == "0"  # B_{1,0,0} -> y = 0
        assert any_f.step("0101") == "0"  # matches no pattern
        assert any_f.step("11") == "0"  # otherwise
        assert any_f.step("") == "0"
        assert any_f.step("00001") == "0"  # Q_4 beyond k_max -> otherwise


def test_parity_even_odd_invariant():
    cls = make_parity_class(4, H=64)
    for f in cls:
        for k in range(1, 5):
            q = "0" * k + "1"
            for T in (2, 4, 6):
                assert e2e_output(f, q, T) == "0"
            for T in (1, 3, 5):
                assert e2e_output(f, q, T) == f.b[k - 1]


# -- atdim example ----------------------------------------------------------


def test_atdim_class_counts():
    assert len(make_atdim_example_class(2, H=16)) == 4
    assert len(make_atdim_example_class(4, H=64)) == 16


def test_atdim_class_branch_agreement():
    cls = make_atdim_example_class(3, H=32)
    # generator for leaf 8 follows the all-left branch 1 -> 2 -> 4 -> 8
    g = next(f for f in cls if f.params == (8,))
    assert g.step("0") == "0"
    assert g.step("00") == "0"
    assert g.step("0000") == "0"
    assert g.step("000") == "0"  # node 3, off the branch
    g9 = next(f for f in cls if f.params == (9,))
    assert g9.step("0000") == "1"  # node 4 -> right child 9

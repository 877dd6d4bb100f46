import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xifamily.cdf import empirical_map, std_normal_map, uniform_map
from xifamily.errors import DegenerateDataError
from xifamily.estimator import (
    PairedSample,
    chatterjee_reference,
    order_by_x,
    pearson,
    ranks,
    spearman,
    xi_plugin,
    xi_rank,
    xi_simplified,
)
from xifamily.kernels import Kernel, make_kernel

POWER1 = make_kernel("power", gamma=1.0)
POWER2 = make_kernel("power", gamma=2.0)
EXP1 = make_kernel("exp", beta=1.0)


def sample(xs, ys):
    return PairedSample(xs=np.asarray(xs, dtype=float), ys=np.asarray(ys, dtype=float))


@st.composite
def coordinates(draw, min_size, nan=False):
    """1-D float arrays of 1..300 values: distinct, tied, constant or signed zeros."""
    n = draw(st.integers(min_size, 300))
    kinds = ["distinct", "integer ties", "all equal", "signed zeros", "any"]
    kind = draw(st.sampled_from(kinds + (["nan"] if nan else [])))
    if kind == "any":
        return np.asarray(
            draw(st.lists(st.floats(allow_nan=nan, allow_infinity=False), min_size=n, max_size=n))
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "distinct":
        return rng.normal(size=n)
    if kind == "integer ties":
        return rng.integers(-3, 4, n).astype(float)
    if kind == "all equal":
        return np.full(n, draw(st.floats(-1e6, 1e6)))
    if kind == "signed zeros":
        return rng.choice([-0.0, 0.0, -1.0, 1.0], n)
    return np.where(rng.random(n) < 0.3, np.nan, rng.integers(-3, 4, n).astype(float))


# ---------------------------------------------------------------- ordering

def test_order_identity_without_ties():
    s = sample([1.0, 2.0, 3.0], [5.0, 6.0, 7.0])
    ordered = order_by_x(s, tie_seed=42)
    assert np.array_equal(ordered.permutation, [0, 1, 2])


def test_order_deterministic_given_seed():
    s = sample([1.0, 1.0, 1.0, 2.0], [4.0, 5.0, 6.0, 7.0])
    a = order_by_x(s, tie_seed=7)
    b = order_by_x(s, tie_seed=7)
    assert np.array_equal(a.permutation, b.permutation)


def test_order_is_a_nondecreasing_bijection():
    rng = np.random.default_rng(13)
    xs = rng.integers(0, 5, 60).astype(float)  # plenty of ties
    s = sample(xs, rng.normal(size=60))
    ordered = order_by_x(s, tie_seed=3)
    assert np.all(np.diff(s.xs[ordered.permutation]) >= 0.0)
    assert np.array_equal(np.sort(ordered.permutation), np.arange(60))


@given(coordinates(min_size=2))
@settings(max_examples=300, deadline=None)
def test_order_equals_lexsort_oracle(xs):
    # the (x, seeded key) lexsort that order_by_x runs only on tied x's
    s = sample(xs, np.zeros(xs.size))
    for tie_seed in (0, 1, 7, 2**31 + 5):
        oracle = np.lexsort((np.random.default_rng(tie_seed).random(xs.size), xs))
        perm = order_by_x(s, tie_seed).permutation
        assert perm.dtype == oracle.dtype
        assert np.array_equal(perm, oracle)


def test_tied_block_shuffles_uniformly():
    # all x equal, n=3: each of the 6 permutations should appear with
    # frequency 1/6 over many seeds
    s = sample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    counts = Counter()
    total = 100_000
    for seed in range(total):
        counts[tuple(order_by_x(s, seed).permutation.tolist())] += 1
    assert len(counts) == 6
    for count in counts.values():
        assert abs(count / total - 1.0 / 6.0) < 0.02


# ------------------------------------------------------------------- ranks

def test_ranks_distinct():
    assert np.array_equal(ranks([3.0, 1.0, 2.0]), [3, 1, 2])


def test_ranks_tie_convention():
    assert np.array_equal(ranks([2.0, 2.0, 1.0]), [3, 3, 1])


def test_ranks_singleton():
    assert np.array_equal(ranks([7.0]), [1])


@given(coordinates(min_size=1, nan=True))
@settings(max_examples=300, deadline=None)
def test_ranks_equal_searchsorted_oracle(ys):
    oracle = np.searchsorted(np.sort(ys), ys, side="right")
    out = ranks(ys)
    assert out.dtype == oracle.dtype
    assert np.array_equal(out, oracle)


# ------------------------------------------------------------------ plugin

def test_plugin_two_point_hand_case():
    s = sample([1.0, 2.0], [0.2, 0.8])
    res = xi_plugin(s, POWER1, uniform_map(0.0, 1.0))
    assert res.zeta == pytest.approx(0.3, abs=1e-15)
    assert res.normalization == pytest.approx(0.3, abs=1e-15)
    assert res.xi == 0.0


def test_plugin_constant_y_is_one():
    s = sample([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    res = xi_plugin(s, POWER1, std_normal_map())
    assert res.normalization == 0.0
    assert res.xi == 1.0


def test_plugin_identity_high_dependence():
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, 100)
    s = sample(xs, xs)
    assert xi_plugin(s, POWER2, std_normal_map()).xi >= 0.99


def test_plugin_requires_two_points():
    with pytest.raises(ValueError):
        sample([1.0], [1.0])


# -------------------------------------------------------------------- rank

def test_rank_hand_case():
    # y in x-order is [3,1,2]: zeta = 1/3, chi = 8/27, xi = -1/8
    s = sample([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    res = xi_rank(s, POWER1)
    assert res.zeta == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.normalization == pytest.approx(8.0 / 27.0, abs=1e-15)
    assert res.xi == pytest.approx(-1.0 / 8.0, abs=1e-14)


def test_rank_constant_y_is_one():
    s = sample([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert xi_rank(s, POWER1).xi == 1.0


@given(
    st.lists(st.floats(-20, 20, allow_nan=False), min_size=2, max_size=50),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_rank_equals_plugin_with_empirical_cdf(ys, tie_seed):
    xs = np.arange(len(ys), dtype=float)
    s = sample(xs, ys)
    for kernel in (POWER1, POWER2, EXP1):
        via_rank = xi_rank(s, kernel, tie_seed)
        via_plugin = xi_plugin(s, kernel, empirical_map(s.ys), tie_seed)
        assert via_rank.xi == via_plugin.xi
        assert via_rank.zeta == via_plugin.zeta
        assert via_rank.normalization == via_plugin.normalization


def test_rank_equals_plugin_on_heavily_tied_data():
    rng = np.random.default_rng(19)
    s = sample(rng.integers(0, 4, 60).astype(float), rng.integers(0, 5, 60).astype(float))
    for tie_seed in (0, 1, 99):
        via_rank = xi_rank(s, POWER1, tie_seed)
        via_plugin = xi_plugin(s, POWER1, empirical_map(s.ys), tie_seed)
        assert via_rank.xi == via_plugin.xi


# -------------------------------------------------------------- simplified

def test_simplified_hand_case():
    s = sample([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    res = xi_simplified(s, POWER1)
    assert res.normalization == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.xi == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [100, 1000])
def test_simplified_monotone_analytic(n):
    # strictly increasing y: all consecutive rank gaps are 1, so
    # xi = 1 - 3(n-1)/n^2, approaching 1 as n grows
    xs = np.arange(n, dtype=float)
    s = sample(xs, np.sqrt(xs + 1.0))
    assert xi_simplified(s, POWER1).xi == pytest.approx(1.0 - 3.0 * (n - 1) / n**2, abs=1e-12)


def test_simplified_close_to_chatterjee():
    # same numerator; denominators n^2/3 vs (n^2-1)/3
    rng = np.random.default_rng(21)
    for n in (10, 100, 1000):
        s = sample(rng.normal(size=n), rng.normal(size=n))
        gap = abs(xi_simplified(s, POWER1).xi - chatterjee_reference(s).xi)
        assert gap <= 5.0 / n


# -------------------------------------------------------------- chatterjee

def test_chatterjee_identity_n10():
    xs = np.arange(10, dtype=float)
    s = sample(xs, xs)
    assert chatterjee_reference(s).xi == pytest.approx(1.0 - 27.0 / 99.0, abs=1e-12)


def test_chatterjee_hand_case():
    s = sample([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    assert chatterjee_reference(s).xi == pytest.approx(-1.0 / 8.0, abs=1e-14)


def test_chatterjee_rejects_tied_x():
    s = sample([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError, match="xi_rank"):
        chatterjee_reference(s)


def test_chatterjee_near_zero_under_independence():
    values = []
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        s = sample(rng.normal(size=2000), rng.normal(size=2000))
        values.append(chatterjee_reference(s).xi)
    assert abs(np.mean(values)) < 0.01


# --------------------------------------------------------------- baselines

def test_pearson_perfect_linear():
    xs = np.linspace(-2.0, 5.0, 40)
    assert pearson(sample(xs, 2.0 * xs + 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_pearson_zero_variance_errors():
    with pytest.raises(DegenerateDataError):
        pearson(sample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


def test_pearson_symmetric_quadratic_near_zero():
    xs = np.linspace(-1.0, 1.0, 10_001)
    assert abs(pearson(sample(xs, xs**2))) < 1e-10


def test_spearman_monotone_is_one():
    xs = np.linspace(-2.0, 2.0, 30)
    assert spearman(sample(xs, xs**3)) == pytest.approx(1.0, abs=1e-12)


def test_spearman_uses_midranks_on_ties():
    # hand value: ranks of x are [1,2,3,4], mid-ranks of y are
    # [1.5, 1.5, 3, 4]; Pearson of those is 0.94388...
    s = sample([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 6.0, 7.0])
    expected = np.corrcoef([1.0, 2.0, 3.0, 4.0], [1.5, 1.5, 3.0, 4.0])[0, 1]
    assert spearman(s) == pytest.approx(expected, abs=1e-12)


# -------------------------------------------------------------- invariants

def test_chi_is_permutation_invariant():
    # exactly rounded accumulation: reordering the sample cannot change
    # the pairwise normalization bit-for-bit
    rng = np.random.default_rng(17)
    ys = rng.normal(size=80)
    xs = np.arange(80, dtype=float)
    shuffle = rng.permutation(80)
    res = xi_rank(sample(xs, ys), POWER1)
    res_shuffled = xi_rank(sample(xs, ys[shuffle]), POWER1)
    assert res.normalization == res_shuffled.normalization


def test_independent_data_stays_above_clt_floor():
    # finite-n coefficient may dip below 0 on independent data, but not
    # far: assert xi >= -15/sqrt(n)
    rng = np.random.default_rng(9)
    n = 200
    floor = -15.0 / math.sqrt(n)
    for _ in range(50):
        s = sample(rng.normal(size=n), rng.normal(size=n))
        assert xi_rank(s, POWER1).xi >= floor
        assert xi_simplified(s, EXP1).xi >= floor


def test_scale_invariance_single_case():
    rng = np.random.default_rng(2)
    s = sample(rng.normal(size=30), rng.normal(size=30))
    scaled = Kernel(name="scaled", eval=lambda y, z: 7.5 * POWER1.eval(y, z))
    base = xi_rank(s, POWER1).xi
    assert xi_rank(s, scaled).xi == pytest.approx(base, abs=1e-12)


def test_x_monotone_invariance_single_case():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=40)
    ys = rng.normal(size=40)
    orig = xi_plugin(sample(xs, ys), POWER1, std_normal_map())
    moved = xi_plugin(sample(np.exp(xs), ys), POWER1, std_normal_map())
    assert orig.xi == moved.xi

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xifamily import _sorting, estimator
from xifamily.cdf import empirical_map, std_normal_map, uniform_map
from xifamily.errors import DegenerateDataError, XiFamilyError
from xifamily.inference import independence_test
from xifamily.estimator import (
    PairedSample,
    _exact_gap_power,
    _order_and_x_tied,
    _rank_gap_power_sum,
    chatterjee_reference,
    order_by_x,
    pearson,
    ranks,
    spearman,
    xi_plugin,
    xi_rank,
    xi_simplified,
)
from xifamily.kernels import Kernel, custom_kernel, make_kernel

POWER1 = make_kernel("power", gamma=1.0)
POWER2 = make_kernel("power", gamma=2.0)
POWER3 = make_kernel("power", gamma=3.0)
POWER_HALF = make_kernel("power", gamma=0.5)
EXP1 = make_kernel("exp", beta=1.0)
EXPSQ = make_kernel("expsq")


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
    assert np.array_equal(order_by_x(s, tie_seed=42), [0, 1, 2])


def test_order_deterministic_given_seed():
    s = sample([1.0, 1.0, 1.0, 2.0], [4.0, 5.0, 6.0, 7.0])
    a = order_by_x(s, tie_seed=7)
    b = order_by_x(s, tie_seed=7)
    assert np.array_equal(a, b)


def test_order_is_a_nondecreasing_bijection():
    rng = np.random.default_rng(13)
    xs = rng.integers(0, 5, 60).astype(float)  # plenty of ties
    s = sample(xs, rng.normal(size=60))
    perm = order_by_x(s, tie_seed=3)
    assert np.all(np.diff(s.xs[perm]) >= 0.0)
    assert np.array_equal(np.sort(perm), np.arange(60))


@given(coordinates(min_size=2))
@settings(max_examples=300, deadline=None)
def test_order_equals_lexsort_oracle(xs):
    # the (x, seeded key) lexsort that order_by_x runs only on tied x's
    s = sample(xs, np.zeros(xs.size))
    for tie_seed in (0, 1, 7, 2**31 + 5):
        oracle = np.lexsort((np.random.default_rng(tie_seed).random(xs.size), xs))
        perm = order_by_x(s, tie_seed)
        assert perm.dtype == oracle.dtype
        assert np.array_equal(perm, oracle)


def test_tied_block_shuffles_uniformly():
    # all x equal, n=3: each of the 6 permutations should appear with
    # frequency 1/6 over many seeds
    s = sample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    counts = Counter()
    total = 100_000
    for seed in range(total):
        counts[tuple(order_by_x(s, seed).tolist())] += 1
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


def test_plugin_refuses_a_normal_map_that_merges_every_y():
    # Phi rounds every value above about 8.3 to 1.0, so chi = 0 on a y that
    # is not constant: that must not read as perfect dependence, xi = 1
    rng = np.random.default_rng(91)
    s = sample(rng.random(1000), 9.0 + 0.01 * rng.normal(size=1000))
    merged = "F = std_normal sends every y to 1.0, though y is not constant"
    with pytest.raises(DegenerateDataError, match=merged):
        xi_plugin(s, POWER1, std_normal_map())
    assert abs(xi_rank(s, POWER1).xi) < 0.1  # the ranks still tell the y's apart


def test_plugin_refuses_a_uniform_map_that_clips_every_y():
    rng = np.random.default_rng(92)
    s = sample(rng.random(500), rng.uniform(2.0, 3.0, 500))
    with pytest.raises(DegenerateDataError, match=r"F = uniform\{.*\} sends every y to 1.0"):
        xi_plugin(s, EXP1, uniform_map(0.0, 1.0))


def test_a_kernel_that_vanishes_off_the_diagonal_is_refused_by_name():
    # custom_kernel's grid checks pass, but chi = 0 on ranks that differ:
    # that must not read as perfect dependence, xi = 1
    rng = np.random.default_rng(93)
    s = sample(rng.random(50), rng.normal(size=50))
    zero = custom_kernel("zero", lambda u, v: 0.0 * (u - v))
    with pytest.raises(DegenerateDataError, match="kernel zero is 0 between every two mapped"):
        xi_rank(s, zero)


def test_a_kernel_that_vanishes_on_mapped_values_is_blamed_not_the_map():
    # F sends y into [0.35, 0.65], where this kernel is 0, but merges no y
    rng = np.random.default_rng(94)
    s = sample(rng.random(200), rng.normal(size=200))
    gap = custom_kernel("gap", lambda u, v: np.maximum(np.abs(u - v) - 0.5, 0.0))
    dist = uniform_map(-10.0, 10.0)
    assert np.unique(dist.eval(s.ys)).size == 200
    with pytest.raises(DegenerateDataError, match="kernel gap is 0 .* though they differ"):
        xi_plugin(s, gap, dist)
    constant = sample(rng.random(200), np.full(200, 0.5))
    assert xi_plugin(constant, gap, dist).xi == 1.0  # a constant y keeps xi = 1


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
    for kernel in (POWER1, POWER2, POWER_HALF, POWER3, EXP1, EXPSQ):
        via_rank = xi_rank(s, kernel, tie_seed)
        via_plugin = xi_plugin(s, kernel, empirical_map(s.ys), tie_seed)
        assert via_rank.xi == via_plugin.xi
        assert via_rank.zeta == via_plugin.zeta
        assert via_rank.normalization == via_plugin.normalization
        if s.n >= 3:  # and so do the test's z and sigma^2, or its refusal
            tests = [
                _test_or_refusal(lambda: independence_test(s, kernel, variant, dist, tie_seed))
                for variant, dist in [("rank", None), ("plugin", empirical_map(s.ys))]
            ]
            assert tests[0] == tests[1]


def _test_or_refusal(call):
    try:
        result = call()
    except XiFamilyError as exc:
        return type(exc).__name__, str(exc)
    return result.z, result.sigma2_used


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


# ------------------------------------------------ exact rank-gap zeta
#
# For power:gamma with gamma in {1, 2, 3}, the simplified zeta is the
# integer ratio sum |R_[i+1] - R_[i]|^gamma / n^(gamma+1). The oracle below
# ranks y and orders x without the library and adds the gaps in Python ints;
# the library's zeta must be that ratio rounded once, bit for bit.

GAP_BLOCK = _sorting.BLOCK


def oracle_gap_sum(r_ordered, gamma):
    r = [int(v) for v in r_ordered]
    return sum(abs(b - a) ** gamma for a, b in zip(r, r[1:]))


def zeta_sample(kind, n, rng):
    """Distinct x, and y distinct, tied (7 levels) or binary."""
    xs = rng.permutation(n).astype(float)
    if kind == "distinct":
        ys = rng.normal(size=n)
    elif kind == "tied":
        ys = rng.integers(0, 7, n).astype(float)
    else:
        ys = rng.integers(0, 2, n).astype(float)
    r_ordered = np.searchsorted(np.sort(ys), ys, side="right")[np.argsort(xs)]
    return sample(xs, ys), r_ordered


@given(
    n=st.sampled_from([2, 3, GAP_BLOCK, GAP_BLOCK + 1, GAP_BLOCK + 2, 3000]),
    kind=st.sampled_from(["distinct", "tied", "binary"]),
    gamma=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_simplified_zeta_is_the_exactly_rounded_gap_ratio(n, kind, gamma, seed):
    # n - 1 gaps: one, two, a block less one, a block, a block plus one
    s, r_ordered = zeta_sample(kind, n, np.random.default_rng(seed))
    gap_sum = oracle_gap_sum(r_ordered, gamma)
    assert _rank_gap_power_sum(r_ordered, gamma) == gap_sum
    kernel = make_kernel("power", gamma=gamma)
    result = xi_simplified(s, kernel)
    assert result.zeta == float(Fraction(gap_sum, n ** (gamma + 1)))
    assert result.xi == 1.0 - result.zeta / kernel.closed_form_ch


def test_gap_sum_at_1e5_splits_power3_at_the_int64_bound():
    # 99_999^3 lets int64 hold only 9223 terms, fewer than GAP_BLOCK
    n = 100_000
    assert (2**63 - 1) // (n - 1) ** 3 < GAP_BLOCK
    for kind in ("distinct", "binary"):
        s, r_ordered = zeta_sample(kind, n, np.random.default_rng(10))
        gap_sum = oracle_gap_sum(r_ordered, 3)
        assert _rank_gap_power_sum(r_ordered, 3) == gap_sum
        assert xi_simplified(s, make_kernel("power", gamma=3.0)).zeta == gap_sum / n**4


@pytest.mark.parametrize("gamma", [1, 2, 3])
def test_gap_sum_keeps_full_blocks_at_the_int64_bound(monkeypatch, gamma):
    # at n = 2^21, the largest n where power:3 stays exact, ranks 1, n, 1, ...
    # make every term (n - 1)^gamma, so a block of power:3 terms passes
    # int64 many times over: its sum must still be exact, and every block
    # but the last must hold GAP_BLOCK gaps
    n = 2**21
    seen = []

    def recording_blocks(count, size=GAP_BLOCK):
        for start, stop in _sorting.blocks(count, size):
            seen.append((start, stop))
            yield start, stop

    monkeypatch.setattr(estimator, "blocks", recording_blocks)
    r_ordered = np.tile(np.array([1, n], dtype=np.int64), n // 2)
    assert _rank_gap_power_sum(r_ordered, gamma) == (n - 1) ** (gamma + 1)
    assert [start for start, _ in seen] == [0] + [stop for _, stop in seen[:-1]]
    assert seen[-1][1] == n - 1
    assert {stop - start for start, stop in seen[:-1]} == {GAP_BLOCK}


def test_simplified_falls_back_to_the_float_sum_past_int64(monkeypatch):
    # with the bound just below 199^3, power:3 at n = 200 could overflow and
    # takes the float path; power:1 and power:2 stay exact, in blocks
    n = 200
    monkeypatch.setattr(estimator, "_INT64_MAX", (n - 1) ** 3 - 1)
    exact_calls = []

    def recording_sum(r_ordered, gamma):
        exact_calls.append(gamma)
        return _rank_gap_power_sum(r_ordered, gamma)

    monkeypatch.setattr(estimator, "_rank_gap_power_sum", recording_sum)
    s, r_ordered = zeta_sample("tied", n, np.random.default_rng(4))
    u = r_ordered / n
    for gamma in (1, 2, 3):
        kernel = make_kernel("power", gamma=gamma)
        zeta = xi_simplified(s, kernel).zeta
        if gamma == 3:
            assert zeta == math.fsum(kernel.eval(u[:-1], u[1:]).tolist()) / n
        else:
            assert zeta == float(Fraction(oracle_gap_sum(r_ordered, gamma), n ** (gamma + 1)))
    assert exact_calls == [1, 2]


def test_exact_gap_power_takes_the_row_sum_hook_exponents():
    power = {gamma: make_kernel("power", gamma=gamma) for gamma in (0.5, 1.0, 2.0, 3.0, 4.0)}
    assert [_exact_gap_power(power[g], 10) for g in power] == [None, 1, 2, 3, None]
    # (2^21 - 1)^3 < 2^63 - 1 < (2^21)^3
    assert _exact_gap_power(power[3.0], 2**21) == 3
    assert _exact_gap_power(power[3.0], 2**21 + 1) is None
    assert _exact_gap_power(power[2.0], 2**21 + 1) == 2
    assert _exact_gap_power(EXP1, 10) is None
    assert _exact_gap_power(make_kernel("expsq"), 10) is None
    named_power = custom_kernel("power", lambda y, z: np.abs(np.subtract(y, z)))
    assert _exact_gap_power(named_power, 10) is None


# -------------------------------------------------------------- chatterjee

def test_chatterjee_identity_n10():
    xs = np.arange(10, dtype=float)
    s = sample(xs, xs)
    assert chatterjee_reference(s).xi == pytest.approx(1.0 - 27.0 / 99.0, abs=1e-12)


def test_chatterjee_hand_case():
    s = sample([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
    assert chatterjee_reference(s).xi == pytest.approx(-1.0 / 8.0, abs=1e-14)


def test_chatterjee_gap_sum_equals_fsum_of_gaps():
    # the integer gap sum must round like the exactly rounded float sum
    rng = np.random.default_rng(6)
    n = 20_000
    s = sample(rng.random(n), rng.random(n))
    gaps = np.abs(np.diff(ranks(s.ys)[order_by_x(s)]))
    result = chatterjee_reference(s)
    assert result.zeta == math.fsum(gaps.astype(float).tolist())
    assert result.xi == float(Fraction(n**2 - 1 - 3 * int(gaps.sum()), n**2 - 1))


def test_chatterjee_without_ties_keeps_its_bits():
    # xi is 1 - 3 * gap sum / (n^2 - 1) rounded once (1 - gap sum / ((n^2 - 1) / 3.0)
    # is 28 and 95 ulps off at n = 1000 and 5000); the normalization is (n^2 - 1) / 3.0
    rng = np.random.default_rng(2021)
    for n in (3, 1000, 5000):
        s = sample(rng.normal(size=n), rng.normal(size=n))
        gaps = int(np.abs(np.diff(ranks(s.ys)[order_by_x(s)])).sum())
        result = chatterjee_reference(s)
        assert result.xi == float(Fraction(n**2 - 1 - 3 * gaps, n**2 - 1))
        assert result.normalization == (n**2 - 1) / 3.0
        assert result.y_tied is False


def test_chatterjee_tied_y_hand_cases():
    # y = 0,1,0,1: R = 2,4,2,4 gives gap sum 6; l = 4,2,4,2 gives
    # sum l(n - l) = 8; xi = 1 - 4 * 6 / (2 * 8) = -1/2 (the no-ties form
    # would give 1 - 3 * 6 / 15 = -1/5)
    alternating = chatterjee_reference(sample([1, 2, 3, 4], [0, 1, 0, 1]))
    assert (alternating.xi, alternating.zeta, alternating.normalization) == (-0.5, 6.0, 4.0)
    assert alternating.y_tied is True
    # y = 0,0,1,1: gap sum 2, xi = 1 - 4 * 2 / 16 = 1/2
    assert chatterjee_reference(sample([1, 2, 3, 4], [0, 0, 1, 1])).xi == 0.5


def test_chatterjee_tied_y_is_rounded_once():
    # the general form holds for distinct y too, where l_i runs over 1..n
    rng = np.random.default_rng(8)
    tied = [sample(rng.normal(size=n), rng.integers(0, 4, n)) for n in (5, 60, 5000)]
    for s in tied + [sample(rng.normal(size=1000), rng.normal(size=1000))]:
        n = s.n
        gaps = int(np.abs(np.diff(ranks(s.ys)[order_by_x(s)])).sum())
        at_least = [int((s.ys >= y).sum()) for y in s.ys]
        spread = sum(k * (n - k) for k in at_least)
        assert chatterjee_reference(s).xi == float(Fraction(2 * spread - n * gaps, 2 * spread))


def test_tie_spread_stays_exact_past_int64():
    # two blocks, the second after p = n/3 values: its c (n - p) p = 4n^3/27 passes 2^63;
    # the pair sum P_1 is twice the tie spread
    n = 4_000_000
    p = n // 3
    max_ranks = np.repeat([p, n], [p, n - p])
    assert estimator._pair_power_sum(max_ranks, n, 1) == 2 * (n - p) ** 2 * p > 2**63


def test_pair_power_sum_squares_stay_exact_past_int64():
    # the tie-spread data: sum R^2 = p^3 + (n - p) n^2 passes 2^63; P_2 = 2 p (n - p) (n - p)^2
    n = 4_000_000
    p = n // 3
    max_ranks = np.repeat([p, n], [p, n - p])
    assert estimator._pair_power_sum(max_ranks, n, 2) == 2 * p * (n - p) ** 3


@pytest.mark.parametrize("n", [3, 50, 1000, 5000])
@pytest.mark.parametrize("shape", ["distinct", "5-level", "binary"])
def test_chatterjee_is_rank_power1(n, shape):
    # one exact integer ratio, Chatterjee's tie denominator included; 5000
    # takes the packed ranking
    rng = np.random.default_rng([n, len(shape)])
    xs = rng.normal(size=n)
    ys = {
        "distinct": rng.normal(size=n),
        "5-level": rng.integers(0, 5, n).astype(float),
        "binary": (np.arange(n) % 2).astype(float)[rng.permutation(n)],
    }[shape]
    s = sample(xs, ys)
    assert chatterjee_reference(s).xi == xi_rank(s, POWER1).xi
    for continuous in (False, True):
        via_chatterjee = independence_test(s, POWER1, "chatterjee", continuous_y=continuous)
        via_rank = independence_test(s, POWER1, "rank", continuous_y=continuous)
        assert (via_chatterjee.z, via_chatterjee.p_one_sided, via_chatterjee.p_two_sided) == (
            via_rank.z,
            via_rank.p_one_sided,
            via_rank.p_two_sided,
        )


def _fraction_rank_form(s, gamma, tie_seed):
    """(xi, zeta, chi) of u = R/n, h = |u - v|^gamma, in exact rationals."""
    n = s.n
    u = [Fraction(int((s.ys <= y).sum()), n) for y in s.ys]
    ordered = [u[i] for i in order_by_x(s, tie_seed)]
    zeta = sum(abs(b - a) ** gamma for a, b in zip(ordered, ordered[1:])) / n
    chi = sum(abs(a - b) ** gamma for a in u for b in u) / n**2
    return (1 if chi == 0 else 1 - zeta / chi), zeta, chi


@pytest.mark.parametrize("gamma", [1, 2])
def test_rank_power_1_2_are_exactly_rounded(gamma):
    rng = np.random.default_rng(23 + gamma)
    kernel = make_kernel("power", gamma=float(gamma))
    for n in range(2, 9):
        y_shapes = [
            rng.normal(size=n),
            rng.integers(0, 3, n).astype(float),
            rng.integers(0, 2, n).astype(float),
            np.full(n, 1.5),
        ]
        x_shapes = [rng.normal(size=n), rng.integers(0, 2, n).astype(float)]
        for ys in y_shapes:
            for xs in x_shapes:
                s = sample(xs, ys)
                for tie_seed in (0, 5):
                    want = tuple(float(v) for v in _fraction_rank_form(s, gamma, tie_seed))
                    got = xi_rank(s, kernel, tie_seed)
                    assert (got.xi, got.zeta, got.normalization) == want
                    plugin = xi_plugin(s, kernel, empirical_map(s.ys), tie_seed)
                    assert (plugin.xi, plugin.zeta, plugin.normalization) == want


def test_plugin_on_the_lattice_takes_ranks_from_zero():
    # u = y / n with y in 0..n lies on the lattice, 0 included
    rng = np.random.default_rng(29)
    n = 8
    for ys in (rng.integers(0, n + 1, n), np.arange(n), rng.permutation(n + 1)[:n]):
        s = sample(rng.normal(size=n), ys)
        u = [Fraction(int(y), n) for y in s.ys]
        ordered = [u[i] for i in order_by_x(s)]
        for gamma in (1, 2):
            zeta = sum(abs(b - a) ** gamma for a, b in zip(ordered, ordered[1:])) / n
            chi = sum(abs(a - b) ** gamma for a in u for b in u) / n**2
            kernel = make_kernel("power", gamma=float(gamma))
            got = xi_plugin(s, kernel, uniform_map(0.0, float(n)))
            assert (got.xi, got.zeta, got.normalization) == (
                float(1 - zeta / chi),
                float(zeta),
                float(chi),
            )


def test_chatterjee_binary_y_near_zero_under_independence():
    # the (n^2 - 1)/3 form put the mean near +0.25 here
    values = []
    for rep in range(200):
        rng = np.random.default_rng(3000 + rep)
        s = sample(rng.normal(size=200), rng.integers(0, 2, 200))
        values.append(chatterjee_reference(s).xi)
    assert abs(np.mean(values)) < 0.02


def test_chatterjee_rejects_constant_y():
    with pytest.raises(DegenerateDataError, match="constant Y"):
        chatterjee_reference(sample([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))


def test_chatterjee_rejects_tied_x():
    s = sample([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError, match="xi_rank"):
        chatterjee_reference(s)


@given(coordinates(min_size=2), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_order_helper_flags_tied_x(xs, tie_seed):
    # chatterjee reads tied x off the flag of the sort order_by_x runs
    s = sample(xs, np.zeros(xs.size))
    permutation, x_tied = _order_and_x_tied(s, tie_seed)
    assert np.array_equal(permutation, order_by_x(s, tie_seed))
    assert x_tied == (np.unique(xs).size < xs.size)


def test_chatterjee_near_zero_under_independence():
    values = []
    for rep in range(100):
        rng = np.random.default_rng(1000 + rep)
        s = sample(rng.normal(size=2000), rng.normal(size=2000))
        values.append(chatterjee_reference(s).xi)
    assert abs(np.mean(values)) < 0.01


@pytest.mark.parametrize("tie_seed", [-1, 1.5, 2.0, "3", None])
@pytest.mark.parametrize("x_tied", [False, True])
def test_bad_tie_seed_is_refused_whatever_the_x(tie_seed, x_tied):
    # before the data show whether tied x read the seed; 5000 takes the packed ranking
    for n in (6, 5000):
        xs = np.arange(n) // 2 if x_tied else np.arange(n)
        s = sample(xs, np.random.default_rng(n).normal(size=n))
        calls = [
            lambda: order_by_x(s, tie_seed),
            lambda: xi_rank(s, POWER1, tie_seed),
            lambda: xi_simplified(s, POWER1, tie_seed),
            lambda: xi_plugin(s, POWER1, std_normal_map(), tie_seed),
            lambda: chatterjee_reference(s, tie_seed),
            lambda: independence_test(s, POWER1, "rank", tie_seed=tie_seed),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="tie_seed must be a non-negative integer"):
                call()


def test_numpy_integer_tie_seeds_are_accepted():
    s = sample([0.0, 0.0, 1.0, 1.0], [0.3, 0.1, 0.4, 0.2])
    for tie_seed in (np.int64(7), np.uint32(7)):
        assert np.array_equal(order_by_x(s, tie_seed), order_by_x(s, int(tie_seed)))
    assert xi_rank(s, POWER1, np.int64(7)) == xi_rank(s, POWER1, 7)


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


def test_spearman_builds_no_second_sample(monkeypatch):
    # mid-ranks of a validated sample are finite floats, so they are not
    # checked again; a constant coordinate is still refused
    monkeypatch.setattr(estimator, "PairedSample", None)
    xs = np.linspace(0.0, 1.0, 20)
    assert spearman(sample(xs, -(xs**3))) == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(DegenerateDataError, match="zero variance"):
        spearman(sample(xs, np.full(20, 4.0)))


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

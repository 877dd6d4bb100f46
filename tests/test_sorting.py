"""``_sorting.sort_order`` against ``np.argsort``, on both of its paths.

Every result must be a sorting permutation with the values it gathers;
on inputs without two equal values (one NaN at most) it must be exactly
``np.argsort``'s permutation. Above the packed-key threshold every public
output must equal the argsort path's bit for bit.
"""

import contextlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xifamily import _sorting, estimator
from xifamily.cdf import DistMap, std_normal_map
from xifamily.errors import DegenerateDataError
from xifamily.estimator import (
    VARIANTS,
    PairedSample,
    coefficient,
    order_by_x,
    chatterjee_reference,
    ranks,
    spearman,
    xi_plugin,
    xi_rank,
    xi_simplified,
)
from xifamily.inference import independence_test
from xifamily.kernels import _sorted_row_sums, parse_kernel_spec

MIN = _sorting._PACKED_SORT_MIN
SIZES = [1, 2, 3, MIN - 1, MIN, MIN + 1, 3 * MIN]
KINDS = ["distinct", "integer ties", "signed zeros", "nan", "inf", "subnormal", "near one"]


def make_values(kind, n, rng):
    if kind == "distinct":
        return rng.normal(size=n)
    if kind == "integer ties":
        return rng.integers(-3, 4, n).astype(float)
    if kind == "signed zeros":
        return rng.choice([-0.0, 0.0, -1.0, 1.0], n)
    if kind == "nan":
        # NaNs of both signs among distinct values
        values = rng.normal(size=n)
        values[rng.random(n) < 0.1] = np.nan
        values[rng.random(n) < 0.1] = -np.nan
        return values
    if kind == "inf":
        return rng.choice([-np.inf, np.inf, -1.0, 0.5, 2.0], n)
    if kind == "subnormal":
        # distinct multiples of the smallest subnormal, of both signs
        return rng.permutation(np.arange(-(n // 2), n - n // 2)) * 5e-324
    if kind == "ulp pairs":
        # n / 2 pairs of neighbouring floats: as many runs of keys that
        # share their kept high bits, each needing the repair
        base = rng.normal(size=n - n // 2)
        return rng.permutation(np.concatenate((base, np.nextafter(base[: n // 2], np.inf))))
    # distinct values within a few ulps of 1.0 share their kept high bits,
    # so the packed keys come out in index order and need the repair
    return rng.permutation(1.0 + np.arange(n) * 2.0**-52)


def check_sort_order(values):
    order, ordered = _sorting.sort_order(values)
    assert order.dtype == np.intp
    assert np.array_equal(np.sort(order), np.arange(values.size))
    assert np.array_equal(ordered.view(np.int64), values[order].view(np.int64))
    # ascending with NaNs last, as np.sort orders them (-0.0 equals 0.0)
    assert np.array_equal(ordered, np.sort(values), equal_nan=True)
    if np.unique(values).size == values.size:
        assert np.array_equal(order, np.argsort(values))


@given(st.sampled_from(KINDS), st.sampled_from(SIZES), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_sort_order_matches_argsort(kind, n, seed):
    check_sort_order(make_values(kind, n, np.random.default_rng(seed)))


@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_packed_path_on_any_floats(values):
    # the threshold lowered to 1 so that short drawn lists take the packed keys
    with mock.patch.object(_sorting, "_PACKED_SORT_MIN", 1):
        check_sort_order(np.asarray(values, dtype=float))


@pytest.mark.parametrize("n", [_sorting.BLOCK - 1, _sorting.BLOCK + 1, 2 * _sorting.BLOCK + 3])
def test_index_ramps_written_in_blocks(n):
    # the packed keys and the ranks of distinct values take their index
    # ramps one block at a time
    values = np.random.default_rng(n).normal(size=n)
    check_sort_order(values)
    assert np.array_equal(ranks(values), np.searchsorted(np.sort(values), values, side="right"))


def test_sort_order_accepts_strided_input():
    values = np.random.default_rng(4).normal(size=2 * MIN)[::2]
    check_sort_order(values)


def outputs(n, seed):
    """Every public result that sorts, on distinct, tied and 5-level samples."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, n)
    ys = np.sin(3.0 * xs) + rng.normal(size=n)
    out = []
    for x, y in [(xs, ys), (xs.round(2), ys.round(1)), (xs, np.digitize(ys, [-1, 0, 1]) * 1.0)]:
        s = PairedSample(xs=x, ys=y)
        out += [order_by_x(s, 5), ranks(y), spearman(s)]
        for spec in ["power:1", "power:3", "exp:1", "expsq"]:
            kernel = parse_kernel_spec(spec)
            rows = _sorted_row_sums(np.sort(y), kernel, squares=True)
            out += [np.sort(rows[0]), np.sort(rows[1])]
            for variant in VARIANTS:
                if variant == "chatterjee" and x is not xs:
                    continue  # refused on tied x
                dist = std_normal_map() if variant == "plugin" else None
                result = coefficient(s, variant, kernel, dist, 9)
                out += [result.xi, result.zeta, result.normalization, result.y_tied]
                for continuous in (False, True):
                    try:
                        t = independence_test(s, kernel, variant, dist, 9, continuous)
                    except DegenerateDataError as exc:  # the simplified test refuses tied y
                        out += [type(exc).__name__, str(exc)]
                        continue
                    out += [t.z, t.sigma2_used.sigma2, t.p_one_sided, t.p_two_sided]
    return out


@pytest.mark.parametrize("n", [MIN, 3 * MIN])
def test_outputs_equal_the_argsort_path_bit_for_bit(n):
    packed = outputs(n, seed=n)
    with mock.patch.object(_sorting, "_PACKED_SORT_MIN", 2**62):
        plain = outputs(n, seed=n)
    assert len(packed) == len(plain)
    for a, b in zip(packed, plain):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert a == b or (a != a and b != b)


# ------------------------------------------------------- ranks in x-order


def check_ranks_in_x_order(xs, ys, seed):
    """``estimator._ranks_in_x_order`` against max-ranks by searchsorted read
    in the (x, seeded key) lexsort order, and ties counted by ``np.unique``."""
    n = xs.size
    r_ordered, max_ranks = estimator._ranks_in_x_order(PairedSample(xs=xs, ys=ys), seed)
    permutation = np.lexsort((np.random.default_rng(seed).random(n), xs))
    expected = np.searchsorted(np.sort(ys), ys, side="right")[permutation]
    assert r_ordered.dtype == np.intp and np.array_equal(r_ordered, expected)
    if np.unique(ys).size < n:
        assert max_ranks.dtype == np.intp and np.array_equal(max_ranks, np.sort(expected))
    else:
        assert max_ranks is None


NEAR_ONE = st.integers(0, 200).map(lambda k: 1.0 + k * 2.0**-52)
COORDINATE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), NEAR_ONE, st.sampled_from([-0.0, 0.0])
)


A, B = 1.0 + 2.0**-52, 1.0 + 2.0**-51  # one run of shared kept bits at n = 3


@given(st.lists(st.tuples(COORDINATE, COORDINATE), min_size=2, max_size=40), st.sampled_from([0, 7]))
@example([(0.0, A), (1.0, B), (2.0, A)], 0)  # y tied only once its run is in value order
@example([(A, 0.0), (B, 1.0), (A, 2.0)], 0)  # the same for x, whose tags are the y ranks
@settings(max_examples=300, deadline=None)
def test_ranks_in_x_order_on_any_floats(pairs, seed):
    # the threshold lowered to 1 so that short drawn samples take both packed sorts
    xs, ys = np.array(pairs, dtype=float).T.copy()
    with mock.patch.object(_sorting, "_PACKED_SORT_MIN", 1):
        check_ranks_in_x_order(xs, ys, seed)


RANK_KINDS = ["distinct", "near one", "signed zeros", "subnormal", "integer ties", "ulp pairs"]


@pytest.mark.parametrize("n", [MIN, 3 * MIN])
@pytest.mark.parametrize("x_kind", RANK_KINDS)
@pytest.mark.parametrize("y_kind", RANK_KINDS)
def test_ranks_in_x_order_from_packed_keys(y_kind, x_kind, n):
    rng = np.random.default_rng([n, RANK_KINDS.index(x_kind), RANK_KINDS.index(y_kind)])
    check_ranks_in_x_order(make_values(x_kind, n, rng), make_values(y_kind, n, rng), 3)


PROBE = _sorting._TIE_PROBE


@pytest.mark.parametrize(
    "k", [None, 0, PROBE - 2, PROBE - 1, PROBE, PROBE + 1, PROBE + _sorting.BLOCK - 1, PROBE + _sorting.BLOCK, 19_998]
)
def test_settle_finds_one_tie_anywhere(k):
    # one equal pair at sorted places k, k + 1, on each side of the probe's
    # and the first full block's bounds; None: distinct values, no tie
    n = 20_000
    values = np.linspace(-1.0, 1.0, n)
    if k is not None:
        values[k + 1] = values[k]
    values = np.random.default_rng(4).permutation(values)
    key = np.arange(n, dtype=np.int64)
    _sorting.packed_sort(values, key)
    assert _sorting.settle(key, values.take) == (k is not None)
    if k is None:
        assert np.array_equal(key, np.argsort(values))


def test_settle_repairs_runs_across_probe_and_block_bounds():
    # runs of 4 distinct values a few ulps apart, at sorted places that span
    # the probe's bound, the first full block's bound and both ends
    n = 20_000
    values = np.linspace(1.0, 2.0, n)
    for start in [0, PROBE - 2, PROBE + _sorting.BLOCK - 2, n - 4]:
        # the run's first value with its low 16 bits clear, so that all 4
        # keep the same high bits over the 15 bits of the tags
        first = (values[start : start + 1].view(np.int64) & -(1 << 16)).view(float)
        values[start : start + 4] = first + np.arange(4) * 2.0**-52
    values = np.random.default_rng(5).permutation(values)
    key = np.arange(n, dtype=np.int64)
    _sorting.packed_sort(values, key)
    tags = key & ((1 << (n - 1).bit_length()) - 1)
    assert not np.array_equal(tags, np.argsort(values))  # runs out of value order
    assert not _sorting.settle(key, values.take)
    assert np.array_equal(key, np.argsort(values))


@pytest.mark.parametrize("start", [0, PROBE - 1, PROBE + _sorting.BLOCK - 1])
def test_settle_finds_a_tie_apart_inside_a_run(start):
    # values within a few ulps of 1.0 share their high bits, so the packed
    # keys form one run in index order: a, b, a' at index start puts the one
    # tie apart, where only the check after the run's repair can see it
    n = 20_000
    values = 1.0 + np.arange(n) * 2.0**-52
    values[start + 2] = values[start]
    key = np.arange(n, dtype=np.int64)
    _sorting.packed_sort(values, key)
    assert _sorting.settle(key, values.take)


def count_orderings(call):
    """``(sort_order calls, order_by_x calls)`` made by ``call()``."""
    counted = {"order_by_x": 0}
    original = estimator.order_by_x

    def counted_order(*args):
        counted["order_by_x"] += 1
        return original(*args)

    with mock.patch.object(estimator, "order_by_x", counted_order):
        return count_sorts(call)[0], counted["order_by_x"]


def separate_sorts(sample, tie_seed):
    """The ranks of y in x-order from one sort per coordinate and a gather."""
    r, max_ranks = estimator._ranked(*_sorting.sort_order(sample.ys))
    return r[estimator.order_by_x(sample, tie_seed)], max_ranks


def result_or_refusal(call):
    """``call()``'s result, with the totals where it is ``_coefficient``, or its refusal."""
    try:
        result, totals = call(), None
    except DegenerateDataError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        result, totals = result
    return result.xi, result.zeta, result.normalization, result.y_tied, totals


@pytest.mark.parametrize("n", [MIN, 3 * MIN])
def test_rank_variants_take_two_packed_sorts(n):
    rng = np.random.default_rng(n + 1)
    xs = rng.normal(size=n)
    ys = xs + rng.normal(size=n)
    power1, exp1 = parse_kernel_spec("power:1"), parse_kernel_spec("exp:1")

    def with_totals(variant, kernel):
        return lambda s: estimator._coefficient(s, variant, kernel, 5, squares=lambda y_tied: True)

    calls = [
        lambda s: xi_simplified(s, power1, 5),
        lambda s: xi_simplified(s, exp1, 5),
        lambda s: xi_rank(s, exp1, 5),
        lambda s: chatterjee_reference(s, 5),
        # the test's totals, over the ascending R/n that each ranking gives
        with_totals("rank", exp1),
        with_totals("simplified", exp1),
        with_totals("chatterjee", power1),
    ]
    distinct = PairedSample(xs=xs, ys=ys)
    tied = [PairedSample(xs=xs, ys=ys.round(1)), PairedSample(xs=xs.round(1), ys=ys)]
    for call in calls:
        # distinct x and y sort neither coordinate with sort_order
        assert count_orderings(lambda: call(distinct)) == (0, 0)
        for s in [distinct, *tied]:
            taken = result_or_refusal(lambda: call(s))
            with mock.patch.object(estimator, "_ranks_in_x_order", separate_sorts):
                assert taken == result_or_refusal(lambda: call(s))


# ------------------------------------------------------------ sort counts


def count_sorts(call):
    """``(sort_order calls, np.sort calls)`` made by ``call()``.

    ``sort_order`` is patched in every module that binds it.
    """
    counts = {"sort_order": 0, "np.sort": 0}
    original, np_sort = _sorting.sort_order, np.sort

    def counted_sort_order(values):
        counts["sort_order"] += 1
        return original(values)

    def counted_np_sort(*args, **kwargs):
        counts["np.sort"] += 1
        return np_sort(*args, **kwargs)

    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "xifamily" and getattr(module, "sort_order", None) is original:
                stack.enter_context(mock.patch.object(module, "sort_order", counted_sort_order))
        stack.enter_context(mock.patch.object(np, "sort", counted_np_sort))
        call()
    return counts["sort_order"], counts["np.sort"]


@pytest.mark.parametrize("y_kind", ["distinct", "tied"])
def test_y_is_sorted_once(y_kind):
    rng = np.random.default_rng(21)
    ys = rng.normal(size=300)
    if y_kind == "tied":
        ys = ys.round(1)
    s = PairedSample(xs=rng.normal(size=300), ys=ys)
    power1, power2, exp1 = (parse_kernel_spec(k) for k in ("power:1", "power:2", "exp:1"))
    dist = std_normal_map()
    def simplified_test():
        if y_kind == "distinct":
            return independence_test(s, power2, "simplified")
        with pytest.raises(DegenerateDataError, match="rank"):
            independence_test(s, power2, "simplified")

    # one sort of x, one of y; the simplified test refuses tied y after both
    assert count_sorts(lambda: independence_test(s, exp1, "rank")) == (2, 0)
    assert count_sorts(simplified_test) == (2, 0)
    assert count_sorts(lambda: independence_test(s, power1, "chatterjee")) == (2, 0)
    assert count_sorts(lambda: xi_rank(s, exp1)) == (2, 0)
    assert count_sorts(lambda: chatterjee_reference(s)) == (2, 0)
    # the plugin sorts x and F(y); its test reads the sorted F(y) off the
    # coefficient's result, so F is evaluated once per test
    assert count_sorts(lambda: xi_plugin(s, exp1, dist)) == (2, 0)
    assert count_sorts(lambda: independence_test(s, exp1, "plugin", dist)) == (2, 0)
    # declaring y continuous adds no sort: the plugin never takes the closed form
    declared = count_sorts(lambda: independence_test(s, power1, "plugin", dist, 0, True))
    assert declared == (2, 0)
    evaluated = []
    counted = DistMap(kind=dist.kind, eval=lambda t: evaluated.append(1) or dist.eval(t))
    independence_test(s, exp1, "plugin", counted)
    assert len(evaluated) == 1

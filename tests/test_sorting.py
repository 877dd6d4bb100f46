"""``_sorting.sort_order`` against ``np.argsort``, on both of its paths.

Every result must be a sorting permutation with the values it gathers;
on inputs without two equal values (one NaN at most) it must be exactly
``np.argsort``'s permutation. Above the packed-key threshold every public
output must equal the argsort path's bit for bit.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xifamily import _sorting
from xifamily.cdf import std_normal_map
from xifamily.estimator import (
    VARIANTS,
    PairedSample,
    _average_ranks,
    coefficient,
    order_by_x,
    ranks,
)
from xifamily.inference import independence_test
from xifamily.kernels import kernel_row_sums, parse_kernel_spec

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
        out += [order_by_x(s, 5), ranks(y), _average_ranks(x)]
        for spec in ["power:1", "power:3", "exp:1", "expsq"]:
            kernel = parse_kernel_spec(spec)
            rows = kernel_row_sums(y, kernel, squares=True)
            out += [np.sort(rows[0]), np.sort(rows[1])]
            for variant in VARIANTS:
                if variant == "chatterjee" and x is not xs:
                    continue  # refused on tied x
                dist = std_normal_map() if variant == "plugin" else None
                result = coefficient(s, variant, kernel, dist, 9)
                out += [result.xi, result.zeta, result.normalization, result.y_tied]
                for continuous in (False, True):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")  # the duplicate-y warning
                        t = independence_test(s, kernel, variant, dist, 9, continuous)
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

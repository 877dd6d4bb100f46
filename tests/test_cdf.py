import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xifamily.cdf import (
    empirical_map,
    fit_normal_map,
    normal_map,
    resolve_dist_spec,
    std_normal_cdf,
    std_normal_map,
    uniform_map,
)
from xifamily._sorting import BLOCK
from xifamily.errors import DegenerateDataError
from xifamily.estimator import ranks


def test_std_normal_center():
    assert std_normal_cdf(0.0) == 0.5


def test_std_normal_975_quantile():
    # high-precision erf oracle value for the 97.5% point
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_std_normal_symmetry():
    for t in (0.1, 0.5, 1.0, 2.5, 5.0):
        assert std_normal_cdf(t) + std_normal_cdf(-t) == pytest.approx(1.0, abs=1e-14)


def test_std_normal_open_range():
    # probes stay inside the double-precision window: the true tail mass
    # underflows past |t| ~ 37 (left) and rounds to 1 past t ~ 8 (right)
    t = np.array([-37.0, -8.0, 0.0, 8.0])
    values = std_normal_map().eval(t)
    assert np.all(values > 0.0)
    assert np.all(values < 1.0)


def _mpmath_errors(t):
    """Absolute and relative errors of ``std_normal_cdf(t)`` against mpmath at 40 digits."""
    values = std_normal_cdf(t)
    with mpmath.workdps(40):
        exact = [mpmath.ncdf(mpmath.mpf(v)) for v in t.tolist()]
        errors = [mpmath.mpf(y) - e for y, e in zip(values.tolist(), exact)]
        absolute = np.array([float(abs(err)) for err in errors])
        relative = np.array([float(abs(err / e)) for err, e in zip(errors, exact)])
    return absolute, relative


def _accuracy_grid():
    rng = np.random.default_rng(31)
    sqrt2 = math.sqrt(2.0)
    return np.concatenate([
        np.linspace(-38.0, 12.0, 2001),
        rng.uniform(-37.0, 9.0, 1000),
        rng.normal(size=1000),
        rng.uniform(-5.0, -4.0, 1000),  # the relative error peaks near -5
        # either side of the erf/erfc switch (|t| = sqrt 2) and of the 8 sqrt 2 tail
        *(b + np.linspace(-1e-6, 1e-6, 101) for b in (-8 * sqrt2, -sqrt2, sqrt2, 8 * sqrt2)),
    ])


def test_std_normal_cdf_error_against_mpmath():
    t = _accuracy_grid()
    absolute, relative = _mpmath_errors(t)
    assert absolute.max() <= 2.3e-16
    assert relative[t >= -5.0].max() <= 5e-15
    assert relative[(t >= -37.0) & (t < -5.0)].max() <= 5e-13


#: Cephes' ndtr inside the erf branch (|t| < sqrt 2), where it takes only
#: +, * and / and so gives the same bits everywhere; scipy.special.ndtr 1.17
#: returns these bit for bit
ERF_BRANCH_BITS = [
    (1e-08, "0x1.0000002244d56p-1"),
    (0.1, "0x1.1464507526871p-1"),
    (-0.5, "0x1.3bf143b9aa712p-2"),
    (0.7071, "0x1.853f342ead47cp-1"),
    (1.0, "0x1.aec4bd120d37dp-1"),
    (-1.2, "0x1.d7534b65d1e30p-4"),
    (1.41421, "0x1.d7bb2baf00a34p-1"),
]


def test_std_normal_cdf_erf_branch_bits():
    t, bits = zip(*ERF_BRANCH_BITS)
    assert [float(y).hex() for y in std_normal_cdf(np.array(t))] == list(bits)


def test_std_normal_cdf_nondecreasing():
    values = std_normal_cdf(np.linspace(-38.0, 9.0, 3_000_000))
    assert np.all(np.diff(values) >= 0.0)


def test_std_normal_cdf_special_values():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        values = std_normal_cdf(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300]))
    assert values[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
    assert math.isnan(values[4])
    assert values[5:].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("t", [0.3, -2, np.float64(7.5), np.array(-1.5)])
def test_std_normal_cdf_scalar_in_scalar_out(t):
    value = std_normal_cdf(t)
    assert isinstance(value, np.float64)
    assert value == std_normal_cdf(np.array([t], dtype=float))[0]


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 3), (1, 4, 2)])
def test_std_normal_cdf_keeps_shape(shape):
    t = np.random.default_rng(2).normal(size=shape) * 4.0
    values = std_normal_cdf(t)
    assert values.shape == shape
    assert np.array_equal(values.ravel(), std_normal_cdf(t.ravel()))


def test_normal_cdf_blocks_and_strides_change_no_bit():
    # past one block, on a strided view, and with the affine step folded in
    rng = np.random.default_rng(6)
    t = rng.normal(size=3 * BLOCK + 17) * 6.0
    t[::1000] *= 4.0  # some values in the tail branch
    whole = std_normal_cdf(t)
    pieces = np.concatenate([std_normal_cdf(t[i : i + 1000]) for i in range(0, t.size, 1000)])
    assert np.array_equal(whole, pieces)
    assert np.array_equal(std_normal_cdf(t[::3]), whole[::3])
    mu, sigma = 0.3, 1.7
    assert np.array_equal(normal_map(mu, sigma).eval(t), std_normal_cdf((t - mu) / sigma))


def test_fit_normal_hand_case():
    dist = fit_normal_map([-1.0, 1.0])
    assert dist.params["mu"] == 0.0
    assert dist.params["sigma"] == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert dist.eval(0.0) == 0.5


def test_fit_normal_rejects_constant():
    with pytest.raises(DegenerateDataError, match="degenerate Y"):
        fit_normal_map([5.0, 5.0, 5.0])


def test_fit_normal_strictly_increasing():
    dist = fit_normal_map(np.random.default_rng(0).normal(3.0, 2.0, 40))
    probes = np.linspace(-10.0, 10.0, 201)
    assert np.all(np.diff(dist.eval(probes)) > 0.0)


def test_empirical_counts():
    dist = empirical_map([3.0, 1.0, 2.0])
    assert dist.eval(2.0) == pytest.approx(2.0 / 3.0)
    assert dist.eval(0.5) == 0.0
    assert dist.eval(3.0) == 1.0
    assert dist.eval(99.0) == 1.0


def test_empirical_duplicates_max_rank():
    assert empirical_map([2.0, 2.0, 1.0]).eval(2.0) == 1.0


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_empirical_matches_ranks_exactly(ys):
    # compare as count/n on both sides: multiplying back by n can round
    # (e.g. (1/49)*49 != 1), the division itself is bit-identical
    ys = np.asarray(ys)
    assert np.array_equal(empirical_map(ys).eval(ys), ranks(ys) / ys.size)
    assert np.array_equal(np.rint(empirical_map(ys).eval(ys) * ys.size), ranks(ys))


def test_uniform_map_clips():
    dist = uniform_map(0.0, 2.0)
    assert dist.eval(-1.0) == 0.0
    assert dist.eval(1.0) == 0.5
    assert dist.eval(5.0) == 1.0


def test_uniform_map_wider_than_the_float_range():
    # b - a overflows to inf: the map takes halves, each exact
    dist = uniform_map(-1e308, 1e308)
    assert dist.eval(np.array([-1e308, 0.0, 5e307, 1e308])).tolist() == [0.0, 0.5, 0.75, 1.0]
    assert dist.eval(1.7e308) == 1.0 and dist.eval(-1.7e308) == 0.0


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0)])
def test_uniform_rejects_bad_bounds(a, b):
    with pytest.raises(ValueError):
        uniform_map(a, b)


def test_normal_map_rejects_bad_sigma():
    with pytest.raises(ValueError):
        normal_map(0.0, 0.0)


@pytest.mark.parametrize(
    "maker",
    [
        std_normal_map,
        lambda: normal_map(1.0, 2.0),
        lambda: uniform_map(-1.0, 3.0),
        lambda: empirical_map(np.random.default_rng(7).normal(size=30)),
    ],
)
def test_maps_are_nondecreasing_into_unit_interval(maker):
    dist = maker()
    probes = np.sort(np.random.default_rng(1).normal(0.0, 3.0, 300))
    values = dist.eval(probes)
    assert np.all(np.diff(values) >= 0.0)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_maps_deterministic():
    ys = np.random.default_rng(5).normal(size=25)
    probes = np.random.default_rng(6).normal(size=40)
    first = empirical_map(ys).eval(probes)
    second = empirical_map(ys).eval(probes)
    assert np.array_equal(first, second)


def test_resolve_dist_spec():
    assert resolve_dist_spec("std-normal").kind == "std_normal"
    assert resolve_dist_spec("uniform:0,1").kind == "uniform"
    fitted = resolve_dist_spec("fit-normal", ys=[0.0, 1.0, 2.0])
    assert fitted.params["mu"] == 1.0
    explicit = resolve_dist_spec("fit-normal:3,2")
    assert explicit.params == {"mu": 3.0, "sigma": 2.0}
    assert resolve_dist_spec("empirical", ys=[1.0, 2.0]).kind == "empirical"
    with pytest.raises(ValueError):
        resolve_dist_spec("fit-normal")
    with pytest.raises(ValueError):
        resolve_dist_spec("empirical")
    with pytest.raises(ValueError):
        resolve_dist_spec("uniform")
    with pytest.raises(ValueError):
        resolve_dist_spec("cauchy")

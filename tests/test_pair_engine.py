"""The pairwise-kernel engine against the exactly rounded row-loop oracle.

The library adds its sums with ``estimator._fsum``, which must return
``math.fsum``'s value bit for bit; the last section checks that first.

``kernel_row_sums`` serves chi (``xi_plugin`` / ``xi_rank``) and the
U-statistic moments (``sigma2_ustat``) through exact fast paths for the
builtin kernels and a blocked path for everything else. The oracle below is
the definition evaluated one row at a time with ``math.fsum``: exactly
rounded sums of the kernel values, independent of evaluation order.

Tolerances, relative to the oracle:
* chi, m, q and r: 1e-12 (the fast paths measure within a few 1e-16, and
  up to about 1e-14 for steep exp kernels);
* sigma^2 = (q - 2r + m^2) / m^2: 1e-10, the bound the benchmark checks,
  which leaves room for the cancellation in its numerator.

The oracle is too slow beyond a few hundred points, while the rounding error
of the prefix sums grows with n; the integer-power routine (power:1,
power:2, power:3 and expsq) is also checked at n=5000 against the blocked
path, under the same tolerances, which ``kernel_row_sums`` also promises for
every single row.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from xifamily._sorting import BLOCK
from xifamily.cdf import DistMap, empirical_map, resolve_dist_spec, uniform_map
from xifamily.errors import DegenerateDataError, NumericError
from xifamily.estimator import (
    _EXTRACT_MIN,
    _LEVELS,
    PairedSample,
    _fsum,
    _mid_ranks,
    order_by_x,
    ranks,
    xi_plugin,
)
from xifamily.inference import independence_test, sigma2_ustat
from xifamily.kernels import custom_kernel, kernel_row_sums, make_kernel

CHI_REL_TOL = 1e-12
MOMENT_REL_TOL = 1e-12
SIGMA2_REL_TOL = 1e-10

#: the five kernels of the simulation study
STUDY_KERNELS = [
    make_kernel("power", gamma=1.0),
    make_kernel("power", gamma=2.0),
    make_kernel("power", gamma=3.0),
    make_kernel("exp", beta=1.0),
    make_kernel("expsq"),
]
#: a user kernel whose diagonal is not exactly zero (allowed up to 1e-12):
#: chi must count it, the U-statistic must not
OFFSET = 4e-13
CUSTOM = custom_kernel("offset-power-1.5", lambda y, z: np.abs(y - z) ** 1.5 + OFFSET)
KERNELS = STUDY_KERNELS + [CUSTOM]
#: F(y) = y on [0, 1], so the samples below are the mapped values u
IDENTITY = uniform_map(0.0, 1.0)


def oracle_chi(u, kernel):
    n = u.size
    rows = [math.fsum(np.asarray(kernel.eval(u[i], u), dtype=float).tolist()) for i in range(n)]
    return math.fsum(rows) / (n * n)


def oracle_moments(u, kernel):
    n = u.size
    row_sums = np.empty(n)
    row_sq_sums = np.empty(n)
    cross = np.empty(n)
    for i in range(n):
        row = np.asarray(kernel.eval(u[i], u), dtype=float)
        row[i] = 0.0
        row_sums[i] = math.fsum(row.tolist())
        row_sq_sums[i] = math.fsum(np.square(row).tolist())
        cross[i] = row_sums[i] ** 2 - row_sq_sums[i]
    pairs = n * (n - 1)
    m = math.fsum(row_sums.tolist()) / pairs
    q = math.fsum(row_sq_sums.tolist()) / pairs
    r = math.fsum(cross.tolist()) / (pairs * (n - 2))
    return m, q, r


def assert_close(got, exact, rel_tol, what):
    assert abs(got - exact) <= rel_tol * abs(exact), f"{what}: {got!r} vs oracle {exact!r}"


@st.composite
def mapped_samples(draw, min_n):
    """Mapped values u in [0, 1]: continuous, 5-level, constant or near-constant."""
    n = draw(st.integers(min_n, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["continuous", "tied", "constant", "near-constant"]))
    if shape == "continuous":
        return rng.random(n)
    if shape == "tied":
        return rng.integers(0, 5, n) / 4.0
    if shape == "constant":
        return np.full(n, rng.random())
    spread = 10.0 ** draw(st.integers(-9, -2))
    return 0.5 + spread * (rng.random(n) - 0.5)


@given(mapped_samples(min_n=2), st.sampled_from(KERNELS))
@settings(max_examples=200, deadline=None)
def test_chi_matches_fsum_oracle(u, kernel):
    chi = xi_plugin(PairedSample(xs=np.arange(u.size, dtype=float), ys=u), kernel, IDENTITY).normalization
    assert_close(chi, oracle_chi(u, kernel), CHI_REL_TOL, f"chi {kernel.label()}")


@given(mapped_samples(min_n=3), st.sampled_from(KERNELS))
@settings(max_examples=200, deadline=None)
def test_ustat_moments_match_fsum_oracle(u, kernel):
    m, q, r = oracle_moments(u, kernel)
    if m == 0.0:
        with pytest.raises(DegenerateDataError):
            sigma2_ustat(u, kernel, IDENTITY)
        return
    sigma2 = (q - 2.0 * r + m * m) / (m * m)
    try:
        est = sigma2_ustat(u, kernel, IDENTITY)
    except NumericError:
        # refused as non-positive: the exact value must be (numerically) zero or below
        assert sigma2 <= SIGMA2_REL_TOL
        return
    for name, got, exact in zip("mqr", est.components, (m, q, r)):
        assert_close(got, exact, MOMENT_REL_TOL, f"{name} {kernel.label()}")
    if np.ptp(u) > 0.0:
        # (a constant sample under the offset kernel has sigma^2 = 0 exactly,
        # and both sides are rounding residue of q - 2r + m^2)
        assert_close(est.sigma2, sigma2, SIGMA2_REL_TOL, f"sigma2 {kernel.label()}")
    # the row sums depend only on the sorted sample: order cannot move a bit
    assert sigma2_ustat(u[::-1], kernel, IDENTITY).components == est.components


CONSTANT_SAMPLES = {
    "0.0": np.full(50, 0.0),
    "0.3": np.full(50, 0.3),
    "1.0": np.full(50, 1.0),
    "-0.0": np.full(50, -0.0),
    "mixed-zero": np.tile([0.0, -0.0], 25),
}


@pytest.mark.parametrize("kernel", STUDY_KERNELS, ids=lambda k: k.label())
@pytest.mark.parametrize("value", list(CONSTANT_SAMPLES))
def test_constant_sample_is_exactly_degenerate(kernel, value):
    u = CONSTANT_SAMPLES[value]
    sums, squares = kernel_row_sums(u, kernel, squares=True)
    assert np.all(sums == 0.0) and np.all(squares == 0.0)
    result = xi_plugin(PairedSample(xs=np.arange(50.0), ys=u), kernel, IDENTITY)
    assert repr(result.normalization) == "0.0"
    assert result.xi == 1.0
    with pytest.raises(DegenerateDataError, match="degenerate Y"):
        sigma2_ustat(u, kernel, IDENTITY)


def test_custom_diagonal_counts_in_chi_only():
    u = np.array([0.1, 0.5, 0.9])
    off_diagonal = np.abs(u[:, None] - u[None, :]) ** 1.5
    chi = xi_plugin(PairedSample(xs=np.arange(3.0), ys=u), CUSTOM, IDENTITY).normalization
    assert chi == pytest.approx((off_diagonal.sum() + 9 * OFFSET) / 9, rel=1e-15)
    sums, _ = kernel_row_sums(u, CUSTOM)
    assert sums == pytest.approx(off_diagonal.sum(axis=1) + 2 * OFFSET, rel=1e-15)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.label())
def test_row_sums_follow_input_order(kernel):
    u = np.random.default_rng(5).random(40)
    sums, squares = kernel_row_sums(u, kernel, squares=True)
    values = np.asarray(kernel.eval(u[:, None], u[None, :]), dtype=float)
    np.fill_diagonal(values, 0.0)
    np.testing.assert_allclose(sums, values.sum(axis=1), rtol=1e-13)
    np.testing.assert_allclose(squares, np.square(values).sum(axis=1), rtol=1e-13)


#: the kernels served by the integer-power routine
POWER_ROUTINE_KERNELS = [make_kernel("power", gamma=g) for g in (1.0, 2.0, 3.0)] + [
    make_kernel("expsq")
]
#: F(y) = y on the whole line, so that samples may leave [0, 1]
RAW = DistMap(kind="identity", eval=lambda t: np.asarray(t, dtype=float))
LARGE_N = 5000
LARGE_SAMPLES = {
    "continuous": lambda rng: rng.random(LARGE_N),
    "tied": lambda rng: rng.integers(0, 5, LARGE_N) / 4.0,
    # the minimum far from the bulk: centering there would cancel badly
    "two-clusters": lambda rng: np.where(rng.random(LARGE_N) < 0.002, 0.05, 0.95)
    + 1e-6 * rng.random(LARGE_N),
    "near-constant": lambda rng: 0.5 + 1e-9 * (rng.random(LARGE_N) - 0.5),
    "offset": lambda rng: 1e3 + rng.random(LARGE_N),
}


@pytest.mark.parametrize("kernel", POWER_ROUTINE_KERNELS, ids=lambda k: k.label())
@pytest.mark.parametrize("shape", sorted(LARGE_SAMPLES))
def test_power_routine_matches_blocked_path_at_large_n(shape, kernel):
    u = LARGE_SAMPLES[shape](np.random.default_rng(17))
    if kernel.name == "expsq" and shape == "offset":
        # e^(1e3 + U) overflows in Kernel.eval itself. An offset c only
        # scales e^u by e^c, and h^2 ~ e^(4c) must stay finite: c = 50.
        u = u - 950.0
    assert kernel.row_sums is not None  # otherwise both sides are the blocked path
    # the same eval without a row-sum hook: summed on the blocked path
    blocked = custom_kernel(f"blocked {kernel.label()}", kernel.eval)
    for got, exact in zip(
        kernel_row_sums(u, kernel, squares=True), kernel_row_sums(u, blocked, squares=True)
    ):
        np.testing.assert_allclose(got, exact, rtol=MOMENT_REL_TOL, atol=0.0)
    sample = PairedSample(xs=np.arange(LARGE_N, dtype=float), ys=u)
    chi = xi_plugin(sample, kernel, RAW).normalization
    assert_close(chi, xi_plugin(sample, blocked, RAW).normalization, CHI_REL_TOL, "chi")
    est = sigma2_ustat(u, kernel, RAW)
    exact = sigma2_ustat(u, blocked, RAW)
    for name, got, want in zip("mqr", est.components, exact.components):
        assert_close(got, want, MOMENT_REL_TOL, name)
    assert_close(est.sigma2, exact.sigma2, SIGMA2_REL_TOL, "sigma2")


# ------------------------------------------------ the test's moments
#
# Every independence test takes its U-statistic moments from the sorted
# mapped sample its coefficient's result keeps: R/n for the rank-based
# variants, F(y) for the plugin. sigma2_ustat is their reference, bit for
# bit: under the public empirical map for the rank-based variants, under
# the plugin's own map for the plugin. The simplified test refuses tied y.

RANKED_VARIANTS = ["rank", "simplified", "chatterjee"]


def ranked_y(shape, n, rng):
    ys = rng.normal(size=n)
    if shape == "rounded":
        return ys.round(1)
    if shape == "5-level":
        return rng.integers(0, 5, n).astype(float)
    if shape == "binary":
        return (ys > 0.0).astype(float)
    return ys


def check_test_variance(ys, kernel, variant, dist=None):
    sample = PairedSample(xs=np.random.default_rng(3).permutation(ys.size) * 1.0, ys=ys)
    if variant == "simplified" and np.unique(ys).size < ys.size:
        with pytest.raises(DegenerateDataError, match="rank"):
            independence_test(sample, kernel, variant, dist)
        return
    moment_kernel = make_kernel("power", gamma=1.0) if variant == "chatterjee" else kernel
    try:
        want = sigma2_ustat(ys, moment_kernel, empirical_map(ys) if dist is None else dist)
    except (DegenerateDataError, NumericError) as exc:
        with pytest.raises(type(exc)):
            independence_test(sample, kernel, variant, dist)
        return
    got = independence_test(sample, kernel, variant, dist).sigma2_used
    assert (got.sigma2, got.components, got.source) == (want.sigma2, want.components, want.source)


@given(
    st.sampled_from(["distinct", "rounded", "5-level", "binary"]),
    st.integers(3, 200),
    st.integers(0, 2**32 - 1),
    st.sampled_from(KERNELS + [make_kernel("power", gamma=0.5)]),
    st.sampled_from(RANKED_VARIANTS + ["plugin"]),
    st.sampled_from(["std-normal", "uniform:-1,1", "fit-normal", "empirical"]),
)
@settings(max_examples=300, deadline=None)
def test_ranked_variance_equals_empirical_map_path(shape, n, seed, kernel, variant, spec):
    ys = ranked_y(shape, n, np.random.default_rng(seed))
    # the plugin runs under the map ``spec``; no normal map fits a constant y
    plugin = variant == "plugin"
    assume(not plugin or spec != "fit-normal" or np.ptp(ys) > 0.0)
    check_test_variance(ys, kernel, variant, resolve_dist_spec(spec, ys) if plugin else None)


@pytest.mark.parametrize("variant", RANKED_VARIANTS)
@pytest.mark.parametrize("shape", ["distinct", "rounded"])
def test_ranked_variance_at_packed_sort_size(shape, variant):
    # from 4096 values on, y is sorted by packed keys
    ys = ranked_y(shape, LARGE_N, np.random.default_rng(8))
    check_test_variance(ys, make_kernel("exp", beta=1.0), variant)


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0, 0.5, 1.5, 2.0000001, 4.0])
def test_exact_path_only_for_checked_exponents(gamma):
    # only gamma = 1, 2, 3 are checked against the blocked path above;
    # other exponents must not silently take the expansion
    has_hook = make_kernel("power", gamma=gamma).row_sums is not None
    assert has_hook == (gamma in (1.0, 2.0, 3.0))


def test_exp_row_sums_for_steep_kernels():
    # beta * range beyond the 600 anchor limit takes several anchored blocks
    u = np.sort(np.random.default_rng(9).random(200))
    for beta in (50.0, 2000.0, 1e5):
        kernel = make_kernel("exp", beta=beta)
        sums, squares = kernel_row_sums(u, kernel, squares=True)
        values = kernel.eval(u[:, None], u[None, :])
        np.fill_diagonal(values, 0.0)
        np.testing.assert_allclose(sums, values.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(squares, np.square(values).sum(axis=1), rtol=1e-12)


# ------------------------------------------------------- average ranks


@given(
    st.lists(
        st.one_of(st.sampled_from([-1.0, 0.0, 2.5]), st.floats(-1e6, 1e6, allow_nan=False)),
        min_size=1,
        max_size=80,
    )
)
@example([-0.0 if i % 7 == 0 else float(i % 5) for i in range(300)])
# packed-key sizes: 50 levels, and 5 levels with -0.0 among the zeros
@example(np.random.default_rng(50).integers(0, 50, 3 * 4096).astype(float).tolist())
@example(
    [-0.0 if i % 7 == 0 else float(i % 5) for i in np.random.default_rng(5).permutation(3 * 4096)]
)
@settings(max_examples=200, deadline=None)
def test_average_ranks_equal_scipy_bitwise(values):
    values = np.asarray(values, dtype=float)
    assert np.array_equal(_mid_ranks(values), rankdata(values, method="average"))



# ------------------------------------------------------------ exact sums


def fsum_outcome(total, values):
    """The bits of ``total(values)``, or the type of what it raised."""
    try:
        return np.float64(total(values)).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def math_fsum(values):
    return math.fsum(values.tolist())


@st.composite
def float_arrays(draw):
    """Arrays on both sides of the numpy path's size bound, in awkward shapes."""
    low = _EXTRACT_MIN
    n = draw(st.one_of(
        st.sampled_from([low - 1, low, low + 1]), st.integers(2, low - 1), st.integers(low, 5000)
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["uniform", "wide", "subnormal", "cancel", "zeros", "grid"]))
    signs = rng.choice([-1.0, 1.0], n)
    if shape == "uniform":
        return rng.random(n)
    if shape == "wide":
        # exponents from the smallest subnormal up: to 2^1000 the extraction
        # runs into its level cap, to the largest normal the sum could
        # overflow; math.fsum adds them in both cases
        top = draw(st.sampled_from([1000, 1024]))
        return np.ldexp(signs * (1.0 + rng.random(n)), rng.integers(-1075, top, n))
    if shape == "subnormal":
        return signs * rng.integers(0, 2**52, n) * 5e-324
    if shape == "cancel":
        # mixed magnitudes and signs that cancel exactly, up to one or two
        # leftovers that may be zeros or tiny
        k = (n - 1) // 2
        half = signs[:k] * np.ldexp(rng.random(k), rng.integers(-60, 60, k))
        rest = rng.choice([0.0, -0.0, 5e-324, -1.0, 2.0**-1000], n - 2 * k)
        values = np.concatenate((half, -half, rest))
        rng.shuffle(values)
        return values
    if shape == "zeros":
        return signs * 0.0
    return rng.integers(1, n + 1, n) / n


@given(float_arrays())
@example(np.full(1000, -0.0))
@example(np.ldexp(1.0, np.linspace(-1074, 1000, 1000).astype(int)))
@example(np.ldexp(1.0, np.linspace(-1074, 1023, 1000).astype(int)))
@settings(max_examples=600, deadline=None)
def test_fsum_equals_math_fsum_bitwise(values):
    assert fsum_outcome(_fsum, values) == fsum_outcome(math_fsum, values)


@pytest.mark.parametrize("special", [
    [np.inf], [-np.inf], [np.nan], [np.inf, -np.inf], [np.inf, np.nan],
    # overflow, and an intermediate one math.fsum raises though the sum is finite
    [1e308] * 2, [1.7e308, 1.7e308, -1.7e308],
], ids=repr)
@pytest.mark.parametrize("n", [10, 1000, 5000])
def test_fsum_non_finite_and_overflow_as_math_fsum(special, n):
    values = np.random.default_rng(3).random(n)
    values[: len(special)] = special
    assert fsum_outcome(_fsum, values) == fsum_outcome(math_fsum, values)
    if math.isfinite(special[0]):  # the overflow cases
        with pytest.raises(OverflowError):
            _fsum(values)


def fsum_call_sizes(monkeypatch):
    """The lengths of the lists ``math.fsum`` is called with from here on."""
    sizes, fsum = [], math.fsum

    def recorded(values):
        values = list(values)
        sizes.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", recorded)
    return sizes


def test_fsum_large_arrays_do_not_call_math_fsum(monkeypatch):
    # without this, a size bound set too high would leave the numpy path untested
    values = np.random.default_rng(8).random(5000)
    want = math_fsum(values)
    sizes = fsum_call_sizes(monkeypatch)
    assert _fsum(values) == want
    assert sizes == [_LEVELS]  # the level sums only
    below = values[: _EXTRACT_MIN - 1]
    want = math_fsum(below)
    sizes.clear()
    assert _fsum(below) == want
    assert sizes == [below.size]


def block_values(shape, n):
    """n values in one of the shapes below, seeded by n."""
    rng = np.random.default_rng(n)
    signs = rng.choice([-1.0, 1.0], n)
    if shape == "uniform":
        return rng.random(n)
    if shape == "cancel":
        # exact cancellation across blocks, around a leftover of 0.75
        k = (n - 1) // 2
        half = signs[:k] * np.ldexp(rng.random(k), rng.integers(-30, 30, k))
        values = np.concatenate((half, -half, [0.75] * (n - 2 * k)))
        rng.shuffle(values)
        return values
    if shape == "zeros":
        return np.full(n, -0.0)
    if shape == "subnormal":
        return signs * rng.integers(0, 2**52, n) * 5e-324
    values = rng.random(n)
    if shape == "deep last block":
        # only the last block needs levels beyond the second
        values[-1] = 2.0**-100 * (1.0 + rng.random())
    elif shape == "capped last block":
        # the last block still holds a remainder after _LEVELS levels
        values[-1] = 2.0**-900 * (1.0 + rng.random())
    else:  # exponents over the float range: the first block reaches the cap
        values = np.ldexp(signs * (1.0 + values), rng.integers(-1075, 1000, n))
    return values


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("shape, extracted", [
    ("uniform", True), ("cancel", True), ("subnormal", True), ("deep last block", True),
    ("zeros", False), ("capped last block", False), ("wide", False),
])
def test_fsum_across_blocks_equals_math_fsum_bitwise(monkeypatch, n, shape, extracted):
    # a level's sum is carried from block to block; math.fsum sees only the
    # level sums, or else every value
    values = block_values(shape, n)
    want = fsum_outcome(math_fsum, values)
    sizes = fsum_call_sizes(monkeypatch)
    assert fsum_outcome(_fsum, values) == want
    assert sizes == ([_LEVELS] if extracted else [n])


def test_independence_test_at_1e5_as_math_fsum_recomputes_it():
    n = 100_000
    rng = np.random.default_rng(12)
    xs = rng.random(n)
    sample = PairedSample(xs=xs, ys=xs + rng.standard_normal(n))
    kernel = make_kernel("power", gamma=1.0)
    u = ranks(sample.ys) / n
    u_ordered = u[order_by_x(sample)]
    zeta = math_fsum(kernel.eval(u_ordered[:-1], u_ordered[1:])) / n

    # closed-form variance: z depends on the sum through zeta alone, which
    # for power:1 is the integer rank-gap sum over n^2, rounded once
    r_ordered = ranks(sample.ys)[order_by_x(sample)].tolist()
    gap_sum = sum(abs(b - a) for a, b in zip(r_ordered, r_ordered[1:]))
    result = independence_test(sample, kernel, "simplified", continuous_y=True)
    sigma2 = result.sigma2_used.sigma2
    xi = 1.0 - gap_sum / n**2 / kernel.closed_form_ch
    assert result.z == math.sqrt(n) * xi / math.sqrt(sigma2)

    # U-statistic variance: m, q and r are sums of 1e5 row sums; the rank
    # xi is the exact ratio 1 - n * gap_sum / P with P = sum_{i,j} |R_i - R_j|,
    # n (n^2 - 1) / 3 for distinct y, rounded once
    result = independence_test(sample, kernel, "rank")
    sums, squares = kernel_row_sums(u, kernel, squares=True)
    pairs = n * (n - 1)
    m = math_fsum(sums) / pairs
    q = math_fsum(squares) / pairs
    r = math_fsum(sums**2 - squares) / (pairs * (n - 2))
    assert result.sigma2_used.components == (m, q, r)
    sigma2 = (q - 2.0 * r + m * m) / (m * m)
    assert result.sigma2_used.sigma2 == sigma2
    pair_sum = n * (n * n - 1) // 3
    xi = float(Fraction(pair_sum - n * gap_sum, pair_sum))
    assert abs(xi - (1.0 - zeta / (math_fsum(sums) / (n * n)))) < 1e-12
    assert result.z == math.sqrt(n) * xi / math.sqrt(sigma2)

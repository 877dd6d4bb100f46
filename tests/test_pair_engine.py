"""The pairwise-kernel engine against the exactly rounded row-loop oracle.

The library adds its sums with ``estimator._fsum``, which must return
``math.fsum``'s value bit for bit; the last section checks that first.

``kernels._sorted_row_sums`` serves chi (``xi_plugin`` / ``xi_rank``) and the
U-statistic moments (``sigma2_ustat``) through exact fast paths for the
builtin kernels and blocked sums over the distinct values for everything
else. The oracle below is the definition evaluated one row at a time with
``math.fsum``: exactly rounded sums of the kernel values, independent of
evaluation order.

Tolerances, relative to the oracle:
* chi, m, q and r: 1e-12 (the fast paths measure within a few 1e-16, and
  up to about 1e-14 for steep exp kernels);
* sigma^2 = (q - 2r + m^2) / m^2: 1e-10, the bound the benchmark checks,
  which leaves room for the cancellation in its numerator.

The oracle is too slow beyond a few hundred points, while the rounding error
of the prefix sums grows with n; the integer-power routine (power:1,
power:2, power:3 and expsq) is also checked at n=5000 against the blocked
sums, under the same tolerances, which ``_sorted_row_sums`` also promises for
every single row.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

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
    _lattice_pair_mean,
    _mid_ranks,
    _pair_mean,
    order_by_x,
    ranks,
    xi_plugin,
    xi_rank,
)
from xifamily.inference import independence_test, sigma2_ustat
from xifamily.kernels import _sorted_row_sums, custom_kernel, make_kernel, parse_kernel_spec

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
    if m == 0.0 or u.min() == u.max():
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
    sums, squares = _sorted_row_sums(np.sort(u), kernel, squares=True)
    assert np.all(sums == 0.0) and np.all(squares == 0.0)
    result = xi_plugin(PairedSample(xs=np.arange(50.0), ys=u), kernel, IDENTITY)
    assert repr(result.normalization) == "0.0"
    assert result.xi == 1.0
    with pytest.raises(DegenerateDataError, match="degenerate Y"):
        sigma2_ustat(u, kernel, IDENTITY)


@pytest.mark.parametrize("n", [7, 50, 1000])
def test_constant_sample_is_refused_under_a_nonzero_diagonal(n):
    # sigma^2 is 0 exactly; the rounding residue of q - 2r + m^2 must not
    # decide between a refusal and a huge z
    kernel = load_output_digest().CUSTOM
    ys = np.full(n, 2.5)
    sample = PairedSample(xs=np.arange(float(n)), ys=ys)
    coincide = "all mapped values coincide"
    for variant, dist in [("rank", None), ("plugin", resolve_dist_spec("std-normal", ys))]:
        with pytest.raises(DegenerateDataError, match=coincide):
            independence_test(sample, kernel, variant, dist)
    with pytest.raises(DegenerateDataError, match=coincide):
        sigma2_ustat(ys, kernel, empirical_map(ys))


def test_custom_diagonal_counts_in_chi_only():
    u = np.array([0.1, 0.5, 0.9])
    off_diagonal = np.abs(u[:, None] - u[None, :]) ** 1.5
    chi = xi_plugin(PairedSample(xs=np.arange(3.0), ys=u), CUSTOM, IDENTITY).normalization
    assert chi == pytest.approx((off_diagonal.sum() + 9 * OFFSET) / 9, rel=1e-15)
    sums, _ = _sorted_row_sums(np.sort(u), CUSTOM)
    assert sums == pytest.approx(off_diagonal.sum(axis=1) + 2 * OFFSET, rel=1e-15)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.label())
def test_row_sums_follow_input_order(kernel):
    u = np.sort(np.random.default_rng(5).random(40))
    sums, squares = _sorted_row_sums(u, kernel, squares=True)
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
    assert kernel.row_sums is not None  # otherwise both sides are the blocked sums
    # the same eval without a row-sum hook: summed in blocks
    blocked = custom_kernel(f"blocked {kernel.label()}", kernel.eval)
    v = np.sort(u)
    for got, exact in zip(
        _sorted_row_sums(v, kernel, squares=True), _sorted_row_sums(v, blocked, squares=True)
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
    # only gamma = 1, 2, 3 are checked against the blocked sums above;
    # other exponents must not silently take the expansion
    has_hook = make_kernel("power", gamma=gamma).row_sums is not None
    assert has_hook == (gamma in (1.0, 2.0, 3.0))


def test_exp_row_sums_for_steep_kernels():
    # beta * range beyond the 600 anchor limit takes several anchored blocks
    u = np.sort(np.random.default_rng(9).random(200))
    for beta in (50.0, 2000.0, 1e5):
        kernel = make_kernel("exp", beta=beta)
        sums, squares = _sorted_row_sums(u, kernel, squares=True)
        values = kernel.eval(u[:, None], u[None, :])
        np.fill_diagonal(values, 0.0)
        np.testing.assert_allclose(sums, values.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(squares, np.square(values).sum(axis=1), rtol=1e-12)


# ------------------------------------------------ few levels and the lattice
#
# Values with m distinct levels take their row sums from blocks of h between
# the levels, weighted by the level counts, unless m^2 > n and the kernel has
# a row-sum hook. Rank-based variants on distinct y read chi and the totals
# on 1/n, ..., 1 from a memo that must return _pair_mean's bits.


def load_output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LEVEL_KERNELS = (
    [make_kernel("power", gamma=g) for g in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    + [make_kernel("exp", beta=b) for b in (0.05, 1.0, 200.0)]
    + [make_kernel("expsq"), load_output_digest().CUSTOM]
)


def leveled(n, m, seed):
    """n ascending values on m distinct levels in [0, 1), each level taken."""
    rng = np.random.default_rng(seed)
    points = rng.random(m)
    return np.sort(np.concatenate((points, rng.choice(points, n - m))))


def check_level_row_sums(v, kernel):
    # every row at level a against math.fsum of c_b h(L_a, L_b) over the
    # levels b, less the value's pair with itself; each product c_b h is
    # rounded once, far inside the tolerance
    sums, squares = _sorted_row_sums(v, kernel, squares=True)
    levels, first, counts = np.unique(v, return_index=True, return_counts=True)
    table = np.asarray(kernel.eval(levels[:, None], levels[None, :]), dtype=float)
    for a, start in enumerate(first):
        rows = slice(start, start + counts[a])
        for name, got, terms in [("S", sums, table[a]), ("Q", squares, np.square(table[a]))]:
            exact = math.fsum((terms * counts).tolist() + [-terms[a]])
            for value in got[rows]:
                assert_close(value, exact, MOMENT_REL_TOL, f"{name} {kernel.label()}")


@given(
    st.integers(5, 300),
    st.sampled_from(["1", "2", "5", "sqrt", "sqrt+1", "n/3", "n"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(LEVEL_KERNELS),
)
@settings(max_examples=300, deadline=None)
def test_level_row_sums_match_fsum_oracle(n, levels, seed, kernel):
    m = {"sqrt": math.isqrt(n), "sqrt+1": math.isqrt(n) + 1, "n/3": n // 3, "n": n}.get(levels)
    check_level_row_sums(leveled(n, m or int(levels), seed), kernel)


@pytest.mark.parametrize("kernel", LEVEL_KERNELS, ids=lambda k: k.label())
@pytest.mark.parametrize("m", [math.isqrt(20_000), 200])
def test_level_row_sums_across_blocks(m, kernel):
    # more levels than a block holds rows: the column sums past each block
    # reach later rows; at sqrt(n) levels the hooked kernels take blocks too
    assert m > BLOCK // m
    check_level_row_sums(leveled(20_000, m, 11), kernel)


def test_tied_values_are_evaluated_once_per_level_pair():
    evaluated = []

    def counted(y, z):
        evaluated.append(np.broadcast(y, z).size)
        return np.abs(np.subtract(y, z)) ** 1.5

    kernel = custom_kernel("counted", counted)
    evaluated.clear()  # the validation grid
    m = 2000
    _sorted_row_sums(leveled(20_000, m, 12), kernel, squares=True)
    assert sum(evaluated) < 3 * m * m


@pytest.mark.parametrize("kernel", LEVEL_KERNELS, ids=lambda k: k.label())
def test_lattice_memo_keeps_pair_mean_bits(kernel):
    for n in (2, 3, 50, 1000):
        for squares in (False, True):
            fresh = _pair_mean(np.arange(1, n + 1) / n, kernel, squares)
            assert _lattice_pair_mean(kernel, n, squares) == fresh
            assert _lattice_pair_mean(kernel, n, squares) == fresh  # from the memo


def test_lattice_memo_keeps_kernels_apart():
    _lattice_pair_mean.cache_clear()
    gentle, steep = make_kernel("exp", beta=1.0), make_kernel("exp", beta=2.0)
    first = _lattice_pair_mean(gentle, 100, True)
    second = _lattice_pair_mean(steep, 100, True)
    assert _lattice_pair_mean.cache_info().currsize == 2
    assert first != second
    assert second == _pair_mean(np.arange(1, 101) / 100, steep, True)


def test_kernels_parsed_from_one_spec_share_a_memo_entry():
    sample = PairedSample(xs=np.arange(100.0), ys=np.random.default_rng(8).random(100))
    _lattice_pair_mean.cache_clear()
    first = independence_test(sample, parse_kernel_spec("exp:1"), "rank")
    assert independence_test(sample, parse_kernel_spec("exp:1"), "rank") == first
    assert _lattice_pair_mean.cache_info().currsize == 1
    assert _lattice_pair_mean.cache_info().hits == 1


def test_kernel_zero_off_the_diagonal_is_refused_on_every_call():
    zero = custom_kernel("zero", lambda y, z: np.zeros(np.broadcast(y, z).shape))
    sample = PairedSample(xs=np.arange(20.0), ys=np.random.default_rng(4).random(20))
    _lattice_pair_mean.cache_clear()
    for _ in range(2):
        with pytest.raises(DegenerateDataError, match="kernel zero is 0"):
            xi_rank(sample, zero)
        with pytest.raises(DegenerateDataError, match="kernel zero is 0"):
            independence_test(sample, zero, "rank")
    assert _lattice_pair_mean.cache_info().currsize == 0


def test_unhashable_eval_is_memoized_by_its_kernel():
    class Gap:  # __eq__ alone leaves instances unhashable
        def __eq__(self, other):
            return isinstance(other, Gap)

        def __call__(self, y, z):
            return np.abs(np.subtract(y, z)) ** 1.5

    sample = PairedSample(xs=np.arange(40.0), ys=np.random.default_rng(6).random(40))
    hashable = custom_kernel("gap", lambda y, z: np.abs(np.subtract(y, z)) ** 1.5)
    _lattice_pair_mean.cache_clear()
    got = independence_test(sample, custom_kernel("gap", Gap()), "rank")
    assert _lattice_pair_mean.cache_info().currsize == 1
    assert got == independence_test(sample, hashable, "rank")


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
    sums, squares = _sorted_row_sums(np.sort(u), kernel, squares=True)
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

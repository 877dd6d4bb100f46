"""The pairwise-kernel engine against the exactly rounded row-loop oracle.

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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from xifamily.cdf import DistMap, uniform_map
from xifamily.errors import DegenerateDataError, NumericError
from xifamily.estimator import PairedSample, _average_ranks, xi_plugin
from xifamily.inference import sigma2_ustat
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
@settings(max_examples=200, deadline=None)
def test_average_ranks_equal_scipy_bitwise(values):
    values = np.asarray(values, dtype=float)
    assert np.array_equal(_average_ranks(values), rankdata(values, method="average"))


import functools
import math

import numpy as np
import pytest
from scipy.special import ndtr

from xifamily import estimator, inference
from xifamily.cdf import empirical_map, std_normal_map, uniform_map
from xifamily.errors import DegenerateDataError, NumericError
from xifamily.estimator import (
    VARIANTS,
    PairedSample,
    _fsum,
    coefficient,
    ranks,
    xi_plugin,
    xi_rank,
    xi_simplified,
)
from xifamily.inference import (
    independence_test,
    sigma2_power_closed_form,
    sigma2_ustat,
)
from xifamily.kernels import _sorted_row_sums, custom_kernel, make_kernel, parse_kernel_spec
from xifamily.simulate import rep_seed

POWER1 = make_kernel("power", gamma=1.0)
POWER3 = make_kernel("power", gamma=3.0)
#: a kernel without a row-sum hook, summed in blocks
CUSTOM = custom_kernel("custom", lambda u, v: np.square(u - v) * (1.0 + u * v))


# ------------------------------------------------------------- closed form

def test_closed_form_gamma_1_is_two_fifths():
    assert sigma2_power_closed_form(1.0) == pytest.approx(0.4, abs=1e-12)


def test_closed_form_gamma_2_is_one():
    # bracket term is 3/20 - 1/7 - 1/140 = 0 in exact rationals
    assert sigma2_power_closed_form(2.0) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_gamma_half_matches_monte_carlo():
    # moment oracle: m = E h12, q = E h12^2, r = E h12 h13 with h = |u-v|^0.5
    # over iid Unif[0,1]; sigma2 = (q - 2r + m^2)/m^2, batched for an SE
    closed = sigma2_power_closed_form(0.5)
    assert 0.0 < closed < math.inf
    rng = np.random.default_rng(404)
    batches = 40
    per_batch = 250_000
    estimates = np.empty(batches)
    for b in range(batches):
        u1, u2, u3 = rng.random((3, per_batch))
        h12 = np.abs(u1 - u2) ** 0.5
        h13 = np.abs(u1 - u3) ** 0.5
        m = h12.mean()
        q = (h12**2).mean()
        r = (h12 * h13).mean()
        estimates[b] = (q - 2.0 * r + m * m) / (m * m)
    se = np.std(estimates, ddof=1) / math.sqrt(batches)
    assert abs(estimates.mean() - closed) <= 3.0 * se


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), 151.0])
def test_closed_form_rejects_out_of_domain(bad):
    with pytest.raises(ValueError):
        sigma2_power_closed_form(bad)


# -------------------------------------------------------------- U-statistic

def test_ustat_three_point_hand_case():
    # u = [0.1, 0.5, 0.9], h = |u_i - u_j|: h12 = 0.4, h13 = 0.8, h23 = 0.4
    # over the 6 ordered pairs and 6 ordered triples:
    #   m = 3.2/6 = 8/15, q = 1.92/6 = 8/25, r = 1.6/6 = 4/15, sigma2 = 1/4
    est = sigma2_ustat([0.1, 0.5, 0.9], POWER1, uniform_map(0.0, 1.0))
    m, q, r = est.components
    assert m == pytest.approx(8.0 / 15.0, abs=1e-15)
    assert q == pytest.approx(8.0 / 25.0, abs=1e-15)
    assert r == pytest.approx(4.0 / 15.0, abs=1e-15)
    assert est.sigma2 == pytest.approx(0.25, abs=1e-14)
    assert est.source == "ustat_plugin"


@pytest.mark.parametrize(
    "ys, message",
    [
        ([0.3, float("nan"), 1.2, -0.5], "xs and ys must be finite"),
        ([0.3, float("inf"), 1.2, -0.5], "xs and ys must be finite"),
        ([0.3, -float("inf"), 1.2, -0.5], "xs and ys must be finite"),
        ([[0.3, 0.7], [1.2, -0.5]], "xs and ys must be one-dimensional"),
    ],
    ids=["nan", "inf", "-inf", "2-D"],
)
def test_sigma2_ustat_refuses_what_a_sample_refuses(ys, message):
    with pytest.raises(ValueError, match=message) as refused:
        sigma2_ustat(ys, POWER1, std_normal_map())
    with pytest.raises(ValueError) as by_sample:
        PairedSample(xs=np.zeros_like(ys), ys=ys)
    assert str(refused.value) == str(by_sample.value)


def test_nan_variance_is_refused():
    # totals that overflowed to inf give q - 2r = inf - inf
    with pytest.raises(NumericError, match="variance estimate nan is not positive"):
        inference._sigma2(10, (1.0, math.inf, math.inf), "ustat_plugin")


def test_underflowing_variance_is_refused():
    # mapped values within 1e-60 of each other: power:3 gives m near 1e-181,
    # whose square underflows to 0
    ys = 1e-60 * np.random.default_rng(10).random(50)
    with pytest.raises(NumericError, match="variance estimate nan is not positive"):
        sigma2_ustat(ys, POWER3, uniform_map(0.0, 1.0))


def test_ustat_sigma2_consistent_with_components():
    rng = np.random.default_rng(8)
    est = sigma2_ustat(rng.random(60), POWER1, uniform_map(0.0, 1.0))
    m, q, r = est.components
    assert est.sigma2 == (q - 2.0 * r + m * m) / (m * m)


def test_ustat_rejects_constant_y():
    with pytest.raises(DegenerateDataError, match="degenerate Y"):
        sigma2_ustat([2.0, 2.0, 2.0, 2.0], POWER1, std_normal_map())


def test_ustat_names_a_kernel_that_vanishes_on_distinct_values():
    zero = custom_kernel("zero", lambda u, v: 0.0 * (u - v))
    ys = np.random.default_rng(9).normal(size=40)
    with pytest.raises(DegenerateDataError, match="kernel zero .* though they differ") as caught:
        sigma2_ustat(ys, zero, std_normal_map())
    assert "coincide" not in str(caught.value)


def test_ustat_needs_three_points():
    with pytest.raises(DegenerateDataError, match="n >= 3"):
        sigma2_ustat([1.0, 2.0], POWER1, std_normal_map())


def test_ustat_positive_on_random_samples():
    rng = np.random.default_rng(15)
    for _ in range(20):
        est = sigma2_ustat(rng.normal(size=30), POWER1, std_normal_map())
        assert est.sigma2 > 0.0


def test_ustat_permutation_invariant_bitwise():
    # exactly rounded reductions: reversing the sample must not move a bit
    ys = np.random.default_rng(2).random(120)
    a = sigma2_ustat(ys, POWER1, empirical_map(ys))
    b = sigma2_ustat(ys[::-1], POWER1, empirical_map(ys[::-1]))
    assert a.components == b.components
    assert a.sigma2 == b.sigma2


def test_ustat_converges_to_closed_form_empirical():
    # rank-based moments at n=5000: ranks / n of continuous y are
    # 1/n, ..., 1 whatever the sample, and miss the limit 2/5 by about 0.6/n
    ys = np.random.default_rng(3000).random(5000)
    est = sigma2_ustat(ys, POWER1, empirical_map(ys))
    assert est.source == "ustat_rank"
    assert abs(est.sigma2 - 0.4) <= 1e-3 * 0.4


def test_ustat_converges_to_closed_form_plugin():
    # same limit with the true CDF as F: u_i are the uniforms themselves
    for rep in range(5):
        ys = np.random.default_rng(4000 + rep).random(2000)
        est = sigma2_ustat(ys, POWER1, uniform_map(0.0, 1.0))
        assert est.source == "ustat_plugin"
        assert abs(est.sigma2 - 0.4) <= 0.05


def test_ustat_power3_converges_to_closed_form_empirical():
    # the sixth-moment expansion behind q: ranks / n of continuous y are
    # 1/n, ..., 1 whatever the sample, and miss the limit by about 0.75/n
    target = sigma2_power_closed_form(3.0)
    ys = np.random.default_rng(3000).random(5000)
    est = sigma2_ustat(ys, POWER3, empirical_map(ys))
    assert est.source == "ustat_rank"
    assert abs(est.sigma2 - target) <= 1e-3 * target


def test_ustat_power3_converges_to_closed_form_plugin():
    # with the true CDF the estimate varies by sample: sd about 0.013 at n=5000
    target = sigma2_power_closed_form(3.0)
    for rep in range(20):
        ys = np.random.default_rng(4000 + rep).random(5000)
        est = sigma2_ustat(ys, POWER3, uniform_map(0.0, 1.0))
        assert abs(est.sigma2 - target) <= 0.04 * target


# --------------------------------------------------------------- the test

def _independent_sample(n, seed):
    rng = np.random.default_rng(seed)
    return PairedSample(xs=rng.random(n), ys=rng.random(n))


def test_closed_form_is_used_for_rank_based_power_continuous():
    s = _independent_sample(200, 1)
    result = independence_test(s, POWER1, variant="simplified", continuous_y=True)
    assert result.sigma2_used.source == "closed_form_power"
    assert result.sigma2_used.sigma2 == pytest.approx(0.4, abs=1e-12)


def test_z_matches_arithmetic_contract():
    s = _independent_sample(500, 2)
    result = independence_test(s, POWER1, variant="simplified", continuous_y=True)
    xi = xi_simplified(s, POWER1).xi
    expected = math.sqrt(500) * xi / math.sqrt(0.4)
    assert result.z == pytest.approx(expected, abs=1e-12)
    assert result.p_two_sided == pytest.approx(
        2.0 * min(result.p_one_sided, 1.0 - result.p_one_sided), rel=1e-9
    )


@pytest.mark.parametrize("seed", [2, 3])
def test_p_values_are_normal_tails(seed):
    s = _independent_sample(500, seed)
    if seed == 3:
        s = PairedSample(xs=s.xs, ys=s.xs + 0.3 * s.ys)
    result = independence_test(s, POWER1, variant="rank")
    assert result.p_one_sided == pytest.approx(ndtr(-result.z), rel=1e-13)
    assert result.p_two_sided == pytest.approx(2.0 * ndtr(-abs(result.z)), rel=1e-13)


def test_dependence_forces_tiny_p():
    xs = np.random.default_rng(3).random(1000)
    s = PairedSample(xs=xs, ys=xs)
    result = independence_test(s, POWER1, variant="simplified", continuous_y=True)
    assert result.p_one_sided < 1e-6


def test_ustat_sources_by_variant():
    s = _independent_sample(100, 4)
    rank_result = independence_test(s, POWER1, variant="rank")
    assert rank_result.sigma2_used.source == "ustat_rank"
    plugin_result = independence_test(
        s, POWER1, variant="plugin", dist=uniform_map(0.0, 1.0)
    )
    assert plugin_result.sigma2_used.source == "ustat_plugin"


def test_chatterjee_variant_uses_power1_variance():
    s = _independent_sample(150, 5)
    result = independence_test(s, POWER1, variant="chatterjee", continuous_y=True)
    assert result.sigma2_used.sigma2 == pytest.approx(0.4, abs=1e-12)


def test_plugin_requires_dist():
    s = _independent_sample(50, 6)
    with pytest.raises(ValueError, match="distribution map"):
        independence_test(s, POWER1, variant="plugin")


def test_small_n_rejected():
    s = PairedSample(xs=np.array([1.0, 2.0]), ys=np.array([3.0, 4.0]))
    with pytest.raises(DegenerateDataError, match="n >= 3"):
        independence_test(s, POWER1, variant="simplified")


def test_declared_continuous_tied_y_take_the_ustat():
    s = PairedSample(
        xs=np.array([1.0, 2.0, 3.0, 4.0]), ys=np.array([1.0, 1.0, 2.0, 3.0])
    )
    result = independence_test(s, POWER1, variant="rank", continuous_y=True)
    assert result.sigma2_used.source == "ustat_rank"


def test_declared_continuous_constant_y_is_refused():
    # the closed form would give z = 11.18 and p = 2.5e-29 on this null sample
    s = PairedSample(xs=np.linspace(0.0, 1.0, 50), ys=np.full(50, 3.0))
    with pytest.raises(DegenerateDataError, match="coincide"):
        independence_test(s, POWER1, variant="rank", continuous_y=True)


ROW_SUM_KERNELS = ["power:0.5", "power:1", "power:2", "power:3", "exp:1", "expsq"]


def _counted_row_sums(monkeypatch):
    """Log ``(n, squares)`` of every ``_sorted_row_sums`` call; the test makes
    them all through the estimator's ``_pair_mean``."""
    calls = []

    def counted(v, kernel, squares=False):
        calls.append((v.size, squares))
        return _sorted_row_sums(v, kernel, squares)

    monkeypatch.setattr(estimator, "_sorted_row_sums", counted)
    return calls


@pytest.mark.parametrize(
    "variant, spec, f, continuous, passes",
    [
        ("rank", "power:0.5", None, False, [(500, True)]),
        ("rank", "exp:1", None, True, [(500, True)]),
        ("plugin", "expsq", "std-normal", False, [(500, True)]),
        ("plugin", "power:1", "std-normal", True, [(500, True)]),
        ("simplified", "power:0.5", None, False, [(500, True)]),
        # the closed form needs no moments, and power:1's chi is an integer pair sum
        ("rank", "power:1", None, True, []),
        ("simplified", "power:1", None, True, []),
        # Chatterjee takes no chi, so the closed form sums nothing
        ("chatterjee", "power:1", None, True, []),
    ],
)
def test_one_row_sum_pass_per_test(monkeypatch, variant, spec, f, continuous, passes):
    s = _independent_sample(500, 8)
    check_row_sum_passes(monkeypatch, s, variant, spec, f, continuous, passes)


@pytest.mark.parametrize(
    "variant, spec, passes",
    [
        # the ranking shows the ties before any sum, so chi takes S and Q at once
        ("rank", "power:0.5", [(500, True)]),
        ("rank", "power:1", [(500, True)]),
        ("chatterjee", "power:1", [(500, True)]),
    ],
)
def test_one_row_sum_pass_per_test_on_tied_y(monkeypatch, variant, spec, passes):
    # declared continuous, so a test that learned of the ties after chi's pass
    # would have taken S alone first
    s = _independent_sample(500, 8)
    tied = PairedSample(xs=s.xs, ys=s.ys.round(1))
    check_row_sum_passes(monkeypatch, tied, variant, spec, None, True, passes)


def check_row_sum_passes(monkeypatch, s, variant, spec, f, continuous, passes):
    kernel = parse_kernel_spec(spec)
    dist = std_normal_map() if f else None
    calls = _counted_row_sums(monkeypatch)
    result = independence_test(s, kernel, variant, dist, tie_seed=3, continuous_y=continuous)
    assert calls == passes
    if result.sigma2_used.source != "closed_form_power":
        moments = sigma2_ustat(s.ys, kernel, dist or empirical_map(s.ys))
        assert result.sigma2_used == moments


@pytest.mark.parametrize(
    "variant, spec, f", [("rank", "exp:1", None), ("plugin", "expsq", "std-normal")]
)
def test_moments_add_three_exact_sums_over_n(monkeypatch, variant, spec, f):
    # chi's sum of S is the moments' first total, so the test adds S once:
    # S, Q and S^2 - Q; zeta's n - 1 kernel values come on top
    n = 1000
    s = _independent_sample(n, 9)
    sizes = []

    def counted(values):
        sizes.append(values.size)
        return _fsum(values)

    monkeypatch.setattr(estimator, "_fsum", counted)
    dist = std_normal_map() if f else None
    result = independence_test(s, parse_kernel_spec(spec), variant, dist)
    assert result.sigma2_used.source.startswith("ustat_")
    assert sorted(sizes) == [n - 1, n, n, n]


def test_custom_kernel_sums_only_what_is_read(monkeypatch):
    # chi alone adds S once, together with the diagonal it counts; the
    # moments alone add S, Q and S^2 - Q and never evaluate the diagonal
    n = 300
    s = _independent_sample(n, 10)
    sizes, vector_evals = [], []

    def counted_sum(values):
        sizes.append(values.size)
        return _fsum(values)

    def counted_eval(u, v):
        if np.ndim(u) == 1:  # zeta's consecutive pairs or chi's diagonal; blocks are 2-D
            vector_evals.append(np.size(u))
        return CUSTOM.eval(u, v)

    kernel = custom_kernel("counted", counted_eval)
    monkeypatch.setattr(estimator, "_fsum", counted_sum)
    xi_rank(s, kernel)
    assert (sorted(sizes), vector_evals) == ([n - 1, 2 * n], [n - 1, n])
    sizes.clear()
    vector_evals.clear()
    sigma2_ustat(s.ys, kernel, empirical_map(s.ys))
    assert (sorted(sizes), vector_evals) == ([n, n, n], [])


@pytest.mark.parametrize(
    "variant, kernel, dist",
    [
        ("spearman", POWER1, None),
        ("rank", None, None),
        ("simplified", None, None),
        ("plugin", None, std_normal_map()),
        ("plugin", POWER1, None),
    ],
)
def test_test_and_coefficient_refuse_bad_arguments_alike(variant, kernel, dist):
    s = _independent_sample(50, 11)
    with pytest.raises(ValueError) as by_coefficient:
        coefficient(s, variant, kernel, dist)
    with pytest.raises(ValueError) as by_test:
        independence_test(s, kernel, variant, dist)
    assert str(by_test.value) == str(by_coefficient.value)


@pytest.mark.parametrize("spec", ROW_SUM_KERNELS + ["custom"])
@pytest.mark.parametrize("variant", ["plugin", "rank"])
@pytest.mark.parametrize("ys_kind", ["distinct", "tied"])
def test_row_sums_with_squares_keep_chi(spec, variant, ys_kind):
    # chi is added from S, and S has the same bits with or without Q
    rng = np.random.default_rng(12)
    ys = rng.normal(size=300)
    if ys_kind == "tied":
        ys = ys.round(0)
    s = PairedSample(xs=rng.random(300), ys=ys)
    kernel = CUSTOM if spec == "custom" else parse_kernel_spec(spec)
    if variant == "plugin":
        dist = std_normal_map()
        plain = xi_plugin(s, kernel, dist, 5)
        u = np.sort(dist.eval(ys))
    else:
        dist = None
        plain = xi_rank(s, kernel, 5)
        u = np.sort(ranks(ys)) / 300  # the grid 1/n, ..., 1 for distinct y
    assert estimator._coefficient(s, variant, kernel, 5, dist)[1] is None
    kept, totals = estimator._coefficient(s, variant, kernel, 5, dist, squares=lambda y_tied: True)
    assert (kept.xi, kept.zeta, kept.normalization) == (plain.xi, plain.zeta, plain.normalization)
    row_sums, row_sq_sums = _sorted_row_sums(u, kernel, squares=True)
    expected = (row_sums, row_sq_sums, row_sums**2 - row_sq_sums)
    assert totals == tuple(math.fsum(sums.tolist()) for sums in expected)


def _y_with(duplicate, n):
    """Distinct y's, or distinct but for one equal pair (``duplicate``)."""
    ys = np.linspace(1.0, 2.0, n)
    if duplicate == "equal pair":
        ys[-1] = ys[0]
    elif duplicate == "signed zeros":
        ys[0], ys[-1] = -0.0, 0.0
    return np.random.default_rng(n).permutation(ys)


@pytest.mark.parametrize("n", [20, 5000])
@pytest.mark.parametrize("duplicate", ["none", "equal pair", "signed zeros"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_duplicate_y_warning_fires_exactly_on_ties(variant, duplicate, n):
    # y declared continuous takes the closed form exactly where the variant
    # is rank-based and the ranking found no two equal y's, reading -0.0
    # and 0.0 as equal; the plugin always takes the U-statistic
    s = PairedSample(xs=np.linspace(-1.0, 1.0, n), ys=_y_with(duplicate, n))
    dist = std_normal_map() if variant == "plugin" else None
    closed_form = variant != "plugin" and duplicate == "none"
    if variant == "simplified" and duplicate != "none":
        with pytest.raises(DegenerateDataError, match="rank"):
            independence_test(s, POWER1, variant=variant, dist=dist, continuous_y=True)
    else:
        test = independence_test(s, POWER1, variant=variant, dist=dist, continuous_y=True)
        assert (test.sigma2_used.source == "closed_form_power") == closed_form
    y_tied = coefficient(s, variant, POWER1, dist).y_tied
    assert y_tied is (None if variant == "plugin" else duplicate != "none")


# ------------------------------------------------------------ null level
#
# Seeded rejection rates of the one-sided 5% test under independence, on
# the grid of ROADMAP.md item 1: x uniform, n = 500, 300 repetitions per
# cell, the same 300 samples for every cell of a y kind. y is continuous
# (declared so), 5-level or binary, and binary declared continuous. Under
# a correct level the rejection count is Binomial(300, 0.05), and [4, 29]
# is its equal-tailed 99.9% region: P(X <= 3) = 1.6e-4 and
# P(X >= 30) = 2.8e-4. The simplified test refuses tied y, so its tied
# cells check that every repetition is refused (C_h rejected up to 100%).

NULL_N = 500
NULL_REPS = 300
NULL_REJECTIONS = (4, 29)


@functools.lru_cache(maxsize=None)
def null_samples(y_kind):
    samples = []
    for rep in range(NULL_REPS):
        rng = np.random.default_rng(rep_seed(2024, rep))
        xs = rng.random(NULL_N)
        if y_kind == "binary":
            ys = rng.integers(0, 2, NULL_N).astype(float)
        elif y_kind == "5-level":
            ys = rng.integers(0, 5, NULL_N).astype(float)
        else:
            ys = rng.normal(size=NULL_N)
        samples.append(PairedSample(xs=xs, ys=ys))
    return samples


def null_cells():
    for y_kind in ["binary", "5-level", "continuous"]:
        for variant in ["plugin", "rank", "simplified", "chatterjee"]:
            # chatterjee fixes h = |u - v|
            specs = ["power:1"] if variant == "chatterjee" else ["power:1", "exp:1", "expsq"]
            for spec in specs:
                yield pytest.param(
                    variant, spec, y_kind, y_kind == "continuous", id=f"{variant}-{spec}-{y_kind}"
                )
    # tied y declared continuous, where the closed form would reject 39 of 300
    for variant in ["rank", "chatterjee"]:
        yield pytest.param(
            variant, "power:1", "binary", True, id=f"{variant}-power:1-binary-declared-continuous"
        )


@pytest.mark.parametrize("variant, spec, y_kind, continuous", null_cells())
def test_null_rejection_rate_within_binomial_bound(variant, spec, y_kind, continuous):
    kernel = parse_kernel_spec(spec)
    dist = std_normal_map() if variant == "plugin" else None
    if variant == "simplified" and y_kind != "continuous":
        for s in null_samples(y_kind):
            with pytest.raises(DegenerateDataError, match="rank"):
                independence_test(s, kernel, variant, dist, continuous_y=continuous)
        return
    rejections = sum(
        independence_test(s, kernel, variant, dist, continuous_y=continuous).p_one_sided < 0.05
        for s in null_samples(y_kind)
    )
    low, high = NULL_REJECTIONS
    assert low <= rejections <= high, f"{rejections} of {NULL_REPS} rejected at 5%"

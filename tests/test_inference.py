import math
import warnings

import numpy as np
import pytest
from scipy.special import ndtr

from xifamily.cdf import empirical_map, std_normal_map, uniform_map
from xifamily.errors import DegenerateDataError
from xifamily.estimator import VARIANTS, PairedSample, coefficient, xi_simplified
from xifamily.inference import (
    independence_test,
    sigma2_power_closed_form,
    sigma2_ustat,
)
from xifamily.kernels import make_kernel

POWER1 = make_kernel("power", gamma=1.0)
POWER3 = make_kernel("power", gamma=3.0)


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


def test_ustat_sigma2_consistent_with_components():
    rng = np.random.default_rng(8)
    est = sigma2_ustat(rng.random(60), POWER1, uniform_map(0.0, 1.0))
    m, q, r = est.components
    assert est.sigma2 == (q - 2.0 * r + m * m) / (m * m)


def test_ustat_rejects_constant_y():
    with pytest.raises(DegenerateDataError, match="degenerate Y"):
        sigma2_ustat([2.0, 2.0, 2.0, 2.0], POWER1, std_normal_map())


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


def test_duplicate_y_warns_when_declared_continuous():
    s = PairedSample(
        xs=np.array([1.0, 2.0, 3.0, 4.0]), ys=np.array([1.0, 1.0, 2.0, 3.0])
    )
    with pytest.warns(UserWarning, match="duplicate"):
        independence_test(s, POWER1, variant="rank", continuous_y=True)


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
    # the rank-based variants reuse the ties their ranking found; plugin
    # sorts y itself; both must read -0.0 and 0.0 as a duplicate
    s = PairedSample(xs=np.linspace(-1.0, 1.0, n), ys=_y_with(duplicate, n))
    dist = std_normal_map() if variant == "plugin" else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        independence_test(s, POWER1, variant=variant, dist=dist, continuous_y=True)
    messages = [str(w.message) for w in caught]
    assert any("duplicate y" in m for m in messages) == (duplicate != "none")
    y_tied = coefficient(s, variant, POWER1, dist).y_tied
    assert y_tied is (None if variant == "plugin" else duplicate != "none")

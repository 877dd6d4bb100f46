"""Asymptotic variance under independence and the CLT-based test.

When x and y are independent, sqrt(n) times the coefficient is
asymptotically centered normal with variance

    sigma^2 = (E h12^2 - 2 E[h12 h13] + (E h12)^2) / (E h12)^2,

where h_ij = h(F(y_i), F(y_j)) over iid copies of y. For the rank variants
with continuous y the moments are unit-square integrals, in closed form for
the power kernel |y-z|^gamma (gamma = 1 gives 2/5, the classic rank
correlation's). Otherwise U-statistics over distinct index pairs and triples
estimate them from the row sums S_i of h and Q_i of h^2 over j != i, as
sum_{j != k != i} h_ij h_ik = S_i^2 - Q_i. The statistic is
z = sqrt(n) * xi / sigma, with one- and two-sided p-values from ``math.erfc``;
large xi indicates dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._sorting import sort_order
from .errors import DegenerateDataError, NumericError
from .estimator import PairedSample, _check_arguments, _coefficient, _pair_mean
from .kernels import Kernel

if TYPE_CHECKING:
    from .cdf import DistMap

__all__ = [
    "VarianceEstimate",
    "TestResult",
    "sigma2_power_closed_form",
    "sigma2_ustat",
    "independence_test",
]

_MAX_CLOSED_FORM_GAMMA = 150.0


@dataclass(frozen=True)
class VarianceEstimate:
    """Null variance with its provenance.

    ``components`` holds the U-statistic moment estimates (m, q, r) for
    E h12, E h12^2 and E[h12 h13] when ``source`` is a ``ustat_*`` kind, and
    is None for the closed form. sigma2 = (q - 2r + m^2) / m^2.
    """

    sigma2: float
    source: str
    components: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class TestResult:
    """Standardized statistic and p-values of the independence test."""

    z: float
    sigma2_used: VarianceEstimate
    p_one_sided: float
    p_two_sided: float
    variant: str


def _upper_tail(z: float) -> float:
    """P(Z > z) for standard normal Z, without cancellation for large z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def sigma2_power_closed_form(gamma: float) -> float:
    """Null variance of the rank coefficient with kernel |y-z|**gamma.

    Evaluates
        1 + (gamma+2)^2 * ( (gamma+1)/(4(2gamma+1)) - 1/(2gamma+3)
                            - Gamma(gamma+2)^2 / Gamma(2gamma+4) )
    with the gamma-function ratio in log space, so it stays stable far
    beyond practical exponents. Valid for continuous y under independence.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0.0:
        raise ValueError(f"gamma must be > 0 and finite, got {gamma!r}")
    if gamma > _MAX_CLOSED_FORM_GAMMA:
        raise ValueError(
            f"gamma={gamma:g} exceeds {_MAX_CLOSED_FORM_GAMMA:g}; the bracket terms "
            "all underflow and the closed form degenerates"
        )
    gamma_ratio = math.exp(2.0 * math.lgamma(gamma + 2.0) - math.lgamma(2.0 * gamma + 4.0))
    bracket = (gamma + 1.0) / (4.0 * (2.0 * gamma + 1.0)) - 1.0 / (2.0 * gamma + 3.0) - gamma_ratio
    return 1.0 + (gamma + 2.0) ** 2 * bracket


def sigma2_ustat(ys, kernel: Kernel, dist: DistMap) -> VarianceEstimate:
    """U-statistic estimate of the null variance from the y sample alone.

    With h_ij = h(F(y_i), F(y_j)) and coincident indices excluded:
        m = sum_{i != j} h_ij / (n(n-1))
        q = sum_{i != j} h_ij^2 / (n(n-1))
        r = sum_i (S_i^2 - Q_i) / (n(n-1)(n-2))
    with S_i and Q_i the row sums of h and h^2 over j != i, taken on the
    sorted F(y) and added across rows with exactly rounded summation
    (``estimator._pair_mean``).
    """
    n = np.asarray(ys, dtype=float).size
    if n < 3:
        raise DegenerateDataError(f"need n >= 3 for variance estimation, got {n}")
    ys = PairedSample(xs=ys, ys=ys).ys  # refused as a sample's y is: 2-D, NaN or inf
    _, v = sort_order(np.asarray(dist.eval(ys), dtype=float))
    source = "ustat_rank" if dist.kind == "empirical" else "ustat_plugin"
    return _sigma2(n, _pair_mean(v, kernel, True)[1], source)


def _sigma2(n: int, totals: tuple[float, float, float], source: str) -> VarianceEstimate:
    """``sigma2_ustat`` from the totals ``(sum S, sum Q, sum (S^2 - Q))`` of
    ``estimator._pair_mean`` over n >= 3 mapped values."""
    pairs = n * (n - 1)
    m = totals[0] / pairs
    q = totals[1] / pairs
    r = totals[2] / (pairs * (n - 2))
    sigma2 = (q - 2.0 * r + m * m) / (m * m) if m * m > 0.0 else math.nan
    if not sigma2 > 0.0:  # NaN too, from totals that overflowed or an m^2 that underflowed
        raise NumericError(
            f"variance estimate {sigma2} is not positive (m={m}, q={q}, r={r}); "
            "numerical failure or pathological sample"
        )
    return VarianceEstimate(sigma2=sigma2, source=source, components=(m, q, r))


def independence_test(
    sample: PairedSample,
    kernel: Kernel,
    variant: str = "simplified",
    dist: DistMap | None = None,
    tie_seed: int = 0,
    continuous_y: bool = False,
) -> TestResult:
    """Test independence of x and y via the normal limit of the coefficient.

    The closed-form variance is used when the variant is rank-based, the
    kernel is a power kernel with gamma <= 150, the caller declares y
    continuous and no two y's are equal (``chatterjee`` implies power:1).
    Otherwise the variance is the U-statistic estimate, taken under the
    empirical CDF for rank variants and under ``dist`` for the plugin, so
    tied y declared continuous are tested as if undeclared. The simplified
    variant refuses tied y with ``DegenerateDataError``: its C_h is the
    pairwise normalization of continuous y only. Bad arguments raise the
    ``ValueError`` that ``coefficient`` raises.
    """
    kernel = _check_arguments(variant, kernel, dist)
    if sample.n < 3:
        raise DegenerateDataError(f"need n >= 3 for variance, got n={sample.n}")
    gamma = kernel.params.get("gamma")
    power = continuous_y and gamma is not None and variant != "plugin"
    power = power and gamma <= _MAX_CLOSED_FORM_GAMMA

    def ustat_serves(y_tied: bool | None) -> bool:  # the simplified test refuses tied y below
        return (y_tied or not power) and not (y_tied and variant == "simplified")

    result, totals = _coefficient(sample, variant, kernel, tie_seed, dist, ustat_serves)
    if variant == "simplified" and result.y_tied:
        raise DegenerateDataError(
            "tied y: the simplified test's C_h normalization assumes continuous y; "
            "use the rank variant"
        )
    if totals is None:  # a power kernel on untied y declared continuous
        variance = VarianceEstimate(
            sigma2=sigma2_power_closed_form(gamma),
            source="closed_form_power",
        )
    else:
        plugin = variant == "plugin" and dist.kind != "empirical"
        variance = _sigma2(sample.n, totals, "ustat_plugin" if plugin else "ustat_rank")

    z = math.sqrt(sample.n) * result.xi / math.sqrt(variance.sigma2)
    return TestResult(
        z=z,
        sigma2_used=variance,
        p_one_sided=_upper_tail(z),
        p_two_sided=2.0 * _upper_tail(abs(z)),
        variant=variant,
    )

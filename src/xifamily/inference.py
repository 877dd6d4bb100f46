"""Asymptotic variance under independence and the CLT-based test.

When x and y are independent, sqrt(n) times the coefficient is
asymptotically centered normal with variance

    sigma^2 = (E h12^2 - 2 E[h12 h13] + (E h12)^2) / (E h12)^2,

where h_ij = h(F(y_i), F(y_j)) over iid copies of y. For the rank variants
with continuous y, F(y) is uniform on [0,1] and the three moments reduce to
unit-square integrals; for the power kernel |y-z|^gamma they evaluate in
closed form (gamma = 1 gives 2/5, matching the classic rank correlation),
which the test takes when the caller declares y continuous and ranking y
found no two equal values (``CoefficientResult.y_tied`` is False).
Otherwise the moments are estimated from the sample by U-statistics over
distinct index pairs and triples, from the row sums of the mapped values in
ascending order (``kernels._sorted_row_sums``, O(n log n) for the builtin
kernels):

    sum_{j != k != i} h_ij h_ik = S_i^2 - Q_i,
    S_i = sum_{j != i} h_ij,   Q_i = sum_{j != i} h_ij^2,

read through three exactly rounded totals, sum S, sum Q and sum (S^2 - Q)
(``estimator._pair_mean``). The test makes one call for every variant to
the coefficient's core (``estimator._coefficient``), which returns the
result and these totals. Before any sum, the core asks the test whether
the U-statistic serves: a rank-based variant tells it, after ranking y,
whether two y's are equal; the plugin, which never ranks y, tells it None.
The totals are added only when it does. So every test takes at most one
row-sum pass, y is neither mapped nor sorted again, and the totals are
None exactly where the closed form applies.

The test statistic is z = sqrt(n) * xi / sigma, with a one-sided upper-tail
p-value as the default decision output (large xi indicates dependence).
The p-values come from ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._sorting import sort_order
from .errors import DegenerateDataError, NumericError
from .estimator import PairedSample, _check_arguments, _coefficient, _pair_mean
from .kernels import Kernel, make_kernel

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
    return _sigma2(n, _pair_mean(v, kernel, True, chi=False)[1], source)


def _sigma2(n: int, totals: tuple[float, float, float], source: str) -> VarianceEstimate:
    """``sigma2_ustat`` from the totals ``(sum S, sum Q, sum (S^2 - Q))`` of
    ``estimator._pair_mean`` over n >= 3 mapped values."""
    pairs = n * (n - 1)
    m = totals[0] / pairs
    q = totals[1] / pairs
    r = totals[2] / (pairs * (n - 2))
    if totals[0] == 0.0:  # every h_ij = 0, which _pair_mean refuses on values that differ
        raise DegenerateDataError("degenerate Y under F: all mapped values coincide")
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
    kernel is a power kernel, the caller declares y continuous and no two
    y's are equal (the ``chatterjee`` variant implies the power-1 kernel).
    Otherwise the variance is the U-statistic estimate, taken under the
    empirical CDF for rank variants and under ``dist`` for the plugin, so
    tied y declared continuous are tested as if undeclared. The simplified
    variant refuses tied y with ``DegenerateDataError``: its C_h is the
    pairwise normalization of continuous y only. Bad arguments raise the
    ``ValueError`` that ``coefficient`` raises.
    """
    if sample.n < 3:
        raise DegenerateDataError(f"need n >= 3 for variance, got n={sample.n}")
    _check_arguments(variant, kernel, dist)
    if variant == "chatterjee":
        kernel = make_kernel("power", gamma=1.0)  # which coefficient ignores
    power = continuous_y and kernel.name == "power" and variant != "plugin"

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
            sigma2=sigma2_power_closed_form(kernel.params["gamma"]),
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

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
(``estimator._pair_mean``). Where the plugin or rank coefficient builds chi,
its one row-sum pass adds them too (``CoefficientResult._totals``). Else the
test adds them from its coefficient's mapped values in ascending order
(``CoefficientResult._u_sorted``: R/n, or None for the grid 1/n, ..., 1 of
distinct y), so y is neither mapped nor sorted again.

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
from .estimator import PairedSample, _ascending_u, _pair_mean, coefficient
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
    ys = np.asarray(ys, dtype=float)
    n = ys.size
    if n < 3:
        raise DegenerateDataError(f"need n >= 3 for variance estimation, got {n}")
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
    if m == 0.0:
        raise DegenerateDataError("degenerate Y under F: all mapped values coincide")
    sigma2 = (q - 2.0 * r + m * m) / (m * m)
    if sigma2 <= 0.0:
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
    pairwise normalization of continuous y only.
    """
    if sample.n < 3:
        raise DegenerateDataError(f"need n >= 3 for variance, got n={sample.n}")
    rank_based = variant != "plugin"
    if variant == "chatterjee":
        kernel = make_kernel("power", gamma=1.0)  # which coefficient ignores
    closed_form = rank_based and continuous_y and kernel is not None and kernel.name == "power"
    # where the U-statistic serves, chi's row-sum pass also takes the squares
    result = coefficient(sample, variant, kernel, dist, tie_seed, _squares=not closed_form)
    if variant == "simplified" and result.y_tied:
        raise DegenerateDataError(
            "tied y: the simplified test's C_h normalization assumes continuous y; "
            "use the rank variant"
        )

    if closed_form and not result.y_tied:
        variance = VarianceEstimate(
            sigma2=sigma2_power_closed_form(kernel.params["gamma"]),
            source="closed_form_power",
        )
    else:
        source = "ustat_rank" if rank_based or dist.kind == "empirical" else "ustat_plugin"
        totals = result._totals
        if totals is None:  # chi took no squares, or the variant takes no chi
            totals = _pair_mean(_ascending_u(result._u_sorted, sample.n), kernel, True)[1]
        variance = _sigma2(sample.n, totals, source)

    z = math.sqrt(sample.n) * result.xi / math.sqrt(variance.sigma2)
    return TestResult(
        z=z,
        sigma2_used=variance,
        p_one_sided=_upper_tail(z),
        p_two_sided=2.0 * _upper_tail(abs(z)),
        variant=variant,
    )

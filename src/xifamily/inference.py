"""Asymptotic variance under independence and the CLT-based test.

When x and y are independent, sqrt(n) times the coefficient is
asymptotically centered normal with variance

    sigma^2 = (E h12^2 - 2 E[h12 h13] + (E h12)^2) / (E h12)^2,

where h_ij = h(F(y_i), F(y_j)) over iid copies of y. For the rank variants
with continuous y, F(y) is uniform on [0,1] and the three moments reduce to
unit-square integrals; for the power kernel |y-z|^gamma they evaluate in
closed form (gamma = 1 gives 2/5, matching the classic rank correlation).
Otherwise the moments are estimated from the sample by U-statistics over
distinct index pairs and triples, computed from the row sums of
``kernels.kernel_row_sums``:

    sum_{j != k != i} h_ij h_ik = S_i^2 - Q_i,
    S_i = sum_{j != i} h_ij,   Q_i = sum_{j != i} h_ij^2,

in O(n log n) for the builtin kernels (one integer-power routine for
power:1, power:2 and power:3, and for expsq as power:2 on e^u; a
decayed-sum recurrence for exp) and in blocked O(n^2) otherwise. The rows
are added with ``estimator._fsum``, which returns math.fsum's exactly
rounded value.

The test statistic is z = sqrt(n) * xi / sigma, with a one-sided upper-tail
p-value as the default decision output (large xi indicates dependence).
The p-values come from ``math.erfc``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cdf import DistMap, empirical_map
from .errors import DegenerateDataError, NumericError
from .estimator import PairedSample, _fsum, _has_ties, coefficient
from .kernels import Kernel, kernel_row_sums, make_kernel

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
    with S_i and Q_i the row sums of h and h^2 over j != i
    (``kernel_row_sums``), added across rows with exactly rounded summation
    (``estimator._fsum``).
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.size
    if n < 3:
        raise DegenerateDataError(f"need n >= 3 for variance estimation, got {n}")
    u = np.asarray(dist.eval(ys), dtype=float)
    row_sums, row_sq_sums = kernel_row_sums(u, kernel, squares=True)
    pairs = n * (n - 1)
    m = _fsum(row_sums) / pairs
    q = _fsum(row_sq_sums) / pairs
    r = _fsum(row_sums**2 - row_sq_sums) / (pairs * (n - 2))
    if m == 0.0:
        raise DegenerateDataError("degenerate Y under F: all mapped values coincide")
    sigma2 = (q - 2.0 * r + m * m) / (m * m)
    if sigma2 <= 0.0:
        raise NumericError(
            f"variance estimate {sigma2} is not positive (m={m}, q={q}, r={r}); "
            "numerical failure or pathological sample"
        )
    source = "ustat_rank" if dist.kind == "empirical" else "ustat_plugin"
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
    kernel is a power kernel and the caller declares y continuous (the
    ``chatterjee`` variant implies the power-1 kernel); otherwise the
    variance is the U-statistic estimate, taken under the empirical CDF for
    rank variants and under ``dist`` for the plugin. Continuity of y is a
    caller declaration: duplicate values only trigger a warning, since ties
    in floating-point data are not proof of discreteness.
    """
    if sample.n < 3:
        raise DegenerateDataError(f"need n >= 3 for variance, got n={sample.n}")
    result = coefficient(sample, variant, kernel, dist, tie_seed)
    if variant == "chatterjee":
        kernel = make_kernel("power", gamma=1.0)

    # the rank-based variants found ties while ranking y; only plugin sorts here
    y_tied = result.y_tied
    if continuous_y and (_has_ties(np.sort(sample.ys)) if y_tied is None else y_tied):
        warnings.warn(
            "duplicate y values in data declared continuous; "
            "the closed-form null variance may not apply",
            stacklevel=2,
        )

    rank_based = variant != "plugin"
    if rank_based and kernel.name == "power" and continuous_y:
        variance = VarianceEstimate(
            sigma2=sigma2_power_closed_form(kernel.params["gamma"]),
            source="closed_form_power",
        )
    else:
        moment_dist = empirical_map(sample.ys) if rank_based else dist
        variance = sigma2_ustat(sample.ys, kernel, moment_dist)

    z = math.sqrt(sample.n) * result.xi / math.sqrt(variance.sigma2)
    return TestResult(
        z=z,
        sigma2_used=variance,
        p_one_sided=_upper_tail(z),
        p_two_sided=2.0 * _upper_tail(abs(z)),
        variant=variant,
    )

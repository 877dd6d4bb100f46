"""Correlation coefficients built from kernel variation along the x-ordering.

Given pairs (x_i, y_i), reorder so the x's are nondecreasing (ties broken
uniformly at random from an explicit seed) and write y_[1], ..., y_[n] for
the reordered responses. For a kernel h and a monotone map F into [0,1] the
plugin coefficient is

    zeta = (1/n)   * sum_{i<n}  h(F(y_[i]), F(y_[i+1]))     (variation)
    chi  = (1/n^2) * sum_{i,j}  h(F(y_i),  F(y_j))          (normalization)
    xi   = 1 - zeta / chi,      with xi = 1 when chi = 0.

zeta is small when y tracks x; chi calibrates xi to 0 under independence.
The rank variant substitutes the empirical CDF (F(y) = rank/n), and the
simplified variant replaces chi by the constant C_h = integral of h over
the unit square, valid for continuous y, dropping the cost from O(n^2) to
O(n log n). With h = |y - z| and distinct y the simplified variant is, up
to the (n^2-1)/3 vs n^2/3 denominator, Chatterjee's rank correlation,
which is also provided directly as a reference. ``coefficient`` selects a
member by its name in ``VARIANTS``; the CLI, the simulation harness and
the independence test all go through it.

All operations are pure functions of (sample, seed). The x-order, the
ranks and the row sums each take one sort, ``_sorting.sort_order``: numpy's
argsort for small samples and numpy's SIMD integer sort of packed
(value, index) keys for large ones, checked and repaired so that the order
is argsort's wherever the values are distinct. The rank-based variants record
in ``y_tied`` whether their max-ranks saw tied y, which the independence
test reuses instead of sorting y again. chi is built from the
off-diagonal row sums of ``kernels.kernel_row_sums``: exact O(n log n)
identities for the builtin kernels (one integer-power routine for power:1,
power:2 and power:3, and for expsq as power:2 on e^u; a decayed-sum
recurrence for exp), blocked O(n^2) sums otherwise. zeta's kernel values and
chi's row sums are added with ``_fsum``, an exactly rounded sum in numpy that
returns math.fsum's value bit for bit, so chi is deterministic, independent
of the order of the sample, and within 1e-12 relative of the exactly rounded
sum of all n^2 kernel values (the tolerance the tests check against a
row-loop oracle). The simplified variant with power:1, power:2 or power:3
needs no kernel values at all: its zeta is an integer sum of rank-gap
powers over n^(gamma+1), added exactly in int64 (``_rank_gap_power_sum``,
which also gives Chatterjee's gap sum) and rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sorting import BLOCK, blocks, sort_order
from .cdf import DistMap, empirical_map
from .errors import DegenerateDataError, NumericError
from .kernels import _INTEGER_POWERS, Kernel, kernel_row_sums, normalization_constant

__all__ = [
    "VARIANTS",
    "PairedSample",
    "CoefficientResult",
    "coefficient",
    "order_by_x",
    "ranks",
    "xi_plugin",
    "xi_rank",
    "xi_simplified",
    "chatterjee_reference",
    "pearson",
    "spearman",
]

#: The family members ``coefficient`` computes, by name.
VARIANTS = ("plugin", "rank", "simplified", "chatterjee")


@dataclass(frozen=True)
class PairedSample:
    """n paired observations with finite coordinates, n >= 2."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("xs and ys must be one-dimensional")
        if xs.size != ys.size:
            raise ValueError(f"length mismatch: {xs.size} xs vs {ys.size} ys")
        if xs.size < 2:
            raise ValueError(f"need at least 2 observations, got {xs.size}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("xs and ys must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.size


@dataclass(frozen=True)
class CoefficientResult:
    """A coefficient value together with its numerator and denominator.

    For the plugin and rank variants ``xi = 1 - zeta / normalization`` when
    the normalization is positive and 1 when it is zero; for the simplified
    variant the normalization is C_h. For the Chatterjee reference, zeta is
    the raw consecutive rank-gap sum and the normalization is (n^2 - 1) / 3,
    or 2 * sum_i l_i (n - l_i) / n when y has ties.

    ``y_tied`` tells whether two y's are equal. The rank-based variants
    read it off the max-ranks they compute anyway; it is None for the
    plugin variant, which never ranks y.
    """

    xi: float
    zeta: float
    normalization: float
    variant: str
    n: int
    tie_seed: int
    y_tied: bool | None = None


def _has_ties(sorted_values: np.ndarray) -> bool:
    """Whether a sorted array holds two equal values (-0.0 equals 0.0)."""
    return bool(np.any(sorted_values[1:] == sorted_values[:-1]))


def _ranks_tied(max_ranks: np.ndarray) -> bool:
    """Whether max-ranks, in any order, come from tied values.

    Only ties lift their sum past n(n+1)/2; the int64 sum is exact.
    """
    n = max_ranks.size
    return int(max_ranks.sum()) != n * (n + 1) // 2


def order_by_x(sample: PairedSample, tie_seed: int = 0) -> np.ndarray:
    """The permutation that sorts pairs by x, tied x's broken uniformly at random.

    One sort (``_sorting.sort_order``) orders the x's. Only tied x's run the
    tie-break: it draws one uniform key per observation from ``tie_seed``
    and sorts lexicographically by (x, key), which shuffles each maximal
    tied block uniformly. Distinct x's have a single sorting permutation,
    the one the (x, key) sort returns for every seed. Deterministic given
    (sample, tie_seed); O(n log n).
    """
    return _order_and_x_tied(sample, tie_seed)[0]


def _order_and_x_tied(sample: PairedSample, tie_seed: int) -> tuple[np.ndarray, bool]:
    """``order_by_x``'s permutation and whether two x's are equal."""
    xs = sample.xs
    perm, ordered = sort_order(xs)
    x_tied = _has_ties(ordered)
    if x_tied:
        keys = np.random.default_rng(tie_seed).random(sample.n)
        perm = np.lexsort((keys, xs))
    return perm, x_tied


def ranks(ys) -> np.ndarray:
    """Max-rank of each value: R_i = #{j : y_j <= y_i}.

    One sort (``_sorting.sort_order``), then O(n): without ties the sorted
    positions 1..n are the ranks; with ties each value gets the end of its
    tied block. NaNs sort last and form one block, so all of them rank at
    the count of values.
    """
    ys = np.asarray(ys, dtype=float)
    n = ys.size
    order, ordered = sort_order(ys)
    tied = ordered[1:] == ordered[:-1]
    tied[ordered.searchsorted(np.nan):] = True  # NaN != NaN, but they share a block
    out = np.empty(n, dtype=np.intp)
    if tied.any():
        # a value with an equal successor takes the next block end
        positions = np.arange(1, n + 1)
        positions[:-1][tied] = n
        out[order] = np.minimum.accumulate(positions[::-1])[::-1]
    else:
        for start, stop in blocks(n):
            out[order[start:stop]] = np.arange(start + 1, stop + 1)
    return out


#: below this many values math.fsum beats the numpy call overhead of _fsum
#: (crossover measured at 700-900 on a 2-core Xeon); from 2^26 values on the
#: exponent bins could pass 2^53 and lose bits
_EXACT_SUM_SIZES = range(1000, 2**26)


def _fsum(values: np.ndarray) -> float:
    """The exactly rounded sum of a float array: ``math.fsum``'s value, bit for bit.

    Exponent-binned exact accumulation (Neal 2015, arXiv:1505.05571). Each
    finite value is m * 2^e with |m| in [0.5, 1), and m * 2^53 is an integer
    M below 2^53 (subnormals included). M splits exactly into
    hi * 2^27 + lo with hi = floor(m * 2^26) and lo = M - hi * 2^27 in
    [0, 2^27). One ``bincount`` per half adds them by exponent; with fewer
    than 2^26 terms every partial bin sum is an integer below 2^53, so the
    float bins are exact. The few non-empty bins are joined into one Python
    int, and a single correctly rounded int-to-float step gives the result.

    ``math.fsum`` (also the oracle of the tests) serves everything else:
    arrays outside ``_EXACT_SUM_SIZES``, non-finite values, sums whose
    magnitude could reach the float limit (``math.fsum`` raises on an
    intermediate overflow, the bins would not) and sums that are exactly
    zero, whose sign is ``math.fsum``'s to choose.
    """
    if values.size not in _EXACT_SUM_SIZES:
        return math.fsum(values.tolist())
    mantissas, exponents = np.frexp(values)
    low = int(exponents.min())
    bins = np.subtract(exponents, low, dtype=np.intp)
    hi = np.multiply(mantissas, 2.0**26)
    np.floor(hi, out=hi)
    hi_sums = np.bincount(bins, weights=hi)
    high = low + hi_sums.size - 1
    # inf and nan land in hi's bins; check before lo would compute inf - inf
    if high + values.size.bit_length() >= 1024 or not np.isfinite(hi_sums).all():
        return math.fsum(values.tolist())
    mantissas *= 2.0**53
    hi *= 2.0**27
    mantissas -= hi
    lo_sums = np.bincount(bins, weights=mantissas)
    total = 0
    for shift, hi_sum, lo_sum in zip(range(hi_sums.size), hi_sums.tolist(), lo_sums.tolist()):
        if hi_sum or lo_sum:
            total += ((int(hi_sum) << 27) + int(lo_sum)) << shift
    if total == 0:
        return math.fsum(values.tolist())
    scale = low - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


#: the largest int64, the bound on every partial sum of rank-gap powers
_INT64_MAX = 2**63 - 1


def _exact_gap_power(kernel: Kernel, n: int) -> int | None:
    """gamma when the simplified zeta of ``kernel`` at n is an int64 rank-gap sum.

    That is power:1, power:2 and power:3 (the exponents of the row-sum
    hook) with (n - 1)^gamma, the largest term, within int64; else None.
    """
    gamma = kernel.params.get("gamma") if kernel.name == "power" else None
    if gamma in _INTEGER_POWERS and (n - 1) ** int(gamma) <= _INT64_MAX:
        return int(gamma)
    return None


def _rank_gap_power_sum(r_ordered: np.ndarray, gamma: int) -> int:
    """sum_i |r_[i+1] - r_[i]|^gamma over n ranks in 1..n, exactly.

    A term is at most (n - 1)^gamma, which the caller keeps within int64.
    The terms are added in int64 over blocks of at most
    _INT64_MAX // (n - 1)^gamma gaps, so no partial sum can overflow, and
    the block totals are joined as Python ints.
    """
    n = r_ordered.size
    total = 0
    for start, stop in blocks(n - 1, min(BLOCK, _INT64_MAX // (n - 1) ** gamma)):
        gaps = np.subtract(r_ordered[start + 1 : stop + 1], r_ordered[start:stop], dtype=np.int64)
        np.abs(gaps, out=gaps)
        if gamma > 1:
            np.power(gaps, gamma, out=gaps)
        total += int(gaps.sum())
    return total


def _consecutive_mean(u_ordered: np.ndarray, kernel: Kernel) -> float:
    """zeta: mean kernel value over consecutive entries, normalized by n."""
    n = u_ordered.size
    return _fsum(np.asarray(kernel.eval(u_ordered[:-1], u_ordered[1:]), dtype=float)) / n


def _pair_mean(u: np.ndarray, kernel: Kernel) -> float:
    """chi: mean kernel value over all n^2 ordered pairs (diagonal included)."""
    n = u.size
    row_sums, _ = kernel_row_sums(u, kernel)
    if kernel.row_sums is None:
        # only hooked kernels are exactly 0 on the diagonal; a custom kernel
        # may leave up to its validation tolerance there, which chi counts
        row_sums = np.concatenate((row_sums, np.asarray(kernel.eval(u, u), dtype=float)))
    return _fsum(row_sums) / (n * n)


def _coefficient_from_u(
    u: np.ndarray,
    permutation: np.ndarray,
    kernel: Kernel,
    variant: str,
    n: int,
    tie_seed: int,
    y_tied: bool | None,
) -> CoefficientResult:
    zeta = _consecutive_mean(u[permutation], kernel)
    chi = _pair_mean(u, kernel)
    xi = 1.0 if chi == 0.0 else 1.0 - zeta / chi
    return CoefficientResult(
        xi=xi,
        zeta=zeta,
        normalization=chi,
        variant=variant,
        n=n,
        tie_seed=tie_seed,
        y_tied=y_tied,
    )


def xi_plugin(
    sample: PairedSample,
    kernel: Kernel,
    dist: DistMap,
    tie_seed: int = 0,
) -> CoefficientResult:
    """Plugin coefficient with a prespecified monotone map F.

    Computes zeta over consecutive F(y)'s in x-order and chi over all pairs
    (O(n log n) for the builtin kernels, O(n^2) otherwise); xi = 1 - zeta/chi,
    set to 1 when chi = 0.
    """
    permutation = order_by_x(sample, tie_seed)
    u = np.asarray(dist.eval(sample.ys), dtype=float)
    return _coefficient_from_u(u, permutation, kernel, "plugin", sample.n, tie_seed, None)


def xi_rank(sample: PairedSample, kernel: Kernel, tie_seed: int = 0) -> CoefficientResult:
    """Rank-based coefficient: the plugin form with F the empirical CDF.

    Uses u_i = R_i / n with the max-rank convention; agrees exactly with
    ``xi_plugin(sample, kernel, empirical_map(sample.ys))``.
    """
    permutation = order_by_x(sample, tie_seed)
    u = ranks(sample.ys)
    y_tied = _ranks_tied(u)
    u = u / sample.n  # rebound, so that the integer ranks are freed before the row sums
    return _coefficient_from_u(u, permutation, kernel, "rank", sample.n, tie_seed, y_tied)


def xi_simplified(sample: PairedSample, kernel: Kernel, tie_seed: int = 0) -> CoefficientResult:
    """Simplified rank coefficient: xi = 1 - zeta_rank / C_h, O(n log n).

    Valid when y is continuous, where the pairwise normalization converges
    to the constant C_h and need not be estimated.

    With u = R/n, zeta = sum h(u_[i], u_[i+1]) / n. For power:1, power:2 and
    power:3 that is the integer ratio sum |R_[i+1] - R_[i]|^gamma / n^(gamma+1),
    which is summed exactly (``_rank_gap_power_sum``) and divided once, so
    zeta is its exactly rounded value. Other kernels, and power:3 from
    n ~ 2.1e6 on, where a term could pass int64, add the kernel values with
    ``_fsum``.
    """
    c_h = normalization_constant(kernel)
    if c_h <= 0.0:
        raise NumericError(f"kernel {kernel.label()} has non-positive C_h = {c_h}")
    n = sample.n
    permutation = order_by_x(sample, tie_seed)
    r_ordered = ranks(sample.ys)[permutation]
    y_tied = _ranks_tied(r_ordered)
    gamma = _exact_gap_power(kernel, n)
    if gamma is not None:
        zeta = _rank_gap_power_sum(r_ordered, gamma) / n ** (gamma + 1)
    else:
        u_ordered = r_ordered / n
        del r_ordered  # the integer ranks are freed before the kernel sum
        zeta = _consecutive_mean(u_ordered, kernel)
    return CoefficientResult(
        xi=1.0 - zeta / c_h,
        zeta=zeta,
        normalization=c_h,
        variant="simplified",
        n=sample.n,
        tie_seed=tie_seed,
        y_tied=y_tied,
    )


def chatterjee_reference(sample: PairedSample, tie_seed: int = 0) -> CoefficientResult:
    """Chatterjee's (2021) rank correlation.

    With max-ranks R_i = #{j : y_j <= y_i} in x-order and
    l_i = #{j : y_j >= y_i},

        xi = 1 - n * sum|R_[i+1] - R_[i]| / (2 * sum_i l_i (n - l_i)),

    which without tied y is 1 - 3 * sum|R_[i+1] - R_[i]| / (n^2 - 1). Tied
    y's take the general form in exact integer arithmetic, rounded once;
    a constant y leaves it undefined and raises ``DegenerateDataError``.
    Tied x's are rejected too (use ``xi_rank`` there, which handles ties by
    construction).
    """
    n = sample.n
    permutation, x_tied = _order_and_x_tied(sample, tie_seed)
    if x_tied:
        raise DegenerateDataError(
            "tied X values: the (n^2-1)/3 normalization does not apply, use xi_rank"
        )
    max_ranks = ranks(sample.ys)
    # exact, and the same routine as the simplified power:1 zeta's numerator
    gap_sum = _rank_gap_power_sum(max_ranks[permutation], 1)
    y_tied = _ranks_tied(max_ranks)
    if not y_tied:
        normalization = (n**2 - 1) / 3.0
        xi = 1.0 - gap_sum / normalization
    else:
        at_least = ranks(-sample.ys)
        # Python ints: the sum passes int64 from n ~ 3.8e6 on
        spread = sum((at_least * (n - at_least)).tolist())
        if spread == 0:
            raise DegenerateDataError("constant Y: Chatterjee's xi is undefined")
        normalization = 2 * spread / n
        xi = (2 * spread - n * gap_sum) / (2 * spread)
    return CoefficientResult(
        xi=xi,
        zeta=float(gap_sum),
        normalization=normalization,
        variant="chatterjee",
        n=n,
        tie_seed=tie_seed,
        y_tied=y_tied,
    )


def coefficient(
    sample: PairedSample,
    variant: str,
    kernel: Kernel | None = None,
    dist: DistMap | None = None,
    tie_seed: int = 0,
) -> CoefficientResult:
    """The family member named by ``variant``, one of ``VARIANTS``.

    ``plugin`` needs ``dist`` (the map F); ``plugin``, ``rank`` and
    ``simplified`` need ``kernel``; ``chatterjee`` fixes h = |u - v| and
    ignores both.
    """
    # xi_* are looked up by name on every call, so a caller that rebinds
    # them (a profiler, a test double) sees every call
    if kernel is None and variant in VARIANTS and variant != "chatterjee":
        raise ValueError(f"{variant} variant requires a kernel")
    if variant == "plugin":
        if dist is None:
            raise ValueError("plugin variant requires a distribution map")
        return xi_plugin(sample, kernel, dist, tie_seed)
    if variant == "rank":
        return xi_rank(sample, kernel, tie_seed)
    if variant == "simplified":
        return xi_simplified(sample, kernel, tie_seed)
    if variant == "chatterjee":
        return chatterjee_reference(sample, tie_seed)
    raise ValueError(f"unknown variant {variant!r}")


def pearson(sample: PairedSample) -> float:
    """Product-moment correlation; rejects zero-variance coordinates."""
    xc = sample.xs - np.mean(sample.xs)
    yc = sample.ys - np.mean(sample.ys)
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateDataError("zero variance: correlation undefined")
    return float(xc @ yc) / (sx * sy)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks: each tied block gets the mean of the 1-based positions it spans."""
    order, ordered = sort_order(values)
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    out = np.empty(values.size)
    out[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return out


def spearman(sample: PairedSample) -> float:
    """Pearson correlation of mid-ranks (average rank on ties)."""
    rx = _average_ranks(sample.xs)
    ry = _average_ranks(sample.ys)
    return pearson(PairedSample(xs=rx, ys=ry))

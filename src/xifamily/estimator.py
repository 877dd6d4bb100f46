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
member by its name in ``VARIANTS``; the CLI and the simulation harness go
through it, and the independence test shares its argument check.

All operations are pure functions of (sample, seed). Every sort orders
by value as argsort does wherever the values are distinct. The rank
variants read one thing from the data, the ranks of y in x-order
(``_ranks_in_x_order``), which ``_rank_based`` turns into the rank,
simplified or Chatterjee result. From ``_sorting._PACKED_SORT_MIN`` values
on, distinct x and y give them by two in-place sorts of packed int64 keys, y's
indices by y and then y's ranks by x, with no gather. Below that, and on
tied x or y, x is sorted once for its order (``_sorting.sort_order``) and y
once for its max-ranks (``_ranked``), which every rank-based output reads:
the rank variants, ``y_tied``, Chatterjee's tie denominator and Spearman's
mid-ranks; the plugin sorts F(y) once. chi is built from the off-diagonal
row sums of the mapped values in ascending order (``kernels._sorted_row_sums``, exact
O(n log n) identities for the builtin kernels); the same pass can add the
three totals of the test's moments (``_pair_mean``). zeta's kernel values and
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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _sorting
from ._sorting import BLOCK, blocks, gathered, packed_sort, scatter_ramp, settle, sort_order
from .cdf import DistMap
from .errors import DegenerateDataError, NumericError
from .kernels import _INTEGER_POWERS, Kernel, _sorted_row_sums, normalization_constant

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
    the raw consecutive rank-gap sum and the normalization is
    2 * sum_i l_i (n - l_i) / n, which is (n^2 - 1) / 3 without tied y.

    ``y_tied`` tells whether two y's are equal. The rank-based variants
    read it off the max-ranks they compute anyway; it is None for the
    plugin variant, which never ranks y. The private ``_totals`` holds the
    three row-sum totals of the test's moments (``_pair_mean``) over the
    mapped values in ascending order (F(y), or R/n for the rank-based
    variants), when the test asks for them, and is None otherwise.
    """

    xi: float
    zeta: float
    normalization: float
    variant: str
    n: int
    tie_seed: int
    y_tied: bool | None = None
    _totals: tuple[float, float, float] | None = field(default=None, repr=False, compare=False)


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
    x_tied = bool(np.any(ordered[1:] == ordered[:-1]))
    if x_tied:
        perm = _x_tie_break(sample, tie_seed)
    return perm, x_tied


def _x_tie_break(sample: PairedSample, tie_seed: int) -> np.ndarray:
    """The x-order with each block of tied x's shuffled by keys drawn from ``tie_seed``."""
    keys = np.random.default_rng(tie_seed).random(sample.n)
    return np.lexsort((keys, sample.xs))


def ranks(ys) -> np.ndarray:
    """Max-rank of each value: R_i = #{j : y_j <= y_i}.

    One sort (``_sorting.sort_order``), then O(n): without ties the sorted
    positions 1..n are the ranks; with ties each value gets the end of its
    tied block. NaNs sort last and form one block, so all of them rank at
    the count of values.
    """
    return _ranked(*sort_order(np.asarray(ys, dtype=float)))[0]


def _ranked(order: np.ndarray, ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``(ranks(values), max_ranks)`` from ``sort_order(values)``: ``max_ranks`` are
    the ranks in ascending order, or None when no two values are equal (1..n)."""
    n = order.size
    tied = ordered[1:] == ordered[:-1]
    tied[ordered.searchsorted(np.nan):] = True  # NaN != NaN, but they share a block
    out = np.empty(n, dtype=np.intp)
    max_ranks = None
    if tied.any():
        # a value with an equal successor takes the next block end
        positions = np.arange(1, n + 1)
        positions[:-1][tied] = n
        max_ranks = np.minimum.accumulate(positions[::-1])[::-1]
        out[order] = max_ranks
    else:
        scatter_ramp(out, order, 1)
    return out, max_ranks


def _ranks_in_x_order(
    sample: PairedSample, tie_seed: int
) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """``(ranks(ys)[order_by_x(sample, tie_seed)], max_ranks, x_tied)``, with
    ``_ranked``'s ``max_ranks`` and ``x_tied`` whether two x's are equal.

    From ``_PACKED_SORT_MIN`` values on, two ``packed_sort``s that ``settle``
    strips to their tags, and no gather: y's indices sorted by y give y's
    order; 0, ..., n-1 scattered through it (the ranks less one) and sorted
    by x come out in x-order. Tied y take their max-ranks from the first sort
    and ``order_by_x``; tied x keep the y ranks and take its seeded tie-break.
    """
    n = sample.n
    xs, ys = sample.xs, sample.ys
    if n < _sorting._PACKED_SORT_MIN:
        r, max_ranks = _ranked(*sort_order(ys))
    else:
        y_order = np.arange(n, dtype=np.int64)
        packed_sort(ys, y_order)
        if settle(y_order, ys.take):
            r, max_ranks = _ranked(*gathered(y_order, ys))
        else:
            r_ordered = np.empty(n, dtype=np.int64)
            scatter_ramp(r_ordered, y_order)
            packed_sort(xs, r_ordered)
            if not settle(r_ordered, lambda ranks: xs.take(y_order.take(ranks))):
                r_ordered += 1
                return r_ordered, None, False
            scatter_ramp(r_ordered, y_order, 1)  # now ranks(ys), by index
            del y_order  # freed before the tie-break sorts
            return r_ordered[_x_tie_break(sample, tie_seed)], None, True
    permutation, x_tied = _order_and_x_tied(sample, tie_seed)
    return r[permutation], max_ranks, x_tied


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
    The terms are added in int64 over blocks of ``BLOCK`` gaps, joined as
    Python ints. Where a block's sum could pass int64, it is added as two
    sums, of the terms' high and low 32 bits, which stay below 2^46.
    """
    n = r_ordered.size
    split = (n - 1) ** gamma * BLOCK > _INT64_MAX
    total = 0
    for start, stop in blocks(n - 1, BLOCK):
        gaps = np.subtract(r_ordered[start + 1 : stop + 1], r_ordered[start:stop], dtype=np.int64)
        np.abs(gaps, out=gaps)
        if gamma > 1:
            np.power(gaps, gamma, out=gaps)
        if split:
            total += int(np.right_shift(gaps, 32).sum()) << 32
            gaps &= 2**32 - 1
        total += int(gaps.sum())
    return total


def _consecutive_mean(u_ordered: np.ndarray, kernel: Kernel) -> float:
    """zeta: mean kernel value over consecutive entries, normalized by n."""
    n = u_ordered.size
    return _fsum(np.asarray(kernel.eval(u_ordered[:-1], u_ordered[1:]), dtype=float)) / n


def _pair_mean(v: np.ndarray, kernel: Kernel, squares: bool, chi: bool = True) -> tuple:
    """For ascending v: chi, the mean kernel value over all n^2 ordered pairs
    (diagonal included), or None when ``chi`` is off; and, for ``squares``, the
    exactly rounded totals of the off-diagonal row sums S of h and Q of h^2:
    (sum S, sum Q, sum (S^2 - Q)), else None. One row-sum pass gives both."""
    n = v.size
    sums, sq_sums = _sorted_row_sums(v, kernel, squares)
    totals = (_fsum(sums), _fsum(sq_sums), _fsum(sums**2 - sq_sums)) if squares else None
    if not chi:
        return None, totals
    if kernel.row_sums is None:
        # only hooked kernels are exactly 0 on the diagonal; a custom kernel
        # may leave up to its validation tolerance there, which chi counts
        total = _fsum(np.concatenate((sums, np.asarray(kernel.eval(v, v), dtype=float))))
    else:
        total = totals[0] if squares else _fsum(sums)
    return total / (n * n), totals


def xi_plugin(
    sample: PairedSample,
    kernel: Kernel,
    dist: DistMap,
    tie_seed: int = 0,
    *,
    _squares: bool = False,
) -> CoefficientResult:
    """Plugin coefficient with a prespecified monotone map F.

    Computes zeta over consecutive F(y)'s in x-order and chi over all pairs
    (O(n log n) for the builtin kernels, O(n^2) otherwise); xi = 1 - zeta/chi,
    set to 1 when chi = 0 because y is constant. A map that sends every y of
    a nonconstant sample to one value (Phi beyond about 8.3, a uniform map
    outside its interval) raises ``DegenerateDataError`` instead of reading as
    perfect dependence. ``_squares`` keeps the test's totals (``_pair_mean``).
    """
    permutation = order_by_x(sample, tie_seed)
    u = np.asarray(dist.eval(sample.ys), dtype=float)
    zeta = _consecutive_mean(u[permutation], kernel)
    chi, totals = _pair_mean(sort_order(u)[1], kernel, _squares)
    if chi == 0.0 and sample.ys.min() != sample.ys.max():
        raise DegenerateDataError(
            f"F = {dist.kind}{dist.params or ''} sends every y to {float(u[0])!r}, though y "
            "is not constant: chi = 0 and xi is undefined"
        )
    return CoefficientResult(
        xi=1.0 if chi == 0.0 else 1.0 - zeta / chi,
        zeta=zeta,
        normalization=chi,
        variant="plugin",
        n=sample.n,
        tie_seed=tie_seed,
        _totals=totals,
    )


def _rank_based(
    sample: PairedSample,
    variant: str,
    kernel: Kernel | None,
    tie_seed: int,
    squares: Callable[[bool], bool] | None = None,
) -> CoefficientResult:
    """The rank, simplified or Chatterjee coefficient from one ranking of y in x-order.

    ``_ranks_in_x_order`` ranks y once. ``squares``, if given, is then asked
    whether two y's are equal, and its answer says whether the result also
    holds the test's totals (``_pair_mean``) over the ascending R/n, which for
    distinct y is the grid 1/n, ..., 1. The rank variant adds them in chi's
    own row-sum pass, simplified and Chatterjee in one pass of their own.
    The test decides through ``squares`` rather than by ranking first itself,
    so that no caller holds the integer ranks while the sums run.
    """
    n = sample.n
    # Chatterjee's zeta and the simplified power:1-3 zeta are integer rank-gap sums
    gamma = 1 if variant == "chatterjee" else None
    if variant == "simplified":
        c_h = normalization_constant(kernel)
        if c_h <= 0.0:
            raise NumericError(f"kernel {kernel.label()} has non-positive C_h = {c_h}")
        gamma = _exact_gap_power(kernel, n)
    r_ordered, max_ranks, x_tied = _ranks_in_x_order(sample, tie_seed)
    if variant == "chatterjee":
        if x_tied:
            raise DegenerateDataError(
                "tied X values: the (n^2-1)/3 normalization does not apply, use xi_rank"
            )
        spread = n * (n * n - 1) // 6 if max_ranks is None else _tie_spread(max_ranks)
        if spread == 0:
            raise DegenerateDataError("constant Y: Chatterjee's xi is undefined")
    if gamma is None:
        r_ordered = r_ordered / n  # R/n: the integer ranks are freed before the kernel sum
        zeta = _consecutive_mean(r_ordered, kernel)
    else:
        gap_sum = _rank_gap_power_sum(r_ordered, gamma)
        zeta = float(gap_sum) if variant == "chatterjee" else gap_sum / n ** (gamma + 1)
    del r_ordered  # freed before chi's or the totals' pass, as is max_ranks
    y_tied = max_ranks is not None
    take_totals = squares is not None and squares(y_tied)
    chi = totals = None
    if variant == "rank" or take_totals:
        u_sorted = (np.arange(1, n + 1) if max_ranks is None else max_ranks) / n
        del max_ranks
        chi, totals = _pair_mean(u_sorted, kernel, take_totals, chi=variant == "rank")
    if variant == "rank":
        normalization, xi = chi, 1.0 if chi == 0.0 else 1.0 - zeta / chi
    elif variant == "simplified":
        normalization, xi = c_h, 1.0 - zeta / c_h
    else:
        normalization, xi = 2 * spread / n, (2 * spread - n * gap_sum) / (2 * spread)
    return CoefficientResult(
        xi=xi,
        zeta=zeta,
        normalization=normalization,
        variant=variant,
        n=n,
        tie_seed=tie_seed,
        y_tied=y_tied,
        _totals=totals,
    )


def xi_rank(sample: PairedSample, kernel: Kernel, tie_seed: int = 0) -> CoefficientResult:
    """Rank-based coefficient: the plugin form with F the empirical CDF.

    Uses u_i = R_i / n with the max-rank convention; agrees exactly with
    ``xi_plugin(sample, kernel, empirical_map(sample.ys))``.
    """
    return _rank_based(sample, "rank", kernel, tie_seed)


def xi_simplified(sample: PairedSample, kernel: Kernel, tie_seed: int = 0) -> CoefficientResult:
    """Simplified rank coefficient: xi = 1 - zeta_rank / C_h, O(n log n).

    Valid when y is continuous, where the pairwise normalization converges
    to the constant C_h and need not be estimated.

    With u = R/n, zeta = sum h(u_[i], u_[i+1]) / n. For power:1, power:2 and
    power:3 that is the integer ratio sum |R_[i+1] - R_[i]|^gamma / n^(gamma+1),
    which is summed exactly (``_rank_gap_power_sum``) and divided once, so
    zeta is its exactly rounded value. Other kernels, and power:3 from
    n ~ 2.1e6 on, where a term could pass int64, add the kernel values with
    ``_fsum``. C_h is computed once, before y is ranked; the independence
    test refuses tied y (``y_tied``).
    """
    return _rank_based(sample, "simplified", kernel, tie_seed)


def _tie_spread(max_ranks: np.ndarray) -> int:
    """Exact ``sum_i l_i (n - l_i)``, l_i = #{j : y_j >= y_i}, from ascending max-ranks.

    A tied block of c values after the p smallest has l = n - p, so it adds c (n - p) p.
    """
    n = max_ranks.size
    p = max_ranks[:-1][max_ranks[:-1] != max_ranks[1:]]  # of every block but the first
    if 4 * n**3 > 27 * _INT64_MAX:  # c (n - p) p <= 4 n^3 / 27 passes int64 past n ~ 3.9e6
        p = p.astype(object)
    return sum((np.diff(p, append=n) * (n - p) * p).tolist())  # passes int64 past n ~ 3.3e6


def chatterjee_reference(sample: PairedSample, tie_seed: int = 0) -> CoefficientResult:
    """Chatterjee's (2021) rank correlation.

    With max-ranks R_i = #{j : y_j <= y_i} in x-order and
    l_i = #{j : y_j >= y_i},

        xi = 1 - n * sum|R_[i+1] - R_[i]| / (2 * sum_i l_i (n - l_i)),

    which without tied y is 1 - 3 * sum|R_[i+1] - R_[i]| / (n^2 - 1). Both
    are one ratio of integers, rounded once; a constant y leaves it
    undefined and raises ``DegenerateDataError``. Tied x's are rejected too
    (use ``xi_rank`` there, which handles ties by construction).
    """
    return _rank_based(sample, "chatterjee", None, tie_seed)


def _check_arguments(variant: str, kernel: Kernel | None, dist: DistMap | None) -> None:
    """Refuse what ``coefficient`` cannot compute, with the messages the test shares."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if kernel is None and variant != "chatterjee":
        raise ValueError(f"{variant} variant requires a kernel")
    if variant == "plugin" and dist is None:
        raise ValueError("plugin variant requires a distribution map")


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
    _check_arguments(variant, kernel, dist)
    # xi_* are looked up by name on every call, so a caller that rebinds
    # them (a profiler, a test double) sees every call
    if variant == "plugin":
        return xi_plugin(sample, kernel, dist, tie_seed)
    if variant == "rank":
        return xi_rank(sample, kernel, tie_seed)
    if variant == "simplified":
        return xi_simplified(sample, kernel, tie_seed)
    return chatterjee_reference(sample, tie_seed)


def pearson(sample: PairedSample) -> float:
    """Product-moment correlation; rejects zero-variance coordinates."""
    return _pearson(sample.xs, sample.ys)


def _pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    """``pearson`` of two finite float arrays of one length."""
    xc = xs - np.mean(xs)
    yc = ys - np.mean(ys)
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateDataError("zero variance: correlation undefined")
    return float(xc @ yc) / (sx * sy)


def _mid_ranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks: each tied block gets the mean of the 1-based positions it spans,
    from its first position, carried along the sorted values, to its max-rank R."""
    r, max_ranks = _ranked(*sort_order(values))
    if max_ranks is None:
        return r.astype(float)
    min_ranks = np.arange(1, r.size + 1)
    min_ranks[1:][max_ranks[1:] == max_ranks[:-1]] = 1
    np.maximum.accumulate(min_ranks, out=min_ranks)
    return (min_ranks[r - 1] + r) / 2.0  # a block's last position R - 1 holds its first


def spearman(sample: PairedSample) -> float:
    """Pearson correlation of mid-ranks (average rank on ties), finite by construction."""
    return _pearson(_mid_ranks(sample.xs), _mid_ranks(sample.ys))

"""Correlation coefficients built from kernel variation along the x-ordering.

Given pairs (x_i, y_i), reorder so the x's are nondecreasing (ties broken
uniformly at random from an explicit seed) and write y_[1], ..., y_[n] for
the reordered responses. For a kernel h and a monotone map F into [0,1] the
plugin coefficient is

    zeta = (1/n)   * sum_{i<n}  h(F(y_[i]), F(y_[i+1]))     (variation)
    chi  = (1/n^2) * sum_{i,j}  h(F(y_i),  F(y_j))          (normalization)
    xi   = 1 - zeta / chi,      with xi = 1 when chi = 0.

zeta is small when y tracks x; chi calibrates xi to 0 under independence.
The rank variant takes F to be the empirical CDF, the simplified variant
replaces chi by C_h, the integral of h over the unit square, and with
h = |y - z| the rank variant is Chatterjee's rank correlation.
``coefficient`` selects a member by its name in ``VARIANTS``, and one private
function, ``_coefficient``, computes every variant and the test's totals.
Every output is a pure function of (sample, seed), and every sort orders by
value as argsort does wherever the values are distinct.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _sorting
from ._sorting import BLOCK, blocks, gathered, packed_sort, scatter_ramp, settle, sort_order
from .cdf import DistMap, _centred
from .errors import DegenerateDataError, NumericError
from .kernels import _INTEGER_POWERS, Kernel, _sorted_row_sums, make_kernel, normalization_constant

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
    variant the normalization is C_h. Where they come from integers (rank
    power:1 and power:2, see ``xi_rank``), each of the three is rounded once.
    For the Chatterjee reference, xi is rank power:1's, zeta is the raw
    consecutive rank-gap sum and the normalization is
    2 * sum_i l_i (n - l_i) / n, which is (n^2 - 1) / 3 without tied y.

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


def order_by_x(sample: PairedSample, tie_seed: int = 0) -> np.ndarray:
    """The permutation that sorts pairs by x, tied x's broken uniformly at random.

    One sort (``_sorting.sort_order``) orders the x's. Only tied x's run the
    tie-break: it draws one uniform key per observation from ``tie_seed``
    and sorts lexicographically by (x, key), which shuffles each maximal
    tied block uniformly. Distinct x's have a single sorting permutation,
    the one the (x, key) sort returns for every seed. Deterministic given
    (sample, tie_seed); O(n log n).
    """
    _check_tie_seed(tie_seed)
    perm, ordered = sort_order(sample.xs)
    if np.any(ordered[1:] == ordered[:-1]):
        perm = _x_tie_break(sample, tie_seed)
    return perm


def _check_tie_seed(tie_seed) -> None:
    """Refuse a seed that is not a non-negative integer before the data show
    whether tied x's read it."""
    if not isinstance(tie_seed, numbers.Integral) or tie_seed < 0:
        raise ValueError(f"tie_seed must be a non-negative integer, got {tie_seed!r}")


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
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(ranks(ys)[order_by_x(sample, tie_seed)], max_ranks)``, ``_ranked``'s max-ranks.

    From ``_PACKED_SORT_MIN`` values on, two ``packed_sort``s that ``settle``
    strips to their tags, and no gather: y's indices sorted by y give y's
    order; 0, ..., n-1 scattered through it (the ranks less one) and sorted
    by x come out in x-order. Tied y take their max-ranks from the first sort
    and ``order_by_x``; tied x keep the y ranks and take its seeded tie-break.
    """
    _check_tie_seed(tie_seed)
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
                return r_ordered, None
            scatter_ramp(r_ordered, y_order, 1)  # now ranks(ys), by index
            del y_order  # freed before the tie-break sorts
            return r_ordered[_x_tie_break(sample, tie_seed)], None
    return r[order_by_x(sample, tie_seed)], max_ranks


#: below this many values math.fsum beats the numpy calls of _fsum
#: (crossover measured at 500-650 on a 2-core Xeon with numpy 2.4)
_EXTRACT_MIN = 700
#: extraction levels a block may take before math.fsum adds the values
_LEVELS = 6


def _fsum(values: np.ndarray) -> float:
    """The exactly rounded sum of a float array: ``math.fsum``'s value, bit for bit.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1),
    2008). Let sigma = 2^e >= 2^b |p| for every p, with 2^b > n. Then
    q = (sigma + p) - sigma and p - q are exact, q is a multiple of 2^(e-53)
    and |p - q| <= 2^(e-53); a sum of n such q's is a multiple of 2^(e-53)
    below sigma in magnitude, which a float holds exactly. The next level extracts from
    the remainders p - q with sigma times 2^(b-53), never below 2^-1022, where
    q = p. ``BLOCK``-sized pieces run the levels until their remainders are
    all 0, and one ``math.fsum`` rounds the level sums.

    ``math.fsum``, also the tests' oracle, takes over below ``_EXTRACT_MIN``
    values, on non-finite values, where sigma would pass the float range
    (``math.fsum`` raises on an intermediate overflow), where ``_LEVELS``
    levels leave a remainder (exponents spread over more than about
    _LEVELS * (53 - b) bits) and on an exact zero sum, whose sign it chooses.
    """
    n = values.size
    b = n.bit_length()  # 2^b > n
    top = max(values.max(), -values.min()) if n >= _EXTRACT_MIN else 0.0  # NaN if any is
    e = math.floor(math.log2(top)) + 1 + b if 0.0 < top < math.inf else 1024
    if e < 1024:
        level_sums = [0.0] * _LEVELS
        for start, stop in blocks(n):
            p = values[start:stop]
            for level in range(_LEVELS):
                sigma = 2.0 ** max(e - level * (53 - b), -1022)
                q = p + sigma
                q -= sigma
                level_sums[level] += q.sum()
                p = p - q
                if not p.any():
                    break
            else:
                return math.fsum(values.tolist())
        total = math.fsum(level_sums)
        if total != 0.0:
            return total
    return math.fsum(values.tolist())


#: the largest int64, the bound on every partial sum of rank-gap powers
_INT64_MAX = 2**63 - 1


def _exact_gap_power(kernel: Kernel, n: int) -> int | None:
    """gamma when the simplified zeta of ``kernel`` at n is an int64 rank-gap sum.

    That is gamma 1, 2 or 3 in ``kernel.params`` (the row-sum hook's exponents)
    with (n - 1)^gamma, the largest term, within int64; else None.
    """
    gamma = kernel.params.get("gamma")
    if gamma in _INTEGER_POWERS and (n - 1) ** int(gamma) <= _INT64_MAX:
        return int(gamma)
    return None


def _int_sum(parts, bound: int) -> int:
    """The exact sum of int64 blocks of at most ``BLOCK`` terms, each at most
    ``bound`` in magnitude, joined as Python ints. Where a block's sum could
    pass int64, it is added as two sums, of the terms' high and low 32 bits."""
    split = bound * BLOCK > _INT64_MAX
    total = 0
    for terms in parts:
        if split:
            total += int(np.right_shift(terms, 32).sum()) << 32
            terms &= 2**32 - 1
        total += int(terms.sum())
    return total


def _rank_gap_power_sum(r_ordered: np.ndarray, gamma: int) -> int:
    """sum_i |r_[i+1] - r_[i]|^gamma over n integer ranks in 0..n, exactly.

    A term is at most n^gamma, or (n - 1)^gamma for ranks in 1..n, which the
    caller keeps within int64; the terms are added in blocks of ``BLOCK``
    gaps (``_int_sum``).
    """
    n = r_ordered.size

    def powers():
        for start, stop in blocks(n - 1, BLOCK):
            gaps = np.subtract(
                r_ordered[start + 1 : stop + 1], r_ordered[start:stop], dtype=np.int64
            )
            np.abs(gaps, out=gaps)
            yield np.power(gaps, gamma, out=gaps) if gamma > 1 else gaps

    return _int_sum(powers(), n**gamma)


def _pair_power_sum(r_sorted: np.ndarray | None, n: int, gamma: int) -> int:
    """P = sum_{i,j} |R_i - R_j|^gamma over n integers R in 0..n, exactly, for
    gamma 1 or 2; ``r_sorted`` holds them in ascending order, or is None for
    the ranks 1, ..., n of distinct values.

    P_1 = 2 sum_k (2k - n - 1) R_(k) and P_2 = 2n sum R^2 - 2 (sum R)^2, added
    in int64 blocks (``_int_sum``); 1, ..., n give n (n^2 - 1) / 3 and
    n^2 (n^2 - 1) / 6. For max-ranks, P_1 is 2 sum_i l_i (n - l_i) with
    l_i = #{j : y_j >= y_i}, Chatterjee's tie denominator.
    """
    if r_sorted is None:
        return n * (n * n - 1) // 3 if gamma == 1 else n * n * (n * n - 1) // 6
    if gamma == 1:
        weighted = (
            np.arange(2 * start - n + 1, 2 * stop - n, 2, dtype=np.int64) * r_sorted[start:stop]
            for start, stop in blocks(n, BLOCK)
        )
        return 2 * _int_sum(weighted, n * n)
    squares = (np.square(r_sorted[start:stop], dtype=np.int64) for start, stop in blocks(n, BLOCK))
    total = int(r_sorted.sum(dtype=np.int64))  # at most n^2
    return 2 * n * _int_sum(squares, n * n) - 2 * total * total


def _pair_mean(v: np.ndarray, kernel: Kernel, squares: bool) -> tuple:
    """For ascending v: chi, the mean kernel value over all n^2 ordered pairs
    (diagonal included), and, for ``squares``, the exactly rounded totals of the
    off-diagonal row sums S of h and Q of h^2: (sum S, sum Q, sum (S^2 - Q)),
    else None. One row-sum pass gives both. Totals over one value, and a kernel 0
    between every two values though they differ, are refused."""
    n = v.size
    if squares and v[0] == v[-1]:
        raise DegenerateDataError("degenerate Y under F: all mapped values coincide")
    sums, sq_sums = _sorted_row_sums(v, kernel, squares)
    if v[0] != v[-1] and not sums.any():
        raise DegenerateDataError(
            f"kernel {kernel.label()} is 0 between every two mapped values, though they "
            "differ: chi = 0, and neither xi nor its null variance is defined"
        )
    totals = (_fsum(sums), _fsum(sq_sums), _fsum(sums**2 - sq_sums)) if squares else None
    if kernel.row_sums is None:
        # only hooked kernels are exactly 0 on the diagonal; a custom kernel
        # may leave up to its validation tolerance there, which chi counts
        total = _fsum(np.concatenate((sums, np.asarray(kernel.eval(v, v), dtype=float))))
    else:
        total = totals[0] if squares else _fsum(sums)
    return total / (n * n), totals


@functools.lru_cache(maxsize=64)
def _lattice_pair_mean(kernel: Kernel, n: int, squares: bool) -> tuple:
    """``_pair_mean`` on 1/n, ..., 1, the rank-based variants' u on distinct y; the last
    64 are kept by (kernel, n, squares). A refusal is not kept."""
    return _pair_mean(np.arange(1, n + 1) / n, kernel, squares)


def _coefficient(
    sample: PairedSample,
    variant: str,
    kernel: Kernel | None,
    tie_seed: int,
    dist: DistMap | None = None,
    squares: Callable[[bool | None], bool] | None = None,
) -> tuple[CoefficientResult, tuple[float, float, float] | None]:
    """Every variant's result, and the test's totals (``_pair_mean``) or None.

    Two input stages feed one tail. The plugin orders x (``order_by_x``),
    maps y once by F and sorts F(y) once; where F(y) lies on the lattice
    0, 1/n, ..., 1, it goes on with the integers R = rint(n F(y)). The other
    variants rank y in x-order once (``_ranks_in_x_order``). The tail then
    computes zeta, chi or C_h and xi: for Chatterjee, simplified power:1-3
    and rank or lattice-plugin power:1-2, zeta is the integer rank-gap sum
    and chi the integer pair sum (``_pair_power_sum``), each ratio rounded
    once; otherwise kernel values and row sums are added in floats.

    ``squares``, if given, is asked whether two y's are equal (None for the
    plugin, which never ranks y) before any sum; its answer says whether to
    add the totals over the ascending mapped values, in chi's own row-sum pass
    where chi is summed in floats and in one pass of its own otherwise. The
    test decides through ``squares`` rather than by ranking first itself, so
    that no caller holds the integer ranks while the sums run.
    """
    n = sample.n
    gamma = _exact_gap_power(kernel, n)
    if variant == "simplified":
        c_h = normalization_constant(kernel)
        if c_h <= 0.0:
            raise NumericError(f"kernel {kernel.label()} has non-positive C_h = {c_h}")
    elif gamma == 3:
        gamma = None  # chi of power:3 is added in floats
    y_tied = v = r_sorted = None
    if variant == "plugin":
        permutation = order_by_x(sample, tie_seed)
        u = np.asarray(dist.eval(sample.ys), dtype=float)
        v = sort_order(u)[1]
        # on the lattice 0, 1/n, ..., 1, as the empirical CDF always is, R/n == v bit for bit
        lattice = gamma is not None and 0.0 <= v[0] and v[-1] <= 1.0
        if lattice and np.array_equal(np.rint(v * n) / n, v):
            ordered = np.rint(u[permutation] * n).astype(np.int64)
            r_sorted = np.rint(v * n).astype(np.int64)
        else:
            gamma, ordered = None, u[permutation]
        del permutation
    else:
        ordered, r_sorted = _ranks_in_x_order(sample, tie_seed)
        y_tied = r_sorted is not None
        if gamma is None:
            ordered = ordered / n  # R/n: the integer ranks are freed before the kernel sum
    if gamma is None:
        zeta = _fsum(np.asarray(kernel.eval(ordered[:-1], ordered[1:]), dtype=float)) / n
    else:
        gap_sum = _rank_gap_power_sum(ordered, gamma)
        zeta = gap_sum / n ** (gamma + 1)
    del ordered  # freed before chi's or the totals' pass, as are the sorted ranks
    if variant != "simplified" and gamma is not None:
        pair_sum = _pair_power_sum(r_sorted, n, gamma)
        if variant == "chatterjee" and pair_sum == 0:
            raise DegenerateDataError("constant Y: Chatterjee's xi is undefined")
    take_totals = squares is not None and squares(y_tied)
    sum_chi = variant != "simplified" and gamma is None
    chi = totals = None
    if (sum_chi or take_totals) and v is None and r_sorted is None:  # u = 1/n, ..., 1
        chi, totals = _lattice_pair_mean(kernel, n, take_totals)
    elif sum_chi or take_totals:
        v = r_sorted / n if v is None else v
        del r_sorted
        chi, totals = _pair_mean(v, kernel, take_totals)
    if variant == "simplified":
        normalization, xi = c_h, 1.0 - zeta / c_h
    elif sum_chi:
        normalization, xi = chi, 1.0 if chi == 0.0 else 1.0 - zeta / chi
    else:
        xi = 1.0 if pair_sum == 0 else (pair_sum - n * gap_sum) / pair_sum
        normalization = pair_sum / n ** (gamma + 2)
        if variant == "chatterjee":  # the raw sums, not the rounded ratios rescaled
            zeta, normalization = float(gap_sum), pair_sum / n
    if variant == "plugin" and normalization == 0.0 and sample.ys.min() != sample.ys.max():
        raise DegenerateDataError(
            f"F = {dist.kind}{dist.params or ''} sends every y to {float(u[0])!r}, though y "
            "is not constant: chi = 0 and xi is undefined"
        )
    result = CoefficientResult(
        xi=xi,
        zeta=zeta,
        normalization=normalization,
        variant=variant,
        n=n,
        tie_seed=tie_seed,
        y_tied=y_tied,
    )
    return result, totals


def xi_plugin(
    sample: PairedSample, kernel: Kernel, dist: DistMap, tie_seed: int = 0
) -> CoefficientResult:
    """Plugin coefficient with a prespecified monotone map F.

    Computes zeta over consecutive F(y)'s in x-order and chi over all pairs
    (O(n log n) for the builtin kernels, O(n^2) otherwise); xi = 1 - zeta/chi,
    set to 1 when chi = 0 because y is constant. A map that sends every y of
    a nonconstant sample to one value (Phi beyond about 8.3, a uniform map
    outside its interval) raises ``DegenerateDataError`` instead of reading as
    perfect dependence, as does a kernel that is 0 between every two F(y)
    that differ. With power:1 or power:2 and every F(y) on the lattice
    0, 1/n, ..., 1, as for the empirical CDF, zeta, chi and xi are
    ``xi_rank``'s integer ratios: F(y) = R/n enters the one tail
    (``_coefficient``) that the rank variants share.
    """
    return _coefficient(sample, "plugin", kernel, tie_seed, dist)[0]


def xi_rank(sample: PairedSample, kernel: Kernel, tie_seed: int = 0) -> CoefficientResult:
    """Rank-based coefficient: the plugin form with F the empirical CDF.

    Uses u_i = R_i / n with the max-rank convention; agrees exactly with
    ``xi_plugin(sample, kernel, empirical_map(sample.ys))``. For power:1 and
    power:2, with G = sum |R_[i+1] - R_[i]|^gamma and
    P = sum_{i,j} |R_i - R_j|^gamma (``_pair_power_sum``), zeta = G / n^(gamma+1),
    chi = P / n^(gamma+2) and xi = (P - n G) / P (1 when P = 0) are each an
    integer ratio rounded once; power:1 is Chatterjee's coefficient, bit for bit.
    Other kernels' chi is a function of (kernel, n) on distinct y, kept after
    the first call (``_lattice_pair_mean``), and summed over the levels on tied y.
    """
    return _coefficient(sample, "rank", kernel, tie_seed)[0]


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
    return _coefficient(sample, "simplified", kernel, tie_seed)[0]


def chatterjee_reference(sample: PairedSample, tie_seed: int = 0) -> CoefficientResult:
    """Chatterjee's (2021) rank correlation: ``xi_rank`` with power:1.

    With max-ranks R_i = #{j : y_j <= y_i} in x-order and
    l_i = #{j : y_j >= y_i},

        xi = 1 - n * sum|R_[i+1] - R_[i]| / (2 * sum_i l_i (n - l_i)),

    which without tied y is 1 - 3 * sum|R_[i+1] - R_[i]| / (n^2 - 1). As
    2 * sum_i l_i (n - l_i) = sum_{i,j} |R_i - R_j|, xi is rank power:1's
    exactly rounded ratio; zeta is the raw gap sum and the normalization
    2 * sum_i l_i (n - l_i) / n. Tied x's take ``order_by_x``'s seeded shuffle,
    as Chatterjee breaks them uniformly at random. A constant y leaves xi
    undefined and raises ``DegenerateDataError``.
    """
    return _coefficient(sample, "chatterjee", _CHATTERJEE_KERNEL, tie_seed)[0]


#: the kernel of Chatterjee's coefficient, which is rank power:1
_CHATTERJEE_KERNEL = make_kernel("power", gamma=1.0)


def _variant_kernel(variant: str, kernel: Kernel | None) -> Kernel | None:
    """The kernel ``variant`` computes with: Chatterjee's power:1, else ``kernel``."""
    return _CHATTERJEE_KERNEL if variant == "chatterjee" else kernel


def _check_arguments(variant: str, kernel: Kernel | None, dist: DistMap | None) -> Kernel:
    """Refuse what ``coefficient`` cannot compute, with the messages the test shares,
    and return the kernel ``variant`` computes with (``_variant_kernel``)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    kernel = _variant_kernel(variant, kernel)
    if kernel is None:
        raise ValueError(f"{variant} variant requires a kernel")
    if variant == "plugin" and dist is None:
        raise ValueError("plugin variant requires a distribution map")
    return kernel


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
    xc = _centred(xs)[0]
    yc = _centred(ys)[0]
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

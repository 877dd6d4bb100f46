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
O(n log n). With h = |y - z| the simplified variant is, up to the
(n^2-1)/3 vs n^2/3 denominator, Chatterjee's rank correlation, which is
also provided directly as a reference. ``coefficient`` selects a member
by its name in ``VARIANTS``; the CLI, the simulation harness and the
independence test all go through it.

All operations are pure functions of (sample, seed). chi is built from the
off-diagonal row sums of ``kernels.kernel_row_sums``: exact O(n log n)
identities for the builtin kernels (one integer-power routine for power:1,
power:2 and power:3, and for expsq as power:2 on e^u; a decayed-sum
recurrence for exp), blocked O(n^2) sums otherwise. The row sums are added
with exactly rounded summation (math.fsum), so chi is deterministic,
independent of the order of the sample, and within 1e-12 relative of the
exactly rounded sum of all n^2 kernel values (the tolerance the tests check
against a row-loop oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdf import DistMap, empirical_map
from .errors import DegenerateDataError, NumericError
from .kernels import Kernel, kernel_row_sums, normalization_constant

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
    the raw consecutive rank-gap sum and the normalization is (n^2 - 1) / 3.
    """

    xi: float
    zeta: float
    normalization: float
    variant: str
    n: int
    tie_seed: int


def _has_ties(sorted_values: np.ndarray) -> bool:
    """Whether a sorted array holds two equal values (-0.0 equals 0.0)."""
    return bool(np.any(sorted_values[1:] == sorted_values[:-1]))


def order_by_x(sample: PairedSample, tie_seed: int = 0) -> np.ndarray:
    """The permutation that sorts pairs by x, tied x's broken uniformly at random.

    One argsort orders the x's. Only tied x's run the tie-break: it draws
    one uniform key per observation from ``tie_seed`` and sorts
    lexicographically by (x, key), which shuffles each maximal tied block
    uniformly. Distinct x's have a single sorting permutation, the one the
    (x, key) sort returns for every seed. Deterministic given
    (sample, tie_seed); O(n log n).
    """
    xs = sample.xs
    perm = np.argsort(xs)
    if _has_ties(xs[perm]):
        keys = np.random.default_rng(tie_seed).random(sample.n)
        perm = np.lexsort((keys, xs))
    return perm


def ranks(ys) -> np.ndarray:
    """Max-rank of each value: R_i = #{j : y_j <= y_i}.

    One argsort, then O(n): without ties the sorted positions 1..n are the
    ranks; with ties each value gets the end of its tied block. NaNs sort
    last and form one block, so all of them rank at the count of values.
    """
    ys = np.asarray(ys, dtype=float)
    order = np.argsort(ys)
    ordered = ys[order]
    tied = ordered[1:] == ordered[:-1]
    tied[ordered.searchsorted(np.nan):] = True  # NaN != NaN, but they share a block
    positions = np.arange(1, ys.size + 1)
    if tied.any():
        # a value with an equal successor takes the next block end
        positions[:-1][tied] = ys.size
        positions = np.minimum.accumulate(positions[::-1])[::-1]
    out = np.empty(ys.size, dtype=np.intp)
    out[order] = positions
    return out


def _fsum(values: np.ndarray) -> float:
    # math.fsum is exactly rounded, hence order-independent; tolist() keeps
    # it on the fast C path.
    return math.fsum(values.tolist())


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
) -> CoefficientResult:
    zeta = _consecutive_mean(u[permutation], kernel)
    chi = _pair_mean(u, kernel)
    xi = 1.0 if chi == 0.0 else 1.0 - zeta / chi
    return CoefficientResult(
        xi=xi, zeta=zeta, normalization=chi, variant=variant, n=n, tie_seed=tie_seed
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
    return _coefficient_from_u(u, permutation, kernel, "plugin", sample.n, tie_seed)


def xi_rank(sample: PairedSample, kernel: Kernel, tie_seed: int = 0) -> CoefficientResult:
    """Rank-based coefficient: the plugin form with F the empirical CDF.

    Uses u_i = R_i / n with the max-rank convention; agrees exactly with
    ``xi_plugin(sample, kernel, empirical_map(sample.ys))``.
    """
    permutation = order_by_x(sample, tie_seed)
    u = ranks(sample.ys) / sample.n
    return _coefficient_from_u(u, permutation, kernel, "rank", sample.n, tie_seed)


def xi_simplified(sample: PairedSample, kernel: Kernel, tie_seed: int = 0) -> CoefficientResult:
    """Simplified rank coefficient: xi = 1 - zeta_rank / C_h, O(n log n).

    Valid when y is continuous, where the pairwise normalization converges
    to the constant C_h and need not be estimated.
    """
    c_h = normalization_constant(kernel)
    if c_h <= 0.0:
        raise NumericError(f"kernel {kernel.label()} has non-positive C_h = {c_h}")
    permutation = order_by_x(sample, tie_seed)
    u_ordered = ranks(sample.ys)[permutation] / sample.n
    zeta = _consecutive_mean(u_ordered, kernel)
    return CoefficientResult(
        xi=1.0 - zeta / c_h,
        zeta=zeta,
        normalization=c_h,
        variant="simplified",
        n=sample.n,
        tie_seed=tie_seed,
    )


def chatterjee_reference(sample: PairedSample, tie_seed: int = 0) -> CoefficientResult:
    """Chatterjee's rank correlation, 1 - 3 * sum|R_[i+1] - R_[i]| / (n^2 - 1).

    The (n^2 - 1)/3 denominator assumes no ties among the x's; tied x's are
    rejected (use ``xi_rank`` there, which handles ties by construction).
    """
    permutation = order_by_x(sample, tie_seed)
    if _has_ties(sample.xs[permutation]):
        raise DegenerateDataError(
            "tied X values: the (n^2-1)/3 normalization does not apply, use xi_rank"
        )
    rank_gaps = np.abs(np.diff(ranks(sample.ys)[permutation]))
    gap_sum = _fsum(rank_gaps.astype(float))
    normalization = (sample.n**2 - 1) / 3.0
    return CoefficientResult(
        xi=1.0 - gap_sum / normalization,
        zeta=gap_sum,
        normalization=normalization,
        variant="chatterjee",
        n=sample.n,
        tie_seed=tie_seed,
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
    order = np.argsort(values)
    ordered = values[order]
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

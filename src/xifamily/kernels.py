"""Bivariate variation kernels h on the unit square.

A kernel is a nonnegative continuous function h: [0,1]^2 -> [0, inf) with
h(x, x) = 0. It measures how different two points of [0,1] are, and is the
ingredient that generalizes the absolute rank gap |r_i - r_j| used by the
classic rank correlation.

Builtin families:

* ``power`` (gamma > 0):   h(y, z) = |y - z|**gamma
* ``exp`` (beta > 0):      h(y, z) = 1 - exp(-beta * |y - z|)
* ``expsq``:               h(y, z) = (exp(y) - exp(z))**2

All builtin kernels carry closed-form unit-square integrals

    C_h = integral of h over [0,1]^2
        = 2 / ((gamma + 1) * (gamma + 2))                    (power)
        = 1 - 2/beta + 2/beta^2 - 2*exp(-beta)/beta^2        (exp; a series below 1)
        = (e^2 - 1) - 2*(e - 1)^2                            (expsq)

used as the exact normalization of the simplified coefficient; custom
kernels fall back to adaptive quadrature (``integrate_unit_square``).

The all-pairs sums behind chi and the U-statistic null variance go
through one dispatch on ascending values, ``_sorted_row_sums``. On more
than sqrt(n) distinct values the study's kernels take exact O(n) row-sum
identities: one integer-power routine serves power:1-3, and expsq as
power:2 on e^u; exp:beta keeps its decayed-sum recurrence. Everything else
is summed in row blocks over the m distinct values weighted by their
counts, O(n + m^2) work in O(n) memory.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._sorting import BLOCK
from .errors import QuadratureError

__all__ = [
    "Kernel",
    "make_kernel",
    "custom_kernel",
    "parse_kernel_spec",
    "normalization_constant",
    "integrate_unit_square",
]

_VALIDATION_GRID = 101
_VALIDATION_TOL = 1e-12

#: Largest exponent an anchored decay sum multiplies by (e^600 ~ 4e260).
_MAX_EXPONENT = 600.0
#: Largest exp-kernel beta: 2 beta, the decay rate of h^2's row sums, stays finite.
_MAX_BETA = sys.float_info.max / 2
#: Exponents whose power kernel carries the integer-power row-sum routine;
#: the simplified coefficient also sums their rank gaps in integers.
_INTEGER_POWERS = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class Kernel:
    """A bivariate variation function with optional analytic metadata.

    ``eval`` must accept scalars or numpy arrays (broadcasting) and be pure:
    identical inputs give bit-identical outputs. ``closed_form_ch`` is the
    unit-square integral when known analytically.

    ``row_sums`` is an optional exact fast path for ``_sorted_row_sums``:
    called as ``row_sums(v, squares)`` with ascending values v, it returns
    the off-diagonal row sums of h and, when ``squares`` is set, of h^2
    (else None), in the order of v. Only kernels that vanish on the
    diagonal exactly may carry one.
    """

    name: str
    params: dict = field(default_factory=dict)
    eval: Callable = None
    closed_form_ch: float | None = None
    row_sums: Callable | None = None

    def label(self) -> str:
        """The spec that ``parse_kernel_spec`` reads back, e.g. ``power:2`` or ``expsq``."""
        args = ",".join(repr(v).removesuffix(".0") for v in self.params.values())
        return f"{self.name}:{args}" if args else self.name


def _require_positive_finite(value: float | None, symbol: str) -> float:
    if value is None:
        raise ValueError(f"{symbol} is required")
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{symbol} must be > 0 and finite, got {value!r}")
    return value


# The eval and row-sum factories keep their last 64 results, so kernels built
# from one spec share eval and hook, and so ``estimator._lattice_memo``'s entries.


@functools.lru_cache(maxsize=64)
def _power_eval(gamma: float) -> Callable:
    if gamma == 1.0:
        return lambda y, z: np.abs(np.subtract(y, z))
    if gamma == 2.0:
        return lambda y, z: np.square(np.subtract(y, z))
    return lambda y, z: np.abs(np.subtract(y, z)) ** gamma


@functools.lru_cache(maxsize=64)
def _exp_eval(beta: float) -> Callable:
    return lambda y, z: -np.expm1(-beta * np.abs(np.subtract(y, z)))


def _expsq_eval(y, z):
    return np.square(np.subtract(np.exp(y), np.exp(z)))


# Row-sum hooks. Each takes ascending v and returns the row sums
# S_k = sum_{j != k} h(v_k, v_j) and, if asked, Q_k = sum_{j != k} h^2.
# One integer-power routine serves power:1, power:2 and power:3, and expsq
# as power:2 on e^v; exp:beta keeps its decayed-sum recurrence. Neither lets
# large terms cancel: the power routine centers the sample at its median,
# where nearby values subtract exactly, and the recurrence adds nonnegative
# terms only.


def _exclusive_cumsum(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    np.cumsum(x[:-1], out=out[1:])
    return out


def _binomial(p: int, powers: list, sums: list) -> np.ndarray:
    """sum_i C(p, i) (-1)^i w_k^(p-i) sums_i: (w_k - w_j)^p summed over j.

    ``powers[i]`` is w^i and ``sums[i]`` the sum of w_j^i over the j wanted.
    """
    total = powers[p] * sums[0]
    for i in range(1, p + 1):
        total += powers[p - i] * ((-1) ** i * math.comb(p, i) * sums[i])
    return total


@functools.lru_cache(maxsize=64)
def _power_row_sums(gamma: int) -> Callable:
    """|u - v|^gamma for integer gamma, by binomial expansion.

    On the median-centered sorted sample w = v - v[n//2], a row sum of
    (w_k - w_j)^p over a set of j needs only the sums of w_j^i over that
    set. For even gamma the set is every j, so the moments of w serve. For
    odd gamma the sign flips above k: S is the expansion over j < k minus
    the one over j > k, from prefix and suffix sums (Huo & Szekely 2016 for
    gamma = 1). Q always expands the even degree 2 gamma over the moments.
    """

    def row_sums(v: np.ndarray, squares: bool):
        n = v.size
        w = v - v[n // 2]
        powers = [1.0, w]
        while len(powers) <= (2 * gamma if squares else gamma):
            powers.append(powers[-1] * w)
        moments = [n] + [float(np.sum(x)) for x in powers[1:]]
        if gamma % 2:
            k = np.arange(n)
            below_minus_above = [2 * k - (n - 1)] + [
                _exclusive_cumsum(x) - _exclusive_cumsum(x[::-1])[::-1]
                for x in powers[1 : gamma + 1]
            ]
            sums = _binomial(gamma, powers, below_minus_above)
        else:
            sums = _binomial(gamma, powers, moments)
        return sums, _binomial(2 * gamma, powers, moments) if squares else None

    return row_sums


def _expsq_row_sums(v: np.ndarray, squares: bool):
    # (e^y - e^z)^2 is |a - b|^2 with a = e^y; for contiguous input np.exp
    # returns the same bits as Kernel.eval
    return _power_row_sums(2)(np.exp(v), squares)


def _decayed_cumsum(v: np.ndarray, rate: float, a: np.ndarray) -> np.ndarray:
    """y_k = sum_{j <= k} a_j exp(-rate (v_k - v_j)) for ascending v, a >= 0.

    Solves y_k = a_k + exp(-rate (v_k - v_{k-1})) y_{k-1} as one positive
    cumulative sum per block, anchored at the block's first value so the
    growth factors stay below e^600.
    """
    y = np.empty_like(a)
    carry = 0.0
    start = 0
    while start < v.size:
        anchor = v[start]
        stop = int(np.searchsorted(v, anchor + _MAX_EXPONENT / rate, side="right"))
        grow = np.exp(rate * (v[start:stop] - anchor))
        y[start:stop] = (carry + np.cumsum(a[start:stop] * grow)) / grow
        if stop < v.size:
            carry = y[stop - 1] * math.exp(-rate * (v[stop] - v[stop - 1]))
        start = stop
    return y


def _exp_one_sided(v: np.ndarray, beta: float, squares: bool):
    """Sums over j < k of t_kj = 1 - exp(-beta (v_k - v_j)) and of t_kj^2.

    With g_k = exp(-beta (v_k - v_{k-1})) and o_k = 1 - g_k,
        D_k = k o_k + g_k D_{k-1},
        Q_k = k o_k^2 + 2 o_k g_k D_{k-1} + g_k^2 Q_{k-1},
    recurrences in nonnegative terms; (k - sum exp) would cancel.
    """
    n = v.size
    gaps = beta * np.diff(v)
    o = np.zeros(n)
    o[1:] = -np.expm1(-gaps)
    k = np.arange(n)
    sums = _decayed_cumsum(v, beta, k * o)
    if not squares:
        return sums, None
    g = np.zeros(n)
    g[1:] = np.exp(-gaps)
    previous = np.zeros(n)
    previous[1:] = sums[:-1]
    squared = _decayed_cumsum(v, 2.0 * beta, k * o * o + 2.0 * o * g * previous)
    return sums, squared


@functools.lru_cache(maxsize=64)
def _exp_row_sums(beta: float) -> Callable:
    def row_sums(v: np.ndarray, squares: bool):
        left = _exp_one_sided(v, beta, squares)
        right = _exp_one_sided(-v[::-1], beta, squares)
        return tuple(None if a is None else a + b[::-1] for a, b in zip(left, right))

    return row_sums


#: 1 / (k + 2)! for k = 1..18, the terms of the exp kernel's C_h series
_EXP_CH_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(1, 19))


def _exp_ch(beta: float) -> float:
    """C_h of exp:beta, within 2.3 ulps below beta = 1 and 6.1 from there on.

    The closed form cancels terms of size 2 / beta^2 for small beta, so below
    1 the series 2 sum_{k>=1} (-1)^(k+1) beta^k / (k + 2)! serves, by Horner;
    its terms fall by beta / (k + 3), so 18 of them pass 2^-60 relative.
    beta * beta overflows to inf, not an error, for huge beta.
    """
    if beta < 1.0:
        total = 0.0
        for c in reversed(_EXP_CH_SERIES):
            total = c - beta * total
        return 2.0 * beta * total
    return 1.0 - 2.0 / beta + 2.0 / (beta * beta) - 2.0 * math.exp(-beta) / (beta * beta)


#: the parameter each builtin kernel takes, by kernel name
_PARAMETERS = {"power": ("gamma",), "exp": ("beta",), "expsq": ()}


def make_kernel(name: str, **params) -> Kernel:
    """A builtin kernel: ``power`` (gamma > 0), ``exp`` (beta > 0) or ``expsq``;
    a parameter that is missing or outside its domain raises ValueError."""
    if name not in _PARAMETERS:
        raise ValueError(f"unknown kernel {name!r}; expected power, exp or expsq")
    values = [_require_positive_finite(params.pop(s, None), s) for s in _PARAMETERS[name]]
    if params:
        raise ValueError(f"unexpected {name}-kernel parameters: {sorted(params)}")
    if name == "power":
        (gamma,) = values
        return Kernel(
            name="power",
            params={"gamma": gamma},
            eval=_power_eval(gamma),
            closed_form_ch=2.0 / ((gamma + 1.0) * (gamma + 2.0)),
            row_sums=_power_row_sums(int(gamma)) if gamma in _INTEGER_POWERS else None,
        )
    if name == "exp":
        (beta,) = values
        if beta > _MAX_BETA:
            raise ValueError(f"beta must be at most {_MAX_BETA:g}, got {beta!r}")
        return Kernel(
            name="exp",
            params={"beta": beta},
            eval=_exp_eval(beta),
            closed_form_ch=_exp_ch(beta),
            row_sums=_exp_row_sums(beta),
        )
    return Kernel(
        name="expsq",
        eval=_expsq_eval,
        # 2 * int e^{2u} du - 2 * (int e^u du)^2 over [0,1]
        closed_form_ch=(math.e**2 - 1.0) - 2.0 * (math.e - 1.0) ** 2,
        row_sums=_expsq_row_sums,
    )


def custom_kernel(
    name: str,
    fn: Callable,
    closed_form_ch: float | None = None,
) -> Kernel:
    """Register a user-supplied kernel after validating it on a grid.

    ``fn`` must be vectorized over numpy arrays. Nonnegativity, symmetry and
    a zero diagonal are checked on a 101x101 grid to 1e-12 rather than
    trusted; violations raise ValueError.
    """
    grid = np.linspace(0.0, 1.0, _VALIDATION_GRID)
    try:
        values = np.asarray(fn(grid[:, None], grid[None, :]), dtype=float)
    except Exception as exc:
        raise ValueError(f"kernel {name!r} is not vectorized over numpy arrays: {exc}") from exc
    if values.shape != (_VALIDATION_GRID, _VALIDATION_GRID):
        raise ValueError(f"kernel {name!r} does not broadcast to a grid")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"kernel {name!r} is not finite on the unit square")
    if np.min(values) < -_VALIDATION_TOL:
        raise ValueError(f"kernel {name!r} is negative on the unit square (min {np.min(values)})")
    diag = np.abs(np.diagonal(values))
    if np.max(diag) > _VALIDATION_TOL:
        raise ValueError(f"kernel {name!r} has nonzero diagonal (max {np.max(diag)})")
    asym = np.max(np.abs(values - values.T))
    if asym > _VALIDATION_TOL:
        raise ValueError(f"kernel {name!r} is asymmetric (max gap {asym})")
    return Kernel(
        name=name,
        eval=fn,
        closed_form_ch=closed_form_ch,
    )


def parse_kernel_spec(spec: str) -> Kernel:
    """Parse CLI kernel grammar: ``power:GAMMA``, ``exp:BETA``, ``expsq``."""
    name, values = _split_spec(spec)
    symbols = _PARAMETERS.get(name, ())
    if name in _PARAMETERS and len(values) != len(symbols):
        raise ValueError(f"kernel spec {spec!r}: {name} takes {len(symbols)} parameter(s)")
    return make_kernel(name, **dict(zip(symbols, values)))


def _split_spec(spec: str) -> tuple[str, list]:
    """``NAME[:A[,B]]``, the grammar of kernel and map specs, as the name and its numbers."""
    name, sep, numbers = spec.partition(":")
    try:
        return name.strip(), [float(t) for t in numbers.split(",")] if sep else []
    except ValueError:
        raise ValueError(f"spec {spec!r} has a parameter that is not a number") from None


#: Gauss-Legendre nodes per panel axis, and the bisection sweeps allowed
_QUADRATURE_ORDER = 8
_QUADRATURE_LEVELS = 10
#: absolute tolerance of a C_h that has no closed form
_QUADRATURE_TOL = 1e-8


def integrate_unit_square(fn: Callable, tol: float) -> float:
    """Integrate ``fn(u, v)`` over [0,1]^2 to absolute tolerance ``tol``.

    Tensor-product Gauss-Legendre on a uniform panel grid, bisecting all
    panels each sweep. Because the dominant error of kernels with a |u-v|
    crease shrinks like (panels per axis)^-2, successive sweeps are combined
    by one Richardson step and the iteration stops when consecutive
    extrapolated values agree within ``tol``. Raises QuadratureError
    (carrying the last estimate) if the budget of ``_QUADRATURE_LEVELS`` bisections
    is exhausted.
    """
    if not tol > 0.0:
        raise ValueError(f"quadrature tolerance must be > 0, got {tol!r}")
    base_nodes, base_weights = np.polynomial.legendre.leggauss(_QUADRATURE_ORDER)
    prev = None
    prev_ext = None
    for level in range(_QUADRATURE_LEVELS):
        panels = 2**level
        half = 0.5 / panels
        offsets = np.arange(panels) / panels + half
        nodes = (offsets[:, None] + half * base_nodes[None, :]).ravel()
        weights = np.tile(base_weights * half, panels)
        estimate = 0.0
        # chunk rows so the tensor grid never materializes fully
        for start in range(0, nodes.size, 1024):
            rows = nodes[start : start + 1024]
            block = fn(rows[:, None], nodes[None, :])
            estimate += float(weights[start : start + 1024] @ block @ weights)
        if prev is not None:
            extrapolated = (4.0 * estimate - prev) / 3.0
            if prev_ext is not None and abs(extrapolated - prev_ext) < tol:
                return extrapolated
            prev_ext = extrapolated
        prev = estimate
    raise QuadratureError(
        f"unit-square quadrature did not reach tol={tol:g} within "
        f"{_QUADRATURE_LEVELS} bisection sweeps (last estimate {prev_ext!r})",
        last_estimate=prev_ext,
    )


def _sorted_row_sums(v: np.ndarray, kernel: Kernel, squares: bool = False):
    """Off-diagonal row sums ``(S, Q)`` of h(v_i, v_j) over ascending ``v``.

    S_i = sum_{j != i} h(v_i, v_j) and, when ``squares`` is set,
    Q_i = sum_{j != i} h(v_i, v_j)^2 (else Q is None), in the order of v.
    A kernel with a ``row_sums`` hook on more than sqrt(n) distinct values
    takes its exact O(n) identity. Everything else is summed over the m
    distinct values L_a with counts c_a, O(n + m^2): a value at L_a has
    S = sum_b c_b T_ab - T_aa with T_ab = h(L_a, L_b), and Q the same over
    T_ab^2 (no weights when m = n). Blocks of rows a, of about ``BLOCK``
    values at most, are evaluated against the columns b at and after them;
    the column sums past a block, weighted by c_a, go to rows b. numpy's
    sums add them, whose order, unlike a BLAS product's, does not depend on
    the build. Each S_i and Q_i is within 1e-12 relative of the exactly
    rounded sum of its kernel values.
    """
    steps = v[1:] != v[:-1]
    m = np.count_nonzero(steps) + 1
    if kernel.row_sums is not None and m * m > v.size:
        return kernel.row_sums(v, squares)
    tied = m < v.size
    bounds = np.flatnonzero(np.concatenate(([True], steps, [True])))
    counts = bounds[1:] - bounds[:-1]
    levels = v[bounds[:-1]]
    rows = max(1, BLOCK // m)
    totals = np.zeros((1 + squares, m))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        block = np.asarray(kernel.eval(levels[start:stop, None], levels[None, start:]), dtype=float)
        parts = [block, np.square(block)] if squares else [block]
        for values, total in zip(parts, totals):
            weighted = values * counts[start:] if tied else values
            total[start:stop] += weighted.sum(axis=1) - values.diagonal()
            if stop < m:
                past = values[:, stop - start :]
                total[stop:] += (counts[start:stop, None] * past if tied else past).sum(axis=0)
    if tied:
        totals = np.repeat(totals, counts, axis=1)
    return totals[0], totals[1] if squares else None


def normalization_constant(kernel: Kernel) -> float:
    """Unit-square integral C_h of a kernel.

    Returns the closed form when the kernel carries one, otherwise computes
    it numerically to ``_QUADRATURE_TOL`` once per kernel ``eval``: the last
    64 results are kept, a failure is not. Positive for every non-constant
    builtin kernel.
    """
    if kernel.closed_form_ch is not None:
        return kernel.closed_form_ch
    if not isinstance(kernel.eval, Hashable):  # a callable object that defines __eq__ alone
        return integrate_unit_square(kernel.eval, _QUADRATURE_TOL)
    return _integrated(kernel.eval)


@functools.lru_cache(maxsize=64)
def _integrated(fn: Callable) -> float:
    """``integrate_unit_square(fn, _QUADRATURE_TOL)``, looked up by name on every miss."""
    return integrate_unit_square(fn, _QUADRATURE_TOL)

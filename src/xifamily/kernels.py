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
        = 1 - 2/beta + 2/beta^2 - 2*exp(-beta)/beta^2        (exp)
        = (e^2 - 1) - 2*(e - 1)^2                            (expsq)

used as the exact normalization of the simplified coefficient; custom
kernels fall back to adaptive quadrature (``integrate_unit_square``).

The all-pairs sums behind chi and the U-statistic null variance take
their values in ascending order and go through one dispatch,
``_sorted_row_sums``; the public ``kernel_row_sums`` sorts first and puts
the rows back in input order. The kernels of the simulation study carry
exact O(n log n) row-sum identities on the sorted sample: one
integer-power routine serves power:1, power:2 and power:3, and expsq as
power:2 on e^u; exp:beta keeps its decayed-sum recurrence. Every other
kernel, other exponents included, is summed in row blocks of the upper
triangle, O(n^2) work in O(n) memory.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._sorting import BLOCK, sort_order
from .errors import QuadratureError

__all__ = [
    "Kernel",
    "make_kernel",
    "custom_kernel",
    "parse_kernel_spec",
    "normalization_constant",
    "integrate_unit_square",
    "kernel_row_sums",
]

_VALIDATION_GRID = 101
_VALIDATION_TOL = 1e-12

#: Largest exponent an anchored decay sum multiplies by (e^600 ~ 4e260).
_MAX_EXPONENT = 600.0
#: Exponents whose power kernel carries the integer-power row-sum routine;
#: the simplified coefficient also sums their rank gaps in integers.
_INTEGER_POWERS = (1.0, 2.0, 3.0)


@dataclass(frozen=True)
class Kernel:
    """A bivariate variation function with optional analytic metadata.

    ``eval`` must accept scalars or numpy arrays (broadcasting) and be pure:
    identical inputs give bit-identical outputs. ``closed_form_ch`` is the
    unit-square integral when known analytically.

    ``row_sums`` is an optional exact fast path for ``kernel_row_sums``:
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
        """Spec-string form, e.g. ``power:2`` or ``expsq``."""
        if not self.params:
            return self.name
        args = ",".join(f"{v:g}" for v in self.params.values())
        return f"{self.name}:{args}"


def _require_positive_finite(value: float, symbol: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{symbol} must be > 0 and finite, got {value!r}")
    return value


def _power_eval(gamma: float) -> Callable:
    if gamma == 1.0:
        return lambda y, z: np.abs(np.subtract(y, z))
    if gamma == 2.0:
        return lambda y, z: np.square(np.subtract(y, z))
    return lambda y, z: np.abs(np.subtract(y, z)) ** gamma


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


def _exp_row_sums(beta: float) -> Callable:
    def row_sums(v: np.ndarray, squares: bool):
        left = _exp_one_sided(v, beta, squares)
        right = _exp_one_sided(-v[::-1], beta, squares)
        return tuple(None if a is None else a + b[::-1] for a, b in zip(left, right))

    return row_sums


def make_kernel(name: str, **params) -> Kernel:
    """Construct a builtin kernel: ``power`` (gamma), ``exp`` (beta), ``expsq``.

    Parameter domains (gamma > 0, beta > 0) are enforced here.
    """
    if name == "power":
        gamma = _require_positive_finite(params.pop("gamma"), "gamma")
        if params:
            raise ValueError(f"unexpected power-kernel parameters: {sorted(params)}")
        return Kernel(
            name="power",
            params={"gamma": gamma},
            eval=_power_eval(gamma),
            closed_form_ch=2.0 / ((gamma + 1.0) * (gamma + 2.0)),
            row_sums=_power_row_sums(int(gamma)) if gamma in _INTEGER_POWERS else None,
        )
    if name == "exp":
        beta = _require_positive_finite(params.pop("beta"), "beta")
        if params:
            raise ValueError(f"unexpected exp-kernel parameters: {sorted(params)}")
        return Kernel(
            name="exp",
            params={"beta": beta},
            eval=_exp_eval(beta),
            closed_form_ch=1.0 - 2.0 / beta + 2.0 / beta**2 - 2.0 * math.exp(-beta) / beta**2,
            row_sums=_exp_row_sums(beta),
        )
    if name == "expsq":
        if params:
            raise ValueError(f"unexpected expsq-kernel parameters: {sorted(params)}")
        return Kernel(
            name="expsq",
            eval=_expsq_eval,
            # 2 * int e^{2u} du - 2 * (int e^u du)^2 over [0,1]
            closed_form_ch=(math.e**2 - 1.0) - 2.0 * (math.e - 1.0) ** 2,
            row_sums=_expsq_row_sums,
        )
    raise ValueError(f"unknown kernel {name!r}; expected power, exp or expsq")


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
    head, sep, tail = spec.partition(":")
    head = head.strip()
    if head == "power":
        if not sep:
            raise ValueError("power kernel needs a parameter, e.g. power:1")
        return make_kernel("power", gamma=_parse_float(tail, "gamma"))
    if head == "exp":
        if not sep:
            raise ValueError("exp kernel needs a parameter, e.g. exp:0.5")
        return make_kernel("exp", beta=_parse_float(tail, "beta"))
    if head == "expsq":
        if sep:
            raise ValueError("expsq kernel takes no parameter")
        return make_kernel("expsq")
    raise ValueError(f"unknown kernel spec {spec!r}; expected power:G, exp:B or expsq")


def _parse_float(text: str, symbol: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"could not parse {symbol} from {text!r}") from None


def integrate_unit_square(
    fn: Callable,
    tol: float,
    order: int = 8,
    max_level: int = 10,
) -> float:
    """Integrate ``fn(u, v)`` over [0,1]^2 to absolute tolerance ``tol``.

    Tensor-product Gauss-Legendre on a uniform panel grid, bisecting all
    panels each sweep. Because the dominant error of kernels with a |u-v|
    crease shrinks like (panels per axis)^-2, successive sweeps are combined
    by one Richardson step and the iteration stops when consecutive
    extrapolated values agree within ``tol``. Raises QuadratureError
    (carrying the last estimate) if the budget of ``max_level`` bisections
    is exhausted.
    """
    if not tol > 0.0:
        raise ValueError(f"quadrature tolerance must be > 0, got {tol!r}")
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    prev = None
    prev_ext = None
    for level in range(max_level):
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
        f"{max_level} bisection sweeps (last estimate {prev_ext!r})",
        last_estimate=prev_ext,
    )


def kernel_row_sums(u, kernel: Kernel, squares: bool = False):
    """Off-diagonal row sums of the kernel matrix h(u_i, u_j).

    Returns ``(S, Q)`` with S_i = sum_{j != i} h(u_i, u_j) and, when
    ``squares`` is set, Q_i = sum_{j != i} h(u_i, u_j)^2 (else Q is None),
    both in the order of ``u``. The sample is sorted once
    (``_sorting.sort_order``); kernels with a ``row_sums`` hook then take an
    exact O(n) identity, and any other kernel is evaluated in row blocks of
    the upper triangle, using its symmetry. Each S_i and Q_i is within
    1e-12 relative of the exactly rounded sum of its kernel values and
    depends only on its position in the sorted sample, so exactly rounded
    totals over rows depend neither on the order of ``u`` nor on the order
    the sort leaves tied values in.
    """
    u = np.asarray(u, dtype=float)
    order, v = sort_order(u)
    sorted_sums = _sorted_row_sums(v, kernel, squares)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return tuple(None if sums is None else sums[position] for sums in sorted_sums)


def _sorted_row_sums(v: np.ndarray, kernel: Kernel, squares: bool = False):
    """``kernel_row_sums`` of ascending ``v``, in the order of ``v``: no sort, no scatter."""
    if kernel.row_sums is None:
        return _blocked_row_sums(v, kernel.eval, squares)
    return kernel.row_sums(v, squares)


def _blocked_row_sums(v: np.ndarray, h: Callable, squares: bool):
    """Row sums over j != i from blocks of rows of the upper triangle.

    The block of rows i in [start, stop) is evaluated against columns
    j >= start. Its row sums (diagonal zeroed) go to rows i, and its column
    sums over j >= stop go to rows j, so each pair outside the square head
    of a block is evaluated once, and no block holds more than about
    ``BLOCK`` values.
    """
    n = v.size
    rows = max(1, BLOCK // n)
    sums = np.zeros(n)
    squared = np.zeros(n) if squares else None
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = np.asarray(h(v[start:stop, None], v[None, start:]), dtype=float)
        np.fill_diagonal(block, 0.0)
        parts = [block, np.square(block)] if squares else [block]
        for values, total in zip(parts, (sums, squared)):
            total[start:stop] += values.sum(axis=1)
            total[stop:] += values[:, stop - start :].sum(axis=0)
    return sums, squared


def normalization_constant(kernel: Kernel, quadrature_tol: float = 1e-8) -> float:
    """Unit-square integral C_h of a kernel.

    Returns the closed form when the kernel carries one, otherwise computes
    it numerically to ``quadrature_tol`` once per kernel ``eval`` and
    tolerance: the last 64 results are kept, a failure is not. Positive for
    every non-constant builtin kernel.
    """
    if kernel.closed_form_ch is not None:
        return kernel.closed_form_ch
    if not isinstance(kernel.eval, Hashable):  # a callable object that defines __eq__ alone
        return integrate_unit_square(kernel.eval, quadrature_tol)
    return _integrated(kernel.eval, quadrature_tol)


@functools.lru_cache(maxsize=64)
def _integrated(fn: Callable, tol: float) -> float:
    """``integrate_unit_square(fn, tol)``, looked up by name on every miss."""
    return integrate_unit_square(fn, tol)

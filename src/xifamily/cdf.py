"""Monotone maps F: R -> [0,1] applied to the response before kernel evaluation.

Four kinds are supported: the standard normal CDF, a normal CDF with fitted
or explicit (mu, sigma), a uniform CDF on [a, b], and the empirical CDF of
the observed sample. All maps are immutable, deterministic functions of
their construction inputs and accept scalars or numpy arrays.

The normal maps evaluate ``_ndtr``, Cephes' ``ndtr`` (the rational
approximations of erf and erfc by Cody, Math. Comp. 23 (1969), as coded by
S. L. Moshier, which is also what scipy.special runs) in numpy, so the
package needs nothing beyond numpy at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._sorting import BLOCK, blocks
from .errors import DegenerateDataError

__all__ = [
    "DistMap",
    "std_normal_cdf",
    "std_normal_map",
    "normal_map",
    "fit_normal_map",
    "uniform_map",
    "empirical_map",
    "resolve_dist_spec",
]


@dataclass(frozen=True)
class DistMap:
    """A nondecreasing map from the real line into [0,1]."""

    kind: str
    eval: Callable
    params: dict = field(default_factory=dict)


def std_normal_cdf(t):
    """Standard normal CDF of a float or an array, to double precision.

    Against mpmath at 40 digits the absolute error stays below 2.3e-16 and
    the relative error below 5e-15 for t >= -5; further left it grows with
    t^2 (exp(-t^2/2) amplifies the rounding of t), to 2.4e-13 at t = -37.
    It is 0 for t <= -37.7, 1 for t >= 8.3, and NaN at NaN.
    """
    return _ndtr(t)


def std_normal_map() -> DistMap:
    return DistMap(kind="std_normal", eval=_ndtr)


def normal_map(mu: float, sigma: float) -> DistMap:
    """Normal CDF with explicit location and scale."""
    mu = float(mu)
    sigma = float(sigma)
    if not (math.isfinite(mu) and math.isfinite(sigma)) or sigma <= 0.0:
        raise ValueError(f"normal map needs finite mu and sigma > 0, got ({mu}, {sigma})")
    return DistMap(
        kind="fitted_normal",
        eval=lambda t: _ndtr(t, mu, sigma),
        params={"mu": mu, "sigma": sigma},
    )


def fit_normal_map(ys) -> DistMap:
    """Normal CDF with mu, sigma estimated from the sample.

    mu is the sample mean and sigma the sample standard deviation with the
    n-1 denominator. A constant sample has no scale and is rejected.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size < 2:
        raise ValueError("fitting a normal map needs at least 2 observations")
    mu = float(np.mean(ys))
    sigma = float(np.std(ys, ddof=1))
    if sigma == 0.0 or not math.isfinite(sigma):
        raise DegenerateDataError("degenerate Y: sample standard deviation is zero")
    return normal_map(mu, sigma)


def uniform_map(a: float, b: float) -> DistMap:
    """CDF of Uniform[a, b]: clips (t - a) / (b - a) into [0, 1]."""
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
        raise ValueError(f"uniform map needs finite a < b, got ({a}, {b})")
    width = b - a
    return DistMap(
        kind="uniform",
        eval=lambda t: np.clip((np.asarray(t, dtype=float) - a) / width, 0.0, 1.0),
        params={"a": a, "b": b},
    )


def empirical_map(ys) -> DistMap:
    """Empirical CDF of the sample: t -> #{y_i <= t} / n.

    Queries cost O(log n) after one O(n log n) sort. At the sample points
    this reproduces the max-rank convention exactly: eval(y_i) * n is the
    number of sample values <= y_i.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size < 1:
        raise ValueError("empirical map needs at least 1 observation")
    sorted_ys = np.sort(ys)
    n = sorted_ys.size

    def _eval(t):
        return np.searchsorted(sorted_ys, t, side="right") / n

    return DistMap(kind="empirical", eval=_eval, params={"n": n})


def resolve_dist_spec(spec: str, ys=None) -> DistMap:
    """Parse the CLI grammar for F and bind data-dependent kinds to ``ys``.

    Grammar: ``std-normal`` | ``fit-normal[:MU,SIGMA]`` | ``empirical`` |
    ``uniform:A,B``. ``fit-normal`` without parameters and ``empirical``
    require the sample; explicit ``fit-normal:MU,SIGMA`` overrides fitting.
    """
    head, sep, tail = spec.partition(":")
    head = head.strip()
    if head == "std-normal":
        if sep:
            raise ValueError("std-normal takes no parameters")
        return std_normal_map()
    if head == "fit-normal":
        if sep:
            mu, sigma = _parse_pair(tail, "fit-normal")
            return normal_map(mu, sigma)
        if ys is None:
            raise ValueError("fit-normal needs sample data to fit against")
        return fit_normal_map(ys)
    if head == "empirical":
        if sep:
            raise ValueError("empirical takes no parameters")
        if ys is None:
            raise ValueError("empirical map needs sample data")
        return empirical_map(ys)
    if head == "uniform":
        if not sep:
            raise ValueError("uniform needs bounds, e.g. uniform:0,1")
        a, b = _parse_pair(tail, "uniform")
        return uniform_map(a, b)
    raise ValueError(
        f"unknown F spec {spec!r}; expected std-normal, fit-normal[:MU,SIGMA], "
        "empirical or uniform:A,B"
    )


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} expects two comma-separated numbers, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"{what} parameters must be numeric, got {text!r}") from None


# Cephes ndtr.c with x = t / sqrt(2): erf(x) = x T(x^2) / U(x^2) for |x| < 1,
# erfc(x) = exp(-x^2) P(x) / Q(x) from 1 to 8 and exp(-x^2) R(x) / S(x) from
# 8 on. Highest power first; U, Q and S are monic, their leading 1 not stored.
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
#: the erfc polynomials packed as P + iQ and R + iS (R padded with a leading 0,
#: Q and S given their leading 1), so that one complex Horner evaluates both in
#: half the numpy calls: a complex times a real z multiplies each part by z
#: alone, so each part gets Cephes' bits
_ERFC_PQ = tuple(complex(p, q) for p, q in zip(_ERFC_P, (1.0, *_ERFC_Q)))
_ERFC_RS = tuple(complex(r, s) for r, s in zip((0.0, *_ERFC_R), (1.0, *_ERFC_S)))
_SQRT1_2 = 0.70710678118654752440
#: erfc(x) is 0 once x^2 passes this (Cephes' MAXLOG, log of the largest double)
_MAXLOG = 7.09782712893383996843e2
#: the erfc branch clips x here, past the root of _MAXLOG, so that inf and huge
#: values keep its polynomials finite and still come out 0
_FAR_CLIP = 27.0


def _ndtr(t, mu: float = 0.0, sigma: float = 1.0):
    """Normal CDF of ``(t - mu) / sigma`` with Cephes' ``ndtr``, for a float or an array.

    The same coefficients and order of operations, so the values are Cephes'
    except where numpy's ``exp`` rounds differently from the C library's
    (by a few ulps, in the erfc branch). Evaluated in ``blocks`` of the input,
    whose three work rows are reused from block to block: the output is the
    only array that grows with the input.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    values = t.reshape(-1)
    flat = out.reshape(-1)
    work = np.empty((3, min(values.size, BLOCK)))
    for start, stop in blocks(values.size):
        _ndtr_block(values[start:stop], mu, sigma, flat[start:stop], *work[:, : stop - start])
    return out if out.ndim else out[()]


def _ndtr_block(t, mu, sigma, y, x, w, p) -> None:
    """``y = _ndtr(t, mu, sigma)`` in the work rows ``x``, ``w`` and ``p``: the erf
    branch on every value, the erfc branch on |x| >= 1."""
    np.subtract(t, mu, out=x)
    x /= sigma
    x *= _SQRT1_2
    np.abs(x, out=w)
    far = (w >= 1.0).nonzero()[0]
    if far.size:
        x_far = x[far]
        z_far = w[far]
        x[far] = 0.0  # keeps the erf polynomials finite where the erfc branch serves
    np.square(x, out=w)
    _polevl(w, _ERF_T, p)
    p *= x
    p /= _p1evl(w, _ERF_U, y)
    np.multiply(p, 0.5, out=y)
    y += 0.5
    if far.size:
        y[far] = _ndtr_far(x_far, z_far)


def _ndtr_far(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """ndtr at x = t / sqrt(2) with z = |x| >= 1: erfc(z) / 2, taken from 1 for x > 0."""
    np.minimum(z, _FAR_CLIP, out=z)
    top = float(z.max())
    e = np.square(z)
    under = e > _MAXLOG if top * top > _MAXLOG else None
    np.negative(e, out=e)
    np.exp(e, out=e)
    if under is not None:
        e[under] = 0.0
    pq = _polevl(z.astype(complex), _ERFC_PQ)
    if top >= 8.0:
        tail = (z >= 8.0).nonzero()[0]
        pq[tail] = _polevl(z[tail].astype(complex), _ERFC_RS)
    p = pq.real * e
    p /= pq.imag
    p *= 0.5
    np.subtract(1.0, p, out=p, where=x > 0.0)
    return p


def _polevl(x: np.ndarray, coefs: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Cephes' polevl: the polynomial with ``coefs``, highest power first, at ``x``."""
    out = np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


def _p1evl(x: np.ndarray, coefs: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Cephes' p1evl: ``_polevl`` of a monic polynomial whose leading 1 is not in ``coefs``."""
    out = np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        out *= x
        out += c
    return out

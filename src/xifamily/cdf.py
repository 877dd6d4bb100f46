"""Monotone maps F: R -> [0,1] applied to the response before kernel evaluation.

Four kinds are supported: the standard normal CDF, a normal CDF with fitted
or explicit (mu, sigma), a uniform CDF on [a, b], and the empirical CDF of
the observed sample. All maps are immutable, deterministic functions of
their construction inputs and accept scalars or numpy arrays.

The normal maps evaluate scipy's vectorized ``ndtr``. scipy.special is
imported only when one of them is built or called, so importing the package
does not pay for it (about 0.3 s and 25 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    """Standard normal CDF, exact to double precision (|error| < 1e-12)."""
    from scipy.special import ndtr

    return ndtr(t)


def std_normal_map() -> DistMap:
    from scipy.special import ndtr

    return DistMap(kind="std_normal", eval=ndtr)


def normal_map(mu: float, sigma: float) -> DistMap:
    """Normal CDF with explicit location and scale."""
    mu = float(mu)
    sigma = float(sigma)
    if not (math.isfinite(mu) and math.isfinite(sigma)) or sigma <= 0.0:
        raise ValueError(f"normal map needs finite mu and sigma > 0, got ({mu}, {sigma})")
    from scipy.special import ndtr

    return DistMap(
        kind="fitted_normal",
        eval=lambda t: ndtr((np.asarray(t, dtype=float) - mu) / sigma),
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

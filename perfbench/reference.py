"""Plain-numpy reference for every op the benchmark runs.

Nothing here imports xifamily. Each function restates the documented
definition directly: full n x n kernel matrices instead of row loops,
ranks from ``np.unique`` instead of ``searchsorted``, the normal CDF from
``math.erfc`` instead of ``scipy.special.ndtr``, and closed-form C_h for
every builtin kernel instead of quadrature.
"""

from __future__ import annotations

import math

import numpy as np

#: |xi_program - xi_reference| allowed for any coefficient (and for the
#: mean and sd of a replicated cell).
XI_ABS_TOL = 1e-12
#: Relative difference allowed for the null variance sigma^2 and for z
#: (z is compared against max(|z_reference|, 1) so that z near 0 is not
#: held to a relative bound it cannot meet).
REL_TOL = 1e-10
#: Size of the deliberate error the negative control injects; every
#: tolerance above must reject it.
PERTURBATION = 1e-9

MODEL_FUNCS = {
    "quadratic": lambda x: x * x,
    "sinusoidal": lambda x: np.sin(2.0 * np.pi * x),
}


# ------------------------------------------------------------------ kernels

def kernel_fn(spec: str):
    """h(u, v) for a CLI kernel spec, broadcasting."""
    head, _, tail = spec.partition(":")
    if head == "power":
        gamma = float(tail)
        return lambda u, v: np.abs(u - v) ** gamma
    if head == "exp":
        beta = float(tail)
        return lambda u, v: 1.0 - np.exp(-beta * np.abs(u - v))
    if head == "expsq":
        return lambda u, v: (np.exp(u) - np.exp(v)) ** 2
    raise ValueError(f"no reference for kernel {spec!r}")


def c_h(spec: str) -> float:
    """Closed-form integral of h over the unit square."""
    head, _, tail = spec.partition(":")
    if head == "power":
        gamma = float(tail)
        return 2.0 / ((gamma + 1.0) * (gamma + 2.0))
    if head == "exp":
        b = float(tail)
        return 1.0 - 2.0 / b + 2.0 / b**2 - 2.0 * math.exp(-b) / b**2
    if head == "expsq":
        # 2 * int e^{2u} - 2 * (int e^u)^2
        return (math.e**2 - 1.0) - 2.0 * (math.e - 1.0) ** 2
    raise ValueError(f"no reference C_h for kernel {spec!r}")


def sigma2_closed_form(gamma: float) -> float:
    """Null variance of the rank coefficient with |u-v|^gamma, continuous y."""
    g = gamma
    ratio = math.gamma(g + 2.0) ** 2 / math.gamma(2.0 * g + 4.0)
    return 1.0 + (g + 2.0) ** 2 * ((g + 1.0) / (4.0 * (2.0 * g + 1.0)) - 1.0 / (2.0 * g + 3.0) - ratio)


# --------------------------------------------------------------- F and ranks

def normal_cdf(t) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.asarray(t, float)])


def mapped(ys, f_spec: str) -> np.ndarray:
    """F(y) for the F specs the workloads use."""
    ys = np.asarray(ys, float)
    if f_spec == "std-normal":
        return normal_cdf(ys)
    if f_spec == "fit-normal":
        mu = math.fsum(ys) / ys.size
        sd = math.sqrt(math.fsum((ys - mu) ** 2) / (ys.size - 1))
        return normal_cdf((ys - mu) / sd)
    if f_spec == "empirical":
        return max_ranks(ys) / ys.size
    raise ValueError(f"no reference for F spec {f_spec!r}")


def max_ranks(ys) -> np.ndarray:
    """R_i = #{j : y_j <= y_i}."""
    _, inverse, counts = np.unique(ys, return_inverse=True, return_counts=True)
    return np.cumsum(counts)[inverse].astype(float)


def average_ranks(v) -> np.ndarray:
    """Mid-ranks: ties share the mean of the positions they occupy."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    return (upper - (counts - 1) / 2.0)[inverse]


def x_order(xs, tie_seed: int) -> np.ndarray:
    """The documented tie rule: sort by (x, uniform key from tie_seed)."""
    keys = np.random.default_rng(tie_seed).random(len(xs))
    return np.lexsort((keys, xs))


# -------------------------------------------------------------- coefficients

def chi(u, spec: str) -> float:
    """Mean of h over all n^2 ordered pairs, from the full matrix."""
    return float(kernel_fn(spec)(u[:, None], u[None, :]).mean())


def zeta(u_ordered, spec: str) -> float:
    return float(np.sum(kernel_fn(spec)(u_ordered[:-1], u_ordered[1:]))) / u_ordered.size


def coefficient(xs, ys, variant: str, spec: str | None, f_spec: str | None, tie_seed: int) -> float:
    """xi for every variant the workloads use (plus the two baselines)."""
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    n = ys.size
    if variant == "pearson":
        return pearson(xs, ys)
    if variant == "spearman":
        return pearson(average_ranks(xs), average_ranks(ys))
    order = x_order(xs, tie_seed)
    if variant == "chatterjee":
        gaps = np.abs(np.diff(max_ranks(ys)[order]))
        return 1.0 - 3.0 * float(np.sum(gaps)) / (n * n - 1.0)
    if variant == "simplified":
        return 1.0 - zeta(max_ranks(ys)[order] / n, spec) / c_h(spec)
    u = max_ranks(ys) / n if variant == "rank" else mapped(ys, f_spec)
    c = chi(u, spec)
    return 1.0 if c == 0.0 else 1.0 - zeta(u[order], spec) / c


def pearson(xs, ys) -> float:
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    return float(np.sum(xc * yc)) / math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))


def sigma2_ustat(u, spec: str) -> float:
    """(q - 2r + m^2) / m^2 from the full matrix with its diagonal zeroed."""
    n = u.size
    h = kernel_fn(spec)(u[:, None], u[None, :])
    np.fill_diagonal(h, 0.0)
    s = h.sum(axis=1)
    q_rows = (h * h).sum(axis=1)
    pairs = n * (n - 1.0)
    m = s.sum() / pairs
    q = q_rows.sum() / pairs
    r = (s * s - q_rows).sum() / (pairs * (n - 2.0))
    return float((q - 2.0 * r + m * m) / (m * m))


def independence_test(xs, ys, variant, spec, f_spec, tie_seed, continuous_y):
    """(z, sigma2, p_one_sided) as the test defines them."""
    n = len(ys)
    xi = coefficient(xs, ys, variant, spec, f_spec, tie_seed)
    if variant != "plugin" and spec.startswith("power:") and continuous_y:
        s2 = sigma2_closed_form(float(spec.partition(":")[2]))
    else:
        s2 = sigma2_ustat(mapped(ys, "empirical" if variant != "plugin" else f_spec), spec)
    z = math.sqrt(n) * xi / math.sqrt(s2)
    return z, s2, 0.5 * math.erfc(z / math.sqrt(2.0))


# ----------------------------------------------------------------- the model

def rep_seed(base_seed: int, rep_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, rep_index)).generate_state(1, np.uint64)[0])


def generate(model: str, sigma, n: int, seed: int):
    """The simulation recipe: x ~ U[-1,1], then e ~ N(0,1), y = f(x) + sigma e."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, n)
    noise = rng.standard_normal(n)
    ys = noise if sigma == "inf" else MODEL_FUNCS[model](xs) + sigma * noise
    return xs, ys


# ------------------------------------------------------------- assumptions

def is_constant(ys) -> bool:
    return bool(np.all(ys == ys[0]))


def has_ties(ys) -> bool:
    return np.unique(ys).size < len(ys)

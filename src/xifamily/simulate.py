"""Synthetic models, the replication harness, and the Monte Carlo limit oracle.

Three generative models on x ~ Unif[-1, 1] with Gaussian noise e ~ N(0, 1):

    linear:      y = x + sigma * e
    quadratic:   y = x^2 + sigma * e
    sinusoidal:  y = sin(2 pi x) + sigma * e

sigma = 0 is exact functional dependence; the special token ``SIGMA_INF``
("inf") means y = e is pure noise, independent of x. The token is a string
rather than float infinity so that f(x) + sigma * e never produces NaN.

``replicate`` runs seeded independent repetitions of any estimator config
and summarizes mean and standard deviation; per-repetition seeds derive
from (base_seed, rep_index) through a counter-split seed sequence, so
results never depend on execution order or worker count.

``population_oracle`` estimates the large-sample limit of the coefficient
by direct Monte Carlo of its defining integrals: the variation term draws
y, z from the conditional law given one shared x, and the normalization
term from the marginal law via fresh x per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cdf import DistMap, resolve_dist_spec
from .errors import DegenerateDataError, XiFamilyError
from .estimator import VARIANTS, PairedSample, coefficient, pearson, spearman
from .kernels import Kernel, parse_kernel_spec

__all__ = [
    "SIGMA_INF",
    "ModelSpec",
    "MethodConfig",
    "RepSummary",
    "PopulationLimit",
    "parse_method_spec",
    "parse_sigma",
    "generate",
    "rep_seed",
    "iter_replicates",
    "replicate",
    "population_oracle",
    "format_cell",
]

#: Pure-noise token: y = e, independent of x.
SIGMA_INF = "inf"

#: Baselines the harness runs beside the family members in ``VARIANTS``.
_BASELINES = ("pearson", "spearman")
_METHODS = VARIANTS + _BASELINES

_MODEL_FUNCS = {
    "linear": lambda x: x,
    "quadratic": np.square,
    "sinusoidal": lambda x: np.sin(2.0 * np.pi * x),
}


def parse_sigma(text) -> float | str:
    """Noise level from user input: a nonnegative float or the 'inf' token."""
    if isinstance(text, str) and text.strip() in ("inf", "infinity"):
        return SIGMA_INF
    sigma = float(text)
    if not math.isfinite(sigma) or sigma < 0.0:
        raise ValueError(f"sigma must be >= 0 or 'inf', got {text!r}")
    return sigma


@dataclass(frozen=True)
class ModelSpec:
    """One synthetic-data configuration, fully determined by its seed."""

    model: str
    sigma: float | str
    n: int
    seed: int

    def __post_init__(self):
        if self.model not in _MODEL_FUNCS:
            raise ValueError(f"unknown model {self.model!r}; expected {sorted(_MODEL_FUNCS)}")
        if self.sigma != SIGMA_INF:
            object.__setattr__(self, "sigma", parse_sigma(self.sigma))
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")


@dataclass(frozen=True)
class RepSummary:
    """Mean and spread of a coefficient over independent repetitions."""

    mean: float
    sd: float | None
    reps: int
    per_rep: tuple | None = None


@dataclass(frozen=True)
class PopulationLimit:
    """Monte Carlo estimate of the coefficient's large-sample limit."""

    zeta_hat: float
    chi_hat: float
    xi_hat: float
    mc_std_err: float
    draws: int


@dataclass(frozen=True)
class MethodConfig:
    """An estimator configuration the harness can run per repetition."""

    variant: str
    kernel: Kernel | None = None
    dist_spec: str | None = None

    def evaluate(self, sample: PairedSample, tie_seed: int) -> float:
        if self.variant == "pearson":
            return pearson(sample)
        if self.variant == "spearman":
            return spearman(sample)
        dist = None if self.dist_spec is None else resolve_dist_spec(self.dist_spec, sample.ys)
        return coefficient(sample, self.variant, self.kernel, dist, tie_seed).xi

    def row_label(self) -> tuple[str, str]:
        """(method, kernel) pair used as the table row identity."""
        kernel = self.kernel.label() if self.kernel is not None else ""
        if self.variant == "plugin":
            return f"plugin[F={self.dist_spec}]", kernel
        if self.variant == "chatterjee":
            return "chatterjee", "power:1"
        return self.variant, kernel


def parse_method_spec(spec: str) -> MethodConfig:
    """Parse ``VARIANT[,KERNEL[,F]]``, e.g. ``plugin,power:2,std-normal``."""
    parts = [p.strip() for p in spec.split(",")]
    variant = parts[0]
    if variant not in _METHODS:
        raise ValueError(
            f"unknown method {variant!r}; expected {', '.join(_METHODS[:-1])} or {_METHODS[-1]}"
        )
    if variant == "chatterjee" or variant in _BASELINES:
        if len(parts) > 1:
            raise ValueError(f"{variant} takes no kernel or F spec")
        return MethodConfig(variant=variant)
    if variant == "plugin":
        if len(parts) != 3:
            raise ValueError("plugin needs kernel and F specs, e.g. plugin,power:1,std-normal")
        return MethodConfig(
            variant="plugin", kernel=parse_kernel_spec(parts[1]), dist_spec=parts[2]
        )
    if len(parts) != 2:
        raise ValueError(f"{variant} needs a kernel spec, e.g. {variant},power:1")
    return MethodConfig(variant=variant, kernel=parse_kernel_spec(parts[1]))


def generate(spec: ModelSpec) -> PairedSample:
    """Draw one sample from the model; bit-reproducible from spec.seed."""
    rng = np.random.default_rng(spec.seed)
    xs = rng.uniform(-1.0, 1.0, spec.n)
    noise = rng.standard_normal(spec.n)
    if spec.sigma == SIGMA_INF:
        ys = noise
    else:
        ys = _MODEL_FUNCS[spec.model](xs) + spec.sigma * noise
    return PairedSample(xs=xs, ys=ys)


def rep_seed(base_seed: int, rep_index: int) -> int:
    """Independent per-repetition seed from a counter-based split."""
    seq = np.random.SeedSequence((base_seed, rep_index))
    return int(seq.generate_state(1, np.uint64)[0])


def iter_replicates(model: str, sigma, n: int, reps: int, base_seed: int):
    """Yield (rep_index, seed, sample) for each repetition."""
    for i in range(reps):
        seed = rep_seed(base_seed, i)
        yield i, seed, generate(ModelSpec(model=model, sigma=sigma, n=n, seed=seed))


def replicate(
    spec: ModelSpec,
    method: MethodConfig,
    reps: int,
    base_seed: int,
    keep_per_rep: bool = False,
) -> RepSummary:
    """Mean and sd of the coefficient over seeded independent repetitions.

    spec.seed is ignored; per-rep seeds come from (base_seed, rep_index),
    and the rep's seed doubles as its tie-break seed. Identical output for
    any parallel execution plan, since repetitions share no state. It is the
    one-method case of the cell pass that draws each repetition once.
    """
    return _replicate_cell(spec, [method], reps, base_seed, keep_per_rep)[0]


def _replicate_cell(spec, methods, reps, base_seed, keep_per_rep, dump=None) -> list:
    """One ``RepSummary`` per method, from one draw of each repetition.

    ``dump(rep_index, sample)``, when given, sees each sample before any method.
    """
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    values = np.empty((len(methods), reps))
    for i, seed, sample in iter_replicates(spec.model, spec.sigma, spec.n, reps, base_seed):
        if dump is not None:
            dump(i, sample)
        for k, method in enumerate(methods):
            try:
                values[k, i] = method.evaluate(sample, tie_seed=seed)
            except XiFamilyError as exc:
                error = exc.__class__(f"repetition {i} (seed {seed}): {exc}")
                error.__dict__.update(exc.__dict__)  # QuadratureError's last_estimate
                raise error from exc
    return [
        RepSummary(
            mean=float(np.mean(row)),
            sd=float(np.std(row, ddof=1)) if reps >= 2 else None,
            reps=reps,
            per_rep=tuple(row.tolist()) if keep_per_rep else None,
        )
        for row in values
    ]


def population_oracle(
    model: str,
    sigma,
    kernel: Kernel,
    dist: DistMap,
    draws: int = 1_000_000,
    seed: int = 0,
    batches: int = 50,
) -> PopulationLimit:
    """Monte Carlo estimate of the coefficient's population limit.

    The variation integral averages h(F(y), F(z)) with y, z drawn iid from
    the conditional law N(f(x), sigma^2) for a shared x ~ Unif[-1, 1]; the
    normalization integral draws its two coordinates from the marginal law
    via independent fresh x's (doubling the x draws but decorrelating the
    two estimates). The standard error of xi comes from batch means.
    """
    if draws < 10_000:
        raise ValueError(f"need draws >= 10000, got {draws}")
    if batches < 30:
        raise ValueError(f"need at least 30 batches, got {batches}")
    sigma = parse_sigma(sigma)
    if model not in _MODEL_FUNCS:
        raise ValueError(f"unknown model {model!r}")
    usable = draws - draws % batches
    rng = np.random.default_rng(seed)

    def conditional_pair(count):
        if sigma == SIGMA_INF:
            return rng.standard_normal(count), rng.standard_normal(count)
        center = _MODEL_FUNCS[model](rng.uniform(-1.0, 1.0, count))
        return (
            center + sigma * rng.standard_normal(count),
            center + sigma * rng.standard_normal(count),
        )

    def marginal(count):
        if sigma == SIGMA_INF:
            return rng.standard_normal(count)
        center = _MODEL_FUNCS[model](rng.uniform(-1.0, 1.0, count))
        return center + sigma * rng.standard_normal(count)

    y, z = conditional_pair(usable)
    variation_terms = np.asarray(kernel.eval(dist.eval(y), dist.eval(z)), dtype=float)
    normalization_terms = np.asarray(
        kernel.eval(dist.eval(marginal(usable)), dist.eval(marginal(usable))), dtype=float
    )

    zeta_batch = variation_terms.reshape(batches, -1).mean(axis=1)
    chi_batch = normalization_terms.reshape(batches, -1).mean(axis=1)
    zeta_hat = float(zeta_batch.mean())
    chi_hat = float(chi_batch.mean())
    chi_std_err = float(np.std(chi_batch, ddof=1)) / math.sqrt(batches)
    if chi_hat < 10.0 * chi_std_err:
        raise DegenerateDataError(
            f"normalization indistinguishable from 0 (chi_hat={chi_hat:g}, "
            f"se={chi_std_err:g})"
        )
    xi_batch = 1.0 - zeta_batch / chi_batch
    return PopulationLimit(
        zeta_hat=zeta_hat,
        chi_hat=chi_hat,
        xi_hat=1.0 - zeta_hat / chi_hat,
        mc_std_err=float(np.std(xi_batch, ddof=1)) / math.sqrt(batches),
        draws=usable,
    )


def format_cell(summary: RepSummary) -> str:
    """Table cell text: mean with the 100-scaled sd in parentheses."""
    if summary.sd is None:
        return f"{summary.mean:.3f}"
    return f"{summary.mean:.3f} ({100.0 * summary.sd:.2f})"

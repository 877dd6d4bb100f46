"""Kernel-generalized rank correlation coefficients.

A family of dependence measures built from a bivariate variation kernel h
on [0,1]^2 and a monotone map F of the response, covering the plugin,
rank-based and simplified coefficients, Chatterjee's rank correlation as a
special case, null-variance machinery for independence testing, and a
seeded simulation harness.
"""

from .cdf import (
    DistMap,
    empirical_map,
    fit_normal_map,
    normal_map,
    resolve_dist_spec,
    std_normal_cdf,
    std_normal_map,
    uniform_map,
)
from .errors import DegenerateDataError, NumericError, QuadratureError, XiFamilyError
from .estimator import (
    VARIANTS,
    CoefficientResult,
    PairedSample,
    chatterjee_reference,
    coefficient,
    order_by_x,
    pearson,
    ranks,
    spearman,
    xi_plugin,
    xi_rank,
    xi_simplified,
)
from .inference import (
    TestResult,
    VarianceEstimate,
    independence_test,
    sigma2_power_closed_form,
    sigma2_ustat,
)
from .kernels import (
    Kernel,
    custom_kernel,
    integrate_unit_square,
    make_kernel,
    normalization_constant,
    parse_kernel_spec,
)
from .simulate import (
    SIGMA_INF,
    MethodConfig,
    ModelSpec,
    PopulationLimit,
    RepSummary,
    format_cell,
    generate,
    parse_method_spec,
    parse_sigma,
    population_oracle,
    rep_seed,
    replicate,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientResult",
    "DegenerateDataError",
    "DistMap",
    "Kernel",
    "MethodConfig",
    "ModelSpec",
    "NumericError",
    "PairedSample",
    "PopulationLimit",
    "QuadratureError",
    "RepSummary",
    "SIGMA_INF",
    "VARIANTS",
    "TestResult",
    "VarianceEstimate",
    "XiFamilyError",
    "chatterjee_reference",
    "coefficient",
    "custom_kernel",
    "empirical_map",
    "fit_normal_map",
    "format_cell",
    "generate",
    "independence_test",
    "integrate_unit_square",
    "make_kernel",
    "normal_map",
    "normalization_constant",
    "order_by_x",
    "parse_kernel_spec",
    "parse_method_spec",
    "parse_sigma",
    "pearson",
    "population_oracle",
    "ranks",
    "rep_seed",
    "replicate",
    "resolve_dist_spec",
    "sigma2_power_closed_form",
    "sigma2_ustat",
    "spearman",
    "std_normal_cdf",
    "std_normal_map",
    "uniform_map",
    "xi_plugin",
    "xi_rank",
    "xi_simplified",
]

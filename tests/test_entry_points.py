"""Every entry point computes a variant through the same dispatch.

The CLI, the simulation harness (``MethodConfig.evaluate``), the dispatch
``coefficient`` and the direct ``xi_*`` call must give bit-identical xi,
refuse the same inputs with the same error, and reject the same unknown
variant names.
"""

import csv
import importlib

import numpy as np
import pytest

import xifamily
from xifamily.cdf import resolve_dist_spec
from xifamily.cli import main
from xifamily.errors import DegenerateDataError
from xifamily.estimator import (
    VARIANTS,
    PairedSample,
    chatterjee_reference,
    coefficient,
    xi_plugin,
    xi_rank,
    xi_simplified,
)
from xifamily.inference import independence_test
from xifamily.kernels import parse_kernel_spec
from xifamily.simulate import MethodConfig, parse_method_spec

KERNELS = ["power:1", "power:3", "exp:1", "expsq"]
F_SPEC = "std-normal"
TIE_SEED = 11


def make_sample(tied_x):
    rng = np.random.default_rng(3)
    xs = rng.integers(0, 5, 40).astype(float) if tied_x else rng.uniform(-1.0, 1.0, 40)
    return PairedSample(xs=xs, ys=xs**2 + rng.normal(0.0, 0.5, 40))


def write_sample(path, sample):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        writer.writerows([repr(float(x)), repr(float(y))] for x, y in zip(sample.xs, sample.ys))
    return str(path)


def method_spec(variant, spec):
    if variant == "plugin":
        return f"plugin,{spec},{F_SPEC}"
    if variant == "chatterjee":
        return "chatterjee"
    return f"{variant},{spec}"


def direct(sample, variant, kernel, dist):
    if variant == "plugin":
        return xi_plugin(sample, kernel, dist, TIE_SEED).xi
    if variant == "rank":
        return xi_rank(sample, kernel, TIE_SEED).xi
    if variant == "simplified":
        return xi_simplified(sample, kernel, TIE_SEED).xi
    return chatterjee_reference(sample, TIE_SEED).xi


def compute_argv(path, variant, spec):
    return [
        "compute", "--file", path, "--x-col", "x", "--y-col", "y",
        "--variant", variant, "--h", spec, "--f", F_SPEC, "--seed", str(TIE_SEED),
    ]


@pytest.mark.parametrize("tied_x", [False, True], ids=["continuous", "tied-x"])
@pytest.mark.parametrize("spec", KERNELS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_entry_points_agree(tmp_path, capsys, variant, spec, tied_x):
    sample = make_sample(tied_x)
    kernel = parse_kernel_spec(spec)
    dist = resolve_dist_spec(F_SPEC, sample.ys) if variant == "plugin" else None
    calls = {
        "direct": lambda: direct(sample, variant, kernel, dist),
        "coefficient": lambda: coefficient(sample, variant, kernel, dist, TIE_SEED).xi,
        "harness": lambda: parse_method_spec(method_spec(variant, spec)).evaluate(
            sample, TIE_SEED
        ),
    }
    argv = compute_argv(write_sample(tmp_path / "d.csv", sample), variant, spec)

    if variant == "chatterjee" and tied_x:
        for name, call in calls.items():
            with pytest.raises(DegenerateDataError, match="tied X"):
                call()
        assert main(argv) == 3
        assert "tied X" in capsys.readouterr().err
        return

    values = {name: call() for name, call in calls.items()}
    assert main(argv) == 0
    out = capsys.readouterr().out
    values["cli"] = float(out.splitlines()[0].partition("=")[2])
    assert len({v.hex() for v in values.values()}) == 1, values


def test_unknown_variant_rejected_everywhere(tmp_path, capsys):
    sample = make_sample(tied_x=False)
    kernel = parse_kernel_spec("power:1")
    with pytest.raises(ValueError, match="unknown variant 'kendall'"):
        coefficient(sample, "kendall", kernel)
    with pytest.raises(
        ValueError,
        match="unknown method 'kendall'; expected plugin, rank, simplified, chatterjee, "
        "pearson or spearman$",
    ):
        parse_method_spec("kendall,power:1")
    with pytest.raises(ValueError, match="unknown variant 'kendall'"):
        independence_test(sample, kernel, variant="kendall")
    argv = compute_argv(write_sample(tmp_path / "d.csv", sample), "kendall", "power:1")
    assert main(argv) == 2
    assert "invalid choice: 'kendall'" in capsys.readouterr().err


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "chatterjee"])
def test_missing_kernel_rejected_everywhere(variant):
    # the CLI always has a kernel: --h defaults to power:1
    sample = make_sample(tied_x=False)
    dist = resolve_dist_spec(F_SPEC, sample.ys)
    message = f"{variant} variant requires a kernel"
    with pytest.raises(ValueError, match=message):
        coefficient(sample, variant, None, dist)
    with pytest.raises(ValueError, match=message):
        MethodConfig(variant, dist_spec=F_SPEC if variant == "plugin" else None).evaluate(
            sample, TIE_SEED
        )
    with pytest.raises(ValueError, match=message):
        independence_test(sample, None, variant=variant, dist=dist)


#: the package's public names; one added to a module's ``__all__`` is added here
PUBLIC_NAMES = [
    "CoefficientResult", "DegenerateDataError", "DistMap", "Kernel", "MethodConfig",
    "ModelSpec", "NumericError", "PairedSample", "PopulationLimit", "QuadratureError",
    "RepSummary", "SIGMA_INF", "TestResult", "VARIANTS", "VarianceEstimate",
    "XiFamilyError", "chatterjee_reference", "coefficient", "custom_kernel",
    "empirical_map", "fit_normal_map", "format_cell", "generate", "independence_test",
    "integrate_unit_square", "make_kernel", "normal_map", "normalization_constant",
    "order_by_x", "parse_kernel_spec", "parse_method_spec", "parse_sigma", "pearson",
    "population_oracle", "ranks", "rep_seed", "replicate", "resolve_dist_spec",
    "sigma2_power_closed_form", "sigma2_ustat", "spearman", "std_normal_cdf",
    "std_normal_map", "uniform_map", "xi_plugin", "xi_rank", "xi_simplified",
]


def test_public_names_are_the_modules_own_objects():
    assert sorted(xifamily.__all__) == PUBLIC_NAMES
    modules = ["cdf", "errors", "estimator", "inference", "kernels", "simulate"]
    owner = {}
    for name in modules:
        module = importlib.import_module(f"xifamily.{name}")
        for public in module.__all__:
            assert public not in owner, (public, owner.get(public), name)
            owner[public] = module
    assert sorted(owner) == PUBLIC_NAMES
    for name, module in owner.items():
        value = getattr(xifamily, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name

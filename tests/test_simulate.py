import numpy as np
import pytest

from xifamily import simulate
from xifamily.cdf import std_normal_map
from xifamily.errors import DegenerateDataError, QuadratureError
from xifamily.estimator import pearson
from xifamily.kernels import custom_kernel, make_kernel
from xifamily.simulate import (
    SIGMA_INF,
    MethodConfig,
    ModelSpec,
    RepSummary,
    format_cell,
    generate,
    parse_method_spec,
    parse_sigma,
    population_oracle,
    rep_seed,
    replicate,
)

POWER1 = make_kernel("power", gamma=1.0)


# ----------------------------------------------------------------- parsing

def test_parse_sigma_tokens():
    assert parse_sigma("inf") == SIGMA_INF
    assert parse_sigma("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_sigma("-1")
    with pytest.raises(ValueError):
        parse_sigma("nan")


def test_model_spec_validation():
    with pytest.raises(ValueError, match="model"):
        ModelSpec(model="cubic", sigma=0.0, n=10, seed=0)
    with pytest.raises(ValueError, match="n >= 2"):
        ModelSpec(model="linear", sigma=0.0, n=1, seed=0)


def test_parse_method_spec():
    cfg = parse_method_spec("plugin,power:2,std-normal")
    assert cfg.variant == "plugin"
    assert cfg.kernel.params == {"gamma": 2.0}
    assert cfg.dist_spec == "std-normal"
    assert parse_method_spec("simplified,power:1").variant == "simplified"
    assert parse_method_spec("pearson").variant == "pearson"
    assert parse_method_spec("plugin,power:1,uniform:-3,3").dist_spec == "uniform:-3,3"
    with pytest.raises(ValueError):
        parse_method_spec("plugin,power:1")
    with pytest.raises(ValueError):
        parse_method_spec("pearson,power:1")
    with pytest.raises(ValueError):
        parse_method_spec("ridge")


# -------------------------------------------------------------- generation

def test_noise_free_quadratic_is_exact():
    s = generate(ModelSpec(model="quadratic", sigma=0.0, n=64, seed=5))
    assert np.array_equal(s.ys, s.xs**2)


def test_generation_is_bit_reproducible():
    spec = ModelSpec(model="sinusoidal", sigma=0.3, n=128, seed=9)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ys, b.ys)


def test_pure_noise_is_independent():
    s = generate(ModelSpec(model="linear", sigma=SIGMA_INF, n=10_000, seed=11))
    assert abs(pearson(s)) <= 0.03


def test_rep_seeds_are_distinct_and_stable():
    seeds = [rep_seed(42, i) for i in range(200)]
    assert len(set(seeds)) == 200
    assert seeds == [rep_seed(42, i) for i in range(200)]


# -------------------------------------------------------------- replication

def test_replicate_is_deterministic():
    spec = ModelSpec(model="quadratic", sigma=0.1, n=100, seed=0)
    method = MethodConfig(variant="simplified", kernel=POWER1)
    a = replicate(spec, method, reps=20, base_seed=3, keep_per_rep=True)
    b = replicate(spec, method, reps=20, base_seed=3, keep_per_rep=True)
    assert a == b
    assert len(a.per_rep) == 20


def test_replicate_smoke_linear():
    spec = ModelSpec(model="linear", sigma=0.7, n=50, seed=0)
    summary = replicate(spec, MethodConfig(variant="simplified", kernel=POWER1), 2, 0)
    assert summary.reps == 2
    for value in (summary.mean - summary.sd, summary.mean + summary.sd):
        assert np.isfinite(value)
    assert -1.0 <= summary.mean <= 1.0


def test_replicate_noise_free_quadratic_plugin():
    # near-perfect dependence: mean 1.000 within 0.002 at n=500
    spec = ModelSpec(model="quadratic", sigma=0.0, n=500, seed=0)
    method = parse_method_spec("plugin,power:2,std-normal")
    summary = replicate(spec, method, reps=100, base_seed=7)
    assert summary.mean == pytest.approx(1.0, abs=0.002)


def test_replicate_attaches_rep_index_on_failure():
    spec = ModelSpec(model="quadratic", sigma=0.0, n=10, seed=0)
    method = MethodConfig(variant="chatterjee")
    # quadratic noise-free data has distinct x, so force a failure through
    # a method that rejects constant y instead
    degenerate = ModelSpec(model="linear", sigma=0.0, n=10, seed=0)

    class ConstantYMethod(MethodConfig):
        def evaluate(self, sample, tie_seed):
            raise DegenerateDataError("boom")

    with pytest.raises(DegenerateDataError, match="repetition 0"):
        replicate(degenerate, ConstantYMethod(variant="chatterjee"), 3, 0)
    # sanity: the normal path still works
    assert np.isfinite(replicate(spec, method, 2, 0).mean)


def test_replicate_keeps_the_quadrature_estimate_on_failure():
    # |u - v|^0.02 is nearly a step: its C_h quadrature does not converge
    cusp = custom_kernel("cusp", lambda u, v: np.abs(u - v) ** 0.02)
    spec = ModelSpec(model="linear", sigma=0.1, n=20, seed=0)
    with pytest.raises(QuadratureError, match="repetition 0") as wrapped:
        replicate(spec, MethodConfig(variant="simplified", kernel=cusp), 2, 0)
    cause = wrapped.value.__cause__
    assert isinstance(cause, QuadratureError)
    assert wrapped.value.last_estimate == cause.last_estimate is not None


#: the eight methods of a Table 2 cell in the benchmark's ``table`` workload
TABLE_METHODS = [
    "simplified,power:1", "simplified,power:2", "simplified,power:3",
    "simplified,expsq", "simplified,exp:1", "chatterjee", "pearson", "spearman",
]


@pytest.mark.parametrize("model", ["linear", "quadratic", "sinusoidal"])
def test_cell_pass_equals_one_replicate_per_method(model, monkeypatch):
    # every method of a cell reads the same drawn arrays; read-only arrays
    # make a method that writes into them raise
    def read_only(spec):
        sample = generate(spec)
        sample.xs.flags.writeable = False
        sample.ys.flags.writeable = False
        return sample

    monkeypatch.setattr(simulate, "generate", read_only)
    methods = [parse_method_spec(m) for m in TABLE_METHODS]
    for sigma in (0.0, 0.1, 0.5, SIGMA_INF):
        for n in (2, 50, 4096):
            spec = ModelSpec(model=model, sigma=sigma, n=n, seed=0)
            cell = simulate._replicate_cell(spec, methods, 3, 11, keep_per_rep=True)
            one_by_one = [replicate(spec, m, 3, 11, keep_per_rep=True) for m in methods]
            # repr tells every float bit apart, -0.0 from 0.0 too
            assert repr(cell) == repr(one_by_one), (sigma, n)


def test_replicate_rejects_zero_reps():
    spec = ModelSpec(model="linear", sigma=0.1, n=20, seed=0)
    with pytest.raises(ValueError):
        replicate(spec, MethodConfig(variant="pearson"), 0, 0)


@pytest.mark.parametrize("model", ["quadratic", "sinusoidal"])
@pytest.mark.parametrize("method_spec", ["simplified,power:1", "simplified,power:3", "pearson"])
def test_sd_shrinks_with_n(model, method_spec):
    method = parse_method_spec(method_spec)
    sds = {}
    for n in (100, 2000):
        spec = ModelSpec(model=model, sigma=0.1, n=n, seed=0)
        sds[n] = replicate(spec, method, reps=50, base_seed=1).sd
    assert sds[2000] < sds[100]


# ------------------------------------------------------------------ oracle

def test_oracle_noise_free_is_exactly_one():
    limit = population_oracle("quadratic", 0.0, POWER1, std_normal_map(), 50_000, seed=0)
    assert limit.zeta_hat == 0.0
    assert limit.xi_hat == 1.0
    assert limit.mc_std_err == 0.0


def test_oracle_pure_noise_is_zero():
    limit = population_oracle("linear", SIGMA_INF, POWER1, std_normal_map(), 400_000, seed=1)
    assert abs(limit.xi_hat) <= 3.0 * limit.mc_std_err


def test_oracle_matches_reported_quadratic_value():
    # Model 2, sigma=0.5, |y-z| kernel, F = standard normal CDF: the
    # large-sample limit sits near 0.143
    limit = population_oracle("quadratic", 0.5, POWER1, std_normal_map(), 400_000, seed=2)
    assert limit.xi_hat == pytest.approx(0.143, abs=0.01)


def test_oracle_rejects_small_draw_budget():
    with pytest.raises(ValueError, match="draws"):
        population_oracle("linear", 0.1, POWER1, std_normal_map(), 500)


# ------------------------------------------------------------------ cells

def test_format_cell():
    assert format_cell(RepSummary(mean=0.8931, sd=0.0057, reps=100)) == "0.893 (0.57)"
    assert format_cell(RepSummary(mean=0.5, sd=None, reps=1)) == "0.500"

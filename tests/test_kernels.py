import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xifamily import estimator, kernels
from xifamily.errors import QuadratureError
from xifamily.estimator import PairedSample, xi_simplified
from xifamily.inference import independence_test
from xifamily.kernels import (
    custom_kernel,
    integrate_unit_square,
    make_kernel,
    normalization_constant,
    parse_kernel_spec,
)

BUILTINS = [
    make_kernel("power", gamma=1.0),
    make_kernel("power", gamma=2.0),
    make_kernel("power", gamma=3.0),
    make_kernel("exp", beta=0.5),
    make_kernel("exp", beta=1.0),
    make_kernel("exp", beta=2.0),
    make_kernel("expsq"),
]


def test_power_pointwise():
    k = make_kernel("power", gamma=1.0)
    assert k.eval(0.2, 0.8) == pytest.approx(0.6, abs=1e-15)


def test_expsq_zero_diagonal():
    k = make_kernel("expsq")
    for x in np.linspace(0.0, 1.0, 101):
        assert k.eval(x, x) == 0.0


def test_exp_pointwise_high_precision():
    # 1 - exp(-1), frozen from math.expm1
    k = make_kernel("exp", beta=1.0)
    assert k.eval(0.0, 1.0) == pytest.approx(0.6321205588285577, abs=1e-15)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_power_rejects_bad_gamma(bad):
    with pytest.raises(ValueError):
        make_kernel("power", gamma=bad)


@pytest.mark.parametrize("bad", [0.0, -0.5, float("nan")])
def test_exp_rejects_bad_beta(bad):
    with pytest.raises(ValueError):
        make_kernel("exp", beta=bad)


@pytest.mark.parametrize("name, symbol", [("power", "gamma"), ("exp", "beta")])
def test_missing_parameter_is_a_value_error(name, symbol):
    with pytest.raises(ValueError, match=f"^{symbol} is required$"):
        make_kernel(name)


@pytest.mark.parametrize("kernel", BUILTINS, ids=lambda k: k.label())
def test_grid_invariants(kernel):
    grid = np.linspace(0.0, 1.0, 101)
    values = kernel.eval(grid[:, None], grid[None, :])
    assert np.all(values >= 0.0)
    assert np.max(np.abs(np.diagonal(values))) == 0.0
    assert np.array_equal(values, values.T)


def test_evaluation_is_pure():
    k = make_kernel("power", gamma=1.7)
    pts = np.random.default_rng(3).random((2, 50))
    first = k.eval(pts[0], pts[1])
    second = k.eval(pts[0], pts[1])
    assert np.array_equal(first, second)


def test_power_lipschitz_probe():
    # |h(y1,z1) - h(y2,z2)| <= gamma * (|y1-y2| + |z1-z2|) for gamma >= 1
    rng = np.random.default_rng(11)
    for gamma in (1.0, 1.5, 2.0, 3.0):
        k = make_kernel("power", gamma=gamma)
        y1, z1, y2, z2 = rng.random((4, 500))
        lhs = np.abs(k.eval(y1, z1) - k.eval(y2, z2))
        rhs = gamma * (np.abs(y1 - y2) + np.abs(z1 - z2))
        assert np.all(lhs <= rhs + 1e-12)


def test_power_closed_form_Ch():
    assert normalization_constant(make_kernel("power", gamma=1.0)) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )


def test_exp_closed_form_Ch():
    assert normalization_constant(make_kernel("exp", beta=1.0)) == pytest.approx(
        1.0 - 2.0 / math.e, abs=1e-15
    )


def exp_ch_decimal(beta: float) -> Decimal:
    """C_h of exp:beta in 60 digits: the series below 1, the closed form above."""
    with localcontext() as ctx:
        ctx.prec = 60
        b = Decimal(beta)
        if beta >= 1.0:
            return 1 - 2 / b + 2 / (b * b) - 2 * (-b).exp() / (b * b)
        total, k, term = Decimal(0), 1, b / 6  # 2 sum (-1)^(k+1) b^k / (k+2)!
        while term > b * Decimal("1e-70"):
            total += term if k % 2 else -term
            k += 1
            term *= b / (k + 2)
        return 2 * total


def test_exp_ch_within_two_ulps_at_every_scale():
    # the closed form alone cancels below beta ~ 1, reads 0 at 1e-6 and
    # divides by zero or overflows in beta**2 at the ends of the range
    for beta in (1e-300, 1e-8, 1e-3, 0.05, 0.2, 1.0, 200.0, 1e300):
        want = exp_ch_decimal(beta)
        got = make_kernel("exp", beta=beta).closed_form_ch
        assert abs(Decimal(got) - want) <= 2 * Decimal(math.ulp(float(want))), beta
        if 1.0 <= beta <= 200.0:  # the closed form keeps its bits
            assert got == 1.0 - 2.0 / beta + 2.0 / beta**2 - 2.0 * math.exp(-beta) / beta**2


def test_exp_refuses_beta_whose_double_overflows():
    assert make_kernel("exp", beta=kernels._MAX_BETA).closed_form_ch == 1.0
    with pytest.raises(ValueError, match="beta must be at most"):
        make_kernel("exp", beta=1e308)


def test_expsq_closed_form_Ch_matches_quadrature():
    k = make_kernel("expsq")
    assert k.closed_form_ch == (math.e**2 - 1.0) - 2.0 * (math.e - 1.0) ** 2
    for tol in (1e-8, 1e-10):
        assert abs(integrate_unit_square(k.eval, tol) - k.closed_form_ch) <= 1e-12


def test_quadrature_cross_checks_power2():
    # closed form suppressed: integrate |u-v|^2 directly
    k = make_kernel("power", gamma=2.0)
    tol = 1e-9
    assert integrate_unit_square(k.eval, tol) == pytest.approx(1.0 / 6.0, abs=10 * tol)


@pytest.mark.parametrize("kernel", BUILTINS, ids=lambda k: k.label())
@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_quadrature_agrees_with_closed_form(kernel, tol):
    exact = (
        kernel.closed_form_ch
        if kernel.closed_form_ch is not None
        # analytic unit-square integral of (e^u - e^v)^2
        else (math.e**2 - 1.0) - 2.0 * (math.e - 1.0) ** 2
    )
    assert integrate_unit_square(kernel.eval, tol) == pytest.approx(exact, abs=10 * tol)


def test_quadrature_failure_carries_last_estimate(monkeypatch):
    k = make_kernel("power", gamma=0.5)
    monkeypatch.setattr(kernels, "_QUADRATURE_LEVELS", 4)
    with pytest.raises(QuadratureError) as excinfo:
        integrate_unit_square(k.eval, tol=1e-12)
    last = excinfo.value.last_estimate
    assert last is not None
    # even the aborted refinement is in the right neighbourhood of 8/15
    assert abs(last - 2.0 / (1.5 * 2.5)) < 1e-2


def test_custom_kernel_accepts_valid():
    k = custom_kernel("absdiff", lambda y, z: np.abs(y - z))
    assert k.eval(0.25, 0.75) == pytest.approx(0.5)
    assert normalization_constant(k) == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_custom_kernel_integrates_its_normalization_once(monkeypatch):
    # three coefficients and one test on one kernel; closed forms never integrate
    calls = []

    def counted(fn, tol, *args, **kwargs):
        calls.append(tol)
        return integrate_unit_square(fn, tol, *args, **kwargs)

    monkeypatch.setattr(kernels, "integrate_unit_square", counted)
    k = custom_kernel("smooth", lambda y, z: np.square(y - z) * (1.0 + y * z))
    rng = np.random.default_rng(4)
    s = PairedSample(xs=rng.normal(size=200), ys=rng.normal(size=200))
    first = xi_simplified(s, k).xi
    assert [xi_simplified(s, k).xi for _ in range(2)] == [first, first]
    independence_test(s, k, "simplified")
    independence_test(s, make_kernel("power", gamma=0.5), "simplified")
    assert calls == [1e-8]


def test_failed_quadrature_is_not_kept(monkeypatch):
    cusp = custom_kernel("cusp", lambda u, v: np.abs(u - v) ** 0.02)
    with pytest.raises(QuadratureError):
        normalization_constant(cusp)
    calls = []
    monkeypatch.setattr(kernels, "integrate_unit_square", lambda fn, tol: calls.append(tol) or 0.5)
    assert normalization_constant(cusp) == 0.5
    assert calls == [1e-8]


def test_unhashable_custom_kernel_still_integrates():
    @dataclasses.dataclass
    class Gap:  # eq without frozen leaves instances unhashable
        power: float

        def __call__(self, y, z):
            return np.abs(y - z) ** self.power

    k = custom_kernel("gap", Gap(1.0))
    assert normalization_constant(k) == pytest.approx(1.0 / 3.0, abs=1e-7)


@pytest.mark.parametrize("ch", [math.nan, math.inf, 0.0, -1.0, "one"])
def test_custom_kernel_rejects_a_bad_closed_form(ch):
    # nan gave xi = NaN, and inf xi = 1.0 (z = 11.35) on independent data
    with pytest.raises(ValueError):
        custom_kernel("gap", lambda y, z: np.abs(y - z), closed_form_ch=ch)


def test_one_kernel_per_builtin_spec():
    for spec in ["power:0.5", "power:1", "power:2", "power:3", "exp:1", "exp:1e-3", "expsq"]:
        assert parse_kernel_spec(spec) is parse_kernel_spec(spec)
    assert parse_kernel_spec("exp:0.5") is make_kernel("exp", beta=0.5)
    assert make_kernel("power", gamma=1) is estimator._CHATTERJEE_KERNEL

    def gap(y, z):
        return np.abs(y - z)

    # a custom kernel is its own cache key, whatever its eval
    first, second = custom_kernel("gap", gap), custom_kernel("gap", gap)
    assert first != second and len({first, second}) == 2


def test_custom_kernel_rejects_asymmetric():
    with pytest.raises(ValueError, match="asymmetric"):
        custom_kernel("bad", lambda y, z: np.maximum(y - z, 0.0))


def test_custom_kernel_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        custom_kernel("bad", lambda y, z: -np.abs(y - z))


def test_custom_kernel_rejects_nonzero_diagonal():
    with pytest.raises(ValueError, match="diagonal"):
        custom_kernel("bad", lambda y, z: np.abs(y - z) + 1.0)


def test_parse_kernel_spec():
    assert parse_kernel_spec("power:1").params == {"gamma": 1.0}
    assert parse_kernel_spec("exp:0.5").params == {"beta": 0.5}
    assert parse_kernel_spec("expsq").name == "expsq"
    with pytest.raises(ValueError, match="gamma"):
        parse_kernel_spec("power:0")
    with pytest.raises(ValueError):
        parse_kernel_spec("expsq:1")
    with pytest.raises(ValueError):
        parse_kernel_spec("mystery")
    with pytest.raises(ValueError):
        parse_kernel_spec("power")


def test_label_round_trips():
    assert parse_kernel_spec("power:2").label() == "power:2"
    assert parse_kernel_spec("expsq").label() == "expsq"


@given(st.one_of(
    st.floats(0.0, exclude_min=True, allow_infinity=False).map(
        lambda gamma: make_kernel("power", gamma=gamma)),
    st.floats(0.0, kernels._MAX_BETA, exclude_min=True).map(
        lambda beta: make_kernel("exp", beta=beta)),
))
@settings(max_examples=300, deadline=None)
def test_label_parses_back(kernel):
    # a label prints each parameter with every digit it needs, not six
    assert parse_kernel_spec(kernel.label()).params == kernel.params

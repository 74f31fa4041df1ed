"""Function-space oracles: rates, smoothness audits, neighborhoods, parsing."""

import math

import numpy as np
import pytest

from lecam_equiv.errors import ArgumentError
from lecam_equiv.function_space import (
    RegressionFunction,
    holder_check,
    neighborhood_violation,
    parse_function,
    rate_gamma_bar,
    split_beta,
)


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_rate_point_values():
    # (ln 1000 / 1000)^(1/3) = 0.0069077553^(1/3) = 0.1904541...
    assert rate_gamma_bar(1000, 1.0, 1.0) == pytest.approx(
        (math.log(1000) / 1000) ** (1.0 / 3.0), abs=1e-15
    )
    assert rate_gamma_bar(1000, 1.0, 1.0) == pytest.approx(0.190449, abs=1e-6)
    # (ln 2 / 2)^(1/3) = (0.34657359)^(1/3) = 0.7024226...
    assert rate_gamma_bar(2, 1.0, 1.0) == pytest.approx(
        (math.log(2) / 2) ** (1.0 / 3.0), abs=1e-15
    )
    assert rate_gamma_bar(2, 1.0, 1.0) == pytest.approx(0.702423, abs=1e-6)


def test_rate_monotone_in_beta():
    # exponent beta/(2 beta + 1) increases toward 1/2, and log n / n < 1,
    # so the rate decreases in beta toward (log n / n)^(1/2)
    betas = np.linspace(0.6, 2.0, 12)
    vals = [rate_gamma_bar(1000, float(b), 1.0) for b in betas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > (math.log(1000) / 1000) ** 0.5


def test_rate_strictly_decreasing_in_n():
    vals = [rate_gamma_bar(n, 1.0, 1.0) for n in range(3, 200)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rate_argument_errors():
    with pytest.raises(ArgumentError):
        rate_gamma_bar(1, 1.0, 1.0)
    for beta in (0.5, math.nan, math.inf):
        with pytest.raises(ArgumentError, match="beta"):
            rate_gamma_bar(100, beta, 1.0)
    # a NaN or infinite constant would give a NaN or infinite rate
    for c_beta in (0.0, math.nan, math.inf):
        with pytest.raises(ArgumentError, match="rate constant"):
            rate_gamma_bar(100, 1.0, c_beta)


# ---------------------------------------------------------------------------
# beta splitting
# ---------------------------------------------------------------------------


def test_split_beta():
    assert split_beta(1.0) == (0, 1.0)
    assert split_beta(0.75) == (0, 0.75)
    b0, b1 = split_beta(1.5)
    assert b0 == 1 and b1 == pytest.approx(0.5)
    assert split_beta(2.0) == (1, 1.0)
    with pytest.raises(ArgumentError):
        split_beta(0.5)
    with pytest.raises(ArgumentError):
        split_beta(2.5)


# ---------------------------------------------------------------------------
# smoothness audit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan, math.inf])
def test_function_rejects_nonpositive_or_nan_radius(L):
    # NaN fails every comparison, so `L <= 0` let it through; an infinite
    # radius is no smoothness constraint at all
    with pytest.raises(ArgumentError, match="smoothness radius L"):
        RegressionFunction.constant(0.4, L=L)


def test_holder_constant_passes():
    f = RegressionFunction.constant(0.5, beta=1.0, L=1.0)
    rep = holder_check(f)
    assert rep.passed
    assert rep.max_ratio == 0.0
    assert rep.sup_abs == pytest.approx(0.5)


def test_holder_affine_slope_is_ratio():
    f = RegressionFunction.affine(0.4, 0.2, beta=1.0, L=1.0)
    rep = holder_check(f)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(0.2, rel=1e-9)


def test_holder_steep_sinusoid_fails():
    # f(t) = sin(50 t)/2: slope reaches 25, far beyond L = 1
    f = RegressionFunction.sinusoid(0.5, 50.0 / (2.0 * math.pi), beta=1.0, L=1.0)
    rep = holder_check(f)
    assert not rep.passed
    assert rep.max_ratio > 1.0
    assert rep.max_ratio == pytest.approx(25.0, rel=0.05)


def test_holder_beta_two_uses_derivative():
    # with beta = 2 the audit bounds the derivative's Lipschitz ratio:
    # f'' of amp*sin(2 pi t) has sup amp*(2 pi)^2
    amp = 0.01
    f = RegressionFunction.sinusoid(amp, 1.0, beta=2.0, L=1.0)
    rep = holder_check(f)
    assert rep.passed
    assert rep.max_ratio <= amp * (2.0 * math.pi) ** 2 * (1.0 + 1e-6)
    bad = RegressionFunction.sinusoid(0.5, 3.0, beta=2.0, L=1.0)
    assert not holder_check(bad).passed


def test_spline_interpolates_knots():
    knots_t = [0.0, 0.25, 0.5, 0.75, 1.0]
    knots_y = [0.4, 0.5, 0.45, 0.55, 0.5]
    f = RegressionFunction.spline(knots_t, knots_y, beta=1.0, L=2.0)
    assert np.allclose(f(np.array(knots_t)), knots_y, atol=1e-12)
    # derivative matches central differences away from knots
    t = np.array([0.1, 0.4, 0.6])
    h = 1e-6
    num = (f(t + h) - f(t - h)) / (2.0 * h)
    assert np.allclose(f.derivative(t), num, atol=1e-6)


@pytest.mark.parametrize(
    "fn",
    [
        RegressionFunction.constant(0.3),
        RegressionFunction.affine(0.2, -0.5),
        RegressionFunction.sinusoid(0.4, 2.0, 0.1),
        RegressionFunction.spline([0.0, 0.4, 1.0], [0.1, -0.2, 0.3]),
    ],
)
def test_scaled_multiplies_values_and_keeps_the_class(fn):
    t = np.linspace(0.0, 1.0, 33)
    g = fn.scaled(-2.5)
    assert (g.kind, g.beta, g.L) == (fn.kind, fn.beta, fn.L)
    assert np.allclose(g(t), -2.5 * fn(t), atol=1e-14)


# ---------------------------------------------------------------------------
# neighborhoods
# ---------------------------------------------------------------------------


def test_neighborhood_zero_shift_is_inside():
    f = RegressionFunction.affine(0.4, 0.2, beta=1.0, L=1.0)
    h = RegressionFunction.constant(0.0, beta=1.0, L=1.0)
    assert neighborhood_violation(f, h, 0.0) is None
    assert neighborhood_violation(f, h, 0.5) is None


def test_neighborhood_sup_norm_violation():
    f = RegressionFunction.constant(0.5, beta=1.0, L=1.0)
    h = RegressionFunction.constant(0.6, beta=1.0, L=1.0)
    assert neighborhood_violation(f, h, 0.1).startswith(
        "shift leaves the radius-0.1 localization ball"
    )


def test_neighborhood_affine_plus_sinusoid():
    f = RegressionFunction.affine(0.4, 0.2, beta=1.0, L=2.0)
    h = RegressionFunction.sinusoid(0.05, 1.0, beta=1.0, L=2.0)
    assert neighborhood_violation(f, h, 0.05) is None
    # tighter radius excludes it
    assert "radius-0.04" in neighborhood_violation(f, h, 0.04)


@pytest.mark.parametrize("r", [-0.1, math.nan, math.inf])
def test_neighborhood_radius_must_be_nonnegative_and_finite(r):
    # a NaN or infinite radius compares false against every sup norm
    f = RegressionFunction.affine(0.4, 0.2, beta=1.0, L=2.0)
    h = RegressionFunction.sinusoid(0.05, 1.0, beta=1.0, L=2.0)
    with pytest.raises(ArgumentError, match="nonnegative and finite"):
        neighborhood_violation(f, h, r)


def test_neighborhood_mismatched_class_raises():
    f = RegressionFunction.constant(0.5, beta=1.0, L=1.0)
    h = RegressionFunction.constant(0.0, beta=1.0, L=2.0)
    with pytest.raises(ArgumentError):
        neighborhood_violation(f, h, 0.1)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_parse_function_round_trip():
    for text, probe, value in [
        ("constant(0.5)", 0.3, 0.5),
        ("affine(0.4, 0.2)", 0.5, 0.5),
        ("sinusoid(1, 1, 0)", 0.25, 1.0),
    ]:
        f = parse_function(text, beta=1.0, L=10.0)
        assert float(f(probe)) == pytest.approx(value, abs=1e-12)
        # descriptor text reparses to the same function
        g = parse_function(f.descriptor, beta=1.0, L=10.0)
        assert float(g(probe)) == pytest.approx(value, abs=1e-12)


def test_parse_function_rejects_malformed():
    for bad in ("affine", "affine(0.4", "affine(a, b)", "mystery(1)"):
        with pytest.raises(ArgumentError):
            parse_function(bad)


def test_spline_descriptor_round_trip():
    f = RegressionFunction.spline([0.0, 0.5, 1.0], [0.4, 0.6, 0.5], beta=1.0, L=2.0)
    g = parse_function(f.descriptor, beta=1.0, L=2.0)
    t = np.linspace(0, 1, 11)
    assert np.allclose(f(t), g(t), atol=1e-12)

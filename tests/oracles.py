"""Reference computations that tests compare the library against."""

import math

import numpy as np
from scipy.special import ndtr

from lecam_equiv.experiments import design_grid, sample_original
from lecam_equiv.globalization import gamma_scale_estimate, gaussianize, preliminary_estimate
from lecam_equiv.harness import derive_seed, stream_rng


def exp_moment_margins(values, probs, lam_grid) -> np.ndarray:
    """Margins of the bounded-variable exponential moment inequality.

    For a zero-mean variable with |value| <= a and |lambda| <= 1 the
    moment generating function satisfies E exp(lam x) <= exp((e^a/2)
    lam^2 E x^2).  Returns rhs - lhs per lambda; all entries should be
    nonnegative.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    lam = np.asarray(lam_grid, dtype=float)
    assert np.all(np.abs(lam) <= 1.0 + 1e-12), "the inequality is stated for |lambda| <= 1"
    assert abs(float(probs @ values)) <= 1e-10, "the inequality requires a zero-mean variable"
    a = float(np.max(np.abs(values)))
    m2 = float(probs @ values**2)
    lhs = np.exp(np.outer(lam, values)) @ probs
    rhs = np.exp(0.5 * math.exp(a) * lam**2 * m2)
    return rhs - lhs


def normalization_defect(family, theta) -> float:
    """|integral of p(., theta) - 1| by the family's summation or quadrature."""
    total = family.expect(float(theta), lambda x: np.ones_like(np.asarray(x, dtype=float)))
    return abs(total - 1.0)


def risk_transfer_errors(family, f, n, rng, R, beta=1.0, q=0.25):
    """Direct and transferred sup errors of risk_transfer_demo, one replicate at a time.

    Replicate r draws its sample and then its kernel noise from rng, and
    the estimates run on that single draw.
    """
    t = design_grid(n)
    truth = np.asarray(f(t), dtype=float)
    err_a = np.empty(R)
    err_b = np.empty(R)
    for r in range(R):
        draw = sample_original(family, f, n, rng, seed=r)
        err_a[r] = float(np.max(np.abs(preliminary_estimate(family, draw, beta)(t) - truth)))
        gz = gaussianize(family, draw, beta, rng.standard_normal(n), q=q)
        fhat = gamma_scale_estimate(family, gz.draw, beta)
        err_b[r] = float(np.max(np.abs(fhat(t) - truth)))
    return err_a, err_b


def globalize_ks(config, n, replicates):
    """KS statistics of a globalize unit's replicates, one replicate at a time."""
    family = config.resolve_family()
    f = config.resolve_f()
    target = np.asarray(family.gamma(np.asarray(f(design_grid(n)), dtype=float)), dtype=float)
    k = np.arange(1, n + 1, dtype=float)
    out = []
    for r in replicates:
        rng = stream_rng(derive_seed(config.master_seed, n, r))
        draw = sample_original(family, f, n, rng, seed=r)
        noise = stream_rng(derive_seed(config.master_seed, n, r + (1 << 32))).standard_normal(n)
        gz = gaussianize(family, draw, config.beta, noise, q=config.q)
        u = np.sort(ndtr(gz.draw.observations - target))
        out.append(max(float(np.max(k / n - u)), float(np.max(u - (k - 1.0) / n))))
    return out

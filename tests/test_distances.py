"""Squared Hellinger reports and the coupled Monte Carlo estimator."""

import math

import numpy as np
import pytest

from lecam_equiv.distances import DistanceReport, mc_hellinger_coupled
from lecam_equiv.errors import ArgumentError

from oracles import exp_moment_margins


# ---------------------------------------------------------------------------
# reports and Monte Carlo estimator
# ---------------------------------------------------------------------------


class FakeDraw:
    def __init__(self, a, b):
        self.log_lik_original = a
        self.log_lik_gaussian = b


def test_mc_hellinger_identical_likelihoods_is_zero():
    draws = [FakeDraw(0.1 * i, 0.1 * i) for i in range(20)]
    rep = mc_hellinger_coupled(draws)
    assert rep.value == 0.0
    assert rep.mc_stderr == 0.0


def test_mc_hellinger_matches_gaussian_closed_form():
    # perfectly coupled likelihoods of N(0,1) vs N(mu,1) against N(0,1):
    # log L1 = mu*eps - mu^2/2 under the central measure, log L0 = 0
    rng = np.random.default_rng(4242)
    mu = 0.2
    eps = rng.standard_normal(40_000)
    draws = [FakeDraw(mu * e - 0.5 * mu * mu, 0.0) for e in eps]
    rep = mc_hellinger_coupled(draws)
    # H^2(N(0, 1), N(mu, 1)) = 1 - exp(-mu^2 / 8)
    target = 1.0 - math.exp(-mu * mu / 8.0)
    assert abs(rep.value - target) < 3.0 * rep.mc_stderr + 1e-12
    # independent (non-coupled) copies give a strictly positive estimate
    eps2 = rng.standard_normal(40_000)
    indep = [
        FakeDraw(mu * e1 - 0.5 * mu * mu, mu * e2 - 0.5 * mu * mu)
        for e1, e2 in zip(eps, eps2)
    ]
    rep2 = mc_hellinger_coupled(indep)
    assert rep2.value > 3.0 * rep2.mc_stderr
    assert rep2.value > rep.value


def test_mc_hellinger_requires_replicates():
    with pytest.raises(ArgumentError):
        mc_hellinger_coupled([FakeDraw(0.0, 0.0)] * 9)


def test_distance_report_invariants():
    with pytest.raises(ArgumentError):
        DistanceReport(value=1.5)
    with pytest.raises(ArgumentError):
        DistanceReport(value=-0.1, mc_stderr=0.01)
    assert DistanceReport(value=0.5).mc_stderr is None
    assert DistanceReport(value=0.25, mc_stderr=0.01).mc_stderr == 0.01


# ---------------------------------------------------------------------------
# exponential moment inequality
# ---------------------------------------------------------------------------


def test_exp_moment_margins_nonnegative_on_random_laws():
    rng = np.random.default_rng(31337)
    lam = np.linspace(-1.0, 1.0, 21)
    for _ in range(300):
        k = int(rng.integers(2, 8))
        vals = rng.uniform(-2.0, 2.0, k)
        probs = rng.dirichlet(np.ones(k))
        vals = vals - probs @ vals  # recenter to zero mean
        margins = exp_moment_margins(vals, probs, lam)
        assert np.all(margins >= -1e-12)


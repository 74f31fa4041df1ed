"""Distance oracles: closed forms, product algebra, enumeration, MC reports."""

import math

import numpy as np
import pytest
from scipy import stats

from lecam_equiv.distances import (
    DistanceReport,
    PdfDescriptor,
    PmfDescriptor,
    brute_force_hellinger_sq,
    brute_force_tv,
    describe_family_density,
    hellinger_gaussian,
    hellinger_sq_1d,
    hellinger_sq_product,
    mc_hellinger_coupled,
    tv_and_deficiency_bound,
)
from lecam_equiv.errors import ArgumentError, CapacityError, SupportMismatchError
from lecam_equiv.families import get_family

from oracles import exp_moment_margins


def bern_pmf(theta):
    return PmfDescriptor.make([0.0, 1.0], [1.0 - theta, theta])


def normal_pdf(mu):
    return PdfDescriptor(lambda x, m=mu: stats.norm.pdf(x, m), mu - 12.0, mu + 12.0)


# ---------------------------------------------------------------------------
# one-dimensional Hellinger
# ---------------------------------------------------------------------------


def test_hellinger_identical_is_zero():
    assert hellinger_sq_1d(bern_pmf(0.3), bern_pmf(0.3)) == pytest.approx(0.0, abs=1e-15)


def test_hellinger_bernoulli_closed_value():
    # 1 - (sqrt(0.3*0.4) + sqrt(0.7*0.6)) = 1 - (sqrt(0.12) + sqrt(0.42))
    expected = 1.0 - (math.sqrt(0.12) + math.sqrt(0.42))
    got = hellinger_sq_1d(bern_pmf(0.3), bern_pmf(0.4))
    assert got == pytest.approx(expected, abs=1e-14)
    # 1 - (0.3464102 + 0.6480741) = 0.0055157
    assert got == pytest.approx(0.0055157, abs=5e-7)


def test_hellinger_gaussian_quadrature_matches_closed_form():
    got = hellinger_sq_1d(normal_pdf(0.0), normal_pdf(2.0))
    assert got == pytest.approx(1.0 - math.exp(-0.5), abs=1e-9)
    assert hellinger_gaussian(0.0, 2.0) == pytest.approx(0.393469, abs=1e-6)
    assert hellinger_gaussian(1.0, 1.0) == 0.0


def test_hellinger_gaussian_monotone_to_one():
    gaps = np.linspace(0.0, 30.0, 40)
    vals = [hellinger_gaussian(0.0, g) for g in gaps]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_hellinger_support_mismatch():
    with pytest.raises(SupportMismatchError):
        hellinger_sq_1d(bern_pmf(0.3), normal_pdf(0.0))


def test_hellinger_symmetric_and_metric_on_random_pmfs():
    rng = np.random.default_rng(8)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        vals = np.arange(k, dtype=float)
        p = PmfDescriptor.make(vals, rng.dirichlet(np.ones(k)))
        q = PmfDescriptor.make(vals, rng.dirichlet(np.ones(k)))
        r = PmfDescriptor.make(vals, rng.dirichlet(np.ones(k)))
        pq = hellinger_sq_1d(p, q)
        assert pq == pytest.approx(hellinger_sq_1d(q, p), abs=1e-15)
        assert 0.0 <= pq <= 1.0
        # triangle inequality for the distance H itself
        assert math.sqrt(pq) <= math.sqrt(hellinger_sq_1d(p, r)) + math.sqrt(
            hellinger_sq_1d(r, q)
        ) + 1e-12


def test_describe_family_density_roundtrip():
    fam = get_family("bernoulli")
    desc = describe_family_density(fam, 0.3)
    assert isinstance(desc, PmfDescriptor)
    assert hellinger_sq_1d(desc, bern_pmf(0.3)) == pytest.approx(0.0, abs=1e-15)
    fam = get_family("location_normal")
    desc = describe_family_density(fam, 0.0)
    assert isinstance(desc, PdfDescriptor)
    assert hellinger_sq_1d(desc, normal_pdf(0.0)) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# product algebra
# ---------------------------------------------------------------------------


def test_product_formula_values():
    assert hellinger_sq_product([]).value == 0.0
    assert hellinger_sq_product([0.0, 0.0, 0.0]).value == 0.0
    res = hellinger_sq_product([0.5, 0.5])
    assert res.value == pytest.approx(0.75, abs=1e-15)
    assert res.subadditive_bound == pytest.approx(1.0, abs=1e-15)
    assert res.subadditive_bound >= res.value
    single = hellinger_sq_product([0.37])
    assert single.value == pytest.approx(0.37, abs=1e-15)


def test_product_formula_rejects_out_of_range():
    with pytest.raises(ArgumentError):
        hellinger_sq_product([0.5, 1.2])
    with pytest.raises(ArgumentError):
        hellinger_sq_product([-0.1])
    # NaN fails both bounds, so it must not slip between them
    with pytest.raises(ArgumentError):
        hellinger_sq_product([0.1, math.nan])


@pytest.mark.parametrize(
    "values, probs, match",
    [
        ([0.0, math.nan], [0.5, 0.5], "values must be finite"),
        ([0.0, math.inf], [0.5, 0.5], "values must be finite"),
        ([0.0, 1.0], [0.5, math.nan], "finite and nonnegative"),
        ([0.0, 1.0], [0.5, math.inf], "finite and nonnegative"),
        ([0.0, 1.0], [1.5, -0.5], "finite and nonnegative"),
    ],
    ids=["nan-value", "inf-value", "nan-prob", "inf-prob", "negative-prob"],
)
def test_pmf_rejects_non_finite_or_negative_input(values, probs, match):
    with pytest.raises(ArgumentError, match=match):
        PmfDescriptor.make(values, probs)


def test_product_formula_matches_brute_force_on_bernoulli_products():
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        ps = rng.uniform(0.05, 0.95, n)
        qs = rng.uniform(0.05, 0.95, n)
        comps = [
            hellinger_sq_1d(bern_pmf(p), bern_pmf(q)) for p, q in zip(ps, qs)
        ]
        via_product = hellinger_sq_product(comps).value
        brute = brute_force_hellinger_sq(
            [[1 - p, p] for p in ps], [[1 - q, q] for q in qs]
        )
        assert via_product == pytest.approx(brute, abs=1e-12)
        assert via_product <= hellinger_sq_product(comps).subadditive_bound + 1e-15


# ---------------------------------------------------------------------------
# TV bounds and enumeration
# ---------------------------------------------------------------------------


def test_tv_bound_values():
    bound, note = tv_and_deficiency_bound(0.25)
    # sqrt(2 * 0.25) = sqrt(0.5) = 0.7071067...
    assert bound == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert bound == pytest.approx(0.70711, abs=1e-5)
    assert isinstance(note, str) and note
    assert tv_and_deficiency_bound(0.0)[0] == 0.0
    assert tv_and_deficiency_bound(1.0)[0] == 1.0  # clipped
    with pytest.raises(ArgumentError):
        tv_and_deficiency_bound(1.5)


def test_brute_force_tv_values():
    # single Bernoulli: TV = |0.3 - 0.4| = 0.1
    assert brute_force_tv([[0.7, 0.3]], [[0.6, 0.4]]) == pytest.approx(0.1, abs=1e-15)
    # two i.i.d. coordinates: 0.5*(|0.49-0.36| + 2|0.21-0.24| + |0.09-0.16|) = 0.13
    got = brute_force_tv(
        [[0.7, 0.3], [0.7, 0.3]], [[0.6, 0.4], [0.6, 0.4]]
    )
    assert got == pytest.approx(0.13, abs=1e-15)
    assert brute_force_tv([[0.7, 0.3]], [[0.7, 0.3]]) == 0.0


def test_brute_force_capacity_error():
    pmfs = [[0.5, 0.5]] * 21  # 2^21 outcomes exceeds the cap
    with pytest.raises(CapacityError):
        brute_force_tv(pmfs, pmfs)


def test_brute_force_shape_errors():
    with pytest.raises(ArgumentError):
        brute_force_tv([[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(SupportMismatchError):
        brute_force_tv([[0.5, 0.5]], [[0.2, 0.3, 0.5]])


def test_tv_hellinger_sandwich_on_random_pmfs():
    # H^2 <= TV <= sqrt(2) H on finite spaces
    rng = np.random.default_rng(77)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        tv = brute_force_tv([p], [q])
        h2 = hellinger_sq_1d(
            PmfDescriptor.make(np.arange(k, dtype=float), p),
            PmfDescriptor.make(np.arange(k, dtype=float), q),
        )
        assert h2 <= tv + 1e-12
        assert tv <= math.sqrt(2.0 * h2) + 1e-12


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
    assert rep.method == "monte-carlo"
    assert rep.replicate_count == 20


def test_mc_hellinger_matches_gaussian_closed_form():
    # perfectly coupled likelihoods of N(0,1) vs N(mu,1) against N(0,1):
    # log L1 = mu*eps - mu^2/2 under the central measure, log L0 = 0
    rng = np.random.default_rng(4242)
    mu = 0.2
    eps = rng.standard_normal(40_000)
    draws = [FakeDraw(mu * e - 0.5 * mu * mu, 0.0) for e in eps]
    rep = mc_hellinger_coupled(draws)
    target = hellinger_gaussian(0.0, mu)
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
        DistanceReport(kind="tv", method="closed-form", value=1.5)
    with pytest.raises(ArgumentError):
        DistanceReport(kind="tv", method="closed-form", value=0.5, mc_stderr=0.1)
    with pytest.raises(ArgumentError):
        DistanceReport(kind="hellinger2", method="monte-carlo", value=0.5)
    rep = DistanceReport(
        kind="hellinger2",
        method="monte-carlo",
        value=0.25,
        mc_stderr=0.01,
        replicate_count=100,
    )
    assert rep.mc_stderr == 0.01


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


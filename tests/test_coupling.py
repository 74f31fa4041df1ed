"""Joint draws and condition audits."""

import dataclasses
import functools
import math
from collections import namedtuple

import numpy as np
import pytest
from scipy import stats

from lecam_equiv import coupling
from lecam_equiv.coupling import (
    CouplingPlan,
    audit_cc_conditions,
    build_coupled_draw,
)
from lecam_equiv.distances import mc_hellinger_coupled
from lecam_equiv.errors import (
    ArgumentError,
    DomainError,
    NeighborhoodError,
    SingularityError,
)
from lecam_equiv.experiments import (
    ExperimentDraw,
    design_cell,
    lase_terms,
    sample_original,
    standard_test_pair,
)
from lecam_equiv.families import TabulatedLocation, get_family
from lecam_equiv.function_space import RegressionFunction
from lecam_equiv.globalization import _stack_bounds
from lecam_equiv.laws import AtomLaw

from oracles import coupled_draw_fields

KS_CRIT_1PCT = 1.628


def quad_term(plan):
    return 0.5 * float(np.dot(plan.h_values**2, plan.cell.info))


# ---------------------------------------------------------------------------
# joint likelihood construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["bernoulli", "poisson", "gaussian_scale", "location_normal"]
)
def test_coupled_draw_identities(name):
    fam = get_family(name)
    n = 128
    f, h = standard_test_pair(fam, n)
    plan = CouplingPlan(fam, f, h, n, grid_size=1 << 14)
    # one generator repeated: the rows consume it as five single draws would
    stack = build_coupled_draw(plan, [np.random.default_rng(12)] * 5)
    rng = np.random.default_rng(12)
    q = quad_term(plan)
    for row in range(5):
        _, _, scores, gaussians, remainder = coupled_draw_fields(plan, rng)
        lhs = float(np.dot(plan.h_values, scores)) - q + remainder
        assert stack.log_lik_original[row] == pytest.approx(lhs, abs=1e-10)
        lhs0 = float(np.dot(plan.h_values, gaussians)) - q
        assert stack.log_lik_gaussian[row] == pytest.approx(lhs0, abs=1e-10)


@pytest.mark.parametrize("n", [16, 256, 4096])
@pytest.mark.parametrize("name", ["poisson", "bernoulli", "gaussian_scale"])
def test_coupled_draw_remainder_table_matches_lase_terms(name, n):
    fam = get_family(name)
    f, h = standard_test_pair(fam, n)
    plan = CouplingPlan(fam, f, h, n, grid_size=256)
    assert plan.log_lr_slope is not None
    stack = build_coupled_draw(plan, [np.random.default_rng(seed) for seed in range(5)])
    for seed in range(5):
        # a draw samples first, so the same seed reproduces its dataset
        x = fam.sample(plan.cell.theta, np.random.default_rng(seed))
        data = ExperimentDraw("original", plan.cell.t, x, fam.name)
        exact = lase_terms(fam, f, h, data).exact_loglik
        assert abs(stack.log_lik_original[seed] - exact) <= 1e-12


def test_coupled_draw_without_affine_table_calls_lase_terms(monkeypatch):
    xs = np.linspace(-8.0, 8.0, 801)
    fam = TabulatedLocation(xs, np.exp(-0.5 * xs * xs))
    f = RegressionFunction.constant(0.0)
    h = RegressionFunction.sinusoid(0.01, 1.0, 0.0)
    plan = CouplingPlan(fam, f, h, 16, grid_size=256)
    assert plan.log_lr_slope is None
    calls = []

    def counting(*args):
        calls.append(args)
        return lase_terms(*args)

    monkeypatch.setattr(coupling, "lase_terms", counting)
    # one call per stack, whatever its row count
    build_coupled_draw(plan, [np.random.default_rng(seed) for seed in range(3)])
    build_coupled_draw(plan, [np.random.default_rng(3)])
    assert len(calls) == 2


def test_location_custom_plan_reads_one_shared_score_law(monkeypatch):
    # a coarse table: the plan builds every point's cf from its 101 atoms
    xs = np.linspace(-8.0, 8.0, 101)
    fam = TabulatedLocation(xs, np.exp(-0.5 * xs * xs))
    f = RegressionFunction.constant(0.0)
    h = RegressionFunction.sinusoid(0.01, 1.0, 0.0)
    shared = CouplingPlan(fam, f, h, 256, grid_size=1 << 10)

    def rebuilt(theta):
        # the law built afresh for each design point, trapezoid weights included
        w = np.zeros_like(fam.grid)
        half = 0.5 * np.diff(fam.grid)
        w[:-1] += half * fam.dens[:-1]
        w[1:] += half * fam.dens[1:]
        return AtomLaw.from_unsorted(fam._score_tab, w / w.sum())

    monkeypatch.setattr(fam, "score_law", rebuilt)
    per_point = CouplingPlan(fam, f, h, 256, grid_size=1 << 10)
    assert per_point.sum_law.cdf_grid.tobytes() == shared.sum_law.cdf_grid.tobytes()


@functools.lru_cache(maxsize=None)
def _stacking_plan(kind):
    """One plan per draw path; at 1024 points a capped stack holds 32 rows."""
    if kind == "location_custom":
        # no log-LR table: the lase_terms path
        xs = np.linspace(-8.0, 8.0, 801)
        fam = TabulatedLocation(xs, np.exp(-0.5 * xs * xs))
        h = RegressionFunction.sinusoid(0.01, 1.0, 0.0)
        return CouplingPlan(fam, RegressionFunction.constant(0.0), h, 16, grid_size=256)
    if kind == "zero_shift":
        # no sum law: the identity coupling
        fam = get_family("bernoulli")
        f = RegressionFunction.affine(0.4, 0.2)
        return CouplingPlan(fam, f, RegressionFunction.constant(0.0), 1024, grid_size=1024)
    fam = get_family(kind)
    f, h = standard_test_pair(fam, 1024)
    return CouplingPlan(fam, f, h, 1024, grid_size=1024)


def _bytes(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("replicates", [1, 3, 50])
@pytest.mark.parametrize(
    "kind",
    ["bernoulli", "poisson", "gaussian_scale", "location_normal", "location_custom",
     "zero_shift"],
)
def test_stacked_draws_match_single_draws(kind, replicates):
    plan = _stacking_plan(kind)
    assert (plan.sum_law is None) == (kind in ("location_normal", "zero_shift"))
    # a log-LR table is built only beside a sum law
    assert (plan.log_lr_slope is None) == (
        kind in ("location_normal", "location_custom", "zero_shift")
    )
    seeds = [[29, r] for r in range(replicates)]
    bounds = _stack_bounds(plan.cell.n, 0, replicates)
    assert (len(bounds) > 1) == (replicates == 50 and plan.cell.n == 1024)
    for start, stop in bounds:
        stack = build_coupled_draw(
            plan, [np.random.default_rng(seeds[r]) for r in range(start, stop)]
        )
        assert stack.log_lik_original.shape == stack.log_lik_gaussian.shape == (stop - start,)
        for row, r in enumerate(range(start, stop)):
            want_orig, want_gauss, *_ = coupled_draw_fields(plan, np.random.default_rng(seeds[r]))
            assert _bytes(stack.log_lik_original[row]) == _bytes(want_orig)
            assert _bytes(stack.log_lik_gaussian[row]) == _bytes(want_gauss)


def test_coupled_draw_takes_a_sequence_of_generators_and_keeps_two_fields():
    plan = _stacking_plan("poisson")
    with pytest.raises(ArgumentError, match="sequence of generators"):
        build_coupled_draw(plan, np.random.default_rng(0))
    stack = build_coupled_draw(plan, [np.random.default_rng(0)])
    assert [field.name for field in dataclasses.fields(stack)] == [
        "log_lik_original", "log_lik_gaussian"
    ]


def test_coupling_plan_rejects_shift_outside_the_open_interval():
    # f sits on the working interval's edge and f + h leaves (0, 1)
    fam = get_family("bernoulli")
    f = RegressionFunction.constant(0.05)
    h = RegressionFunction.constant(-0.06)
    with pytest.raises(DomainError, match="open interval"):
        CouplingPlan(fam, f, h, 16, c_rate=4.0, grid_size=256)


def test_coupling_plan_rejects_non_finite_log_likelihood_ratio(monkeypatch):
    fam = get_family("poisson")
    f, h = standard_test_pair(fam, 16)
    monkeypatch.setattr(fam, "log_lr_affine", lambda theta, u: (np.full(16, np.inf), 0.0 * u))
    with pytest.raises(SingularityError):
        CouplingPlan(fam, f, h, 16, grid_size=256)


def test_coupled_draw_zero_shift_is_degenerate():
    fam = get_family("bernoulli")
    f = RegressionFunction.affine(0.4, 0.2)
    h = RegressionFunction.constant(0.0)
    plan = CouplingPlan(fam, f, h, 64)
    assert plan.sum_law is None
    d = build_coupled_draw(plan, [np.random.default_rng(seed) for seed in range(3)])
    assert np.all(d.log_lik_original == 0.0)
    assert np.all(d.log_lik_gaussian == 0.0)


def test_coupled_draw_location_normal_sides_coincide():
    fam = get_family("location_normal")
    n = 256
    f, h = standard_test_pair(fam, n)
    plan = CouplingPlan(fam, f, h, n)
    assert plan.sum_law is None
    d = build_coupled_draw(plan, [np.random.default_rng(2)] * 10)
    assert np.array_equal(d.log_lik_original, d.log_lik_gaussian)


def test_coupled_sum_quantile_matches_ndtri():
    from scipy.special import ndtri

    # the draw's Phi^-1 (AS241 on libm) over uniformize's clip range
    tail = np.logspace(-14.0, math.log10(0.5), 200_000)
    u = np.concatenate([tail, 1.0 - tail])
    got = np.array([coupling._STD_NORMAL.inv_cdf(p) for p in u.tolist()])
    want = ndtri(u)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))
    assert coupling._STD_NORMAL.inv_cdf(0.5) == 0.0
    assert math.isnan(coupling._STD_NORMAL.inv_cdf(math.nan))


def test_coupled_draw_gaussian_side_has_exact_product_law():
    fam = get_family("bernoulli")
    n = 64
    f, h = standard_test_pair(fam, n)
    plan = CouplingPlan(fam, f, h, n, grid_size=1 << 14)
    # the oracle reproduces the library's rows byte for byte and also
    # returns each draw's Gaussian vector
    stack = build_coupled_draw(plan, [np.random.default_rng(44)] * 400)
    rng = np.random.default_rng(44)
    rows = []
    sums = []
    for row in range(400):
        _, log_lik_gaussian, _, gaussians, _ = coupled_draw_fields(plan, rng)
        assert _bytes(stack.log_lik_gaussian[row]) == _bytes(log_lik_gaussian)
        rows.append(gaussians / np.sqrt(plan.cell.info))
        sums.append((log_lik_gaussian + quad_term(plan)) / plan.sum_law.sigma)
    flat = np.concatenate(rows)
    assert stats.kstest(flat, "norm").statistic < KS_CRIT_1PCT / math.sqrt(flat.size)
    sums = np.asarray(sums)
    assert stats.kstest(sums, "norm").statistic < KS_CRIT_1PCT / math.sqrt(sums.size)


def test_coupled_draw_weighted_sums_tighten_with_n():
    fam = get_family("bernoulli")
    rng = np.random.default_rng(5)
    medians = []
    for n in (256, 2048):
        f, h = standard_test_pair(fam, n)
        plan = CouplingPlan(fam, f, h, n, grid_size=1 << 14)
        gaps = []
        for _ in range(80):
            _, _, scores, gaussians, _ = coupled_draw_fields(plan, rng)
            gaps.append(abs(float(np.dot(plan.h_values, scores - gaussians))))
        medians.append(float(np.median(gaps)))
    assert medians[1] < medians[0]


def test_coupled_hellinger_estimate_decreases_with_n():
    fam = get_family("poisson")
    rng = np.random.default_rng(10)
    values = []
    for n in (256, 2048):
        f, h = standard_test_pair(fam, n)
        plan = CouplingPlan(fam, f, h, n, grid_size=1 << 14)
        draws = [build_coupled_draw(plan, [rng] * 300)]
        values.append(mc_hellinger_coupled(draws).value)
    assert values[1] < values[0]


@pytest.mark.parametrize(
    "entry",
    [
        lambda fam, f, rng: CouplingPlan(fam, f, RegressionFunction.constant(0.0), 16),
        lambda fam, f, rng: sample_original(design_cell(fam, f, 16), rng),
    ],
    ids=["coupling_plan", "sample_original"],
)
def test_working_interval_violation_is_a_domain_error(entry):
    # 0.99 is a valid Bernoulli parameter but outside the working interval
    fam = get_family("bernoulli")
    with pytest.raises(DomainError, match="working interval"):
        entry(fam, RegressionFunction.constant(0.99), np.random.default_rng(0))


def test_coupling_plan_neighborhood_gate():
    fam = get_family("bernoulli")
    n = 256
    f, _ = standard_test_pair(fam, n)
    too_big = RegressionFunction.sinusoid(0.5, 1.0, 0.0)
    with pytest.raises(NeighborhoodError):
        CouplingPlan(fam, f, too_big, n)


@pytest.mark.parametrize("c_rate", [math.nan, math.inf])
def test_coupling_plan_rejects_a_non_finite_rate_constant(c_rate):
    # the shift leaves the ball at c_rate = 1; a NaN or infinite r_n must not admit it
    fam = get_family("poisson")
    f = RegressionFunction.affine(1.5, 1.0)
    h = RegressionFunction.sinusoid(0.3, 1.0)
    with pytest.raises(NeighborhoodError):
        CouplingPlan(fam, f, h, 64, c_rate=1.0, grid_size=256)
    with pytest.raises(ArgumentError, match="nonnegative and finite"):
        CouplingPlan(fam, f, h, 64, c_rate=c_rate, grid_size=256)


# ---------------------------------------------------------------------------
# condition audits
# ---------------------------------------------------------------------------


# the audit reads only the two log-likelihoods of each draw
LogLiks = namedtuple("LogLiks", "log_lik_original log_lik_gaussian")


def fake_gaussian_draws(s0, s1, count, rng):
    z = rng.standard_normal(count)
    return [
        LogLiks(s1 * z[i] - 0.5 * s1**2, s0 * z[i] - 0.5 * s0**2) for i in range(count)
    ]


def test_audit_requires_enough_draws():
    rows = fake_gaussian_draws(0.5, 0.5, 99, np.random.default_rng(0))
    with pytest.raises(ArgumentError):
        audit_cc_conditions(rows, 0.1, 0.5, 0.5)


@pytest.mark.parametrize(
    "alpha1, eps, gap_constant",
    [
        (math.nan, 0.5, 1.0),
        (math.inf, 0.5, 1.0),
        (0.5, math.nan, 1.0),
        (0.5, math.inf, 1.0),
        (0.5, 0.5, math.nan),
        (0.5, 0.5, math.inf),
        (0.5, 0.5, 0.0),
        (0.5, 0.5, -1.0),
    ],
)
def test_audit_rejects_constants_it_cannot_judge(alpha1, eps, gap_constant):
    # a NaN threshold compares false and would read as an audit with no events
    rows = fake_gaussian_draws(0.5, 0.6, 200, np.random.default_rng(5))
    with pytest.raises(ArgumentError, match="positive and finite"):
        audit_cc_conditions(rows, 0.1, alpha1, eps, gap_constant)


def test_audit_identical_likelihoods_have_zero_gap_frequency():
    rows = fake_gaussian_draws(0.7, 0.7, 500, np.random.default_rng(1))
    rep = audit_cc_conditions(rows, 0.1, 0.5, 0.5)
    assert rep.gap_freq == 0.0
    assert rep.replicate_count == 500
    assert rep.target_scale == pytest.approx(0.1)


def test_audit_tail_frequencies_match_normal_oracle():
    s0, s1 = 0.8, 0.9
    r_n, alpha1, eps = 0.1, 0.5, 0.3
    rows = fake_gaussian_draws(s0, s1, 4000, np.random.default_rng(7))
    rep = audit_cc_conditions(rows, r_n, alpha1, eps)
    thr = -eps * math.log(r_n)
    # central-measure tail of the gaussian side
    oracle3 = stats.norm.sf((thr + 0.5 * s0**2) / s0)
    assert abs(rep.gauss_tail_freq - oracle3) < 3.0 * rep.gauss_tail_stderr + 1e-9
    # shifted-measure tail of the original side (tilt moves the mean up)
    oracle2 = stats.norm.sf((thr - 0.5 * s1**2) / s1)
    assert abs(rep.orig_tail_freq - oracle2) < 4.0 * rep.orig_tail_stderr + 0.01
    assert rep.reliable
    assert rep.tail_threshold == pytest.approx(thr)


def test_audit_warns_on_degenerate_weights():
    rows = fake_gaussian_draws(0.5, 0.5, 200, np.random.default_rng(3))
    rows[0] = LogLiks(log_lik_original=45.0, log_lik_gaussian=0.0)
    with pytest.warns(RuntimeWarning, match="effective sample size"):
        rep = audit_cc_conditions(rows, 0.1, 0.5, 0.5)
    assert not rep.reliable


def test_audit_on_real_coupled_batch():
    fam = get_family("bernoulli")
    n = 256
    f, h = standard_test_pair(fam, n)
    plan = CouplingPlan(fam, f, h, n, grid_size=1 << 14)
    rng = np.random.default_rng(19)
    draws = [build_coupled_draw(plan, [rng] * 200)]
    rep = audit_cc_conditions(draws, plan.r_n, 0.5, 0.5)
    assert rep.gap_freq <= 0.05
    assert 0.0 <= rep.orig_tail_freq <= 1.0
    assert 0.0 <= rep.gauss_tail_freq <= 1.0

"""Tests for blocks, preliminary estimation, and the Gaussianizing kernel."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from lecam_equiv.errors import ArgumentError, DomainError
from lecam_equiv.experiments import ExperimentDraw, design_cell, design_grid, sample_original
from lecam_equiv.families import get_family
from lecam_equiv.function_space import RegressionFunction, rate_gamma_bar
from lecam_equiv.globalization import (
    BLOCK_EXPONENT,
    StepFunction,
    block_partition,
    gamma_scale_estimate,
    gaussianize,
    homoscedastic_transform_check,
    preliminary_estimate,
    risk_transfer_demo,
)

from oracles import risk_transfer_errors, sample_global_gaussian

KS_CRIT_1PCT = 1.628


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


def test_step_function_window_lookup():
    f = StepFunction(np.array([1.0, 2.0, 3.0, 4.0]))
    # windows are left-open: (0, .25], (.25, .5], (.5, .75], (.75, 1]
    assert f(0.25) == 1.0
    assert f(0.26) == 2.0
    assert f(1.0) == 4.0
    assert f(0.0) == 1.0  # clipped into the first window
    out = f(np.array([0.1, 0.6, 0.9]))
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, [1.0, 3.0, 4.0])
    assert isinstance(f(0.5), float)
    assert f.descriptor == "steps(4 windows)"


def test_step_function_validation():
    with pytest.raises(ArgumentError):
        StepFunction(np.array([]))
    with pytest.raises(ArgumentError):
        StepFunction(np.ones((2, 2, 2)))


def test_step_function_rows_share_the_windows():
    f = StepFunction(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert f.n_windows == 2
    assert np.array_equal(f(np.array([0.25, 0.75])), [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# block partition
# ---------------------------------------------------------------------------


def test_block_partition_covers_index_set():
    cuts = block_partition(1024, beta=1.0, q=0.25)
    assert cuts.dtype.kind == "i"
    blocks = [np.arange(lo + 1, hi + 1) for lo, hi in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(np.concatenate(blocks), np.arange(1, 1025))
    assert cuts[0] == 0
    assert cuts[-1] == 1024
    assert np.all(np.diff(cuts) > 0)


def test_block_partition_scale_invariants():
    n = 1024
    cuts = block_partition(n, beta=1.0, q=0.25)
    sizes = np.diff(cuts)
    m_blocks = sizes.size
    # delta_n = gamma_bar^(2 alpha'), alpha' between 1/(2 beta) and the module exponent
    alpha_prime = 0.5 + 0.25 * (BLOCK_EXPONENT - 0.5)
    assert 1.0 / 2.0 < alpha_prime < BLOCK_EXPONENT
    delta_n = rate_gamma_bar(n, 1.0) ** (2.0 * alpha_prime)
    # floor-based cuts keep sizes within one of each other
    assert sizes.max() - sizes.min() <= 1
    assert m_blocks * sizes.min() <= n <= m_blocks * sizes.max()
    # each block holds at least half the nominal count n * delta
    assert sizes.min() >= math.floor(n * delta_n / 2.0)
    # the count follows the block scale
    assert m_blocks == math.floor(1.0 / delta_n)


def test_block_count_grows_with_n():
    m_small = block_partition(1024, beta=1.0, q=0.25).size - 1
    m_large = block_partition(4096, beta=1.0, q=0.25).size - 1
    assert 2 <= m_small <= m_large


def test_block_partition_single_block_for_tiny_n():
    assert np.array_equal(block_partition(4, beta=1.0, q=0.25), [0, 4])


def test_block_partition_cuts_hold_two_points_per_block_on_every_accepted_input():
    # M_n <= (n / log n)^e with e < 0.474 over beta > 1/1.8 and q <= 1/4, so
    # no accepted (n, beta, q) yields a block of fewer than two points
    betas = [(1.0 + 1e-9) / 1.8, *np.linspace(1.0 / 1.8, 2.0, 8)[1:], 3.0, 10.0]
    ns = [*range(4, 2049), *np.unique(np.geomspace(2049, 10**9, 40).astype(int))]
    for beta in betas:
        for q in (1e-6, 0.1, 0.25):
            for n in ns:
                cuts = block_partition(int(n), beta, q)
                assert cuts[0] == 0 and cuts[-1] == n, (n, beta, q)
                sizes = np.diff(cuts)
                assert sizes.min() >= 2, (n, beta, q)


def test_block_partition_argument_checks():
    with pytest.raises(ArgumentError):
        block_partition(3, beta=1.0, q=0.25)
    with pytest.raises(ArgumentError):
        block_partition(64, beta=1.0, q=0.0)
    with pytest.raises(ArgumentError):
        block_partition(64, beta=1.0, q=0.3)
    # BLOCK_EXPONENT = 0.9 must exceed 1/(2 beta), which fails for beta = 0.55
    with pytest.raises(ArgumentError, match="block exponent"):
        block_partition(64, beta=0.55, q=0.25)


# ---------------------------------------------------------------------------
# preliminary estimator
# ---------------------------------------------------------------------------


def test_preliminary_estimate_sup_error_bernoulli():
    family = get_family("bernoulli")
    f = RegressionFunction.constant(0.5)
    n = 1 << 14
    t = design_grid(n)
    cell = design_cell(family, f, n)
    hits = 0
    seeds = 20
    for s in range(seeds):
        rng = np.random.default_rng(500 + s)
        draw = sample_original(cell, rng, seed=s)
        fhat = preliminary_estimate(family, draw, beta=1.0)
        if np.max(np.abs(fhat(t) - 0.5)) <= 0.08:
            hits += 1
    assert hits >= 0.9 * seeds


def test_preliminary_estimate_error_decreases_with_n():
    family = get_family("poisson")
    f = RegressionFunction.affine(1.5, 1.0)
    medians = []
    for n in (1 << 10, 1 << 12, 1 << 14):
        t = design_grid(n)
        truth = f(t)
        cell = design_cell(family, f, n)
        errs = []
        for s in range(15):
            rng = np.random.default_rng(900 + s)
            draw = sample_original(cell, rng, seed=s)
            fhat = preliminary_estimate(family, draw, beta=1.0)
            errs.append(float(np.max(np.abs(fhat(t) - truth))))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2]


def test_preliminary_estimate_clips_to_working_interval():
    family = get_family("bernoulli")
    n = 256
    draw = ExperimentDraw(
        model="original",
        design=design_grid(n),
        observations=np.ones(n),
        family="bernoulli",
    )
    fhat = preliminary_estimate(family, draw, beta=1.0)
    hi = family.working_interval[1]
    assert np.all(fhat.values == hi)


def test_preliminary_estimate_rejects_other_models():
    family = get_family("poisson")
    rng = np.random.default_rng(3)
    draw = sample_global_gaussian(family, RegressionFunction.constant(1.0), 64, rng)
    with pytest.raises(ArgumentError):
        preliminary_estimate(family, draw, beta=1.0)


@pytest.mark.parametrize("beta", [0.5, math.nan, math.inf])
def test_window_estimates_reject_a_bad_beta(beta):
    family = get_family("poisson")
    draw = sample_original(
        design_cell(family, RegressionFunction.constant(1.0), 64), np.random.default_rng(4)
    )
    with pytest.raises(ArgumentError, match="beta"):
        preliminary_estimate(family, draw, beta=beta)
    with pytest.raises(ArgumentError, match="beta"):
        gaussianize(family, draw, beta, np.zeros(64))


# ---------------------------------------------------------------------------
# the Gaussianizing kernel
# ---------------------------------------------------------------------------


def test_gaussianize_never_reads_the_truth_descriptor():
    # the kernel reads the family, a draw record and its noise; no field
    # of the record names f, so the truth cannot reach it
    assert list(inspect.signature(gaussianize).parameters) == [
        "family", "draw", "beta", "noise", "q",
    ]
    assert [fld.name for fld in dataclasses.fields(ExperimentDraw)] == [
        "model", "design", "observations", "family", "seed",
    ]


def test_gaussianize_is_deterministic_given_seed():
    family = get_family("poisson")
    f = RegressionFunction.affine(1.5, 1.0)
    rng = np.random.default_rng(12)
    draw = sample_original(design_cell(family, f, 256), rng, seed=2)
    noise = np.random.default_rng(5).standard_normal(256)
    kept = noise.copy()
    out_a = gaussianize(family, draw, 1.0, noise)
    out_b = gaussianize(family, draw, 1.0, noise)
    assert np.array_equal(out_a.draw.observations, out_b.draw.observations)
    assert np.array_equal(noise, kept)  # the caller's noise is read, not changed


def test_gaussianize_output_shape_and_tags():
    family = get_family("gaussian_scale")
    f = RegressionFunction.affine(2.0, 1.0)
    rng = np.random.default_rng(13)
    draw = sample_original(design_cell(family, f, 300), rng, seed=3)
    out = gaussianize(family, draw, 1.0, np.random.default_rng(6).standard_normal(300))
    assert out.draw.model == "gaussianized"
    assert out.draw.n == 300
    assert np.array_equal(out.draw.design, draw.design)
    assert (out.draw.family, out.draw.seed) == (draw.family, draw.seed)
    # the even half; the odd half holds the other 150
    assert out.kernel_descriptor.endswith(" over 150 even points")
    assert "window" in out.kernel_descriptor and "block" in out.kernel_descriptor
    assert np.all(np.isfinite(out.draw.observations))


def test_gaussianize_location_residuals_look_standard_normal():
    family = get_family("location_normal")
    f = RegressionFunction.constant(0.3)
    n = 1 << 12
    t = design_grid(n)
    truth = np.asarray(family.gamma(f(t)), dtype=float)
    passes = 0
    seeds = 10
    cell = design_cell(family, f, n)
    for s in range(seeds):
        rng = np.random.default_rng(2000 + s)
        draw = sample_original(cell, rng, seed=s)
        out = gaussianize(family, draw, 1.0, np.random.default_rng(3000 + s).standard_normal(n))
        resid = out.draw.observations - truth
        ks = stats.kstest(resid, "norm").statistic
        if ks < KS_CRIT_1PCT / math.sqrt(n):
            passes += 1
    assert passes >= 8


def test_gaussianize_bernoulli_residuals_look_standard_normal():
    family = get_family("bernoulli")
    f = RegressionFunction.constant(0.5)
    n = 1 << 14
    t = design_grid(n)
    truth = np.asarray(family.gamma(f(t)), dtype=float)
    passes = 0
    seeds = 10
    cell = design_cell(family, f, n)
    for s in range(seeds):
        rng = np.random.default_rng(4000 + s)
        draw = sample_original(cell, rng, seed=s)
        out = gaussianize(family, draw, 1.0, np.random.default_rng(5000 + s).standard_normal(n))
        resid = out.draw.observations - truth
        ks = stats.kstest(resid, "norm").statistic
        if ks < KS_CRIT_1PCT / math.sqrt(n):
            passes += 1
    assert passes >= 8


def test_gaussianize_argument_checks():
    bern = get_family("bernoulli")
    pois = get_family("poisson")
    rng = np.random.default_rng(14)
    draw = sample_original(design_cell(bern, RegressionFunction.constant(0.5), 64), rng)
    noise = np.random.default_rng(0).standard_normal(64)
    with pytest.raises(ArgumentError):
        gaussianize(pois, draw, 1.0, noise)
    small = sample_original(design_cell(bern, RegressionFunction.constant(0.5), 6), rng)
    with pytest.raises(ArgumentError):
        gaussianize(bern, small, 1.0, noise[:6])
    with pytest.raises(ArgumentError, match="does not match"):
        gaussianize(bern, draw, 1.0, noise[:63])
    with pytest.raises(ArgumentError, match="does not match"):
        gaussianize(bern, draw, 1.0, np.tile(noise, (2, 1)))
    out = gaussianize(bern, draw, 1.0, noise)
    with pytest.raises(ArgumentError):
        gaussianize(bern, out.draw, 1.0, noise)


def test_gaussianize_warns_when_block_statistics_clip():
    family = get_family("bernoulli")
    n = 128
    draw = ExperimentDraw(
        model="original",
        design=design_grid(n),
        observations=np.ones(n),  # every block mean lands above the working range
        family="bernoulli",
    )
    with pytest.warns(RuntimeWarning):
        out = gaussianize(family, draw, 1.0, np.random.default_rng(9).standard_normal(n))
    assert out.clip_warning_count >= 1
    assert np.all(np.isfinite(out.draw.observations))


def test_gaussianize_single_block_flag_for_small_n():
    family = get_family("location_normal")
    rng = np.random.default_rng(15)
    draw = sample_original(design_cell(family, RegressionFunction.constant(0.0), 8), rng)
    out = gaussianize(family, draw, 1.0, np.random.default_rng(1).standard_normal(8))
    # one block over the even half of eight points
    assert out.kernel_descriptor.endswith("; 1 stabilized block(s) over 4 even points")


def _gaussianize_per_block(family, draw, beta, rng, q=0.25):
    """Reference kernel: the per-block loop that gaussianize replaced.

    One estimate, one odd-row fill and then, block by block, a scalar
    statistic mean, clip, shift and a standard_normal call of its own.
    Returns the observations and the clip count.
    """
    n = draw.n
    odd = np.arange(0, n, 2)
    even = np.arange(1, n, 2)
    odd_draw = ExperimentDraw(
        model="original",
        design=draw.design[odd],
        observations=draw.observations[odd],
        family=draw.family,
    )
    fhat = preliminary_estimate(family, odd_draw, beta)
    y = np.empty(n)
    y[odd] = family.gamma(fhat(draw.design[odd])) + rng.standard_normal(odd.size)
    cuts = block_partition(even.size, beta, q)
    lo, hi = family.working_interval
    m_lo, m_hi = sorted((float(family.stat_mean(lo)), float(family.stat_mean(hi))))
    clip_count = 0
    t_even = draw.design[even]
    stats_even = np.asarray(family.suff_stat(draw.observations[even]), dtype=float)
    for start, stop in zip(cuts[:-1], cuts[1:]):
        rows = np.arange(start, stop)
        t_block = t_even[rows]
        stat_mean = float(stats_even[rows].mean())
        clipped = min(max(stat_mean, m_lo), m_hi)
        if clipped != stat_mean:
            clip_count += 1
        center = float(t_block.mean())
        predicted = float(family.stat_mean(fhat(center)))
        shift = float(family.vst(clipped)) - float(family.vst(predicted))
        noise = rng.standard_normal(rows.size)
        noise -= noise.mean()
        y[even[rows]] = family.gamma(fhat(t_block)) + shift + noise
    return y, clip_count


ORACLE_FUNCTIONS = {
    "poisson": RegressionFunction.affine(1.5, 1.0),
    "bernoulli": RegressionFunction.affine(0.25, 0.5),
    "gaussian_scale": RegressionFunction.affine(2.0, 1.0),
    "location_normal": RegressionFunction.sinusoid(0.5, 1.0),
}


@pytest.mark.parametrize(
    "name,f,n",
    [(name, f, n) for name, f in ORACLE_FUNCTIONS.items()
     for n in (16, 17, 64, 256, 1024, 4096)]
    + [("bernoulli", RegressionFunction.constant(0.94), 512)],
)
def test_gaussianize_matches_per_block_reference(name, f, n):
    family = get_family(name)
    draw = sample_original(design_cell(family, f, n), np.random.default_rng(n), seed=n)
    rng_ref = np.random.default_rng(900 + n)
    rng_noise = np.random.default_rng(900 + n)
    y_ref, clips_ref = _gaussianize_per_block(family, draw, 1.0, rng_ref)
    noise = rng_noise.standard_normal(n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = gaussianize(family, draw, 1.0, noise)
    assert out.draw.observations.tobytes() == y_ref.tobytes()
    assert out.clip_warning_count == clips_ref
    assert len(caught) == (1 if clips_ref else 0)
    # one standard_normal(n) takes the normals of the per-block calls
    assert rng_noise.bit_generator.state == rng_ref.bit_generator.state


# an observation whose statistic leaves each family's working mean range
CLIPPING_VALUE = {"poisson": 50.0, "bernoulli": 1.0, "gaussian_scale": 50.0,
                  "location_normal": 50.0}


def _assert_stack_matches_rows(family, stack, seeds):
    """Each row of a stacked kernel call equals its single-draw output and
    the per-block reference fed from the same seed; returns the stacked output."""
    noise = np.stack([np.random.default_rng(s).standard_normal(stack.n) for s in seeds])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = gaussianize(family, stack, 1.0, noise)
    # one warning per row whose block statistics clip, as one call per row gives
    assert len(caught) == np.count_nonzero(out.clip_warning_count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r, seed in enumerate(seeds):
            row = dataclasses.replace(stack, observations=stack.observations[r])
            single = gaussianize(family, row, 1.0, noise[r])
            y_ref, clips_ref = _gaussianize_per_block(
                family, row, 1.0, np.random.default_rng(seed)
            )
            assert out.draw.observations[r].tobytes() == single.draw.observations.tobytes()
            assert single.draw.observations.tobytes() == y_ref.tobytes()
            assert out.clip_warning_count[r] == single.clip_warning_count == clips_ref
    return out


@pytest.mark.parametrize("R", [1, 3, 50])
@pytest.mark.parametrize("n", [8, 17, 256, 4096])
@pytest.mark.parametrize("name", list(ORACLE_FUNCTIONS))
def test_stacked_gaussianize_rows_match_single_draws(name, n, R):
    family = get_family(name)
    rng = np.random.default_rng([n, R])
    cell = design_cell(family, ORACLE_FUNCTIONS[name], n)
    draw = sample_original(cell, rng)
    obs = np.stack([draw.observations]
                   + [sample_original(cell, rng).observations for _ in range(R - 1)])
    if R > 1:
        obs[1] = CLIPPING_VALUE[name]
    stack = dataclasses.replace(draw, observations=obs)
    out = _assert_stack_matches_rows(family, stack, [[n, R, r] for r in range(R)])
    assert out.draw.observations.shape == (R, n)
    if R > 1:
        assert out.clip_warning_count[1] > 0


def test_stacked_estimates_fill_empty_windows_row_by_row():
    family = get_family("poisson")
    n = 4096
    # no design point in (0.2, 0.8): the middle windows of both halves are empty
    design = np.concatenate([np.linspace(0.001, 0.2, n // 2), np.linspace(0.8, 1.0, n // 2)])
    rng = np.random.default_rng(31)
    obs = np.stack([rng.poisson(rate, n).astype(float) for rate in (0.5, 2.0, 6.0)])
    stack = ExperimentDraw("original", design, obs, "poisson")
    fhat = preliminary_estimate(family, stack, beta=1.0)
    assert np.unique(fhat.window_index(design)).size < fhat.n_windows
    for r in range(3):
        row = dataclasses.replace(stack, observations=obs[r])
        assert fhat.values[r].tobytes() == preliminary_estimate(family, row, 1.0).values.tobytes()
    out = _assert_stack_matches_rows(family, stack, [[31, r] for r in range(3)])
    gz_fhat = gamma_scale_estimate(family, out.draw, beta=1.0)
    for r in range(3):
        row = dataclasses.replace(out.draw, observations=out.draw.observations[r])
        single = gamma_scale_estimate(family, row, beta=1.0)
        assert gz_fhat.values[r].tobytes() == single.values.tobytes()


# ---------------------------------------------------------------------------
# estimation on the stabilized scale
# ---------------------------------------------------------------------------


def test_gamma_scale_estimate_recovers_truth():
    family = get_family("poisson")
    f = RegressionFunction.affine(1.5, 1.0)
    n = 1 << 12
    t = design_grid(n)
    rng = np.random.default_rng(16)
    draw = sample_global_gaussian(family, f, n, rng)
    fhat = gamma_scale_estimate(family, draw, beta=1.0)
    assert float(np.max(np.abs(fhat(t) - f(t)))) <= 0.5
    lo, hi = family.working_interval
    assert np.all((fhat.values >= lo) & (fhat.values <= hi))


def test_gamma_scale_estimate_rejects_original_data():
    family = get_family("poisson")
    rng = np.random.default_rng(17)
    draw = sample_original(design_cell(family, RegressionFunction.constant(1.0), 64), rng)
    with pytest.raises(ArgumentError):
        gamma_scale_estimate(family, draw, beta=1.0)


def test_gamma_scale_estimate_fills_empty_windows():
    family = get_family("poisson")
    n = 4096
    design = np.linspace(0.001, 0.05, n)  # all mass in the first window
    draw = ExperimentDraw(
        model="global-gaussian",
        design=design,
        observations=np.zeros(n),
        family="poisson",
    )
    fhat = gamma_scale_estimate(family, draw, beta=1.0)
    # four windows, three of them empty and filled from their neighbor
    assert fhat.n_windows == 4
    assert np.unique(fhat.window_index(design)).size == 1
    assert np.all(np.isfinite(fhat.values))
    # zero observations sit below the working range of 2 sqrt(theta),
    # so every window clips to the lower endpoint
    assert np.all(fhat.values == family.working_interval[0])


# ---------------------------------------------------------------------------
# homoscedastic transform check
# ---------------------------------------------------------------------------


def test_homoscedastic_check_zero_shift_is_zero():
    family = get_family("poisson")
    rep = homoscedastic_transform_check(
        family,
        RegressionFunction.affine(1.5, 1.0),
        RegressionFunction.constant(0.0),
        256,
    )
    assert rep.value == 0.0
    assert rep.mc_stderr is None  # a closed form has no standard error


def test_homoscedastic_check_location_is_exactly_zero():
    family = get_family("location_normal")
    for n in (1 << 8, 1 << 10, 1 << 12):
        amp = 0.5 * rate_gamma_bar(n, 1.0, 1.0)
        rep = homoscedastic_transform_check(
            family,
            RegressionFunction.affine(0.0, 0.5),
            RegressionFunction.sinusoid(amp, 1.0),
            n,
        )
        assert rep.value == 0.0


def test_homoscedastic_check_bernoulli_decreases_below_threshold():
    family = get_family("bernoulli")
    f = RegressionFunction.affine(0.25, 0.1)
    values = []
    for k in range(8, 15, 2):
        n = 1 << k
        amp = 0.5 * rate_gamma_bar(n, 1.0, 1.0)
        rep = homoscedastic_transform_check(
            family, f, RegressionFunction.sinusoid(amp, 1.0), n
        )
        values.append(rep.value)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.01


def test_homoscedastic_check_argument_checks():
    family = get_family("poisson")
    with pytest.raises(ArgumentError):
        homoscedastic_transform_check(
            family,
            RegressionFunction.constant(1.0),
            RegressionFunction.constant(0.0),
            0,
        )
    # f must stay in the working interval, as for every other design entry
    with pytest.raises(DomainError, match="working interval"):
        homoscedastic_transform_check(
            get_family("bernoulli"),
            RegressionFunction.constant(0.02),
            RegressionFunction.constant(0.0),
            256,
        )


# ---------------------------------------------------------------------------
# risk transfer
# ---------------------------------------------------------------------------


def test_risk_transfer_argument_checks():
    family = get_family("location_normal")
    f = RegressionFunction.constant(0.3)
    rng = np.random.default_rng(18)
    with pytest.raises(ArgumentError):
        risk_transfer_demo(family, f, 256, [1.0], rng, R=49)
    with pytest.raises(ArgumentError):
        risk_transfer_demo(family, f, 256, [], rng, R=50)
    with pytest.raises(ArgumentError):
        risk_transfer_demo(family, f, 256, [-1.0], rng, R=50)
    # too small a design fails before the first replicate is drawn
    state = rng.bit_generator.state
    for n in (0, 4):
        with pytest.raises(ArgumentError, match="at least 8 observations"):
            risk_transfer_demo(family, f, n, [1.0], rng, R=50)
    assert rng.bit_generator.state == state


def test_risk_transfer_matches_per_replicate_oracle():
    family = get_family("bernoulli")
    f = RegressionFunction.affine(0.4, 0.2)
    # 1024 points stack 32 replicates, so 70 replicates end in a partial stack
    rng_stacked = np.random.default_rng(41)
    rng_oracle = np.random.default_rng(41)
    table = risk_transfer_demo(family, f, 1024, [0.01, 1.0], rng_stacked, R=70)
    err_a, err_b = risk_transfer_errors(family, f, 1024, rng_oracle, 70)
    assert table.sup_errors_direct.tobytes() == err_a.tobytes()
    assert table.sup_errors_transferred.tobytes() == err_b.tobytes()
    assert rng_stacked.bit_generator.state == rng_oracle.bit_generator.state


def test_risk_transfer_location_risks_same_order():
    family = get_family("location_normal")
    f = RegressionFunction.constant(0.3)
    rng = np.random.default_rng(19)
    caps = np.array([0.005, 1.0])
    table = risk_transfer_demo(family, f, 1024, caps, rng, R=60)
    assert table.sup_errors_direct.shape == (60,)
    assert table.sup_errors_transferred.shape == (60,)
    assert np.all(table.direct_risk > 0.0)
    assert np.all(table.transferred_risk > 0.0)
    # risks are monotone in the loss cap
    assert table.direct_risk[0] <= table.direct_risk[1]
    assert table.transferred_risk[0] <= table.transferred_risk[1]
    # caps bound the risks
    assert np.all(table.direct_risk <= caps)
    assert np.all(table.transferred_risk <= caps)
    # the two paths land on the same order of magnitude
    ratio = table.transferred_risk[1] / table.direct_risk[1]
    assert 1.0 / 3.0 < ratio < 3.0


def test_risk_transfer_margin_shrinks_with_n():
    family = get_family("bernoulli")
    f = RegressionFunction.affine(0.25, 0.1)
    margins = []
    for n in (1 << 10, 1 << 14):
        rng = np.random.default_rng(20)
        table = risk_transfer_demo(family, f, n, [1.0], rng, R=80)
        margins.append(abs(float(table.transferred_risk[0] - table.direct_risk[0])))
    assert margins[1] < margins[0]

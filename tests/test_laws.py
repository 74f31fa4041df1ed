"""Score-law machinery: clipped moments, characteristic functions, truncation, sum laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from lecam_equiv.coupling import CouplingPlan
from lecam_equiv.errors import ArgumentError
from lecam_equiv.experiments import design_cell
from lecam_equiv.families import PoissonScoreLaw, TabulatedLocation, get_family
from lecam_equiv.harness import StudyConfig, _local_shift
from lecam_equiv.laws import (
    SPAN_SIGMAS,
    AtomLaw,
    ScaledChi2Law,
    ScoreLaw,
    StandardNormalLaw,
    TruncatedLaw,
    WeightedSumLaw,
    apply_truncation,
    truncation_params,
)

from oracles import full_spectrum_sum_law


# ---------------------------------------------------------------------------
# atom laws
# ---------------------------------------------------------------------------


def test_atom_law_clipped_moments():
    law = AtomLaw.from_unsorted([-3.0, -1.0, 2.0], [0.25, 0.5, 0.25])
    m1, m2, p = law.clipped_moments(1.5)
    assert m1 == pytest.approx(-0.5)  # only the -1 atom survives
    assert m2 == pytest.approx(0.5)
    assert p == pytest.approx(0.5)


def _cf(law, omega):
    """Characteristic function rebuilt from the (log modulus, phase) pair."""
    lm, ph = law.log_cf(omega)
    return np.exp(lm + 1j * ph)


def test_atom_law_cf_matches_direct_sum():
    law = AtomLaw.from_unsorted([-1.0, 0.5, 2.0], [0.3, 0.4, 0.3])
    omega = np.linspace(-4.0, 4.0, 17)
    direct = sum(
        p * np.exp(1j * omega * v) for v, p in zip(law.values, law.probs)
    )
    assert np.allclose(_cf(law, omega), direct, atol=1e-14)


def test_atom_law_log_cf_floors_a_vanishing_modulus():
    # at omega = 1 the atoms -pi, 0, pi cancel exactly: cos(pi) rounds to
    # -1 and the two sines are exact negatives
    law = AtomLaw.from_unsorted([-math.pi, 0.0, math.pi], [0.25, 0.5, 0.25])
    with np.errstate(all="raise"):
        lm, ph = law.log_cf(np.array([1.0, 0.5]))
    assert lm[0] == math.log(1e-300)
    assert np.all(np.isfinite(ph))
    assert lm[1] == pytest.approx(math.log(0.5), abs=1e-15)


def test_atom_law_log_cf_rows_do_not_depend_on_the_call():
    # the score law of an 801-point normal table; each row is a fixed-order
    # sum, so a row's bits do not depend on the other rows in the call
    xs = np.linspace(-8.0, 8.0, 801)
    law = TabulatedLocation(xs, np.exp(-0.5 * xs * xs)).score_law(0.0)
    grid_size = 2048
    omega = 2.0 * np.pi * np.fft.fftfreq(grid_size, d=32.0 / grid_size)
    full = law.log_cf(omega)
    half = law.log_cf(omega[: grid_size // 2 + 1])
    for part_full, part_half in zip(full, half):
        assert part_half.tobytes() == part_full[: grid_size // 2 + 1].tobytes()
    for k in range(0, grid_size, grid_size // 16):
        one = law.log_cf(omega[k : k + 1])
        assert [part[0] for part in one] == [part[k] for part in full], k


# ---------------------------------------------------------------------------
# continuous laws
# ---------------------------------------------------------------------------


def test_standard_normal_law_clipped_moments_against_quadrature():
    law = StandardNormalLaw()
    for k in (0.5, 1.0, 2.5):
        m1, m2, p = law.clipped_moments(k)
        q2 = integrate.quad(lambda x: x * x * stats.norm.pdf(x), -k, k)[0]
        qp = integrate.quad(stats.norm.pdf, -k, k)[0]
        assert m1 == pytest.approx(0.0, abs=1e-12)
        assert m2 == pytest.approx(q2, abs=1e-10)
        assert p == pytest.approx(qp, abs=1e-10)


def test_scaled_chi2_law_matches_quadrature():
    theta = 1.7
    law = ScaledChi2Law(theta)
    assert law.second_moment() == pytest.approx(2.0 / theta**2, abs=1e-14)

    def dens(s):
        # density of (W-1)/theta, W ~ chi2(1)
        return theta * stats.chi2.pdf(1.0 + theta * s, df=1)

    lo = -1.0 / theta
    for k in (0.3, 0.9, 2.0):
        m1, m2, p = law.clipped_moments(k)
        q1 = integrate.quad(lambda s: s * dens(s), max(lo, -k) + 1e-13, k, limit=200)[0]
        q2 = integrate.quad(lambda s: s * s * dens(s), max(lo, -k) + 1e-13, k, limit=200)[0]
        qp = integrate.quad(dens, max(lo, -k) + 1e-13, k, limit=200)[0]
        assert m1 == pytest.approx(q1, abs=1e-8)
        assert m2 == pytest.approx(q2, abs=1e-8)
        assert p == pytest.approx(qp, abs=1e-8)


@pytest.mark.parametrize("df", [1, 3, 5])
def test_chdtr_is_scipys_chi2_cdf_bit_for_bit(df):
    rng = np.random.default_rng(df)
    x = np.concatenate(
        [[0.0, np.inf], rng.uniform(0.0, 4.0, 100_000), rng.exponential(20.0, 100_000)]
    )
    assert special.chdtr(df, x).tobytes() == stats.chi2.cdf(x, df).tobytes()


@pytest.mark.parametrize("theta", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("kappa", [0.5, 2.0])
def test_scaled_chi2_clipped_moments_are_the_stats_formula_bit_for_bit(theta, kappa):
    # k = kappa / theta: below 1/theta the lower bound 1 - theta k is positive, above it 0
    k = kappa / theta
    lo, hi = max(0.0, 1.0 - theta * k), 1.0 + theta * k
    assert (lo == 0.0) == (kappa > 1.0)
    cdf = stats.chi2.cdf
    p_in = cdf(hi, 1) - cdf(lo, 1)
    ew = cdf(hi, 3) - cdf(lo, 3)
    ew2 = 3.0 * (cdf(hi, 5) - cdf(lo, 5))
    expected = ((ew - p_in) / theta, (ew2 - 2.0 * ew + p_in) / theta**2, p_in)
    got = ScaledChi2Law(theta).clipped_moments(k)
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_scaled_chi2_cf_matches_quadrature():
    # substitute w = v^2 so the chi2(1) density singularity disappears:
    # E g((W-1)/theta) = int_0^inf g((v^2-1)/theta) * 2 exp(-v^2/2)/sqrt(2 pi) dv
    theta = 1.3
    law = ScaledChi2Law(theta)
    norm = 2.0 / math.sqrt(2.0 * math.pi)

    for omega in (0.5, 1.5):
        re = integrate.quad(
            lambda v: math.cos(omega * (v * v - 1.0) / theta)
            * norm
            * math.exp(-0.5 * v * v),
            0,
            9,
            limit=300,
        )[0]
        im = integrate.quad(
            lambda v: math.sin(omega * (v * v - 1.0) / theta)
            * norm
            * math.exp(-0.5 * v * v),
            0,
            9,
            limit=300,
        )[0]
        val = _cf(law, np.array([omega]))[0]
        assert val.real == pytest.approx(re, abs=1e-8)
        assert val.imag == pytest.approx(im, abs=1e-8)


def test_poisson_score_law_cf_matches_atom_sum():
    law = PoissonScoreLaw(2.5)
    atoms = law.atoms()
    omega = np.linspace(-3.0, 3.0, 13)
    direct = np.exp(1j * np.outer(omega, atoms.values)) @ atoms.probs
    assert np.allclose(_cf(law, omega), direct, atol=1e-12)


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_bernoulli_log_cf_matches_atom_law(theta):
    law = get_family("bernoulli").score_law(theta)
    oracle = AtomLaw(law.values, law.probs)
    assert isinstance(law, AtomLaw) and law.atoms() is law
    omega = np.linspace(-100.0, 100.0, 4001)
    log_mod, phase = law.log_cf(omega)
    ref_mod, ref_phase = oracle.log_cf(omega)
    # as complex numbers: the phases agree mod 2 pi, and at theta = 1/2
    # the modulus has zeros where the log modulus cannot be compared.
    # Both forms round cos/sin arguments of size up to |omega| max|v|.
    tol = 4.0 * np.finfo(float).eps * 100.0 * np.abs(law.values).max()
    cf = np.exp(log_mod + 1j * phase)
    ref = np.exp(ref_mod + 1j * ref_phase)
    assert np.max(np.abs(cf - ref)) < tol
    away = ref_mod > -1.0
    assert np.max(np.abs(log_mod - ref_mod)[away]) < 3.0 * tol


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncation_restores_second_moment_exactly():
    # the three-point kick restores the variance removed by clipping
    for law in (
        get_family("bernoulli").score_law(0.3),
        PoissonScoreLaw(1.5),
        StandardNormalLaw(),
        ScaledChi2Law(2.0),
    ):
        tp = truncation_params(law, clip_level=1.2, c1=2.0)
        trunc = TruncatedLaw(law, tp)
        assert trunc.second_moment() == pytest.approx(
            law.second_moment(), abs=1e-12
        ), type(law).__name__


def test_apply_truncation_matches_atom_law():
    rng = np.random.default_rng(42)
    # atoms -4/3 (p=3/4) and 4 (p=1/4); clip at 2 keeps only the first
    fam = get_family("bernoulli")
    base = fam.score_law(0.25)
    tp = truncation_params(base, clip_level=2.0, c1=2.0)
    trunc = TruncatedLaw(base, tp)
    assert tp.p <= 0.5
    theta = np.full(100_000, 0.25)
    xi = fam.score(fam.sample(theta, rng), theta)
    star = apply_truncation(xi, tp.clip_level, tp.clip_mean, tp.p, tp.x_n, rng)
    assert np.mean(star**2) == pytest.approx(trunc.second_moment(), rel=0.02)
    # every realized value sits on a truncated-law atom
    atoms = trunc.atoms()
    assert atoms is not None
    dist = np.min(np.abs(star[:, None] - atoms.values[None, :]), axis=1)
    assert np.max(dist) < 1e-12


def _unmerged_truncated_atoms(base, tp):
    """One atom per (base atom, kick), as before equal values were merged."""
    clipped = np.where(np.abs(base.values) <= tp.clip_level, base.values, 0.0)
    eta = clipped - tp.clip_mean
    kicks = np.array([-tp.x_n, 0.0, tp.x_n])
    kick_probs = np.array([tp.p, 1.0 - 2.0 * tp.p, tp.p])
    vals = (eta[:, None] + kicks[None, :]).ravel()
    probs = (base.probs[:, None] * kick_probs[None, :]).ravel()
    keep = probs > 0
    return AtomLaw.from_unsorted(vals[keep], probs[keep])


def _atom_cdf(law, s):
    """P(xi <= s) summed from the atoms, for each probe value s."""
    return np.array([law.probs[law.values <= v].sum() for v in s])


def test_truncated_atoms_merge_equal_values():
    base = PoissonScoreLaw(1.0)
    tp = truncation_params(base, 0.8, 2.0)
    merged = TruncatedLaw(base, tp).atoms()
    unmerged = _unmerged_truncated_atoms(base.atoms(), tp)
    # every Poisson score beyond the clip level lands on one value
    assert unmerged.values.size == 261
    assert merged.values.size == 3
    assert np.all(np.diff(merged.values) > 0)
    probe = np.concatenate([unmerged.values, np.linspace(-4.0, 4.0, 41)])
    assert np.max(np.abs(_atom_cdf(merged, probe) - _atom_cdf(unmerged, probe))) <= 1e-15
    assert merged.second_moment() == pytest.approx(unmerged.second_moment(), abs=1e-15)


def test_truncation_params_rejects_small_kick_constant():
    from lecam_equiv.errors import TruncationConstantError

    base = get_family("bernoulli").score_law(0.25)
    # clip level below both atom magnitudes clips everything: v2 is the
    # full variance 16/3, so x_n = c1 * 1.0 must be at least sqrt(16/3)
    with pytest.raises(TruncationConstantError) as exc:
        truncation_params(base, clip_level=1.0, c1=2.0)
    assert exc.value.suggested_c1 > math.sqrt(16.0 / 3.0)
    # the suggested constant works
    tp = truncation_params(base, clip_level=1.0, c1=exc.value.suggested_c1)
    assert tp.p <= 0.5


# ---------------------------------------------------------------------------
# weighted sum laws
# ---------------------------------------------------------------------------


def test_weighted_sum_law_uniformizes_discrete_sums():
    rng = np.random.default_rng(31)
    fam = get_family("bernoulli")
    n = 64
    thetas = np.linspace(0.3, 0.7, n)
    weights = 0.08 * np.sin(2.0 * np.pi * np.arange(1, n + 1) / n) + 0.15
    laws = [fam.score_law(t) for t in thetas]
    sum_law = WeightedSumLaw(laws, weights)
    theta = np.tile(thetas, (4000, 1))
    t = fam.score(fam.sample(theta, rng), theta) @ weights
    # sigma matches the analytic variance
    var = float(np.sum(weights**2 * fam.fisher(thetas)))
    assert sum_law.sigma == pytest.approx(math.sqrt(var), abs=1e-12)
    u = sum_law.uniformize(t, rng.standard_normal(t.shape))
    stat = stats.kstest(u, "uniform").statistic
    assert stat < 1.63 / math.sqrt(4000)


def test_weighted_sum_law_poisson_mixture():
    rng = np.random.default_rng(77)
    n = 48
    thetas = np.linspace(1.0, 2.0, n)
    weights = np.full(n, 0.11)
    laws = [PoissonScoreLaw(t) for t in thetas]
    sum_law = WeightedSumLaw(laws, weights)
    fam = get_family("poisson")
    theta = np.tile(thetas, (4000, 1))
    t = fam.score(fam.sample(theta, rng), theta) @ weights
    u = sum_law.uniformize(t, rng.standard_normal(t.shape))
    assert stats.kstest(u, "uniform").statistic < 1.63 / math.sqrt(4000)


def test_weighted_sum_law_degenerate_weights():
    laws = [StandardNormalLaw() for _ in range(4)]
    with pytest.raises(ArgumentError, match="positive variance"):
        WeightedSumLaw(laws, np.zeros(4))


def _complex_cf(law, omega):
    """Characteristic function in complex arithmetic, independent of log_cf."""
    if isinstance(law, PoissonScoreLaw):
        t = omega / law.theta
        return np.exp(law.theta * (np.exp(1j * t) - 1.0) - 1j * omega)
    if isinstance(law, ScaledChi2Law):
        t = omega / law.theta
        return (1.0 - 2j * t) ** (-0.5) * np.exp(-1j * t)
    atoms = law.atoms()
    return np.exp(1j * np.outer(omega, atoms.values)) @ atoms.probs


def _complex_cdf_grid(laws, weights, grid_size):
    """Sum-law CDF grid from complex log cfs: the product cf is formed as
    exp(sum of log cf), each modulus floored at 1e-300."""
    sigma = math.sqrt(sum(w * w * law.second_moment() for law, w in zip(laws, weights)))
    span = 16.0 * sigma
    dx = 2.0 * span / grid_size
    omega = 2.0 * np.pi * np.fft.fftfreq(grid_size, d=dx)
    log_phi = np.zeros(grid_size, dtype=complex)
    for law, w in zip(laws, weights):
        val = _complex_cf(law, omega * w)
        log_phi += np.log(np.where(np.abs(val) > 1e-300, val, 1e-300))
    phi = np.exp(log_phi - 0.5 * (dx * omega) ** 2)
    dens = np.real(np.fft.ifft(phi * np.exp(1j * omega * span))) / dx
    cdf = np.cumsum(np.maximum(dens, 0.0)) * dx
    return cdf / cdf[-1]


def _truncated_poisson_laws(thetas):
    laws = [PoissonScoreLaw(t) for t in thetas]
    return [TruncatedLaw(law, truncation_params(law, 0.8, 2.0)) for law in laws]


@pytest.mark.parametrize(
    "build",
    [
        lambda th: [PoissonScoreLaw(t) for t in 1.0 + th],
        # bernoulli with theta crossing 1/2 (exactly 1/2 at the middle
        # point, where the cf is cos(2 omega) and has zeros)
        lambda th: [get_family("bernoulli").score_law(t) for t in 0.3 + 0.4 * th],
        lambda th: [get_family("gaussian_scale").score_law(t) for t in 0.5 + th],
        lambda th: _truncated_poisson_laws(1.0 + th),
    ],
    ids=["poisson", "bernoulli", "gaussian_scale", "truncated_poisson"],
)
def test_weighted_sum_law_cdf_grid_matches_complex_oracle(build):
    n = 17
    th = np.linspace(0.0, 1.0, n)
    laws = build(th)
    weights = 0.15 + 0.08 * np.sin(2.0 * np.pi * np.arange(1, n + 1) / n)
    sum_law = WeightedSumLaw(laws, weights, grid_size=1 << 13)
    oracle = _complex_cdf_grid(laws, weights, 1 << 13)
    assert np.max(np.abs(sum_law.cdf_grid - oracle)) < 1e-13


def _tabulated_laws(th):
    # the generic AtomLaw log cf, on a table coarse enough to stay cheap
    xs = np.linspace(-8.0, 8.0, 101)
    law = TabulatedLocation(xs, np.exp(-0.5 * xs * xs)).score_law(0.0)
    return [law] * th.size


@pytest.mark.parametrize("grid_size", [256, 1 << 14])
@pytest.mark.parametrize(
    "build",
    [
        lambda th: [get_family("bernoulli").score_law(t) for t in 0.3 + 0.4 * th],
        lambda th: [PoissonScoreLaw(t) for t in 1.0 + th],
        lambda th: [get_family("gaussian_scale").score_law(t) for t in 0.5 + th],
        _tabulated_laws,
        lambda th: _truncated_poisson_laws(1.0 + th),
    ],
    ids=["bernoulli", "poisson", "scaled_chi2", "tabulated_atoms", "truncated_poisson"],
)
def test_half_spectrum_sum_law_matches_full_spectrum(build, grid_size):
    n = 17
    th = np.linspace(0.0, 1.0, n)
    laws = build(th)
    weights = 0.15 + 0.08 * np.sin(2.0 * np.pi * np.arange(1, n + 1) / n)
    weights[5] = 0.0
    sum_law = WeightedSumLaw(laws, weights, grid_size=grid_size)
    grid, cdf_grid, clipped_mass = full_spectrum_sum_law(laws, weights, grid_size)
    assert sum_law.grid.tobytes() == grid.tobytes()
    assert sum_law.cdf_grid.tobytes() == cdf_grid.tobytes()
    assert sum_law.clipped_mass == clipped_mass


# Negative FFT density mass the sum-law build may clip: an absolute bound
# on probability, well above the largest value on the pinned plans below
# (8.9e-10, bernoulli at n = 32).
CLIPPED_MASS_BOUND = 1e-8


@pytest.mark.parametrize(
    "family, f_desc, L, n, grid",
    [
        ("poisson", "affine(1.5, 1.0)", 3.0, 16, 1 << 16),
        ("poisson", "affine(1.5, 1.0)", 3.0, 1024, 1 << 10),
        ("bernoulli", "affine(0.4, 0.2)", 1.0, 32, 1 << 14),
        ("bernoulli", "affine(0.4, 0.2)", 1.0, 64, 1 << 14),
    ],
)
def test_clipped_mass_is_small_on_pinned_plans(family, f_desc, L, n, grid):
    # the plans of the benchmark's local-hellinger configs
    config = StudyConfig(kind="local-hellinger", family=family, f_desc=f_desc, L=L, c_rate=0.5)
    plan = CouplingPlan(config.resolve_family(), config.resolve_f(), _local_shift(config, n), n,
                        c_rate=config.c_rate, grid_size=grid)
    assert 0.0 <= plan.sum_law.clipped_mass < CLIPPED_MASS_BOUND
    # too coarse a grid leaves ringing that the clip must remove
    laws = [plan.cell.family.score_law(float(t)) for t in plan.cell.theta]
    assert WeightedSumLaw(laws, plan.h_values, grid_size=16).clipped_mass > CLIPPED_MASS_BOUND


# ---------------------------------------------------------------------------
# the live band: bins whose log modulus has underflowed leave the build
# ---------------------------------------------------------------------------

_PLAN_SETUPS = {
    "poisson": ("affine(1.5, 1.0)", 3.0),
    "bernoulli": ("affine(0.4, 0.2)", 1.0),
    "gaussian_scale": ("affine(2.0, 1.0)", 3.0),
}


def _plan_laws(family, n, scale=1.0):
    """Score laws and shift weights of the local-hellinger plan at design size n."""
    f_desc, L = _PLAN_SETUPS[family]
    config = StudyConfig(kind="local-hellinger", family=family, f_desc=f_desc, L=L, c_rate=0.5)
    fam = config.resolve_family()
    cell = design_cell(fam, config.resolve_f(), n)
    weights = scale * np.asarray(_local_shift(config, n)(cell.t), dtype=float)
    return [fam.score_law(float(t)) for t in cell.theta], weights


def _assert_full_spectrum_bytes(laws, weights, grid_size):
    sum_law = WeightedSumLaw(laws, weights, grid_size=grid_size)
    grid, cdf_grid, clipped_mass = full_spectrum_sum_law(laws, weights, grid_size)
    assert sum_law.grid.tobytes() == grid.tobytes()
    assert sum_law.cdf_grid.tobytes() == cdf_grid.tobytes()
    assert np.float64(sum_law.clipped_mass).tobytes() == np.float64(clipped_mass).tobytes()
    return sum_law


@pytest.mark.parametrize(
    "family, n, grid_size",
    [
        ("poisson", 1024, 1024),
        ("poisson", 4096, 1 << 14),
        ("gaussian_scale", 1024, 1024),
        ("gaussian_scale", 4096, 1 << 14),
        ("bernoulli", 4096, 1 << 14),
        ("poisson", 1024, 1023),
    ],
)
def test_live_band_sum_law_is_the_full_spectrum_bit_for_bit(family, n, grid_size):
    laws, weights = _plan_laws(family, n)
    _assert_full_spectrum_bytes(laws, weights, grid_size)


def test_live_band_truncated_atoms_with_a_zero_weight_bit_for_bit():
    laws, weights = _plan_laws("poisson", 1024)
    laws = [TruncatedLaw(law, truncation_params(law, 0.8, 2.0)) for law in laws]
    weights[100] = 0.0
    _assert_full_spectrum_bytes(laws, weights, 1024)


class _RecordingLaw(ScoreLaw):
    """A score law that records the size of every frequency array it is given."""

    def __init__(self, base, sizes):
        self.base = base
        self.sizes = sizes

    def second_moment(self):
        return self.base.second_moment()

    def log_cf(self, omega):
        self.sizes.append(np.size(omega))
        return self.base.log_cf(omega)


def test_live_band_evaluates_later_laws_on_fewer_bins():
    laws, weights = _plan_laws("poisson", 1024)
    sizes = []
    recording = [_RecordingLaw(law, sizes) for law in laws]
    sum_law = WeightedSumLaw(recording, weights, grid_size=1024)
    assert sizes[0] == 1024 // 2 + 1
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < sizes[0] // 2
    assert sum_law.cdf_grid.tobytes() == WeightedSumLaw(laws, weights, 1024).cdf_grid.tobytes()


class _NanAtLaw(ScoreLaw):
    """A score law whose log modulus is NaN at the frequencies +-omega_nan."""

    def __init__(self, base, omega_nan):
        self.base = base
        self.omega_nan = omega_nan

    def second_moment(self):
        return self.base.second_moment()

    def log_cf(self, omega):
        log_mod, phase = self.base.log_cf(omega)
        return np.where(np.abs(omega) == self.omega_nan, np.nan, log_mod), phase


def test_live_band_keeps_a_nan_bin_and_propagates_it_as_the_full_spectrum_does():
    laws, weights = _plan_laws("poisson", 1024)
    grid_size = 1024
    sigma = math.sqrt(sum(w * w * law.second_moment() for law, w in zip(laws, weights)))
    omega = 2.0 * np.pi * np.fft.fftfreq(grid_size, d=2.0 * SPAN_SIGMAS * sigma / grid_size)
    # bin 400 of 513 leaves the band once its log modulus underflows; a NaN
    # put there by the first law must keep it live, as NaN < cut is false
    laws[0] = _NanAtLaw(laws[0], abs(omega[400] * weights[0]))
    sum_law = WeightedSumLaw(laws, weights, grid_size=grid_size)
    grid, cdf_grid, clipped_mass = full_spectrum_sum_law(laws, weights, grid_size)
    assert np.isnan(sum_law.cdf_grid).all() and np.isnan(sum_law.clipped_mass)
    assert sum_law.cdf_grid.tobytes() == cdf_grid.tobytes()
    assert np.float64(sum_law.clipped_mass).tobytes() == np.float64(clipped_mass).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(sorted(_PLAN_SETUPS)),
    n=st.integers(1, 512),
    grid_size=st.integers(256, 4096),
    scale=st.floats(0.05, 20.0),
)
def test_live_band_matches_the_full_spectrum_on_random_plans(family, n, grid_size, scale):
    laws, weights = _plan_laws(family, n, scale)
    _assert_full_spectrum_bytes(laws, weights, grid_size)


# ---------------------------------------------------------------------------
# exact laws: the grid CDF against the law of the weighted sum itself
# ---------------------------------------------------------------------------

_LAW_OF_MINUS_T = "ROADMAP item 20: the grid holds the law of −T"


@pytest.mark.xfail(reason=_LAW_OF_MINUS_T)
def test_sum_law_cdf_between_the_atoms_of_one_bernoulli_score():
    # the score of Bernoulli(0.2) is -1.25 with probability 0.8 and 5.0 otherwise
    law = get_family("bernoulli").score_law(0.2)
    assert law.atoms().values.tolist() == pytest.approx([-1.25, 5.0], abs=1e-12)
    sum_law = WeightedSumLaw([law], np.ones(1), grid_size=1 << 12)
    assert np.interp(1.875, sum_law.grid, sum_law.cdf_grid) == pytest.approx(0.8, abs=1e-3)


@pytest.mark.xfail(reason=_LAW_OF_MINUS_T)
@pytest.mark.parametrize("k", [4, 32])
def test_sum_law_of_scaled_chi2_scores_is_the_shifted_chi2(k):
    # at theta = 1 each score is W - 1 with W ~ chi2(1), so the sum is chi2(k) - k
    laws = [get_family("gaussian_scale").score_law(1.0)] * k
    sum_law = WeightedSumLaw(laws, np.ones(k), grid_size=1 << 14)
    exact = stats.chi2(k).cdf(sum_law.grid + k)
    assert np.max(np.abs(sum_law.cdf_grid - exact)) <= 2e-3

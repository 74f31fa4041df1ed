"""Score-law machinery: moments, characteristic functions, sum laws."""

import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from lecam_equiv.coupling import CouplingPlan
from lecam_equiv.errors import ArgumentError
from lecam_equiv.experiments import design_cell
from lecam_equiv import families as families_module
from lecam_equiv.families import PoissonScoreLaw, TabulatedLocation, get_family
from lecam_equiv import laws as laws_module
from lecam_equiv.harness import StudyConfig, _local_shift, parse_config
from lecam_equiv.laws import (
    SPAN_SIGMAS,
    AtomLaw,
    ScaledChi2Law,
    ScoreLaw,
    StandardNormalLaw,
    WeightedSumLaw,
)

from oracles import full_spectrum_sum_law, log_cf


# ---------------------------------------------------------------------------
# atom laws
# ---------------------------------------------------------------------------


def _cf(law, omega):
    """Characteristic function rebuilt from the oracle's (log modulus, phase) pair."""
    lm, ph = log_cf(law, omega)
    return np.exp(lm + 1j * ph)


def test_atom_law_cf_matches_direct_sum():
    law = AtomLaw.from_unsorted([-1.0, 0.5, 2.0], [0.3, 0.4, 0.3])
    omega = np.linspace(-4.0, 4.0, 17)
    direct = sum(
        p * np.exp(1j * omega * v) for v, p in zip(law.values, law.probs)
    )
    assert np.allclose(_cf(law, omega), direct, atol=1e-14)


def test_atom_law_log_cf_floors_a_vanishing_modulus():
    # at omega = 1 the atoms -pi, 0, pi cancel exactly: relative to the
    # first they sit at 0, pi and 2 pi, cos(pi) rounds to -1 and
    # sin(2 pi) to exactly -2 sin(pi)
    law = AtomLaw.from_unsorted([-math.pi, 0.0, math.pi], [0.25, 0.5, 0.25])
    with np.errstate(all="raise"):
        lm, ph = log_cf(law, np.array([1.0, 0.5]))
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
    full = log_cf(law, omega)
    half = log_cf(law, omega[: grid_size // 2 + 1])
    for part_full, part_half in zip(full, half):
        assert part_half.tobytes() == part_full[: grid_size // 2 + 1].tobytes()
    for k in range(0, grid_size, grid_size // 16):
        one = log_cf(law, omega[k : k + 1])
        assert [part[0] for part in one] == [part[k] for part in full], k


# ---------------------------------------------------------------------------
# continuous laws
# ---------------------------------------------------------------------------


def test_scaled_chi2_law_matches_quadrature():
    theta = 1.7
    law = ScaledChi2Law(theta)
    assert law.second_moment() == pytest.approx(2.0 / theta**2, abs=1e-14)

    def dens(s):
        # density of (W-1)/theta, W ~ chi2(1)
        return theta * stats.chi2.pdf(1.0 + theta * s, df=1)

    lo = -1.0 / theta
    q2 = integrate.quad(lambda s: s * s * dens(s), lo + 1e-13, np.inf, limit=200)[0]
    assert law.second_moment() == pytest.approx(q2, abs=1e-8)


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
    # the Poisson form, which the sum-law build reads, and the pmf on the
    # family's support atoms describe the same law
    theta = 2.5
    law = PoissonScoreLaw(theta)
    rate, step, offset = law.poisson_form()
    xs = families_module.Poisson().support_atoms(theta)
    atoms = AtomLaw(xs / theta - 1.0, families_module._poisson_pmf(xs, theta))
    omega = np.linspace(-3.0, 3.0, 13)
    form_cf = np.exp(rate * (np.exp(1j * omega * step) - 1.0) + 1j * omega * offset)
    direct = np.exp(1j * np.outer(omega, atoms.values)) @ atoms.probs
    assert np.allclose(form_cf, direct, atol=1e-12)
    assert rate * step**2 == pytest.approx(law.second_moment(), rel=1e-15)
    assert atoms.second_moment() == pytest.approx(law.second_moment(), rel=1e-12)


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_bernoulli_log_cf_matches_atom_law(theta):
    # the Bernoulli score law is the atom law of its two scores, so its cf
    # is the atom law's: no closed form of its own
    fam = get_family("bernoulli")
    law = fam.score_law(theta)
    assert type(law) is AtomLaw and law.atoms() is law
    assert law.values.tobytes() == np.array([-1.0 / (1.0 - theta), 1.0 / theta]).tobytes()
    assert law.probs.tobytes() == np.array([1.0 - theta, theta]).tobytes()
    assert np.allclose(law.values, fam.score(np.array([0.0, 1.0]), theta), rtol=1e-15, atol=0.0)


def _package_score_laws():
    """Every ScoreLaw subclass defined in the package."""
    for module in (laws_module, families_module):
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, ScoreLaw) and obj is not ScoreLaw:
                if obj.__module__ == module.__name__:
                    yield obj


def test_a_score_law_gives_the_sum_law_build_one_characteristic_function():
    # a law with a Poisson form or atoms is built from them: a log_cf of its
    # own, defined or inherited, would be a second cf that nothing reads
    checked = []
    for cls in _package_score_laws():
        has_form = cls.poisson_form is not ScoreLaw.poisson_form or cls.atoms is not ScoreLaw.atoms
        has_log_cf = cls.log_cf is not ScoreLaw.log_cf
        assert not (has_form and has_log_cf), cls.__name__
        if has_log_cf:
            checked.append(cls.__name__)
    assert sorted(checked) == ["ScaledChi2Law", "StandardNormalLaw"]


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


@pytest.mark.parametrize("n_weights", [3, 5])
def test_weighted_sum_law_needs_one_weight_per_law(n_weights):
    laws = [PoissonScoreLaw(1.5) for _ in range(4)]
    with pytest.raises(ArgumentError, match="one weight per law"):
        WeightedSumLaw(laws, np.full(n_weights, 0.1), grid_size=256)
    with pytest.raises(ArgumentError, match="one weight per law"):
        WeightedSumLaw(laws, np.full((4, 1), 0.1), grid_size=256)


@pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan, 1e200])
def test_weighted_sum_law_rejects_a_non_finite_variance_without_warnings(weight):
    laws = [PoissonScoreLaw(1.5) for _ in range(3)]
    weights = np.array([0.1, weight, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="finite positive variance"):
            WeightedSumLaw(laws, weights, grid_size=256)


@pytest.mark.parametrize("grid_size", [0, 1, -4, 2.5, 256.0, True, "256"])
def test_weighted_sum_law_needs_an_integer_grid_of_at_least_two(grid_size):
    laws = [PoissonScoreLaw(1.5) for _ in range(3)]
    with pytest.raises(ArgumentError, match="grid_size"):
        WeightedSumLaw(laws, np.full(3, 0.1), grid_size=grid_size)


def test_weighted_sum_law_builds_on_the_smallest_grid():
    laws = [PoissonScoreLaw(1.5) for _ in range(3)]
    for grid_size in (2, np.int64(3)):
        sum_law = WeightedSumLaw(laws, np.full(3, 0.1), grid_size=grid_size)
        assert sum_law.cdf_grid.shape == (grid_size,) and sum_law.cdf_grid[-1] == 1.0


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


def _irregular_atom_laws(th):
    """Mean-zero atom laws with irregular spacing, one per entry of th in [0, 1].

    A law has 3, 6, 9 or 12 atoms as th rises, so runs of points share an
    atom count and the sum-law build adds them in blocks of each size.
    """
    laws = []
    for t in th:
        j = np.arange(3 * (1 + min(int(3.5 * t), 3)))
        gaps = 0.2 + 0.5 * np.modf((j + 1) * 0.618034 + t)[0]
        values = np.cumsum(gaps)
        probs = 1.0 + np.modf((j + 1) * 0.414214 + 2.0 * t)[0]
        probs /= probs.sum()
        laws.append(AtomLaw(values - np.dot(probs, values), probs))
    return laws


@pytest.mark.parametrize(
    "build",
    [
        lambda th: [PoissonScoreLaw(t) for t in 1.0 + th],
        # bernoulli with theta crossing 1/2 (exactly 1/2 at the middle
        # point, where the cf is cos(2 omega) and has zeros)
        lambda th: [get_family("bernoulli").score_law(t) for t in 0.3 + 0.4 * th],
        lambda th: [get_family("gaussian_scale").score_law(t) for t in 0.5 + th],
        _irregular_atom_laws,
    ],
    ids=["poisson", "bernoulli", "gaussian_scale", "irregular_atoms"],
)
def test_weighted_sum_law_cdf_grid_matches_complex_oracle(build):
    n = 17
    th = np.linspace(0.0, 1.0, n)
    laws = build(th)
    weights = 0.15 + 0.08 * np.sin(2.0 * np.pi * np.arange(1, n + 1) / n)
    sum_law = WeightedSumLaw(laws, weights, grid_size=1 << 13)
    oracle = _complex_cdf_grid(laws, weights, 1 << 13)
    assert np.max(np.abs(sum_law.cdf_grid - oracle)) < 1e-13


# Absolute agreement of cdf_grid and clipped_mass with the full-spectrum
# reference build, which evaluates every law by oracles.log_cf.  The
# rotation tables and the atom product round differently from it; the
# largest gap on the cases below is about 3e-14 (poisson at n = 4096).
ORACLE_TOL = 1e-12


def _through_log_cf(laws):
    """Whether the build evaluates every law by its log_cf, not by rotation tables."""
    return all(law.poisson_form() is None and law.atoms() is None for law in laws)


def _assert_matches_full_spectrum(laws, weights, grid_size):
    sum_law = WeightedSumLaw(laws, weights, grid_size=grid_size)
    grid, cdf_grid, clipped_mass = full_spectrum_sum_law(laws, weights, grid_size)
    assert sum_law.grid.tobytes() == grid.tobytes()
    if _through_log_cf(laws):
        # the same per-bin arithmetic as the reference: the same bytes
        assert sum_law.cdf_grid.tobytes() == cdf_grid.tobytes()
        assert np.float64(sum_law.clipped_mass).tobytes() == np.float64(clipped_mass).tobytes()
    assert np.max(np.abs(sum_law.cdf_grid - cdf_grid)) <= ORACLE_TOL
    assert abs(sum_law.clipped_mass - clipped_mass) <= ORACLE_TOL
    return sum_law


def _assert_cut_keeps_the_bytes(laws, weights, grid_size):
    """The live band against the same build with no row ever dropped."""
    sum_law = WeightedSumLaw(laws, weights, grid_size=grid_size)
    with mock.patch.object(laws_module, "_LIVE_CUT", -np.inf):
        uncut = WeightedSumLaw(laws, weights, grid_size=grid_size)
    assert sum_law.cdf_grid.tobytes() == uncut.cdf_grid.tobytes()
    assert np.float64(sum_law.clipped_mass).tobytes() == np.float64(uncut.clipped_mass).tobytes()


def _tabulated_laws(th):
    # a 101-atom law, on a table coarse enough to stay cheap
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
        _irregular_atom_laws,
    ],
    ids=["bernoulli", "poisson", "scaled_chi2", "tabulated_atoms", "irregular_atoms"],
)
def test_half_spectrum_sum_law_matches_full_spectrum(build, grid_size):
    n = 17
    th = np.linspace(0.0, 1.0, n)
    laws = build(th)
    weights = 0.15 + 0.08 * np.sin(2.0 * np.pi * np.arange(1, n + 1) / n)
    weights[5] = 0.0
    _assert_matches_full_spectrum(laws, weights, grid_size)


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


_LIVE_BAND_PLANS = [
    ("poisson", 1024, 1024),
    ("poisson", 4096, 1 << 14),
    ("gaussian_scale", 1024, 1024),
    ("gaussian_scale", 4096, 1 << 14),
    ("bernoulli", 4096, 1 << 14),
    ("poisson", 1024, 1023),
]


# The live band against two full spectra: the reference build, which
# evaluates every bin by oracles.log_cf, within ORACLE_TOL (bytes for laws
# that the build evaluates by log_cf too), and the build with no row
# dropped, byte for byte.
@pytest.mark.parametrize("family, n, grid_size", _LIVE_BAND_PLANS)
def test_live_band_sum_law_is_the_full_spectrum_bit_for_bit(family, n, grid_size):
    laws, weights = _plan_laws(family, n)
    _assert_matches_full_spectrum(laws, weights, grid_size)
    _assert_cut_keeps_the_bytes(laws, weights, grid_size)


def test_live_band_irregular_atoms_with_a_zero_weight_bit_for_bit():
    _, weights = _plan_laws("poisson", 1024)
    laws = _irregular_atom_laws(np.linspace(0.0, 1.0, weights.size))
    weights[100] = 0.0
    _assert_matches_full_spectrum(laws, weights, 1024)
    _assert_cut_keeps_the_bytes(laws, weights, 1024)


_BENCHMARK_CONFIGS = sorted(
    (Path(__file__).resolve().parent.parent / "perfbench" / "configs" / "coupling").glob("*.ini")
)


def _benchmark_plans():
    """(family, score laws, weights, grid size) of every plan the coupling benchmark builds."""
    for path in _BENCHMARK_CONFIGS:
        config = parse_config(path)
        fam = config.resolve_family()
        for n in config.n_grid:
            cell = design_cell(fam, config.resolve_f(), n)
            weights = np.asarray(_local_shift(config, n)(cell.t), dtype=float)
            laws = [fam.score_law(float(t)) for t in cell.theta]
            yield config.family, laws, weights, config.coupling_grid


def test_live_cut_keeps_the_bytes_of_the_benchmark_plans(monkeypatch):
    plans = list(_benchmark_plans())
    assert len(plans) == 8
    built = [WeightedSumLaw(laws, w, grid_size=g) for _, laws, w, g in plans]
    monkeypatch.setattr(laws_module, "_LIVE_CUT", -np.inf)
    for sum_law, (_, laws, w, g) in zip(built, plans):
        uncut = WeightedSumLaw(laws, w, grid_size=g)
        assert sum_law.cdf_grid.tobytes() == uncut.cdf_grid.tobytes()
        assert np.float64(sum_law.clipped_mass).tobytes() == np.float64(uncut.clipped_mass).tobytes()


def test_sum_law_builds_raise_no_floating_point_error():
    # bernoulli at theta = 1/2 has the two-atom cf cos(2 omega w), with exact
    # zeros.  With 64 equal weights bin 64 of 2^12 sits on the first zero,
    # so a block's product there underflows to 0.0: its modulus must be
    # floored before it is divided out
    half = get_family("bernoulli").score_law(0.5)
    cases = [(laws, w, g) for _, laws, w, g in _benchmark_plans()]
    cases += [([half] * k, np.full(k, 1.0 / math.sqrt(k)), 1 << 12) for k in (1, 8, 64)]
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        for laws, w, g in cases:
            sum_law = WeightedSumLaw(laws, w, grid_size=g)
            assert np.isfinite(sum_law.cdf_grid).all() and np.isfinite(sum_law.clipped_mass)


class _RecordingLaw(ScoreLaw):
    """A score law that records the size of every frequency array it is given."""

    def __init__(self, base, sizes):
        self.base = base
        self.sizes = sizes

    def second_moment(self):
        return self.base.second_moment()

    def log_cf(self, omega):
        self.sizes.append(np.size(omega))
        return log_cf(self.base, omega)


def test_live_band_evaluates_later_laws_on_fewer_bins(monkeypatch):
    laws, weights = _plan_laws("poisson", 1024)
    grid_size = 1 << 14
    # through log_cf: the wrapper hides the Poisson form and sees every array
    sizes = []
    recording = [_RecordingLaw(law, sizes) for law in laws]
    sum_law = WeightedSumLaw(recording, weights, grid_size=grid_size)
    assert sizes[0] == grid_size // 2 + 1
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] < sizes[0] // 2
    # on the rotation tables: a probe records the live rows of every block
    rows = []
    add_block = laws_module._LiveSpectrum.add_block

    def probe(spectrum, kind, block):
        rows.append(spectrum.log_mod.shape[0])
        add_block(spectrum, kind, block)

    monkeypatch.setattr(laws_module._LiveSpectrum, "add_block", probe)
    tables = WeightedSumLaw(laws, weights, grid_size=grid_size)
    assert rows[0] == -(-(grid_size // 2 + 1) // laws_module._ROW_BINS)
    assert len(rows) > 1 and all(a >= b for a, b in zip(rows, rows[1:]))
    assert rows[-1] < rows[0] // 2
    assert np.max(np.abs(sum_law.cdf_grid - tables.cdf_grid)) <= ORACLE_TOL


class _NanAtLaw(ScoreLaw):
    """A score law whose log modulus is NaN at the frequencies +-omega_nan."""

    def __init__(self, base, omega_nan):
        self.base = base
        self.omega_nan = omega_nan

    def second_moment(self):
        return self.base.second_moment()

    def log_cf(self, omega):
        log_mod, phase = log_cf(self.base, omega)
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
    _assert_matches_full_spectrum(laws, weights, grid_size)
    _assert_cut_keeps_the_bytes(laws, weights, grid_size)


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

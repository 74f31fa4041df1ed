"""Family-level oracles: closed forms, quadrature cross-checks, regularity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from lecam_equiv.errors import ArgumentError, DomainError, NumericError, SingularityError
from lecam_equiv.families import (
    BUILTIN_FAMILIES,
    GaussianScale,
    ParametricFamily,
    TabulatedLocation,
    _COARSE,
    _FINE,
    _gauss_legendre,
    _poisson_pmf,
    _r1_remainder,
    _secant_score,
    check_regularity,
    default_delta_r2,
    get_family,
)

import lecam_equiv.families as families_module
from oracles import fisher_info_quadrature, normalization_defect, quad_r2_moments


def working_grid(family, count=20):
    lo, hi = family.working_interval
    return np.linspace(lo, hi, count)


# ---------------------------------------------------------------------------
# closed-form point values
# ---------------------------------------------------------------------------


def test_fisher_point_values():
    assert get_family("bernoulli").fisher(0.5) == pytest.approx(4.0, abs=1e-12)
    assert get_family("poisson").fisher(1.0) == pytest.approx(1.0, abs=1e-12)
    assert get_family("gaussian_scale").fisher(1.0) == pytest.approx(2.0, abs=1e-12)
    assert get_family("location_normal").fisher(0.3) == pytest.approx(1.0, abs=1e-12)


def test_gamma_point_values():
    # 2*arcsin(sqrt(0.25)) = 2*arcsin(0.5) = pi/3
    assert get_family("bernoulli").gamma(0.25) == pytest.approx(
        math.pi / 3.0, abs=1e-12
    )
    # 2*sqrt(4) = 4
    assert get_family("poisson").gamma(4.0) == pytest.approx(4.0, abs=1e-12)
    # identity map
    assert get_family("location_normal").gamma(0.7) == pytest.approx(
        0.7, abs=1e-12
    )
    # sqrt(2)*log(e) = sqrt(2)
    assert get_family("gaussian_scale").gamma(math.e) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_gamma_anchor_values():
    # anchors: arcsine at 0, square root at 0, log at 1, identity at 0
    assert get_family("gaussian_scale").gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert get_family("location_normal").gamma(0.0) == pytest.approx(0.0, abs=1e-14)
    assert get_family("poisson").gamma(1e-12) == pytest.approx(0.0, abs=1e-5)
    assert get_family("bernoulli").gamma(1e-12) == pytest.approx(0.0, abs=1e-5)


def test_gamma_inverse_round_trip():
    for name in BUILTIN_FAMILIES:
        fam = get_family(name)
        grid = working_grid(fam)
        back = fam.gamma_inverse(fam.gamma(grid))
        assert np.allclose(back, grid, atol=1e-10), name


# ---------------------------------------------------------------------------
# quadrature cross-checks
# ---------------------------------------------------------------------------


def test_fisher_quadrature_matches_closed_form():
    for name in BUILTIN_FAMILIES:
        fam = get_family(name)
        for theta in working_grid(fam, 10):
            quad = fisher_info_quadrature(fam, theta)
            assert quad == pytest.approx(float(fam.fisher(theta)), rel=1e-6), (
                name,
                theta,
            )


def test_density_normalization():
    for name in BUILTIN_FAMILIES:
        fam = get_family(name)
        tol = 1e-12 if fam.support_atoms(1.0 if name != "bernoulli" else 0.5) is not None else 1e-8
        for theta in working_grid(fam, 10):
            assert normalization_defect(fam, theta) < tol, (name, theta)


def test_score_mean_zero():
    for name in BUILTIN_FAMILIES:
        fam = get_family(name)
        tol = 1e-12 if name in ("bernoulli", "poisson") else 1e-6
        for theta in working_grid(fam, 8):
            t = float(theta)
            mean = fam.expect(t, lambda x: np.asarray(fam.score(x, t), dtype=float))
            assert abs(mean) < tol, (name, theta)


def test_gamma_derivative_is_sqrt_fisher():
    h = 1e-5
    for name in BUILTIN_FAMILIES:
        fam = get_family(name)
        for theta in working_grid(fam, 20):
            t = float(theta)
            diff = (fam.gamma(t + h) - fam.gamma(t - h)) / (2.0 * h)
            assert diff == pytest.approx(math.sqrt(float(fam.fisher(t))), rel=1e-5), (
                name,
                theta,
            )


def test_gamma_strictly_increasing():
    for name in BUILTIN_FAMILIES:
        fam = get_family(name)
        vals = fam.gamma(working_grid(fam, 50))
        assert np.all(np.diff(vals) > 0), name


# ---------------------------------------------------------------------------
# extended tangent: the secant score and its limit, the score
# ---------------------------------------------------------------------------


def test_extended_tangent_equal_parameters_is_score():
    # the secant score at u -> theta is the score
    for name in BUILTIN_FAMILIES:
        fam = get_family(name)
        lo, hi = fam.working_interval
        theta = 0.5 * (lo + hi)
        x = fam.sample(np.full(3, theta), np.random.default_rng(7))
        u = theta + 1e-7 * (hi - lo)
        secant = _secant_score(fam, x, theta, u, fam.density(x, theta))
        assert np.allclose(secant, fam.score(x, theta), rtol=1e-5, atol=1e-6), name


def test_extended_tangent_bernoulli_limit():
    fam = get_family("bernoulli")
    # score(1, 0.5) = 1/0.5 = 2 by hand differentiation of log(theta)
    target = 2.0
    errors = []
    for h in (1e-2, 1e-3, 1e-4):
        val = _secant_score(fam, 1.0, 0.5, 0.5 + h, fam.density(1.0, 0.5))
        errors.append(abs(val - target))
    # first-order convergence: error shrinks about tenfold per decade of h
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] / errors[0] == pytest.approx(0.1, rel=0.5)
    assert errors[2] / errors[1] == pytest.approx(0.1, rel=0.5)


def test_poisson_pmf_is_scipys_bit_for_bit():
    rng = np.random.default_rng(18)
    k = rng.integers(0, 400, size=200_000).astype(float)
    mu = rng.uniform(0.01, 200.0, size=k.size)
    assert _poisson_pmf(k, mu).tobytes() == stats.poisson.pmf(k, mu).tobytes()


def test_poisson_atoms_are_scipys_pmf_bit_for_bit():
    fam = get_family("poisson")
    for theta in np.linspace(0.1, 10.0, 100):
        xs = fam.support_atoms(theta)
        pmf = stats.poisson.pmf(xs, theta).tobytes()
        assert fam.density(xs, theta).tobytes() == pmf
        assert _poisson_pmf(xs, theta).tobytes() == pmf


def test_extended_tangent_poisson_value():
    # (2/0.1)*(sqrt(e^{-1.1}/e^{-1}) - 1) = 20*(e^{-0.05} - 1) = -0.9754115...
    fam = get_family("poisson")
    val = _secant_score(fam, 0.0, 1.0, 1.1, fam.density(0.0, 1.0))
    assert val == pytest.approx(20.0 * (math.exp(-0.05) - 1.0), abs=1e-12)
    assert val == pytest.approx(-0.97541150998572, abs=1e-11)


def test_extended_tangent_zero_density_raises():
    fam = get_family("poisson")
    with pytest.raises(SingularityError):
        _secant_score(fam, 0.5, 1.0, 1.1, fam.density(0.5, 1.0))


def test_fisher_domain_error():
    with pytest.raises(DomainError):
        get_family("gaussian_scale").gamma(0.0)


@pytest.mark.parametrize("name", BUILTIN_FAMILIES)
def test_parameters_outside_the_open_interval_raise_domain_error(name):
    fam = get_family(name)
    lo, hi = fam.theta_interval
    inside = 0.5 * (fam.working_interval[0] + fam.working_interval[1])
    rng = np.random.default_rng(5)
    # NaN fails the interval check too, alone or inside an array
    for bad in (math.nan, lo, hi, -math.inf, math.inf):
        for theta in (bad, np.array([inside, bad])):
            with pytest.raises(DomainError, match="open interval"):
                fam.gamma(theta)
            with pytest.raises(DomainError, match="open interval"):
                fam.sample(theta, rng)
    assert math.isfinite(fam.gamma(inside))
    assert np.all(np.isfinite(fam.sample(np.array([inside, inside]), rng)))


# ---------------------------------------------------------------------------
# log-likelihood ratios affine in the score
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, theta, u",
    [
        ("bernoulli", 0.3, 0.34),
        ("bernoulli", 0.5, 0.45),
        ("poisson", 1.0, 1.3),
        ("poisson", 4.0, 3.9),
        ("gaussian_scale", 1.0, 1.5),
        ("gaussian_scale", 2.0, 1.8),
    ],
)
def test_log_lr_affine_matches_density_ratio(name, theta, u):
    fam = get_family(name)
    x = fam.sample(np.full(50, theta), np.random.default_rng(8))
    a, b = fam.log_lr_affine(theta, u)
    log_z = np.log(fam.density(x, u)) - np.log(fam.density(x, theta))
    assert np.allclose(a * fam.score(x, theta) + b, log_z, rtol=0.0, atol=1e-13)


def test_log_lr_affine_is_none_without_a_closed_form():
    xs, dens = normal_table()
    assert TabulatedLocation(xs, dens).log_lr_affine(0.0, 0.1) is None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_moments():
    rng = np.random.default_rng(2024)
    n = 40_000
    cases = {
        "bernoulli": 0.3,
        "poisson": 2.0,
        "gaussian_scale": 1.5,
        "location_normal": 0.7,
    }
    means = {
        "bernoulli": 0.3,
        "poisson": 2.0,
        "gaussian_scale": 0.0,
        "location_normal": 0.7,
    }
    for name, theta in cases.items():
        fam = get_family(name)
        x = fam.sample(np.full(n, theta), rng)
        # 5 sigma tolerance on the sample mean
        sd = {
            "bernoulli": math.sqrt(0.3 * 0.7),
            "poisson": math.sqrt(2.0),
            "gaussian_scale": 1.5,
            "location_normal": 1.0,
        }[name]
        assert abs(x.mean() - means[name]) < 5.0 * sd / math.sqrt(n), name


def test_score_law_matches_sampler():
    rng = np.random.default_rng(11)
    n = 60_000
    for name in BUILTIN_FAMILIES:
        fam = get_family(name)
        lo, hi = fam.working_interval
        theta = 0.25 * lo + 0.75 * hi if name != "location_normal" else 0.4
        law = fam.score_law(theta)
        info = float(fam.fisher(theta))
        assert law.second_moment() == pytest.approx(info, rel=1e-9), name
        s = fam.score(fam.sample(np.full(n, theta), rng), theta)
        # compare the mean and variance at 6 sigma MC tolerance
        fourth = np.mean(s**4)
        assert abs(s.mean()) < 6.0 * math.sqrt(info / n)
        assert abs(np.mean(s**2) - info) < 6.0 * math.sqrt(max(fourth, 1.0) / n)


def _same_stream(draw, theta, seed):
    """draw(theta, gen) against Generator.binomial(1, theta) on an equal generator.

    True when both give the same bits and leave their generators at the
    same position.
    """
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    x = np.asarray(draw(theta, a), dtype=float)
    y = np.asarray(b.binomial(1, theta), dtype=float)
    return x.tobytes() == y.tobytes() and a.random() == b.random()


_BERNOULLI_THETAS = {
    "half": lambda n, rng: np.full(n, 0.5),
    "above_half": lambda n, rng: rng.uniform(0.5, 1.0, n),
    "working_ends": lambda n, rng: np.resize([0.05, 0.95], n),
    "open_interval": lambda n, rng: rng.uniform(0.001, 0.999, n),
}


@pytest.mark.parametrize("n", [1, 7, 1024])
@pytest.mark.parametrize("case", sorted(_BERNOULLI_THETAS))
def test_bernoulli_table_sampler_is_numpys_binomial_bit_for_bit(case, n):
    fam = get_family("bernoulli")
    for seed in range(20):
        theta = _BERNOULLI_THETAS[case](n, np.random.default_rng(1000 + seed))
        table = fam.sampling_table(theta)
        assert table.consts is not None
        assert _same_stream(lambda th, gen: fam.sample(table, gen), theta, seed)
        assert _same_stream(fam.sample, theta, seed)  # raw theta, cutoffs on the fly


def test_bernoulli_scalar_theta_is_numpys_binomial():
    fam = get_family("bernoulli")
    for theta in (0.05, 0.3, 0.5, 0.7, 0.95):
        assert _same_stream(fam.sample, theta, 3)
        assert isinstance(fam.sample(theta, np.random.default_rng(3)), float)


@settings(max_examples=200, deadline=None)
@given(
    theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_bernoulli_table_sampler_matches_binomial_on_any_theta(theta, n, seed):
    fam = get_family("bernoulli")
    thetas = np.full(n, theta)
    thetas[::2] = 1.0 - theta  # both sides of 1/2, where the flip applies
    thetas = np.clip(thetas, math.ulp(0.0), 1.0 - 2.0**-53)
    assert _same_stream(fam.sample, thetas, seed)


def test_bernoulli_cells_that_reach_the_restart_stay_on_binomial(monkeypatch):
    # with the largest uniform above 1 every point could reach the inversion
    # loop's second uniform: the table keeps rng.binomial, and the same bits
    monkeypatch.setattr(families_module, "_U_MAX", 2.0)
    fam = get_family("bernoulli")
    theta = np.random.default_rng(4).uniform(0.05, 0.95, 257)
    table = fam.sampling_table(theta)
    assert table.consts is None
    assert _same_stream(lambda th, gen: fam.sample(table, gen), theta, 9)


def test_sampling_table_checks_theta_once_and_belongs_to_its_family():
    bernoulli, poisson = get_family("bernoulli"), get_family("poisson")
    with pytest.raises(DomainError, match="open interval"):
        bernoulli.sampling_table(np.array([0.5, 1.0]))
    table = poisson.sampling_table(np.array([1.0, 2.0]))
    assert table.consts is None
    with pytest.raises(ArgumentError, match="another family"):
        bernoulli.sample(table, np.random.default_rng(0))
    # a table of theta draws the same bits as theta itself
    x = poisson.sample(table, np.random.default_rng(1))
    assert x.tobytes() == poisson.sample(table.theta, np.random.default_rng(1)).tobytes()


# ---------------------------------------------------------------------------
# regularity audits
# ---------------------------------------------------------------------------


def test_regularity_bernoulli_passes():
    rep = check_regularity(
        get_family("bernoulli"), np.linspace(0.1, 0.9, 9), epsilon=0.05, beta=1.0
    )
    assert rep.all_pass()
    assert not rep.insufficient_pairs
    assert rep.r1_sup_estimate >= 0.0
    assert rep.r3_bounds[0] == pytest.approx(4.0, abs=1e-12)


def test_regularity_location_passes():
    rep = check_regularity(
        get_family("location_normal"), np.linspace(-1.0, 1.0, 9), epsilon=0.1, beta=1.0
    )
    assert rep.all_pass()
    assert rep.r3_bounds == (1.0, 1.0)


def test_regularity_degenerate_grid_flags_insufficient_pairs():
    rep = check_regularity(get_family("bernoulli"), [0.5], epsilon=0.0, beta=1.0)
    assert rep.insufficient_pairs
    assert rep.pair_count == 0
    assert not rep.pass_flags["r1"]
    assert not rep.pass_flags["r2"]
    assert rep.pass_flags["r3"]


def test_regularity_empty_grid_raises():
    with pytest.raises(ArgumentError):
        check_regularity(get_family("bernoulli"), [], epsilon=0.05, beta=1.0)


@pytest.mark.parametrize("epsilon", [-0.1, math.nan])
def test_regularity_rejects_bad_epsilon(epsilon):
    with pytest.raises(ArgumentError, match="epsilon"):
        check_regularity(get_family("bernoulli"), [0.4, 0.5], epsilon=epsilon, beta=1.0)


@pytest.mark.parametrize("beta", [0.5, math.nan, math.inf])
def test_regularity_rejects_bad_beta(beta):
    with pytest.raises(ArgumentError, match="beta"):
        check_regularity(get_family("poisson"), [1.0, 2.0], epsilon=0.05, beta=beta)


class _TruncatedGaussianScale(GaussianScale):
    """N(0, theta^2) with the density cut to 0 beyond 8 theta."""

    def _density(self, x, theta):
        return np.where(np.abs(x) > 8.0 * theta, 0.0, super()._density(x, theta))


def test_regularity_zero_density_inside_the_window_raises():
    # the quadrature window is +-16 theta, so the secant integrand meets
    # nodes where the conditioning density vanishes
    with pytest.raises(SingularityError, match="zero density"):
        check_regularity(_TruncatedGaussianScale(), [1.0, 2.0], epsilon=0.1, beta=1.0)


class _SteppedGaussianScale(GaussianScale):
    """N(0, theta^2) with the density doubled beyond x = theta: a jump inside the window."""

    def _density(self, x, theta):
        return np.where(x > theta, 2.0, 1.0) * super()._density(x, theta)


def test_r1_remainder_rejects_an_unconverged_quadrature():
    # the 512- and 1024-node rules disagree across the jump
    with pytest.raises(NumericError, match="did not converge"):
        _r1_remainder(_SteppedGaussianScale(), 1.0, 1.05)


def test_regularity_checks_parameters_once_not_per_node(monkeypatch):
    family = get_family("gaussian_scale")
    original = family.require_theta
    calls = []

    def counting(theta):
        calls.append(1)
        return original(theta)

    monkeypatch.setattr(family, "require_theta", counting)
    density_calls = []
    density = family.density

    def counting_density(x, theta):
        density_calls.append(1)
        return density(x, theta)

    monkeypatch.setattr(family, "density", counting_density)
    integrals = []
    quad = families_module._quad

    def counting_quad(*args):
        integrals.append(1)
        return quad(*args)

    monkeypatch.setattr(families_module, "_quad", counting_quad)
    check_regularity(family, np.linspace(0.5, 2.0, 13), epsilon=0.1, beta=1.0)
    # each integral takes its nodes as one array: a few density calls per
    # integral, with the root search of the r2 moments, and one grid check
    assert len(integrals) >= 13 * 6
    assert len(density_calls) <= 4 * len(integrals)
    assert len(calls) <= 2


def test_secant_moment_evaluates_each_density_once_per_node(monkeypatch):
    family = get_family("gaussian_scale")
    nodes = []
    secant = families_module._secant_score

    def counting_secant(*args):
        nodes.append(np.size(args[1]))
        return secant(*args)

    density_calls = []
    density = family.density

    def counting_density(x, theta):
        density_calls.append((theta, np.size(x)))
        return density(x, theta)

    monkeypatch.setattr(families_module, "_secant_score", counting_secant)
    monkeypatch.setattr(family, "density", counting_density)
    families_module._secant_moment(family, 1.0, 1.05, 1.5)
    # one call at theta, for the weight and the ratio, and one at u
    assert [size for theta, size in density_calls if theta == 1.0] == nodes
    assert [size for theta, size in density_calls if theta == 1.05] == nodes
    assert len(density_calls) == 2 * len(nodes)


def _r1_squared_closed_form(name, theta, u):
    """Squared r1 remainder of gaussian_scale or location_normal in closed form."""
    d = u - theta
    if name == "location_normal":
        e = math.exp(-d * d / 8.0)
        return 2.0 - 2.0 * e + d * d / 4.0 - (d * d / 2.0) * e
    # sqrt(p_theta p_u) = A times the N(0, sigma2) density
    a = math.sqrt(2.0 * theta * u / (theta**2 + u**2))
    sigma2 = 2.0 * theta**2 * u**2 / (theta**2 + u**2)
    return 2.0 - 2.0 * a - d * a * (sigma2 - theta**2) / theta**3 + d * d / (2.0 * theta**2)


@pytest.mark.parametrize("name", ["gaussian_scale", "location_normal"])
def test_r1_remainder_matches_closed_form(name):
    # the closed form cancels to about 2e-16 / R^2 relative, hence the cut at 1e-10
    family = get_family(name)
    checked = 0
    for theta in working_grid(family, 13):
        for step in (-0.05, -0.025, -0.0125, 0.0125, 0.025, 0.05):
            u = float(theta + step)
            exact = _r1_squared_closed_form(name, float(theta), u)
            if exact >= 1e-10:
                checked += 1
                rem = _r1_remainder(family, float(theta), u)
                assert rem**2 == pytest.approx(exact, rel=1e-5), (theta, u)
    assert checked >= 50


@pytest.mark.parametrize("name", ["gaussian_scale", "location_normal"])
def test_r2_moments_match_adaptive_quadrature(name):
    family = get_family(name)
    grid = working_grid(family, 3)
    for beta in (1.0, 2.0, 3.0):
        power = 2.0 * default_delta_r2(beta)
        reference = quad_r2_moments(family, grid, 0.05, beta)
        for (theta, u), moment in reference.items():
            if u == theta:
                fixed = families_module._abs_moment(
                    family, theta, lambda x, _p: family.score(x, theta), power
                )
            else:
                fixed = families_module._secant_moment(family, theta, u, power)
            assert fixed == pytest.approx(moment, rel=1e-8), (beta, theta, u)
        rep = check_regularity(family, grid, 0.05, beta)
        assert rep.r2_sup_estimate == pytest.approx(max(reference.values()), rel=1e-8)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_r2_moment_of_too_rough_a_beta_is_a_numeric_error_either_way():
    family = get_family("gaussian_scale")
    grid = working_grid(family, 3)
    with pytest.raises(NumericError):
        check_regularity(family, grid, 0.05, 0.6)
    with pytest.raises(NumericError):
        quad_r2_moments(family, grid, 0.05, 0.6)


@pytest.mark.parametrize("n", [_FINE, _COARSE])
def test_gauss_legendre_rule_integrates_every_even_power_it_should(n):
    nodes, weights = _gauss_legendre(n)
    assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0] and nodes[-1] < 1.0
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.all(weights > 0) and np.array_equal(weights, weights[::-1])
    assert abs(float(np.sum(weights)) - 2.0) <= 1e-14
    # exact for degree <= 2n - 1; the odd powers vanish by the symmetry
    powers = np.arange(0, 2 * n, 2)
    moments = (nodes[None, :] ** powers[:, None]) @ weights
    np.testing.assert_allclose(moments, 2.0 / (powers + 1.0), rtol=1e-11, atol=0.0)


def test_gauss_legendre_small_rules_in_closed_form():
    nodes, weights = _gauss_legendre(3)
    r = math.sqrt(0.6)
    np.testing.assert_allclose(nodes, [-r, 0.0, r], rtol=0.0, atol=1e-16)
    np.testing.assert_allclose(weights, [5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0], rtol=1e-15)
    nodes, weights = _gauss_legendre(2)
    np.testing.assert_allclose(nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rtol=1e-15)
    np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-15)


@pytest.mark.parametrize("n", [_FINE, _COARSE])
def test_gauss_legendre_rule_agrees_with_scipy(n):
    # scipy's own weights near the ends are off by up to about 2e-9
    nodes, weights = _gauss_legendre(n)
    ref_nodes, ref_weights = special.roots_legendre(n)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=2e-16)
    np.testing.assert_allclose(weights, ref_weights, rtol=2e-9, atol=0.0)


def test_gauss_legendre_raises_when_newton_runs_out_of_steps(monkeypatch):
    monkeypatch.setattr(families_module, "_NEWTON_STEPS", 1)
    with pytest.raises(NumericError, match="did not converge"):
        _gauss_legendre(64)


def test_legendre_rules_are_built_once_and_read_only():
    rules = families_module._legendre_rules
    rules.cache_clear()
    check_regularity(get_family("gaussian_scale"), [1.0, 1.05], epsilon=0.1, beta=1.0)
    nodes, w_fine, w_coarse = rules()
    assert rules.cache_info().misses == 1 and rules.cache_info().hits >= 1
    fine, coarse = _gauss_legendre(_FINE)[0], _gauss_legendre(_COARSE)[0]
    np.testing.assert_array_equal(nodes, np.concatenate([fine, coarse]))
    assert w_fine.size == _FINE and w_coarse.size == _COARSE
    for array in (nodes, w_fine, w_coarse):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


# ---------------------------------------------------------------------------
# registry and tabulated family
# ---------------------------------------------------------------------------


def test_registry_rejects_unknown_and_incomplete():
    assert BUILTIN_FAMILIES == ("bernoulli", "poisson", "gaussian_scale", "location_normal")
    with pytest.raises(ArgumentError) as exc:
        get_family("weibull")
    assert str(exc.value) == (
        "unknown family 'weibull'; choose from "
        "bernoulli|poisson|gaussian_scale|location_normal|location_custom"
    )
    with pytest.raises(ArgumentError):
        get_family("location_custom")
    with pytest.raises(ArgumentError, match="takes no density table"):
        get_family("poisson", table_path="does-not-exist.txt")


def normal_table(half_width=8.0, points=3201):
    xs = np.linspace(-half_width, half_width, points)
    return xs, np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)


def test_tabulated_location_recovers_normal_structure():
    xs, dens = normal_table()
    fam = TabulatedLocation(xs, dens, working_interval=(-1.0, 1.0))
    # Fisher information of the standard normal location family is 1
    assert float(fam.fisher(0.0)) == pytest.approx(1.0, rel=2e-3)
    # the tabulated score approximates x
    probe = np.array([-1.0, -0.3, 0.2, 0.9])
    assert np.allclose(fam.score(probe, 0.0), probe, atol=5e-3)
    # gamma is linear with slope sqrt(fisher)
    assert float(fam.gamma(0.5)) == pytest.approx(
        0.5 * math.sqrt(float(fam.fisher(0.0))), abs=1e-12
    )
    rng = np.random.default_rng(5)
    x = fam.sample(np.full(30_000, 0.25), rng)
    assert abs(x.mean() - 0.25) < 5.0 / math.sqrt(30_000)
    assert abs(x.var() - 1.0) < 0.05


def test_tabulated_location_builds_its_theta_free_tables_once():
    xs, dens = normal_table(points=801)
    fam = TabulatedLocation(xs, dens)
    law = fam.score_law(0.1)
    # the score law does not depend on theta: every design point shares it
    assert law is fam.score_law(0.7)
    assert not law.values.flags.writeable and not law.probs.flags.writeable


def test_tabulated_location_from_file(tmp_path):
    xs, dens = normal_table(points=801)
    path = tmp_path / "noise.txt"
    np.savetxt(path, np.column_stack([xs, dens]))
    fam = get_family("location_custom", table_path=str(path))
    assert float(fam.fisher(0.0)) == pytest.approx(1.0, rel=5e-3)


def test_tabulated_location_rejects_bad_tables():
    xs, dens = normal_table(points=801)
    with pytest.raises(ArgumentError):
        TabulatedLocation(xs[::-1], dens)
    with pytest.raises(ArgumentError):
        TabulatedLocation(xs, -dens)
    with pytest.raises(ArgumentError):
        TabulatedLocation(xs[:4], dens[:4])


def test_registry_empty_table_path_is_missing():
    # the config and the CLI pass "" when no table is given
    with pytest.raises(ArgumentError, match="requires a density table file"):
        get_family("location_custom", table_path="")


# ---------------------------------------------------------------------------
# the family interface
# ---------------------------------------------------------------------------


PUBLIC_MAPS = (
    "density", "score", "fisher", "gamma", "gamma_inverse", "sample", "vst", "expect",
)


def _interface_families():
    xs, dens = normal_table(points=401)
    return [get_family(name) for name in BUILTIN_FAMILIES] + [TabulatedLocation(xs, dens)]


@pytest.mark.parametrize("fam", _interface_families(), ids=lambda fam: fam.name)
def test_every_family_overrides_the_interface(fam):
    # every map gives finite values; the base class supplies only the
    # exact identity statistic and vst = gamma o stat_mean_inverse
    lo, hi = fam.working_interval
    theta = np.linspace(lo, hi, 7)
    x = fam.sample(theta, np.random.default_rng(31))
    m = fam.stat_mean(theta)
    outputs = {
        "sample": x,
        "density": fam.density(x, theta),
        "score": fam.score(x, theta),
        "fisher": fam.fisher(theta),
        "gamma": fam.gamma(theta),
        "gamma_inverse": fam.gamma_inverse(fam.gamma(theta)),
        "score_law": [fam.score_law(t).second_moment() for t in theta],
        "suff_stat": fam.suff_stat(x),
        "stat_mean": m,
        "stat_mean_inverse": fam.stat_mean_inverse(m),
        "vst": fam.vst(m),
        "support": np.concatenate([
            fam.quad_bounds(t) if fam.support_atoms(t) is None else fam.support_atoms(t)
            for t in theta
        ]),
    }
    for name, out in outputs.items():
        assert np.all(np.isfinite(out)), name
    # vst is defined by vst(stat_mean(theta)) = gamma(theta)
    np.testing.assert_allclose(fam.vst(m), fam.gamma(theta), rtol=1e-12, atol=1e-12)
    # a scalar point gives a Python float from every map
    t, x0 = float(theta[3]), float(x[3])
    scalars = {
        "sample": fam.sample(t, np.random.default_rng(31)),
        "density": fam.density(x0, t),
        "score": fam.score(x0, t),
        "fisher": fam.fisher(t),
        "gamma": fam.gamma(t),
        "gamma_inverse": fam.gamma_inverse(fam.gamma(t)),
        "vst": fam.vst(float(fam.stat_mean(t))),
    }
    for name, out in scalars.items():
        assert type(out) is float, name
    # families implement the underscored array maps; only the base class
    # converts inputs and outputs
    for cls in vars(families_module).values():
        if isinstance(cls, type) and issubclass(cls, ParametricFamily) and cls is not ParametricFamily:
            assert not set(PUBLIC_MAPS) & set(cls.__dict__), cls.__name__

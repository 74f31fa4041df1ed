"""Reference computations that tests compare the library against."""

import math
from statistics import NormalDist

import numpy as np
from scipy import integrate

from lecam_equiv.errors import NumericError
from lecam_equiv.experiments import (
    ExperimentDraw,
    design_cell,
    design_grid,
    lase_terms,
    sample_original,
)
from lecam_equiv.families import default_delta_r2
from lecam_equiv.globalization import gamma_scale_estimate, gaussianize, preliminary_estimate
from lecam_equiv.harness import derive_seed, stream_rng
from lecam_equiv.laws import SPAN_SIGMAS


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


def _adaptive_expect(family, theta, fn) -> float:
    """E_theta fn(X, p(X, theta)) by adaptive quad, one scalar density call per node."""

    def weighted(x):
        p = float(family.density(x, theta))
        return fn(x, p) * p

    val, err = integrate.quad(weighted, *family.quad_bounds(theta), limit=400)
    if not math.isfinite(val) or err > 1e-7 * max(1.0, abs(val)):
        raise NumericError(f"{family.name}: quadrature did not converge (err={err:.2e})")
    return float(val)


def quad_r2_moments(family, grid, epsilon, beta) -> dict:
    """The r2 moments of check_regularity for a continuous family, by adaptive quad.

    Keys are (theta, u): each pair that check_regularity forms, mapped
    to E_theta |secant score|^P, then (theta, theta) for each grid
    point, mapped to the plain score moment E_theta |score|^P, with
    P = 2 default_delta_r2(beta).
    """
    power = 2.0 * default_delta_r2(beta)
    lo, hi = family.theta_interval
    out = {}
    for theta in map(float, grid):
        for frac in (1.0, 0.5, 0.25):
            for sign in (-1.0, 1.0):
                u = float(theta + sign * frac * epsilon)
                if lo < u < hi and u != theta:
                    out[theta, u] = _adaptive_expect(
                        family,
                        theta,
                        lambda x, p, t=theta, u=u: np.abs(
                            (2.0 / (u - t)) * (np.sqrt(family.density(x, u) / p) - 1.0)
                        )
                        ** power,
                    )
    for theta in map(float, grid):
        out[theta, theta] = _adaptive_expect(
            family, theta, lambda x, _p, t=theta: np.abs(family.score(x, t)) ** power
        )
    return out


def sample_global_gaussian(family, f, n, rng, seed=0) -> ExperimentDraw:
    """Unit-noise observations of the stabilized mean: Y_i = gamma(f(i/n)) + eps_i."""
    t = design_grid(n)
    theta = np.asarray(f(t), dtype=float)
    obs = np.asarray(family.gamma(theta), dtype=float) + rng.standard_normal(n)
    return ExperimentDraw(
        model="global-gaussian",
        design=t,
        observations=obs,
        family=family.name,
        seed=seed,
    )


def risk_transfer_errors(family, f, n, rng, R, beta=1.0, q=0.25):
    """Direct and transferred sup errors of risk_transfer_demo, one replicate at a time.

    Replicate r draws its sample and then its kernel noise from rng, and
    the estimates run on that single draw.
    """
    t = design_grid(n)
    truth = np.asarray(f(t), dtype=float)
    err_a = np.empty(R)
    err_b = np.empty(R)
    cell = design_cell(family, f, n)
    for r in range(R):
        draw = sample_original(cell, rng, seed=r)
        err_a[r] = float(np.max(np.abs(preliminary_estimate(family, draw, beta)(t) - truth)))
        gz = gaussianize(family, draw, beta, rng.standard_normal(n), q=q)
        fhat = gamma_scale_estimate(family, gz.draw, beta)
        err_b[r] = float(np.max(np.abs(fhat(t) - truth)))
    return err_a, err_b


def ks_statistic_erfc(x):
    """One-sample KS statistic of a 1-d sample against Phi = 0.5 erfc(-x / sqrt 2),
    with libm erfc at every point."""
    u = np.sort([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in np.asarray(x, float).tolist()])
    k = np.arange(1, u.size + 1, dtype=float)
    return max(float(np.max(k / u.size - u)), float(np.max(u - (k - 1.0) / u.size)))


def globalize_ks(config, n, replicates):
    """KS statistics of a globalize unit's replicates, one replicate at a time."""
    family = config.resolve_family()
    f = config.resolve_f()
    target = np.asarray(family.gamma(np.asarray(f(design_grid(n)), dtype=float)), dtype=float)
    cell = design_cell(family, f, n)
    out = []
    for r in replicates:
        rng = stream_rng(derive_seed(config.master_seed, n, r))
        draw = sample_original(cell, rng, seed=r)
        noise = stream_rng(derive_seed(config.master_seed, n, r + (1 << 32))).standard_normal(n)
        gz = gaussianize(family, draw, config.beta, noise, q=config.q)
        out.append(ks_statistic_erfc(gz.draw.observations - target))
    return out


def log_cf(law, omega):
    """(log modulus, phase) of a score law's characteristic function at omega.

    The law is evaluated from the one description that the sum-law build
    reads.  A Poisson form (rate, step, offset) gives rate (cos(omega step) - 1)
    and rate sin(omega step) + offset omega.  Atoms give a sum in atom order
    at each frequency, so a value does not depend on the other frequencies
    in the call; the first atom is factored out as the linear phase omega v0,
    and the modulus is floored at 1e-300 where the atoms cancel.  Any other
    law gives its own log_cf.
    """
    omega = np.asarray(omega, dtype=float)
    form = law.poisson_form()
    if form is not None:
        rate, step, offset = form
        arg = omega * step
        return rate * (np.cos(arg) - 1.0), rate * np.sin(arg) + offset * omega
    atoms = law.atoms()
    if atoms is None:
        return law.log_cf(omega)
    # factoring out v0 keeps mirror frequencies exact negatives: an atom sum
    # whose sines cancel to +0.0 at both would give arctan2 = +pi at both
    v0 = atoms.values[0]
    re = np.full(omega.shape, atoms.probs[0])
    im = np.zeros(omega.shape)
    for v, p in zip(atoms.values[1:] - v0, atoms.probs[1:]):
        arg = omega * v
        re += p * np.cos(arg)
        im += p * np.sin(arg)
    return np.log(np.maximum(np.hypot(re, im), 1e-300)), omega * v0 + np.arctan2(im, re)


def full_spectrum_sum_law(laws, weights, grid_size):
    """(grid, cdf_grid, clipped_mass) of WeightedSumLaw, evaluating every frequency.

    The characteristic function is evaluated by log_cf on all grid_size
    bins of fftfreq, negative frequencies included and with no live cut,
    and asserted Hermitian bit for bit: each bin's log modulus equals its
    mirror's and its phase is the negated mirror phase.  The bins
    0..grid_size // 2 are then inverted with irfft; for even grid_size
    the last of them is the Nyquist bin at -grid_size / 2, of which
    irfft reads only the real part, even in omega.
    """
    weights = np.asarray(weights, dtype=float)
    var = sum(w * w * law.second_moment() for law, w in zip(laws, weights))
    sigma = float(np.sqrt(var))
    span = SPAN_SIGMAS * sigma
    dx = 2.0 * span / grid_size
    omega = 2.0 * np.pi * np.fft.fftfreq(grid_size, d=dx)
    log_mod = -0.5 * (dx * omega) ** 2
    phase = np.zeros(grid_size)
    for law, w in zip(laws, weights):
        if w == 0.0:
            continue
        lm, ph = log_cf(law, omega * w)
        log_mod += lm
        phase += ph
    pairs = slice(1, (grid_size + 1) // 2)
    mirror = slice(grid_size - 1, grid_size // 2, -1)
    assert log_mod[pairs].tobytes() == log_mod[mirror].tobytes()
    assert phase[pairs].tobytes() == (-phase[mirror]).tobytes()
    x0 = -span
    half = slice(grid_size // 2 + 1)
    phase = phase[half] - x0 * omega[half]
    mod = np.exp(log_mod[half])
    phi = np.empty(phase.size, dtype=complex)
    phi.real = mod * np.cos(phase)
    phi.imag = mod * np.sin(phase)
    dens = np.fft.irfft(phi, n=grid_size) / dx
    clipped_mass = float(np.sum(np.maximum(-dens, 0.0)) * dx)
    dens = np.maximum(dens, 0.0)
    cdf = np.cumsum(dens) * dx
    cdf /= cdf[-1]
    return x0 + dx * np.arange(grid_size), cdf, clipped_mass


def coupled_draw_fields(plan, rng):
    """(log_lik_original, log_lik_gaussian, scores, gaussians, remainder) of one draw.

    The coupled draw built one replicate at a time from one generator:
    the sample, then, when the plan has a sum law, standard_normal(n)
    for the Gaussian fill and one jitter normal for the quantile
    transform of the sum law.  The Gaussian vector is completed around
    the coupled sum, although the library reports only that sum; the
    remainder is the original side minus h . scores - q.  A plan
    without a sum law (all-Gaussian scores or a zero shift) couples by
    identity.
    """
    cell = plan.cell
    family, n = cell.family, cell.n
    h_vals = plan.h_values
    quad = plan.quadratic
    x = family.sample(cell.theta, rng)
    scores = np.asarray(family.score(x, cell.theta), dtype=float)
    weighted_sum = float(np.dot(h_vals, scores))
    if plan.sum_law is None:
        zeta = scores
        loglik_orig = loglik_gauss = weighted_sum - quad
    else:
        if plan.log_lr_slope is not None:
            loglik_orig = float(np.dot(plan.log_lr_slope, scores)) + plan.log_lr_offset
        else:
            draw = ExperimentDraw("original", cell.t, np.asarray(x, dtype=float), family.name)
            loglik_orig = lase_terms(family, cell.f, plan.h, draw).exact_loglik
        noise = np.sqrt(cell.info) * rng.standard_normal(n)
        law = plan.sum_law
        t = np.asarray(weighted_sum, dtype=float)
        jitter = rng.standard_normal(t.shape) * law.smooth_bw
        u = np.clip(np.interp(t + jitter, law.grid, law.cdf_grid), 1e-14, 1.0 - 1e-14)
        coupled_sum = law.sigma * NormalDist().inv_cdf(float(u))
        fill = h_vals * cell.info / (2.0 * quad)
        zeta = noise + (coupled_sum - float(np.dot(h_vals, noise))) * fill
        loglik_gauss = coupled_sum - quad
    return loglik_orig, loglik_gauss, scores, zeta, loglik_orig - (weighted_sum - quad)

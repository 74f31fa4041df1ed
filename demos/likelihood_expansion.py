"""Second-order expansion of the local log-likelihood ratio.

For growing n, draws data under the base function and decomposes the
exact log-likelihood ratio of the shifted model into its linear term,
deterministic quadratic term, and remainder; the remainder shrinks as
the shift amplitude follows the localization rate.  The library gives
the exact ratio; the expansion terms are computed here, with the
Poisson Hellinger affinity exp(-(sqrt(theta) - sqrt(u))^2 / 2) in
closed form.
"""

import math

import numpy as np

from lecam_equiv.experiments import design_cell, lase_terms, sample_original
from lecam_equiv.families import get_family
from lecam_equiv.function_space import RegressionFunction

rng = np.random.default_rng(42)
L = 3.0


def local_shift(n):
    """The sinusoid shift of a local study at c_rate = 1: amplitude n^(-1/2) L/(2 pi + 1)."""
    return RegressionFunction.sinusoid((1.0 / math.sqrt(n)) * L / (2.0 * math.pi + 1.0), 1.0, L=L)


def expansion(family, f, h, draw):
    """(exact, linear, quadratic, remainder, X_n, V_n, rho) of one Poisson draw.

    exact = linear - quadratic + remainder = 2 X_n - 4 V_n + rho, where
    X_n sums sqrt(z_i) - 1 centered by its exact mean A_i - 1, A_i the
    per-point Hellinger affinity, and V_n = sum(1 - A_i).
    """
    exact = lase_terms(family, f, h, draw)
    x, theta = draw.observations, np.asarray(f(draw.design), dtype=float)
    h_vals = np.asarray(h(draw.design), dtype=float)
    shifted = theta + h_vals
    z = family.density(x, shifted) / family.density(x, theta)
    linear = float(np.sum(h_vals * family.score(x, theta)))
    quadratic = 0.5 * float(np.sum(h_vals**2 * family.fisher(theta)))
    affin = np.exp(-0.5 * (np.sqrt(theta) - np.sqrt(shifted)) ** 2)
    xn = float(np.sum((np.sqrt(z) - 1.0) - (affin - 1.0)))
    vn = float(np.sum(1.0 - affin))
    rho = exact - (2.0 * xn - 4.0 * vn)
    return exact, linear, quadratic, exact - (linear - quadratic), xn, vn, rho


print("== expansion terms for the poisson standard pair ==")
family = get_family("poisson")
f = RegressionFunction.affine(1.5, 1.0, L=L)
print(f"{'n':>6s} {'exact':>10s} {'linear':>10s} {'quadratic':>10s} {'remainder':>11s}")
for k in (8, 10, 12, 14):
    n = 1 << k
    draw = sample_original(design_cell(family, f, n), rng, seed=k)
    exact, linear, quadratic, remainder, *_ = expansion(family, f, local_shift(n), draw)
    print(f"{n:>6d} {exact:>10.5f} {linear:>10.5f} {quadratic:>10.5f} {remainder:>11.2e}")

print()
print("== centered hellinger-type statistics ==")
n = 1 << 12
draw = sample_original(design_cell(family, f, n), rng, seed=99)
exact, _, quadratic, _, xn, vn, rho = expansion(family, f, local_shift(n), draw)
print(f"  exact = 2 X_n - 4 V_n + rho: {exact:.6f} = 2({xn:.6f}) - 4({vn:.6f}) + {rho:.6f}")
print(f"  V_n vs (1/8) sum h^2 I: {vn:.6f} vs {quadratic / 4.0:.6f}")

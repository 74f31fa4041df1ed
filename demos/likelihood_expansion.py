"""Second-order expansion of the local log-likelihood ratio.

For growing n, draws data under the base function and decomposes the
exact log-likelihood ratio of the shifted model into its linear term,
deterministic quadratic term, and remainder; the remainder shrinks as
the shift amplitude follows the localization rate.
"""

import numpy as np

from lecam_equiv.experiments import (
    design_cell,
    lase_terms,
    sample_original,
    standard_test_pair,
)
from lecam_equiv.families import get_family

rng = np.random.default_rng(42)

print("== expansion terms for the poisson standard pair ==")
family = get_family("poisson")
print(f"{'n':>6s} {'exact':>10s} {'linear':>10s} {'quadratic':>10s} {'remainder':>11s}")
for k in (8, 10, 12, 14):
    n = 1 << k
    f, h = standard_test_pair(family, n)
    draw = sample_original(design_cell(family, f, n), rng, seed=k)
    terms = lase_terms(family, f, h, draw)
    print(
        f"{n:>6d} {terms.exact_loglik:>10.5f} {terms.linear:>10.5f} "
        f"{terms.quadratic:>10.5f} {terms.remainder:>11.2e}"
    )

print()
print("== centered hellinger-type statistics ==")
n = 1 << 12
f, h = standard_test_pair(family, n)
draw = sample_original(design_cell(family, f, n), rng, seed=99)
terms = lase_terms(family, f, h, draw)
print(f"  exact = 2 X_n - 4 V_n + rho: {terms.exact_loglik:.6f} = "
      f"2({terms.xn:.6f}) - 4({terms.vn:.6f}) + {terms.rho_prop:.6f}")
print(f"  V_n vs (1/8) sum h^2 I: {terms.vn:.6f} vs {terms.quadratic / 4.0:.6f}")

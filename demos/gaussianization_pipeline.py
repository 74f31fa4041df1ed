"""From original data to synthetic unit-noise Gaussian data, globally.

Runs the full kernel on one draw, audits its output against the
Gaussian target law, compares the heteroscedastic and stabilized local
forms in closed form, and transfers an estimation task through the
kernel to show the paired risks converging.
"""

import math

import numpy as np
from scipy.special import ndtr

from lecam_equiv.experiments import design_cell, sample_original
from lecam_equiv.families import get_family
from lecam_equiv.function_space import RegressionFunction, rate_gamma_bar
from lecam_equiv.globalization import (
    gamma_scale_estimate,
    gaussianize,
    homoscedastic_transform_check,
    preliminary_estimate,
    risk_transfer_demo,
)
from lecam_equiv.harness import derive_seed, stream_rng

family = get_family("bernoulli")
f = RegressionFunction.affine(0.25, 0.1)

print("== one pass through the kernel ==")
n = 1 << 12
cell = design_cell(family, f, n)
draw = sample_original(cell, stream_rng(derive_seed(11, n, 0)), seed=0)
fhat = preliminary_estimate(family, draw, beta=1.0)
t, truth = cell.t, cell.theta
print(f"  preliminary estimate: {fhat.descriptor}, "
      f"sup error {float(np.max(np.abs(fhat(t) - truth))):.4f} "
      f"(target rate {rate_gamma_bar(n, 1.0, 1.0):.4f})")
out = gaussianize(family, draw, 1.0, stream_rng(derive_seed(11, n, 1)).standard_normal(n))
print(f"  kernel: {out.kernel_descriptor}")

resid = out.draw.observations - np.asarray(family.gamma(truth), dtype=float)
u = np.sort(ndtr(resid))
k = np.arange(1, n + 1, dtype=float)
ks = max(float(np.max(k / n - u)), float(np.max(u - (k - 1.0) / n)))
print(f"  per-point KS vs N(gamma(f), 1): {ks:.4f} "
      f"(1% critical {1.628 / math.sqrt(n):.4f})")

fhat_g = gamma_scale_estimate(family, out.draw, beta=1.0)
print(f"  estimate recovered from kernel output: sup error "
      f"{float(np.max(np.abs(fhat_g(t) - truth))):.4f}")

print()
print("== closed-form distance between the two local Gaussian forms ==")
for k_exp in (8, 11, 14):
    nn = 1 << k_exp
    amp = rate_gamma_bar(nn, 1.0, 0.5)
    h = RegressionFunction.sinusoid(amp, 1.0)
    rep = homoscedastic_transform_check(family, f, h, nn)
    print(f"  n=2^{k_exp:<2d}: H^2 = {rep.value:.6f}")

print()
print("== risk transfer: estimate directly vs through the kernel ==")
for nn in (1 << 10, 1 << 12):
    table = risk_transfer_demo(
        family, f, nn, [1.0], stream_rng(derive_seed(12, nn, 0)), R=60
    )
    d, g = float(table.direct_risk[0]), float(table.transferred_risk[0])
    print(f"  n={nn:>5d}: direct risk {d:.5f}, transferred risk {g:.5f}, "
          f"margin {abs(d - g):.5f}")

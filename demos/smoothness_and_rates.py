"""Regression-function classes, smoothness audits, and localization rates.

Shows how candidate regression functions are declared with a smoothness
budget (beta, L), audited against it, and how the localization radius
shrinks with the sample size.
"""

import math

import numpy as np

from lecam_equiv.function_space import (
    RegressionFunction,
    holder_check,
    neighborhood_contains,
    parse_function,
    rate_gamma_bar,
)

candidates = [
    RegressionFunction.affine(0.4, 0.2),
    RegressionFunction.sinusoid(0.1, 1.0),
    RegressionFunction.spline([0.0, 0.5, 1.0], [0.3, 0.5, 0.4]),
    parse_function("constant(0.5)"),
]

print("== smoothness audits (beta=1, L=1) ==")
for f in candidates:
    report = holder_check(f)
    print(
        f"  {f.descriptor:<40s} sup|f|={report.sup_abs:.3f} "
        f"slope ratio={report.max_ratio:.3f} passed={report.passed}"
    )

print()
print("== localization radius gamma_bar_n = c (log n / n)^(beta/(2 beta+1)) ==")
for beta in (0.75, 1.0, 2.0):
    rates = [rate_gamma_bar(1 << k, beta, 1.0) for k in (8, 10, 12, 14)]
    wide = rate_gamma_bar(1 << 12, beta, 1.0) * math.log(1 << 12) ** 0.5
    print(
        f"  beta={beta}: "
        + "  ".join(f"n=2^{k}: {r:.4f}" for k, r in zip((8, 10, 12, 14), rates))
        + f"  (log-widened at 2^12: {wide:.4f})"
    )

print()
print("== neighborhood membership: shifts must fit the localization ball ==")
f = RegressionFunction.affine(0.4, 0.2)
for n in (256, 4096):
    radius = 1.0 / np.sqrt(n)
    amp = radius / (2.0 * np.pi + 1.0)
    h_ok = RegressionFunction.sinusoid(amp, 1.0)
    h_big = RegressionFunction.sinusoid(10.0 * radius, 1.0)
    print(
        f"  n={n}: radius={radius:.4f} "
        f"scaled sinusoid inside: {neighborhood_contains(f, h_ok, radius)}, "
        f"oversized sinusoid inside: {neighborhood_contains(f, h_big, radius)}"
    )

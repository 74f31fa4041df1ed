"""Reference computations that tests compare the library against."""

import math

import numpy as np


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

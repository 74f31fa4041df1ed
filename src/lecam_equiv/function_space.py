"""Regression functions on [0,1] with declared smoothness budgets.

A RegressionFunction carries a closed-form evaluator together with the
smoothness class it claims to live in: exponent beta in (1/2, 2] and
radius L, meaning |f| <= L and the beta0-th derivative is
(beta - beta0)-Hoelder with constant L, where beta0 = ceil(beta) - 1.
Membership is audited on a fixed dyadic grid plus random pairs, never
certified.  The module also provides the localization rate
c * (log n / n)^(beta/(2 beta + 1)) and sup-norm neighborhood checks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError

# fixed audit grid and random pairs; recorded here so checks are reproducible
GRID_POINTS = 1025
HOLDER_PAIRS = 256
HOLDER_SEED = 1023


def _dyadic_grid() -> np.ndarray:
    return np.linspace(0.0, 1.0, GRID_POINTS)


def split_beta(beta: float) -> tuple[int, float]:
    """beta = beta0 + beta1 with integer beta0 >= 0 and beta1 in (0, 1]."""
    if not 0.5 < beta <= 2.0:
        raise ArgumentError(f"beta must lie in (1/2, 2], got {beta}")
    beta0 = int(math.ceil(beta)) - 1
    return beta0, beta - beta0


class RegressionFunction:
    """Closed-form function on [0,1] with a declared smoothness class.

    Kinds and parameters:
      constant(c); affine(intercept, slope);
      sinusoid(amp, freq, phase) = amp * sin(2 pi freq t + phase);
      spline(t0, y0, t1, y1, ...) natural cubic through the knots.
    """

    def __init__(
        self,
        kind: str,
        params: tuple,
        beta: float = 1.0,
        L: float = 1.0,
    ):
        if not 0 < L < math.inf:
            raise ArgumentError("smoothness radius L must be positive and finite")
        self.kind = kind
        self.params = tuple(float(p) for p in params)
        self.beta = float(beta)
        self.L = float(L)
        self.beta0, self.beta1 = split_beta(self.beta)
        if kind == "constant":
            if len(self.params) != 1:
                raise ArgumentError("constant takes one parameter")
        elif kind == "affine":
            if len(self.params) != 2:
                raise ArgumentError("affine takes (intercept, slope)")
        elif kind == "sinusoid":
            if len(self.params) not in (2, 3):
                raise ArgumentError("sinusoid takes (amp, freq[, phase])")
            if len(self.params) == 2:
                self.params = self.params + (0.0,)
        elif kind == "spline":
            if len(self.params) < 6 or len(self.params) % 2 != 0:
                raise ArgumentError("spline takes at least 3 (t, y) knot pairs")
            knots_t = np.asarray(self.params[0::2])
            knots_y = np.asarray(self.params[1::2])
            if np.any(np.diff(knots_t) <= 0):
                raise ArgumentError("spline knots must have increasing t")
            from scipy.interpolate import CubicSpline  # on use: most studies need no spline

            self._spline = CubicSpline(knots_t, knots_y, bc_type="natural")
            self._spline_d = self._spline.derivative()
        else:
            raise ArgumentError(f"unknown function kind {kind!r}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c, **kw) -> "RegressionFunction":
        return cls("constant", (c,), **kw)

    @classmethod
    def affine(cls, intercept, slope, **kw) -> "RegressionFunction":
        return cls("affine", (intercept, slope), **kw)

    @classmethod
    def sinusoid(cls, amp, freq, phase=0.0, **kw) -> "RegressionFunction":
        return cls("sinusoid", (amp, freq, phase), **kw)

    @classmethod
    def spline(cls, knots_t, knots_y, **kw) -> "RegressionFunction":
        flat = tuple(v for pair in zip(knots_t, knots_y) for v in pair)
        return cls("spline", flat, **kw)

    # -- evaluation -------------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full_like(t, self.params[0])
        elif self.kind == "affine":
            out = self.params[0] + self.params[1] * t
        elif self.kind == "sinusoid":
            amp, freq, phase = self.params
            out = amp * np.sin(2.0 * np.pi * freq * t + phase)
        else:
            out = self._spline(t)
        return out if out.ndim else float(out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.zeros_like(t)
        elif self.kind == "affine":
            out = np.full_like(t, self.params[1])
        elif self.kind == "sinusoid":
            amp, freq, phase = self.params
            out = amp * 2.0 * np.pi * freq * np.cos(2.0 * np.pi * freq * t + phase)
        else:
            out = self._spline_d(t)
        return out if out.ndim else float(out)

    def scaled(self, factor: float) -> "RegressionFunction":
        """The same kind times a scalar, with the same smoothness budget."""
        p = self.params
        if self.kind == "sinusoid":
            p = (p[0] * factor,) + p[1:]
        elif self.kind == "spline":
            p = tuple(v * factor if i % 2 else v for i, v in enumerate(p))
        else:
            p = tuple(v * factor for v in p)
        return RegressionFunction(self.kind, p, beta=self.beta, L=self.L)

    @property
    def descriptor(self) -> str:
        args = ", ".join(f"{p:.12g}" for p in self.params)
        return f"{self.kind}({args})"

    def __repr__(self) -> str:
        return f"RegressionFunction({self.descriptor}, beta={self.beta}, L={self.L})"


class SumFunction:
    """f + h wrapper used by the neighborhood audit."""

    def __init__(self, f: RegressionFunction, h: RegressionFunction):
        self.f = f
        self.h = h
        self.beta = f.beta
        self.L = f.L
        self.beta0 = f.beta0
        self.beta1 = f.beta1

    def __call__(self, t):
        return self.f(t) + self.h(t)

    def derivative(self, t):
        return self.f.derivative(t) + self.h.derivative(t)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def rate_gamma_bar(n: int, beta: float, c_beta: float = 1.0) -> float:
    """Localization radius c * (log n / n)^(beta / (2 beta + 1))."""
    if n < 2:
        raise ArgumentError("rate needs n >= 2 so that log n > 0")
    if not 0.5 < beta < math.inf:
        raise ArgumentError("rate needs a finite beta > 1/2")
    if not 0.0 < c_beta < math.inf:
        raise ArgumentError("rate constant must be positive and finite")
    return c_beta * (math.log(n) / n) ** (beta / (2.0 * beta + 1.0))


# ---------------------------------------------------------------------------
# smoothness audits
# ---------------------------------------------------------------------------


class HolderReport:
    """Audit outcome: observed sup norm and smoothness ratio, and whether both stay within L."""

    def __init__(self, max_ratio: float, sup_abs: float, L: float):
        self.max_ratio = max_ratio
        self.sup_abs = sup_abs
        self.passed = max_ratio <= L * (1.0 + 1e-9) and sup_abs <= L * (1.0 + 1e-9)


def holder_check(f) -> HolderReport:
    """Audit |f| <= L and the beta-smoothness ratio on grid + random pairs."""
    rng = np.random.default_rng(HOLDER_SEED)
    grid = _dyadic_grid()
    sup_abs = float(np.max(np.abs(f(grid))))

    t = rng.random(HOLDER_PAIRS)
    s = rng.random(HOLDER_PAIRS)
    keep = t != s
    t, s = t[keep], s[keep]
    # adjacent dyadic pairs catch fine-scale roughness deterministically
    t = np.concatenate([t, grid[:-1]])
    s = np.concatenate([s, grid[1:]])

    g = f.derivative if f.beta0 == 1 else f
    diffs = np.abs(np.asarray(g(t)) - np.asarray(g(s)))
    ratios = diffs / np.abs(t - s) ** f.beta1
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    return HolderReport(max_ratio, sup_abs, f.L)


def neighborhood_violation(
    f: RegressionFunction, h: RegressionFunction, r: float
) -> str | None:
    """None iff sup|h| <= r and f + h stays in f's smoothness class.

    Otherwise the condition that fails, checked in that order: the
    radius-r ball, or the class (beta, L) of f + h.
    """
    if (f.beta, f.L) != (h.beta, h.L):
        raise ArgumentError("f and h must declare the same smoothness class")
    if not 0.0 <= r < math.inf:
        raise ArgumentError("neighborhood radius must be nonnegative and finite")
    sup_h = float(np.max(np.abs(np.asarray(h(_dyadic_grid())))))
    if sup_h > r * (1.0 + 1e-12) + 1e-300:
        return f"shift leaves the radius-{r:.6g} localization ball: sup|h| = {sup_h:.6g}"
    report = holder_check(SumFunction(f, h))
    if not report.passed:
        return (
            f"f + h leaves the smoothness class (beta = {f.beta:g}, L = {f.L:g}): "
            f"Hoelder ratio {report.max_ratio:.6g}, sup|f + h| = {report.sup_abs:.6g}"
        )
    return None


# ---------------------------------------------------------------------------
# descriptor parsing (config front end)
# ---------------------------------------------------------------------------


def parse_function(text: str, beta: float = 1.0, L: float = 1.0) -> RegressionFunction:
    """Build a RegressionFunction from 'kind(a, b, ...)' descriptor text."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise ArgumentError(f"malformed function descriptor {text!r}")
    kind, arg_text = text[:-1].split("(", 1)
    kind = kind.strip().lower()
    try:
        args = tuple(float(a) for a in arg_text.split(",")) if arg_text.strip() else ()
    except ValueError as exc:
        raise ArgumentError(f"non-numeric argument in descriptor {text!r}") from exc
    return RegressionFunction(kind, args, beta=beta, L=L)

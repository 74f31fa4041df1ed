"""Joint construction of the original and Gaussian likelihood processes.

Everything here lives on one probability space.  The raw scores of an
original-model draw drive both log-likelihood ratios: the weighted
score sum is pushed through its own distribution function onto a
Gaussian of matching variance (a sum-level quantile coupling), and the
per-point Gaussian vector is then filled in around that coupled sum so
that it has exactly the heteroscedastic product law.  The bounded-score
modification of the raw scores is provided separately.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .distances import _log_lik_arrays
from .errors import (
    ArgumentError,
    NeighborhoodError,
    NumericError,
    SingularityError,
    TruncationConstantError,
)
from .experiments import design_cell, lase_terms
from .families import ParametricFamily
from .function_space import RegressionFunction, neighborhood_contains
from .laws import (
    TruncatedLaw,
    WeightedSumLaw,
    apply_truncation,
    truncation_params,
)

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoupledLikelihoodDraw:
    """Both log-likelihood ratios of a stack of R joint draws, one (R,) array each."""

    log_lik_original: np.ndarray
    log_lik_gaussian: np.ndarray


@dataclass(frozen=True, eq=False)
class TruncationOutput:
    """Realized bounded scores plus the per-point modification inputs."""

    scores_star: np.ndarray
    bound_constant: float
    alpha: float
    r_n: float
    clip_level: float
    x_n: float
    variance_targets: np.ndarray
    kick_probs: np.ndarray
    clip_means: np.ndarray
    laws: list

    def bound_margins(self) -> np.ndarray:
        """bound_constant - |r_n^(1-alpha) * scores|; nonnegative always."""
        scale = self.r_n ** (1.0 - self.alpha)
        return self.bound_constant - np.abs(scale * self.scores_star)


@dataclass(frozen=True)
class CcAuditReport:
    """Empirical frequencies of the three coupling quality conditions.

    gap_freq: closeness failure P(|logLR difference| >= gap_constant *
    r_n^alpha1), under the central measure.  orig_tail_freq: large original ratio
    under the shifted measure, importance-reweighted from central-draw
    likelihoods.  gauss_tail_freq: large Gaussian ratio under the
    central measure.  target_scale = r_n^(2 alpha1) is the magnitude
    the frequencies are compared against.
    """

    gap_freq: float
    gap_stderr: float
    orig_tail_freq: float
    orig_tail_stderr: float
    gauss_tail_freq: float
    gauss_tail_stderr: float
    tail_threshold: float
    target_scale: float
    effective_sample_size: float
    reliable: bool
    replicate_count: int


# ---------------------------------------------------------------------------
# bounded-score modification
# ---------------------------------------------------------------------------


def _truncation_table(
    family: ParametricFamily,
    theta: np.ndarray,
    info: np.ndarray,
    clip_level: float,
    c1: float,
) -> list[TruncatedLaw]:
    """Per-point bounded-modification laws; aggregates constant failures.

    Points with equal (theta, information) share one law object.
    """
    keys = [(float(th), float(i_val)) for th, i_val in zip(theta, info)]
    shared: dict[tuple[float, float], TruncatedLaw | None] = {}
    worst: float | None = None
    for key in keys:
        if key in shared:
            continue
        law = family.score_law(key[0])
        try:
            params = truncation_params(law, clip_level, c1, target_second_moment=key[1])
        except TruncationConstantError as err:
            worst = err.suggested_c1 if worst is None else max(worst, err.suggested_c1)
            shared[key] = None
            continue
        shared[key] = TruncatedLaw(law, params)
    if worst is not None:
        raise TruncationConstantError(
            f"kick constant {c1:.4g} too small somewhere on the design; "
            f"at least {worst:.4g} is needed",
            suggested_c1=worst,
        )
    return [shared[key] for key in keys]


def truncate_scores(
    family: ParametricFamily,
    f: RegressionFunction,
    n: int,
    alpha: float,
    rng: np.random.Generator,
    c_rate: float = 1.0,
    c1: float = 1.0,
    beta: float = 1.0,
) -> TruncationOutput:
    """Draw raw scores and realize their bounded modification.

    The raw score at each design point is zeroed outside a window of
    half-width r_n^(alpha-1), recentered, and perturbed by an
    independent three-point variable restoring the exact per-point
    second moment I(f(t_i)).  The output scores obey
    |r_n^(1-alpha) * score| <= 2 + c1 deterministically.
    """
    if not 1.0 / (2.0 * beta) < alpha < 1.0:
        raise ArgumentError("alpha must lie in (1/(2 beta), 1)")
    if n <= 0:
        raise ArgumentError("need at least one design point")
    cell = design_cell(family, f, n)
    r_n = c_rate / math.sqrt(n)
    clip_level = r_n ** (alpha - 1.0)
    laws = _truncation_table(family, cell.theta, cell.info, clip_level, c1)
    x = family.sample(cell.table, rng)
    xi = np.asarray(family.score(x, cell.theta), dtype=float)
    clip_means = np.array([law.params.clip_mean for law in laws])
    kick_probs = np.array([law.params.p for law in laws])
    x_n = c1 * clip_level
    scores_star = apply_truncation(xi, clip_level, clip_means, kick_probs, x_n, rng)
    return TruncationOutput(
        scores_star=scores_star,
        bound_constant=2.0 + c1,
        alpha=alpha,
        r_n=r_n,
        clip_level=clip_level,
        x_n=x_n,
        variance_targets=cell.info,
        kick_probs=kick_probs,
        clip_means=clip_means,
        laws=laws,
    )


# ---------------------------------------------------------------------------
# joint likelihood construction
# ---------------------------------------------------------------------------


class CouplingPlan:
    """Per-cell precomputation shared by every replicate draw.

    Holds the design cell, the weighted-sum law of the score side (one
    FFT build; None when every score law is standard normal or the shift
    is zero, and both cases couple by identity) and, for a plan with a
    sum law whose family has a log-likelihood ratio affine in the score,
    the remainder table: remainder = remainder_weights . scores
    + remainder_offset.  Building the plan once and passing it to
    build_coupled_draw amortizes the heavy numerics across replicates.
    """

    def __init__(
        self,
        family: ParametricFamily,
        f: RegressionFunction,
        h: RegressionFunction,
        n: int,
        c_rate: float = 1.0,
        grid_size: int = 1 << 16,
    ):
        if n <= 0:
            raise ArgumentError("need at least one design point")
        self.h = h
        self.r_n = c_rate / math.sqrt(n)
        if not neighborhood_contains(f, h, self.r_n):
            raise NeighborhoodError(
                f"shift leaves the radius-{self.r_n:.6g} localization ball"
            )
        self.cell = cell = design_cell(family, f, n)
        self.h_values = np.asarray(h(cell.t), dtype=float)
        self.sigma2 = float(np.dot(self.h_values * self.h_values, cell.info))
        self.quadratic = 0.5 * self.sigma2
        laws = [family.score_law(float(th)) for th in cell.theta]
        all_gaussian = all(law.is_gaussian for law in laws)
        self.remainder_weights = None
        self.remainder_offset = 0.0
        self.sum_law = None
        if not all_gaussian and self.sigma2 > 0.0:
            shifted = family.require_theta(cell.theta + self.h_values)
            affine = family.log_lr_affine(cell.theta, shifted)
            if affine is not None:
                a, b = affine
                if not (np.isfinite(a).all() and np.isfinite(b).all()):
                    raise SingularityError(
                        f"{family.name}: log-likelihood ratio is not finite on the design"
                    )
                # log z_i = a_i score_i + b_i, so the exact remainder
                # sum(log z) - (h . scores - quadratic) is affine too
                self.remainder_weights = a - self.h_values
                self.remainder_offset = float(np.sum(b)) + self.quadratic
            self.sum_law = WeightedSumLaw(laws, self.h_values, grid_size=grid_size)


# Phi^-1 of the coupled sum: Wichura's AS241 in CPython's C accelerator,
# exact to libm log and sqrt.  uniformize has clipped u to
# [1e-14, 1 - 1e-14], so inv_cdf's (0, 1) check never fires; NaN maps to NaN.
_STD_NORMAL = statistics.NormalDist()


def _row_dots(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """weights . row for each row, one np.dot per row (the bits of a single draw)."""
    return np.array([np.dot(weights, row) for row in rows])


def build_coupled_draw(plan: CouplingPlan, rngs) -> CoupledLikelihoodDraw:
    """Joint draws of both log-likelihood ratios, one per generator in rngs.

    An original-model dataset is simulated under the central measure
    (shift zero) and scored; the weighted score sum is mapped to a
    Gaussian of the same variance by the quantile transform of its
    exact sum law, taken with jitter, and the per-point Gaussian vector
    zeta is completed around that sum so its law is exactly the
    heteroscedastic product.  With q = 0.5 * sum(h^2 * info), each
    draw satisfies by construction
      log_lik_original = sum(h * scores) - q + remainder
      log_lik_gaussian = sum(h * zeta) - q
    where the remainder is the dataset's own exact expansion remainder,
    so the original-side log-likelihood is the dataset's true
    log-likelihood ratio: a dot product with the plan's remainder
    table, or one lase_terms call on the whole stack for a family
    without one.  A plan without a sum law couples by identity: when
    every score law is already standard normal, or the shift is zero,
    the two sides coincide identically and the remainder is zero
    analytically.

    rngs is a sequence of R generators; the result holds (R,) arrays.
    Each replicate consumes its own generator in the same order: the
    sample, then, when the plan has a sum law, standard_normal(n) for
    the Gaussian fill and one jitter normal.  Row r equals the draw of
    [rngs[r]] alone, byte for byte.  A NumericError raised while drawing
    a replicate carries its row index in `row`.
    """
    if isinstance(rngs, np.random.Generator):
        raise ArgumentError("rngs must be a sequence of generators, one per replicate")
    rngs = list(rngs)
    family, n = plan.cell.family, plan.cell.n
    h_vals = plan.h_values
    quad = plan.quadratic
    coupled = plan.sum_law is not None

    x = np.empty((len(rngs), n))
    normals = np.empty_like(x) if coupled else None
    jitter = np.empty(len(rngs)) if coupled else None
    for row, gen in enumerate(rngs):
        try:
            x[row] = family.sample(plan.cell.table, gen)
            if coupled:
                normals[row] = gen.standard_normal(n)
                jitter[row] = gen.standard_normal()
        except NumericError as exc:
            exc.row = row
            raise

    scores = np.asarray(family.score(x, plan.cell.theta), dtype=float)
    weighted_sum = _row_dots(h_vals, scores)
    if not coupled:
        # scores are exact Gaussians already, or the shift is zero:
        # identity coupling, and the expansion remainder vanishes analytically
        rho = 0.0
        loglik_gauss = weighted_sum - quad
    else:
        if plan.remainder_weights is not None:
            rho = _row_dots(plan.remainder_weights, scores) + plan.remainder_offset
        else:
            rho = lase_terms(family, plan.cell.f, plan.h, plan.cell.draw(x)).remainder
        noise = np.sqrt(plan.cell.info) * normals
        u = plan.sum_law.uniformize(weighted_sum, jitter)
        quantiles = map(_STD_NORMAL.inv_cdf, u.tolist())
        coupled_sum = plan.sum_law.sigma * np.fromiter(quantiles, float, count=u.size)
        fill = h_vals * plan.cell.info / plan.sigma2
        zeta = noise + (coupled_sum - _row_dots(h_vals, noise))[:, None] * fill
        loglik_gauss = _row_dots(h_vals, zeta) - quad
    return CoupledLikelihoodDraw(
        log_lik_original=weighted_sum - quad + rho,
        log_lik_gaussian=loglik_gauss,
    )


# ---------------------------------------------------------------------------
# condition audits
# ---------------------------------------------------------------------------

AUDIT_MIN_DRAWS = 100  # fewest draws the condition audit accepts


def audit_cc_conditions(
    draws,
    r_n: float,
    alpha1: float,
    eps: float,
    gap_constant: float = 1.0,
) -> CcAuditReport:
    """Empirical check of the three closeness conditions on a draw batch.

    The batch must be generated under the central measure.  The
    closeness event uses the gap between the two log-likelihoods at
    scale gap_constant * r_n^alpha1; the tail events ask each ratio to
    stay below r_n^(-eps).  The original-ratio tail is evaluated under
    the shifted measure by self-normalized importance weighting with
    the original likelihood ratio itself.
    """
    a, b = _log_lik_arrays(draws)
    r = a.size
    if r < AUDIT_MIN_DRAWS:
        raise ArgumentError(f"need at least {AUDIT_MIN_DRAWS} draws for the condition audit")
    if not 0.0 < r_n < 1.0:
        raise ArgumentError("r_n must lie in (0, 1)")
    if alpha1 <= 0.0 or eps <= 0.0:
        raise ArgumentError("alpha1 and eps must be positive")

    gap_threshold = gap_constant * r_n**alpha1
    gap_events = (np.abs(a - b) >= gap_threshold).astype(float)
    gap_freq = float(gap_events.mean())
    gap_stderr = math.sqrt(gap_freq * (1.0 - gap_freq) / r)

    tail_threshold = -eps * math.log(r_n)
    w = np.exp(np.minimum(a, 50.0))
    w_sum = float(w.sum())
    orig_events = (a > tail_threshold).astype(float)
    orig_freq = float(np.dot(w, orig_events) / w_sum)
    orig_stderr = math.sqrt(float(np.sum((w / w_sum) ** 2 * (orig_events - orig_freq) ** 2)))
    ess = w_sum**2 / float(np.dot(w, w))
    reliable = ess >= 30.0
    if not reliable:
        warnings.warn(
            f"importance weights are degenerate (effective sample size "
            f"{ess:.1f} < 30); the shifted-measure tail frequency is unreliable",
            RuntimeWarning,
            stacklevel=2,
        )

    gauss_events = (b > tail_threshold).astype(float)
    gauss_freq = float(gauss_events.mean())
    gauss_stderr = math.sqrt(gauss_freq * (1.0 - gauss_freq) / r)

    return CcAuditReport(
        gap_freq=gap_freq,
        gap_stderr=gap_stderr,
        orig_tail_freq=orig_freq,
        orig_tail_stderr=orig_stderr,
        gauss_tail_freq=gauss_freq,
        gauss_tail_stderr=gauss_stderr,
        tail_threshold=tail_threshold,
        target_scale=r_n ** (2.0 * alpha1),
        effective_sample_size=ess,
        reliable=reliable,
        replicate_count=r,
    )

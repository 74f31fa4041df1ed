"""Joint construction of the original and Gaussian likelihood processes.

Everything here lives on one probability space.  The raw scores of an
original-model draw drive both log-likelihood ratios.  The original
side is the draw's exact log-likelihood ratio.  The Gaussian side
depends on the per-point Gaussian vector zeta only through h . zeta,
and a sum-level quantile coupling sets that sum directly: the weighted
score sum is pushed through its own distribution function onto a
Gaussian of matching variance.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass

import numpy as np

from .distances import _log_lik_arrays
from .errors import ArgumentError, NeighborhoodError, NumericError, SingularityError
from .experiments import design_cell, lase_terms
from .families import ParametricFamily
from .function_space import RegressionFunction, neighborhood_violation
from .laws import DEFAULT_GRID_SIZE, WeightedSumLaw

# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoupledLikelihoodDraw:
    """Both log-likelihood ratios of a stack of R joint draws, one (R,) array each."""

    log_lik_original: np.ndarray
    log_lik_gaussian: np.ndarray


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
# joint likelihood construction
# ---------------------------------------------------------------------------


class CouplingPlan:
    """Per-cell precomputation shared by every replicate draw.

    Holds the design cell, the weighted-sum law of the score side (one
    FFT build; None when every score law is standard normal or the shift
    is zero, and both cases couple by identity) and, for a plan with a
    sum law whose family has a log-likelihood ratio affine in the score,
    that ratio's table: log-LR = log_lr_slope . scores + log_lr_offset.
    Building the plan once and passing it to build_coupled_draw
    amortizes the heavy numerics across replicates.
    """

    def __init__(
        self,
        family: ParametricFamily,
        f: RegressionFunction,
        h: RegressionFunction,
        n: int,
        c_rate: float = 1.0,
        grid_size: int = DEFAULT_GRID_SIZE,
    ):
        if n <= 0:
            raise ArgumentError("need at least one design point")
        self.h = h
        self.r_n = c_rate / math.sqrt(n)
        violation = neighborhood_violation(f, h, self.r_n)
        if violation is not None:
            raise NeighborhoodError(violation)
        self.cell = cell = design_cell(family, f, n)
        self.h_values = np.asarray(h(cell.t), dtype=float)
        sigma2 = float(np.dot(self.h_values * self.h_values, cell.info))
        self.quadratic = 0.5 * sigma2
        laws = [family.score_law(float(th)) for th in cell.theta]
        self.log_lr_slope = None
        self.log_lr_offset = 0.0
        self.sum_law = None
        if not all(law.is_gaussian for law in laws) and sigma2 > 0.0:
            shifted = family.require_theta(cell.theta + self.h_values)
            affine = family.log_lr_affine(cell.theta, shifted)
            if affine is not None:
                a, b = affine
                if not (np.isfinite(a).all() and np.isfinite(b).all()):
                    raise SingularityError(
                        f"{family.name}: log-likelihood ratio is not finite on the design"
                    )
                # log z_i = a_i score_i + b_i at every design point
                self.log_lr_slope = a
                self.log_lr_offset = float(np.sum(b))
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
    (shift zero) and scored.  Its log-likelihood ratio is the exact one:
    a dot product with the plan's log-LR table, or one lase_terms call
    on the whole stack for a family without one.  The weighted score
    sum h . scores is mapped to a Gaussian of the same variance by the
    quantile transform of its exact sum law, taken with jitter.  With
    q = 0.5 * sum(h^2 * info), the Gaussian side is
      log_lik_gaussian = coupled_sum - q,
    the log-likelihood ratio of a Gaussian vector zeta with the exact
    heteroscedastic product law and h . zeta = coupled_sum; zeta itself
    is never formed.  A plan without a sum law couples by identity: when
    every score law is already standard normal, or the shift is zero,
    both sides are one array, h . scores - q.

    rngs is a sequence of R generators; the result holds (R,) arrays.
    Each replicate consumes its own generator in the same order: the
    sample, then, when the plan has a sum law, standard_normal(n) and
    one jitter normal.  Row r equals the draw of [rngs[r]] alone, byte
    for byte.  A NumericError raised while drawing a replicate carries
    its row index in `row`.
    """
    if isinstance(rngs, np.random.Generator):
        raise ArgumentError("rngs must be a sequence of generators, one per replicate")
    rngs = list(rngs)
    family, n = plan.cell.family, plan.cell.n
    coupled = plan.sum_law is not None

    x = np.empty((len(rngs), n))
    jitter = np.empty(len(rngs)) if coupled else None
    for row, gen in enumerate(rngs):
        try:
            x[row] = family.sample(plan.cell.table, gen)
            if coupled:
                # unread: kept so the jitter normal stays where recorded outputs drew it
                gen.standard_normal(n)
                jitter[row] = gen.standard_normal()
        except NumericError as exc:
            exc.row = row
            raise

    scores = np.asarray(family.score(x, plan.cell.theta), dtype=float)
    weighted_sum = _row_dots(plan.h_values, scores)
    if not coupled:
        # scores are exact Gaussians already, or the shift is zero
        loglik = weighted_sum - plan.quadratic
        return CoupledLikelihoodDraw(log_lik_original=loglik, log_lik_gaussian=loglik)
    if plan.log_lr_slope is not None:
        loglik_orig = _row_dots(plan.log_lr_slope, scores) + plan.log_lr_offset
    else:
        loglik_orig = lase_terms(family, plan.cell.f, plan.h, plan.cell.draw(x))
    u = plan.sum_law.uniformize(weighted_sum, jitter)
    quantiles = map(_STD_NORMAL.inv_cdf, u.tolist())
    coupled_sum = plan.sum_law.sigma * np.fromiter(quantiles, float, count=u.size)
    return CoupledLikelihoodDraw(
        log_lik_original=loglik_orig,
        log_lik_gaussian=coupled_sum - plan.quadratic,
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
    if not all(0.0 < v < math.inf for v in (alpha1, eps, gap_constant)):
        raise ArgumentError("alpha1, eps and gap_constant must be positive and finite")

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

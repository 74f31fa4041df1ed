"""Global pipeline: blocks, preliminary estimation, and Gaussianization.

The kernel that turns original regression data into approximately
Gaussian data works in two halves.  The odd-indexed half feeds a
window-average preliminary estimate of the regression function; the
even-indexed half is aggregated over blocks, each block mean is pushed
through the family's variance-stabilizing map, and the stabilized
discrepancy is spread back over the block's points together with
block-demeaned Gaussian noise.  Nothing in the kernel reads the true
regression function; its output is audited against the unit-noise
Gaussian target rather than assumed correct.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distances import DistanceReport
from .errors import ArgumentError
from .experiments import ExperimentDraw, _working_values, design_grid, sample_original
from .families import ParametricFamily
from .function_space import RegressionFunction, rate_gamma_bar

BLOCK_EXPONENT = 0.9  # module-level exponent feeding the block-size rule
WINDOW_CONSTANT = 2.0  # window width factor of the window-average estimators


# ---------------------------------------------------------------------------
# piecewise-constant estimates
# ---------------------------------------------------------------------------


def _window_of(t, n_windows: int) -> np.ndarray:
    """Index k - 1 of the window ((k-1)/m, k/m] holding t, clamped to [0, m - 1]."""
    idx = np.ceil(np.asarray(t, dtype=float) * n_windows).astype(int) - 1
    return np.minimum(n_windows - 1, np.maximum(0, idx))


def _clip_to_image(family: ParametricFamily, to_mean, values) -> np.ndarray:
    """Clip values to the image of the working interval under monotone to_mean."""
    lo, hi = family.working_interval
    m_lo, m_hi = sorted((float(to_mean(lo)), float(to_mean(hi))))
    # np.minimum(hi, np.maximum(lo, x)) is np.clip(x, lo, hi), signed zeros
    # included, without np.clip's Python wrapper
    return np.minimum(m_hi, np.maximum(m_lo, values))


class StepFunction:
    """Left-open piecewise-constant function on uniform windows of (0, 1]."""

    def __init__(self, values: np.ndarray, sup_target: float = 0.0):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ArgumentError("need a one-dimensional nonempty value table")
        self.values = values
        self.n_windows = values.size
        self.sup_target = sup_target

    def window_index(self, t) -> np.ndarray:
        return _window_of(t, self.n_windows)

    def __call__(self, t):
        out = self.values[self.window_index(t)]
        return out if np.ndim(out) else float(out)

    @property
    def descriptor(self) -> str:
        return f"steps({self.n_windows} windows)"


# ---------------------------------------------------------------------------
# block partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Contiguous blocks of the design index set {1..n}."""

    n: int
    m_blocks: int
    boundaries: np.ndarray
    blocks: list
    delta_n: float
    alpha_prime: float
    q: float

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(b) for b in self.blocks])

    @property
    def single_block(self) -> bool:
        return self.m_blocks == 1


def _block_count(n: int, beta: float, q: float) -> tuple[int, float, float]:
    alpha_prime = 1.0 / (2.0 * beta) + q * (BLOCK_EXPONENT - 1.0 / (2.0 * beta))
    gamma_n = rate_gamma_bar(n, beta, 1.0)
    delta_n = gamma_n ** (2.0 * alpha_prime)
    m = 1 if delta_n >= 1.0 else int(math.floor(1.0 / delta_n))
    return m, delta_n, alpha_prime


def block_partition(n: int, beta: float, q: float) -> BlockPartition:
    """Partition {1..n} into blocks whose width tracks the squared rate.

    The block scale is delta_n = gamma_bar_n^(2 alpha') with
    alpha' = 1/(2 beta) + q (BLOCK_EXPONENT - 1/(2 beta)); boundaries
    sit at the largest design point below each multiple of 1/M_n.
    """
    if n < 4:
        raise ArgumentError("need at least 4 design points")
    if not 0.0 < q <= 0.25:
        raise ArgumentError("q must lie in (0, 1/4]")
    if not 1.0 / (2.0 * beta) < BLOCK_EXPONENT < 1.0:
        raise ArgumentError("block exponent must lie in (1/(2 beta), 1)")
    m, delta_n, alpha_prime = _block_count(n, beta, q)
    if m > n // 2:
        probe = n
        while True:
            probe *= 2
            if _block_count(probe, beta, q)[0] <= probe // 2:
                break
        lo, hi = n, probe
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if _block_count(mid, beta, q)[0] <= mid // 2:
                hi = mid
            else:
                lo = mid
        raise ArgumentError(
            f"n={n} is too small for beta={beta:.4g}: {m} blocks would each "
            f"hold under two points; need n >= {hi}"
        )
    cuts = np.floor(n * np.arange(m + 1) / m).astype(int)
    boundaries = cuts / n
    blocks = [np.arange(cuts[k] + 1, cuts[k + 1] + 1) for k in range(m)]
    return BlockPartition(
        n=n,
        m_blocks=m,
        boundaries=boundaries,
        blocks=blocks,
        delta_n=delta_n,
        alpha_prime=alpha_prime,
        q=q,
    )


# ---------------------------------------------------------------------------
# preliminary estimator
# ---------------------------------------------------------------------------


def _window_means(t: np.ndarray, values: np.ndarray, n_windows: int) -> np.ndarray:
    """Per-window means with empty windows filled from their neighbors."""
    idx = _window_of(t, n_windows)
    sums = np.bincount(idx, weights=values, minlength=n_windows)
    counts = np.bincount(idx, minlength=n_windows)
    filled = counts > 0
    means = np.zeros(n_windows)
    means[filled] = sums[filled] / counts[filled]
    if not np.all(filled):
        centers = (np.arange(n_windows) + 0.5) / n_windows
        means[~filled] = np.interp(
            centers[~filled], centers[filled], means[filled]
        )
    return means


def _window_estimate(family, draw, values, beta, to_mean, from_mean):
    """Step-function estimate from the window means of values.

    The means are clipped to the image of the working interval under
    to_mean, mapped back through from_mean and clipped to the interval.
    """
    if draw.n < 2:
        raise ArgumentError("need at least two observations")
    m = draw.n
    width = WINDOW_CONSTANT * (math.log(m) / m) ** (1.0 / (2.0 * beta + 1.0))
    n_windows = max(1, math.ceil(1.0 / width))
    clipped = _clip_to_image(family, to_mean, _window_means(draw.design, values, n_windows))
    lo, hi = family.working_interval
    theta = np.minimum(hi, np.maximum(lo, from_mean(clipped)))
    return StepFunction(theta, sup_target=rate_gamma_bar(m, beta, 1.0))


def preliminary_estimate(
    family: ParametricFamily,
    draw: ExperimentDraw,
    beta: float,
) -> StepFunction:
    """Window-average estimate of the regression function from a draw.

    Windows have width about WINDOW_CONSTANT (log m / m)^(1/(2 beta+1));
    within each window the sufficient statistic is averaged, mapped back
    to the parameter scale through the inverse mean map, and clipped to
    the family's working interval.  The returned step function carries
    the targeted sup-norm rate as `sup_target`.
    """
    if draw.model != "original":
        raise ArgumentError("the preliminary estimator expects original-model data")
    return _window_estimate(
        family, draw, family.suff_stat(draw.observations), beta,
        family.stat_mean, family.stat_mean_inverse,
    )


# ---------------------------------------------------------------------------
# the Gaussianizing kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GaussianizedData:
    """Synthetic unit-noise Gaussian data produced by the kernel."""

    draw: ExperimentDraw
    kernel_descriptor: str
    odd_count: int
    even_count: int
    partition: BlockPartition
    clip_warning_count: int

    def __post_init__(self):
        if self.draw.model != "gaussianized":
            raise ArgumentError("kernel output must carry the gaussianized tag")
        if not np.all(np.isfinite(self.draw.observations)):
            raise ArgumentError("kernel output must be finite")

    @property
    def single_block(self) -> bool:
        return self.partition.single_block


def gaussianize(
    family: ParametricFamily,
    draw: ExperimentDraw,
    beta: float,
    rng: np.random.Generator,
    q: float = 0.25,
) -> GaussianizedData:
    """Map an original-model draw to synthetic unit-noise Gaussian data.

    Odd-indexed observations (1-based) feed the preliminary estimate;
    their synthetic values are the stabilized estimate plus fresh
    standard normals.  Even-indexed observations are aggregated over a
    block partition: each block contributes the stabilized discrepancy
    between its statistic mean and the mean predicted by the estimate
    at the block center, spread over the block on top of block-demeaned
    noise so every point has unit variance.  Only the draw is read; the
    true regression function never enters.
    """
    if draw.model != "original":
        raise ArgumentError("the kernel expects original-model data")
    if draw.family != family.name:
        raise ArgumentError(
            f"draw comes from family {draw.family!r}, not {family.name!r}"
        )
    if draw.n < 8:
        raise ArgumentError("need at least 8 observations to split and block")
    n = draw.n
    odd = np.arange(0, n, 2)  # rows 1,3,5,... in 1-based labels
    even = np.arange(1, n, 2)
    odd_draw = ExperimentDraw(
        model="original",
        n=odd.size,
        design=draw.design[odd],
        observations=draw.observations[odd],
        family=draw.family,
        f_desc=draw.f_desc,
        h_desc=draw.h_desc,
        seed=draw.seed,
    )
    fhat = preliminary_estimate(family, odd_draw, beta)

    stabilized = family.gamma(fhat(draw.design))
    y = np.empty(n)
    y[odd] = stabilized[odd] + rng.standard_normal(odd.size)

    part = block_partition(even.size, beta, q)
    t_even = draw.design[even]
    stats_even = np.asarray(family.suff_stat(draw.observations[even]), dtype=float)
    # blocks are contiguous runs of the even rows; slice means keep the
    # summation order of a per-block loop, which np.add.reduceat does not
    sizes = part.sizes
    ends = np.cumsum(sizes)
    spans = [slice(end - size, end) for size, end in zip(sizes, ends)]
    stat_means = np.array([stats_even[s].mean() for s in spans])
    centers = np.array([t_even[s].mean() for s in spans])
    clipped = _clip_to_image(family, family.stat_mean, stat_means)
    clip_count = int(np.count_nonzero(clipped != stat_means))
    predicted = family.stat_mean(fhat(centers))
    shift = family.vst(clipped) - family.vst(predicted)
    # one call draws the same normals as one call per block, in block order
    noise = rng.standard_normal(even.size)
    for s in spans:
        noise[s] -= noise[s].mean()
    y[even] = stabilized[even] + np.repeat(shift, sizes) + noise
    if clip_count:
        warnings.warn(
            f"{clip_count} block statistic(s) fell outside the working mean "
            "range and were clipped",
            RuntimeWarning,
            stacklevel=2,
        )

    out = ExperimentDraw(
        model="gaussianized",
        n=n,
        design=draw.design,
        observations=y,
        family=draw.family,
        f_desc=draw.f_desc,
        h_desc=draw.h_desc,
        seed=draw.seed,
    )
    desc = (
        f"odd/even split; {fhat.n_windows}-window estimate from {odd.size} odd "
        f"points; {part.m_blocks} stabilized block(s) over {even.size} even points"
    )
    return GaussianizedData(
        draw=out,
        kernel_descriptor=desc,
        odd_count=odd.size,
        even_count=even.size,
        partition=part,
        clip_warning_count=clip_count,
    )


def gamma_scale_estimate(
    family: ParametricFamily,
    draw: ExperimentDraw,
    beta: float,
) -> StepFunction:
    """Window-average estimator for unit-noise Gaussian-model data.

    Averages the observations per window (they estimate the stabilized
    regression function), inverts the stabilizing map, and clips to the
    working interval; the Gaussian-model counterpart of
    preliminary_estimate.
    """
    if draw.model not in ("gaussianized", "global-gaussian"):
        raise ArgumentError("expected data on the stabilized Gaussian scale")
    return _window_estimate(
        family, draw, draw.observations, beta,
        family.gamma, family.gamma_inverse,
    )


# ---------------------------------------------------------------------------
# homoscedastic transformation check
# ---------------------------------------------------------------------------


def homoscedastic_transform_check(
    family: ParametricFamily,
    f: RegressionFunction,
    h: RegressionFunction,
    n: int,
) -> DistanceReport:
    """Closed-form H^2 between the two local Gaussian forms.

    Compares heteroscedastic shifts h(t_i) with noise 1/sqrt(I) against
    unit-noise shifts of the stabilized function, i.e. per-point means
    m1 = gamma(f+h) - gamma(f) versus m2 = h sqrt(I(f)); the product
    rule for Gaussian factors gives H^2 = 1 - exp(-sum (m1-m2)^2 / 8).
    """
    if n <= 0:
        raise ArgumentError("need at least one design point")
    t = design_grid(n)
    theta = _working_values(family, f, n)
    shifted = family.require_theta(theta + np.asarray(h(t), dtype=float))
    m1 = np.asarray(family.gamma(shifted), dtype=float) - np.asarray(
        family.gamma(theta), dtype=float
    )
    m2 = np.asarray(h(t), dtype=float) * np.sqrt(
        np.asarray(family.fisher(theta), dtype=float)
    )
    value = 1.0 - math.exp(-0.125 * float(np.sum((m1 - m2) ** 2)))
    return DistanceReport(
        kind="hellinger2",
        method="closed-form",
        value=min(max(value, 0.0), 1.0),
        n=n,
        family=family.name,
        f_desc=f.descriptor,
        h_desc=h.descriptor,
    )


# ---------------------------------------------------------------------------
# end-to-end risk transfer
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RiskTransferTable:
    """Paired bounded-loss risks from the direct and transferred paths."""

    loss_caps: np.ndarray
    direct_risk: np.ndarray
    direct_stderr: np.ndarray
    transferred_risk: np.ndarray
    transferred_stderr: np.ndarray
    replicate_count: int
    sup_errors_direct: np.ndarray
    sup_errors_transferred: np.ndarray


def risk_transfer_demo(
    family: ParametricFamily,
    f: RegressionFunction,
    n: int,
    loss_grid,
    rng: np.random.Generator,
    R: int,
    beta: float = 1.0,
    q: float = 0.25,
) -> RiskTransferTable:
    """Estimate f from original data and from kernel output, side by side.

    Per replicate the same original draw is (a) fed to the preliminary
    estimator directly and (b) Gaussianized and estimated on the
    stabilized scale; sup-norm errors against the truth give clipped
    squared losses min(err^2, cap) for each cap in loss_grid.
    """
    if R < 50:
        raise ArgumentError("need at least 50 replicates")
    caps = np.asarray(loss_grid, dtype=float)
    if caps.ndim != 1 or caps.size == 0 or np.any(caps <= 0.0):
        raise ArgumentError("loss_grid must be a nonempty list of positive caps")
    t = design_grid(n)
    truth = np.asarray(f(t), dtype=float)
    err_a = np.empty(R)
    err_b = np.empty(R)
    for r in range(R):
        draw = sample_original(family, f, n, rng, seed=r)
        fhat_a = preliminary_estimate(family, draw, beta)
        err_a[r] = float(np.max(np.abs(fhat_a(t) - truth)))
        gz = gaussianize(family, draw, beta, rng, q=q)
        fhat_b = gamma_scale_estimate(family, gz.draw, beta)
        err_b[r] = float(np.max(np.abs(fhat_b(t) - truth)))

    def risk_rows(errors):
        losses = np.minimum(errors[None, :] ** 2, caps[:, None])
        mean = losses.mean(axis=1)
        stderr = losses.std(axis=1, ddof=1) / math.sqrt(R)
        return mean, stderr

    risk_a, se_a = risk_rows(err_a)
    risk_b, se_b = risk_rows(err_b)
    return RiskTransferTable(
        loss_caps=caps,
        direct_risk=risk_a,
        direct_stderr=se_a,
        transferred_risk=risk_b,
        transferred_stderr=se_b,
        replicate_count=R,
        sup_errors_direct=err_a,
        sup_errors_transferred=err_b,
    )

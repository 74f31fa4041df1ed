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
from .experiments import DesignCell, ExperimentDraw, design_cell, sample_original
from .families import ParametricFamily
from .function_space import RegressionFunction, rate_gamma_bar

BLOCK_EXPONENT = 0.9  # module-level exponent feeding the block-size rule
WINDOW_CONSTANT = 2.0  # window width factor of the window-average estimators
# cells per replicate stack: max(1, _STACK_CELLS // n) draws of length n go
# through the kernel or the coupled draw at once, about 256 kB per (rows, n) array
_STACK_CELLS = 2**15


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
    """Left-open piecewise-constant function on uniform windows of (0, 1].

    The windows run along the last axis of `values`; a (rows, windows)
    table holds one function per row of a replicate stack, and a call
    returns one row of values per function.
    """

    def __init__(self, values: np.ndarray, sup_target: float = 0.0):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.size == 0:
            raise ArgumentError("need a nonempty value table of one or two dimensions")
        self.values = values
        self.n_windows = values.shape[-1]
        self.sup_target = sup_target

    def window_index(self, t) -> np.ndarray:
        return _window_of(t, self.n_windows)

    def __call__(self, t):
        out = self.values[..., self.window_index(t)]
        return out if np.ndim(out) else float(out)

    @property
    def descriptor(self) -> str:
        return f"steps({self.n_windows} windows)"


# ---------------------------------------------------------------------------
# block partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Contiguous blocks of the design index set {1..n}, given by their cut points.

    Block k holds the labels cuts[k] + 1 .. cuts[k + 1], so the cuts run
    from 0 to n and a block's rows are the slice cuts[k]:cuts[k + 1].
    """

    n: int
    cuts: np.ndarray
    delta_n: float

    @property
    def m_blocks(self) -> int:
        return self.cuts.size - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.cuts)


def block_partition(n: int, beta: float, q: float) -> BlockPartition:
    """Partition {1..n} into blocks whose width tracks the squared rate.

    The block scale is delta_n = gamma_bar_n^(2 alpha') with
    alpha' = 1/(2 beta) + q (BLOCK_EXPONENT - 1/(2 beta)); the
    M_n = floor(1/delta_n) blocks (one when delta_n >= 1) are cut at
    floor(n k / M_n) for k = 0..M_n.  Every block holds at least two
    points: M_n <= (n / log n)^e with e = (1 + q (1.8 beta - 1)) /
    (2 beta + 1), where 1.8 = 2 BLOCK_EXPONENT.  For q <= 1/4, e falls
    as beta grows, so over beta > 1/1.8 it stays below 1/2.111 < 0.474,
    and M_n <= floor(n/2) for every n >= 4.
    """
    if n < 4:
        raise ArgumentError("need at least 4 design points")
    if not 0.0 < q <= 0.25:
        raise ArgumentError("q must lie in (0, 1/4]")
    if not 1.0 / (2.0 * beta) < BLOCK_EXPONENT < 1.0:
        raise ArgumentError("block exponent must lie in (1/(2 beta), 1)")
    alpha = 1.0 / (2.0 * beta) + q * (BLOCK_EXPONENT - 1.0 / (2.0 * beta))
    delta_n = rate_gamma_bar(n, beta, 1.0) ** (2.0 * alpha)
    m = 1 if delta_n >= 1.0 else int(math.floor(1.0 / delta_n))
    cuts = np.floor(n * np.arange(m + 1) / m).astype(int)
    return BlockPartition(n=n, cuts=cuts, delta_n=delta_n)


# ---------------------------------------------------------------------------
# preliminary estimator
# ---------------------------------------------------------------------------


def _window_means(t: np.ndarray, values: np.ndarray, n_windows: int) -> np.ndarray:
    """Per-window means along the last axis, empty windows filled from neighbors.

    Row r of a (rows, n) stack bins into windows r * n_windows onward of
    one bincount, which adds each window's values in index order, as a
    bincount of that row alone does.
    """
    idx = _window_of(t, n_windows)
    rows = values.shape[:-1]
    offsets = n_windows * np.arange(math.prod(rows)).reshape(rows + (1,))
    sums = np.bincount(
        (idx + offsets).ravel(), weights=values.ravel(), minlength=offsets.size * n_windows
    ).reshape(rows + (n_windows,))
    counts = np.bincount(idx, minlength=n_windows)
    filled = counts > 0
    means = np.zeros(rows + (n_windows,))
    means[..., filled] = sums[..., filled] / counts[filled]
    if not np.all(filled):
        centers = (np.arange(n_windows) + 0.5) / n_windows
        for row in means.reshape(-1, n_windows):
            row[~filled] = np.interp(centers[~filled], centers[filled], row[filled])
    return means


def _window_estimate(family, draw, values, beta, to_mean, from_mean):
    """Step-function estimate from the window means of values.

    The means are clipped to the image of the working interval under
    to_mean, mapped back through from_mean and clipped to the interval.
    """
    if draw.n < 2:
        raise ArgumentError("need at least two observations")
    m = draw.n
    sup_target = rate_gamma_bar(m, beta, 1.0)
    width = WINDOW_CONSTANT * (math.log(m) / m) ** (1.0 / (2.0 * beta + 1.0))
    n_windows = max(1, math.ceil(1.0 / width))
    clipped = _clip_to_image(family, to_mean, _window_means(draw.design, values, n_windows))
    lo, hi = family.working_interval
    theta = np.minimum(hi, np.maximum(lo, from_mean(clipped)))
    return StepFunction(theta, sup_target=sup_target)


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
    """Synthetic unit-noise Gaussian data produced by the kernel.

    For a replicate stack the draw holds one output row per input row
    and clip_warning_count is an array with one count per row.
    """

    draw: ExperimentDraw
    kernel_descriptor: str
    partition: BlockPartition
    clip_warning_count: int | np.ndarray

    def __post_init__(self):
        if self.draw.model != "gaussianized":
            raise ArgumentError("kernel output must carry the gaussianized tag")
        if not np.all(np.isfinite(self.draw.observations)):
            raise ArgumentError("kernel output must be finite")


KERNEL_MIN_N = 8  # fewest observations the kernel splits and blocks


def gaussianize(
    family: ParametricFamily,
    draw: ExperimentDraw,
    beta: float,
    noise: np.ndarray,
    q: float = 0.25,
) -> GaussianizedData:
    """Map an original-model draw to synthetic unit-noise Gaussian data.

    Odd-indexed observations (1-based) feed the preliminary estimate;
    their synthetic values are the stabilized estimate plus standard
    normals.  Even-indexed observations are aggregated over a block
    partition: each block contributes the stabilized discrepancy
    between its statistic mean and the mean predicted by the estimate
    at the block center, spread over the block on top of block-demeaned
    noise so every point has unit variance.  Only the draw and the
    noise are read; the true regression function never enters.

    `noise` has the shape of the observations, (n,) or a (rows, n)
    replicate stack, and holds standard normals, e.g. one
    rng.standard_normal(n) per row: the first ceil(n/2) values of a row
    go to its odd rows, the rest to its even rows.  A stack's rows are
    mapped independently; each equals the output for that row alone.
    """
    if draw.model != "original":
        raise ArgumentError("the kernel expects original-model data")
    if draw.family != family.name:
        raise ArgumentError(
            f"draw comes from family {draw.family!r}, not {family.name!r}"
        )
    if draw.n < KERNEL_MIN_N:
        raise ArgumentError(f"need at least {KERNEL_MIN_N} observations to split and block")
    noise = np.asarray(noise, dtype=float)
    if noise.shape != draw.observations.shape:
        raise ArgumentError(
            f"noise of shape {noise.shape} does not match the observations "
            f"of shape {draw.observations.shape}"
        )
    n = draw.n
    odd = slice(0, None, 2)  # rows 1,3,5,... in 1-based labels
    even = slice(1, None, 2)
    n_odd = (n + 1) // 2
    odd_draw = ExperimentDraw(
        model="original",
        design=draw.design[odd],
        observations=draw.observations[..., odd],
        family=draw.family,
        seed=draw.seed,
    )
    fhat = preliminary_estimate(family, odd_draw, beta)

    stabilized = family.gamma(fhat(draw.design))
    y = np.empty(noise.shape)
    y[..., odd] = stabilized[..., odd] + noise[..., :n_odd]

    part = block_partition(n - n_odd, beta, q)
    t_even = draw.design[even]
    stats_even = np.asarray(family.suff_stat(draw.observations[..., even]), dtype=float)
    # blocks are contiguous runs of the even rows; slice means keep the
    # summation order of a per-block loop, which np.add.reduceat does not
    spans = [slice(lo, hi) for lo, hi in zip(part.cuts[:-1], part.cuts[1:])]
    stat_means = np.stack([stats_even[..., s].mean(axis=-1) for s in spans], axis=-1)
    centers = np.array([t_even[s].mean() for s in spans])
    clipped = _clip_to_image(family, family.stat_mean, stat_means)
    clip_counts = np.count_nonzero(clipped != stat_means, axis=-1)
    predicted = family.stat_mean(fhat(centers))
    shift = family.vst(clipped) - family.vst(predicted)
    # the even-row normals, demeaned block by block
    fill = noise[..., n_odd:].copy()
    for s in spans:
        fill[..., s] -= fill[..., s].mean(axis=-1, keepdims=True)
    y[..., even] = stabilized[..., even] + np.repeat(shift, part.sizes, axis=-1) + fill
    counts = np.ravel(clip_counts)
    for count in counts[counts > 0]:
        warnings.warn(
            f"{count} block statistic(s) fell outside the working mean "
            "range and were clipped",
            RuntimeWarning,
            stacklevel=2,
        )

    out = ExperimentDraw(
        model="gaussianized",
        design=draw.design,
        observations=y,
        family=draw.family,
        seed=draw.seed,
    )
    desc = (
        f"odd/even split; {fhat.n_windows}-window estimate from {n_odd} odd "
        f"points; {part.m_blocks} stabilized block(s) over {part.n} even points"
    )
    return GaussianizedData(
        draw=out,
        kernel_descriptor=desc,
        partition=part,
        clip_warning_count=clip_counts if clip_counts.ndim else int(clip_counts),
    )


def _stack_bounds(n: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """(start, stop) of the stacks that cover replicates lo..hi-1 in order.

    The one stack rule of the kernel and of the coupled draws: a stack of
    replicates with n points each holds at most max(1, _STACK_CELLS // n) rows.
    """
    step = max(1, _STACK_CELLS // n)
    return [(start, min(start + step, hi)) for start in range(lo, hi, step)]


def _replicate_stacks(cell: DesignCell, lo: int, hi: int, replicate):
    """Yield (start, stop, stack, noise) over replicates lo..hi-1 in stacks.

    replicate(r) returns replicate r's original draw on the cell and its
    kernel noise row.  It is called for r = lo, lo+1, ... in turn, so a
    generator shared between replicates is consumed as in a loop of one
    replicate at a time; the stacks follow _stack_bounds, each is one
    draw on the cell, and each carries the seed label of its last draw.
    """
    for start, stop in _stack_bounds(cell.n, lo, hi):
        obs = np.empty((stop - start, cell.n))
        noise = np.empty_like(obs)
        for row, r in enumerate(range(start, stop)):
            draw, noise[row] = replicate(r)
            obs[row] = draw.observations
        yield start, stop, cell.draw(obs, seed=draw.seed), noise


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
    cell = design_cell(family, f, n)
    h_vals = np.asarray(h(cell.t), dtype=float)
    shifted = family.require_theta(cell.theta + h_vals)
    m1 = family.gamma(shifted) - family.gamma(cell.theta)
    m2 = h_vals * np.sqrt(cell.info)
    value = 1.0 - math.exp(-0.125 * float(np.sum((m1 - m2) ** 2)))
    return DistanceReport(
        kind="hellinger2",
        method="closed-form",
        value=min(max(value, 0.0), 1.0),
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


RISK_MIN_REPLICATES = 50  # fewest replicates the risk-transfer demo accepts


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
    squared losses min(err^2, cap) for each cap in loss_grid.  rng
    draws each replicate's sample and then its kernel noise, replicate
    after replicate; the estimates run on replicate stacks.
    """
    if R < RISK_MIN_REPLICATES:
        raise ArgumentError(f"need at least {RISK_MIN_REPLICATES} replicates")
    caps = np.asarray(loss_grid, dtype=float)
    if caps.ndim != 1 or caps.size == 0 or np.any(caps <= 0.0):
        raise ArgumentError("loss_grid must be a nonempty list of positive caps")
    if n < KERNEL_MIN_N:
        raise ArgumentError(f"need at least {KERNEL_MIN_N} observations to split and block")
    cell = design_cell(family, f, n)
    err_a = np.empty(R)
    err_b = np.empty(R)

    def replicate(r):
        # one generator: replicate r's sample, then its kernel noise
        return sample_original(cell, rng, seed=r), rng.standard_normal(n)

    for lo, hi, stack, noise in _replicate_stacks(cell, 0, R, replicate):
        fhat_a = preliminary_estimate(family, stack, beta)
        err_a[lo:hi] = np.max(np.abs(fhat_a(cell.t) - cell.theta), axis=-1)
        gz = gaussianize(family, stack, beta, noise, q=q)
        fhat_b = gamma_scale_estimate(family, gz.draw, beta)
        err_b[lo:hi] = np.max(np.abs(fhat_b(cell.t) - cell.theta), axis=-1)

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

"""Samplers, the draw file format and the exact log-likelihood ratio.

The original experiment observes X_i ~ p(., f(i/n)) at design points
i/n; its global Gaussian approximation observes gamma(f(i/n)) with unit
noise.  lase_terms gives the exact log-likelihood ratio between f and
f + h on an original-model draw, the original side of a coupled draw
for a family without an affine log-likelihood table.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, SingularityError
from .families import ParametricFamily, SamplingTable
from .function_space import RegressionFunction

MODEL_TAGS = ("original", "global-gaussian", "gaussianized")

# The read-only design of every live design cell, by id.  A draw on one
# of them skips the O(n) ordering check: design_cell built it increasing.
_CELL_DESIGNS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


# ---------------------------------------------------------------------------
# draws and their file format
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentDraw:
    """One realized dataset on the design grid i/n, i = 1..n.

    observations is (n,) for one draw, or (rows, n) for a stack of
    replicate draws that share the design; n is the design length.  The
    design must be finite and strictly increasing, which a design
    cell's is.  The record holds what a draw file holds.
    """

    model: str
    design: np.ndarray
    observations: np.ndarray
    family: str
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_TAGS:
            raise ArgumentError(f"unknown model tag {self.model!r}")
        if np.ndim(self.observations) not in (1, 2):
            raise ArgumentError("observations must be one draw or a stack of draws")
        if np.shape(self.observations)[-1] != len(self.design):
            raise ArgumentError("draw length must equal the design length")
        design = self.design
        if _CELL_DESIGNS.get(id(design)) is not design and not (
            np.all(np.diff(design) > 0) and np.all(np.isfinite(design))
        ):
            raise ArgumentError("design points must be finite and strictly increasing")

    @property
    def n(self) -> int:
        return len(self.design)


def design_grid(n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=float) / n


def write_draw(draw: ExperimentDraw, path) -> None:
    """Columnar text serialization: four header lines, then i, t_i, x_i."""
    if np.ndim(draw.observations) != 1:
        raise ArgumentError("write_draw writes one draw, not a stack")
    lines = [
        f"# family = {draw.family}",
        f"# model = {draw.model}",
        f"# n = {draw.n}",
        f"# seed = {draw.seed}",
    ]
    for i in range(draw.n):
        lines.append(
            f"{i + 1}, {float(draw.design[i])!r}, {float(draw.observations[i])!r}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_draw(path) -> ExperimentDraw:
    header: dict[str, str] = {}
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    header[key.strip()] = value.strip()
                continue
            try:
                _, t, x = line.split(",")
                rows.append((float(t), float(x)))
            except ValueError as exc:
                raise ArgumentError(f"malformed draw row: {line!r}") from exc
    for key in ("family", "model", "n", "seed"):
        if key not in header:
            raise ArgumentError(f"draw file is missing the '# {key} =' header")
    try:
        n, seed = int(header["n"]), int(header["seed"])
    except ValueError as exc:
        raise ArgumentError("draw file headers n and seed must be integers") from exc
    if len(rows) != n:
        raise ArgumentError(f"draw file declares n={n} but has {len(rows)} rows")
    design = np.array([r[0] for r in rows])
    obs = np.array([r[1] for r in rows])
    if not np.all(np.isfinite(obs)):
        raise ArgumentError("draw file observations must be finite")
    return ExperimentDraw(
        model=header["model"],
        design=design,
        observations=obs,
        family=header["family"],
        seed=seed,
    )


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DesignCell:
    """The checked design of one (family, f, n) unit; every draw of the unit shares it."""

    family: ParametricFamily
    f: RegressionFunction
    n: int
    t: np.ndarray
    theta: np.ndarray
    info: np.ndarray
    table: SamplingTable

    def draw(self, observations, seed: int = 0) -> ExperimentDraw:
        """An original-model draw, or a stack of them, on this cell's design."""
        return ExperimentDraw(
            model="original",
            design=self.t,
            observations=observations,
            family=self.family.name,
            seed=seed,
        )


def design_cell(family: ParametricFamily, f: RegressionFunction, n: int) -> DesignCell:
    """t = i/n, theta = f(t) in the working interval, info = I(theta), all read-only.

    theta is checked here once, and table holds it with the constants
    of the family's sampler, so the unit's draws check nothing again.
    """
    if n < 0:
        raise ArgumentError("design size n must be nonnegative")
    t = design_grid(n)
    theta = np.asarray(f(t), dtype=float)
    if not family.in_working_interval(theta):
        lo, hi = family.working_interval
        raise DomainError(
            f"{family.name}: regression values leave the working interval [{lo}, {hi}]"
        )
    table = family.sampling_table(theta)
    info = np.asarray(family.fisher(theta), dtype=float)
    t.flags.writeable = theta.flags.writeable = info.flags.writeable = False
    _CELL_DESIGNS[id(t)] = t
    return DesignCell(family, f, n, t, theta, info, table)


def sample_original(
    cell: DesignCell, rng: np.random.Generator, seed: int = 0
) -> ExperimentDraw:
    """n independent observations X_i ~ p(., f(i/n)) on the cell's design."""
    return cell.draw(cell.family.sample(cell.table, rng), seed=seed)


# ---------------------------------------------------------------------------
# the log-likelihood ratio
# ---------------------------------------------------------------------------


def lase_terms(
    family: ParametricFamily,
    f: RegressionFunction,
    h: RegressionFunction,
    draw: ExperimentDraw,
) -> float | np.ndarray:
    """The exact log-likelihood ratio sum_i log p(x_i, theta_i + h_i) - log p(x_i, theta_i).

    theta = f(t) and theta + h(t) are checked on the draw's design.  A
    stack draw gets one ratio per row as an (R,) array, each row equal
    to that row alone; a single draw gets a Python float.

    The name outlived the expansion terms it once returned: perfbench's
    tracer records the `experiments.lase_terms` span by rebinding it as
    a `coupling` module global, so a rename waits until the library
    records its own stage spans (ROADMAP item 18).
    """
    t = draw.design
    theta = np.asarray(f(t), dtype=float)
    shifted = theta + np.asarray(h(t), dtype=float)
    family.require_theta(theta)
    family.require_theta(shifted)
    if draw.n == 0:
        return 0.0
    x = draw.observations
    p0 = np.asarray(family.density(x, theta), dtype=float)
    p1 = np.asarray(family.density(x, shifted), dtype=float)
    if np.any(p0 <= 0.0):
        raise SingularityError(f"{family.name}: zero density at the base parameter")
    with np.errstate(divide="ignore"):
        log_z = np.log(p1 / p0)
    if np.any(~np.isfinite(log_z)):
        raise SingularityError(
            f"{family.name}: zero density under the shifted parameter"
        )
    exact = np.sum(log_z, axis=-1)
    return float(exact) if np.ndim(x) == 1 else exact

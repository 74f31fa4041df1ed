"""Batch study driver: configs, seed streams, CSV emission, verdicts.

A study is described by a flat key=value file with a single [study]
section.  The driver resolves the family and function descriptors,
derives one deterministic seed per (n, replicate) cell from the master
seed, fans the per-n workloads out to a worker pool, and writes two
CSV artifacts into the output directory: a row file with one record
per batch/replicate and a summary with per-n medians plus trend
verdicts.  Reruns with the same config and master seed reproduce both
files byte for byte; the only line that may move between releases is
the versioned header.

Shift handling: the configured shift descriptor is a shape.  The
local studies rescale it per n by c_rate/sqrt(n) * L/(2 pi + 1) so it
stays inside the localization ball; the homoscedastic check rescales
it to the localization rate c_rate * (log n / n)^(beta/(2 beta + 1)).
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .coupling import AUDIT_MIN_DRAWS, CouplingPlan, audit_cc_conditions, build_coupled_draw
from .distances import mc_hellinger_coupled
from .errors import ArgumentError, ConfigError, NumericError
from .experiments import design_cell, sample_original
from .families import check_regularity, get_family
from .function_space import RegressionFunction, parse_function, rate_gamma_bar
from .globalization import (
    KERNEL_MIN_N,
    RISK_MIN_REPLICATES,
    _replicate_stacks,
    _stack_bounds,
    gaussianize,
    homoscedastic_transform_check,
    risk_transfer_demo,
)
from .laws import DEFAULT_GRID_SIZE

OUTPUT_DIR_ENV = "LECAM_EQUIV_OUT"

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


def _splitmix64(z: int) -> int:
    """One splitmix64 step; the documented mixing primitive."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64

def derive_seed(master: int, n: int, replicate: int) -> int:
    """Deterministic 64-bit stream seed for one (n, replicate) cell.

    Three chained splitmix64 steps: mix the master, fold in n, fold in
    the replicate index.  Each fold is a bijection of the previous
    state, so seeds never collide within a fixed (master, n) pair and
    collide across cells only at the birthday-bound rate.
    """
    s = _splitmix64(master & _MASK64)
    s = _splitmix64(s ^ (int(n) & _MASK64))
    s = _splitmix64(s ^ (int(replicate) & _MASK64))
    return s


def stream_rng(seed: int) -> np.random.Generator:
    """Counter-based generator pinned to the Philox algorithm, keyed by seed."""
    from ._philox import PhiloxKey  # on use: it loads numpy.random

    return np.random.Generator(np.random.Philox(PhiloxKey(seed & _MASK64)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

MIN_GRID_POINTS = 3  # fewest points of a regularity-audit grid


@dataclass(frozen=True)
class StudyConfig:
    """Resolved description of one batch study."""

    kind: str
    family: str
    f_desc: str
    h_desc: str = "sinusoid(1.0, 1.0)"
    beta: float = 1.0
    L: float = 1.0
    c_rate: float = 1.0
    q: float = 0.25
    alpha: float = 0.75
    n_grid: tuple[int, ...] = (256, 1024, 4096)
    replicates: int = 100
    batches: int = 20
    master_seed: int = 0
    out_dir: str = "."
    table_path: str = ""
    loss_caps: tuple[float, ...] = (0.25, 1.0)
    coupling_grid: int = DEFAULT_GRID_SIZE
    epsilon: float = 0.05
    grid_points: int = 25
    audit_eps: float = 0.5
    audit_threshold: float = 0.25
    gap_constant: float = 1.0
    ks_pass_fraction: float = 0.9

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ConfigError(
                f"unknown study kind {self.kind!r}; expected one of {', '.join(STUDY_KINDS)}"
            )
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if len(grid) == 0 or any(n < 2 for n in grid):
            raise ConfigError("n_grid must list integers >= 2")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        kind = _KINDS[self.kind]
        if self.replicates < kind.min_replicates:
            raise ConfigError(f"replicates must be at least {kind.min_replicates} for {self.kind}")
        if grid[0] < kind.min_n:
            raise ConfigError(f"n_grid entries must be at least {kind.min_n} for {self.kind}")
        if self.batches < 1:
            raise ConfigError("batches must be at least 1")
        if not self.beta > 0.5:
            raise ConfigError("beta must exceed 1/2")
        if not all(0 < v < math.inf for v in (self.L, self.c_rate)):
            raise ConfigError("L and c_rate must be positive and finite")
        if not 0.0 < self.q <= 0.25:
            raise ConfigError("q must lie in (0, 1/4]")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        caps = tuple(float(c) for c in self.loss_caps)
        object.__setattr__(self, "loss_caps", caps)
        if len(caps) == 0 or not all(c > 0 for c in caps):
            raise ConfigError("loss_caps must list positive values")
        if any(b <= a for a, b in zip(caps, caps[1:])):
            raise ConfigError("loss_caps must be strictly increasing")
        g = self.coupling_grid
        if g < 256 or (g & (g - 1)) != 0:
            raise ConfigError("coupling_grid must be a power of two, at least 256")
        if not 0 <= self.epsilon < math.inf:
            raise ConfigError("epsilon must be nonnegative and finite")
        if self.grid_points < MIN_GRID_POINTS:
            raise ConfigError(f"grid_points must be at least {MIN_GRID_POINTS}")
        if not all(0 < v < math.inf for v in (self.audit_eps, self.gap_constant)):
            raise ConfigError("audit_eps and gap_constant must be positive and finite")
        if not 0.0 < self.audit_threshold <= 1.0:
            raise ConfigError("audit_threshold must lie in (0, 1]")
        if not 0.0 < self.ks_pass_fraction <= 1.0:
            raise ConfigError("ks_pass_fraction must lie in (0, 1]")
        # resolve descriptors now so malformed configs fail before any work
        self.resolve_family()
        self.resolve_f()
        self.resolve_h()

    def resolve_family(self):
        try:
            return get_family(self.family, table_path=self.table_path)
        except ArgumentError as exc:
            raise ConfigError(f"cannot resolve family {self.family!r}: {exc}") from exc

    def resolve_f(self) -> RegressionFunction:
        return self._resolve_function("f")

    def resolve_h(self) -> RegressionFunction:
        return self._resolve_function("h")

    def _resolve_function(self, key: str) -> RegressionFunction:
        try:
            return parse_function(getattr(self, _CONFIG_KEYS[key][0]), beta=self.beta, L=self.L)
        except ArgumentError as exc:
            raise ConfigError(f"cannot resolve {key} descriptor: {exc}") from exc


# StudyConfig fields whose config file key is another name
_FIELD_TO_KEY = {
    "f_desc": "f",
    "h_desc": "h",
    "master_seed": "seed",
    "out_dir": "out",
    "table_path": "table",
}


def _caster(hint) -> Callable:
    """Config value parser for a field type: a tuple type reads a comma list."""
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return lambda raw: tuple(item(v) for v in raw.split(","))
    return hint


# config key -> (StudyConfig field, caster), in field order
_CONFIG_KEYS = {
    _FIELD_TO_KEY.get(name, name): (name, _caster(hint))
    for name, hint in get_type_hints(StudyConfig).items()
}


def parse_config(path) -> StudyConfig:
    """Read a flat key=value study file with a single [study] section."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep keys case-sensitive (L vs l)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        if parser.sections() != ["study"]:
            raise ConfigError("config must contain exactly one [study] section")
        # items() interpolates `%` references, so it can raise too
        items = parser.items("study")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    values = {}
    for key, raw in items:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field, caster = _CONFIG_KEYS[key]
        try:
            values[field] = caster(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc
    for f in fields(StudyConfig):
        if f.default is MISSING and f.name not in values:
            key = _FIELD_TO_KEY.get(f.name, f.name)
            raise ConfigError(f"config is missing required key {key!r}")
    if "out_dir" not in values:
        values["out_dir"] = os.environ.get(OUTPUT_DIR_ENV, ".")
    return StudyConfig(**values)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _local_shift(config: StudyConfig, n: int) -> RegressionFunction:
    amp = (config.c_rate / math.sqrt(n)) * config.L / (2.0 * math.pi + 1.0)
    return config.resolve_h().scaled(amp)


_SQRT2 = math.sqrt(2.0)
# Abramowitz & Stegun 7.1.26: erfc(z) = t poly(t) exp(-z^2) within 1.5e-7 for
# z >= 0, with t = 1 / (1 + p z).  Phi(-|x|) = erfc(|x| / sqrt 2) / 2, so p
# takes the 1 / sqrt 2 and the coefficients the 1/2: Phi within 7.5e-8.
_AS_P = 0.3275911 / _SQRT2
_AS_HALF_A = tuple(
    0.5 * a for a in (1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592)
)
# An error e in Phi moves each point's distance by at most e, so the true
# maximizer ranks within 2e of the approximate maximum: a margin of at least
# 4e (the tests bound e by a quarter of it) keeps it among the candidates.
_KS_MARGIN = 1e-6


def _phi_approx(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF within 7.5e-8, as a new array.

    The arithmetic is in place: on a (32, 1024) stack, fresh temporaries
    cost more than the arithmetic itself.
    """
    t = np.abs(x)
    t *= _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    tail = _AS_HALF_A[0] * t
    for a in _AS_HALF_A[1:]:
        tail += a
        tail *= t
    gauss = np.square(x, out=t)
    gauss *= -0.5
    tail *= np.exp(gauss, out=gauss)
    # Phi(x) = 0.5 + sign(x) (0.5 - Phi(-|x|))
    np.subtract(0.5, tail, out=tail)
    np.copysign(tail, x, out=tail)
    tail += 0.5
    return tail


def _ks_statistic_normal(values: np.ndarray) -> np.ndarray:
    """One-sample Kolmogorov statistic against the standard normal, per row.

    Equals, bit for bit, max over k of max(k/m - Phi, Phi - (k-1)/m) with
    Phi = 0.5 * erfc(-x / sqrt(2)) from libm at every sorted point x_(k).
    libm runs only where the maximum can be attained: the gap there is
    |Phi - (k - 0.5)/m| + 0.5/m, and the points whose approximate distance
    lies within _KS_MARGIN of the row's largest include the true maximizer.
    A row holding a NaN gives NaN.
    """
    x = np.sort(np.asarray(values, dtype=float), axis=-1)
    m = x.shape[-1]
    x = x.reshape(-1, m)
    upper = np.arange(1, m + 1, dtype=float) / m
    lower = np.arange(m, dtype=float) / m
    dist = _phi_approx(x)
    dist -= lower + 0.5 / m
    np.abs(dist, out=dist)
    row_max = np.max(dist, axis=-1)
    near = np.flatnonzero(dist >= (row_max - _KS_MARGIN)[:, None])
    rows, cols = np.divmod(near, m)
    phi = np.array([0.5 * math.erfc(-v / _SQRT2) for v in x.ravel()[near].tolist()])
    ks = np.where(np.isnan(row_max), np.nan, -np.inf)
    np.maximum.at(ks, rows, np.maximum(upper[cols] - phi, phi - lower[cols]))
    return ks.reshape(np.shape(values)[:-1])


def _decreasing(values, tol: float = 1e-12) -> bool:
    """Strictly-decreasing check; shortfalls below tol count as ties."""
    return all(b < a + tol for a, b in zip(values, values[1:]))


def _fmt(x) -> str:
    return repr(float(x))


def _numeric_context(exc: Exception, n: int, replicate: int, seed: int):
    raise NumericError(
        f"numeric failure at n={n}, replicate={replicate}, seed={seed}: {exc}"
    ) from exc


def _coupled_batches(config: StudyConfig, n: int, batches: int):
    """Yield (plan, draws) for each batch of coupled draws at design size n.

    One coupling plan serves every batch; replicate r of batch b has
    index b * replicates + r and draws on that index's own stream.  The
    draws of a batch are stacks that follow _stack_bounds.
    """
    plan = CouplingPlan(
        config.resolve_family(), config.resolve_f(), _local_shift(config, n), n,
        c_rate=config.c_rate, grid_size=config.coupling_grid,
    )
    for batch in range(batches):
        first = batch * config.replicates
        draws = []
        for start, stop in _stack_bounds(n, first, first + config.replicates):
            seeds = [derive_seed(config.master_seed, n, idx) for idx in range(start, stop)]
            try:
                draws.append(build_coupled_draw(plan, [stream_rng(seed) for seed in seeds]))
            except NumericError as exc:
                _numeric_context(exc, n, start + exc.row, seeds[exc.row])
        yield plan, draws


def _median(values) -> float:
    """np.median of a list of floats, bit for bit, without loading numpy.ma.

    The middle value, or (a + b) / 2 of the two middle values, summed
    from +0.0 as np.median's mean sums them; a NaN anywhere gives NaN.
    """
    values = sorted(map(float, values))
    if any(math.isnan(v) for v in values):
        return math.nan
    mid = len(values) // 2
    if len(values) % 2:
        return 0.0 + values[mid]
    return (0.0 + values[mid - 1] + values[mid]) / 2


def _by_n(config: StudyConfig, results) -> dict:
    """Statistics of (n, batch) units grouped by n, in batch order."""
    per_n = {n: [] for n in config.n_grid}
    for (n, _batch), stats in results:
        per_n[n].append(stats)
    return per_n


# ---------------------------------------------------------------------------
# per-kind pipelines
#
# A runner maps one unit to (rows, stats); a fold maps the [(unit, stats)]
# of every unit, in unit order, to (medians, verdicts).
# ---------------------------------------------------------------------------


def _run_local_hellinger(config: StudyConfig, n: int):
    rows = []
    estimates = []
    batches = _coupled_batches(config, n, config.batches)
    for batch, (_plan, draws) in enumerate(batches):
        report = mc_hellinger_coupled(draws)
        seed = derive_seed(config.master_seed, n, batch * config.replicates)
        estimates.append(report.value)
        rows.append(
            f"{n}, {batch}, {_fmt(report.value)}, {_fmt(report.mc_stderr)}, "
            f"{config.replicates}, {seed}"
        )
    return rows, _median(estimates)


def _fold_local_hellinger(config: StudyConfig, results):
    verdicts = {"decreasing_h2_medians": _decreasing([v for _, v in results])}
    return {"h2_median": results}, verdicts


_CC_FREQUENCIES = ("gap_freq", "orig_tail_freq", "gauss_tail_freq")


def _run_cc_audit(config: StudyConfig, n: int):
    ((plan, draws),) = _coupled_batches(config, n, 1)
    report = audit_cc_conditions(
        draws, plan.r_n, config.alpha, config.audit_eps,
        gap_constant=config.gap_constant,
    )
    row = (
        f"{n}, {_fmt(report.gap_freq)}, {_fmt(report.gap_stderr)}, "
        f"{_fmt(report.orig_tail_freq)}, {_fmt(report.orig_tail_stderr)}, "
        f"{_fmt(report.gauss_tail_freq)}, {_fmt(report.gauss_tail_stderr)}, "
        f"{_fmt(report.effective_sample_size)}, {int(report.reliable)}, "
        f"{config.replicates}"
    )
    return [row], report


def _fold_cc_audit(config: StudyConfig, results):
    medians = {
        name: [(n, getattr(report, name)) for n, report in results]
        for name in _CC_FREQUENCIES
    }
    verdicts = {
        "audits_reliable": all(report.reliable for _, report in results),
        "frequencies_at_most_threshold": all(
            v <= config.audit_threshold for pairs in medians.values() for _, v in pairs
        ),
    }
    return medians, verdicts


def _run_globalize(config: StudyConfig, unit):
    n, batch = unit
    family = config.resolve_family()
    cell = design_cell(family, config.resolve_f(), n)
    target = np.asarray(family.gamma(cell.theta), dtype=float)
    crit = 1.628 / math.sqrt(n)

    def replicate(r):
        seed = derive_seed(config.master_seed, n, r)
        try:
            draw = sample_original(cell, stream_rng(seed), seed=r)
        except NumericError as exc:
            _numeric_context(exc, n, r, seed)
        noise = stream_rng(derive_seed(config.master_seed, n, r + (1 << 32)))
        return draw, noise.standard_normal(n)

    rows = []
    stats = []
    share = _globalize_share(config, batch)
    for start, stop, stack, noise in _replicate_stacks(cell, share.start, share.stop, replicate):
        out = gaussianize(family, stack, config.beta, noise, q=config.q)
        ks_rows = _ks_statistic_normal(out.draw.observations - target)
        for r, ks in zip(range(start, stop), ks_rows):
            ok = ks < crit
            seed = derive_seed(config.master_seed, n, r)
            rows.append(f"{n}, {r}, {_fmt(ks)}, {_fmt(crit)}, {int(ok)}, {seed}")
            stats.append((float(ks), bool(ok)))
    return rows, stats


def _fold_globalize(config: StudyConfig, results):
    per_n = {
        n: [s for batch in batches for s in batch]
        for n, batches in _by_n(config, results).items()
    }
    fractions = [(n, sum(ok for _, ok in s) / len(s)) for n, s in per_n.items()]
    medians = {
        "ks_stat_median": [
            (n, _median([ks for ks, _ in s])) for n, s in per_n.items()
        ],
        "ks_pass_fraction": fractions,
    }
    verdicts = {
        "ks_pass_fraction_met": all(
            frac >= config.ks_pass_fraction for _, frac in fractions
        )
    }
    return medians, verdicts


def _run_risk_transfer(config: StudyConfig, unit):
    n, batch = unit
    seed = derive_seed(config.master_seed, n, batch)
    try:
        table = risk_transfer_demo(
            config.resolve_family(), config.resolve_f(), n, config.loss_caps,
            stream_rng(seed), R=config.replicates, beta=config.beta, q=config.q,
        )
    except NumericError as exc:
        _numeric_context(exc, n, batch, seed)
    margins = np.abs(table.transferred_risk - table.direct_risk)
    rows = [
        f"{n}, {batch}, {_fmt(cap)}, {_fmt(table.direct_risk[i])}, "
        f"{_fmt(table.direct_stderr[i])}, {_fmt(table.transferred_risk[i])}, "
        f"{_fmt(table.transferred_stderr[i])}, {_fmt(margins[i])}, {seed}"
        for i, cap in enumerate(table.loss_caps)
    ]
    return rows, float(margins[-1])


def _fold_risk_transfer(config: StudyConfig, results):
    values = [(n, _median(m)) for n, m in _by_n(config, results).items()]
    verdicts = {"shrinking_risk_margin": _decreasing([v for _, v in values])}
    return {"margin_median": values}, verdicts


def _run_condition_audit(config: StudyConfig, _unit):
    family = config.resolve_family()
    lo, hi = family.working_interval
    grid = np.linspace(lo, hi, config.grid_points)
    try:
        report = check_regularity(family, grid, config.epsilon, config.beta)
    except NumericError as exc:
        _numeric_context(exc, 0, 0, config.master_seed)
    row = (
        f"{family.name}, {_fmt(report.r1_sup_estimate)}, "
        f"{_fmt(report.r2_sup_estimate)}, {_fmt(report.r3_bounds[0])}, "
        f"{_fmt(report.r3_bounds[1])}, {report.pair_count}, "
        f"{int(report.all_pass())}"
    )
    return [row], report


def _fold_condition_audit(config: StudyConfig, results):
    ((_unit, report),) = results
    medians = {
        "r1_sup": [("", report.r1_sup_estimate)],
        "r2_sup": [("", report.r2_sup_estimate)],
        "r3_min": [("", report.r3_bounds[0])],
        "r3_max": [("", report.r3_bounds[1])],
    }
    return medians, {"regularity_all_pass": bool(report.all_pass())}


def _run_homoscedastic(config: StudyConfig, n: int):
    amp = rate_gamma_bar(n, config.beta, config.c_rate)
    try:
        report = homoscedastic_transform_check(
            config.resolve_family(), config.resolve_f(), config.resolve_h().scaled(amp), n
        )
    except NumericError as exc:
        _numeric_context(exc, n, 0, config.master_seed)
    return [f"{n}, {_fmt(amp)}, {_fmt(report.value)}"], report.value


def _fold_homoscedastic(config: StudyConfig, results):
    values = [v for _, v in results]
    verdicts = {
        "decreasing_h2": _decreasing(values),
        "final_h2_below_0.01": values[-1] < 0.01,
    }
    return {"h2": results}, verdicts


def _per_n(config: StudyConfig) -> list:
    return list(config.n_grid)


def _per_n_batch(config: StudyConfig) -> list:
    return [(n, b) for n in config.n_grid for b in range(config.batches)]


def _globalize_share(config: StudyConfig, batch: int) -> range:
    """The replicates of each n that globalize batch `batch` draws."""
    r, b = config.replicates, config.batches
    return range(batch * r // b, (batch + 1) * r // b)


def _per_n_share(config: StudyConfig) -> list:
    # more batches than replicates leaves some shares empty: no unit for those
    return [(n, b) for n, b in _per_n_batch(config) if _globalize_share(config, b)]


def _once(config: StudyConfig) -> list:
    return [None]


class _StudyKind(NamedTuple):
    """What run_study needs to know about one study kind."""

    header: str  # column header of the row CSV
    units: Callable  # config -> work units, in row order
    run: Callable  # (config, unit) -> (rows, stats)
    fold: Callable  # (config, [(unit, stats)]) -> (medians, verdicts)
    min_replicates: int = 10  # fewest replicates a config of this kind accepts
    min_n: int = 2  # smallest n_grid entry a config of this kind accepts


_KINDS = {
    "local-hellinger": _StudyKind(
        "n, batch, h2, stderr, replicates, seed",
        _per_n, _run_local_hellinger, _fold_local_hellinger,
    ),
    "cc-audit": _StudyKind(
        "n, gap_freq, gap_stderr, orig_tail_freq, orig_tail_stderr, "
        "gauss_tail_freq, gauss_tail_stderr, ess, reliable, replicates",
        _per_n, _run_cc_audit, _fold_cc_audit, min_replicates=AUDIT_MIN_DRAWS,
    ),
    "globalize": _StudyKind(
        "n, replicate, ks_stat, ks_crit, pass, seed",
        _per_n_share, _run_globalize, _fold_globalize, min_n=KERNEL_MIN_N,
    ),
    "risk-transfer": _StudyKind(
        "n, batch, cap, direct_risk, direct_stderr, transferred_risk, "
        "transferred_stderr, margin, seed",
        _per_n_batch, _run_risk_transfer, _fold_risk_transfer,
        min_replicates=RISK_MIN_REPLICATES, min_n=KERNEL_MIN_N,
    ),
    "condition-audit": _StudyKind(
        "family, r1_sup, r2_sup, r3_min, r3_max, pairs, all_pass",
        _once, _run_condition_audit, _fold_condition_audit,
    ),
    "homoscedastic-check": _StudyKind(
        "n, amplitude, h2", _per_n, _run_homoscedastic, _fold_homoscedastic,
    ),
}

STUDY_KINDS = tuple(_KINDS)


def _study_unit(args):
    """Top-level worker entry so the process pool can pickle it."""
    config, kind, unit = args
    return _KINDS[kind].run(config, unit)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyResult:
    """Artifacts and verdicts from one run_study call."""

    kind: str
    csv_path: str
    summary_path: str
    medians: dict
    verdicts: dict
    passed: bool


# the config keys of header lines 2 and 3: the model, then the sampling plan
_HEADER_KEYS = (
    ("family", "f", "h", "beta", "L", "c_rate", "q", "alpha"),
    ("n_grid", "replicates", "batches", "seed"),
)


def _header_value(config: StudyConfig, key: str) -> str:
    value = getattr(config, _CONFIG_KEYS[key][0])
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _header_lines(config: StudyConfig) -> list:
    return [f"# lecam-equiv {__version__} study={config.kind}"] + [
        "# " + " ".join(f"{key}={_header_value(config, key)}" for key in keys)
        for keys in _HEADER_KEYS
    ]


def run_study(config: StudyConfig, jobs: int = 1) -> StudyResult:
    """Execute one study and write its row CSV and summary CSV.

    Returns the artifact paths and the verdict map; passed is True iff
    every configured verdict holds.  Numeric failures raise
    NumericError tagged with the failing (n, replicate, seed) triple.
    """
    if jobs < 1:
        raise ArgumentError("jobs must be at least 1")
    kind = _KINDS[config.kind]
    units = kind.units(config)
    tasks = [(config, config.kind, u) for u in units]
    if jobs == 1 or len(units) == 1:
        outputs = [_study_unit(t) for t in tasks]
    else:
        # on use: the process pool loads multiprocessing, which a serial pass never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(units))) as pool:
            outputs = list(pool.map(_study_unit, tasks))
    rows = [row for unit_rows, _stats in outputs for row in unit_rows]
    medians, verdicts = kind.fold(
        config, [(u, stats) for u, (_rows, stats) in zip(units, outputs)]
    )
    passed = all(verdicts.values())

    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, f"{config.kind}.csv")
    summary_path = os.path.join(config.out_dir, f"{config.kind}_summary.csv")
    header = _header_lines(config)
    with open(csv_path, "w", encoding="utf-8") as fh:
        for line in header:
            fh.write(line + "\n")
        fh.write(kind.header + "\n")
        for row in rows:
            fh.write(row + "\n")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(header[0] + " summary\n")
        for line in header[1:]:
            fh.write(line + "\n")
        fh.write("metric, n, value\n")
        for name, pairs in medians.items():
            for n, value in pairs:
                fh.write(f"{name}, {n}, {_fmt(value)}\n")
        for name, ok in verdicts.items():
            fh.write(f"verdict:{name}, , {'pass' if ok else 'fail'}\n")
        fh.write(f"overall, , {'pass' if passed else 'fail'}\n")
    return StudyResult(
        kind=config.kind,
        csv_path=csv_path,
        summary_path=summary_path,
        medians=medians,
        verdicts=verdicts,
        passed=passed,
    )

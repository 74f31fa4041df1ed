"""Acceptance suite: end-to-end checks with stated tolerances.

Each test prints one pass/fail line (visible under pytest -s) and
asserts both the substantive check and its runtime budget.  Seeds are
frozen so every run exercises identical draws.  Numbers 03 (Hellinger
algebra), 05 (log-likelihood expansion) and 07 (score truncation) are
unused: the package no longer has the code they checked.
"""

import dataclasses
import math
import time

import numpy as np

from lecam_equiv.coupling import CouplingPlan, build_coupled_draw
from lecam_equiv.distances import mc_hellinger_coupled
from lecam_equiv.experiments import design_cell, sample_original
from lecam_equiv.families import get_family
from lecam_equiv.function_space import RegressionFunction, rate_gamma_bar
from lecam_equiv.globalization import (
    gaussianize,
    homoscedastic_transform_check,
    risk_transfer_demo,
)
from lecam_equiv.harness import StudyConfig, derive_seed, run_study, stream_rng
from scipy.special import ndtr

from oracles import exp_moment_margins, fisher_info_quadrature, standard_test_pair

BUILTINS = ("bernoulli", "poisson", "gaussian_scale", "location_normal")

CLOSED_GAMMA = {
    "bernoulli": lambda th: 2.0 * np.arcsin(np.sqrt(th)),
    "poisson": lambda th: 2.0 * np.sqrt(th),
    "gaussian_scale": lambda th: math.sqrt(2.0) * np.log(th),
    "location_normal": lambda th: th,
}

CLOSED_FISHER = {
    "bernoulli": lambda th: 1.0 / (th * (1.0 - th)),
    "poisson": lambda th: 1.0 / th,
    "gaussian_scale": lambda th: 2.0 / th**2,
    "location_normal": lambda th: np.ones_like(th),
}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _working_grid(family, points=50):
    lo, hi = family.working_interval
    return np.linspace(lo, hi, points)


def _tie_tolerant_decreasing(values, tol=1e-12):
    return all(b < a + tol for a, b in zip(values, values[1:]))


def test_criterion_01_closed_form_transforms():
    t0 = time.monotonic()
    max_gamma_err = 0.0
    max_fisher_err = 0.0
    for name in BUILTINS:
        family = get_family(name)
        grid = _working_grid(family)
        g_err = np.max(np.abs(family.gamma(grid) - CLOSED_GAMMA[name](grid)))
        max_gamma_err = max(max_gamma_err, float(g_err))
        closed_fisher = CLOSED_FISHER[name](grid)
        for theta, target in zip(grid, closed_fisher):
            err = abs(fisher_info_quadrature(family, float(theta)) - float(target))
            max_fisher_err = max(max_fisher_err, err)
    elapsed = time.monotonic() - t0
    ok = max_gamma_err <= 1e-10 and max_fisher_err <= 1e-6 and elapsed < 5.0
    _verdict(
        1, ok,
        f"gamma err {max_gamma_err:.2e} (tol 1e-10), fisher quadrature err "
        f"{max_fisher_err:.2e} (tol 1e-6), {elapsed:.1f}s (< 5s)",
    )
    assert ok


def test_criterion_02_stabilizer_derivative_is_root_information():
    t0 = time.monotonic()
    worst = 0.0
    for name in BUILTINS:
        family = get_family(name)
        grid = _working_grid(family)
        step = 1e-5 * np.maximum(1.0, np.abs(grid))
        diff = (
            np.asarray(family.gamma(grid + step), dtype=float)
            - np.asarray(family.gamma(grid - step), dtype=float)
        ) / (2.0 * step)
        target = np.sqrt(np.asarray(family.fisher(grid), dtype=float))
        rel = np.max(np.abs(diff - target) / np.abs(target))
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    _verdict(
        2, ok,
        f"max relative derivative error {worst:.2e} (tol 1e-5), "
        f"{elapsed:.1f}s (< 5s)",
    )
    assert ok


def test_criterion_04_exponential_moment_inequality():
    t0 = time.monotonic()
    rng = np.random.default_rng(4001)
    lam_grid = np.linspace(-1.0, 1.0, 21)
    worst = math.inf
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        values = rng.uniform(-1.0, 1.0, k)
        probs = rng.dirichlet(np.ones(k))
        values = values - float(probs @ values)  # exact zero mean
        margins = exp_moment_margins(values, probs, lam_grid)
        worst = min(worst, float(np.min(margins)))
        violations += int(np.sum(margins < -1e-12))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 10.0
    _verdict(
        4, ok,
        f"{violations} violations over 1000 laws x 21 lambdas, worst margin "
        f"{worst:.2e}, {elapsed:.1f}s (< 10s)",
    )
    assert ok


def test_criterion_06_local_equivalence_trend():
    t0 = time.monotonic()
    grid = (1 << 8, 1 << 10, 1 << 12)
    summaries = []
    trend_ok = True
    for name in ("bernoulli", "poisson"):
        family = get_family(name)
        medians = []
        for n in grid:
            f, h = standard_test_pair(family, n)
            plan = CouplingPlan(family, f, h, n, grid_size=1 << 15)
            estimates = []
            for batch in range(20):
                rngs = [stream_rng(derive_seed(606, n, batch * 400 + r)) for r in range(400)]
                stack = build_coupled_draw(plan, rngs)
                estimates.append(mc_hellinger_coupled([stack]).value)
            medians.append(float(np.median(estimates)))
        decreasing = all(b < a for a, b in zip(medians, medians[1:]))
        drop = medians[-1] <= 0.7 * medians[0]
        trend_ok = trend_ok and decreasing and drop
        summaries.append(f"{name} medians {medians[0]:.2e}->{medians[-1]:.2e}")

    # exact coupling for the location family: estimate identically zero
    family = get_family("location_normal")
    n = 1 << 10
    f, h = standard_test_pair(family, n)
    plan = CouplingPlan(family, f, h, n, grid_size=1 << 12)
    stack = build_coupled_draw(plan, [stream_rng(derive_seed(607, n, r)) for r in range(400)])
    report = mc_hellinger_coupled([stack])
    location_ok = report.value == 0.0 and report.mc_stderr == 0.0
    elapsed = time.monotonic() - t0
    ok = trend_ok and location_ok and elapsed < 600.0
    _verdict(
        6, ok,
        f"{'; '.join(summaries)}; decreasing with >=30% drop: {trend_ok}; "
        f"location estimate {report.value} +- {report.mc_stderr}: "
        f"{location_ok}; {elapsed:.0f}s (< 600s)",
    )
    assert ok


def test_criterion_08_homoscedastic_form_distance_vanishes():
    t0 = time.monotonic()
    anchors = {
        "bernoulli": RegressionFunction.affine(0.25, 0.1),
        "poisson": RegressionFunction.affine(1.5, 1.0),
        "gaussian_scale": RegressionFunction.affine(2.0, 1.0),
        "location_normal": RegressionFunction.affine(0.0, 0.5),
    }
    details = []
    all_ok = True
    for name in BUILTINS:
        family = get_family(name)
        values = []
        for k in range(8, 15):
            n = 1 << k
            amp = rate_gamma_bar(n, 1.0, 0.5)
            h = RegressionFunction.sinusoid(amp, 1.0)
            values.append(homoscedastic_transform_check(family, anchors[name], h, n).value)
        monotone = _tie_tolerant_decreasing(values)
        small = values[-1] < 0.01
        all_ok = all_ok and monotone and small
        details.append(f"{name} last={values[-1]:.1e} monotone={monotone}")
    elapsed = time.monotonic() - t0
    ok = all_ok and elapsed < 10.0
    _verdict(8, ok, f"{'; '.join(details)}; {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_09_globalization_audit():
    t0 = time.monotonic()
    family = get_family("bernoulli")

    # per-point Gaussian target audit of the kernel output
    f = RegressionFunction.constant(0.5)
    n = 1 << 14
    target = float(family.gamma(0.5))
    crit = 1.628 / math.sqrt(n)
    passes = 0
    cell = design_cell(family, f, n)
    for s in range(50):
        draw = sample_original(cell, stream_rng(derive_seed(909, n, s)), seed=s)
        noise = stream_rng(derive_seed(909, n, s + (1 << 32))).standard_normal(n)
        out = gaussianize(family, draw, 1.0, noise)
        u = np.sort(ndtr(out.draw.observations - target))
        k = np.arange(1, n + 1, dtype=float)
        d = max(float(np.max(k / n - u)), float(np.max(u - (k - 1.0) / n)))
        if d < crit:
            passes += 1

    # paired-risk margins shrink across n (median over seeds)
    f_rt = RegressionFunction.affine(0.25, 0.1)
    medians = []
    for nn in (1 << 10, 1 << 12, 1 << 14):
        margins = []
        for s in range(5):
            table = risk_transfer_demo(
                family, f_rt, nn, [1.0], stream_rng(derive_seed(910, nn, s)), R=60
            )
            margins.append(abs(float(table.transferred_risk[0] - table.direct_risk[0])))
        medians.append(float(np.median(margins)))
    shrinking = _tie_tolerant_decreasing(medians)
    elapsed = time.monotonic() - t0
    ok = passes >= 45 and shrinking and elapsed < 900.0
    _verdict(
        9, ok,
        f"kernel KS pass {passes}/50 (need >= 45); margin medians "
        f"{medians[0]:.1e}->{medians[1]:.1e}->{medians[2]:.1e} shrinking: "
        f"{shrinking}; {elapsed:.0f}s (< 900s)",
    )
    assert ok


def test_criterion_10_reproducibility(tmp_path):
    configs = [
        StudyConfig(
            kind="local-hellinger",
            family="bernoulli",
            f_desc="affine(0.4, 0.2)",
            n_grid=(128, 256),
            replicates=15,
            batches=2,
            master_seed=1010,
            out_dir="",
            coupling_grid=1 << 12,
        ),
        StudyConfig(
            kind="globalize",
            family="bernoulli",
            f_desc="constant(0.5)",
            n_grid=(256, 512),
            replicates=10,
            batches=2,
            master_seed=1010,
            out_dir="",
        ),
    ]
    identical = True
    for i, cfg in enumerate(configs):
        res_a = run_study(dataclasses.replace(cfg, out_dir=str(tmp_path / f"a{i}")))
        res_b = run_study(dataclasses.replace(cfg, out_dir=str(tmp_path / f"b{i}")))
        for pa, pb in (
            (res_a.csv_path, res_b.csv_path),
            (res_a.summary_path, res_b.summary_path),
        ):
            with open(pa, "rb") as fh:
                ba = fh.read()
            with open(pb, "rb") as fh:
                bb = fh.read()
            if ba != bb:
                identical = False
    _verdict(10, identical, "study reruns reproduce CSV bytes exactly: "
             f"{identical} (local-hellinger and globalize kinds)")
    assert identical

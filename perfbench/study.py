"""Run one workload's pinned studies through run_study, in this interpreter.

run.py starts this script in a fresh interpreter with PYTHONPATH=src and
the BLAS thread pins; it prints one JSON line holding every pass (wall
time and, per study run, the CSV digests, verdicts and summary values),
the peak resident memory, the input counts and, when traced, the
per-layer figures.  The checks are made by run.py.

Both modes start with a warm-up pass over the reduced configs (same
study kinds and families, a fraction of a second), so lazy imports and
caches are filled before anything is timed; it is neither timed nor
checked.  Untraced (--trace 0): timed serial passes until the next one
would end after --seconds (at least two).  Traced (--trace 1): an
untraced pass on a process pool of --pool-jobs workers when that is above
1 (for the pool figures and the worker-count check), an untraced serial
pass, then one traced serial pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import lecam_equiv
from lecam_equiv.experiments import design_grid
from lecam_equiv.harness import parse_config, run_study
from tracing import Tracer

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2

# Reduced sizes for the self-test: same kinds and families, seconds of work.
REDUCED = {
    "local-hellinger": dict(n_grid=(64, 128), replicates=10, batches=2, coupling_grid=1024),
    "cc-audit": dict(n_grid=(64, 128), replicates=100, coupling_grid=1024),
    "globalize": dict(n_grid=(64, 128), replicates=20, batches=2),
    "risk-transfer": dict(n_grid=(64, 128), replicates=50, batches=1),
    "condition-audit": dict(grid_points=3),
}


def load_configs(workload, reduced):
    """(study name, StudyConfig) for each pinned config file, by file name."""
    paths = sorted((HERE / "configs" / workload).glob("*.ini"))
    if not paths:
        raise SystemExit(f"no configs for workload {workload!r}")
    configs = []
    for path in paths:
        config = parse_config(path)
        if reduced:
            config = dataclasses.replace(config, **REDUCED[config.kind])
        configs.append((path.stem, config))
    return configs


def input_counts(configs):
    """Monte Carlo cells and sum-law cf evaluations implied by the configs."""
    cells = 0
    cf_evals = 0
    for _name, c in configs:
        per_n = {
            "local-hellinger": c.replicates * c.batches,
            "cc-audit": c.replicates,
            "globalize": c.replicates,
            "risk-transfer": c.replicates * c.batches,
        }.get(c.kind, 0)
        cells += per_n * len(c.n_grid)
        if c.kind in ("local-hellinger", "cc-audit"):
            shape = c.resolve_h()
            for n in c.n_grid:
                weights = np.asarray(shape(design_grid(n)), dtype=float)
                cf_evals += int(np.count_nonzero(weights)) * c.coupling_grid
    return {"mc_cells": cells, "cf_evals": cf_evals}


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _h2_column(csv_path):
    """Row-CSV values of the h2 column, if the study kind has one."""
    with open(csv_path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    columns = lines[0].split(", ")
    if "h2" not in columns:
        return []
    k = columns.index("h2")
    return [float(line.split(", ")[k]) for line in lines[1:]]


def run_pass(configs, seed, jobs, out_root, run_one=run_study):
    """One pass over the workload's studies; returns wall time and records."""
    records = []
    start = time.perf_counter()
    for name, config in configs:
        config = dataclasses.replace(
            config, master_seed=seed, out_dir=str(out_root / name)
        )
        try:
            result = run_one(config, jobs=jobs)
        except Exception as exc:  # a failed study run is counted, not fatal
            print(f"study {name} raised {exc!r}", file=sys.stderr)
            records.append({"study": name, "error": repr(exc)})
            continue
        records.append({"study": name, "result": result})
    seconds = time.perf_counter() - start
    # digests and parsing stay outside the timed region
    for record in records:
        result = record.pop("result", None)
        if result is None:
            continue
        record.update(
            csv_sha256=_digest(result.csv_path),
            summary_sha256=_digest(result.summary_path),
            verdicts={k: bool(v) for k, v in result.verdicts.items()},
            summary={
                f"{metric}@{n}": float(value)
                for metric, pairs in result.medians.items()
                for n, value in pairs
            },
            h2=_h2_column(result.csv_path),
        )
    return {"jobs": jobs, "seconds": seconds, "records": records}


def traced_layers(configs, seed, pool_jobs, out_root, passes):
    """Traced serial pass, appended to passes; returns the per-layer figures.

    passes ends with an untraced serial pass, and holds an untraced pass
    on the process pool when pool_jobs is above 1.
    """
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(
            configs, seed, 1, out_root,
            run_one=lambda config, jobs: tracer.root("harness.run_study", run_study, config, jobs=jobs),
        )
    finally:
        tracer.uninstall()
    serial_s = passes[-1]["seconds"]
    pool_s = next((p["seconds"] for p in passes if p["jobs"] == pool_jobs), serial_s)
    passes.append(traced)
    tracer.write(out_root / "spans.jsonl")
    layers = tracer.layer_metrics()
    overhead = traced["seconds"] / serial_s - 1.0
    # unit spans carry the tracing overhead; scale it out before comparing
    # with the untraced wall time on the pool
    unit_sum = layers["harness.unit_s_sum"] / (1.0 + overhead)
    layers["harness.worker_idle_frac"] = 1.0 - unit_sum / (pool_jobs * pool_s)
    layers["trace.overhead_frac"] = overhead
    layers["trace.study_s"] = traced["seconds"]
    layers["trace.spans"] = len(tracer.spans)
    return layers


def machine_record():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build record varies by release
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "lecam_equiv": lecam_equiv.__version__,
        "thread_pins": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def peak_rss_mb():
    """Peak RSS of this process plus the largest peak of any pool worker."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib * 1024 / 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--pool-jobs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--reduced", action="store_true")
    args = ap.parse_args(argv)

    configs = load_configs(args.workload, args.reduced)
    out = {"inputs": input_counts(configs), "machine": machine_record()}
    run_pass(load_configs(args.workload, True), args.seed, 1, args.out / "warm-up")
    passes = []
    if args.trace:
        if args.pool_jobs > 1:
            passes.append(run_pass(configs, args.seed, args.pool_jobs, args.out))
        passes.append(run_pass(configs, args.seed, 1, args.out))
        out["layers"] = traced_layers(configs, args.seed, args.pool_jobs, args.out, passes)
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(configs, args.seed, 1, args.out))
            elapsed = time.perf_counter() - start
            longest = max(p["seconds"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + longest > args.seconds:
                break
    out["passes"] = passes
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

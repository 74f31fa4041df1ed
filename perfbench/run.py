"""Benchmark of the lecam-equiv study pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coupling --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py            # every workload in turn, default seed

Each workload is a set of pinned [study] configs in perfbench/configs/,
run through the public run_study API in a fresh interpreter with
PYTHONPATH=src and the BLAS thread pools pinned to one thread.  The
master seed comes from --seed.  Why each workload exists, the input
counts that identify it, and which layer metric should move which
end-to-end metric are recorded in perfbench/workloads.json.

--trace 0 reports the end-to-end metrics:
  study_s      median wall time of one serial pass over the workload's
               studies, after an untimed warm-up pass at reduced size
  setup_s      median wall time of a fresh interpreter importing
               lecam_equiv and parsing the workload's configs
  peak_rss_mb  peak resident memory of the study process
--trace 1 reports the per-layer metrics of a traced serial pass (see
tracing.py and study.py); the harness pool figures come from an
untraced pass on min(2, nproc) workers in the same run.  Every run
checks its outputs (checks.py); the share of study runs that failed a
check is failed / attempted in the result line, and printed as
failed_frac.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
DEFAULT_SEED = REFERENCE["seed"]
DEFAULT_SECONDS = 50
# workers of the traced run's pool pass, never more than nproc
POOL_JOBS = 2
SETUP_REPEATS = 3
# one run must end within 180 s: SETUP_REPEATS set-up runs of at most
# SETUP_TIMEOUT_S each, then the study child
SETUP_TIMEOUT_S = 20
CHILD_TIMEOUT_S = 110
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# unit of each per-layer metric, by the last part of its name
LAYER_UNITS = {
    "calls": "count", "cf_evals": "count", "spans": "count",
    "self_s": "s", "study_s": "s", "unit_s_max": "s", "unit_s_sum": "s", "import_s": "s",
    "parse_config_s": "s", "ns_per_cf_eval": "ns", "ms_p50": "ms", "ms_p99": "ms",
    "worker_idle_frac": "ratio", "overhead_frac": "ratio", "csv_identical": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (os.pathsep + extra if extra else "")
    for name in BLAS_PINS:
        env[name] = "1"
    return env


def run_child(args, timeout):
    """Run a Python script from the checkout root; return its last stdout line.

    The child gets its own session so that, on a timeout, it and any pool
    workers it started are killed together and reaped.
    """
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{args[0]} printed nothing")
    return json.loads(lines[-1])


def measure_setup(workload):
    """Wall times of SETUP_REPEATS fresh interpreters and their own split."""
    configs = [str(p.relative_to(ROOT)) for p in sorted((HERE / "configs" / workload).glob("*.ini"))]
    walls, probes = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probes.append(run_child(["perfbench/setup_probe.py", *configs], timeout=SETUP_TIMEOUT_S))
        walls.append(time.perf_counter() - start)
    return walls, probes


def run_workload(workload, seed, seconds, trace, reduced=False):
    """Run one workload; returns (result line dict, human-readable lines)."""
    if not (ROOT / "src" / "lecam_equiv" / "__init__.py").is_file():
        raise BenchError(f"no lecam_equiv sources under {ROOT / 'src'}")
    nproc = len(os.sched_getaffinity(0))
    pool_jobs = min(POOL_JOBS, nproc)
    out_dir = ROOT / ".perfbench_out" / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    walls, probes = measure_setup(workload)
    child = run_child(
        ["perfbench/study.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--pool-jobs", str(pool_jobs),
         "--out", str(out_dir)] + (["--reduced"] if reduced else []),
        timeout=CHILD_TIMEOUT_S,
    )
    (out_dir / "child.json").write_text(json.dumps(child), encoding="utf-8")

    use_reference = seed == DEFAULT_SEED and not reduced
    reference = REFERENCE["workloads"][workload] if use_reference else None
    attempted, failures, identical = checks.evaluate(child["passes"], reference)
    failed = checks.failed_runs(failures)

    lines = [
        f"workload {workload}: seed {seed}, pool jobs {pool_jobs} (nproc {nproc}), "
        f"{'traced' if trace else 'untraced'}{', reduced' if reduced else ''}",
        f"  machine {json.dumps(child['machine'])}",
        f"  inputs  {json.dumps(child['inputs'])}"
        + ("" if reduced else
           f" ({'same as' if child['inputs'] == WORKLOADS[workload]['inputs'] else 'DIFFERENT from'}"
           " the recorded workload)"),
        f"  failed_frac {failed / attempted:.4g} ratio ({failed} of {attempted} study runs)",
    ]
    lines += [f"    pass {i} {study}: {reason}" for i, study, reason in failures]
    if trace:
        layers = dict(child["layers"])
        layers["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
        layers["harness.parse_config_s"] = statistics.median(p["parse_config_s"] for p in probes)
        # -1 marks "not measured": the reference is stored for one seed only
        layers["harness.csv_identical"] = -1.0 if identical is None else identical
        metrics = {
            name: {"value": value, "unit": LAYER_UNITS[name.rsplit(".", 1)[1]]}
            for name, value in sorted(layers.items())
        }
        shares = {
            name[: -len(".self_s")]: value / layers["trace.study_s"]
            for name, value in layers.items()
            if name.endswith("self_s") and value > 0
        }
        lines.append("  self time as a share of the traced pass: " + ", ".join(
            f"{name} {share:.1%}" for name, share in sorted(shares.items(), key=lambda kv: -kv[1])
        ))
    else:
        pass_s = [p["seconds"] for p in child["passes"]]
        metrics = {
            "study_s": {"value": statistics.median(pass_s), "unit": "s"},
            "setup_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
        lines.append(
            f"  study_s over {len(pass_s)} passes: min {min(pass_s):.4f} s, "
            f"max {max(pass_s):.4f} s; setup_s over {len(walls)} interpreters: "
            f"min {min(walls):.4f} s, max {max(walls):.4f} s"
        )
    lines += [f"  {name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description="lecam-equiv study benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; every workload when omitted")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small configs for the self-test; no reference check")
    args = ap.parse_args(argv)
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        try:
            result, lines = run_workload(
                workload, args.seed, args.seconds, args.trace, args.reduced
            )
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

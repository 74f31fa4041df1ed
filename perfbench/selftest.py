"""Self-test of the benchmark: schema, failing checks, missing program.

Usage, from the root of a checkout: python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json at reduced size, untraced and
   traced, and validates the result line against BENCHMARK.json.
2. Shows that the correctness check can fail: re-checks the recorded
   passes of a reduced traced run against a reference built from them,
   then against a tampered verdict, summary value, H^2 value, repeat
   digest and pool-pass digest; each tampering must give failed_frac > 0.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files; it must exit non-zero without printing a result.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import checks
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(ok, message):
    if not ok:
        sys.exit(f"selftest FAILED: {message}")
    print(f"ok   {message}", flush=True)


def bench(workload, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_schema():
    for spec in BENCHMARK["workloads"]:
        workload = spec["name"]
        for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
            proc = bench(workload, trace)
            expect(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} --trace {trace} result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{workload} --trace {trace} is correct")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in declared},
                   f"{workload} --trace {trace} reports exactly the declared metrics")
            wrong = [
                m["name"] for m in declared
                if metrics[m["name"]]["unit"] != m["unit"]
                or not isinstance(metrics[m["name"]]["value"], (int, float))
                or not math.isfinite(metrics[m["name"]]["value"])
                or (trace == 0 and metrics[m["name"]]["value"] <= 0)
            ]
            expect(not wrong, f"{workload} --trace {trace} units and values {wrong}")


def check_tampering():
    child = json.loads(
        (run.ROOT / ".perfbench_out" / "coupling" / "child.json").read_text(encoding="utf-8")
    )
    passes = child["passes"]
    reference = {r["study"]: checks.reference_entry(r) for r in passes[0]["records"]}

    def failed_frac(passes_, reference_):
        attempted, failures, _ = checks.evaluate(passes_, reference_)
        return checks.failed_runs(failures) / attempted

    expect(failed_frac(passes, reference) == 0, "untampered reference passes")
    study = next(iter(reference))

    bad = copy.deepcopy(reference)
    name = next(iter(bad[study]["verdicts"]))
    bad[study]["verdicts"][name] = not bad[study]["verdicts"][name]
    expect(failed_frac(passes, bad) > 0, "a flipped reference verdict fails (d)")

    bad = copy.deepcopy(reference)
    key = next(iter(bad[study]["summary"]))
    bad[study]["summary"][key] = 2.0 * bad[study]["summary"][key] + 1.0
    expect(failed_frac(passes, bad) > 0, "a reference value out of tolerance fails (d)")

    bad = [copy.deepcopy(p) for p in passes if p["jobs"] == 1]
    bad[-1]["records"][0]["csv_sha256"] = "0" * 64
    expect(len(bad) > 1 and failed_frac(bad, None) > 0, "a repeat with other bytes fails (a)")

    pooled = [i for i, p in enumerate(passes) if p["jobs"] > 1]
    if pooled:
        expect(failed_frac(passes, None) == 0, "pool and serial passes agree")
        bad = copy.deepcopy(passes)
        bad[pooled[0]]["records"][0]["summary_sha256"] = "0" * 64
        expect(failed_frac(bad, None) > 0, "a pool pass with other bytes fails (b)")
    else:
        print("skip (b): one core, so the traced run made no pool pass", flush=True)

    bad = copy.deepcopy(passes)
    record = next(r for r in bad[0]["records"] if r["h2"])
    record["h2"][0] = float("nan")
    expect(failed_frac(bad, None) > 0, "a NaN H^2 value fails (c)")


def check_bare_directory():
    bare = run.ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("coupling", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the program: non-zero exit, no result")


if __name__ == "__main__":
    check_schema()
    check_tampering()
    check_bare_directory()
    print("selftest passed")

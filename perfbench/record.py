"""Record the stored reference and the input counts of every workload.

Usage, from the root of a checkout: python3 perfbench/record.py

Runs each workload at the reference seed (two timed passes after the
warm-up), requires the passes to agree byte for byte, and rewrites
perfbench/reference.json (digests, verdicts and summary values per
study) and the "inputs" entries of perfbench/workloads.json.  Rerun it
only when a change to the program is meant to alter the verdicts or the
study outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys

import checks
import run


def main():
    meta_path = run.HERE / "workloads.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    reference = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for workload, spec in meta["workloads"].items():
        child = run.run_child(
            ["perfbench/study.py", "--workload", workload,
             "--seed", str(run.DEFAULT_SEED), "--seconds", "0", "--trace", "0",
             "--pool-jobs", "1",
             "--out", str(run.ROOT / ".perfbench_out" / workload)],
            timeout=run.CHILD_TIMEOUT_S,
        )
        _attempted, failures, _ = checks.evaluate(child["passes"])
        if failures:
            sys.exit(f"{workload}: {failures}")
        reference["workloads"][workload] = {
            record["study"]: checks.reference_entry(record)
            for record in child["passes"][0]["records"]
        }
        spec["inputs"] = child["inputs"]
        seconds = ", ".join(f"{p['seconds']:.3f}" for p in child["passes"])
        print(f"{workload}: passes {seconds} s, inputs {child['inputs']}")
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1) + "\n", encoding="utf-8"
    )
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

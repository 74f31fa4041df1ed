"""Correctness checks on the study runs of one benchmark run.

A study run is one run_study call.  It fails when it raised, or when
  (a) its row CSV or summary CSV differs from the first pass of the run,
  (b) the same, between passes at different worker counts (results must
      not depend on the worker count; the traced run of a parallel
      workload makes a serial pass for this),
  (c) an H^2 value in its row CSV or summary is not finite or leaves [0, 1],
  (d) at the reference seed, a verdict differs from the stored reference
      or a summary value leaves the stated tolerance around it.
Byte identity with the stored reference is reported as a share only, so
a deliberate, verdict-preserving numerics change does not count as a
failure.  Stdlib only: run.py and selftest.py import this module
without the package.
"""

from __future__ import annotations

import math

# A summary value passes (d) when |value - reference| <= REL_TOL * |reference|
# + ABS_TOL.  The slack admits a numerics change of the sum-law build that
# moves the coupled Gaussian slightly; verdicts must still match exactly.
REL_TOL = 0.05
ABS_TOL = 1e-12


def reference_entry(record):
    """What the stored reference keeps of one study run."""
    return {
        "csv_sha256": record["csv_sha256"],
        "summary_sha256": record["summary_sha256"],
        "verdicts": record["verdicts"],
        "summary": record["summary"],
    }


def _reference_failures(record, ref):
    reasons = []
    if record["verdicts"] != ref["verdicts"]:
        reasons.append(f"(d) verdicts {record['verdicts']} != reference {ref['verdicts']}")
    if set(record["summary"]) != set(ref["summary"]):
        reasons.append("(d) summary metrics differ from the reference")
        return reasons
    for key, want in ref["summary"].items():
        got = record["summary"][key]
        if not abs(got - want) <= REL_TOL * abs(want) + ABS_TOL:
            reasons.append(f"(d) {key} = {got!r}, reference {want!r}")
    return reasons


def _h2_failures(record):
    values = list(record["h2"]) + [
        v for k, v in record["summary"].items() if k.startswith("h2")
    ]
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    return [f"(c) {len(bad)} H^2 value(s) outside [0, 1], first {bad[0]!r}"] if bad else []


def evaluate(passes, reference=None):
    """Check every study run of a benchmark run.

    passes: the child's pass list, each {"jobs", "records"}; reference:
    {study: reference_entry} at the run's seed, or None when the run is
    not at the reference seed.  Returns (attempted, failures,
    csv_identical) with failures a list of (pass index, study, reason)
    and csv_identical the share of CSVs byte-identical to the reference
    (None without a reference).
    """
    attempted = 0
    failures = []
    first = {}
    identical = 0
    compared = 0
    for index, run in enumerate(passes):
        for record in run["records"]:
            attempted += 1
            study = record["study"]
            if "error" in record:
                failures.append((index, study, f"raised {record['error']}"))
                continue
            reasons = []
            digests = (record["csv_sha256"], record["summary_sha256"])
            base, base_jobs = first.setdefault(study, (digests, run["jobs"]))
            if digests != base and run["jobs"] == base_jobs:
                reasons.append("(a) bytes differ from the first pass of the run")
            elif digests != base:
                reasons.append(
                    f"(b) bytes at jobs={run['jobs']} differ from jobs={base_jobs}"
                )
            reasons += _h2_failures(record)
            if reference is not None:
                ref = reference[study]
                compared += 2
                identical += (digests[0] == ref["csv_sha256"]) + (
                    digests[1] == ref["summary_sha256"]
                )
                reasons += _reference_failures(record, ref)
            failures += [(index, study, r) for r in reasons]
    return attempted, failures, (identical / compared if compared else None)


def failed_runs(failures):
    """Number of distinct study runs with at least one failure."""
    return len({(index, study) for index, study, _ in failures})

"""In-memory span tracing of lecam_equiv, installed from outside the package.

`install` rebinds the names that callers look up (module globals in the
calling module, and methods on the classes) to thin wrappers that record
one span per call: name, start, end, parent span and design size n.
Nothing under src/ is edited; `uninstall` restores every original.
Per-layer figures come from `layer_metrics`, which derives self time
(span time minus the time of its child spans) from the parent links.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

import lecam_equiv.coupling as coupling
import lecam_equiv.families as families
import lecam_equiv.globalization as globalization
import lecam_equiv.harness as harness
import lecam_equiv.laws as laws

# (span name, [(module, attribute), ...]): every place a caller looks the
# entry point up.  Each attribute is wrapped in place, so the span name is
# the layer's, whichever module the call comes from.
FUNCTION_SPANS = (
    ("harness.unit", [(harness, "_study_unit")]),
    ("coupling.plan", [(harness, "CouplingPlan")]),
    ("coupling.draw", [(harness, "build_coupled_draw")]),
    ("coupling.audit", [(harness, "audit_cc_conditions")]),
    ("distances.mc_hellinger", [(harness, "mc_hellinger_coupled")]),
    ("experiments.lase_terms", [(coupling, "lase_terms")]),
    ("experiments.sample_original",
     [(harness, "sample_original"), (globalization, "sample_original")]),
    ("globalization.gaussianize",
     [(harness, "gaussianize"), (globalization, "gaussianize")]),
    ("globalization.preliminary_estimate", [(globalization, "preliminary_estimate")]),
    ("globalization.gamma_scale_estimate", [(globalization, "gamma_scale_estimate")]),
    ("globalization.risk_transfer", [(harness, "risk_transfer_demo")]),
    ("families.check_regularity", [(harness, "check_regularity")]),
    ("laws.uniformize", [(laws.WeightedSumLaw, "uniformize")]),
)

FAMILY_METHODS = ("sample", "score", "density")

# Every layer reported as `<name>.calls` and `<name>.self_s`; harness
# spans are folded into `harness.self_s` instead.
LAYERS = (
    "laws.sumlaw",
    "laws.uniformize",
    "families.density",
    "families.sample",
    "families.score",
    "experiments.lase_terms",
    "experiments.sample_original",
    "coupling.draw",
    "coupling.plan",
    "coupling.audit",
    "distances.mc_hellinger",
    "globalization.gaussianize",
    "globalization.preliminary_estimate",
    "globalization.gamma_scale_estimate",
    "globalization.risk_transfer",
    "families.check_regularity",
)

HARNESS_SPANS = ("harness.run_study", "harness.unit")


def _unit_n(args, kwargs):
    """Design size of a harness unit: the task is (config, kind, unit)."""
    unit = args[0][2]
    if isinstance(unit, tuple):
        return unit[0]
    return unit


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, n]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.cf_evals = 0
        self._saved = []

    def span(self, name, fn, n_of=None):
        """Wrap fn so each call records one span named name."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if n_of is not None:
                n = n_of(args, kwargs)
            else:
                n = spans[parent][4] if parent >= 0 else None
            index = len(spans)
            record = [name, time.perf_counter(), 0.0, parent, n]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()

        return traced

    def root(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a top-level span."""
        return self.span(name, fn)(*args, **kwargs)

    def _rebind(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for name, sites in FUNCTION_SPANS:
            n_of = _unit_n if name == "harness.unit" else None
            for owner, attr in sites:
                self._rebind(owner, attr, self.span(name, getattr(owner, attr), n_of))
        self._rebind(
            laws.WeightedSumLaw, "__init__",
            self.span("laws.sumlaw", self._counting_sumlaw_init(laws.WeightedSumLaw.__init__)),
        )
        for cls in vars(families).values():
            if isinstance(cls, type) and issubclass(cls, families.ParametricFamily):
                for method in FAMILY_METHODS:
                    if method in cls.__dict__:
                        self._rebind(
                            cls, method, self.span(f"families.{method}", cls.__dict__[method])
                        )

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counting_sumlaw_init(self, init):
        """Count characteristic-function evaluations the FFT build makes."""
        tracer = self

        @functools.wraps(init)
        def counted(law, laws_, weights, *args, **kwargs):
            init(law, laws_, weights, *args, **kwargs)
            if law.grid is not None:
                nonzero = int(np.count_nonzero(np.asarray(weights, dtype=float)))
                tracer.cf_evals += nonzero * len(law.grid)

        return counted

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _n in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[i]
            for i, (_name, start, end, _p, _n) in enumerate(self.spans)
        ]

    def layer_metrics(self):
        """calls and self_s per layer, plus the draw and unit figures."""
        selfs = self.self_times()
        calls = {name: 0 for name in LAYERS}
        self_s = {name: 0.0 for name in LAYERS}
        harness_self = 0.0
        draw_ms = []
        unit_by_n = {}
        for (name, start, end, _parent, n), own in zip(self.spans, selfs):
            if name in HARNESS_SPANS:
                harness_self += own
                if name == "harness.unit":
                    unit_by_n[n] = unit_by_n.get(n, 0.0) + (end - start)
                continue
            calls[name] += 1
            self_s[name] += own
            if name == "coupling.draw":
                draw_ms.append(1e3 * (end - start))
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["laws.sumlaw.cf_evals"] = self.cf_evals
        out["laws.sumlaw.ns_per_cf_eval"] = (
            1e9 * self_s["laws.sumlaw"] / self.cf_evals if self.cf_evals else 0.0
        )
        p50, p99 = np.percentile(draw_ms, [50, 99]) if draw_ms else (0.0, 0.0)
        out["coupling.draw.ms_p50"] = float(p50)
        out["coupling.draw.ms_p99"] = float(p99)
        out["harness.self_s"] = harness_self
        out["harness.unit_s_max"] = max(unit_by_n.values(), default=0.0)
        out["harness.unit_s_sum"] = sum(unit_by_n.values())
        return out

    def write(self, path):
        """Dump the spans as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

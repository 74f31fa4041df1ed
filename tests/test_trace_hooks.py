"""The span tracer of perfbench/ still finds every name it rebinds.

`perfbench/tracing.py` wraps module globals and methods of lecam_equiv
in place.  A rename in `src/` would otherwise surface only as an
AttributeError inside a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import lecam_equiv.harness as harness
from lecam_equiv.families import get_family
from lecam_equiv.function_space import RegressionFunction

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_attribute():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr} not wrapped"
        # one traced coupled draw records the plan, draw and per-draw layers
        fam = get_family("bernoulli")
        f = RegressionFunction.constant(0.4)
        h = RegressionFunction.sinusoid(0.01, 1.0, 0.0)
        plan = harness.CouplingPlan(fam, f, h, 16, grid_size=256)
        harness.build_coupled_draw(plan, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"coupling.plan", "coupling.draw", "laws.sumlaw", "experiments.lase_terms",
            "laws.uniformize", "families.sample"} <= names
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"

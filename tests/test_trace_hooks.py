"""The span tracer of perfbench/ still finds every name it rebinds.

`perfbench/tracing.py` wraps module globals and methods of lecam_equiv
in place.  A rename in `src/` would otherwise surface only as an
AttributeError inside a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import lecam_equiv.harness as harness
from lecam_equiv.families import TabulatedLocation, get_family
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
        harness.build_coupled_draw(plan, [np.random.default_rng(0)])
        # a family without an affine remainder table still calls lase_terms
        xs = np.linspace(-8.0, 8.0, 801)
        custom = TabulatedLocation(xs, np.exp(-0.5 * xs * xs))
        plan = harness.CouplingPlan(custom, RegressionFunction.constant(0.0), h, 16,
                                    grid_size=256)
        harness.build_coupled_draw(plan, [np.random.default_rng(0)])
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"coupling.plan", "coupling.draw", "laws.sumlaw", "experiments.lase_terms",
            "laws.uniformize", "families.sample"} <= names
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


# families.sample too: a draw that left family.sample would zero that layer
KERNEL_SPANS = {"globalization.gaussianize", "experiments.sample_original",
                "globalization.preliminary_estimate", "families.sample"}


def _traced_names(call):
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        call()
    finally:
        tracer.uninstall()
    return {span[0] for span in tracer.spans}


def test_traced_replicate_stacks_record_the_kernel_layers():
    config = harness.StudyConfig(
        kind="globalize", family="poisson", f_desc="affine(1.5, 1.0)", L=3.0,
        n_grid=(256,), replicates=12, batches=1, master_seed=0, out_dir=".",
    )
    assert KERNEL_SPANS <= _traced_names(lambda: harness._run_globalize(config, (256, 0)))
    fam = get_family("bernoulli")
    f = RegressionFunction.affine(0.4, 0.2)
    names = _traced_names(lambda: harness.risk_transfer_demo(
        fam, f, 256, [1.0], np.random.default_rng(0), R=50))
    assert KERNEL_SPANS | {"globalization.gamma_scale_estimate",
                           "globalization.risk_transfer"} <= names

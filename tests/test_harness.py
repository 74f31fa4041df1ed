"""Tests for the batch study driver: configs, seeds, CSVs, verdicts."""

import configparser
import dataclasses
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lecam_equiv.errors import ConfigError, NumericError
from lecam_equiv.harness import (
    OUTPUT_DIR_ENV,
    StudyConfig,
    derive_seed,
    parse_config,
    run_study,
    stream_rng,
)

import lecam_equiv.harness as harness_module
from lecam_equiv.coupling import CouplingPlan, build_coupled_draw
from lecam_equiv.experiments import design_cell, sample_original
from lecam_equiv.families import ParametricFamily, TabulatedLocation, get_family
from lecam_equiv.function_space import RegressionFunction
from lecam_equiv.globalization import risk_transfer_demo

from oracles import globalize_ks, ks_statistic_erfc


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


def test_derive_seed_is_deterministic():
    assert derive_seed(7, 256, 3) == derive_seed(7, 256, 3)


def test_derive_seed_separates_neighbors():
    base = derive_seed(7, 256, 3)
    assert derive_seed(7, 256, 4) != base
    assert derive_seed(7, 512, 3) != base
    assert derive_seed(8, 256, 3) != base


def test_derive_seed_no_collisions_in_a_million_cells():
    seen = set()
    for n in range(1000):
        for r in range(1000):
            seen.add(derive_seed(12345, n, r))
    assert len(seen) == 1_000_000


def test_derive_seed_fits_in_64_bits():
    for args in ((0, 0, 0), (2**64 - 1, 2**31, 2**20)):
        s = derive_seed(*args)
        assert 0 <= s < 2**64


def test_stream_rng_is_philox_and_reproducible():
    g = stream_rng(42)
    assert type(g.bit_generator).__name__ == "Philox"
    a = stream_rng(42).standard_normal(5)
    b = stream_rng(42).standard_normal(5)
    assert np.array_equal(a, b)


def _philox_streams():
    return [0, 1, 2**63, 2**64 - 1] + [derive_seed(3, n, r) for n in (16, 4096) for r in range(50)]


def test_stream_rng_is_philox_keyed_by_the_seed():
    for seed in _philox_streams():
        ours, keyed = stream_rng(seed), np.random.Generator(np.random.Philox(key=seed))
        assert repr(ours.bit_generator.state) == repr(keyed.bit_generator.state), seed
        for draw in (
            lambda g: g.random(1000),
            lambda g: g.poisson(2.5, 1000),
            lambda g: g.standard_normal(1000),
        ):
            assert draw(ours).tobytes() == draw(keyed).tobytes(), seed


def test_stream_rng_draws_no_os_entropy(monkeypatch):
    import numpy.random.bit_generator as bit_generator

    def no_entropy(*_args):
        raise AssertionError("OS entropy drawn")

    expected = np.random.Generator(np.random.Philox(key=7)).random(8)
    # the seed sequence that Philox(key=...) builds and discards draws entropy here
    monkeypatch.setattr(bit_generator, "randbits", no_entropy)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.Philox(key=7)
    assert stream_rng(7).random(8).tobytes() == expected.tobytes()


@pytest.mark.parametrize("size", [1, 2, 5, 6, 101, 400])
def test_harness_median_is_np_median_bit_for_bit(size):
    rng = np.random.default_rng(size)
    spread = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)
    ties = rng.choice([-1e300, -1.0, -1e-300, -0.0, 0.0, 1e-300, 2.5, 1e300], size)
    for values in (spread.tolist(), ties.tolist(), [-0.0] * size, [5e-324, -0.0][:size]):
        expected = np.float64(np.median(values)).tobytes()
        assert np.float64(harness_module._median(values)).tobytes() == expected, values


def test_harness_median_of_a_nan_is_nan():
    for values in ([math.nan], [1.0, math.nan, 2.0], [0.5, 1.0, 2.0, math.nan]):
        assert math.isnan(np.median(values))
        assert math.isnan(harness_module._median(values))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def _config(**overrides):
    base = dict(
        kind="homoscedastic-check",
        family="bernoulli",
        f_desc="affine(0.25, 0.1)",
        c_rate=0.5,
        n_grid=(256, 1024),
        replicates=10,
        batches=1,
        master_seed=1,
        out_dir=".",
    )
    base.update(overrides)
    return StudyConfig(**base)


def test_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        _config(kind="frobnicate")


def test_config_rejects_bad_n_grid():
    with pytest.raises(ConfigError):
        _config(n_grid=(256, 256))
    with pytest.raises(ConfigError):
        _config(n_grid=(1024, 256))
    with pytest.raises(ConfigError):
        _config(n_grid=())


def test_config_rejects_small_replicate_count():
    with pytest.raises(ConfigError):
        _config(replicates=9)
    # each kind's own minimum, at parse time rather than after the work
    for kind, overrides, match in [
        ("cc-audit", dict(replicates=99), "at least 100 for cc-audit"),
        ("risk-transfer", dict(replicates=49), "at least 50 for risk-transfer"),
        ("globalize", dict(n_grid=(7, 256)), "at least 8 for globalize"),
        ("risk-transfer", dict(replicates=50, n_grid=(7, 256)), "at least 8 for risk-transfer"),
    ]:
        with pytest.raises(ConfigError, match=match):
            _config(kind=kind, **overrides)
    _config(kind="cc-audit", replicates=100)
    _config(kind="risk-transfer", replicates=50, n_grid=(8, 256))


def test_config_rejects_bad_scalars():
    with pytest.raises(ConfigError):
        _config(q=0.3)
    with pytest.raises(ConfigError):
        _config(alpha=1.0)
    with pytest.raises(ConfigError):
        _config(beta=0.5)
    with pytest.raises(ConfigError):
        _config(batches=0)
    # NaN fails every comparison, so each check must be written to reject it
    for key in ("L", "c_rate", "epsilon", "audit_eps", "gap_constant"):
        with pytest.raises(ConfigError):
            _config(**{key: math.nan})


def test_config_rejects_bad_loss_caps_and_grid():
    with pytest.raises(ConfigError):
        _config(loss_caps=())
    with pytest.raises(ConfigError):
        _config(loss_caps=(1.0, 0.5))
    with pytest.raises(ConfigError):
        _config(loss_caps=(0.25, math.nan))
    with pytest.raises(ConfigError):
        _config(coupling_grid=1000)  # not a power of two


def test_config_rejects_unresolvable_names():
    with pytest.raises(ConfigError):
        _config(family="beta_binomial")
    with pytest.raises(ConfigError):
        _config(f_desc="affine(0.25")
    with pytest.raises(ConfigError):
        _config(h_desc="mystery(1.0)")
    # a table belongs to location_custom only; a built-in would ignore it
    with pytest.raises(ConfigError, match="takes no density table"):
        _config(table_path="does-not-exist.txt")


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


# every key of harness._CONFIG_KEYS, each set to a value other than its default
FULL_CONFIG = """\
[study]
kind = local-hellinger
family = location_custom
f = affine(1.5, 1.0)
h = sinusoid(0.5, 2.0)
beta = 1.5
L = 3.0
c_rate = 0.5
q = 0.2
alpha = 0.6
n_grid = 128, 256
replicates = 20        # per batch
batches = 2
seed = 99
out = results/run1
table = noise.txt
loss_caps = 0.5, 2.0, 8.0
coupling_grid = 4096
epsilon = 0.02
grid_points = 9
audit_eps = 0.75
audit_threshold = 0.3
gap_constant = 2.0
ks_pass_fraction = 0.8
"""


def test_parse_config_reads_every_key(tmp_path, monkeypatch):
    # the relative table path resolves against the working directory
    xs = np.linspace(-8.0, 8.0, 401)
    np.savetxt(tmp_path / "noise.txt", np.column_stack([xs, np.exp(-0.5 * xs * xs)]))
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "study.ini"
    path.write_text(FULL_CONFIG)
    cfg = parse_config(path)
    assert cfg.kind == "local-hellinger"
    assert cfg.family == "location_custom"
    assert cfg.f_desc == "affine(1.5, 1.0)"
    assert cfg.L == 3.0
    assert cfg.n_grid == (128, 256)
    assert cfg.replicates == 20  # inline comment stripped
    assert cfg.batches == 2
    assert cfg.master_seed == 99
    assert cfg.coupling_grid == 4096
    assert cfg.h_desc == "sinusoid(0.5, 2.0)"
    assert cfg.beta == 1.5
    assert cfg.c_rate == 0.5
    assert cfg.q == 0.2
    assert cfg.alpha == 0.6
    assert cfg.out_dir == "results/run1"
    assert cfg.table_path == "noise.txt"
    assert cfg.loss_caps == (0.5, 2.0, 8.0)
    assert cfg.epsilon == 0.02
    assert cfg.grid_points == 9
    assert cfg.audit_eps == 0.75
    assert cfg.audit_threshold == 0.3
    assert cfg.gap_constant == 2.0
    assert cfg.ks_pass_fraction == 0.8
    # a key added to the parser later must be added to the fixture too
    fixture = configparser.ConfigParser()
    fixture.optionxform = str
    fixture.read_string(FULL_CONFIG)
    assert set(fixture["study"]) == set(harness_module._CONFIG_KEYS)
    defaults = StudyConfig(kind="cc-audit", family="poisson", f_desc="constant(1.0)")
    for name in (f.name for f in dataclasses.fields(StudyConfig)):
        if name not in ("kind", "family", "f_desc"):
            assert getattr(cfg, name) != getattr(defaults, name), name


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[study]\nkind = cc-audit\nfamily = poisson\nf = constant(1.0)\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)


@pytest.mark.parametrize("key", ["audit_eps", "gap_constant", "L", "c_rate", "epsilon"])
def test_parse_config_rejects_infinite_value(key, tmp_path):
    # inf passes a positivity check, and an infinite audit_eps leaves
    # neither cc-audit tail audit able to fire
    golden = Path(__file__).resolve().parent / "golden" / "cc-audit.ini"
    path = tmp_path / "study.ini"
    path.write_text(golden.read_text() + f"{key} = inf\n")
    with pytest.raises(ConfigError, match="finite"):
        parse_config(path)


def test_parse_config_requires_core_keys(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[study]\nkind = cc-audit\nfamily = poisson\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_requires_single_study_section(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text("[other]\nkind = cc-audit\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    path.write_text(
        "[study]\nkind = cc-audit\nfamily = poisson\nf = constant(1.0)\n[extra]\nx = 1\n"
    )
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.ini")


def test_parse_config_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "fallback"))
    path = tmp_path / "study.ini"
    path.write_text("[study]\nkind = homoscedastic-check\nfamily = bernoulli\nf = affine(0.25, 0.1)\n")
    cfg = parse_config(path)
    assert cfg.out_dir == str(tmp_path / "fallback")


# ---------------------------------------------------------------------------
# running studies
# ---------------------------------------------------------------------------


def test_homoscedastic_study_passes_and_is_reproducible(tmp_path):
    cfg = _config(out_dir=str(tmp_path / "a"), n_grid=(256, 1024, 4096))
    res1 = run_study(cfg)
    assert res1.passed
    assert res1.verdicts == {"decreasing_h2": True, "final_h2_below_0.01": True}
    res2 = run_study(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
    with open(res1.csv_path, "rb") as fh:
        bytes1 = fh.read()
    with open(res2.csv_path, "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2
    with open(res1.summary_path, "rb") as fh:
        sum1 = fh.read()
    with open(res2.summary_path, "rb") as fh:
        sum2 = fh.read()
    assert sum1 == sum2


def test_homoscedastic_study_fails_on_nonmonotone_profile(tmp_path):
    # the arcsine transform's curvature flips sign at theta = 1/2, so this
    # anchor straddling it produces a rising tail in the H^2 profile
    cfg = _config(
        f_desc="affine(0.4, 0.2)",
        c_rate=1.0,
        n_grid=(2048, 16384),
        out_dir=str(tmp_path),
    )
    res = run_study(cfg)
    assert res.verdicts["decreasing_h2"] is False
    assert not res.passed
    with open(res.summary_path) as fh:
        text = fh.read()
    assert "verdict:decreasing_h2, , fail" in text
    assert "overall, , fail" in text


def test_local_hellinger_study_small_scale(tmp_path):
    cfg = StudyConfig(
        kind="local-hellinger",
        family="bernoulli",
        f_desc="affine(0.4, 0.2)",
        n_grid=(256, 1024),
        replicates=40,
        batches=4,
        master_seed=11,
        out_dir=str(tmp_path),
        coupling_grid=1 << 13,
    )
    res = run_study(cfg)
    assert res.passed
    meds = dict(res.medians["h2_median"])
    assert meds[1024] < meds[256]
    with open(res.csv_path) as fh:
        lines = [l for l in fh if not l.startswith("#")]
    assert lines[0].strip() == "n, batch, h2, stderr, replicates, seed"
    assert len(lines) == 1 + 2 * 4  # header + n_grid x batches


def test_local_hellinger_medians_rederivable_from_rows(tmp_path):
    cfg = StudyConfig(
        kind="local-hellinger",
        family="poisson",
        f_desc="affine(1.5, 1.0)",
        L=3.0,
        n_grid=(128, 256),
        replicates=15,
        batches=3,
        master_seed=21,
        out_dir=str(tmp_path),
        coupling_grid=1 << 12,
    )
    res = run_study(cfg)
    per_n = {}
    with open(res.csv_path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("n,"):
                continue
            parts = [p.strip() for p in line.split(",")]
            per_n.setdefault(int(parts[0]), []).append(float(parts[2]))
    recomputed = [(n, float(np.median(vs))) for n, vs in sorted(per_n.items())]
    assert recomputed == res.medians["h2_median"]


def test_no_study_formats_a_descriptor_per_draw(monkeypatch):
    # a draw holds data only: no study path reads a function's descriptor
    reads = []
    descriptor = RegressionFunction.descriptor

    def counted(self):
        reads.append(self.kind)
        return descriptor.fget(self)

    monkeypatch.setattr(RegressionFunction, "descriptor", property(counted))
    globalize = StudyConfig(
        kind="globalize", family="poisson", f_desc="affine(1.5, 1.0)", L=3.0,
        n_grid=(256,), replicates=12, batches=1,
    )
    harness_module._run_globalize(globalize, (256, 0))
    risk_transfer_demo(
        get_family("bernoulli"), RegressionFunction.affine(0.4, 0.2), 256, [1.0],
        np.random.default_rng(0), R=50,
    )
    local = dataclasses.replace(
        globalize, kind="local-hellinger", c_rate=0.5, replicates=10, coupling_grid=1 << 10
    )
    harness_module._run_local_hellinger(local, 256)
    xs = np.linspace(-8.0, 8.0, 801)
    plan = CouplingPlan(
        TabulatedLocation(xs, np.exp(-0.5 * xs * xs)), RegressionFunction.constant(0.0),
        RegressionFunction.sinusoid(0.01, 1.0, 0.0), 16, grid_size=256,
    )
    assert plan.log_lr_slope is None  # the stack goes through lase_terms
    build_coupled_draw(plan, [np.random.default_rng(seed) for seed in range(3)])
    assert reads == []
    assert RegressionFunction.constant(1.0).descriptor == "constant(1)" and reads == ["constant"]


def test_worker_pool_and_serial_runs_write_identical_bytes(tmp_path):
    cfg = StudyConfig(
        kind="globalize",
        family="bernoulli",
        f_desc="constant(0.5)",
        n_grid=(128, 256),
        replicates=12,
        batches=3,
        master_seed=17,
        out_dir=str(tmp_path / "serial"),
    )
    res1 = run_study(cfg, jobs=1)
    res2 = run_study(
        dataclasses.replace(cfg, out_dir=str(tmp_path / "pooled")), jobs=3
    )
    with open(res1.csv_path, "rb") as fh:
        b1 = fh.read()
    with open(res2.csv_path, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_globalize_study_rows_and_verdict(tmp_path):
    cfg = StudyConfig(
        kind="globalize",
        family="bernoulli",
        f_desc="constant(0.5)",
        n_grid=(1024,),
        replicates=12,
        batches=3,
        master_seed=6,
        out_dir=str(tmp_path),
    )
    res = run_study(cfg)
    assert res.passed
    rows = []
    with open(res.csv_path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("n,"):
                continue
            rows.append([p.strip() for p in line.split(",")])
    assert len(rows) == 12
    assert [int(r[1]) for r in rows] == list(range(12))  # (n, replicate) order
    for r in rows:
        assert math.isclose(float(r[3]), 1.628 / math.sqrt(1024))
        assert r[4] in ("0", "1")
    frac = dict(res.medians["ks_pass_fraction"])[1024]
    assert frac == sum(int(r[4]) for r in rows) / 12


def _globalize_config(replicates, batches):
    return StudyConfig(
        kind="globalize",
        family="poisson",
        f_desc="affine(1.5, 1.0)",
        L=3.0,
        n_grid=(1024,),
        replicates=replicates,
        batches=batches,
        master_seed=3,
        out_dir=".",
    )


def _coupled_config(replicates):
    # at 1024 points a coupled stack holds 32 replicates
    return StudyConfig(
        kind="local-hellinger",
        family="poisson",
        f_desc="affine(1.5, 1.0)",
        L=3.0,
        c_rate=0.5,
        n_grid=(1024,),
        replicates=replicates,
        batches=1,
        master_seed=3,
        out_dir=".",
        coupling_grid=1024,
    )


def _ks_rows(m, rng):
    """Rows of m points: shifted and scaled normals, +-40 tails, +-inf, ties, a constant."""
    shifts = ((0.0, 1.0), (0.4, 1.0), (-0.3, 2.5), (0.0, 0.2))
    rows = [rng.normal(loc, scale, m) for loc, scale in shifts]
    tails = rng.standard_normal(m)
    tails[0], tails[-1] = -40.0, 40.0
    infinite = rng.standard_normal(m)
    infinite[0], infinite[-1] = -np.inf, np.inf
    ties = np.round(rng.standard_normal(m), 1)
    return np.array(rows + [tails, infinite, ties, np.full(m, 0.3)])


@pytest.mark.parametrize("m", [1, 8, 64, 256, 1024])
def test_ks_statistic_normal_equals_libm_at_every_point(m):
    from scipy.special import ndtr

    values = _ks_rows(m, np.random.default_rng(m))
    got = harness_module._ks_statistic_normal(values)
    assert got.tolist() == [ks_statistic_erfc(row) for row in values]
    # the statistic the globalize study read from scipy's ndtr before
    u = np.sort(ndtr(values), axis=-1)
    k = np.arange(1, m + 1, dtype=float)
    old = np.maximum(np.max(k / m - u, axis=-1), np.max(u - (k - 1.0) / m, axis=-1))
    assert np.max(np.abs(got - old)) <= 4.5e-16


def test_ks_statistic_normal_gives_nan_for_a_row_with_nan():
    # np.max propagates the NaN; a row whose approximate maximum is NaN
    # has no point near it, and must not come out as -inf, which passes
    values = np.random.default_rng(4).standard_normal((3, 64))
    values[1, 17] = np.nan
    got = harness_module._ks_statistic_normal(values)
    assert math.isnan(got[1])
    assert [got[0], got[2]] == [ks_statistic_erfc(values[0]), ks_statistic_erfc(values[2])]


def test_phi_approx_stays_within_a_quarter_of_the_ks_margin():
    x = np.linspace(-40.0, 40.0, 2_000_001)
    phi = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x.tolist()])
    assert np.max(np.abs(harness_module._phi_approx(x) - phi)) <= harness_module._KS_MARGIN / 4


def test_globalize_dispatches_only_units_that_draw(tmp_path):
    # 20 batches share 10 replicates per n: half the shares are empty, and
    # an empty share would still build its design cell
    cfg = dataclasses.replace(
        _globalize_config(replicates=10, batches=20), n_grid=(64, 128), out_dir=str(tmp_path)
    )
    units = harness_module._KINDS["globalize"].units(cfg)
    assert len(units) == 20
    assert [len(harness_module._run_globalize(cfg, u)[0]) for u in units] == [1] * 20
    res = run_study(cfg)
    rows = Path(res.csv_path).read_text().splitlines()[4:]
    assert [row.split(",")[:2] for row in rows] == [
        [str(n), f" {r}"] for n in (64, 128) for r in range(10)
    ]


def test_globalize_unit_matches_per_replicate_oracle():
    # batch 1 of 2 holds replicates 37..74; at 1024 points a stack holds
    # 32 of them, so the unit crosses a stack boundary at 69
    cfg = _globalize_config(replicates=75, batches=2)
    rows, stats = harness_module._run_globalize(cfg, (1024, 1))
    expected = globalize_ks(cfg, 1024, range(37, 75))
    assert [ks for ks, _ in stats] == expected
    assert [int(row.split(",")[1]) for row in rows] == list(range(37, 75))
    assert [ok for _, ok in stats] == [ks < 1.628 / 32.0 for ks in expected]


# peak traced allocation of the replicate stacks; about 1.8 MB for the
# kernel units and 2.5 MB for the coupled unit (1.6 MB of it the 100 draws
# the unit keeps) when written
STACK_PEAK_BOUND_MB = 4.0


def _traced_peak_mb(fn):
    fn()  # warm caches and lazy imports outside the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_replicate_stacks_keep_the_working_set_small():
    family = get_family("bernoulli")
    f = RegressionFunction.affine(0.4, 0.2)
    risk_peak = _traced_peak_mb(lambda: risk_transfer_demo(
        family, f, 1024, [0.01, 1.0], np.random.default_rng(0), R=250))
    cfg = _globalize_config(replicates=75, batches=1)
    unit_peak = _traced_peak_mb(lambda: harness_module._run_globalize(cfg, (1024, 0)))
    coupled = _coupled_config(replicates=100)
    coupled_peak = _traced_peak_mb(lambda: harness_module._run_local_hellinger(coupled, 1024))
    assert risk_peak < STACK_PEAK_BOUND_MB
    assert unit_peak < STACK_PEAK_BOUND_MB
    assert coupled_peak < STACK_PEAK_BOUND_MB


def test_a_unit_checks_its_design_once(monkeypatch):
    # each unit builds one design cell, and its draws sample the checked theta
    checks = []
    check = ParametricFamily.in_working_interval

    def counting(self, theta):
        checks.append(len(theta))
        return check(self, theta)

    monkeypatch.setattr(ParametricFamily, "in_working_interval", counting)
    harness_module._run_globalize(_globalize_config(replicates=40, batches=1), (1024, 0))
    risk_transfer_demo(get_family("bernoulli"), RegressionFunction.affine(0.4, 0.2), 256,
                       [1.0], np.random.default_rng(0), R=50)
    two_batches = dataclasses.replace(_coupled_config(replicates=16), batches=2)
    harness_module._run_local_hellinger(two_batches, 1024)
    assert checks == [1024, 256, 1024]

    cell = design_cell(get_family("poisson"), RegressionFunction.affine(1.5, 1.0), 16)
    for values in (cell.t, cell.theta, cell.info):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0
    assert sample_original(cell, np.random.default_rng(0)).design is cell.t


class _CountingGenerator(np.random.Generator):
    """A Generator that counts its binomial calls."""

    binomial_calls = 0

    def binomial(self, *args, **kwargs):
        _CountingGenerator.binomial_calls += 1
        return super().binomial(*args, **kwargs)


def test_bernoulli_units_draw_without_binomial_or_theta_rechecks(monkeypatch):
    # every draw samples the cell's table: one uniform comparison per point,
    # and theta checks per unit that do not grow with the replicate count
    monkeypatch.setattr(_CountingGenerator, "binomial_calls", 0)
    checks = []
    require = ParametricFamily.require_theta

    def counting(self, theta):
        checks.append(np.size(theta))
        return require(self, theta)

    monkeypatch.setattr(ParametricFamily, "require_theta", counting)
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)

    def risk_unit_checks(replicates):
        config = StudyConfig(
            kind="risk-transfer", family="bernoulli", f_desc="affine(0.4, 0.2)",
            n_grid=(64,), replicates=replicates, batches=1, master_seed=3, out_dir=".",
        )
        checks.clear()
        harness_module._run_risk_transfer(config, (64, 0))
        return len(checks)

    assert risk_unit_checks(50) == risk_unit_checks(100)

    fam = get_family("bernoulli")
    f = RegressionFunction.affine(0.4, 0.2)
    h = RegressionFunction.sinusoid(0.01, 1.0, 0.0)
    plan = harness_module.CouplingPlan(fam, f, h, 64, grid_size=1024)

    def stack_checks(rows):
        checks.clear()
        harness_module.build_coupled_draw(
            plan, [_CountingGenerator(np.random.PCG64(r)) for r in range(rows)])
        return len(checks)

    assert stack_checks(4) == stack_checks(8) == 0
    assert _CountingGenerator.binomial_calls == 0


def test_cc_audit_unit_keeps_only_the_two_log_likelihoods():
    # the audit reads two numbers per replicate, so a unit's draws hold
    # two (R,) float arrays and nothing per design point
    config = dataclasses.replace(_coupled_config(replicates=500), kind="cc-audit")
    (_plan, draws), = harness_module._coupled_batches(config, 1024, 1)
    held = sum(np.asarray(value).nbytes for draw in draws for value in vars(draw).values())
    assert held <= 2 * 8 * config.replicates


def test_cc_audit_study(tmp_path):
    cfg = StudyConfig(
        kind="cc-audit",
        family="poisson",
        f_desc="affine(1.5, 1.0)",
        L=3.0,
        n_grid=(256,),
        replicates=120,
        batches=1,
        master_seed=5,
        out_dir=str(tmp_path),
        coupling_grid=1 << 12,
    )
    res = run_study(cfg)
    assert res.verdicts["audits_reliable"]
    assert res.verdicts["frequencies_at_most_threshold"]
    assert res.passed


def test_risk_transfer_study_margin_shrinks(tmp_path):
    cfg = StudyConfig(
        kind="risk-transfer",
        family="bernoulli",
        f_desc="affine(0.25, 0.1)",
        n_grid=(1024, 4096),
        replicates=50,
        batches=3,
        master_seed=7,
        out_dir=str(tmp_path),
    )
    res = run_study(cfg)
    assert res.verdicts["shrinking_risk_margin"]
    meds = dict(res.medians["margin_median"])
    assert meds[4096] < meds[1024]
    with open(res.csv_path) as fh:
        data_rows = [l for l in fh if not (l.startswith("#") or l.startswith("n,"))]
    assert len(data_rows) == 2 * 3 * 2  # n_grid x batches x loss_caps
    # the summary holds the per-n median of the margins at the largest cap
    last_cap = {}
    for line in data_rows:
        parts = [p.strip() for p in line.split(",")]
        if float(parts[2]) == cfg.loss_caps[-1]:
            last_cap.setdefault(int(parts[0]), []).append(float(parts[7]))
    recomputed = [(n, float(np.median(v))) for n, v in sorted(last_cap.items())]
    assert recomputed == res.medians["margin_median"]


def test_condition_audit_study(tmp_path):
    cfg = StudyConfig(
        kind="condition-audit",
        family="bernoulli",
        f_desc="constant(0.5)",
        n_grid=(256,),
        replicates=10,
        batches=1,
        master_seed=8,
        out_dir=str(tmp_path),
        grid_points=9,
    )
    res = run_study(cfg)
    assert res.passed
    assert res.verdicts == {"regularity_all_pass": True}
    assert res.medians["r3_min"][0][1] > 0.0
    with open(res.csv_path) as fh:
        data_rows = [l for l in fh if not l.startswith(("#", "family,"))]
    assert len(data_rows) == 1
    assert data_rows[0].split(",")[0].strip() == "bernoulli"


def test_run_study_rejects_bad_jobs(tmp_path):
    cfg = _config(out_dir=str(tmp_path))
    with pytest.raises(Exception):
        run_study(cfg, jobs=0)


@pytest.mark.parametrize(
    "kind, target, n, seed",
    [
        ("homoscedastic-check", "homoscedastic_transform_check", 256, 1),
        ("globalize", "sample_original", 256, derive_seed(1, 256, 0)),
        ("risk-transfer", "risk_transfer_demo", 256, derive_seed(1, 256, 0)),
        # one unit and no replicates: the master seed
        ("condition-audit", "check_regularity", 0, 1),
    ],
    ids=["homoscedastic-check", "globalize", "risk-transfer", "condition-audit"],
)
def test_numeric_failure_propagates_from_pipeline(tmp_path, monkeypatch, kind, target, n, seed):
    def explode(*args, **kwargs):
        raise NumericError("quadrature failed to converge")

    monkeypatch.setattr(harness_module, target, explode)
    cfg = _config(kind=kind, replicates=50, grid_points=3, out_dir=str(tmp_path))
    assert cfg.master_seed == 1
    with pytest.raises(NumericError, match=rf"at n={n}, replicate=0, seed={seed}: quadrature"):
        run_study(cfg)


def test_numeric_failure_in_a_coupled_stack_names_its_replicate(tmp_path, monkeypatch):
    # replicate 37 is row 5 of the second stack (replicates 32..49)
    cfg = dataclasses.replace(_coupled_config(replicates=50), out_dir=str(tmp_path))
    bad_seed = derive_seed(cfg.master_seed, 1024, 37)
    planted = []

    def marking_rng(seed):
        rng = stream_rng(seed)
        if seed == bad_seed:
            planted.append(rng)
        return rng

    poisson = type(get_family("poisson"))
    sample = poisson.sample

    def failing_sample(self, theta, rng):
        if any(rng is p for p in planted):
            raise NumericError("sampler failed")
        return sample(self, theta, rng)

    monkeypatch.setattr(harness_module, "stream_rng", marking_rng)
    monkeypatch.setattr(poisson, "sample", failing_sample)
    with pytest.raises(
        NumericError, match=rf"at n=1024, replicate=37, seed={bad_seed}: sampler failed"
    ):
        run_study(cfg)
    assert len(planted) == 1


def test_versioned_header_present(tmp_path):
    cfg = _config(out_dir=str(tmp_path))
    res = run_study(cfg)
    with open(res.csv_path) as fh:
        first = fh.readline()
    assert first.startswith("# lecam-equiv ")
    assert "study=homoscedastic-check" in first

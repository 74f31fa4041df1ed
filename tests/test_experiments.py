"""Samplers, draw serialization, and exact log-likelihood ratio checks."""

import dataclasses
import math

import numpy as np
import pytest

from lecam_equiv.errors import ArgumentError, DomainError
from lecam_equiv.experiments import (
    ExperimentDraw,
    design_cell,
    design_grid,
    lase_terms,
    read_draw,
    sample_original,
    write_draw,
)
from lecam_equiv.families import TabulatedLocation, get_family
from lecam_equiv.function_space import RegressionFunction, SumFunction
from lecam_equiv.harness import StudyConfig, _local_shift

from oracles import sample_global_gaussian, standard_test_pair

FAMILIES = ["bernoulli", "poisson", "gaussian_scale", "location_normal"]


# ---------------------------------------------------------------------------
# draw container and file format
# ---------------------------------------------------------------------------


def test_design_grid_is_one_based():
    assert np.allclose(design_grid(4), [0.25, 0.5, 0.75, 1.0])
    assert design_grid(0).size == 0


def test_draw_rejects_bad_shapes_and_tags():
    t = design_grid(3)
    x = np.zeros(3)
    with pytest.raises(ArgumentError):
        ExperimentDraw("nonsense", t, x, "bernoulli")
    with pytest.raises(ArgumentError, match="design length"):
        ExperimentDraw("original", t, x[:2], "bernoulli")
    with pytest.raises(ArgumentError):
        ExperimentDraw("original", t[::-1].copy(), x, "bernoulli")


def test_draw_holds_a_stack_of_replicates_on_one_design(tmp_path):
    t = design_grid(3)
    stack = ExperimentDraw("original", t, np.zeros((2, 3)), "bernoulli")
    assert stack.observations.shape == (2, 3) and stack.n == 3
    with pytest.raises(ArgumentError):
        ExperimentDraw("original", t, np.zeros((3, 2)), "bernoulli")
    with pytest.raises(ArgumentError):
        ExperimentDraw("original", t, np.zeros((1, 2, 3)), "bernoulli")
    with pytest.raises(ArgumentError, match="not a stack"):
        write_draw(stack, tmp_path / "stack.csv")
    assert not (tmp_path / "stack.csv").exists()


def test_draw_file_roundtrip(tmp_path):
    fam = get_family("poisson")
    f = RegressionFunction.affine(1.5, 1.0)
    draw = sample_original(design_cell(fam, f, 17), np.random.default_rng(5), seed=5)
    path = tmp_path / "draw.csv"
    write_draw(draw, path)
    back = read_draw(path)
    assert back.model == "original"
    assert back.family == "poisson"
    assert back.n == 17
    assert back.seed == 5
    # the record holds what the file holds: every field survives, arrays bit for bit
    for field in dataclasses.fields(ExperimentDraw):
        got, want = getattr(back, field.name), getattr(draw, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name
    # byte-for-byte determinism of the writer
    path2 = tmp_path / "again.csv"
    write_draw(draw, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_draw_file_header_and_row_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# family = bernoulli\n# n = 1\n# seed = 0\n1, 0.5, 1.0\n")
    with pytest.raises(ArgumentError, match="model"):
        read_draw(path)
    path.write_text(
        "# family = bernoulli\n# model = original\n# n = 2\n# seed = 0\n1, 0.5, 1.0\n"
    )
    with pytest.raises(ArgumentError, match="rows"):
        read_draw(path)
    path.write_text(
        "# family = bernoulli\n# model = original\n# n = 1\n# seed = 0\n1, 0.5\n"
    )
    with pytest.raises(ArgumentError, match="malformed"):
        read_draw(path)


def test_read_draw_rejects_a_nan_design_point(tmp_path):
    path = tmp_path / "nan.csv"
    header = "# family = poisson\n# model = original\n# n = 3\n# seed = 0\n"
    path.write_text(header + "1, 0.25, 1.0\n2, nan, 0.0\n3, 0.75, 2.0\n")
    with pytest.raises(ArgumentError, match="strictly increasing"):
        read_draw(path)
    # a non-finite observation is rejected the same way
    for value in ("nan", "inf", "-inf"):
        path.write_text(header + f"1, 0.25, 1.0\n2, 0.5, {value}\n3, 0.75, 2.0\n")
        with pytest.raises(ArgumentError, match="observations must be finite"):
            read_draw(path)


def test_a_copy_of_a_cell_design_is_checked_again():
    cell = design_cell(get_family("poisson"), RegressionFunction.constant(1.0), 4)
    x = np.zeros(4)
    assert cell.draw(x).design is cell.t
    # an equal array that is not the cell's is checked
    t = cell.t.copy()
    t[1] = math.nan
    with pytest.raises(ArgumentError, match="strictly increasing"):
        ExperimentDraw("original", t, x, "poisson")
    # a NaN or infinite point that no difference sees: one point, or an end
    for design in ([math.nan], [0.5, math.inf], [-math.inf, 0.5]):
        with pytest.raises(ArgumentError, match="finite"):
            ExperimentDraw("original", np.array(design), np.zeros(len(design)), "poisson")


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_sample_original_enforces_working_interval():
    fam = get_family("bernoulli")
    f = RegressionFunction.affine(0.9, 0.2)
    with pytest.raises(DomainError, match="working interval"):
        design_cell(fam, f, 8)
    with pytest.raises(ArgumentError, match="nonnegative"):
        design_cell(fam, RegressionFunction.constant(0.5), -1)


def test_sample_original_empty_draw_allowed():
    fam = get_family("bernoulli")
    f = RegressionFunction.constant(0.5)
    draw = sample_original(design_cell(fam, f, 0), np.random.default_rng(0))
    assert draw.n == 0 and draw.observations.size == 0


def test_sample_original_matches_family_law():
    fam = get_family("bernoulli")
    f = RegressionFunction.constant(0.3)
    draw = sample_original(design_cell(fam, f, 20000), np.random.default_rng(11))
    assert set(np.unique(draw.observations)) <= {0.0, 1.0}
    # binomial(20000, 0.3) mean within 4 sigma
    assert abs(draw.observations.mean() - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 20000)


def test_sample_global_gaussian_centers_on_stabilized_mean():
    fam = get_family("poisson")
    f = RegressionFunction.constant(4.0)
    draw = sample_global_gaussian(fam, f, 40000, np.random.default_rng(7))
    assert draw.model == "global-gaussian"
    # gamma(4) = 4 with unit noise
    assert abs(draw.observations.mean() - 4.0) < 4 / math.sqrt(40000)
    assert abs(draw.observations.var() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# the exact log-likelihood ratio
# ---------------------------------------------------------------------------


def test_loglik_single_bernoulli_point():
    fam = get_family("bernoulli")
    f = RegressionFunction.constant(0.5)
    h = RegressionFunction.constant(0.1)
    draw = ExperimentDraw("original", design_grid(1), np.array([1.0]), "bernoulli")
    val = lase_terms(fam, f, h, draw)
    assert val == pytest.approx(math.log(0.6 / 0.5), abs=1e-15)
    draw0 = ExperimentDraw("original", design_grid(1), np.array([0.0]), "bernoulli")
    assert lase_terms(fam, f, h, draw0) == pytest.approx(
        math.log(0.4 / 0.5), abs=1e-15
    )


@pytest.mark.parametrize("name", FAMILIES)
def test_loglik_antisymmetry(name):
    fam = get_family(name)
    f, h = standard_test_pair(fam, 64)
    draw = sample_original(design_cell(fam, f, 64), np.random.default_rng(21))
    forward = lase_terms(fam, f, h, draw)
    shifted = SumFunction(f, h)
    neg_h = RegressionFunction.sinusoid(-h.params[0], h.params[1], h.params[2])
    backward = lase_terms(fam, shifted, neg_h, draw)
    assert forward == pytest.approx(-backward, abs=1e-12)


@pytest.mark.parametrize("name", FAMILIES + ["location_custom"])
def test_stacked_lase_terms_rows_equal_single_draws(name):
    if name == "location_custom":
        xs = np.linspace(-8.0, 8.0, 801)
        fam = TabulatedLocation(xs, np.exp(-0.5 * xs * xs))
        f = RegressionFunction.constant(0.0)
        h = RegressionFunction.sinusoid(0.01, 1.0, 0.0)
    else:
        fam = get_family(name)
        f, h = standard_test_pair(fam, 100)
    cell = design_cell(fam, f, 100)
    rows = [sample_original(cell, np.random.default_rng(seed)) for seed in range(4)]
    stack = ExperimentDraw(
        "original", rows[0].design, np.stack([d.observations for d in rows]), fam.name
    )
    stacked = lase_terms(fam, f, h, stack)
    assert stacked.shape == (len(rows),)
    for row, draw in enumerate(rows):
        single = lase_terms(fam, f, h, draw)
        assert type(single) is float
        assert stacked[row].tobytes() == np.float64(single).tobytes()


def test_lase_location_normal_remainder_is_zero():
    # Gaussian shifts have an exactly quadratic log-likelihood ratio:
    # sum h (x - theta) - sum h^2 / 2
    fam = get_family("location_normal")
    f, h = standard_test_pair(fam, 512)
    draw = sample_original(design_cell(fam, f, 512), np.random.default_rng(4))
    h_vals = h(draw.design)
    linear = np.sum(h_vals * (draw.observations - f(draw.design)))
    assert abs(lase_terms(fam, f, h, draw) - (linear - 0.5 * np.sum(h_vals**2))) < 1e-10


# ---------------------------------------------------------------------------
# the test pair
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", FAMILIES)
def test_standard_pair_stays_in_working_interval(name):
    fam = get_family(name)
    for n in (16, 256, 16384):
        f, h = standard_test_pair(fam, n)
        t = design_grid(max(n, 64))
        lo, hi = fam.working_interval
        for vals in (f(t), f(t) + h(t), f(t) - h(t)):
            assert np.all(vals >= lo) and np.all(vals <= hi)


def test_standard_pair_amplitude_follows_rate():
    fam = get_family("poisson")
    f256, h256 = standard_test_pair(fam, 256)
    f1024, h1024 = standard_test_pair(fam, 1024)
    assert f256.descriptor == f1024.descriptor
    assert h256.params[0] == pytest.approx(2.0 * h1024.params[0], rel=1e-12)
    amp = h256.params[0]
    assert amp == pytest.approx((1.0 / 16.0) * 3.0 / (2.0 * math.pi + 1.0), rel=1e-12)
    # the shift a local study applies at c_rate = 1 on the same class
    config = StudyConfig(
        kind="local-hellinger", family="poisson", f_desc="affine(1.5, 1.0)", L=3.0
    )
    assert _local_shift(config, 256).params == h256.params

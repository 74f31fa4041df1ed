"""Tests for the command-line interface and its exit-code contract."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lecam_equiv
import lecam_equiv.cli as cli
import lecam_equiv.harness as harness
from lecam_equiv.errors import NumericError
from lecam_equiv.experiments import design_cell, read_draw, sample_original, write_draw
from lecam_equiv.families import get_family
from lecam_equiv.function_space import RegressionFunction

PASSING_CONFIG = """\
[study]
kind = homoscedastic-check
family = bernoulli
f = affine(0.25, 0.1)
c_rate = 0.5
n_grid = 256, 1024, 4096
replicates = 10
seed = 42
"""

FAILING_CONFIG = """\
[study]
kind = homoscedastic-check
family = bernoulli
f = affine(0.4, 0.2)
c_rate = 1.0
n_grid = 2048, 16384
replicates = 10
seed = 42
"""


def test_run_passing_study(tmp_path, capsys):
    path = tmp_path / "study.ini"
    path.write_text(PASSING_CONFIG)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert (tmp_path / "out" / "homoscedastic-check.csv").exists()
    assert (tmp_path / "out" / "homoscedastic-check_summary.csv").exists()


def test_run_failing_verdicts_exit_one(tmp_path, capsys):
    path = tmp_path / "study.ini"
    path.write_text(FAILING_CONFIG)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "overall: fail" in capsys.readouterr().out


def test_run_missing_config_exit_two(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "absent.ini")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_unusable_config_exit_two(tmp_path, capsys):
    path = tmp_path / "study.ini"
    path.write_text("[study]\nkind = homoscedastic-check\nfamily = bernoulli\nf = affine(0.25, 0.1)\nbogus = 1\n")
    code = cli.main(["run", str(path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["res%ults", "%(missing)s"])
def test_run_config_interpolation_error_exit_two(tmp_path, capsys, value):
    # ConfigParser interpolates `%` when the values are read, after the file parses
    path = tmp_path / "study.ini"
    path.write_text(PASSING_CONFIG + f"out = {value}\n")
    code = cli.main(["run", str(path)])
    assert code == 2
    assert "malformed config file" in capsys.readouterr().err


def test_run_numeric_failure_exit_three(tmp_path, capsys, monkeypatch):
    def explode(config, jobs=1):
        raise NumericError("quadrature failed at n=256, replicate=3, seed=99")

    monkeypatch.setattr(cli, "run_study", explode)
    path = tmp_path / "study.ini"
    path.write_text(PASSING_CONFIG)
    code = cli.main(["run", str(path)])
    assert code == 3
    assert "n=256" in capsys.readouterr().err


@pytest.mark.parametrize(
    "out, message",
    [(lambda tmp: tmp / "file" / "out", "Not a directory"), (lambda tmp: "", "''")],
    ids=["under_a_file", "empty"],
)
def test_run_unusable_out_fails_before_any_unit(tmp_path, capsys, monkeypatch, out, message):
    calls = []
    study_unit = harness._study_unit

    def counting_unit(task):
        calls.append(task)
        return study_unit(task)

    monkeypatch.setattr(harness, "_study_unit", counting_unit)
    (tmp_path / "file").write_text("")
    path = tmp_path / "study.ini"
    path.write_text(PASSING_CONFIG)
    code = cli.main(["run", str(path), "--out", str(out(tmp_path))])
    assert code == 2
    assert message in capsys.readouterr().err
    assert calls == []


NEIGHBORHOOD_CONFIG = """\
[study]
kind = local-hellinger
family = poisson
L = 3
n_grid = 16, 32
coupling_grid = 1024
"""


@pytest.mark.parametrize(
    "shift, expected",
    [
        # sup|h| = 5.15 < r = 12.5, but the Hoelder ratio of f + h is 33.4 > L = 3
        ("f = affine(1.5, 1.0)\nc_rate = 50\n", "leaves the smoothness class (beta = 1, L = 3)"),
        # sup|h| = 0.257 > r = 0.125, and f + h stays in the class
        ("f = affine(1.5, 1.0)\nh = sinusoid(5.0, 1.0)\nc_rate = 0.5\n",
         "leaves the radius-0.125 localization ball"),
    ],
    ids=["class", "radius"],
)
def test_run_neighborhood_error_names_the_failed_condition(shift, expected, tmp_path, capsys):
    path = tmp_path / "study.ini"
    path.write_text(NEIGHBORHOOD_CONFIG + shift)
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert expected in capsys.readouterr().err


def test_run_seed_override_changes_stream_rows(tmp_path):
    config = """\
[study]
kind = globalize
family = bernoulli
f = constant(0.5)
n_grid = 256
replicates = 10
batches = 2
seed = 1
"""
    path = tmp_path / "study.ini"
    path.write_text(config)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", str(path), "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    rows_a = (tmp_path / "a" / "globalize.csv").read_text().splitlines()[4:]
    rows_b = (tmp_path / "b" / "globalize.csv").read_text().splitlines()[4:]
    assert rows_a != rows_b


def test_run_accepts_jobs_flag(tmp_path):
    path = tmp_path / "study.ini"
    path.write_text(PASSING_CONFIG)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0


def test_check_family_passes_for_builtin(capsys):
    code = cli.main(["check-family", "location_normal", "--grid-points", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("condition, value, pass")
    assert "all_pass, , 1" in out


def test_check_family_unknown_name_exit_two(capsys):
    code = cli.main(["check-family", "beta_binomial"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_check_family_custom_without_table_exit_two(capsys):
    code = cli.main(["check-family", "location_custom"])
    assert code == 2
    assert "requires a density table file" in capsys.readouterr().err


def test_check_family_builtin_with_table_exit_two(capsys):
    code = cli.main(["check-family", "poisson", "--table", "does-not-exist.txt"])
    assert code == 2
    assert "takes no density table" in capsys.readouterr().err


def _table_rows():
    xs = np.linspace(-8.0, 8.0, 41).tolist()
    return [f"{x!r} {math.exp(-0.5 * x * x)!r}" for x in xs]


BAD_TABLES = {
    "nan-x": lambda rows: rows[:5] + ["nan 0.1"] + rows[6:],
    "inf-x": lambda rows: rows[:-1] + ["inf 0.0"],
    "non-numeric": lambda rows: rows[:5] + ["abc 0.1"] + rows[6:],
    "ragged": lambda rows: rows[:5] + ["0.1 0.2 0.3"] + rows[6:],
    "one-row": lambda rows: rows[:1],
}


@pytest.mark.parametrize("command", ["check-family", "run"])
@pytest.mark.parametrize("table", sorted(BAD_TABLES))
def test_bad_density_table_exit_two(table, command, tmp_path, capsys):
    path = tmp_path / "table.txt"
    path.write_text("\n".join(BAD_TABLES[table](_table_rows())) + "\n")
    if command == "check-family":
        argv = ["check-family", "location_custom", "--table", str(path)]
    else:
        config = tmp_path / "study.ini"
        config.write_text(
            "[study]\nkind = condition-audit\nfamily = location_custom\n"
            f"table = {path}\nf = constant(0.0)\nn_grid = 256\nseed = 1\n"
        )
        argv = ["run", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "location_custom: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--grid-points", "-1"],
        ["--grid-points", "1"],
        ["--grid-points", "2"],
        ["--epsilon", "nan"],
        ["--epsilon", "inf"],
    ],
)
def test_check_family_bad_number_exit_two(flags, capsys):
    code = cli.main(["check-family", "bernoulli", *flags])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_gaussianize_roundtrip(tmp_path, capsys):
    family = get_family("bernoulli")
    draw = sample_original(
        design_cell(family, RegressionFunction.constant(0.5), 64), np.random.default_rng(3), seed=3
    )
    src = tmp_path / "draw.csv"
    write_draw(draw, src)
    dst = tmp_path / "draw.g.csv"
    code = cli.main(["gaussianize", str(src), "--out", str(dst), "--seed", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel:" in out
    loaded = read_draw(dst)
    assert loaded.model == "gaussianized"
    assert loaded.n == 64
    assert loaded.family == "bernoulli"


def test_gaussianize_is_deterministic_given_seed(tmp_path):
    family = get_family("poisson")
    draw = sample_original(
        design_cell(family, RegressionFunction.constant(1.0), 64), np.random.default_rng(4), seed=4
    )
    src = tmp_path / "draw.csv"
    write_draw(draw, src)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["gaussianize", str(src), "--out", str(a), "--seed", "9"]) == 0
    assert cli.main(["gaussianize", str(src), "--out", str(b), "--seed", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gaussianize_default_output_path(tmp_path, capsys):
    family = get_family("bernoulli")
    draw = sample_original(
        design_cell(family, RegressionFunction.constant(0.5), 32), np.random.default_rng(5), seed=5
    )
    src = tmp_path / "draw.csv"
    write_draw(draw, src)
    code = cli.main(["gaussianize", str(src)])
    assert code == 0
    assert (tmp_path / "draw.gaussianized.csv").exists()


def test_gaussianize_missing_file_exit_two(tmp_path, capsys):
    code = cli.main(["gaussianize", str(tmp_path / "absent.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_gaussianize_rejects_wrong_model_exit_two(tmp_path, capsys):
    family = get_family("bernoulli")
    draw = sample_original(
        design_cell(family, RegressionFunction.constant(0.5), 64), np.random.default_rng(6), seed=6
    )
    src = tmp_path / "draw.csv"
    write_draw(draw, src)
    mid = tmp_path / "mid.csv"
    assert cli.main(["gaussianize", str(src), "--out", str(mid)]) == 0
    code = cli.main(["gaussianize", str(mid), "--out", str(tmp_path / "twice.csv")])
    assert code == 2


@pytest.mark.parametrize(
    "old, new",
    [("# n = 8", "# n = eight"), ("# seed = 7", "# seed = x7"), ("0.125, ", "0.125x, ")],
    ids=["n_header", "seed_header", "row_value"],
)
def test_gaussianize_non_numeric_draw_file_exit_two(tmp_path, capsys, old, new):
    draw = sample_original(
        design_cell(get_family("bernoulli"), RegressionFunction.constant(0.5), 8),
        np.random.default_rng(7), seed=7,
    )
    src = tmp_path / "draw.csv"
    write_draw(draw, src)
    text = src.read_text()
    assert old in text
    src.write_text(text.replace(old, new, 1))
    code = cli.main(["gaussianize", str(src), "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_gaussianize_nan_design_point_exit_two(tmp_path, capsys):
    draw = sample_original(
        design_cell(get_family("poisson"), RegressionFunction.constant(1.0), 12),
        np.random.default_rng(8), seed=8,
    )
    src = tmp_path / "draw.csv"
    write_draw(draw, src)
    lines = src.read_text().splitlines()
    i, _, x = lines[9].split(", ")  # the sixth row, after four header lines
    lines[9] = f"{i}, nan, {x}"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "g.csv"
    code = cli.main(["gaussianize", str(src), "--out", str(out)])
    assert code == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_gaussianize_non_finite_observation_exit_two(tmp_path, capsys, value):
    draw = sample_original(
        design_cell(get_family("poisson"), RegressionFunction.constant(1.0), 12),
        np.random.default_rng(8), seed=8,
    )
    src = tmp_path / "draw.csv"
    write_draw(draw, src)
    lines = src.read_text().splitlines()
    i, t, _ = lines[9].split(", ")  # the sixth row, after four header lines
    lines[9] = f"{i}, {t}, {value}"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "g.csv"
    code = cli.main(["gaussianize", str(src), "--out", str(out)])
    assert code == 2
    assert "observations must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "family, value", [("poisson", -2.5), ("poisson", 1.5), ("bernoulli", 0.5)]
)
def test_gaussianize_rejects_observations_outside_the_support(
    tmp_path, capsys, family, value
):
    cell = design_cell(get_family(family), RegressionFunction.constant(0.5), 8)
    src = tmp_path / "draw.csv"
    write_draw(cell.draw(np.full(8, value)), src)
    out = tmp_path / "g.csv"
    code = cli.main(["gaussianize", str(src), "--out", str(out)])
    assert code == 2
    assert f"outside the {family} support" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_gaussianize_non_finite_beta_exit_two(tmp_path, capsys, beta):
    draw = sample_original(
        design_cell(get_family("poisson"), RegressionFunction.constant(1.0), 12),
        np.random.default_rng(8), seed=8,
    )
    src = tmp_path / "draw.csv"
    write_draw(draw, src)
    out = tmp_path / "g.csv"
    code = cli.main(["gaussianize", str(src), "--out", str(out), "--beta", beta])
    assert code == 2
    assert "beta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_check_family_non_finite_beta_exit_two(capsys, beta):
    code = cli.main(["check-family", "poisson", "--beta", beta])
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_console_script_is_installed():
    """The `lecam-equiv` script declared in pyproject.toml runs and lists its commands.

    The entry point is called in a fresh interpreter the way the wrapper that
    pip generates calls it, so the test does not depend on the package being
    installed or on the directory pytest starts from.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "lecam-equiv" in scripts
    module, attr = scripts["lecam-equiv"].split(":")
    launcher = (
        "import sys, importlib; "
        f"entry = getattr(importlib.import_module({module!r}), {attr!r}); "
        "sys.argv[0] = 'lecam-equiv'; "
        "sys.exit(entry())"
    )
    src_dir = str(Path(lecam_equiv.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src_dir, inherited])))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "run" in proc.stdout and "check-family" in proc.stdout


@pytest.mark.skipif(
    shutil.which("lecam-equiv") is None,
    reason="lecam-equiv wrapper not on PATH (package not installed)",
)
def test_console_script_on_path():
    proc = subprocess.run(
        ["lecam-equiv", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "check-family" in proc.stdout

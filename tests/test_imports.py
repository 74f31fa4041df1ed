"""A fresh `import lecam_equiv` loads numpy and the standard library, no scipy.

The package loads two scipy subpackages, each on first use:
scipy.special for the Poisson pmf and scipy.interpolate for a `spline`
regression function.  Nothing in it loads scipy.stats or
scipy.integrate.  Running a study of any kind loads no public scipy
subpackage, and no numpy.f2py, which scipy.special's array-API shim
pulls in.  A serial study loads no numpy.ma, which np.median's NaN
check pulls in, and no process-pool stack.  Each check starts a fresh
interpreter, because this test session has loaded all of them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from lecam_equiv import RegressionFunction

REPO = Path(__file__).resolve().parent.parent
ON_USE = ("scipy", "scipy.special", "scipy.stats", "scipy.integrate", "scipy.interpolate")
KNOTS_T = [0.0, 0.25, 0.5, 0.75, 1.0]
KNOTS_Y = [0.4, 0.5, 0.45, 0.55, 0.5]
T = [0.1, 0.4, 0.6]


def _fresh(code: str):
    """Run code in a fresh interpreter on the source tree; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    prelude = f"import json, sys\nON_USE = {ON_USE!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_parse_config_leave_the_on_use_modules_unloaded():
    configs = sorted(str(path) for path in (REPO / "tests" / "golden").glob("*.ini"))
    out = _fresh(
        "import lecam_equiv\n"
        "from lecam_equiv.harness import parse_config\n"
        f"for path in {configs!r}:\n"
        "    parse_config(path)\n"
        "print(json.dumps([m for m in ON_USE if m in sys.modules]))\n"
    )
    assert configs and out == []


def test_every_golden_study_loads_no_public_scipy_subpackage(tmp_path):
    # scipy.version and the private scipy._* modules are loaded by scipy itself
    configs = sorted(str(path) for path in (REPO / "tests" / "golden").glob("*.ini"))
    out = _fresh(
        "import dataclasses\n"
        "from lecam_equiv.harness import parse_config, run_study\n"
        f"for path in {configs!r}:\n"
        "    config = parse_config(path)\n"
        f"    out_dir = {str(tmp_path)!r} + '/' + config.kind\n"
        "    run_study(dataclasses.replace(config, out_dir=out_dir), jobs=1)\n"
        "loaded = {m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}\n"
        "public = sorted(m for m in loaded if m != 'version' and not m.startswith('_'))\n"
        "print(json.dumps([public, 'numpy.f2py' in sys.modules]))\n"
    )
    assert configs and out == [[], False]


# numpy.random.bit_generator imports secrets itself, so it is not listed
SERIAL_UNUSED = ("numpy.ma", "multiprocessing", "concurrent.futures.process")


def test_a_serial_golden_study_loads_no_numpy_ma_or_process_pool(tmp_path):
    configs = sorted(str(path) for path in (REPO / "tests" / "golden").glob("*.ini"))
    out = _fresh(
        "import dataclasses\n"
        "from lecam_equiv.harness import parse_config, run_study\n"
        "loaded = []\n"
        f"for path in {configs!r}:\n"
        "    config = parse_config(path)\n"
        f"    out_dir = {str(tmp_path)!r} + '/' + config.kind\n"
        "    run_study(dataclasses.replace(config, out_dir=out_dir), jobs=1)\n"
        f"    loaded.append([config.kind] + [m for m in {SERIAL_UNUSED!r} if m in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    assert len(out) == len(configs) >= 6
    assert all(len(kind_loaded) == 1 for kind_loaded in out), out


def test_a_spline_function_loads_interpolate_on_use():
    out = _fresh(
        "from lecam_equiv import RegressionFunction\n"
        "before = 'scipy.interpolate' in sys.modules\n"
        f"f = RegressionFunction.spline({KNOTS_T!r}, {KNOTS_Y!r}, beta=1.0, L=2.0)\n"
        "after = 'scipy.interpolate' in sys.modules\n"
        f"print(json.dumps([before, after, f({KNOTS_T!r}).tolist(), f({T!r}).tolist(),"
        f" f.derivative({T!r}).tolist()]))\n"
    )
    f = RegressionFunction.spline(KNOTS_T, KNOTS_Y, beta=1.0, L=2.0)
    t = np.array(T)
    assert out[:2] == [False, True]
    assert out[2:] == [f(np.array(KNOTS_T)).tolist(), f(t).tolist(), f.derivative(t).tolist()]
    # the values test_spline_interpolates_knots asserts
    assert np.allclose(out[2], KNOTS_Y, atol=1e-12)
    h = 1e-6
    assert np.allclose(out[4], (f(t + h) - f(t - h)) / (2.0 * h), atol=1e-6)


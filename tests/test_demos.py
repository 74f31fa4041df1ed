"""Every demo runs against the source tree and prints its recorded stdout.

`tests/golden/demos/<name>.txt` holds the stdout of `demos/<name>.py`.
A refactor that breaks a demo import or moves a printed number fails
here; a change that alters a demo's output on purpose re-records the
file and says so.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "demos"
DEMOS = sorted(p.stem for p in (REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_is_golden(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()

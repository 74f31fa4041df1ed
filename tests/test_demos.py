"""Every demo, and README's Quick start, runs against the source tree and
prints its recorded stdout.

`tests/golden/demos/<name>.txt` holds the stdout of `demos/<name>.py`,
and the Quick start's `python` block ends with its printed line as a
comment.  A refactor that breaks a demo import or moves a printed number
fails here; a change that alters a demo's output on purpose re-records
the file and says so.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "demos"
DEMOS = sorted(p.stem for p in (REPO / "demos").glob("*.py"))


def _run(args, cwd) -> bytes:
    """stdout of a fresh interpreter on the source tree, run from cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_is_golden(name, tmp_path):
    stdout = _run([str(REPO / "demos" / f"{name}.py")], tmp_path)
    assert stdout == (GOLDEN / f"{name}.txt").read_bytes()


def test_readme_quick_start_prints_its_comment(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = code.rstrip().splitlines()[-1]
    assert expected.startswith("# H^2 = ")
    assert _run(["-c", code], tmp_path).decode() == expected[2:] + "\n"

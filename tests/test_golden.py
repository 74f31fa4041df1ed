"""Golden byte test: pinned study configs reproduce the committed CSVs.

Each `tests/golden/<kind>.ini` is one small study of that kind.  Its row
CSV and summary CSV were written by `run_study` with
`out_dir=tests/golden/<kind>` and committed next to it.  A refactor must
leave both files byte-identical, serially and on a process pool.  If a
change alters the numerics on purpose and the fixtures are rewritten,
the change log says why, with the largest value difference and whether
every verdict held.
"""

import dataclasses
from pathlib import Path

import pytest

from lecam_equiv.harness import STUDY_KINDS, parse_config, run_study

GOLDEN = Path(__file__).resolve().parent / "golden"


def _run(kind, out_dir, jobs):
    config = dataclasses.replace(parse_config(GOLDEN / f"{kind}.ini"), out_dir=str(out_dir))
    result = run_study(config, jobs=jobs)
    for path in (result.csv_path, result.summary_path):
        expected = (GOLDEN / kind / Path(path).name).read_bytes()
        assert Path(path).read_bytes() == expected, f"{kind} at jobs={jobs}: {Path(path).name}"


def test_every_kind_has_a_golden_config():
    assert sorted(p.stem for p in GOLDEN.glob("*.ini")) == sorted(STUDY_KINDS)


@pytest.mark.parametrize("kind", STUDY_KINDS)
def test_golden_bytes_serial(kind, tmp_path):
    _run(kind, tmp_path, jobs=1)


# one kind whose units are n and one whose units are (n, batch)
@pytest.mark.parametrize("kind", ["local-hellinger", "risk-transfer"])
def test_golden_bytes_on_pool(kind, tmp_path):
    _run(kind, tmp_path, jobs=2)

"""Config lint: every committed study config parses, and the documents and
the CSV headers that describe the config keys agree with the parser.

The parser's key table, `harness._CONFIG_KEYS`, is derived from the
`StudyConfig` dataclass.  These tests read it against the golden and
benchmark configs, the README's `ini` examples and key table, and the
settings header of every golden row CSV, so a key renamed or dropped in
one place fails here rather than inside a study run.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from lecam_equiv.harness import _CONFIG_KEYS, STUDY_KINDS, StudyConfig, parse_config

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
README = ROOT / "README.md"

COMMITTED_CONFIGS = sorted(GOLDEN.glob("*.ini")) + sorted(ROOT.glob("perfbench/configs/*/*.ini"))


def _readme_ini_blocks():
    return re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _readme_key_rows():
    """(key, default cell) of each row of README's config key table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | meaning | default |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows.append((cells[0].strip("`"), cells[-1]))
    return rows


def test_committed_configs_are_found():
    names = {p.relative_to(ROOT).parts[0] for p in COMMITTED_CONFIGS}
    assert names == {"tests", "perfbench"}
    assert _readme_ini_blocks()


@pytest.mark.parametrize(
    "path", COMMITTED_CONFIGS, ids=[str(p.relative_to(ROOT)) for p in COMMITTED_CONFIGS]
)
def test_committed_config_parses(path):
    assert parse_config(path).kind in STUDY_KINDS


def test_readme_ini_blocks_parse(tmp_path):
    for i, block in enumerate(_readme_ini_blocks()):
        path = tmp_path / f"readme-{i}.ini"
        path.write_text(block, encoding="utf-8")
        assert parse_config(path).kind in STUDY_KINDS


def test_readme_key_table_lists_every_key_with_its_default():
    rows = _readme_key_rows()
    assert [key for key, _ in rows] == list(_CONFIG_KEYS)
    defaults = {f.name: f.default for f in dataclasses.fields(StudyConfig)}
    for key, cell in rows:
        field, caster = _CONFIG_KEYS[key]
        default = defaults[field]
        if default is dataclasses.MISSING:
            assert cell == "required", key
        elif cell == "empty":
            assert default == "", key
        else:
            # the first code span is the default; `out` adds the environment override
            assert caster(re.search(r"`([^`]*)`", cell).group(1)) == default, key


@pytest.mark.parametrize("kind", STUDY_KINDS)
def test_golden_header_reads_back_as_its_config(kind):
    # header lines 2-3 are `key=value` pairs; a value may hold spaces
    config = parse_config(GOLDEN / f"{kind}.ini")
    lines = (GOLDEN / kind / f"{kind}.csv").read_text(encoding="utf-8").splitlines()
    pairs = [
        pair.split("=", 1)
        for line in lines[1:3]
        for pair in re.split(r" (?=\w+=)", line.removeprefix("# "))
    ]
    assert len(pairs) == 12  # eight model keys on line 2, four sampling keys on line 3
    for key, raw in pairs:
        field, caster = _CONFIG_KEYS[key]
        assert caster(raw) == getattr(config, field), key

"""pyproject.toml declares what the code and the tests really need.

Read with the standard library alone (no tomllib, which Python 3.10
lacks): the `dependencies` and `test` arrays are plain lists of quoted
requirement strings.
"""

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _requirements(key: str) -> list[str]:
    """The quoted requirement strings of the array `key = [...]` in pyproject.toml."""
    text = (REPO / "pyproject.toml").read_text()
    match = re.search(rf"^{key} = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    assert match, f"pyproject.toml has no {key} array"
    return re.findall(r'"([^"]+)"', match.group(1))


def _name(requirement: str) -> str:
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)


def test_numpy_floor_has_trapezoid():
    # families.py calls np.trapezoid, which numpy added in 2.0
    (numpy,) = [r for r in _requirements("dependencies") if _name(r) == "numpy"]
    floor = re.search(r">=\s*(\d+)\.(\d+)", numpy)
    assert floor and (int(floor.group(1)), int(floor.group(2))) >= (2, 0), numpy


def test_every_test_extra_is_imported_by_the_tests():
    sources = "\n".join(p.read_text() for p in (REPO / "tests").glob("*.py"))
    for requirement in _requirements("test"):
        module = _name(requirement).lower().replace("-", "_")
        pattern = rf"^\s*(import|from)\s+{re.escape(module)}\b"
        assert re.search(pattern, sources, re.MULTILINE), f"no test imports {module}"

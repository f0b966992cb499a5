"""Every Python source of the project parses as the oldest Python that
pyproject.toml admits."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)  # requires-python = ">=3.10"


def test_every_source_parses_as_python_3_10():
    """``ast.parse`` with ``feature_version`` refuses syntax newer than
    3.10 (``except*``, PEP 695 type parameters and aliases, and the like);
    each file is only read."""
    assert f'requires-python = ">={OLDEST[0]}.{OLDEST[1]}"' in (ROOT / "pyproject.toml").read_text()
    sources = sorted(path for top in ("src", "tests", "benchmarks", "demos", "scripts")
                     for path in (ROOT / top).rglob("*.py"))
    assert len(sources) > 30
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)

"""The README's code and the demos run against the current public API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, capsys):
    # as `python3 demos/NAME.py`; a numpy RuntimeWarning fails it (pyproject)
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out

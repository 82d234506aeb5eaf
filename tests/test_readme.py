"""The README's Python example runs and gives the numbers it promises."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    assert ns["flow"].sigma_star == pytest.approx(0.8939, abs=5e-5)
    for name in ("n_created", "n_limit"):
        assert math.isfinite(ns[name]) and ns[name] > 0.0, name

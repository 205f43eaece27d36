"""The README's Python examples run as written and give the values their
comments state."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_state_true_values():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:  # in order, in one namespace, as a reader runs them
        exec(compile(block, str(README), "exec"), ns)
    assert ns["second_moment_exact"](ns["f"]) == 1.0
    assert ns["excess_kurtosis_exact"](ns["f"]) == 0.375
    assert sorted(ns["expansion"].orders()) == [0, 2, 4]
    assert ns["report"].verdict == "consistent"
    assert math.isfinite(ns["ef"].variance_exact())
    assert math.isfinite(ns["ef"].contraction_ratio())

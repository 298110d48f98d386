"""The README's quick-start code runs as written against the public API."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from topoqubit import HorizonWarning

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    # at Q = 3, gamma0 = 1.6 the default window ends inside a revival: blp
    # and critical_q_scan each warn once
    with pytest.warns(HorizonWarning) as caught:
        exec(compile(blocks[0], str(_README), "exec"), {})
    assert [c.category for c in caught] == [HorizonWarning, HorizonWarning]

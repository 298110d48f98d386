"""The benchmark's layer tracer wraps package functions by module and name.

A rename or removal of one of them would make the traced benchmark fail at
install time; this test fails first, in the package's own suite.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _resolves(owner: str, attr: str) -> bool:
    mod, _, cls = owner.partition(":")
    target = importlib.import_module(mod)
    if cls:
        target = getattr(target, cls)
    return callable(getattr(target, attr, None))


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.WRAPPED
    missing = [f"{owner}.{attr}" for owner, attr, _ in layers.WRAPPED if not _resolves(owner, attr)]
    assert missing == []

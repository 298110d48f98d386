"""The benchmark uses package functions by module and name.

Its layer tracer wraps them, its output checks import them, and its child
process calls them.  A rename or removal of one of them would make the
benchmark fail; this test fails first, in the package's own suite.  It reads
the benchmark's files and writes only spec files under a temporary directory.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from topoqubit import cli, dephasing, nonmarkov

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(owner: str, attr: str) -> bool:
    mod, _, cls = owner.partition(":")
    target = importlib.import_module(mod)
    if cls:
        target = getattr(target, cls)
    return callable(getattr(target, attr, None))


def test_every_wrapped_name_resolves():
    layers = _load("layers")
    assert layers.WRAPPED
    missing = [f"{owner}.{attr}" for owner, attr, _ in layers.WRAPPED if not _resolves(owner, attr)]
    assert missing == []


def test_output_checks_import():
    # checks.py imports its references by name from the package
    assert _load("checks").CHECKS


def test_every_name_the_child_calls_resolves(tmp_path):
    fns = set()
    for name, generate in _load("workloads").GENERATORS.items():
        work = tmp_path / name
        work.mkdir()
        fns.update(step["fn"] for step in generate(101, str(work)) if step["kind"] == "call")
    assert fns
    called = [(cli, "main"), (cli, "parse_spec"), (dephasing, "OhmicEnvironment"),
              (dephasing, "DephasingChannel"), (nonmarkov, "TimeWindow")]
    called += [(nonmarkov, fn) for fn in sorted(fns)]
    missing = [f"{m.__name__}.{name}" for m, name in called if not callable(getattr(m, name, None))]
    assert missing == []


def test_alpha_profile_returns_a_pair():
    # checks.py unpacks it: avals, _ = alpha_profile(...)
    ch = dephasing.DephasingChannel(dephasing.OhmicEnvironment(3.0, 1.6), 1.0)
    profile = dephasing.alpha_profile(ch, np.linspace(0.0, 1.0, 4))
    assert len(profile) == 2
    assert profile[0].shape == (4,)

"""Outside-in layer tracing: span recording in the child, metrics in the parent.

The traced child replaces public functions of each layer by module attribute
with a wrapper that records one span per call: (name, start, end, parent,
step).  Wrapping the module attribute also catches the package's internal
calls, because it calls across modules by attribute (``dephasing.alpha``,
``states.evolve_single``, ``correlations.lqu_x``, ``magnetometry.qfi_general``
and ``alpha_profile`` -> ``i_q_profile``).  ``cli`` binds ``blp`` and ``lpp``
by name at import, so those names are wrapped inside ``cli`` as well.  Spans
stay in memory until the child exits; the parent derives self times from them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

import numpy as np

# (owner, attribute, span name).  An owner "module:Class" wraps a method on
# the class.
WRAPPED = (
    ("topoqubit.cli", "parse_spec", "cli.parse_spec"),
    ("topoqubit.cli:SeriesTable", "write", "cli.write"),
    ("topoqubit.cli", "blp", "nonmarkov.blp"),
    ("topoqubit.cli", "lpp", "nonmarkov.lpp"),
    ("topoqubit.dephasing", "i_q_profile", "dephasing.i_q_profile"),
    ("topoqubit.dephasing", "alpha", "dephasing.alpha"),
    ("topoqubit.dephasing", "dalpha_dt", "dephasing.dalpha_dt"),
    ("topoqubit.nonmarkov", "blp", "nonmarkov.blp"),
    ("topoqubit.nonmarkov", "lpp", "nonmarkov.lpp"),
    ("topoqubit.nonmarkov", "critical_q_scan", "nonmarkov.critical_q_scan"),
    ("topoqubit.nonmarkov", "blp_pair_scan", "nonmarkov.blp_pair_scan"),
    ("topoqubit.states", "evolve_single", "states.evolve_single"),
    ("topoqubit.states", "trace_distance", "states.trace_distance"),
    ("topoqubit.states", "evolved_x_state", "states.evolved_x_state"),
    ("topoqubit.correlations", "concurrence_x", "correlations.concurrence_x"),
    ("topoqubit.correlations", "discord_x", "correlations.discord_x"),
    ("topoqubit.correlations", "lqu_x", "correlations.lqu_x"),
    ("topoqubit.correlations", "tnd_x", "correlations.tnd_x"),
    ("topoqubit.correlations", "coherence_l1", "correlations.coherence_l1"),
    ("topoqubit.magnetometry", "qfi_series", "magnetometry.qfi_series"),
    ("topoqubit.magnetometry", "qfi_general", "magnetometry.qfi_general"),
)

# Witnesses that fetch a kernel profile; profile reuse is measured under them.
_WITNESSES = ("nonmarkov.blp", "nonmarkov.lpp", "nonmarkov.blp_pair_scan")

# dephasing.py switches to the 2F2 branch inside |Q - 1| < 1e-6.
_Q1_BAND = 1e-6


def _profile_inputs(env, ts, *args, **kwargs):
    # Branch and point counts of one i_q_profile call, computed from its
    # inputs: t gamma0 > 2 is z < -1, where the 1F1 path takes Kummer's branch.
    x = np.asarray(ts, dtype=np.float64) * env.gamma0
    branch = "q1" if abs(env.q - 1.0) < _Q1_BAND else "general"
    return branch, int(x.size), int(np.count_nonzero(x > 2.0))


_INPUTS = {"dephasing.i_q_profile": _profile_inputs}


class Tracer:
    """Span recorder; ``install`` swaps the wrappers in for the real functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, step]
        self.inputs: dict[int, tuple] = {}
        self.step = -1
        self._stack: list[int] = []

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            mod, _, cls = owner.partition(":")
            target = importlib.import_module(mod)
            if cls:
                target = getattr(target, cls)
            setattr(target, attr, self._wrap(getattr(target, attr), name))

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        describe = _INPUTS.get(name)
        spans, stack, inputs = self.spans, self._stack, self.inputs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            spans.append(rec)
            if describe is not None:
                inputs[idx] = describe(*args, **kwargs)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "inputs": {str(k): v for k, v in self.inputs.items()}}


def _self_times(spans: list[list]) -> list[float]:
    # A span's duration minus the durations of its direct child spans.
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def layer_metrics(trace: dict, sweep_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sweep.

    ``.self_s`` sums self times (see ``_self_times``); ``.s`` sums whole
    durations (used where the function calls nothing traced).
    """
    names = trace["names"]
    spans = trace["spans"]
    inputs = {int(k): v for k, v in trace["inputs"].items()}
    self_times = _self_times(spans)
    # Every layer metric exists, zero where the workload never reaches it.
    out = {f"{name}.{stat}": 0.0 for _, _, name in WRAPPED for stat in ("calls", "s", "self_s")}
    for key in _INPUTS:
        for stat in ("points", "points_far_computed") + tuple(
            f"{b}.{s}" for b in ("q1", "general") for s in ("calls", "self_s", "points")
        ):
            out[f"{key}.{stat}"] = 0.0

    def add(key: str, value: float) -> None:
        out[key] += value

    covered = 0.0
    for idx, (nid, start, end, parent, _) in enumerate(spans):
        name = names[nid]
        dur = end - start
        self_s = self_times[idx]
        if parent < 0:
            covered += dur
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        add(f"{name}.self_s", self_s)
        if idx in inputs:
            branch, points, far = inputs[idx]
            add(f"{name}.points", points)
            add(f"{name}.points_far_computed", far)
            add(f"{name}.{branch}.calls", 1)
            add(f"{name}.{branch}.self_s", self_s)
            add(f"{name}.{branch}.points", points)

    # Useful/attempt ratio of the profile cache, seen from outside: one
    # profile per witness call is a miss every time, none is perfect reuse.
    witness_ids = {names.index(n) for n in _WITNESSES if n in names}
    witness_calls = sum(1 for s in spans if s[0] in witness_ids)
    profiles = 0
    if "dephasing.i_q_profile" in names:
        prof_id = names.index("dephasing.i_q_profile")
        for s in spans:
            if s[0] != prof_id:
                continue
            parent = s[3]
            while parent >= 0 and spans[parent][0] not in witness_ids:
                parent = spans[parent][3]
            profiles += parent >= 0
    out["nonmarkov.profile_reuse"] = 1.0 - profiles / witness_calls if witness_calls else 0.0
    out["trace.coverage"] = covered / sweep_s
    return out


def largest_self_by_step(trace: dict) -> dict[int, tuple[str, float]]:
    """The span name with the largest total self time in each plan step."""
    names = trace["names"]
    per_step: dict[int, dict[str, float]] = {}
    for (nid, _, _, _, step), self_s in zip(trace["spans"], _self_times(trace["spans"])):
        bucket = per_step.setdefault(step, {})
        bucket[names[nid]] = bucket.get(names[nid], 0.0) + self_s
    return {step: max(b.items(), key=lambda kv: kv[1]) for step, b in per_step.items()}


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*samples)
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}

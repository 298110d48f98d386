"""Seeded input generators, one per benchmark workload.

Each generator takes the seed and a work directory, writes the recipe-schema
spec files the CLI reads, and returns the plan that ``child.py`` executes: a
list of steps, each either a CLI invocation (``topoqubit.cli.main`` argv) or
a library call with plain arguments.  The same seed always yields the same
steps and the same spec bytes; only the work directory in the paths differs.
"""

from __future__ import annotations

import json
import math
import os
import random

HALF_PI = 0.5 * math.pi

# The fig1 lattice: Q in {0, 0.05, ..., 4}.
FIG1_LATTICE = tuple(round(0.05 * i, 2) for i in range(81))


def _cli_step(work: str, name: str, spec: dict) -> dict:
    # Writes the spec file the CLI reads; the checks keep the dict.
    path = os.path.join(work, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, sort_keys=True, indent=2)
    return {
        "name": name,
        "kind": "cli",
        "mode": spec["mode"],
        "spec_path": path,
        "spec": spec,
        "out": name + ".csv",
    }


def _off_axis_theta(rng: random.Random) -> float:
    # A state angle in (0, pi) away from pi/2, so rho11 != rho44 and the
    # general X-state path runs (|cos theta| >= cos(3 pi / 8)).
    theta = rng.uniform(math.pi / 8.0, 3.0 * math.pi / 8.0)
    return math.pi - theta if rng.random() < 0.5 else theta


def nm_sweep(seed: int, work: str) -> list[dict]:
    """nm-scan over a seeded subset of the fig1 lattice at both fig1 cutoffs.

    Why: this is the kernel-bound traffic behind fig1, the slowest recipe.
    The default window spans t gamma0 in [0, 100], so every profile walks the
    far grid (|z| up to 2500: Kummer and resummed-2F2 branches) and
    ``dephasing.i_q_profile`` is nearly all of the run; the per-sample and
    format layers do almost nothing here.

    The draw is stratified so every seed has the same number of Q values in
    [0, 1), (1, 2), (2, 2.5) and [2.5, 4]: run cost does not swing with the
    seed.  Q = 1 (the 2F2 branch) and Q = 2 (threshold; even Q, where
    1/Gamma(1 - Q/2) = 0) are always included.  Q = 4 is left out of the
    draw: it is even too, its series terminate and it costs ~1% of any other
    point, so drawing it would make the cost depend on the seed.
    """
    rng = random.Random(seed)
    strata = (
        (lambda q: 0.0 <= q < 1.0, 2),
        (lambda q: 1.0 < q < 2.0, 2),
        (lambda q: 2.0 < q < 2.5, 1),
        (lambda q: 2.5 <= q < 4.0, 2),
    )
    qs = {1.0, 2.0}
    for inside, count in strata:
        qs.update(rng.sample([q for q in FIG1_LATTICE if inside(q)], count))
    spec = {
        "mode": "nm-scan",
        "q_values": sorted(qs),
        "gamma0_values": [0.01, 1.6],
        "b": 1.0,
    }
    return [_cli_step(work, "nm-scan", spec)]


def series_near(seed: int, work: str) -> list[dict]:
    """Time-series tables on the fig4/fig5 window and the rebirth window.

    Why: this is the per-sample and table-writing traffic of fig4, fig5 and
    rebirth, with the kernel almost free (near-grid direct series, under 2%).
    ``correlations.lqu_x`` dominates corr-series, ``magnetometry.qfi_general``
    dominates qfi-series and ``SeriesTable.write`` is a large share of
    state-dump.  corr-series and state-dump run at a seeded angle away from
    pi/2, so the general X-state path with rho11 != rho44 runs; corr-series
    also runs at pi/2, where the discord closed form applies.
    """
    rng = random.Random(seed)
    windows = (
        # Short fig4/fig5 window at full field: sudden death inside the window.
        ("near", {"q_values": [1.0, rng.choice([q for q in FIG1_LATTICE if 2.5 <= q <= 3.5])],
                  "b": 1.0, "t_max": 2.0}),
        # Rebirth window: weak field, so the revival survives double precision.
        ("rebirth", {"q_values": [3.0], "b": 0.002175, "t_max": 1500.0}),
    )
    steps = []
    for label, params in windows:
        theta = _off_axis_theta(rng)
        base = dict(params, gamma0_values=[0.01], n_grid=2048)
        for mode, th, tag in (
            ("corr-series", theta, "theta"),
            ("corr-series", HALF_PI, "half_pi"),
            ("qfi-series", HALF_PI, "half_pi"),
            ("state-dump", theta, "theta"),
        ):
            spec = dict(base, mode=mode, theta=th)
            steps.append(_cli_step(work, f"{mode}.{label}.{tag}", spec))
    return steps


def witness_lib(seed: int, work: str) -> list[dict]:
    """Library witness calls the CLI cannot reach.

    Why: the kernel is used differently here.  ``critical_q_scan`` bisects
    over Q, so every profile is at a distinct, off-lattice Q and the profile
    cache is always cold.  ``blp_pair_scan`` runs the single-qubit ``states``
    path (evolve_single and trace_distance per axis and grid point), which
    neither sweep workload touches.  Two cutoffs are scanned so that the
    critical Q can be checked to be non-increasing in gamma0.
    """
    rng = random.Random(seed)
    gammas = sorted(rng.sample([0.5, 1.0, 1.6, 3.0], 2))
    steps = [
        {"name": f"critical_q_scan.{g}", "kind": "call", "fn": "critical_q_scan",
         "args": {"gamma0": g}}
        for g in gammas
    ]
    steps.append({
        "name": "blp_pair_scan",
        "kind": "call",
        "fn": "blp_pair_scan",
        "args": {"q": 3.0, "gamma0": 1.6, "b": rng.choice([0.247, 1.0]),
                 "t_max": 100.0 / 1.6, "n_grid": 4096, "n_angles": 3},
    })
    return steps


GENERATORS = {
    "nm-sweep": nm_sweep,
    "series-near": series_near,
    "witness-lib": witness_lib,
}

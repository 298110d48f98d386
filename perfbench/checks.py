"""Output checks for one benchmark sweep, run outside the timed region.

An operation is one output row of a CLI table or one library call.  Each
check names the operations it fails; an operation fails if any check fails
it.  Tolerances are those of the acceptance suite (tests/test_acceptance.py).
Every check applies to every row: no alpha or time range is left out.

Known defect on the seed code: ``tnd_x`` returns 0 where the trace-norm
discord identity gives coherence_l1 / 2, at alpha = 1 with theta = pi/2 (the
0/0 branch) and for alpha below ~3.1e-4 (an absolute 1e-14 cut on values of
order alpha^8).  Those rows fail ``corr_tnd`` and stay counted.  Likewise
``lqu_x`` is ~6e-9 off ``lqu_closed`` at alpha = 1 with theta != pi/2 (a pure
state, whose zero eigenvalues pick up round-off that the square root
amplifies): such t = 0 rows fail ``corr_lqu``.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from topoqubit import (
    DephasingChannel,
    OhmicEnvironment,
    TimeWindow,
    alpha,
    alpha_profile,
    concurrence_evolved,
    discord_closed,
    evolved_x_state,
    lqu_closed,
)

HALF_PI = 0.5 * math.pi

# The public table formats (README, "Modes and their columns").
_DUMP = ("rho11", "rho22", "rho33", "rho44") + tuple(
    f"{part}_rho{i + 1}{j + 1}" for i in range(4) for j in range(i + 1, 4) for part in ("re", "im")
)
COLUMNS = {
    "nm-scan": ("q", "gamma0", "n_blp", "n_lpp", "critical_flag"),
    "corr-series": ("q", "gamma0", "t", "alpha", "concurrence", "discord", "lqu", "tnd", "coherence_l1"),
    "qfi-series": ("q", "gamma0", "t", "f_closed", "f_general", "rel_gap"),
    "state-dump": ("q", "gamma0", "t") + _DUMP,
}

CHECKS = (
    "cli_output",          # invocation exited nonzero, or its table is missing or malformed
    "call_raised",         # library call raised
    "repeat_identical",    # output differs from the run's first sweep
    "nm_markovian_zero",   # Q <= 2 => n_blp < 1e-10 and flag 0 (criteria 1, 10)
    "nm_witness_agree",    # n_lpp > 0 <=> n_blp > 0 (criterion 3)
    "nm_strong_fires",     # gamma0 = 1.6, Q >= 2.5 => flag 1 (criterion 1)
    "corr_alpha",          # vs the scalar dephasing.alpha, <= 1e-10 (criterion 9)
    "corr_concurrence",    # vs concurrence_evolved, <= 1e-14 (criterion 5)
    "corr_lqu",            # vs lqu_closed, <= 1e-10
    "corr_tnd",            # vs coherence_l1 / 2, <= 1e-12
    "corr_discord",        # vs discord_closed at theta = pi/2, <= 1e-6
    "qfi_rel_gap",         # |f_general - f_closed| / f_closed <= 1e-8 where f_closed >= 1e-280
    "dump_state",          # entries equal evolved_x_state(theta, alpha) to 1e-15
    "critical_q",          # >= 2 - 1e-3 and non-increasing in gamma0 (criterion 2)
    "pair_scan_polar",     # >= the polar pair's discrete variation of alpha^2
)

# state-dump entries are at most 1 in magnitude; 1e-15 admits a few ulps of
# reordered arithmetic and nothing more.
_DUMP_TOL = 1e-15
# The pair scan reaches the polar value through eigvalsh; summed over the grid
# its rounding stays far below this.
_POLAR_TOL = 1e-12


def expected_rows(step: dict) -> int:
    spec = step["spec"]
    combos = len(spec["q_values"]) * len(spec["gamma0_values"])
    return combos if spec["mode"] == "nm-scan" else combos * spec["n_grid"]


def read_table(path: str, mode: str) -> np.ndarray | None:
    """Rows of a CSV table, or None when it is missing or malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    except OSError:
        return None
    if not lines or tuple(lines[0].split(",")) != COLUMNS[mode]:
        return None
    try:
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=np.float64)
    except ValueError:
        return None
    if rows.ndim != 2 or rows.shape[1] != len(COLUMNS[mode]):
        return None
    return rows


def _fails(check) -> bool:
    # A closed form that rejects the table's value (e.g. alpha outside
    # [0, 1]) fails the row rather than the benchmark.
    try:
        return bool(check())
    except (ArithmeticError, ValueError):
        return True


def _nm_rows(rows, fail) -> None:
    for r, (q, g0, n_blp, n_lpp, flag) in enumerate(rows):
        if q <= 2.0 and not (n_blp < 1e-10 and flag == 0.0):
            fail("nm_markovian_zero", r)
        if (n_lpp > 0.0) != (n_blp > 0.0):
            fail("nm_witness_agree", r)
        if g0 == 1.6 and q >= 2.5 and flag != 1.0:
            fail("nm_strong_fires", r)


def _corr_rows(rows, theta: float, b: float, fail) -> None:
    # corr_alpha tests the kernel itself: the table's alpha comes from the
    # array path (alpha_profile), the reference from the separate scalar
    # series.  Every other check is fed the table's own alpha.
    for r, (q, g0, t, a, conc, disc, lqu, tnd, coh) in enumerate(rows):
        if _fails(lambda: not abs(a - alpha(DephasingChannel(OhmicEnvironment(q, g0), b), t)) <= 1e-10):
            fail("corr_alpha", r)
        if _fails(lambda: abs(conc - concurrence_evolved(theta, a)) > 1e-14):
            fail("corr_concurrence", r)
        if _fails(lambda: abs(lqu - lqu_closed(theta, a)) > 1e-10):
            fail("corr_lqu", r)
        if not abs(tnd - 0.5 * coh) <= 1e-12:
            fail("corr_tnd", r)
        if theta == HALF_PI and _fails(lambda: abs(disc - discord_closed(a)) > 1e-6):
            fail("corr_discord", r)


def _qfi_rows(rows, fail) -> None:
    for r, (_, _, _, f_closed, f_general, _) in enumerate(rows):
        if f_closed >= 1e-280 and not abs(f_general - f_closed) / f_closed <= 1e-8:
            fail("qfi_rel_gap", r)


def _dump_rows(rows, theta: float, corr_rows, fail) -> None:
    alpha_at = {tuple(row[:3]): row[3] for row in corr_rows} if corr_rows is not None else {}
    iu = np.triu_indices(4, 1)
    for r, row in enumerate(rows):
        a = alpha_at.get(tuple(row[:3]))
        if a is None:
            fail("dump_state", r)
            continue
        try:
            m = evolved_x_state(theta, float(a)).matrix
        except (ArithmeticError, ValueError):
            fail("dump_state", r)
            continue
        upper = m[iu]
        want = np.concatenate([m.diagonal().real, np.column_stack([upper.real, upper.imag]).ravel()])
        if not np.all(np.abs(row[3:] - want) <= _DUMP_TOL):
            fail("dump_state", r)


def _polar_variation(args: dict) -> float:
    ch = DephasingChannel(OhmicEnvironment(args["q"], args["gamma0"]), args["b"])
    avals, _ = alpha_profile(ch, TimeWindow(args["t_max"], args["n_grid"]).times())
    return float(np.clip(np.diff(avals * avals), 0.0, None).sum())


def check_sweep(steps: list[dict], outcomes: list[dict], out_dir: str) -> tuple[int, dict[str, set]]:
    """(operations attempted, check name -> failing operations) for one sweep.

    An operation is identified by (step index, row index); a library call is
    row 0 of its step.
    """
    failures: dict[str, set] = defaultdict(set)
    n_ops = 0
    tables: dict[int, np.ndarray] = {}
    for i, (step, outcome) in enumerate(zip(steps, outcomes)):
        if step["kind"] != "cli":
            n_ops += 1
            if "error" in outcome:
                failures["call_raised"].add((i, 0))
            continue
        n = expected_rows(step)
        n_ops += n
        rows = read_table(f"{out_dir}/{step['out']}", step["mode"]) if outcome["rc"] == 0 else None
        if rows is None or len(rows) != n:
            failures["cli_output"].update((i, r) for r in range(n))
        else:
            tables[i] = rows

    for i, rows in tables.items():
        spec = steps[i]["spec"]

        def fail(check: str, r: int, i=i) -> None:
            failures[check].add((i, r))

        if spec["mode"] == "nm-scan":
            _nm_rows(rows, fail)
        elif spec["mode"] == "corr-series":
            _corr_rows(rows, spec["theta"], spec["b"], fail)
        elif spec["mode"] == "qfi-series":
            _qfi_rows(rows, fail)
        else:
            # Compare with the corr-series table of the same window and angle.
            twin = next((j for j, s in enumerate(steps)
                         if s["kind"] == "cli" and s["spec"] == dict(spec, mode="corr-series")), None)
            _dump_rows(rows, spec["theta"], tables.get(twin), fail)

    scans = sorted((steps[i]["args"]["gamma0"], i, o.get("value"))
                   for i, o in enumerate(outcomes) if steps[i].get("fn") == "critical_q_scan")
    prev = None
    for _, i, q_c in scans:
        if q_c is None or q_c < 2.0 - 1e-3 or (prev is not None and q_c > prev):
            failures["critical_q"].add((i, 0))
        if q_c is not None:
            prev = q_c
    for i, (step, outcome) in enumerate(zip(steps, outcomes)):
        if step.get("fn") == "blp_pair_scan" and "value" in outcome:
            if not outcome["value"][1] >= _polar_variation(step["args"]) - _POLAR_TOL:
                failures["pair_scan_polar"].add((i, 0))
    return n_ops, failures

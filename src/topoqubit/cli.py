"""Command-line sweep driver.

Four modes, each emitting one flat table (CSV with ``#`` metadata lines, or
JSON with ``meta``/``columns``/``rows``):

* ``nm-scan``      non-Markovianity measures over a (Q, gamma0) grid
* ``corr-series``  correlation measures along a time grid
* ``qfi-series``   both QFI routes along a time grid
* ``state-dump``   full evolved two-qubit state entries along a time grid

Sweep parameters come from an optional JSON spec file plus command-line
overrides; every run echoes its resolved spec into the output metadata so a
table can be reproduced from itself.  Exit codes: 0 success, 2 bad spec,
3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass, field, fields
from itertools import product, repeat

import numpy as np

from . import __version__, correlations, dephasing, magnetometry, states
from .errors import ConvergenceError, HorizonWarning, SpecError, TopoqubitError
from .nonmarkov import _FIRING_THRESHOLD, blp, lpp

__all__ = [
    "SweepSpec",
    "SeriesTable",
    "parse_spec",
    "run",
    "main",
]

# Default cutoff grid for nm-scan when the spec names none.
DEFAULT_NM_GAMMA0 = (0.01, 0.1, 0.5, 1.0, 1.6, 3.0)

# Largest time grid a spec may ask for; every recipe uses 2048-4096 points.
# A table stays in memory until it is written, as float64 rows of 8 bytes per
# column: 72 bytes per grid point and combination in corr-series, 152 in
# state-dump, so one combination at this bound holds 4.7 MB or 10 MB.  Its
# measures run in 4096-sample stacks of real states; a one-combination run
# at this bound peaks at 38.6-38.7 MB (corr-series) or 49.0-49.2 MB
# (state-dump) resident (VmHWM of `cli.main` in one interpreter with
# compiled bytecode at Q = 1 or 3, gamma0 = 0.01, t_max = 2, theta = 1.1;
# CPython 3.11, numpy 2.4, Linux x86-64).
_MAX_N_GRID = 65536

# Largest number of grid points over all (Q, gamma0) combinations,
# len(q_values) * len(gamma0_values) * n_grid; fig1, the largest recipe, asks
# for 663,552.  It bounds the run time of every mode, and a series table at
# the bound holds 302 MB (corr-series) to 638 MB (state-dump).
_MAX_GRID_POINTS = 2**22

# Points charged to each nm-scan combination, whatever its n_grid: one
# default window.  Its row reads the window end alone, so n_grid changes
# neither its values nor its cost, and the budget allows 1024 combinations.
_NM_SCAN_POINTS = 4096

# Most worker processes a spec may ask for; a fixed number, so a spec
# validates alike on every machine.
_MAX_PARALLEL = 64

# Left out of the echo: how a run executes, not what it computes.
_NOT_ECHOED = {"echo": False}


# The kind of a number key or list entry: an int or a float.
_NUMBER = (int, float)


def _require(name: str, value, kind, expected: str) -> None:
    # SpecError unless ``value`` is a ``kind``; a bool is not a number, and an
    # int number must convert to a double (_as_float returns one that does
    # not as it is): a JSON integer can have any number of digits, and
    # math.isfinite would raise OverflowError on it.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SpecError(f"{name}: expected {expected}, got {value!r}")
    if kind is _NUMBER and type(value) is int and _as_float(value) is value:
        raise SpecError(
            f"{name}: expected {expected} within the range of a double, got a "
            f"{value.bit_length()}-bit integer"
        )


def _require_between(name: str, value: int, lo: int, hi: int) -> None:
    # SpecError unless lo <= value <= hi.  An int past 64 bits is named by
    # its bit length: past the interpreter's digit limit, formatting its
    # digits would raise ValueError.
    if not lo <= value <= hi:
        got = value if value.bit_length() <= 64 else f"a {value.bit_length()}-bit integer"
        raise SpecError(f"{name}: must lie in [{lo}, {hi}], got {got}")


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Resolved sweep parameters for one run.  Each field is a spec key (a
    spec-file key, and the key its flag sets in ``_FLAGS``) with its only
    default; ``validate`` checks each key's type and range, for
    ``parse_spec`` and ``run`` alike."""

    mode: str
    q_values: tuple[float, ...]
    gamma0_values: tuple[float, ...]
    b: float = 1.0
    theta: float = 0.5 * math.pi
    t_max: float | None = None
    n_grid: int = 4096
    format: str = field(default="csv", metadata=_NOT_ECHOED)
    output_path: str | None = field(default=None, metadata=_NOT_ECHOED)
    parallel: int | None = field(default=None, metadata=_NOT_ECHOED)

    def validate(self) -> None:
        """Raise SpecError at the first key of a wrong type or out of range."""
        if not isinstance(self.mode, str) or self.mode not in _MODES:
            raise SpecError(f"mode: expected one of {tuple(_MODES)}, got {self.mode!r}")
        _require("q_values", self.q_values, (list, tuple), "a list of numbers")
        if not self.q_values:
            raise SpecError("q_values: must be a non-empty list")
        for q in self.q_values:
            _require("q_values", q, _NUMBER, "numbers")
            if not (math.isfinite(q) and q >= 0.0):
                raise SpecError(f"q_values: entries must be finite and >= 0, got {q}")
        _require("gamma0_values", self.gamma0_values, (list, tuple), "a list of numbers")
        if not self.gamma0_values:
            raise SpecError("gamma0_values: must be a non-empty list")
        for g in self.gamma0_values:
            _require("gamma0_values", g, _NUMBER, "numbers")
            if not (math.isfinite(g) and g > 0.0):
                raise SpecError(f"gamma0_values: entries must be finite and > 0, got {g}")
        _require("b", self.b, _NUMBER, "a number")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise SpecError(f"b: must be finite and >= 0, got {self.b}")
        _require("theta", self.theta, _NUMBER, "a number")
        if not (0.0 <= self.theta <= math.pi):
            raise SpecError(f"theta: must lie in [0, pi], got {self.theta}")
        if self.t_max is not None:
            _require("t_max", self.t_max, _NUMBER, "a number")
            if not (math.isfinite(self.t_max) and self.t_max > 0.0):
                raise SpecError(f"t_max: must be finite and > 0, got {self.t_max}")
        _require("n_grid", self.n_grid, int, "an integer")
        _require_between("n_grid", self.n_grid, 16, _MAX_N_GRID)
        nm_scan = self.mode == "nm-scan"
        per_combo = _NM_SCAN_POINTS if nm_scan else self.n_grid
        points = len(self.q_values) * len(self.gamma0_values) * per_combo
        if points > _MAX_GRID_POINTS:
            charged = f"{_NM_SCAN_POINTS} (nm-scan)" if nm_scan else "n_grid"
            raise SpecError(
                f"len(q_values) * len(gamma0_values) * {charged}: must be at most "
                f"{_MAX_GRID_POINTS}, got {points}"
            )
        _require("format", self.format, str, "a string")
        if self.format not in ("csv", "json"):
            raise SpecError(f"format: expected 'csv' or 'json', got {self.format!r}")
        if self.output_path is not None:
            _require("output_path", self.output_path, str, "a string")
        if self.parallel is not None:
            _require("parallel", self.parallel, int, "an integer")
            _require_between("parallel", self.parallel, 1, _MAX_PARALLEL)

    def echo_dict(self) -> dict:
        """Result-defining parameters, echoed into output metadata.  Execution
        details (format, output path, parallelism) are excluded so identical
        physics yields identical bytes.  Each value is read by its field's
        annotation, as ``parse_spec`` reads a file, so a spec built in code
        with integer numbers echoes the same floats as one read from a file
        or the flags."""
        echo = {f.name: _as_declared(f.type, getattr(self, f.name)) for f in _ECHO_FIELDS}
        return echo | {key: list(v) for key, v in echo.items() if isinstance(v, tuple)}


_SPEC_FIELDS = fields(SweepSpec)
_SPEC_KEYS = {f.name for f in _SPEC_FIELDS}
_ECHO_FIELDS = tuple(f for f in _SPEC_FIELDS if f.metadata.get("echo", True))


@dataclass(frozen=True, slots=True)
class SeriesTable:
    """One flat result table plus its metadata.  ``rows`` is a float64 array
    of shape (number of rows, number of columns)."""

    columns: tuple[str, ...]
    rows: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.float64))

    def _check_finite(self) -> None:
        bad = ~np.isfinite(self.rows)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ConvergenceError(
                f"non-finite value {float(self.rows[i, j])!r} in column "
                f"{self.columns[j]!r}, row {i}"
            )

    def to_csv(self, fh) -> None:
        self._check_finite()
        fh.write(f"# tool: topoqubit {__version__}\n")
        fh.write("# spec: " + json.dumps(self.meta.get("spec", {}), sort_keys=True) + "\n")
        fh.write(",".join(self.columns) + "\n")
        n_rows, n_cols = self.rows.shape
        size = max(_CSV_BLOCK_CELLS // max(n_cols, 1), 1)
        # A line takes at most 40 bytes a column (a 32-byte slot after up to
        # 7 of padding, or 25 bytes of text) and 8 of padding after them.
        block_rows = min(size, n_rows)
        scratch = _CellScratch(block_rows * n_cols, block_rows * (5 * n_cols + 1))
        for block in states._blocks(n_rows, size):
            fh.write(_csv_lines(self.rows[block], scratch))

    def to_json(self, fh) -> None:
        self._check_finite()
        obj = {
            "meta": {"tool": "topoqubit", "version": __version__, "spec": self.meta.get("spec", {})},
            "columns": list(self.columns),
            "rows": self.rows.tolist(),
        }
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")

    def write(self, fh) -> None:
        if self.meta.get("format", "csv") == "json":
            self.to_json(fh)
        else:
            self.to_csv(fh)


# ---------------------------------------------------------------------------
# CSV lines: a row template per block, its varying cells filled by one '%'
# call or, in larger blocks, by the numpy cell formatter of _csvcells.
# ---------------------------------------------------------------------------


class _CellScratch:
    """Work arrays for formatting up to ``cells`` cells at once, and text
    lines of up to ``line_words`` 8-byte words in all: allocated once per
    table and reused by every block."""

    def __init__(self, cells: int, line_words: int = 0) -> None:
        self.work = np.empty((10, cells), dtype=np.int64)
        self.flags = np.empty((3, cells), dtype=bool)
        self.words = np.empty((4, cells), dtype=np.uint64)
        self.cells = np.empty(cells)
        self.lines = np.empty(line_words, dtype=np.uint64)


# Fewest cells varying within a block that _csvcells._g17_words formats;
# below it one '%' call over the block's line template is faster.  A block
# costs about 90 us on the numpy path plus 0.05-0.1 us a cell, and '%' about
# 0.55 us a cell: even at 170-180 cells (blocks of 1, 3 and 7 varying columns
# of 9, 5 and 9, CPython 3.11, numpy 2.4, 2-core Xeon VM).
_G17_MIN_CELLS = 176

# Cells in a block of a CSV table, which has _CSV_BLOCK_CELLS // (number of
# columns) rows.  The work arrays take about 125 bytes a cell.  The eight
# series-near tables of a benchmark sweep at seeds 101-103 (264,192 cells)
# format in 16.2-17.9 ms (best to median of 25) at 6144 cells, against
# 17.8-19.9 ms at 4096 and 18.5-20.5 ms at 8192, whose arrays and lines take
# about 1.5 MB of this VM's 2 MB L2 cache.
_CSV_BLOCK_CELLS = 6144


def _csv_lines(values: np.ndarray, scratch: _CellScratch) -> str:
    # The CSV lines of a block of rows.  A column whose bits are the same
    # over the block (so -0.0 and 0.0 differ) is formatted once into the row
    # template.  Each other cell gets four words of _g17_words at an aligned
    # place in it, and the NUL padding is dropped; or, for a block of few such
    # cells, the template is filled by one '%' call.
    n_rows, n_cols = values.shape
    bits = values.view(np.int64)
    differs = scratch.flags[0, : n_rows * n_cols].reshape(n_cols, n_rows)
    varies = np.not_equal(bits.T, bits[0, :, None], out=differs).any(axis=1)
    texts = ["%.17g" % v for v in values[0].tolist()]
    n_cells = int(varies.sum()) * n_rows
    if n_cells < _G17_MIN_CELLS:
        line = ",".join("%.17g" if vary else text for vary, text in zip(varies.tolist(), texts))
        return (line + "\n") * n_rows % tuple(values[:, varies].ravel().tolist())
    row = bytearray()
    slots = []
    for j, (vary, text) in enumerate(zip(varies.tolist(), texts)):
        if vary:
            row += bytes(-len(row) % 8)
            slots.append(len(row) // 8)
            row += bytes(32)
        else:
            row += text.encode("ascii") + (b"," if j < n_cols - 1 else b"\n")
    row += bytes(-len(row) % 8)
    lines = scratch.lines[: n_rows * (len(row) // 8)].reshape(n_rows, -1)
    lines[:] = np.frombuffer(row, dtype="<u8")
    cells = scratch.cells[:n_cells]
    values.take(np.flatnonzero(varies), axis=1, out=cells.reshape(n_rows, -1), mode="clip")
    # Imported here: loading it takes about 0.9 ms and raises the peak RSS by
    # about 0.65 MB, which a run that writes no block this large never needs.
    from . import _csvcells

    words = _csvcells._g17_words(cells, scratch).T.reshape(4, n_rows, -1)
    lines[:, (np.array(slots)[:, None] + np.arange(4)).T] = words.transpose(1, 0, 2)
    if varies[-1]:
        lines.view(np.uint8)[:, -1] = ord("\n")
    return lines.tobytes().translate(None, b"\0").decode("ascii")


def _as_float(value):
    # An int as the float it stands for; any other value, and an int too
    # large for a double, as it is.
    if type(value) is not int:
        return value
    try:
        return float(value)
    except OverflowError:
        return value


def _as_declared(kind: str, value):
    # A value read for a field annotated ``kind``: a JSON int becomes the
    # float a float field holds, a list of them a tuple, so a file's [3]
    # echoes as [3.0].  validate() rejects whatever has the wrong type or
    # does not fit a double.
    if kind.startswith("tuple") and isinstance(value, (list, tuple)):
        return tuple(map(_as_float, value))
    return _as_float(value) if kind.startswith("float") else value


def parse_spec(path: str | None = None, mode: str | None = None, overrides: dict | None = None) -> SweepSpec:
    """Build a SweepSpec from an optional JSON file plus override values.

    The file is a flat JSON object whose keys are SweepSpec's fields;
    overrides (the flags, read into those keys) replace file values,
    and an override of None counts as not given.  ``mode`` given both ways
    must agree.  ``q_values`` is required; nm-scan falls back to
    DEFAULT_NM_GAMMA0.  Other keys default as in SweepSpec, and
    ``SweepSpec.validate`` checks every key.

    Raises SpecError for a ``path`` that is no file path (``--spec=--``
    reads as []) or malformed content; lets OSError from an unreadable path
    propagate (the CLI maps it to exit code 4).
    """
    data: dict = {}
    if path is not None:
        _require("spec", path, (str, os.PathLike), "a file path")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file {path}: invalid JSON ({exc})") from exc
        except ValueError as exc:
            # An integer literal past the interpreter's digit limit.
            raise SpecError(f"spec file {path}: a number has too many digits ({exc})") from exc
        if not isinstance(data, dict):
            raise SpecError(f"spec file {path}: expected a JSON object at top level")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise SpecError(f"spec file {path}: unknown keys {sorted(unknown)}")
    if overrides:
        data.update({k: v for k, v in overrides.items() if v is not None})

    file_mode = data.get("mode")
    if mode is not None and file_mode is not None and mode != file_mode:
        raise SpecError(f"mode: spec file says {file_mode!r} but {mode!r} was requested")
    data["mode"] = mode or file_mode
    if data["mode"] is None:
        raise SpecError("mode: not given on the command line or in the spec file")
    if "q_values" not in data:
        raise SpecError("q_values: required (use --q or the spec file)")
    if "gamma0_values" not in data:
        if data["mode"] != "nm-scan":
            raise SpecError("gamma0_values: required (use --gamma0 or the spec file)")
        data["gamma0_values"] = DEFAULT_NM_GAMMA0

    values = {f.name: _as_declared(f.type, data[f.name]) for f in _SPEC_FIELDS if f.name in data}
    spec = SweepSpec(**values)
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Per-combo workers.  Top-level functions so they pickle cleanly into a
# process pool; each returns the finished rows for one (q, gamma0)
# combination of the spec as one float64 array, and combos are reassembled in
# grid order.
# ---------------------------------------------------------------------------


def _combo(
    spec: SweepSpec, q: float, g0: float
) -> tuple[dephasing.DephasingChannel, dephasing.TimeWindow]:
    ch = dephasing.DephasingChannel(dephasing.OhmicEnvironment(q, g0), spec.b)
    if spec.t_max is None:
        return ch, dephasing.TimeWindow.for_cutoff(g0, spec.n_grid)
    return ch, dephasing.TimeWindow(spec.t_max, spec.n_grid)


def _new_rows(q: float, g0: float, n_rows: int, n_cols: int) -> np.ndarray:
    # An (n_rows, n_cols) table whose first two columns hold the combination.
    out = np.empty((n_rows, n_cols))
    out[:, 0] = q
    out[:, 1] = g0
    return out


def _nm_rows(spec: SweepSpec, q: float, g0: float) -> np.ndarray:
    ch, w = _combo(spec, q, g0)
    n_blp = blp(ch, w)
    n_lpp = lpp(ch, w)
    flag = 1.0 if n_blp > _FIRING_THRESHOLD else 0.0
    return np.array([[q, g0, n_blp, n_lpp, flag]])


def _alpha_series(spec: SweepSpec, q: float, g0: float) -> tuple[np.ndarray, np.ndarray]:
    # The combination's time grid and alpha on it; d alpha/dt is not needed.
    ch, w = _combo(spec, q, g0)
    ts = w.times()
    with np.errstate(under="ignore"):
        return ts, np.exp(-dephasing._exponent_values(ch, ts))


def _corr_rows(spec: SweepSpec, q: float, g0: float) -> np.ndarray:
    ts, avals = _alpha_series(spec, q, g0)
    out = _new_rows(q, g0, len(ts), 9)
    out[:, 2] = ts
    out[:, 3] = avals
    for block in states._blocks(len(ts), states._MEASURE_BLOCK):
        s = states.evolved_x_state(spec.theta, avals[block])
        out[block, 4] = correlations.concurrence_x(s)
        out[block, 5] = correlations.discord_x(s)
        out[block, 6] = correlations.lqu_x(s)
        out[block, 7] = correlations.tnd_x(s)
        out[block, 8] = correlations.coherence_l1(s)
    return out


def _qfi_rows(spec: SweepSpec, q: float, g0: float) -> np.ndarray:
    ch, w = _combo(spec, q, g0)
    series = magnetometry.qfi_series(ch, spec.theta, w)
    out = _new_rows(q, g0, len(series.t), 6)
    out[:, 2:] = np.column_stack((series.t, series.f_closed, series.f_general, series.rel_gap))
    return out


def _dump_rows(spec: SweepSpec, q: float, g0: float) -> np.ndarray:
    ts, avals = _alpha_series(spec, q, g0)
    out = _new_rows(q, g0, len(ts), 3 + len(_DUMP_COLUMNS))
    out[:, 2] = ts
    for block in states._blocks(len(ts), states._MEASURE_BLOCK):
        m = states.evolved_x_state(spec.theta, avals[block]).matrix
        upper = m[:, _UPPER[0], _UPPER[1]]
        out[block, 3:7] = m.diagonal(axis1=-2, axis2=-1).real
        out[block, 7::2] = upper.real
        out[block, 8::2] = upper.imag
    return out


# Upper-triangle entries of a 4x4 state, row by row: the dump's column order.
_UPPER = ((0, 0, 0, 1, 1, 2), (1, 2, 3, 2, 3, 3))
_DUMP_COLUMNS = ("rho11", "rho22", "rho33", "rho44") + tuple(
    f"{part}_rho{i + 1}{j + 1}"
    for i in range(4)
    for j in range(i + 1, 4)
    for part in ("re", "im")
)

# mode -> (per-combo worker, table columns, help text)
_MODES = {
    "nm-scan": (
        _nm_rows,
        ("q", "gamma0", "n_blp", "n_lpp", "critical_flag"),
        "non-Markovianity measures over a (Q, gamma0) grid",
    ),
    "corr-series": (
        _corr_rows,
        ("q", "gamma0", "t", "alpha", "concurrence", "discord", "lqu", "tnd", "coherence_l1"),
        "correlation measures along a time grid",
    ),
    "qfi-series": (
        _qfi_rows,
        ("q", "gamma0", "t", "f_closed", "f_general", "rel_gap"),
        "quantum Fisher information along a time grid",
    ),
    "state-dump": (
        _dump_rows,
        ("q", "gamma0", "t") + _DUMP_COLUMNS,
        "full evolved two-qubit state along a time grid",
    ),
}


def _recorded(worker, spec: SweepSpec, q: float, g0: float):
    # A pool worker's rows and the (category, message) of every warning it
    # raised, which a worker process would otherwise print itself.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = worker(spec, q, g0)
    return rows, [(w.category, str(w.message)) for w in caught]


def run(spec: SweepSpec) -> SeriesTable:
    """The table of ``spec``'s mode: its rows for every (Q, gamma0)
    combination, in grid order whatever the number of worker processes.
    Warnings raised in pool workers are re-emitted here, in grid order, so
    the caller's filters see them as in a serial run."""
    spec.validate()
    worker, columns, _ = _MODES[spec.mode]
    qs, g0s = zip(*product(spec.q_values, spec.gamma0_values))
    n_workers = min(spec.parallel or 1, len(qs))
    if n_workers > 1:
        # Imported here: loading the pool takes 25-30 ms that a serial run
        # would otherwise pay at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(functools.partial(_recorded, worker), repeat(spec), qs, g0s))
        for _, caught in results:
            for category, message in caught:
                warnings.warn(message, category, stacklevel=2)
        chunks = [rows for rows, _ in results]
    else:
        chunks = list(map(worker, repeat(spec), qs, g0s))
    rows = np.concatenate(chunks)
    meta = {"spec": spec.echo_dict(), "format": spec.format}
    return SeriesTable(columns=columns, rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# Command line.  The argv is read by the rules of the standard library's
# argument parser, for one positional mode and the flags of _FLAGS, but no
# parser is built: building one took 1.7-2.9 ms a run, the locale import of
# its message translations included (CPython 3.11, 2-core Xeon VM).
# ---------------------------------------------------------------------------

# flag -> (key, value type or its choices, list of values, help text).  The
# key is the spec key the flag sets; for --spec, the spec file.
_FLAGS = {
    "--spec": ("spec", str, False, "JSON spec file; flags override its values"),
    "--q": ("q_values", float, True, "spectral exponents Q"),
    "--gamma0": ("gamma0_values", float, True, "cutoff rates gamma0"),
    "--b": ("b", float, False, "field strength B (default 1.0)"),
    "--theta": ("theta", float, False, "initial-state angle (default pi/2)"),
    "--t-max": ("t_max", float, False, "window end (default 100/gamma0)"),
    "--n-grid": ("n_grid", int, False, "time-grid points (default 4096)"),
    "--out": ("output_path", str, False, "output path (default stdout)"),
    "--format": ("format", ("csv", "json"), False, "output format (default csv)"),
    "--parallel": ("parallel", int, False, "worker processes (default 1)"),
}
_HELP = ("-h", "--help")
_OPTIONS = _HELP + tuple(_FLAGS)


def _choices(names) -> str:
    return "{" + ",".join(names) + "}"


def _metavar(flag: str) -> str:
    _, kind, many, _ = _FLAGS[flag]
    name = _choices(kind) if isinstance(kind, tuple) else flag[2:].upper().replace("-", "_")
    return f"{name} [{name} ...]" if many else name


def _usage() -> str:
    # Wrapped at 79 columns, each line after the first under the first option.
    line = "usage: topoqubit"
    lines, indent = [], " " * len(line)
    for word in ("[-h]", *(f"[{flag} {_metavar(flag)}]" for flag in _FLAGS), _choices(_MODES)):
        if len(line) + 1 + len(word) > 79:
            lines.append(line)
            line = indent
        line += " " + word
    return "\n".join(lines + [line]) + "\n"


def _help() -> str:
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(f"{flag} {_metavar(flag)}", text) for flag, (*_, text) in _FLAGS.items()]
    options = "".join(
        f"  {name:<20}  {text}\n" if len(name) <= 20 else f"  {name}\n{'':24}{text}\n"
        for name, text in rows
    )
    modes = "".join(f"  {mode}: {text}\n" for mode, (*_, text) in _MODES.items())
    return (
        f"{_usage()}\nSweep driver for topological-qubit dephasing tables.\n\n"
        f"modes:\n{modes}\noptions:\n{options}"
    )


def _argv_error(message: str):
    # The exit for a bad argv: the usage, then the error, on stderr.
    sys.stderr.write(f"{_usage()}topoqubit: error: {message}\n")
    raise SystemExit(2)


def _option(token: str) -> tuple[str | None, str | None] | None:
    # What a token before "--" is: (flag, explicit value or None) for an
    # option, (None, None) for an unknown one, None for a value.
    if not token.startswith("-") or token == "-":
        return None
    if token in _OPTIONS:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in _OPTIONS:
        return name, value
    if token.startswith("--"):
        # a unique prefix of a flag, before any "="
        matches, explicit = [o for o in _OPTIONS if o.startswith(name)], value if eq else None
    else:
        # -h with a tail attached
        matches, explicit = (["-h"], token[2:]) if token.startswith("-h") else ([], None)
    if len(matches) > 1:
        _argv_error(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None  # a negative number, or a value with a space in it
    return None, None


def _value(name: str, kind, text: str):
    # One value of the mode or a flag: converted by its type, or checked
    # against its choices.
    if isinstance(kind, tuple):
        if text not in kind:
            choices = ", ".join(map(repr, kind))
            _argv_error(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
        return text
    try:
        return kind(text)
    except ValueError:
        _argv_error(f"argument {name}: invalid {kind.__name__} value: {text!r}")


def _read_argv(argv: list[str] | None = None) -> dict:
    """The mode, the spec file and the spec key of every flag, read from
    ``argv`` (default ``sys.argv[1:]``), None where not given: options
    before or after the mode, ``--flag value`` or ``--flag=value``, a unique
    prefix for a flag, ``--`` to end the options, the last of a repeated
    flag wins.  -h/--help prints the help and exits 0; a bad argv prints the
    usage and an error and exits 2."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    # Every token is classified before any value is taken, so an ambiguous
    # prefix is an error wherever it stands; all after the first "--" are
    # values.
    parsed: list = []
    for i, token in enumerate(tokens):
        if token == "--":
            parsed += ["--"] + [None] * (len(tokens) - i - 1)
            break
        parsed.append(_option(token))
    read = dict.fromkeys(("mode", *(key for key, *_ in _FLAGS.values())))
    extras = []
    i = 0
    while i < len(tokens):
        if not isinstance(parsed[i], tuple):
            # Values up to the next option: the first is the mode, after a
            # "--" and taking one after it, if none was read; the rest are
            # extra.
            options = (j for j in range(i, len(tokens)) if isinstance(parsed[j], tuple))
            stop = next(options, len(tokens))
            first = i + (parsed[i] == "--")
            if read["mode"] is None and first < stop:
                read["mode"] = _value("mode", tuple(_MODES), tokens[first])
                i = first + 1 + (first + 1 < stop and parsed[first + 1] == "--")
            extras += tokens[i:stop]
            i = stop
            continue
        flag, explicit = parsed[i]
        i += 1
        if flag is None:
            extras.append(tokens[i - 1])
        elif flag in _HELP:
            if flag == "-h" and explicit:
                explicit = explicit.lstrip("h") or None  # -hh is -h twice
            if explicit is not None:
                _argv_error(f"argument -h/--help: ignored explicit argument {explicit!r}")
            sys.stdout.write(_help())
            raise SystemExit(0)
        else:
            key, kind, many, _ = _FLAGS[flag]
            if explicit is not None:
                strings = [] if explicit == "--" else [explicit]  # a "--" value is dropped
            else:
                stop = i
                while stop < len(tokens) and parsed[stop] is None and (many or stop == i):
                    stop += 1
                if stop == i:
                    expected = "at least one argument" if many else "one argument"
                    _argv_error(f"argument {flag}: expected {expected}")
                strings, i = tokens[i:stop], stop
            values = [_value(flag, kind, text) for text in strings]
            read[key] = values if many or len(values) != 1 else values[0]
    if read["mode"] is None:
        _argv_error("the following arguments are required: mode")
    if extras:
        _argv_error(f"unrecognized arguments: {' '.join(extras)}")
    return read


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.  The caller's warning
    filters are left as they were."""
    overrides = _read_argv(argv)
    path, mode = overrides.pop("spec"), overrides.pop("mode")
    t0 = time.monotonic()
    try:
        spec = parse_spec(path=path, mode=mode, overrides=overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("once", HorizonWarning)
            table = run(spec)
        if spec.output_path:
            with open(spec.output_path, "w", encoding="utf-8", newline="") as fh:
                table.write(fh)
        else:
            table.write(sys.stdout)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except TopoqubitError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    print(f"wall time: {time.monotonic() - t0:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

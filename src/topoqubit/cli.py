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

import argparse
import functools
import json
import math
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
    spec-file key and its flag's dest) with its only default; ``validate``
    checks each key's type and range, for ``parse_spec`` and ``run`` alike."""

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
# CSV cell text: format(v, '.17g') for a float64 array, computed in numpy.
#
# A nonzero cell's 17 significant digits are D = round(|v| 10**(16 - e)),
# e = floor(log10 |v|).  |v| 2**-h, exact, is multiplied by the matching
# 10**(16 - e) 2**h (a double-double within 1e-31 relative, from exact
# integers) as a Dekker product, h half the binary exponent of 10**e so that
# no factor over- or underflows; the unrounded D is known to about 1e-13
# absolute.  A cell goes through
# '%.17g' itself when the fraction of D lies within 1e-6 of one half (a tie,
# which '%.17g' rounds to even, or too near one to decide here) or when its
# unrounded D falls outside [10**16, 10**17 - 1) (log10 was off by one, or D
# may round up to the next power of ten), so the text never rests on an
# estimate.  The text is laid out by %g's rules in four little-endian 8-byte
# words per cell, NUL padded: a character's place in the words is fixed, or
# one byte on where a point is inserted among the digits, and the NUL bytes
# are dropped from the finished lines.
#
# Every step writes into work arrays that a table allocates once
# (_CellScratch) and all its blocks reuse.  The lookups are ndarray.take
# with mode="clip", which writes into them unbuffered and keeps the unused
# digits of '%.17g' cells in range.  Integer tables are built in int64 and
# viewed as uint64, the bytes of every word staying below 0x80: the
# formatter then runs only the numpy loops it needs anyway, each of which
# costs resident code pages the first time.
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp splits a double into 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


def _pow10_table() -> tuple[np.ndarray, ...]:
    # By e + 324 for every decimal exponent e of a finite nonzero double,
    # e in [-324, 308], with h = floor(floor(e log2 10) / 2): 2**-h, and
    # 10**(16 - e) 2**h as hi + lo.  Half the binary exponent of 10**e each
    # keeps |v| 2**-h, this 10**(16 - e) 2**h and its parts normal doubles,
    # far from overflow, whatever the double v of decimal exponent e.
    # Each 10**k is a coarse 10**(23 i), exact from integers as
    # (c_hi + c_lo) 2**c_exp, times an exact double 10**j, j <= 22.
    coarse = []
    for i in range(-13, 15):
        num, den = (10 ** (23 * i), 1) if i >= 0 else (1, 10 ** (-23 * i))
        b = num.bit_length() - den.bit_length()
        if (num << max(-b, 0)) < (den << max(b, 0)):
            b -= 1
        num, den = (num << -b, den) if b < 0 else (num, den << b)
        c_hi = num / den  # correctly rounded, as is c_lo
        a, c = c_hi.as_integer_ratio()
        coarse.append((c_hi, (num * c - a * den) / (den * c), b))
    # Small integers are exact in float64, and so are their floors here.
    e = np.arange(-324.0, 309.0)
    s = np.floor(e * math.log2(10.0))
    i = np.floor((16.0 - e) / 23.0)
    at = (i + 13.0).astype(np.int64)
    c_hi, c_lo, c_exp = (np.array(col, dtype=float)[at] for col in zip(*coarse))
    f = np.array([10.0**j for j in range(23)])[(16.0 - e - 23.0 * i).astype(np.int64)]
    (h1, h2), (f1, f2) = _split(c_hi), _split(f)
    hi = c_hi * f
    lo = ((h1 * f1 - hi) + h1 * f2 + h2 * f1) + h2 * f2 + c_lo * f
    h = np.floor(0.5 * s)
    two_h = np.ldexp(1.0, (c_exp + h).astype(np.int32))
    hi, lo = (hi + lo) * two_h, (lo - ((hi + lo) - hi)) * two_h
    return np.ldexp(1.0, (-h).astype(np.int32)), hi, lo, *_split(hi)


_POW2_DOWN, _POW10_HI, _POW10_LO, _POW10_HI1, _POW10_HI2 = _pow10_table()


def _word(byte_text: bytes) -> int:
    # The little-endian word whose bytes are byte_text, NUL padded.
    return int.from_bytes(byte_text, "little")


# The four ASCII digits of 0..9999, first digit in the low byte, and their
# trailing zero digits (4 for 0), built over a (10, 10, 10, 10) grid of
# digits whose C order is the order of the numbers.
_ASCII = np.arange(48, 58, dtype=np.int64)
_DIGITS4 = (
    _ASCII[:, None, None, None]
    + _ASCII[:, None, None] * 2**8
    + _ASCII[:, None] * 2**16
    + _ASCII * 2**24
).ravel()
_IS_ZERO = np.where(np.arange(10) < 1, 1, 0)
_TRAILING_ZEROS4 = (
    _IS_ZERO
    * (1 + _IS_ZERO[:, None] * (1 + _IS_ZERO[:, None, None] * (1 + _IS_ZERO[:, None, None, None])))
).ravel()
# Word 0 by decimal exponent x (index x + 324): the "0." and zeros before
# the digits of fixed notation (x = -4..-1) and, where %g puts one after the
# first digit, a point in byte 7.  The first digit goes in byte 6 and the
# sign in byte 0.
_FIXED_PREFIX = np.array(
    [0] + [_word(b"\0" + b"0." + b"0" * (-x - 1)) for x in range(-4, 0)] + [0], dtype=np.int64
)
_X = np.arange(-324, 309, dtype=np.int64)
_FIXED = (_X >= -4) & (_X < 17)
_WHOLE = _FIXED & (_X > 0)  # digits of the integer part after the first
_LEAD_WORD = (
    _FIXED_PREFIX[np.clip(_X + 5, 0, 5)] + np.where(_FIXED & (_X != 0), 0, 46 << 56)
).view(np.uint64)
_LEAD_DIGIT = np.array([_word(bytes(6) + bytes([48 + d])) for d in range(10)], dtype=np.uint64)
# Of the 16 digits after the first, at least x are shown in fixed notation
# (_MIN_KEPT, 0 elsewhere), and a point goes after digit x where more are
# (_POINT_AT, 16 elsewhere: no point).
_MIN_KEPT = np.where(_WHOLE, _X, 0)
_POINT_AT = np.where(_WHOLE, _X, 16)
# _LOW_BYTES[j] keeps the first min(j, 8) bytes of a word, _HIGH_BYTES[j]
# the first max(j - 8, 0): bytes j and on of the 16 digits after the first
# are cleared.  _POINT_LOW/_POINT_HIGH put a point at byte j of that run.
_LOW_BYTES = np.array([(1 << 8 * min(j, 8)) - 1 for j in range(17)], dtype=np.uint64)
_HIGH_BYTES = np.array([(1 << 8 * max(j - 8, 0)) - 1 for j in range(17)], dtype=np.uint64)
_POINT_LOW = np.array([46 << 8 * j if j < 8 else 0 for j in range(17)], dtype=np.uint64)
_POINT_HIGH = np.array(
    [46 << 8 * (j - 8) if 8 <= j < 16 else 0 for j in range(17)], dtype=np.uint64
)
# Word 3 by decimal exponent x (index x + 324): "e+XX" or "e-XXX" from
# byte 1 where %g takes exponent notation, and the ',' separator in byte 7.
_EXPONENT_DIGITS = _DIGITS4[np.where(_X < 0, -_X, _X)]
_EXPONENT_TEXT = (
    np.where(
        ~_FIXED,
        _word(b"\0e")
        + np.where(_X < 0, _word(b"\0\0-"), _word(b"\0\0+"))
        + np.where(
            (_X <= -100) | (_X >= 100),
            _EXPONENT_DIGITS // 2**8 * 2**24,  # three digits from byte 3
            _EXPONENT_DIGITS // 2**16 * 2**32,  # two digits from byte 4
        ),
        0,
    )
    + _word(b"\0" * 7 + b",")
).view(np.uint64)
_DIGITS4 = _DIGITS4.view(np.uint64)
del _ASCII, _IS_ZERO, _FIXED_PREFIX, _X, _FIXED, _WHOLE, _EXPONENT_DIGITS

_BYTE = np.uint64(8)
_HALF = np.uint64(32)
_TOP_BYTE = np.uint64(56)
_MINUS = np.uint64(45)
_NO_LEAD_POINT = np.uint64(2**64 - 1 - (46 << 56))
_DIGITS_SPAN = np.uint64(9 * 10**16 - 1)  # of the unrounded D in range, less 10**16


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


def _divmod(n: np.ndarray, d: int, quotient: np.ndarray, work: np.ndarray) -> None:
    # quotient = n // d and n %= d in place, for n >= 0: numpy divides by a
    # scalar faster in floor_divide than in divmod.
    np.floor_divide(n, d, out=quotient)
    np.multiply(quotient, d, out=work)
    np.subtract(n, work, out=n)


def _g17_words(values: np.ndarray, scratch: _CellScratch | None = None) -> np.ndarray:
    """format(v, '.17g') + ',' for each finite float64 in ``values``, as an
    (n, 4) uint64 array: each row the little-endian bytes of one cell's
    text, NUL padded, with the ',' in its last byte.  Word 0 holds the sign,
    the "0.000" of small fixed-notation numbers, the first digit and a point
    after it; words 1 and 2 the other 16 digits, with a point inserted at its
    place and the digits after it one byte on; word 3 the digit pushed out of
    word 2 and the exponent.  The result is a view of ``scratch`` (made for
    ``values`` when not given), valid until its next use."""
    n = len(values)
    if scratch is None:
        scratch = _CellScratch(n)
    work = scratch.work[:, :n]
    a, m, m1, m2, hi, t, lo = work[:7].view(np.float64)
    d0, g1, g2, g3, kept = work[:5]  # a to hi, once the digits are known
    k, digits, tmp = work[7:]
    zero, fallback, flag = scratch.flags[:, :n]
    words = scratch.words[:, :n]
    w0, w1, w2, w3 = words
    table = tmp.view(np.uint64)  # a looked-up word

    np.abs(values, out=a)
    np.equal(a, 0.0, out=zero)
    np.add(a, zero, out=a)  # formatted as 1, its first digit then cleared
    np.log10(a, out=t)
    np.floor(t, out=t)
    np.add(t, 324.0, out=k, casting="unsafe")  # e + 324, an exact small integer
    # y = |v| 10**(16 - e) = m (t_hi + t_lo) = hi + lo, m = |v| 2**-h: a
    # Dekker product and the table's low part, summed in place as
    # ((m1 t1 - hi) + m1 t2 + m2 t1) + m2 t2 + m t_lo.
    _POW2_DOWN.take(k, out=t, mode="clip")
    np.multiply(a, t, out=m)
    _POW10_HI.take(k, out=t, mode="clip")
    np.multiply(m, t, out=hi)
    np.multiply(m, _SPLITTER, out=t)
    np.subtract(t, m, out=m1)
    np.subtract(t, m1, out=m1)
    np.subtract(m, m1, out=m2)
    _POW10_HI1.take(k, out=t, mode="clip")
    np.multiply(m1, t, out=lo)
    np.subtract(lo, hi, out=lo)
    np.multiply(m2, t, out=a)
    _POW10_HI2.take(k, out=t, mode="clip")
    np.multiply(m1, t, out=m1)
    np.add(lo, m1, out=lo)
    np.add(lo, a, out=lo)
    np.multiply(m2, t, out=m2)
    np.add(lo, m2, out=lo)
    _POW10_LO.take(k, out=t, mode="clip")
    np.multiply(m, t, out=m)
    np.add(lo, m, out=lo)
    # digits = floor(y) + 1 where the fraction of y is at least one half.
    np.floor(lo, out=t)
    np.subtract(lo, t, out=lo)
    np.copyto(digits, hi, casting="unsafe")  # an integer: hi >= 2**53 wherever D is in range
    np.copyto(tmp, t, casting="unsafe")
    np.add(digits, tmp, out=digits)
    np.subtract(digits, 10**16, out=tmp)
    np.greater_equal(tmp.view(np.uint64), _DIGITS_SPAN, out=fallback)
    np.subtract(lo, 0.5, out=lo)
    np.greater_equal(lo, 0.0, out=flag)
    np.add(digits, flag, out=digits)
    np.abs(lo, out=lo)
    np.less(lo, 1e-6, out=flag)
    np.logical_or(fallback, flag, out=fallback)
    np.copyto(digits, 0, where=zero)
    # The first digit, and the other 16 in four groups of four.
    _divmod(digits, 10**16, d0, tmp)
    _divmod(digits, 10**8, g2, tmp)
    _divmod(g2, 10**4, g1, tmp)
    _divmod(digits, 10**4, g3, tmp)
    g4 = digits
    # kept counts the digits shown after the first: the 16 less their
    # trailing zeros (looked up in g4, and in the groups before it only where
    # all after them are 0), but not fewer than the integer part's in fixed
    # notation.
    _TRAILING_ZEROS4.take(g4, out=kept, mode="clip")
    np.subtract(16, kept, out=kept)
    np.equal(g4, 0, out=flag)
    z = flag.nonzero()[0]
    for g in (g3, g2, g1):
        if not z.size:
            break
        g = g[z]
        kept[z] -= _TRAILING_ZEROS4[g]
        z = z[g == 0]
    # z: the cells with no digit but zeros after the first, so no point
    # after it either.
    _MIN_KEPT.take(k, out=tmp, mode="clip")
    np.maximum(kept, tmp, out=kept)
    _POINT_AT.take(k, out=tmp, mode="clip")
    np.greater(kept, tmp, out=flag)  # a point among the digits
    _DIGITS4.take(g1, out=w1, mode="clip")
    _DIGITS4.take(g2, out=table, mode="clip")
    np.left_shift(table, _HALF, out=table)
    np.bitwise_or(w1, table, out=w1)
    _LOW_BYTES.take(kept, out=table, mode="clip")
    np.bitwise_and(w1, table, out=w1)
    _DIGITS4.take(g3, out=w2, mode="clip")
    _DIGITS4.take(g4, out=table, mode="clip")
    np.left_shift(table, _HALF, out=table)
    np.bitwise_or(w2, table, out=w2)
    _HIGH_BYTES.take(kept, out=table, mode="clip")
    np.bitwise_and(w2, table, out=w2)
    _EXPONENT_TEXT.take(k, out=w3, mode="clip")
    _LEAD_WORD.take(k, out=w0, mode="clip")
    _LEAD_DIGIT.take(d0, out=table, mode="clip")
    np.bitwise_or(w0, table, out=w0)
    w0[z] &= _NO_LEAD_POINT
    sign = zero  # the zero cells' digits are cleared
    np.signbit(values, out=sign)
    np.bitwise_or(w0, _MINUS, out=w0, where=sign)
    at = flag.nonzero()[0]
    if at.size:
        # A point after digit x of the 16 goes to byte x; the bytes from x
        # on move one byte up, the last into word 3.
        x = k[at] - 324
        before1, before2 = _LOW_BYTES[x], _HIGH_BYTES[x]
        v1, v2 = w1[at], w2[at]
        after1, after2 = v1 & ~before1, v2 & ~before2
        w1[at] = (v1 & before1) | (after1 << _BYTE) | _POINT_LOW[x]
        w2[at] = (v2 & before2) | (after2 << _BYTE) | (after1 >> _TOP_BYTE) | _POINT_HIGH[x]
        w3[at] |= after2 >> _TOP_BYTE
    at = fallback.nonzero()[0]
    if at.size:
        text = b"".join(
            ("%.17g" % v).encode("ascii").ljust(31, b"\0") + b"," for v in values[at].tolist()
        )
        words[:, at] = np.frombuffer(text, dtype="<u8").reshape(-1, 4).T
    return words.T


# Fewest cells varying within a block that _g17_words formats; below it one
# '%' call over the block's line template is faster.  A block costs about
# 90 us on the numpy path plus 0.05-0.1 us a cell, and '%' about 0.55 us a
# cell: even at 170-180 cells (blocks of 1, 3 and 7 varying columns of 9, 5
# and 9, CPython 3.11, numpy 2.4, 2-core Xeon VM).
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
    words = _g17_words(cells, scratch).T.reshape(4, n_rows, -1)
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
    overrides (the flags, whose dests are those keys) replace file values,
    and an override of None counts as not given.  ``mode`` given both ways
    must agree.  ``q_values`` is required; nm-scan falls back to
    DEFAULT_NM_GAMMA0.  Other keys default as in SweepSpec, and
    ``SweepSpec.validate`` checks every key.

    Raises SpecError for malformed content; lets OSError from an unreadable
    path propagate (the CLI maps it to exit code 4).
    """
    data: dict = {}
    if path is not None:
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
_UPPER = np.triu_indices(4, 1)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: each add_argument queries the terminal size.
    # Every mode takes the same options, so one parser with a positional
    # mode serves all four.
    parser = argparse.ArgumentParser(
        prog="topoqubit",
        description="Sweep driver for topological-qubit dephasing tables.",
    )
    parser.add_argument(
        "mode",
        choices=tuple(_MODES),
        help="; ".join(f"{mode}: {help_text}" for mode, (_, _, help_text) in _MODES.items()),
    )
    parser.add_argument("--spec", help="JSON spec file; flags override its values")
    # Every other flag's dest is the spec key it sets.
    parser.add_argument("--q", nargs="+", type=float, dest="q_values", help="spectral exponents Q")
    parser.add_argument("--gamma0", nargs="+", type=float, dest="gamma0_values", help="cutoff rates gamma0")
    parser.add_argument("--b", type=float, help="field strength B (default 1.0)")
    parser.add_argument("--theta", type=float, help="initial-state angle (default pi/2)")
    parser.add_argument("--t-max", type=float, dest="t_max", help="window end (default 100/gamma0)")
    parser.add_argument("--n-grid", type=int, dest="n_grid", help="time-grid points (default 4096)")
    parser.add_argument("--out", dest="output_path", help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format (default csv)")
    parser.add_argument("--parallel", type=int, help="worker processes (default 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.  The caller's warning
    filters are left as they were."""
    overrides = vars(_build_parser().parse_args(argv))
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

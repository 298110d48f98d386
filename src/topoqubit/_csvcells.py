"""CSV cell text: format(v, '.17g') for a float64 array, computed in numpy.

A nonzero cell's 17 significant digits are D = round(|v| 10**(16 - e)),
e = floor(log10 |v|).  |v| 2**-h, exact, is multiplied by the matching
10**(16 - e) 2**h (a double-double within 1e-31 relative, from exact
integers) as a Dekker product, h half the binary exponent of 10**e so that
no factor over- or underflows; the unrounded D is known to about 1e-13
absolute.  A cell goes through
'%.17g' itself when the fraction of D lies within 1e-6 of one half (a tie,
which '%.17g' rounds to even, or too near one to decide here) or when its
unrounded D falls outside [10**16, 10**17 - 1) (log10 was off by one, or D
may round up to the next power of ten), so the text never rests on an
estimate.  The text is laid out by %g's rules in four little-endian 8-byte
words per cell, NUL padded: a character's place in the words is fixed, or
one byte on where a point is inserted among the digits, and the NUL bytes
are dropped from the finished lines.

Every step writes into work arrays that a table allocates once
(cli._CellScratch) and all its blocks reuse.  The lookups are ndarray.take
with mode="clip", which writes into them unbuffered and keeps the unused
digits of '%.17g' cells in range.  Integer tables are built in int64 and
viewed as uint64, the bytes of every word staying below 0x80: the
formatter then runs only the numpy loops it needs anyway, each of which
costs resident code pages the first time.

The lookup tables are module constants, built when the module is imported:
0.8-1.0 ms and about 0.65 MB of peak RSS with compiled bytecode (CPython
3.11, numpy 2.4, 2-core Xeon VM).  cli._csv_lines imports the module at the
first block with at least cli._G17_MIN_CELLS varying cells, so a run that
writes no such block (no table at all, or only blocks that one '%' call
formats) never builds them.
"""

from __future__ import annotations

import math

import numpy as np

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


class _Work:
    """The work arrays of _g17_words for up to ``cells`` cells, for a call
    made without a table's cli._CellScratch, which holds them with its own."""

    def __init__(self, cells: int) -> None:
        self.work = np.empty((10, cells), dtype=np.int64)
        self.flags = np.empty((3, cells), dtype=bool)
        self.words = np.empty((4, cells), dtype=np.uint64)


def _divmod(n: np.ndarray, d: int, quotient: np.ndarray, work: np.ndarray) -> None:
    # quotient = n // d and n %= d in place, for n >= 0: numpy divides by a
    # scalar faster in floor_divide than in divmod.
    np.floor_divide(n, d, out=quotient)
    np.multiply(quotient, d, out=work)
    np.subtract(n, work, out=n)


def _g17_words(values: np.ndarray, scratch: _Work | None = None) -> np.ndarray:
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
        scratch = _Work(n)
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

"""Text output: trace CSVs and the points of SVG polylines.

Values are written in blocks, each block's text built with array
arithmetic from word tables and byte for byte what printf writes: ``%.17g``
for a CSV value, ``%.2f`` for a polyline coordinate.  A block that holds a
value the fast path cannot vouch for goes through printf.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Optional

import numpy as np

from .interferogram import EnvelopePair, Trace

__all__ = ["CSV_BLOCK", "write_csv_columns", "write_trace_csv", "write_polyline"]


#: Rows per formatted block in ``write_csv_columns``; the fast path's
#: temporaries are sized by it, and 1024 formatted a 4-column trace fastest.
CSV_BLOCK = 1024
#: The fast ``%.17g`` path takes 0 and magnitudes in this range, where
#: the tabled powers of ten and Dekker's partial products stay normal.
_G17_RANGE = (1e-290, 1e290)
#: A scaled product this close to a half may round either way: printf.
_TIE_MARGIN = 1e-6
#: Every decimal exponent k the fast path tries lies in +-_K_MAX: the
#: range's exponents, floor(log10) one off at either end, and one correction.
_K_MAX = max(abs(round(math.log10(x))) for x in _G17_RANGE) + 2
#: 10^s is tabled for s = 16 - k over those k.
_POW_FIRST, _POW_LAST = 16 - _K_MAX, 16 + _K_MAX
#: Exponent texts are tabled for k in [-_EXP_OFF, _EXP_OFF), a carry's
#: k + 1 included.
_EXP_OFF = _K_MAX + 2
_U64 = np.uint64
#: 32 - 8 w for the three digit words w: a byte offset x into word w is
#: x - 8 w, and the byte tables below are indexed by that plus 32.
_WORD_SHIFT = np.array([[32], [24], [16]])


def _words(texts):
    """Each text of at most 8 bytes as one little-endian uint64."""
    return np.array([int.from_bytes(t, "little") for t in texts], _U64)


def _ascii(words):
    """The text held in ``words`` with its NULs dropped; None on a host
    that is not little-endian, whose native bytes would put each word's
    text in reverse, so that its block goes through printf."""
    if sys.byteorder != "little":
        return None
    return words.tobytes().translate(None, b"\0").decode("ascii")


@cache
def _g17_tables():
    """Tables for the ``"%.17g"`` fast path, built on first use, never at
    import.

    10^s as hi + lo, split exactly through ``Fraction``, and hi split again
    into two 26-bit halves for Dekker's product; the 4-digit groups, full
    and with trailing zeros as NUL; exponent texts; sign and "0.000"
    prefixes; and byte masks and the point for a byte offset in a word.
    """
    exact = [Fraction(10) ** s for s in range(_POW_FIRST, _POW_LAST + 1)]
    hi = np.array([float(x) for x in exact])
    lo = np.array([float(x - Fraction(h)) for x, h in zip(exact, hi.tolist())])
    mantissa, exponent = np.frexp(hi)
    veltkamp = 134217729.0 * mantissa
    head = np.ldexp(veltkamp - (veltkamp - mantissa), exponent)
    quads = [b"%04d" % i for i in range(10000)]
    quads += [q.rstrip(b"0") for q in quads]
    exps = [b"\0\0e%+03d" % k for k in range(-_EXP_OFF, _EXP_OFF)] + [b""]
    prefixes = [sign + zeros for sign in (b"\0", b"-")
                for zeros in (b"", b"0.", b"0.0", b"0.00", b"0.000")]
    low = _words([b"\xff" * min(max(x, 0), 8) for x in range(-32, 32)])
    dot = _words([b"\0" * x + b"." if 0 <= x < 8 else b"" for x in range(-32, 32)])
    return ((hi, head, hi - head, lo), _words(quads), _words(exps), _words(prefixes),
            low, ~low, dot)


def _scaled(a, k, powers):
    """a * 10^(16 - k) as a double p plus a small correction e.

    a is split by clearing its low 27 mantissa bits and 10^s's hi by
    Veltkamp's split, so Dekker's four partial products are exact.
    """
    row = 16 - _POW_FIRST - k
    hi, head, tail, lo = (t.take(row) for t in powers)
    a_head = (a.view(_U64) & _U64(0xFFFFFFFFF8000000)).view(np.float64)
    a_tail = a - a_head
    p = a * hi
    e = a_head * head
    e -= p
    e += a_head * tail
    e += a_tail * head
    e += a_tail * tail
    e += a * lo
    return p, e


def _g17_digits(values):
    """The 17 significant digits n and the decimal exponent k of each
    ``"%.17g"`` value, n = 0 and k = 0 for a zero; None where they may
    differ from printf's.

    With k = floor(log10 |v|), n = rint(|v| 10^(16-k)), the product formed
    in double-double (Dekker).  k is corrected by the unrounded product,
    so the double 1e-280, 9.9999999999999996e-281, is not written as
    1e-280, and a product that rounds up to 10^17 carries into k + 1.
    """
    a = np.abs(values)
    zero = a == 0
    if not ((a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1]) | zero).all():
        return None
    powers = _g17_tables()[0]
    a[zero] = 1.0
    k = np.floor(np.log10(a)).astype(np.intp)
    p, e = _scaled(a, k, powers)
    below = (p < 1e16) | (p == 1e16) & (e < 0)
    above = (p > 1e17) | (p == 1e17) & (e >= 0)
    off = np.flatnonzero(below | above)
    if off.size:
        k[off] += above[off].astype(np.intp) - below[off]
        p[off], e[off] = _scaled(a[off], k[off], powers)
    whole = np.rint(e)
    e -= whole
    if (np.abs(e) > 0.5 - _TIE_MARGIN).any():
        return None
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    if ((n < 10**16) | (n > 10**17)).any():
        return None
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    n[zero] = 0
    k[zero] = 0
    return n, k


def _digit_words(n, quads):
    """The 17 digits of each n as ASCII in bytes 0-16 of three uint64
    words, trailing zeros as NUL: the lead digit and four 4-digit groups."""
    lead = n // 10**16
    rest = n - lead * 10**16
    top = rest // 10**8
    bottom = rest - top * 10**8
    g1 = top // 10**4
    g2 = top - g1 * 10**4
    g3 = bottom // 10**4
    g4 = bottom - g3 * 10**4
    z4 = g4 == 0
    z3 = z4 & (g3 == 0)
    z2 = z3 & (g2 == 0)
    q4 = quads.take(g4 + 10000)
    q3 = quads.take(g3 + z4 * 10000)
    q2 = quads.take(g2 + z3 * 10000)
    q1 = quads.take(g1 + z2 * 10000)
    digits = np.empty((3, len(n)), _U64)
    digits[0] = (lead + 48).view(_U64) | q1 << _U64(8) | q2 << _U64(40)
    digits[1] = q2 >> _U64(24) | q3 << _U64(8) | q4 << _U64(40)
    digits[2] = q4 >> _U64(24)
    return digits


def _g17_text(values, seps):
    """The ``"%.17g"`` text of ``values``, each followed by its separator
    (``seps``, the byte in the top byte of a uint64); None where that may
    differ from printf.

    Each value is laid out in 32 bytes, NUL where ``%g`` writes nothing,
    and the NULs are dropped at the end: the sign and a "0.000" prefix,
    the digits with the point shifted in, the exponent and the separator.
    """
    found = _g17_digits(values)
    if found is None:
        return None
    n, k = found
    _, quads, exps, prefixes, low, high, dot = _g17_tables()
    digits = _digit_words(n, quads)
    # %g: fixed notation for -4 <= k < 17, its last integer digit at index
    # m; otherwise d.ddd with m = 0 and an exponent.
    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)
    m = k * (fixed & ~small)
    # Digit bytes have bit 5 set, NULs do not: count those bits.
    kept = np.bitwise_count(digits & _U64(0x2020202020202020)).sum(axis=0, dtype=np.intp)
    if (m >= kept).any():  # integer zeros the groups stripped
        words = int(m.max()) // 8 + 1
        digits[:words] |= _U64(0x3030303030303030) & low[m + _WORD_SHIFT[:words] + 1]
    point = np.where(small | (kept <= m + 1), 24, m + 1)
    if (point < 24).any():
        shift = point + _WORD_SHIFT
        shifted = digits << _U64(8)
        shifted[1:] |= digits[:-1] >> _U64(56)
        shifted &= high[shift + 1]
        digits &= low[shift]
        digits |= shifted
        digits |= dot[shift]
    digits[2] |= exps[np.where(fixed, 2 * _EXP_OFF, k + _EXP_OFF)] | seps
    text = np.empty((len(n), 4), _U64)
    text[:, 0] = prefixes[np.signbit(values) * 5 - k * small]
    text[:, 1:] = digits.T
    return _ascii(text)


def write_csv_columns(handle, columns) -> None:
    """Write float columns of equal length as CSV rows, each value as
    ``"%.17g"`` formats it.

    Rows are formatted and written in blocks of ``CSV_BLOCK``, never as
    one string.  A block is formatted by ``_g17_text`` with array
    arithmetic, byte for byte as printf would.  printf formats a block
    only if it holds NaN, an infinity, a nonzero magnitude outside
    1e-290...1e290, or a value whose digits past the 17th lie within 1e-6
    of a half unit of the 17th: an exact tie such as 2**-25 =
    2.98023223876953125e-08, which printf rounds half to even, or a value
    too near one to round with certainty, and every block on a host that
    is not little-endian.  Columns of unequal length are refused before
    anything is written.
    """
    rows = len(columns[0])
    if any(len(c) != rows for c in columns):
        raise ValueError("CSV columns must have equal length")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    ends = np.full(len(columns), ord(","), _U64)
    ends[-1] = ord("\n")
    seps = np.tile(ends << _U64(56), min(rows, CSV_BLOCK))
    for first in range(0, rows, CSV_BLOCK):
        last = min(first + CSV_BLOCK, rows)
        values = np.column_stack([c[first:last] for c in columns]).ravel()
        values = values.astype(np.float64, copy=False)
        text = _g17_text(values, seps[:len(values)])
        if text is None:
            text = row * (last - first) % tuple(values.tolist())
        handle.write(text)


def write_trace_csv(path_or_buffer, trace: Trace,
                    envelopes: Optional[EnvelopePair] = None) -> None:
    """CSV with header tau,value[,upper,lower], 17-significant-digit floats,
    to a path (``str``, ``bytes`` or ``os.PathLike``) or an open text file."""
    own = isinstance(path_or_buffer, (str, bytes, os.PathLike))
    handle = open(path_or_buffer, "w") if own else path_or_buffer
    try:
        columns = [trace.taus, trace.values]
        if envelopes is None:
            handle.write("tau,value\n")
        else:
            handle.write("tau,value,upper,lower\n")
            columns += [envelopes.upper.values, envelopes.lower.values]
        write_csv_columns(handle, columns)
    finally:
        if own:
            handle.close()


#: Points per formatted block of an SVG polyline.
_SVG_BLOCK = 4096


@cache
def _svg_tables():
    """Word tables of ``_hundredths_text``, built on first use, never at
    import: the whole parts 0-999 in bytes 0-2, leading blanks as NUL, and
    "." and the two digits of the hundredths 0-99 in bytes 3-5."""
    wholes = _words([(b"%3d" % i).replace(b" ", b"\0") for i in range(1000)])
    cents = _words([b"\0\0\0.%02d" % i for i in range(100)])
    return wholes, cents


def _hundredths_text(points):
    """The ``"%.2f,%.2f"`` text of interleaved (x, y) ``points``, points
    separated by spaces, built from integer hundredths; None where that may
    differ from printf.

    n = rint(100 v) is the correctly rounded count of hundredths unless the
    product 100 v lands exactly on a half: the product's rounding is
    monotone and every half under 1e5 is a double, so a product below a
    half never rounds past it.  Negative values and -0.0, values from 1000
    or counts from 1e5 on, NaN and the infinities are left to printf too.
    Each value's text and separator is one little-endian uint64 word, NUL
    where printf writes nothing; the NULs are dropped at the end.
    """
    if np.signbit(points).any() or not (points < 1e3).all():
        return None
    scaled = points * 100.0
    n = np.rint(scaled)
    if not (n < 1e5).all() or (np.abs(scaled - n) == 0.5).any():
        return None
    n = n.astype(np.intp)
    whole = n // 100
    n -= 100 * whole  # the hundredths
    wholes, hundredths = _svg_tables()
    words = wholes.take(whole)
    words |= hundredths.take(n)
    words[0::2] |= _U64(ord(",") << 48)  # each separator in byte 6
    words[1::2] |= _U64(ord(" ") << 48)
    words[-1] &= _U64(0xFFFFFFFFFFFF)  # none after the last point
    return _ascii(words)


def write_polyline(fh, xs, ys, x0, x1, y0, y1, width, height, pad) -> None:
    """Write the points of one polyline, formatted and written in blocks.

    The data ``(xs, ys)`` over ``[x0, x1] x [y0, y1]`` map onto a
    ``width`` x ``height`` pixel canvas inside a margin of ``pad``, y up.
    Each block is ``"%.2f,%.2f"`` per point, built from integer hundredths
    where ``_hundredths_text`` allows and through printf otherwise.
    """
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0)
    for first in range(0, len(xs), _SVG_BLOCK):
        last = min(first + _SVG_BLOCK, len(xs))
        px = pad + (xs[first:last] - x0) * sx
        py = height - pad - (ys[first:last] - y0) * sy
        points = np.column_stack((px, py)).ravel()
        text = _hundredths_text(points)
        if text is None:
            text = " ".join(["%.2f,%.2f"] * (last - first)) % tuple(points.tolist())
        if first:
            fh.write(" ")
        fh.write(text)


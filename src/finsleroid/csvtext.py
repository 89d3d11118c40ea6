"""Float text in two exact formats, byte-identical to Python's own:
"%.17g" for the CSV tables and "%.6f" for the SVG points.

CPython's "%" rounds correctly, one number at a time, through the bignum
path of dtoa. csv_lines and points_text form the same digits for a whole
array with numpy: one exact Dekker two-product (core.two_product) gives
the decimal digits before rounding, and tables of digit groups turn them
into text. Every number outside a kernel's fast range is passed to "%"
itself. csv_tables formats a table once and writes several CSV tables
from its columns, so a column they share is formatted once. The CSV text
stays in the ASCII bytes blocks the kernel makes, one per CHUNK_ROWS
rows, which the CLI hands to the file as they are: no whole-file string
is built.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from .core import split, two_product

__all__ = ["CHUNK_ROWS", "csv_lines", "csv_tables", "points_text"]


# Rows per pass of _slots: its buffers stay small and in cache.
CHUNK_ROWS = 1024
# "%.17g" writes x in fixed notation when its decimal exponent lies in
# [-4, 16]. _slots writes the finite x with 1e-4 <= |x| < 1e15 itself and
# the rest (0, subnormals, tiny, huge, inf, NaN) with "%.17g".
_FIXED_LO, _FIXED_HI = 1e-4, 1e15


def _quad_table() -> np.ndarray:
    """The four ASCII digits of 0..9999 as one uint32 each, at 0..9999, and
    the same with the trailing '0's as NUL bytes, at 10000..19999."""
    d = np.empty((2, 10000, 4), np.uint8)
    # d[0, i]: the ASCII digits of i
    d[0] = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T + np.uint8(48)
    kept = np.logical_or.accumulate(d[0, :, ::-1] != 48, axis=1)[:, ::-1]
    np.multiply(d[0], kept, out=d[1])
    return d.view(np.uint32).ravel()


def _fixed6_table() -> np.ndarray:
    """The three 4-byte groups of "%.6f" of 0..999 as one uint32 each: at
    [0] a NUL byte and the integer digits, with the leading '0's but the
    last as NUL bytes; at [1] ".ddd"; at [2] "ddd" and a NUL byte."""
    ddd = _QUADS[:1000].view(np.uint8).reshape(1000, 4)[:, 1:]
    kept = np.logical_or.accumulate(ddd != 48, axis=1)
    kept[:, 2] = True
    t = np.zeros((3, 1000, 4), np.uint8)
    t[0, :, 1:] = ddd * kept
    t[1, :, 0] = 46  # '.'
    t[1, :, 1:] = t[2, :, :3] = ddd
    return t.view(np.uint32)[..., 0]


def _decade_tables() -> Tuple[np.ndarray, np.ndarray]:
    """(_KEY_OF_E, _NEXT_OF_E) over the binary exponents E = _E_SLOW..50 of
    np.frexp, that is over the binades 2^(E-1) <= a < 2^E. A binade spans a
    factor 2 < 10, so it meets at most two decades: the decade k of 2^(E-1)
    and k + 1. The tables hold the key k + 4 and the double nearest
    10^(k+1), so that a has the key _KEY_OF_E[E] + (a >= _NEXT_OF_E[E]).
    The double nearest 10^j, j = -4..15, is 10^j or just above it, so a
    double a >= 10^j exactly when a >= that double. The binades below the
    one that holds 1e-4 (k = -5) get _SLOW and inf: among them is that of
    the sentinel _SLOW_A, the one value _decade_keys puts there."""
    decades = np.array([float(f"1e{j}") for j in range(-5, 16)])
    E = np.arange(_E_SLOW, 51)
    k = np.searchsorted(decades, np.ldexp(1.0, E - 1), side="right") - 6
    slow = np.ldexp(1.0, E) <= _FIXED_LO
    key = np.where(slow, _SLOW, k + 4).astype(np.int8)
    return key, np.where(slow, np.inf, decades.take(k + 6))


_QUADS = _quad_table()
_FIXED6 = _fixed6_table()
_POW10 = np.array([float(10**p) for p in range(23)])  # exact doubles
# Veltkamp's split of 10^p into two halves, for the two-product
_POW10_SPLIT = split(_POW10)
_SLOW = 19  # the sort key of the values "%.17g" writes: after the 19 exponents
# _decade_keys puts every value "%.17g" writes at 2^-20, in the binade
# E = _E_SLOW, far below the fast range; a finite a, so the two-product
# that runs over it raises no warning
_SLOW_A = 2.0**-20
_E_SLOW = int(np.frexp(_SLOW_A)[1])
_KEY_OF_E, _NEXT_OF_E = _decade_tables()
# points_text writes |x| < 999 itself: x 10^6 stays below 2^31, and the
# integer part has at most 3 digits
_FIXED6_HI = 999.0
_SLOW_MARK = 1  # the byte that stands for a value written by "%.6f"


def csv_lines(table: np.ndarray) -> List[bytes]:
    """The CSV lines of a 2-D float table, as ASCII bytes blocks of
    CHUNK_ROWS rows each: "%.17g" % x for every number, "," between the
    numbers of a row and "\\n" after each row."""
    return csv_tables(table, [slice(None)])[0]


def csv_tables(table: np.ndarray, layouts: Sequence[Union[Sequence[int], slice]]
               ) -> List[List[bytes]]:
    """The CSV lines of several tables made of the columns of one 2-D float
    table, from one pass of the "%.17g" kernel over it: for each layout, a
    sequence of column indices (or a slice of the columns), the csv_lines
    blocks of table[:, layout]. A number that several layouts share is
    formatted once."""
    table = np.asarray(table, dtype=float)
    blocks: List[List[bytes]] = [[] for _ in layouts]
    for i in range(0, len(table), CHUNK_ROWS):
        for out, lines in zip(blocks, _block(table[i:i + CHUNK_ROWS], layouts)):
            out.append(lines)
    return blocks


def _block(rows: np.ndarray, layouts) -> List[bytes]:
    """The CSV lines of each layout of a block of rows, from one _slots
    pass; the slots are freed on return."""
    slots, at = _slots(rows)
    return [_lines(slots, at[:, cols]) for cols in layouts]


def _lines(slots: np.ndarray, at: np.ndarray) -> bytes:
    """The CSV lines of a block of rows whose values sit in slots at the
    row indices at, of shape (rows, columns)."""
    if at.shape[1] == 0:  # no numbers: an empty line per row
        return b"\n" * len(at)
    line = slots.take(at, axis=0)
    line[..., 24] = 44  # ','
    line[:, -1, 24] = 10  # '\n'
    return line.tobytes().translate(None, b"\0")


def _decade_keys(ax: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(key, a) of the absolute values ax: for 1e-4 <= |x| < 1e15, the key
    k + 4 of the decade k = floor(log10 |x|) and a = |x|; for every other
    value (0, subnormals, tiny, huge, inf, NaN), _SLOW and a = _SLOW_A."""
    fast = (ax >= _FIXED_LO) & (ax < _FIXED_HI)  # False on NaN
    a = np.where(fast, ax, _SLOW_A)
    E = np.frexp(a)[1] - _E_SLOW
    return _KEY_OF_E.take(E) + (a >= _NEXT_OF_E.take(E)), a


def _slots(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The "%.17g" text of every value of a block of rows: (slots, at), a
    25-byte slot per value and, in at of the block's shape, the index of
    each value's slot.

    For x in fixed notation with exponent k = floor(log10|x|), the 17
    significant digits are N = round-half-even(|x| 10^(16-k)) in
    [10^16, 10^17). Dekker's two-product gives |x| 10^(16-k) = hi + lo
    exactly (10^p is exact for p <= 22), and hi >= 10^16 > 2^53 is an even
    integer, so N = hi + rint(lo) rounds as "%.17g" does. N never carries to
    10^17: the double below 10^(k+1) lies at least half an ulp, 5e-17
    10^(k+1), below it. A slot is [sign, text, separator] with NUL in the
    bytes not written; _lines writes the separators, and deleting the NULs
    leaves the lines. The values are sorted by k, so that each exponent
    lays out its digits with slices.
    """
    x = rows.ravel()
    n = x.size
    key, a = _decade_keys(np.abs(x))
    order = np.argsort(key, kind="stable")  # a radix sort on int8
    counts = np.bincount(key, minlength=_SLOW + 1)
    a = a.take(order)
    # 10^(16 - k) of each sorted row, split
    b, bhi, blo = (np.repeat(t[20:0:-1], counts) for t in (_POW10, *_POW10_SPLIT))
    hi, lo = two_product(a, b, (bhi, blo))
    N = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # the digits d0, d1..d16 at columns 3..19 of a (n, 20) array whose uint32
    # columns 1..4 take the 4-digit groups, with the trailing zeros of N as
    # NUL bytes; int32 division is cheaper than int64 division
    top = N // 10**8
    low = (N - top * 10**8).astype(np.int32)
    top = top.astype(np.int32)
    d0 = top // 10**8
    top -= d0 * 10**8
    g1, g3 = top // 10**4, low // 10**4
    g2, g4 = top - g1 * 10**4, low - g3 * 10**4
    digits = np.empty((n, 20), np.uint8)
    quads = digits.view(np.uint32)
    zero = g4 == 0
    quads[:, 4] = _QUADS.take(g4 + 10000)
    quads[:, 3] = _QUADS.take(g3 + 10000 * zero)
    zero &= g3 == 0
    quads[:, 2] = _QUADS.take(g2 + 10000 * zero)
    zero &= g2 == 0
    quads[:, 1] = _QUADS.take(g1 + 10000 * zero)
    digits[:, 3] = d0 + 48
    digits = digits[:, 3:]

    out = np.zeros((n, 25), np.uint8)
    out[:, 0] = np.signbit(x).view(np.uint8).take(order) * np.uint8(45)  # '-'
    start = 0
    for key_e in np.flatnonzero(counts[:_SLOW]):
        e, end = key_e - 4, start + counts[key_e]
        d, o = digits[start:end], out[start:end]
        if e >= 0:  # d0..de '.' d(e+1)..d16
            o[:, 1:e + 2] = d[:, :e + 1] | 48  # integer digits keep their '0's
            # d(e+1) is NUL exactly when the whole fraction is zero
            o[:, e + 2] = (d[:, e + 1] != 0).view(np.uint8) * np.uint8(46)
            o[:, e + 3:19] = d[:, e + 1:]
        else:  # '0.', -e-1 zeros, d0..d16
            o[:, 1:2 - e] = 48
            o[:, 2] = 46
            o[:, 2 - e:19 - e] = d
        start = end
    if start < n:
        slow = np.array(["%.17g" % v for v in x.take(order[start:]).tolist()], dtype="S24")
        out[start:, :24] = slow.view(np.uint8).reshape(-1, 24)
    at = np.empty_like(order)
    at[order] = np.arange(n)
    return out, at.reshape(rows.shape)


def points_text(polylines: Sequence[np.ndarray]) -> List[str]:
    """The SVG points of each (n, 2) polyline: "%.6f,%.6f" % (x, y) for
    every point, joined by " ", from one pass over all the polylines."""
    values = np.concatenate([np.asarray(p, dtype=float).ravel() for p in polylines])
    sep = np.full(values.size, 32, np.uint8)  # ' '
    sep[::2] = 44  # ','
    ends = np.cumsum([np.size(p) for p in polylines])
    sep[ends[ends > 0] - 1] = 10  # '\n' after the last number of a polyline
    lines = iter(_fixed6(values, sep).split("\n"))
    return [next(lines) if np.size(p) else "" for p in polylines]


def _fixed6(x: np.ndarray, sep: np.ndarray) -> str:
    """"%.6f" % v followed by its separator byte, for every v of x.

    For |x| < 999, Dekker's two-product gives |x| 10^6 = hi + lo exactly,
    and ulp(hi) <= 1/2, so d = hi - rint(hi) is exact. The half-even rounding
    of hi + lo is rint(hi), except where hi lies halfway between two
    integers: then it is hi rounded toward lo, and rint(hi) when lo = 0, that
    is rint(hi) + sign(lo) where 2d = sign(lo). Each value gets a 12-byte
    slot [sign, 3 integer digits, '.', 6 decimals, separator] with NUL in
    the bytes not written, and deleting the NULs leaves the text. Every
    other value (|x| >= 999, inf, NaN) gets a mark byte there, replaced by
    "%.6f" % v.
    """
    ax = np.abs(x)
    fast = ax < _FIXED6_HI  # False on NaN
    hi, lo = two_product(np.where(fast, ax, 0.0), 1e6)
    N = np.rint(hi)
    d, s = hi - N, np.sign(lo)
    N += (d + d == s) * s
    N = N.astype(np.int32)  # below 10^9; int32 division is cheaper
    whole = N // 10**6
    frac = N - whole * 10**6
    thousands = frac // 1000
    slots = np.empty((x.size, 3), np.uint32)
    slots[:, 0] = _FIXED6[0].take(whole)
    slots[:, 1] = _FIXED6[1].take(thousands)
    slots[:, 2] = _FIXED6[2].take(frac - thousands * 1000)
    text = slots.view(np.uint8)
    # the first byte of each slot, NUL in the table, takes the sign
    text[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(45)  # '-'
    slow = np.flatnonzero(~fast)
    text[slow] = 0
    text[slow, 0] = _SLOW_MARK
    text[:, 11] = sep
    out = text.tobytes().translate(None, b"\0").decode("ascii")
    if not slow.size:
        return out
    parts = out.split(chr(_SLOW_MARK))
    for i, v in enumerate(x[slow].tolist()):
        parts[i] += "%.6f" % v
    return "".join(parts)

"""The text of float tables as CSV lines, byte-identical to "%.17g".

CPython's "%.17g" rounds correctly, one number at a time, through the
bignum path of dtoa. csv_lines forms the same digits for a whole block
of rows with numpy: an exact Dekker two-product gives the 17 significant
digits of each number in fixed notation, and a table of 4-digit groups
turns them into text. Every other number is passed to "%.17g" itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CHUNK_ROWS", "csv_lines"]


# Rows per pass of _rows: its buffers stay small and in cache.
CHUNK_ROWS = 1024
# "%.17g" writes x in fixed notation when its decimal exponent lies in
# [-4, 16]. _rows writes the finite x with 1e-4 <= |x| < 1e15 itself and
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


_QUADS = _quad_table()
# _DECADES[j + 5] is the double nearest 10^j, j = -5..16: each is 10^j or just
# above it, so a double x >= 10^j exactly when x >= _DECADES[j + 5]
_DECADES = np.array([float(f"1e{j}") for j in range(-5, 17)])
_POW10 = np.array([float(10**p) for p in range(23)])  # exact doubles
# Veltkamp's split of 10^p into two halves, for Dekker's two-product
_SPLIT = 134217729.0  # 2^27 + 1
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_SLOW = 19  # the sort key of the values "%.17g" writes: after the 19 exponents


def csv_lines(table: np.ndarray) -> str:
    """The CSV lines of a 2-D float table: "%.17g" % x for every number,
    "," between the numbers of a row and "\\n" after each row."""
    table = np.asarray(table, dtype=float)
    if table.shape[1] == 0:  # no numbers: an empty line per row
        return "\n" * len(table)
    return "".join(_rows(table[i:i + CHUNK_ROWS]) for i in range(0, len(table), CHUNK_ROWS))


def _rows(rows: np.ndarray) -> str:
    """csv_lines of a block of rows.

    For x in fixed notation with exponent k = floor(log10|x|), the 17
    significant digits are N = round-half-even(|x| 10^(16-k)) in
    [10^16, 10^17). Dekker's two-product gives |x| 10^(16-k) = hi + lo
    exactly (10^p is exact for p <= 22), and hi >= 10^16 > 2^53 is an even
    integer, so N = hi + rint(lo) rounds as "%.17g" does. N never carries to
    10^17: the double below 10^(k+1) lies at least half an ulp, 5e-17
    10^(k+1), below it. Each value gets a 25-byte slot [sign, text,
    separator] with NUL in the bytes not written, and deleting the NULs
    leaves the lines. The values are sorted by k, so that each exponent
    lays out its digits with slices.
    """
    ncols = rows.shape[1]
    x = rows.ravel()
    n = x.size
    ax = np.abs(x)
    fast = (ax >= _FIXED_LO) & (ax < _FIXED_HI)  # False on NaN
    a = np.where(fast, ax, 1.0)  # no log10(0), no split of inf
    k = np.floor(np.log10(a)).astype(np.intp)
    k += a >= _DECADES.take(k + 6)
    k -= a < _DECADES.take(k + 5)
    key = np.where(fast, k + 4, _SLOW).astype(np.int8)
    order = np.argsort(key, kind="stable")  # a radix sort on int8
    counts = np.bincount(key, minlength=_SLOW + 1)
    a, xs = a.take(order), x.take(order)
    # 10^(16 - k) of each sorted row, split
    b, bhi, blo = (np.repeat(t[20:0:-1], counts) for t in (_POW10, _POW10_HI, _POW10_LO))
    hi = a * b
    c = _SPLIT * a
    ahi = c - (c - a)
    alo = a - ahi
    lo = ((ahi * bhi - hi) + ahi * blo + alo * bhi) + alo * blo
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
    out[:, 0] = np.signbit(xs).view(np.uint8) * np.uint8(45)  # '-'
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
        slow = np.array(["%.17g" % v for v in xs[start:].tolist()], dtype="S24")
        out[start:, :24] = slow.view(np.uint8).reshape(-1, 24)
    unsort = np.empty_like(order)
    unsort[order] = np.arange(n)
    line = out.take(unsort, axis=0)
    line[:, 24] = 44  # ','
    line[ncols - 1::ncols, 24] = 10  # '\n'
    return line.tobytes().translate(None, b"\0").decode("ascii")

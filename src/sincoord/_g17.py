"""'%.17g' text for blocks of doubles, formatted as whole arrays.

For a double v with decade E (10^E <= |v| < 10^(E+1)) the seventeen
significant digits of '%.17g' are the integer N = round(|v| 10^(16-E)).
The product is formed exactly as a double-double: 10^(16-E) is held as a
correctly rounded pair hi + lo, built from Python integers, and hi*|v| is
split by Dekker's error-free product (Numer. Math. 18, 1971).  What is left
of the true product is below 1e-14, so N is the nearest integer unless the
fraction lies within `_TIE` of one half.  Those values, and every value
outside the range where the split can neither overflow nor underflow (inf,
nan, nonzero |v| outside [1e-280, 1e280]) or whose decade is still wrong
after one correction, are formatted by CPython's correctly rounded '%.17g'
instead.  Either way each value gets the bytes '%.17g' % v gives.

The text is laid out by mask.  Each value has a row of source bytes that
holds every piece its text can have, in text order: the sign, "0.000",
the digits, a point, the digits again, and the exponent and separator.
The mask row chosen by (sign, notation, significant digits) keeps the
pieces of the value's text, so the kept bytes of a block, read in order,
are its text.

All arithmetic is on doubles that hold integers exactly, with casts to
integers only to index tables, and the tables are built from bytes and
Python lists: a numpy loop that no other part of the program runs adds
its machine code to the memory the process holds.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_LOG10_E = 0.4342944819032518  # 1 / ln 10; the decade it gives is corrected
_RANGE = (1e-280, 1e280)
# Exponents k of the table of 10^k; |v| in _RANGE needs 16 - E with E one
# decade past floor(log10|v|) either way, and 10^300 still splits finitely.
_KMIN, _KMAX = -270, 300
# Decades E of the class and exponent tables: every finite double and more.
_EMAX = 330
# Distance from one half within which the computed fraction cannot decide
# the rounding; the product's own error is below 1e-14.
_TIE = 1e-6

# Byte offsets in a source row.  The digits d0..d16 are written twice, at
# _A (the digits before the point) and at _B (those after it); the four
# digit groups after d0 and |E| are aligned uint32 words.
_MINUS, _ZEROS, _A, _POINT, _B = 0, 1, 7, 24, 27  # _ZEROS holds "0.000"
_E, _EXP, _SEP = 45, 48, 52  # "e+-" at _E, |E| as four digits at _EXP
_ROW = 56
# A value that CPython formats has its text, of at most _TEXT_MAX bytes (as
# in -2.2250738585072014e-308), at the start of the row.
_TEXT_MAX = 24
# Layout classes: fixed notation for E in -4..16, then scientific with an
# exponent of two digits (E >= 0, E < 0) and of three (E >= 0, E < 0).
_CLASSES = 25
_KEYS = 2 * _CLASSES * 17


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999, one uint32 word each, and the
    number of trailing zeros among them."""
    chars = bytearray(40000)
    for i, place in enumerate((1000, 100, 10, 1)):
        run = b"".join(bytes([c]) * place for c in b"0123456789")
        chars[i::4] = run * (1000 // place)
    zeros = np.zeros(10000)
    for count, place in enumerate((10, 100, 1000, 10000), start=1):
        zeros[::place] = count
    return np.frombuffer(chars, np.uint32), zeros


def _class_keys() -> np.ndarray:
    """The first layout row, for 17 digits and sign +, of each decade
    -_EMAX.._EMAX."""
    wide = _EMAX - 99  # decades with three exponent digits, of each sign
    classes = [24] * wide + [22] * 95 + list(range(21)) + [21] * 83 + [23] * wide
    return np.array([c * 17.0 + 16.0 for c in classes])


def _masks() -> np.ndarray:
    """Which source bytes make the text of each layout, separator included.

    Row (s * _CLASSES + c) * 17 + k - 1 lays out a value of sign s, class c
    and k significant digits; the _TEXT_MAX rows after them keep a text of
    length 1.._TEXT_MAX from the start of the row.
    """
    grid = np.indices((2, _CLASSES, 17), dtype=float).reshape(3, -1, 1)
    s, c, k = grid[0], grid[1], grid[2] + 1.0
    e = c - 4.0
    sci = c >= 21.0
    small = ~sci & (e < 0.0)  # 0.000d0d1...
    before = np.where(sci, 1.0, np.where(small, k, e + 1.0))  # digits before the point
    after = np.where(small, k, before)  # index of the first digit after it
    j = np.arange(float(_ROW))
    keep = (j == _MINUS) & (s == 1.0)
    keep |= small & (j >= _ZEROS) & (j < _ZEROS + 1.0 - e)
    keep |= (j >= _A) & (j < _A + before)
    keep |= (j == _POINT) & (k > after)
    keep |= (j >= _B + after) & (j < _B + k)
    sign = np.where((c == 21.0) | (c == 23.0), _E + 1.0, _E + 2.0)  # "+" or "-"
    digits = np.where(c >= 23.0, _SEP - 3.0, _SEP - 2.0)
    keep |= sci & ((j == _E) | (j == sign) | (j >= digits) & (j < _SEP))
    text = j < np.arange(1.0, _TEXT_MAX + 1.0)[:, None]
    keep = np.concatenate([keep, text])
    keep[:, _SEP] = True
    return keep


class BlockFormatter:
    """Formats blocks of rows of doubles as '%.17g' text, the values of a
    row joined by ',' and each row ended by a newline.

    The tables are built when the formatter is made, except the powers of
    ten, each of which is added the first time a block needs it.
    """

    def __init__(self, columns: int, max_rows: int):
        self._digits, self._zeros = _digit_tables()
        self._chars = np.frombuffer(b"0123456789", np.uint8)
        # |E| for E = -_EMAX.._EMAX
        self._exponents = np.concatenate(
            [self._digits[_EMAX:0:-1], self._digits[: _EMAX + 1]]
        )
        self._classes = _class_keys()
        self._masks = _masks()
        size = _KMAX - _KMIN + 1
        self._powers = np.zeros((3, size))  # hi split in two halves, and lo
        self._known = np.zeros(size, dtype=bool)
        # the constant bytes of a row, put back where a text overwrote them
        self._template = np.zeros(_ROW, dtype=np.uint8)
        for at, chars in ((_MINUS, b"-0.000"), (_POINT, b"."), (_E, b"e+-")):
            self._template[at : at + len(chars)] = np.frombuffer(chars, np.uint8)
        self._src = np.tile(self._template, (columns * max_rows, 1))
        self._src[:, _SEP] = ord(",")
        self._src[columns - 1 :: columns, _SEP] = ord("\n")

    def _scaled(self, a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h + r = a * 10^(16 - e) to within 1e-14, h a double and |r| < 20."""
        i = ((16 - _KMIN) - e).astype(np.intp)
        lo, hi = int(i.min()), int(i.max())
        if not self._known[lo : hi + 1].all():
            for j in np.flatnonzero(~self._known[lo : hi + 1]) + lo:
                self._powers[:, j] = _power_of_ten(int(j) + _KMIN)
                self._known[j] = True
        p1, p2, plo = np.take(self._powers, i, axis=1)
        h = a * (p1 + p2)
        # Dekker: a = a1 + a2 in 26-bit halves, so every partial product is
        # exact and h + r is a * (p1 + p2) exactly before plo is added
        a1 = _SPLIT * a
        a2 = a1 - a
        a1 -= a2
        np.subtract(a, a1, out=a2)
        r = a1 * p1
        r -= h
        t = np.empty_like(r)
        for x, y in ((a1, p2), (a2, p1), (a2, p2), (a, plo)):
            r += np.multiply(x, y, out=t)
        return h, r

    def _decimal(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """N // 10^8, N % 10^8, E and whether they are exact, for each value.

        N and E are 0 for a zero, and CPython must format the values they
        are not exact for.
        """
        a = np.abs(v)
        zero = a == 0.0
        exact = (a >= _RANGE[0]) & (a <= _RANGE[1])
        a[~exact] = 1.0
        exact |= zero
        e = np.floor(np.log(a) * _LOG10_E)
        h, r = self._scaled(a, e)
        low = _below(h, r, 1e16)
        off = np.flatnonzero(low | ~_below(h, r, 1e17))
        if len(off):
            e[off] += np.where(low[off], -1.0, 1.0)
            h[off], r[off] = self._scaled(a[off], e[off])
            wrong = _below(h[off], r[off], 1e16) | ~_below(h[off], r[off], 1e17)
            exact[off[wrong]] = False
        exact &= np.abs(r - np.floor(r) - 0.5) >= _TIE
        # N = h + rint(r) split at 10^8; the quotient of h by 10^8 can be one
        # off, and the product and differences are exact, so one carry fixes it
        top = np.floor(h / 1e8)
        bottom = h - top * 1e8
        bottom += np.rint(r)
        carry = np.floor(bottom / 1e8)
        top += carry
        bottom -= carry * 1e8
        ten = top == 1e9  # N rounded up to 10^17
        top[ten] = 1e8
        e[ten] += 1.0
        top[zero] = bottom[zero] = e[zero] = 0.0
        return top, bottom, e, exact

    def format(self, block: np.ndarray) -> str:
        """The text of a (rows, columns) block, as the doubles of its values."""
        v = np.asarray(block, dtype=np.float64).ravel()
        top, bottom, e, exact = self._decimal(v)
        d0 = np.floor(top / 1e8)
        top -= d0 * 1e8
        g1, g3 = np.floor(top / 1e4), np.floor(bottom / 1e4)
        groups = (g1, top - g1 * 1e4, g3, bottom - g3 * 1e4)
        src = self._src[: len(v)]
        words = src.view(np.uint32)
        src[:, _A] = src[:, _B] = np.take(self._chars, d0.astype(np.intp))
        for i, g in enumerate(groups, start=1):
            word = np.take(self._digits, g.astype(np.intp))
            words[:, _A // 4 + i] = words[:, _B // 4 + i] = word
        rows = (e + _EMAX).astype(np.intp)
        words[:, _EXP // 4] = np.take(self._exponents, rows)

        # 17 significant digits less the trailing zeros, counted a group
        # of four at a time from the last (a zero's "0" is one digit)
        key = np.take(self._classes, rows)
        key += np.where(np.signbit(v), _CLASSES * 17.0, 0.0)
        key -= np.take(self._zeros, groups[3].astype(np.intp))
        rest = np.flatnonzero(groups[3] == 0.0)
        for g in groups[2::-1]:
            if not len(rest):
                break
            key[rest] -= np.take(self._zeros, g[rest].astype(np.intp))
            rest = rest[g[rest] == 0.0]
        texts = np.flatnonzero(~exact)
        for i in texts:
            text = b"%.17g" % v[i]
            src[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
            key[i] = _KEYS + len(text) - 1

        kept = src[np.take(self._masks, key.astype(np.intp), axis=0)]
        src[texts, :_TEXT_MAX] = self._template[:_TEXT_MAX]
        return kept.tobytes().decode("ascii")


def _below(h: np.ndarray, r: np.ndarray, bound: float) -> np.ndarray:
    """h + r < bound, for a bound that is a double with h near it."""
    return (h < bound) | ((h == bound) & (r < 0.0))


def _power_of_ten(k: int) -> tuple[float, float, float]:
    """10^k as hi + lo, both correctly rounded, with hi split in two halves."""
    if k >= 0:
        exact = 10**k
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        den = 10**-k
        hi = 1 / den
        num, twos = hi.as_integer_ratio()
        lo = (twos - num * den) / (twos * den)
    c = _SPLIT * hi
    hi1 = c - (c - hi)
    return hi1, hi - hi1, lo

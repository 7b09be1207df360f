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
holds every piece its text can have, each once, in text order: a prefix of
the sign and the first digit, with the point after it ("-7.") or "0." and
zeros before it ("-0.007"), the other digits, and the exponent and
separator.  Fixed notation at a decade E of 1..16 moves E digits left, over
the point, and writes the point after them.  The mask row chosen by (sign,
notation, significant digits) keeps the pieces of the value's text, so the
kept bytes of a block, read in order, are its text: two runs a value.
`format_block` reads the rows and columns from the block's shape: a ','
follows each value and a newline ends each row.

The tables are module constants, built once per process when the module is
first imported; each power of ten is computed the first time a block needs
it and kept for the rest of the process.  All arithmetic is on doubles
that hold integers exactly, with casts to integers only to index tables,
and the tables are built from bytes and Python lists: a numpy loop that no
other part of the program runs adds its machine code to the memory the
process holds.
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

# Byte offsets in a source row.  The prefix is a uint64 word, right-aligned
# before _DIGITS; d1..d16 follow as four uint32 words, and the exponent text
# is one at _EXP: "e-05", or "-305" after an "e" at _EXP - 1.
_POINT, _DIGITS, _EXP, _SEP = 7, 8, 28, 32
_ROW = 36
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


def _decade_tables(digits: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each decade -_EMAX.._EMAX: the first layout row, for 17 digits
    and sign +; 10 m for the prefix of fixed notation at E = -m, else 0;
    and the exponent text."""
    wide = _EMAX - 99  # decades with three exponent digits, of each sign
    classes = np.array([24] * wide + [22] * 95 + [*range(21)] + [21] * 83 + [23] * wide, float)
    exponents = np.concatenate([digits[_EMAX:0:-1], digits[: _EMAX + 1]])
    chars = exponents.view(np.uint8).reshape(-1, 4)
    chars[: _EMAX + 1, 0] = ord("-")
    chars[_EMAX:, 0] = ord("+")
    chars[wide:-wide, 1] = chars[wide:-wide, 0]
    chars[wide:-wide, 0] = ord("e")
    return classes * 17.0 + 16.0, np.where(classes < 4.0, 40.0 - 10.0 * classes, 0.0), exponents


def _prefixes() -> np.ndarray:
    """The prefix of each sign s, form m (fixed notation at E = -m, or 0)
    and first digit d, as a uint64 word at (5 s + m) 10 + d."""
    texts = [
        (b"-" * s + (b"0." + b"0" * (m - 1) + d if m else d + b".")).rjust(8, b"\0")
        for s in (0, 1) for m in range(5) for d in (bytes([c]) for c in b"0123456789")
    ]
    return np.frombuffer(b"".join(texts), np.uint64)


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
    small = ~sci & (e < 0.0)  # 0.000d0d1..., d0 the last byte of the prefix
    shift = np.where(sci | small, 0.0, e)  # digits moved over the point
    start = _DIGITS - s - np.where(small, 2.0 - e, 2.0)
    end = _POINT + np.where(small | (k > shift + 1.0), k, shift)
    j = np.arange(float(_ROW))
    keep = (j >= start) & (j < end)
    keep |= sci & (j >= np.where(c >= 23.0, _EXP - 1.0, _EXP)) & (j < _SEP)
    text = j < np.arange(1.0, _TEXT_MAX + 1.0)[:, None]
    keep = np.concatenate([keep, text])
    keep[:, _SEP] = True
    return keep


_DIGIT_WORDS, _ZEROS = _digit_tables()
_DECADE_KEYS, _FORMS, _EXPONENTS = _decade_tables(_DIGIT_WORDS)
_PREFIXES = _prefixes()
_MASKS = _masks()
# 10^k for k in _KMIN.._KMAX, hi split in two halves and lo, each computed
# the first time a block needs it: a column of zeros is not computed yet
_POWERS = np.zeros((3, _KMAX - _KMIN + 1))


def format_block(block: np.ndarray) -> str:
    """The '%.17g' text of a (rows, columns) block of doubles, the values of
    a row joined by ',' and each row ended by a newline."""
    columns = block.shape[1]
    v = np.asarray(block, dtype=np.float64).ravel()
    top, bottom, e, exact = _decimal(v)
    d0 = np.floor(top / 1e8)
    top -= d0 * 1e8
    g1, g3 = np.floor(top / 1e4), np.floor(bottom / 1e4)
    groups = (g1, top - g1 * 1e4, g3, bottom - g3 * 1e4)
    # every byte that a mask row keeps is written below
    src = np.empty((len(v), _ROW), dtype=np.uint8)
    src[:, _EXP - 1] = ord("e")
    src[:, _SEP] = ord(",")
    src[columns - 1 :: columns, _SEP] = ord("\n")
    words = src.view(np.uint32)
    rows = (e + _EMAX).astype(np.intp)
    sign = np.where(np.signbit(v), 1.0, 0.0)
    d0 += np.take(_FORMS, rows)  # the row of the prefix
    d0 += sign * 50.0
    src[:, :_DIGITS].view(np.uint64)[:, 0] = np.take(_PREFIXES, d0.astype(np.intp))
    for i, g in enumerate(groups):
        words[:, _DIGITS // 4 + i] = np.take(_DIGIT_WORDS, g.astype(np.intp))
    words[:, _EXP // 4] = np.take(_EXPONENTS, rows)
    wide = np.flatnonzero((e >= 1.0) & (e <= 16.0))
    for decade in {int(d) for d in e[wide].tolist()}:
        at = wide[e[wide] == decade]
        src[at, _POINT : _POINT + decade] = src[at, _DIGITS : _DIGITS + decade]
        src[at, _POINT + decade] = ord(".")

    # 17 significant digits less the trailing zeros, counted a group
    # of four at a time from the last (a zero's "0" is one digit)
    key = np.take(_DECADE_KEYS, rows)
    key += sign * (_CLASSES * 17.0)
    key -= np.take(_ZEROS, groups[3].astype(np.intp))
    rest = np.flatnonzero(groups[3] == 0.0)
    for g in groups[2::-1]:
        if not len(rest):
            break
        key[rest] -= np.take(_ZEROS, g[rest].astype(np.intp))
        rest = rest[g[rest] == 0.0]
    del top, bottom, e, d0, g1, g3, groups, rows, sign, rest  # before the masked copy
    texts = np.flatnonzero(~exact)
    for i in texts:
        text = b"%.17g" % v[i]
        src[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        key[i] = _KEYS + len(text) - 1

    kept = src[np.take(_MASKS, key.astype(np.intp), axis=0)]
    return kept.tobytes().decode("ascii")


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h + r = a * 10^(16 - e) to within 1e-14, h a double and |r| < 20."""
    i = ((16 - _KMIN) - e).astype(np.intp)
    lo = int(i.min())
    for j in np.flatnonzero(_POWERS[0, lo : int(i.max()) + 1] == 0.0) + lo:
        _POWERS[:, j] = _power_of_ten(int(j) + _KMIN)
    p1, p2, plo = np.take(_POWERS, i, axis=1)
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


def _decimal(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """N // 10^8, N % 10^8, E and whether they are exact, for each value.

    N and E are 0 for a zero, and CPython must format the values they are
    not exact for.
    """
    a = np.abs(v)
    zero = a == 0.0
    exact = (a >= _RANGE[0]) & (a <= _RANGE[1])
    a[~exact] = 1.0
    exact |= zero
    e = np.floor(np.log(a) * _LOG10_E)
    h, r = _scaled(a, e)
    low = _below(h, r, 1e16)
    off = np.flatnonzero(low | ~_below(h, r, 1e17))
    if len(off):
        e[off] += np.where(low[off], -1.0, 1.0)
        h[off], r[off] = _scaled(a[off], e[off])
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

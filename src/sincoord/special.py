"""Special functions: real |Gamma(a + ix)|^2, products over q^k, 1F1 series.

These are deliberately self-contained (no scipy) so that the test suite can
cross-check them against independent implementations.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ParameterOutOfRange, SeriesNotConverged

# Lanczos coefficients for g = 7, n = 9: about 15 significant digits on the
# half plane Re z > 1/2.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
# c_1 .. c_8 as a column, and the rows (k - 1, 1) of the two sums over k
_LANCZOS_TERMS = np.array(_LANCZOS_C[1:])[:, None]
_LANCZOS_ROWS = np.stack((np.arange(8.0), np.ones(8)))

# Entries per block of factors over q^k or of Lanczos terms.
_BLOCK = 2**15


def gamma_abs_sq(a: float, x):
    """|Gamma(a + i x)|^2 for real a > -1/2, vectorised over x, in real
    arithmetic.

    With w = a - 1 + i x and t = w + 7.5, the Lanczos form Gamma(w + 1) =
    sqrt(2 pi) t^(w + 1/2) e^(-t) s gives |Gamma|^2 = 2 pi |s|^2
    exp((a - 1/2) ln|t|^2 - 2 x atan2(x, Re t) - 2 Re t).  With r_k = a - 1 + k
    and d_k = r_k^2 + x^2, s = c_0 + sum_k c_k / (w + k) has Re s = c_0 +
    sum_k c_k r_k / d_k and Im s = -x sum_k c_k / d_k: one (2, 8) x (8, M)
    matrix product over a block of M nodes, at most _BLOCK entries.  Below
    a = 1/2, where the approximation loses accuracy, the shift
    |Gamma(a + i x)|^2 = |Gamma(a + 1 + i x)|^2 / (a^2 + x^2) is used.
    """
    if not a > -0.5:
        raise ParameterOutOfRange(f"|Gamma(a + ix)|^2 needs a > -1/2, got a={a}")
    xs = np.asarray(x, dtype=float)
    flat, out = xs.ravel(), np.empty(xs.size)
    b = a + 1.0 if a < 0.5 else a
    t, rows = b + _LANCZOS_G - 0.5, _LANCZOS_ROWS + [[b], [0.0]]
    r2, cols = np.square(rows[0])[:, None], _BLOCK // 8
    for start in range(0, flat.size, cols):
        xb, block = flat[start:start + cols], out[start:start + cols]
        x2 = xb * xb
        s_re, s_im = rows @ (_LANCZOS_TERMS / (r2 + x2))
        np.exp((b - 0.5) * np.log(t * t + x2) - 2.0 * (xb * np.arctan2(xb, t) + t), out=block)
        block *= 2.0 * math.pi * ((s_re + _LANCZOS_C[0]) ** 2 + x2 * s_im * s_im)
        if b != a:
            block /= a * a + x2
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def q_product(q: float, floor: float, size: int, fill, dtype=float) -> np.ndarray:
    """The product over k of the factor rows that `fill` writes, for the
    powers q^k from q^0 while |q^k| >= floor, at each of `size` entries.

    The powers are formed a column at a time by `np.multiply.accumulate`
    from the power carried over, the same products as repeated
    multiplication.  `fill(qks, out)` writes into the rows of `out` the
    factors of a column `qks` of consecutive powers, one row per k.  A
    block of about _BLOCK entries is filled under the running product as
    row 0 and reduced down its first axis, which multiplies in the order
    ((r f_k) f_{k+1}) ... of a loop over k.  The first block is the
    largest and is allocated once, so memory stays flat although the
    number of factors grows like 1 / |ln q|.
    """
    if not 0.0 < floor < math.inf:
        raise ParameterOutOfRange(f"power floor must be positive and finite, got {floor}")
    rows = max(1, _BLOCK // max(1, size))
    # |q^k| >= floor up to k = ln(floor) / ln|q|; one more power covers the
    # rounding of the repeated products
    reach = math.log(floor) / math.log(abs(q)) if 0.0 < floor <= 1.0 else 0.0
    count = int(reach) + 2
    result = np.ones(size, dtype=dtype)
    block, qk, done = None, 1.0, 0
    while abs(qk) >= floor:
        # past a low estimate two at a time, never more than the first block
        qks = np.full((min(rows, max(count - done, 2)), 1), q)
        qks[0] = qk
        np.multiply.accumulate(qks, out=qks)
        keep = int(np.count_nonzero(np.abs(qks) >= floor))
        if block is None:
            block = np.empty((keep + 1, size), dtype=dtype)
        part = block[: keep + 1]
        part[0] = result
        fill(qks[:keep], part[1:])
        result = part.prod(axis=0)
        if keep < len(qks):
            break
        qk, done = float(qks[-1, 0]) * q, done + keep
    return result


def qpochhammer(z, q: float):
    """Infinite q-shifted factorial (z; q)_inf = prod_{k>=0} (1 - z q^k).

    The product is truncated once |q|^k < 1e-17 / (1 + |z|), past which the
    remaining factors differ from one by less than double-precision
    rounding.  An array z gives the product at each entry, each with its
    own truncation; a NaN or infinite entry is refused.

    The factors 1 - z q^k (1 past an entry's truncation) are multiplied in
    blocks by `q_product`, in the order of a loop over k, so arrays of two
    or more entries get the same bits as that loop.  A lone entry may
    differ in the last bits: numpy reduces a single contiguous axis with
    its scalar complex multiply, not the fused multiply-add kernel of
    elementwise products.
    """
    if not 0.0 < abs(q) < 1.0:
        raise ParameterOutOfRange(f"infinite product needs 0 < |q| < 1, got q={q}")
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    if not np.isfinite(flat).all():
        raise ParameterOutOfRange(f"(z; q)_inf needs a finite z, got {z}")
    cutoff = 1e-17 / (1.0 + np.abs(flat))

    def fill(qks, out):
        np.subtract(1.0, flat * qks, out=out)
        out[np.abs(qks) < cutoff] = 1.0

    result = q_product(q, cutoff.min(initial=1e-17), flat.size, fill, complex)
    if zs.ndim == 0:
        return complex(result[0])
    return result.reshape(zs.shape)


def hyp1f1(a, b, z) -> complex:
    """Confluent hypergeometric 1F1(a; b; z) by its power series.

    Terms are accumulated until they fall below 1e-17 of the running sum.
    Intended for moderate |z|; raises SeriesNotConverged past 1000 terms
    or when the sum is not finite.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    term = 1.0 + 0j
    total = term
    settled = False
    for k in range(1000):
        term *= (a + k) / (b + k) * z / (k + 1)
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)):
            settled = True
            break
    # an infinite term meets the stopping test once the sum is infinite too
    if not cmath.isfinite(total):
        raise SeriesNotConverged(f"1F1 series is not finite at a={a}, b={b}, z={z}")
    if not settled:
        raise SeriesNotConverged(
            f"1F1 series did not settle within 1000 terms at z={z}"
        )
    return total

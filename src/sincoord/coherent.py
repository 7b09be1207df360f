"""Lowering-operator eigenstates and their series coefficients.

An eigenstate of the lowering operator with eigenvalue lambda expands over
the eigenbasis with coefficients c_n = lambda^n / (C_1 C_2 ... C_n), where
C_k are the lowering coefficients.  For the deformed oscillator the summed
series collapses to a confluent hypergeometric closed form, checked here
against an independent 1F1 evaluation.
"""

from __future__ import annotations

import numbers
import sys
from functools import lru_cache

import numpy as np

from .errors import ParameterOutOfRange, SeriesNotConverged
from .operators import _band_apply, build_ladder
from .polynomials import eval_all, recurrence
from .report import CheckReport, make_report
from .special import hyp1f1
from .systems import (
    _CACHE_SIZE,
    DeformedOscillator,
    SystemSpec,
    require_samples,
    require_size,
)


def coherent_coeffs(spec: SystemSpec, lam: complex, truncation: int) -> np.ndarray:
    """c_n = lam^n / prod_{k=1..n} C_k, n = 0 .. truncation, via the stable
    one-step recursion; c_0 = 1.

    Raises ParameterOutOfRange for a lam that is not one finite number or a
    truncation that is not an integer, negative or past the size cap, and
    SeriesNotConverged when a coefficient overflows.  The array is read-only
    and shared between calls with the same arguments.
    """
    require_size("truncation", truncation)
    # complex first, so that 0.3, 0.3 + 0j and numpy scalars share one entry
    return _series(spec, _require_lambda(lam), truncation)


def _require_lambda(lam) -> complex:
    """lam as a complex; raise ParameterOutOfRange unless it is one number
    (`numbers.Complex`: not a str, bytes, None, `Decimal` or an array) whose
    real and imaginary parts pass `require_real`'s finiteness test, made
    before any conversion."""
    if not isinstance(lam, numbers.Complex):
        raise ParameterOutOfRange(f"eigenvalue must be a number, got lambda={lam!r}")
    top = sys.float_info.max
    if not (abs(lam.real) <= top and abs(lam.imag) <= top):
        raise ParameterOutOfRange(f"eigenvalue must be finite, got lambda={lam}")
    return complex(lam)


@lru_cache(maxsize=_CACHE_SIZE)
def _series(spec: SystemSpec, lam: complex, truncation: int) -> np.ndarray:
    lowering = recurrence(spec).table("C", truncation + 1)
    # each term a complex128 scalar, whose arithmetic has the array's bits
    term = np.complex128(1.0)
    terms = [term]
    # an overflow, or a zero C_k (none on a valid system), is reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for c_n in lowering.tolist():
            term = lam * term / c_n
            terms.append(term)
    coeffs = np.array(terms)
    overflow = np.flatnonzero(~np.isfinite(coeffs))
    if overflow.size:
        raise SeriesNotConverged(
            f"coefficient c_{overflow[0]} overflows at lambda={lam}"
        )
    coeffs.setflags(write=False)
    return coeffs


def check_eigenvalue(
    spec: SystemSpec, lam: complex, truncation: int, guard: int
) -> CheckReport:
    """a_minus c = lam c on the coefficient vector, away from the guard band.

    Rows 0 .. truncation - guard - 1 are checked; raises ParameterOutOfRange
    unless G >= 1 and truncation >= G + 1, which leaves at least one.
    """
    require_size("G", guard, 1)
    require_size("truncation", truncation, guard + 1)
    lam = _require_lambda(lam)
    coeffs = coherent_coeffs(spec, lam, truncation)
    rows = truncation - guard
    n_dim = truncation + guard
    lowering = build_ladder(spec, n_dim, guard).a_minus
    padded = np.zeros(n_dim, dtype=complex)
    padded[: truncation + 1] = coeffs
    residual = _band_apply(lowering, padded) - lam * padded
    scale = np.maximum(1.0, np.abs(lam * padded[:rows]))
    worst = float(np.max(np.abs(residual[:rows]) / scale))
    return make_report(
        "coherent_eigenvalue",
        worst,
        1e-10,
        truncation=truncation,
        G=guard,
        lam_real=float(lam.real),
        lam_imag=float(lam.imag),
    )


def check_mp_hypergeometric(
    a: float,
    lam: complex,
    x_samples,
    truncation: int = 60,
) -> CheckReport:
    """Deformed-oscillator eigenstate series vs its 1F1 closed form.

    Compares sum_n c_n P_n(x) against e^{2 i lam} 1F1(a + ix; 2a; -4 i lam)
    pointwise.  Raises ParameterOutOfRange unless the x samples are one
    number or a flat sequence of at least one finite real number, and
    SeriesNotConverged if the last retained term is not negligible at some
    sample.  The sum runs up to the last nonzero coefficient; when that lies
    before the truncation, the last retained term c_truncation P_truncation
    is zero.
    """
    spec = DeformedOscillator(a)
    lam = _require_lambda(lam)
    xs = require_samples("x", x_samples)
    coeffs = coherent_coeffs(spec, lam, truncation)
    # past the last nonzero coefficient a level adds only 0.0 * P_n, which
    # changes no sum and is NaN where P_n overflows, so the sum stops there
    last = int(np.flatnonzero(coeffs)[-1])
    phase, z = np.exp(2j * lam), -4j * lam
    worst = 0.0
    # an overflowing series or 1F1 sum leaves the residual not finite, and
    # make_report refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        polys = eval_all(spec, last, xs)
        series = (coeffs[: last + 1, None] * polys).sum(axis=0)
        last_terms = np.abs(coeffs[last] * polys[last]) if last == truncation else 0.0
        scale = np.maximum(1.0, np.abs(series))
        if np.any(last_terms > 1e-14 * scale):
            raise SeriesNotConverged(
                f"series tail {last_terms.max():.3e} above 1e-14 at truncation "
                f"{truncation}"
            )
        for x, lhs in zip(xs.tolist(), series):
            rhs = phase * hyp1f1(complex(spec.a, x), 2.0 * spec.a, z)
            worst = np.maximum(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return make_report(
        "coherent_1f1",
        worst,
        1e-10,
        a=spec.a,
        samples=len(xs),
        truncation=truncation,
        lam_real=float(lam.real),
        lam_imag=float(lam.imag),
    )

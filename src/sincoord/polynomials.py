"""Eigenpolynomials by three-term recurrence, weights, and quadrature norms.

Conventions follow the standard normalisations of the hypergeometric
families involved (Jacobi, Meixner-Pollaczek at phase pi/2, Askey-Wilson),
which is exactly the normalisation in which the ladder coefficients printed
for these systems hold verbatim.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterOutOfRange, QuadratureNotConverged
from .systems import PoschlTeller, SystemSpec, validate


@dataclass(frozen=True)
class RecurrenceData:
    """Coefficients in eta P_n = A_n P_{n+1} + B_n P_n + C_n P_{n-1}.

    C(0) would multiply the nonexistent P_{-1}; asking for it raises.
    """

    A: Callable[[int], float]
    B: Callable[[int], float]
    C: Callable[[int], float]


def _guard_c(fn: Callable[[int], float]) -> Callable[[int], float]:
    def c(n: int) -> float:
        if n < 1:
            raise ParameterOutOfRange("C_0 multiplies P_{-1} and is never defined")
        return fn(n)

    return c


@lru_cache(maxsize=None)
def recurrence(spec: SystemSpec) -> RecurrenceData:
    """Three-term recurrence coefficients for the system's eigenpolynomials."""
    validate(spec)
    a_coef, b_coef, c_coef = spec.recurrence_coefficients()
    return RecurrenceData(a_coef, b_coef, _guard_c(c_coef))


def eval_all(spec: SystemSpec, n_max: int, eta) -> np.ndarray:
    """P_0 .. P_{n_max} at the coordinate values eta, shape (n_max+1, ...)."""
    eta_arr = np.asarray(eta, dtype=float)
    rec = recurrence(spec)
    out = np.empty((n_max + 1,) + eta_arr.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = (eta_arr - rec.B(0)) / rec.A(0)
    for n in range(1, n_max):
        out[n + 1] = ((eta_arr - rec.B(n)) * out[n] - rec.C(n) * out[n - 1]) / rec.A(n)
    return out


def eval_poly(spec: SystemSpec, n: int, eta):
    """P_n(eta) by forward recurrence from P_0 = 1."""
    if n < 0:
        raise ParameterOutOfRange(f"polynomial degree must be >= 0, got n={n}")
    values = eval_all(spec, n, eta)[n]
    if np.ndim(eta) == 0:
        return float(values)
    return values


@dataclass(frozen=True)
class WeightFunction:
    """Ground-state density, coordinate map, and its derivative."""

    domain: tuple[float, float]
    density: Callable
    eta: Callable
    deta_dx: Callable


@lru_cache(maxsize=None)
def weight(spec: SystemSpec) -> WeightFunction:
    """Pointwise-evaluable squared ground state and coordinate map."""
    validate(spec)
    return WeightFunction(
        domain=spec.domain, density=spec.density, eta=spec.eta, deta_dx=spec.deta_dx
    )


def _quad_nodes(spec: SystemSpec, n_max: int, refine: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the system's quadrature interval."""
    lo, hi, count = spec.quadrature_interval(n_max)
    t, w = np.polynomial.legendre.leggauss(count * refine)
    half_width = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half_width * t, half_width * w


def gram_matrix(spec: SystemSpec, n_max: int, refine: int = 1) -> np.ndarray:
    """Quadrature Gram matrix G[m, n] = integral of density * P_m * P_n."""
    wf = weight(spec)
    x, w = _quad_nodes(spec, n_max, refine)
    rho = wf.density(x)
    polys = eval_all(spec, n_max, wf.eta(x))
    return (polys * (w * rho)) @ polys.T


@lru_cache(maxsize=None)
def _norms_cached(spec: SystemSpec, n_max: int) -> tuple[float, ...]:
    coarse = np.diag(gram_matrix(spec, n_max, refine=1))
    fine = np.diag(gram_matrix(spec, n_max, refine=2))
    if np.any(fine <= 0.0):
        raise QuadratureNotConverged("quadrature produced a nonpositive norm")
    drift = np.max(np.abs(coarse - fine) / fine)
    if drift > 1e-8:
        raise QuadratureNotConverged(
            f"norms moved by {drift:.3e} relative under node doubling"
        )
    return tuple(float(v) for v in fine)


def norms(spec: SystemSpec, n_max: int) -> np.ndarray:
    """Squared norms h_n of phi_n = phi_0 P_n, n = 0 .. n_max, by quadrature.

    Convergence is asserted by node doubling at 1e-8 relative.
    """
    validate(spec)
    if isinstance(spec, PoschlTeller) and min(spec.g, spec.h) < 1.0:
        warnings.warn(
            "g or h below 1 puts an endpoint singularity in the density; "
            "plain Gauss-Legendre norms are lower accuracy here",
            stacklevel=2,
        )
    return np.array(_norms_cached(spec, n_max), dtype=float)

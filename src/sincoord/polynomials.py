"""Eigenpolynomials by three-term recurrence, weights, and quadrature norms.

Conventions follow the standard normalisations of the hypergeometric
families involved (Jacobi, Meixner-Pollaczek at phase pi/2, Askey-Wilson),
which is exactly the normalisation in which the ladder coefficients printed
for these systems hold verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterOutOfRange, QuadratureNotConverged
from .systems import _CACHE_SIZE, SystemSpec


@dataclass(frozen=True)
class RecurrenceData:
    """Coefficients in eta P_n = A_n P_{n+1} + B_n P_n + C_n P_{n-1}.

    Each takes an int n or an int array of them and returns a float or a
    float array.  C(0) would multiply the nonexistent P_{-1}; asking for it
    raises.
    """

    A: Callable
    B: Callable
    C: Callable


def _guard_c(fn: Callable) -> Callable:
    def c(n):
        if np.any(np.less(n, 1)):
            raise ParameterOutOfRange("C_0 multiplies P_{-1} and is never defined")
        return fn(n)

    return c


@lru_cache(maxsize=_CACHE_SIZE)
def recurrence(spec: SystemSpec) -> RecurrenceData:
    """Three-term recurrence coefficients for the system's eigenpolynomials."""
    a_coef, b_coef, c_coef = spec.recurrence_coefficients()
    return RecurrenceData(a_coef, b_coef, _guard_c(c_coef))


def eval_all(spec: SystemSpec, n_max: int, eta) -> np.ndarray:
    """P_0 .. P_{n_max} at the coordinate values eta, shape (n_max+1, ...)."""
    eta_arr = np.asarray(eta, dtype=float)
    rec = recurrence(spec)
    degrees = np.arange(n_max)
    a, b = rec.A(degrees).tolist(), rec.B(degrees).tolist()
    c = [0.0] + rec.C(degrees[1:]).tolist()  # C_0 is never used
    out = np.empty((n_max + 1,) + eta_arr.shape, dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = (eta_arr - b[0]) / a[0]
    for n in range(1, n_max):
        out[n + 1] = ((eta_arr - b[n]) * out[n] - c[n] * out[n - 1]) / a[n]
    return out


@dataclass(frozen=True)
class WeightFunction:
    """Ground-state density, coordinate map, and its derivative."""

    domain: tuple[float, float]
    density: Callable
    eta: Callable
    deta_dx: Callable


@lru_cache(maxsize=_CACHE_SIZE)
def weight(spec: SystemSpec) -> WeightFunction:
    """Pointwise-evaluable squared ground state and coordinate map."""
    return WeightFunction(
        domain=spec.domain, density=spec.density, eta=spec.eta, deta_dx=spec.deta_dx
    )


def _weighted_polys(spec: SystemSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """P_0 .. P_{n_max} at the family's quadrature nodes, and the weights
    times the density there."""
    x, w = spec.quadrature_nodes(n_max)
    return eval_all(spec, n_max, spec.eta(x)), w * spec.density(x)


def gram_matrix(spec: SystemSpec, n_max: int) -> np.ndarray:
    """Quadrature Gram matrix G[m, n] = integral of density * P_m * P_n."""
    polys, weights = _weighted_polys(spec, n_max)
    return (polys * weights) @ polys.T


def norms(spec: SystemSpec, n_max: int) -> np.ndarray:
    """Squared norms h_n of phi_n = phi_0 P_n, n = 0 .. n_max, by quadrature.

    The rule is each family's `quadrature_nodes`; it never uses the
    recurrence coefficients, so the norms stay an independent oracle for
    them.  Convergence is asserted by node doubling at 1e-8 relative.
    """
    # a density that overflows gives non-finite norms, refused just below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        polys, weights = _weighted_polys(spec, n_max)
        squares = polys * polys
        fine = squares @ weights
        # every other node with doubled weight: the same rule at twice the step
        coarse = squares[:, 1::2] @ (2.0 * weights[1::2])
    if np.any(fine <= 0.0):
        raise QuadratureNotConverged("quadrature produced a nonpositive norm")
    if not np.all(np.isfinite(fine)):
        raise QuadratureNotConverged("quadrature produced a non-finite norm")
    drift = np.max(np.abs(coarse - fine) / fine)
    if not drift <= 1e-8:
        raise QuadratureNotConverged(
            f"norms moved by {drift:.3e} relative under node doubling"
        )
    return fine

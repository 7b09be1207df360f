"""Eigenpolynomials by three-term recurrence, and their quadrature norms.

Conventions follow the standard normalisations of the hypergeometric
families involved (Jacobi, Meixner-Pollaczek at phase pi/2, Askey-Wilson),
which is exactly the normalisation in which the ladder coefficients printed
for these systems hold verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterOutOfRange, QuadratureNotConverged
from .systems import _CACHE_SIZE, SystemSpec, _require_points, require_size


@dataclass(frozen=True)
class RecurrenceData:
    """Coefficients in eta P_n = A_n P_{n+1} + B_n P_n + C_n P_{n-1}.

    Each takes an int n or an int array of them and returns a float or a
    float array.  C(0) would multiply the nonexistent P_{-1}; asking for it
    raises.

    `table` hands out the leading entries of one memoised array per
    coefficient, so a system's coefficients are formed once however many
    callers ask for them.
    """

    A: Callable
    B: Callable
    C: Callable
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def table(self, name: str, stop: int) -> np.ndarray:
        """The coefficient `name` ("A", "B" or "C") at n = first .. stop-1,
        where first is 0 for A and B and 1 for C, as a read-only array.

        Each coefficient keeps its own array, grown to the largest stop
        asked for by one call of its function on the missing indices; a
        smaller request gets a slice of it.  Every entry has the bits of
        the elementwise call on any array holding its index.
        """
        first = 1 if name == "C" else 0
        count = max(stop - first, 0)
        memo = self._tables.get(name, np.empty(0))
        if count > memo.size:
            tail = getattr(self, name)(np.arange(first + memo.size, first + count))
            memo = np.concatenate((memo, tail))
            memo.setflags(write=False)
            self._tables[name] = memo
        return memo[:count]


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
    """P_0 .. P_{n_max} at the coordinate values eta, shape (n_max+1, ...).

    Each row is written in place as ((eta - B_n) P_n - C_n P_{n-1}) / A_n:
    one broadcast subtraction puts eta - B_n in row n + 1 for every n, and
    each level then takes four in-place ufunc calls.  Raises
    ParameterOutOfRange for an n_max that `require_size` refuses, and for
    points of a dtype other than bool, integer or float, or not finite.
    """
    require_size("n_max", n_max)
    points = _require_points("eta", eta)
    rec = recurrence(spec)
    a = rec.table("A", n_max).tolist()
    c = [0.0] + rec.table("C", n_max).tolist()  # C_0 is never used
    out = np.empty((n_max + 1,) + points.shape, dtype=float)
    # rows of the flattened points, so that a 0-d eta also gets array rows
    x, flat = points.reshape(-1), out.reshape(n_max + 1, -1)
    flat[0] = 1.0
    np.subtract(x, rec.table("B", n_max)[:, None], flat[1:])
    rows = list(flat)
    if n_max >= 1:
        np.divide(rows[1], a[0], rows[1])
    spare = np.empty_like(x)
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    for n in range(1, n_max):
        new = rows[n + 1]
        multiply(new, rows[n], new)
        multiply(c[n], rows[n - 1], spare)
        subtract(new, spare, new)
        divide(new, a[n], new)
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def weight(spec: SystemSpec) -> SystemSpec:
    """The family itself, whose `domain`, `density`, `eta` and `deta_dx` are
    the pointwise-evaluable squared ground state and coordinate map."""
    return spec


def _weighted_polys(spec: SystemSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """P_0 .. P_{n_max} at the family's quadrature nodes, and the weights
    times the density there."""
    require_size("n_max", n_max)
    x, w = spec.quadrature_nodes(n_max)
    return eval_all(spec, n_max, spec.eta(x)), w * spec.density(x)


def gram_matrix(spec: SystemSpec, n_max: int) -> np.ndarray:
    """Quadrature Gram matrix G[m, n] = integral of density * P_m * P_n."""
    polys, weights = _weighted_polys(spec, n_max)
    return (polys * weights) @ polys.T


def norms(spec: SystemSpec, n_max: int) -> np.ndarray:
    """Squared norms h_n of phi_n = phi_0 P_n, n = 0 .. n_max, by quadrature.

    The nodes, weights and density are each family's `quadrature_nodes`
    and `density`, which never use the recurrence coefficients; the P_n
    themselves come from `eval_all`, which does.  Convergence is asserted
    by node doubling at 1e-8 relative.
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

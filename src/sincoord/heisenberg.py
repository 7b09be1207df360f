"""Exact operator time evolution of the coordinate in the energy eigenbasis.

Two independent realisations are kept side by side:

* the closed-form evolution assembled from [H, eta], eta, and diagonal
  functions of H (the frequencies and the constant part of the frequency
  split, `operators.build_solution`), and
* an elementwise phase oracle exp(i (E_m - E_n) t) * eta_mn, which is what
  conjugation by exp(i t H) does to any matrix in the eigenbasis and uses
  neither the R-polynomials nor the frequencies.

Both act on the three diagonals of the tridiagonal operators.  Each kernel
takes a vector of T times and returns (T, 3, N) bands, one operator per
time; `exact_evolution` and `oracle_evolution` call them with a single
time.  `check_heisenberg` reads eta, [H, eta] and the split once and runs
its time grid through both in blocks of at most `_BLOCK_ENTRIES` // N
times, so its memory stays O(N) however long the grid is.  The split's sum
of parts, `HeisenbergSolution.evolve`, is the closed form expanded.
"""

from __future__ import annotations

import numpy as np

from .operators import (
    HeisenbergSolution,
    build_basic,
    build_solution,
    _level_gaps,
    _phases,
    _plus_diagonal,
    _window,
)
from .report import CheckReport, make_report
from .systems import SystemSpec, require_samples

DEFAULT_T_GRID = (0.0, 0.1, 0.37, 1.0, 2.5, 5.0)

# Times x levels evaluated at once: N <= 512 runs the default grid in one
# block, and a block of (T, 3, N) complex bands stays near 0.2 MiB.
_BLOCK_ENTRIES = 4096


def _closed_form(eta, comm, solution: HeisenbergSolution, phase_p, phase_m) -> np.ndarray:
    """(T, 3, N) bands of [H, eta] osc(H) - R(H) + (eta + R(H)) mix(H) at
    the times of the phases, with R = R-1/R0 = -`constant_part` and every
    function of H multiplying from the right."""
    ap, am, constant = solution.freq_plus, solution.freq_minus, solution.constant_part
    denom = ap - am
    osc = (phase_p - phase_m) / denom
    mix = (-am * phase_p + ap * phase_m) / denom
    out = comm * osc[:, None, :]
    out[:, 1] += constant
    out += _plus_diagonal(eta, -constant) * mix[:, None, :]
    return out


def _phase_oracle(eta, gaps, times: np.ndarray) -> np.ndarray:
    """(T, 3, N) bands of eta_mn e^{i (E_m - E_n) t}."""
    return eta * np.exp(1j * gaps * times[:, None, None])


def exact_evolution(spec: SystemSpec, n_dim: int, guard: int, t: float) -> np.ndarray:
    """Closed-form e^{itH} eta e^{-itH} from eta, [H, eta] and the
    frequency split.

    Every function of H multiplies from the right as a diagonal.
    """
    _, eta, comm = build_basic(spec, n_dim, guard)
    solution = build_solution(spec, n_dim, guard)
    phases = _phases(solution.freq_plus, solution.freq_minus, require_samples("t", (t,)))
    return _closed_form(eta, comm, solution, *phases)[0]


def oracle_evolution(spec: SystemSpec, n_dim: int, guard: int, t: float) -> np.ndarray:
    """Elementwise phase oracle: (eta)_mn e^{i (E_m - E_n) t}."""
    levels, eta, _ = build_basic(spec, n_dim, guard)
    return _phase_oracle(eta, _level_gaps(levels), require_samples("t", (t,)))[0]


def check_heisenberg(
    spec: SystemSpec,
    n_dim: int,
    guard: int,
    t_samples=DEFAULT_T_GRID,
) -> CheckReport:
    """Closed form vs phase oracle.

    Residuals are entrywise over the interior window, per-column relative
    where the family has `relative_residuals`.  The operators and the
    frequencies are built once; the time samples then run through the
    kernels in blocks, each sample costing O(N).  The details are N, G and
    the t samples.  Raises ParameterOutOfRange unless the t samples are one
    number or a flat sequence of at least one finite real number.
    """
    grid = require_samples("t", t_samples)
    levels, eta, comm = build_basic(spec, n_dim, guard)
    solution = build_solution(spec, n_dim, guard)
    gaps = _level_gaps(levels)
    step = max(1, _BLOCK_ENTRIES // n_dim)

    def comparisons():
        # a generator: make_report reduces each block before the next is formed
        for start in range(0, len(grid), step):
            block = grid[start : start + step]
            phases = _phases(solution.freq_plus, solution.freq_minus, block)
            exact = _closed_form(eta, comm, solution, *phases)
            oracle = _phase_oracle(eta, gaps, block)
            yield _window(spec, exact - oracle, guard, oracle)

    return make_report(
        "heisenberg_evolution", comparisons(), spec.tolerances["heisenberg_evolution"],
        N=n_dim, G=guard, t_samples=grid.tolist(),
    )

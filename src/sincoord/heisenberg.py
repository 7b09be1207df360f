"""Exact operator time evolution of the coordinate in the energy eigenbasis.

Two independent realisations are compared on the three diagonals:

* the frequency split's sum of parts a_plus e^{i alpha_plus t} - R(H) +
  a_minus e^{i alpha_minus t} (`operators._evolved`), whose parts are the
  ladder pair that the ladder checks hold to A_n and C_n, and
* an elementwise phase oracle exp(i (E_m - E_n) t) * eta_mn, which is what
  conjugation by exp(i t H) does to any matrix in the eigenbasis and uses
  neither the R-polynomials nor the frequencies.

Each kernel takes a vector of T times and returns (T, 3, N) bands;
`exact_evolution` (through `HeisenbergSolution.evolve`) and
`oracle_evolution` call them with one time.  `check_heisenberg` runs its
time grid through both in blocks of at most `_BLOCK_ENTRIES` // N times, so
its memory stays O(N) however long the grid is.
"""

from __future__ import annotations

import numpy as np

from .operators import (
    HeisenbergSolution,  # unused: bench/spans.py resolves heisenberg.HeisenbergSolution
    build_basic,
    build_solution,
    _evolved,
    _level_gaps,
    _window,
)
from .report import CheckReport, make_report
from .systems import SystemSpec, require_samples

DEFAULT_T_GRID = (0.0, 0.1, 0.37, 1.0, 2.5, 5.0)

# Times x levels evaluated at once: N <= 512 runs the default grid in one
# block, and a block of (T, 3, N) complex bands stays near 0.2 MiB.
_BLOCK_ENTRIES = 4096


def _phase_oracle(eta, gaps, times: np.ndarray) -> np.ndarray:
    """(T, 3, N) bands of eta_mn e^{i (E_m - E_n) t}."""
    return eta * np.exp(1j * gaps * times[:, None, None])


def exact_evolution(spec: SystemSpec, n_dim: int, guard: int, t: float) -> np.ndarray:
    """e^{itH} eta e^{-itH}, the frequency split's sum of parts (`evolve`)."""
    return build_solution(spec, n_dim, guard).evolve(t)


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
    """The frequency split's sum of parts vs the phase oracle.

    Residuals are entrywise over the interior window, per-column relative
    where the family has `relative_residuals`.  The operators and the
    frequencies are built once; the time samples then run through the
    kernels in blocks, each sample costing O(N).  The details are N, G and
    the t samples.  Raises ParameterOutOfRange unless the t samples are one
    number or a flat sequence of at least one finite real number.
    """
    grid = require_samples("t", t_samples)
    levels, eta, _ = build_basic(spec, n_dim, guard)
    solution = build_solution(spec, n_dim, guard)
    gaps = _level_gaps(levels)
    step = max(1, _BLOCK_ENTRIES // n_dim)

    def comparisons():
        # a generator: make_report reduces each block before the next is formed
        for start in range(0, len(grid), step):
            block = grid[start : start + step]
            exact = _evolved(solution, block)
            oracle = _phase_oracle(eta, gaps, block)
            yield _window(spec, exact - oracle, guard, oracle)

    return make_report(
        "heisenberg_evolution", comparisons(), spec.tolerances["heisenberg_evolution"],
        N=n_dim, G=guard, t_samples=grid.tolist(),
    )

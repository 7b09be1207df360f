"""Exact operator time evolution of the coordinate in the energy eigenbasis.

Two independent realisations are kept side by side:

* the closed-form evolution assembled from [H, eta], eta, and diagonal
  functions of H (frequencies and the R-ratio), and
* an elementwise phase oracle exp(i (E_m - E_n) t) * eta_mn, which is what
  conjugation by exp(i t H) does to any matrix in the eigenbasis and uses
  none of the closure data.

Both act on the three diagonals of the tridiagonal operators.  Each kernel
takes a vector of T times and returns (T, 3, N) bands, one operator per
time; `exact_evolution`, `oracle_evolution` and `HeisenbergSolution.evolve`
call them with a single time.  `check_heisenberg` builds eta, [H, eta] and
the frequencies once and runs its time grid through the kernels in blocks
of at most `_BLOCK_ENTRIES` // N times, so its memory stays O(N) however
long the grid is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    build_basic,
    build_ladder,
    _closure_data,
    _column_max,
    _level_gaps,
    _plus_diagonal,
    _window_max,
)
from .report import CheckReport, make_report
from .systems import SystemSpec, require_samples

DEFAULT_T_GRID = (0.0, 0.1, 0.37, 1.0, 2.5, 5.0)

# Times x levels evaluated at once: N <= 512 runs the default grid in one
# block, and a block of (T, 3, N) complex bands stays near 0.2 MiB.
_BLOCK_ENTRIES = 4096


def _phases(ap: np.ndarray, am: np.ndarray, times: np.ndarray):
    """e^{i alpha_plus t} and e^{i alpha_minus t}, shape (T, N)."""
    t = times[:, None]
    return np.exp(1j * ap * t), np.exp(1j * am * t)


@dataclass(frozen=True)
class HeisenbergSolution:
    """Positive/negative frequency split of the evolved coordinate."""

    a_plus: np.ndarray
    a_minus: np.ndarray
    constant_part: np.ndarray
    freq_plus: np.ndarray
    freq_minus: np.ndarray

    def split_bands(self, phase_p: np.ndarray, phase_m: np.ndarray) -> np.ndarray:
        """(T, 3, N) bands of a_plus e^{i a+ t} + const + a_minus e^{i a- t}
        from the phases of `_phases` (diagonals right)."""
        out = self.a_plus * phase_p[:, None, :]
        out[:, 1] += self.constant_part
        out += self.a_minus * phase_m[:, None, :]
        return out

    def evolve(self, t: float) -> np.ndarray:
        """a_plus e^{i a+ t} + const + a_minus e^{i a- t} (diagonals right)."""
        phases = _phases(self.freq_plus, self.freq_minus, require_samples("t", (t,)))
        return self.split_bands(*phases)[0]


def build_solution(spec: SystemSpec, n_dim: int, guard: int) -> HeisenbergSolution:
    a_plus, a_minus = build_ladder(spec, n_dim, guard)
    *_, ratio, ap, am = _closure_data(spec, n_dim, guard)
    return HeisenbergSolution(
        a_plus=a_plus,
        a_minus=a_minus,
        constant_part=-ratio,
        freq_plus=ap,
        freq_minus=am,
    )


def _closed_form(eta, comm, ratio, ap, am, phase_p, phase_m) -> np.ndarray:
    """(T, 3, N) bands of [H, eta] osc(H) - R(H) + (eta + R(H)) mix(H) at
    the times of the phases, with R = R-1/R0 and every function of H
    multiplying from the right."""
    denom = ap - am
    osc = (phase_p - phase_m) / denom
    mix = (-am * phase_p + ap * phase_m) / denom
    out = comm * osc[:, None, :]
    out[:, 1] += -ratio
    out += _plus_diagonal(eta, ratio) * mix[:, None, :]
    return out


def _phase_oracle(eta, gaps, times: np.ndarray) -> np.ndarray:
    """(T, 3, N) bands of eta_mn e^{i (E_m - E_n) t}."""
    return eta * np.exp(1j * gaps * times[:, None, None])


def exact_evolution(spec: SystemSpec, n_dim: int, guard: int, t: float) -> np.ndarray:
    """Closed-form e^{itH} eta e^{-itH} from the closure data.

    Every function of H multiplies from the right as a diagonal.
    """
    eta, comm, _, ratio, ap, am = _closure_data(spec, n_dim, guard)
    phases = _phases(ap, am, require_samples("t", (t,)))
    return _closed_form(eta, comm, ratio, ap, am, *phases)[0]


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
    """Closed form vs phase oracle, and vs the frequency-split decomposition.

    Residuals are entrywise over the interior window, per-column relative
    where the family has `relative_residuals`.  The operators and the
    frequencies are built once; the time samples then run through the
    kernels in blocks, each sample costing O(N).  Raises
    ParameterOutOfRange unless the t samples are one number or a flat
    sequence of at least one finite number.
    """
    grid = require_samples("t", t_samples)
    eta, comm, levels, ratio, ap, am = _closure_data(spec, n_dim, guard)
    solution = build_solution(spec, n_dim, guard)
    gaps = _level_gaps(levels)
    worst_oracle = 0.0
    worst_split = 0.0
    step = max(1, _BLOCK_ENTRIES // n_dim)
    for start in range(0, len(grid), step):
        block = grid[start : start + step]
        phases = _phases(ap, am, block)
        exact = _closed_form(eta, comm, ratio, ap, am, *phases)
        oracle = _phase_oracle(eta, gaps, block)
        split = solution.split_bands(*phases)
        off_oracle, off_split = np.abs(exact - oracle), np.abs(exact - split)
        if spec.relative_residuals:
            col_scale = _column_max(np.abs(oracle), guard, 1.0)[:, None, :]
            off_oracle /= col_scale
            off_split /= col_scale
        worst_oracle = np.maximum(worst_oracle, _window_max(off_oracle, guard))
        worst_split = np.maximum(worst_split, _window_max(off_split, guard))
    return make_report(
        "heisenberg_evolution",
        np.maximum(worst_oracle, worst_split),
        spec.tolerances["heisenberg_evolution"],
        N=n_dim,
        G=guard,
        max_vs_oracle=float(worst_oracle),
        max_vs_decomposition=float(worst_split),
        t_samples=grid.tolist(),
    )

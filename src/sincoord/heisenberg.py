"""Exact operator time evolution of the coordinate in the energy eigenbasis.

Two independent realisations are kept side by side:

* the closed-form evolution assembled from [H, eta], eta, and diagonal
  functions of H (frequencies and the R-ratio), and
* an elementwise phase oracle exp(i (E_m - E_n) t) * eta_mn, which is what
  conjugation by exp(i t H) does to any matrix in the eigenbasis and uses
  none of the closure data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrequencies, ParameterOutOfRange
from .operators import (
    LadderPair,
    Normalization,
    TruncatedOperator,
    build_basic,
    build_ladder,
    _frequency_vectors,
)
from .report import CheckReport, make_report
from .systems import SystemSpec, energies

DEFAULT_T_GRID = (0.0, 0.1, 0.37, 1.0, 2.5, 5.0)


@dataclass(frozen=True)
class HeisenbergSolution:
    """Positive/negative frequency split of the evolved coordinate."""

    a_plus: TruncatedOperator
    a_minus: TruncatedOperator
    constant_part: np.ndarray
    freq_plus: np.ndarray
    freq_minus: np.ndarray

    def evolve(self, t: float) -> np.ndarray:
        """a_plus e^{i a+ t} + const + a_minus e^{i a- t} (diagonals right)."""
        up = self.a_plus.entries * np.exp(1j * self.freq_plus * t)[None, :]
        down = self.a_minus.entries * np.exp(1j * self.freq_minus * t)[None, :]
        return up + np.diag(self.constant_part.astype(complex)) + down


def build_solution(spec: SystemSpec, n_dim: int, guard: int) -> HeisenbergSolution:
    pair: LadderPair = build_ladder(spec, n_dim, guard, Normalization.UNIT)
    _, r0v, rm1v, ap, am = _frequency_vectors(spec, n_dim)
    return HeisenbergSolution(
        a_plus=pair.a_plus,
        a_minus=pair.a_minus,
        constant_part=-rm1v / r0v,
        freq_plus=ap,
        freq_minus=am,
    )


def exact_evolution(
    spec: SystemSpec, n_dim: int, guard: int, t: float
) -> TruncatedOperator:
    """Closed-form e^{itH} eta e^{-itH} from the closure data.

    Every function of H multiplies from the right as a diagonal.
    """
    if not math.isfinite(t):
        raise ParameterOutOfRange(f"time must be finite, got t={t}")
    _, eta_op, comm_op = build_basic(spec, n_dim, guard)
    _, r0v, rm1v, ap, am = _frequency_vectors(spec, n_dim)
    denom = ap - am
    if np.any(denom == 0.0):
        raise DegenerateFrequencies("coincident frequencies on the spectrum")
    phase_p = np.exp(1j * ap * t)
    phase_m = np.exp(1j * am * t)
    osc = (phase_p - phase_m) / denom
    mix = (-am * phase_p + ap * phase_m) / denom
    ratio = rm1v / r0v
    entries = (
        comm_op.entries * osc[None, :]
        - np.diag(ratio.astype(complex))
        + (eta_op.entries + np.diag(ratio.astype(complex))) * mix[None, :]
    )
    return TruncatedOperator(dim=n_dim, guard=guard, entries=entries)


def oracle_evolution(
    spec: SystemSpec, n_dim: int, guard: int, t: float
) -> TruncatedOperator:
    """Elementwise phase oracle: (eta)_mn e^{i (E_m - E_n) t}."""
    _, eta_op, _ = build_basic(spec, n_dim, guard)
    levels = energies(spec, n_dim)
    phases = np.exp(1j * (levels[:, None] - levels[None, :]) * t)
    return TruncatedOperator(
        dim=n_dim, guard=guard, entries=eta_op.entries * phases
    )


def check_heisenberg(
    spec: SystemSpec,
    n_dim: int,
    guard: int,
    t_samples=DEFAULT_T_GRID,
    tol: float | None = None,
) -> CheckReport:
    """Closed form vs phase oracle, and vs the frequency-split decomposition.

    Residuals are entrywise over the interior window, per-column relative
    where the family has `relative_residuals`.
    """
    if tol is None:
        tol = spec.tolerances["heisenberg_evolution"]
    solution = build_solution(spec, n_dim, guard)
    d = n_dim - guard
    relative = spec.relative_residuals
    worst_oracle = 0.0
    worst_split = 0.0
    for t in t_samples:
        exact = exact_evolution(spec, n_dim, guard, t).entries
        oracle = oracle_evolution(spec, n_dim, guard, t).entries
        split = solution.evolve(t)
        if relative:
            col_scale = np.maximum(1.0, np.abs(oracle[:d, :d]).max(axis=0))[None, :]
        else:
            col_scale = 1.0
        worst_oracle = max(
            worst_oracle,
            float(np.max(np.abs(exact[:d, :d] - oracle[:d, :d]) / col_scale)),
        )
        worst_split = max(
            worst_split,
            float(np.max(np.abs(exact[:d, :d] - split[:d, :d]) / col_scale)),
        )
    return make_report(
        "heisenberg_evolution",
        max(worst_oracle, worst_split),
        tol,
        N=n_dim,
        G=guard,
        max_vs_oracle=worst_oracle,
        max_vs_decomposition=worst_split,
        t_samples=list(float(t) for t in t_samples),
    )

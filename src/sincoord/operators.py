"""Truncated operators in the energy eigenbasis and the ladder-operator checks.

Every operator here is stored in the shape of its nonzeros over the
unnormalised eigenvectors phi_0 .. phi_{N-1}.  H is its vector of levels.
eta, [H, eta], the ladder pair and the evolved coordinate couple each phi_n
to its nearest neighbours only and are stored as a (3, N) float array of
their three diagonals (complex only for the evolved coordinate) indexed by
column, since column n holds the expansion of (operator phi_n): bands[k, n]
is the entry (n + k - 1, n), so row 0 is (n-1, n) above the diagonal, row 1
(n, n) on it and row 2 (n+1, n) below it; the two slots outside the matrix,
(-1, 0) and (N, N-1), hold zero.  Functions of H multiply the bands
column-wise, in the order the defining expressions are written, and
commutators with H multiply them by the level gaps E_m - E_n.  [a'-, a'+] in
`check_su11` is formed on its five diagonals; `dense` is a dense view for
callers only.  A guard band of the check's G top indices absorbs truncation
damage; identities are only asserted on the interior window 0 .. N-G-1.

The levels and the bands of eta come from one array call of the family's
`energy` and the shared tables of its recurrence coefficients
(`RecurrenceData.table`).  `build_basic`, `_closure_vectors` and
`build_solution` keep their last few results per (system, N, G), so the
checks of one suite build eta, [H, eta], the R-polynomial values and the
frequency split once; the arrays they hand out are read-only.
`build_ladder` reads the ladder pair off the split; `_evolved` sums its
parts at a vector of times, the one formula of the exact evolution.  The
helpers on three bands also take a stack of operators, (T, 3, N) bands with
a leading batch axis, as the Heisenberg time grid uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ComplexFrequencies, ParameterOutOfRange, VanishingFrequency
from .polynomials import norms, recurrence
from .report import CheckReport, make_report
from .systems import (
    _CACHE_SIZE,
    DeformedOscillator,
    SystemSpec,
    alpha_pm,
    energies,
    frequency_pair,
    r_polynomials,
    require_samples,
    require_size,
)


class LadderPair(NamedTuple):
    a_plus: np.ndarray
    a_minus: np.ndarray


def _level_gaps(levels: np.ndarray) -> np.ndarray:
    """E_m - E_n at every band slot (m, n); zero on the diagonal and at the
    two slots outside the matrix."""
    gaps = np.zeros((3, len(levels)))
    gaps[0, 1:] = levels[:-1] - levels[1:]
    gaps[2, :-1] = levels[1:] - levels[:-1]
    return gaps


def _commutator_with_h(levels: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """[H, X] for the diagonal H = diag(levels): entry (m, n) is (E_m - E_n) X_mn."""
    return _level_gaps(levels) * bands


def _plus_diagonal(bands: np.ndarray, values: np.ndarray) -> np.ndarray:
    """X + diag(values), as new bands; X may carry leading batch axes."""
    out = bands.copy()
    out[..., 1, :] = out[..., 1, :] + values
    return out


def _band_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The five diagonals of X Y for real tridiagonal bands x and y: out[i, n]
    is the entry (n + i - 2, n), the sum of X_mk Y_kn over k = n-1, n, n+1 in
    that order."""
    n_dim = x.shape[-1]
    padded = np.zeros((3, n_dim + 2))
    padded[:, 1:-1] = x
    out = np.zeros((5, n_dim))
    for s in range(3):
        # k = n + s - 1: Y_kn = y[s, n], and X_mk = x[j, k] for m = k + j - 1
        out[s : s + 3] += padded[:, s : s + n_dim] * y[s]
    return out


def _band_apply(bands: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """The operator times a vector; row n sums its three entries in column
    order, (n, n-1), (n, n), (n, n+1)."""
    out = np.zeros(bands.shape[-1], dtype=complex)
    out[1:] = bands[2, :-1] * vector[:-1]
    out += bands[1] * vector
    out[:-1] += bands[0, 1:] * vector[1:]
    return out


def dense(bands: np.ndarray) -> np.ndarray:
    """The dense N x N matrix of (3, N) bands, built anew on every call."""
    n_dim = bands.shape[-1]
    cols = np.arange(n_dim)
    out = np.zeros((n_dim, n_dim), dtype=bands.dtype)
    out[cols[:-1], cols[1:]] = bands[0, 1:]
    out[cols, cols] = bands[1]
    out[cols[1:], cols[:-1]] = bands[2, :-1]
    return out


def _window_mask(n_dim: int, guard: int, bands: int = 3) -> np.ndarray:
    """(bands, N) mask of the slots, of `bands` diagonals centred on the main
    one, whose row and column both lie in the window 0 .. N-G-1."""
    mask = np.zeros((bands, n_dim), dtype=bool)
    for i in range(bands):
        shift = i - bands // 2  # slot (i, n) is the entry (n + shift, n)
        mask[i, max(0, -shift) : n_dim - guard - max(0, shift)] = True
    return mask


def _window(spec: SystemSpec, deviation: np.ndarray, guard: int, reference=None):
    """The comparison of the band `deviation`, of three diagonals or five
    (over every operator of a batch), on the window of guard band `guard`:
    the deviation with its guard-band slots zeroed, and its scale.  The
    scale is per column, max(1, the largest |reference| of the column on
    the window), where the family has `relative_residuals` and the check
    gives a reference; else it is 1.0.  The one reader of the residual mode."""
    mask = _window_mask(deviation.shape[-1], guard, deviation.shape[-2])
    inside = np.where(mask, deviation, 0.0)
    if reference is None or not spec.relative_residuals:
        return inside, 1.0
    scale = np.max(np.abs(reference), axis=-2, where=mask, initial=1.0)
    return inside, scale[..., None, :]


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


@lru_cache(maxsize=_CACHE_SIZE)
def build_basic(
    spec: SystemSpec, n_dim: int, guard: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hamiltonian, coordinate operator, and their commutator.

    H is diagonal, so it is handed out as its levels E_0 .. E_{N-1}, a float
    vector; the coordinate is tridiagonal with the recurrence coefficients
    (A_n below, B_n on, C_n above the diagonal, per column n).  The arrays
    are read-only and shared between calls with the same arguments.
    """
    require_size("G", guard, 1)
    require_size("N", n_dim, guard + 2)
    rec = recurrence(spec)
    levels = energies(spec, n_dim)
    eta = np.zeros((3, n_dim))
    eta[0, 1:] = rec.table("C", n_dim)
    eta[1] = rec.table("B", n_dim)
    eta[2, :-1] = rec.table("A", n_dim - 1)
    comm = _commutator_with_h(levels, eta)
    _read_only(levels, eta, comm)
    return levels, eta, comm


@lru_cache(maxsize=_CACHE_SIZE)
def _closure_vectors(spec: SystemSpec, n_dim: int, guard: int):
    """R0, R1 and R-1 on the levels of H (no positivity requirement);
    refuses the first level where one overflows, as R0 ~ E^2 can on finite
    levels (aw at small q).  The arrays are read-only and shared between
    calls with the same arguments."""
    levels = build_basic(spec, n_dim, guard)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        values = tuple(r(levels) for r in r_polynomials(spec))
    bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
    if bad.size:
        raise ParameterOutOfRange(
            f"R0, R1 or R-1 at level E_{bad[0]} overflows double precision for {spec}"
        )
    _read_only(*values)
    return values


@dataclass(frozen=True)
class HeisenbergSolution:
    """Positive/negative frequency split of the evolved coordinate."""

    a_plus: np.ndarray
    a_minus: np.ndarray
    constant_part: np.ndarray
    freq_plus: np.ndarray
    freq_minus: np.ndarray

    def evolve(self, t: float) -> np.ndarray:
        """a_plus e^{i a+ t} + const + a_minus e^{i a- t} (diagonals right)."""
        return _evolved(self, require_samples("t", (t,)))[0]


def _evolved(solution: HeisenbergSolution, times: np.ndarray) -> np.ndarray:
    """(T, 3, N) bands of e^{itH} eta e^{-itH}, `evolve` at each of T times."""
    t = times[:, None]
    out = solution.a_plus * np.exp(1j * solution.freq_plus * t)[:, None, :]
    out[:, 1] += solution.constant_part
    out += solution.a_minus * np.exp(1j * solution.freq_minus * t)[:, None, :]
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def build_solution(spec: SystemSpec, n_dim: int, guard: int) -> HeisenbergSolution:
    """The evolved coordinate split by frequency: with R = R-1/R0 and
    D = alpha_plus - alpha_minus on the spectrum,

        a_plus  = ( [H, eta] - (eta + R) alpha_minus(H)) / D(H),
        a_minus = (-[H, eta] + (eta + R) alpha_plus(H)) / D(H),

    the raising and lowering parts, whose matrix elements are exactly A_n
    and C_n, and the constant part -R.  Demands R0 > 0, which keeps the
    frequencies distinct: the discriminant R1^2 + 4 R0 is then at least
    fl(4 R0) > 0, so its root is at least 4.4e-162, and about |R1| or more
    wherever R1^2 does not underflow, and R1 + root and R1 - root never
    round to one double.  The arrays are read-only and shared between
    calls with the same arguments.
    """
    levels, eta, comm = build_basic(spec, n_dim, guard)
    r0v, r1v, rm1v = _closure_vectors(spec, n_dim, guard)
    if np.any(r0v <= 0.0):
        raise ComplexFrequencies(
            "R0(E_n) must be positive on the truncated spectrum"
        )
    ap, am = frequency_pair(r0v, r1v, levels)
    ratio = rm1v / r0v
    shifted = _plus_diagonal(eta, ratio)
    # times 1/D, as numpy divides complex by real: the complex formula's bits
    inv = 1.0 / (ap - am)
    plus = (comm - shifted * am[None, :]) * inv[None, :]
    minus = (-comm + shifted * ap[None, :]) * inv[None, :]
    constant = -ratio
    _read_only(plus, minus, constant, ap, am)
    return HeisenbergSolution(plus, minus, constant, ap, am)


def build_ladder(spec: SystemSpec, n_dim: int, guard: int) -> LadderPair:
    """Raising/lowering pair: the positive and negative frequency parts of
    the evolved coordinate, read off `build_solution` (its own read-only
    bands)."""
    solution = build_solution(spec, n_dim, guard)
    return LadderPair(solution.a_plus, solution.a_minus)


def check_ladder_action(spec: SystemSpec, n_dim: int, guard: int) -> CheckReport:
    """a_plus phi_n = A_n phi_{n+1} and a_minus phi_n = C_n phi_{n-1}.

    Deviations are measured entrywise on the window, relative per column
    to max(1, |target|) where the family has `relative_residuals`; the
    lowering operator must annihilate the ground state, column 0, whose
    target is zero, absolutely.
    """
    rec = recurrence(spec)
    ap, am = build_ladder(spec, n_dim, guard)
    d = n_dim - guard
    target_up, target_dn = np.zeros((2, 3, n_dim))
    target_up[2, : d - 1] = rec.table("A", d - 1)  # raising acts on 0 .. d-2
    target_dn[0, 1:d] = rec.table("C", d)  # lowering on 1 .. d-1
    raising = _window(spec, ap - target_up, guard, target_up)
    raising[0][:, d - 1] = 0.0  # column d-1 is raised out of the window
    lowering = _window(spec, am - target_dn, guard, target_dn)
    return make_report(
        "ladder_action", [raising, lowering], spec.tolerances["ladder_action"], N=n_dim, G=guard
    )


def check_two_commutator(spec: SystemSpec, n_dim: int, guard: int) -> CheckReport:
    """[H, [H, eta]] = eta R0(H) + [H, eta] R1(H) + R-1(H) on the window."""
    levels, eta, comm = build_basic(spec, n_dim, guard)
    r0v, r1v, rm1v = _closure_vectors(spec, n_dim, guard)
    lhs = _commutator_with_h(levels, comm)
    rhs = _plus_diagonal(eta * r0v[None, :] + comm * r1v[None, :], rm1v)
    comparison = _window(spec, lhs - rhs, guard, lhs)
    return make_report(
        "two_commutator", [comparison], spec.tolerances["two_commutator"], N=n_dim, G=guard
    )


def check_hermitian_conjugacy(spec: SystemSpec, n_dim: int, guard: int) -> CheckReport:
    """In the orthonormalised basis the pair are mutual adjoints.

    Equivalent to the bridge A_n h_{n+1} = C_{n+1} h_n with the quadrature
    norms h_n; checked for n up to min(20, window - 2).
    """
    ap, am = build_ladder(spec, n_dim, guard)
    n_top = min(20, n_dim - guard - 2)
    h = norms(spec, n_top + 1)
    scale = np.sqrt(h)
    below = ap[2, : n_top + 1]  # entry (n+1, n)
    above = am[0, 1 : n_top + 2]  # entry (n-1, n)
    up = below * scale[1:] / scale[:-1]
    down = above * scale[:-1] / scale[1:]
    comparison = (up - down, np.maximum(np.abs(up), np.abs(down)))
    return make_report(
        "hermitian_conjugacy", [comparison], 1e-8, N=n_dim, G=guard, n_top=n_top
    )


def check_su11(a: float, n_dim: int, guard: int) -> CheckReport:
    """su(1,1) relations of the primed pair a'_pm = a_pm (alpha_plus(H) -
    alpha_minus(H)) for the deformed oscillator with parameter a:
    [H, a'_pm] = +/- a'_pm and [a'_minus, a'_plus] = 2 (H + a)."""
    spec = DeformedOscillator(a)
    levels = build_basic(spec, n_dim, guard)[0]
    s = build_solution(spec, n_dim, guard)
    ap, am = (op * (s.freq_plus - s.freq_minus)[None, :] for op in (s.a_plus, s.a_minus))
    res_plus = _commutator_with_h(levels, ap) - ap
    res_minus = _commutator_with_h(levels, am) + am
    res_comm = _band_product(am, ap)
    res_comm -= _band_product(ap, am)
    res_comm[2] -= 2.0 * (levels + spec.a)
    # a generator: make_report forms and reduces one windowed copy at a time
    comparisons = (_window(spec, r, guard) for r in (res_plus, res_minus, res_comm))
    return make_report("su11", comparisons, 1e-12, N=n_dim, G=guard)


def check_ground_state_condition(
    spec: SystemSpec, n_dim: int, guard: int
) -> CheckReport:
    """The lowering-frequency part must vanish on the ground state:
    -[H, eta] phi_0 + (eta alpha_plus(0) - R-1(0)/alpha_minus(0)) phi_0 = 0."""
    _, eta, comm = build_basic(spec, n_dim, guard)
    ap0, am0 = alpha_pm(spec, 0.0)
    if am0 == 0.0:
        raise VanishingFrequency("alpha_minus(0) = 0")
    const = r_polynomials(spec)[2](0.0) / am0
    # column 0 has entries in rows 0 and 1 only, both inside the window
    term_comm = -comm[1:, 0]
    term_eta = ap0 * eta[1:, 0]
    column = term_comm + term_eta
    column[0] -= const
    scale = max(
        1.0,
        float(np.max(np.abs(term_comm))),
        float(np.max(np.abs(term_eta))),
        abs(const),
    )
    return make_report(
        "ground_state", [(column, scale)], spec.tolerances["ground_state"], N=n_dim, G=guard
    )

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
`build_ladder` reads the ladder pair off the split.  The helpers on three
bands also take a stack of operators, (T, 3, N) bands with a leading batch
axis, as the Heisenberg time grid uses them.
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


def _window_max(values: np.ndarray, guard: int) -> float:
    """Largest of the nonnegative band `values`, of three diagonals or five,
    inside the window of guard band `guard`, over every operator of a batch."""
    mask = _window_mask(values.shape[-1], guard, values.shape[-2])
    return float(np.max(values, where=mask, initial=0.0))


def _column_max(values: np.ndarray, guard: int, floor: float) -> np.ndarray:
    """Per column (and per operator of a batch), the largest of `floor` and
    the band `values` inside the window of guard band `guard`."""
    mask = _window_mask(values.shape[-1], guard)
    return np.max(values, axis=-2, where=mask, initial=floor)


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
    model = r_polynomials(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (model.r0(levels), model.r1(levels), model.rm1(levels))
    bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
    if bad.size:
        raise ParameterOutOfRange(
            f"R0, R1 or R-1 at level E_{bad[0]} overflows double precision for {spec}"
        )
    _read_only(*values)
    return values


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

    Deviations are measured entrywise per column, relative to the column
    scale where the family has `relative_residuals`; the lowering
    operator must annihilate the ground state, column 0, absolutely.
    """
    rec = recurrence(spec)
    ap, am = build_ladder(spec, n_dim, guard)
    d = n_dim - guard
    up = rec.table("A", d - 1)  # raising acts on 0 .. d-2
    down = rec.table("C", d)  # lowering on 1 .. d-1
    target_up, target_dn = np.zeros((2, 3, n_dim))
    target_up[2, : d - 1] = up
    target_dn[0, 1:d] = down
    dev_up = _column_max(np.abs(ap - target_up), guard, 0.0)
    dev_dn = _column_max(np.abs(am - target_dn), guard, 0.0)
    dev_up, dev_dn = dev_up[: d - 1], dev_dn[:d]
    if spec.relative_residuals:
        dev_up = dev_up / np.maximum(1.0, np.abs(up))
        dev_dn[1:] = dev_dn[1:] / np.maximum(1.0, np.abs(down))
    worst = np.maximum(np.max(dev_up), np.max(dev_dn))
    return make_report(
        "ladder_action", worst, spec.tolerances["ladder_action"], N=n_dim, G=guard
    )


def check_two_commutator(spec: SystemSpec, n_dim: int, guard: int) -> CheckReport:
    """[H, [H, eta]] = eta R0(H) + [H, eta] R1(H) + R-1(H) on the window."""
    levels, eta, comm = build_basic(spec, n_dim, guard)
    r0v, r1v, rm1v = _closure_vectors(spec, n_dim, guard)
    lhs = _commutator_with_h(levels, comm)
    rhs = _plus_diagonal(eta * r0v[None, :] + comm * r1v[None, :], rm1v)
    diff = np.abs(lhs - rhs)
    if spec.relative_residuals:
        diff = diff / _column_max(np.abs(lhs), guard, 1.0)
    resid = _window_max(diff, guard)
    return make_report(
        "two_commutator", resid, spec.tolerances["two_commutator"], N=n_dim, G=guard
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
    worst = np.max(
        np.abs(up - down) / np.maximum(np.abs(up), np.abs(down)), initial=0.0
    )
    return make_report(
        "hermitian_conjugacy", worst, 1e-8, N=n_dim, G=guard, n_top=n_top
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
    residuals = (res_plus, res_minus, res_comm)
    resid = np.max([_window_max(np.abs(r), guard) for r in residuals])
    return make_report("su11", resid, 1e-12, N=n_dim, G=guard)


def check_ground_state_condition(
    spec: SystemSpec, n_dim: int, guard: int
) -> CheckReport:
    """The lowering-frequency part must vanish on the ground state:
    -[H, eta] phi_0 + (eta alpha_plus(0) - R-1(0)/alpha_minus(0)) phi_0 = 0."""
    _, eta, comm = build_basic(spec, n_dim, guard)
    ap0, am0 = alpha_pm(spec, 0.0)
    if am0 == 0.0:
        raise VanishingFrequency("alpha_minus(0) = 0")
    const = r_polynomials(spec).rm1(0.0) / am0
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
    resid = float(np.max(np.abs(column))) / scale
    return make_report(
        "ground_state", resid, spec.tolerances["ground_state"], N=n_dim, G=guard
    )

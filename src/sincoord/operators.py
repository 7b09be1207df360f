"""Truncated matrices in the energy eigenbasis and the ladder-operator checks.

All operators are dense complex matrices over the unnormalised eigenvectors
phi_0 .. phi_{N-1}; column n holds the expansion of (operator phi_n).  Every
function of the Hamiltonian acts as a diagonal matrix multiplying from the
right, in the order the defining expressions are written, and every
commutator with the diagonal H is the elementwise product (E_m - E_n) X_mn.
A guard band of G top indices absorbs truncation damage; identities are only
asserted on the interior window 0 .. N-G-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ComplexFrequencies,
    DegenerateFrequencies,
    ParameterOutOfRange,
    UnsupportedSystem,
    VanishingFrequency,
)
from .polynomials import norms, recurrence
from .report import CheckReport, make_report
from .systems import (
    DeformedOscillator,
    SystemSpec,
    alpha_pm,
    energies,
    r_polynomials,
    validate,
)


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense N x N complex matrix with a truncation guard band."""

    dim: int
    guard: int
    entries: np.ndarray

    @property
    def interior(self) -> int:
        """First index of the guard band; the window is 0 .. interior-1."""
        return self.dim - self.guard

    def window(self) -> np.ndarray:
        d = self.interior
        return self.entries[:d, :d]


class Normalization(Enum):
    UNIT = "unit"
    PRIMED = "primed"


@dataclass(frozen=True)
class LadderPair:
    a_plus: TruncatedOperator
    a_minus: TruncatedOperator
    normalization: Normalization


def _check_dims(n_dim: int, guard: int) -> None:
    if not 0 < guard < n_dim:
        raise ParameterOutOfRange(
            f"guard band must satisfy 0 < G < N, got N={n_dim}, G={guard}"
        )
    if n_dim < guard + 2:
        raise ParameterOutOfRange(f"need N >= G + 2, got N={n_dim}, G={guard}")


def _commutator_with_h(levels: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """[H, X] for the diagonal H = diag(levels): entry (m, n) is (E_m - E_n) X_mn."""
    return (levels[:, None] - levels[None, :]) * entries


def build_basic(
    spec: SystemSpec, n_dim: int, guard: int
) -> tuple[TruncatedOperator, TruncatedOperator, TruncatedOperator]:
    """Hamiltonian, coordinate matrix, and their commutator.

    H is diagonal with the exact spectrum; the coordinate matrix is
    tridiagonal with the recurrence coefficients (A_n below, B_n on, C_n
    above the diagonal, per column n).
    """
    validate(spec)
    _check_dims(n_dim, guard)
    rec = recurrence(spec)
    levels = energies(spec, n_dim)
    eta = np.zeros((n_dim, n_dim), dtype=complex)
    for n in range(n_dim):
        eta[n, n] = rec.B(n)
        if n + 1 < n_dim:
            eta[n + 1, n] = rec.A(n)
        if n >= 1:
            eta[n - 1, n] = rec.C(n)
    ham = np.diag(levels.astype(complex))
    comm = _commutator_with_h(levels, eta)
    wrap = lambda m: TruncatedOperator(dim=n_dim, guard=guard, entries=m)
    return wrap(ham), wrap(eta), wrap(comm)


def _closure_vectors(spec: SystemSpec, n_dim: int):
    """R-polynomial values on the spectrum (no positivity requirement)."""
    model = r_polynomials(spec)
    levels = energies(spec, n_dim)
    return levels, model.r0(levels), model.r1(levels), model.rm1(levels)


def _frequency_vectors(spec: SystemSpec, n_dim: int):
    """alpha_pm on the spectrum; demands R0 > 0 and distinct frequencies."""
    levels, r0v, r1v, rm1v = _closure_vectors(spec, n_dim)
    if np.any(r0v <= 0.0):
        raise ComplexFrequencies(
            "R0(E_n) must be positive on the truncated spectrum"
        )
    disc = r1v * r1v + 4.0 * r0v
    if np.any(disc <= 0.0):
        raise DegenerateFrequencies(
            "frequency discriminant vanishes on the truncated spectrum"
        )
    root = np.sqrt(disc)
    return levels, r0v, rm1v, 0.5 * (r1v + root), 0.5 * (r1v - root)


def build_ladder(
    spec: SystemSpec,
    n_dim: int,
    guard: int,
    normalization: Normalization = Normalization.UNIT,
) -> LadderPair:
    """Raising/lowering pair assembled from H, eta, and [H, eta].

    UNIT divides by the frequency difference (the pair whose matrix
    elements are exactly A_n and C_n); PRIMED omits that division, which
    is the same as right-multiplying by alpha_plus(H) - alpha_minus(H).
    """
    _, eta_op, comm_op = build_basic(spec, n_dim, guard)
    _, r0v, rm1v, ap, am = _frequency_vectors(spec, n_dim)
    shifted = eta_op.entries + np.diag((rm1v / r0v).astype(complex))
    plus = comm_op.entries - shifted * am[None, :]
    minus = -comm_op.entries + shifted * ap[None, :]
    if normalization is Normalization.UNIT:
        denom = ap - am
        plus = plus / denom[None, :]
        minus = minus / denom[None, :]
    wrap = lambda m: TruncatedOperator(dim=n_dim, guard=guard, entries=m)
    return LadderPair(
        a_plus=wrap(plus), a_minus=wrap(minus), normalization=normalization
    )


def check_ladder_action(
    spec: SystemSpec, n_dim: int, guard: int, tol: float | None = None
) -> CheckReport:
    """a_plus phi_n = A_n phi_{n+1} and a_minus phi_n = C_n phi_{n-1}.

    Deviations are measured entrywise per column, relative to the column
    scale where the family has `relative_residuals`.
    """
    if tol is None:
        tol = spec.tolerances["ladder_action"]
    rec = recurrence(spec)
    pair = build_ladder(spec, n_dim, guard)
    d = pair.a_plus.interior
    relative = spec.relative_residuals
    worst = 0.0
    for n in range(d - 1):
        target_up = np.zeros(d, dtype=complex)
        target_up[n + 1] = rec.A(n)
        dev_up = np.max(np.abs(pair.a_plus.entries[:d, n] - target_up))
        scale_up = max(1.0, abs(rec.A(n))) if relative else 1.0
        worst = max(worst, dev_up / scale_up)

        col = n + 1  # lowering acts on columns 1 .. d-1
        target_dn = np.zeros(d, dtype=complex)
        target_dn[col - 1] = rec.C(col)
        dev_dn = np.max(np.abs(pair.a_minus.entries[:d, col] - target_dn))
        scale_dn = max(1.0, abs(rec.C(col))) if relative else 1.0
        worst = max(worst, dev_dn / scale_dn)
    # the lowering operator annihilates the ground state
    worst = max(worst, float(np.max(np.abs(pair.a_minus.entries[:d, 0]))))
    return make_report("ladder_action", worst, tol, N=n_dim, G=guard)


def check_two_commutator(
    spec: SystemSpec, n_dim: int, guard: int, tol: float | None = None
) -> CheckReport:
    """[H, [H, eta]] = eta R0(H) + [H, eta] R1(H) + R-1(H) on the window."""
    if tol is None:
        tol = spec.tolerances["two_commutator"]
    _, eta_op, comm_op = build_basic(spec, n_dim, guard)
    levels, r0v, r1v, rm1v = _closure_vectors(spec, n_dim)
    lhs = _commutator_with_h(levels, comm_op.entries)
    rhs = (
        eta_op.entries * r0v[None, :]
        + comm_op.entries * r1v[None, :]
        + np.diag(rm1v.astype(complex))
    )
    d = n_dim - guard
    diff = np.abs(lhs[:d, :d] - rhs[:d, :d])
    if spec.relative_residuals:
        col_scale = np.maximum(1.0, np.abs(lhs[:d, :d]).max(axis=0))
        resid = float(np.max(diff / col_scale[None, :]))
    else:
        resid = float(np.max(diff))
    return make_report("two_commutator", resid, tol, N=n_dim, G=guard)


def check_hermitian_conjugacy(
    spec: SystemSpec,
    n_dim: int,
    guard: int,
    tol: float = 1e-8,
    n_limit: int = 20,
) -> CheckReport:
    """In the orthonormalised basis the pair are mutual adjoints.

    Equivalent to the bridge A_n h_{n+1} = C_{n+1} h_n with the quadrature
    norms h_n; checked for n up to min(n_limit, window - 2).
    """
    pair = build_ladder(spec, n_dim, guard)
    n_top = min(n_limit, pair.a_plus.interior - 2)
    h = norms(spec, n_top + 1)
    scale = np.sqrt(h)
    worst = 0.0
    ap = pair.a_plus.entries
    am = pair.a_minus.entries
    for n in range(n_top + 1):
        up = ap[n + 1, n].real * scale[n + 1] / scale[n]
        down = am[n, n + 1].real * scale[n] / scale[n + 1]
        worst = max(worst, abs(up - down) / max(abs(up), abs(down)))
    return make_report(
        "hermitian_conjugacy", worst, tol, N=n_dim, G=guard, n_top=n_top
    )


def check_su11(
    spec: SystemSpec, n_dim: int, guard: int, tol: float = 1e-12
) -> CheckReport:
    """su(1,1) relations of the primed pair for the deformed oscillator:
    [H, a'_pm] = +/- a'_pm and [a'_minus, a'_plus] = 2 (H + a)."""
    if not isinstance(spec, DeformedOscillator):
        raise UnsupportedSystem(
            "the su(1,1) relations hold for the deformed oscillator only"
        )
    pair = build_ladder(spec, n_dim, guard, Normalization.PRIMED)
    levels = energies(spec, n_dim)
    ap = pair.a_plus.entries
    am = pair.a_minus.entries
    d = n_dim - guard
    res_plus = _commutator_with_h(levels, ap) - ap
    res_minus = _commutator_with_h(levels, am) + am
    res_comm = am @ ap - ap @ am - 2.0 * np.diag(levels + spec.a)
    resid = max(
        float(np.max(np.abs(res_plus[:d, :d]))),
        float(np.max(np.abs(res_minus[:d, :d]))),
        float(np.max(np.abs(res_comm[:d, :d]))),
    )
    return make_report("su11", resid, tol, N=n_dim, G=guard)


def check_ground_state_condition(
    spec: SystemSpec, n_dim: int, guard: int, tol: float | None = None
) -> CheckReport:
    """The lowering-frequency part must vanish on the ground state:
    -[H, eta] phi_0 + (eta alpha_plus(0) - R-1(0)/alpha_minus(0)) phi_0 = 0."""
    if tol is None:
        tol = spec.tolerances["ground_state"]
    _, eta_op, comm_op = build_basic(spec, n_dim, guard)
    ap0, am0 = alpha_pm(spec, 0.0)
    if am0 == 0.0:
        raise VanishingFrequency("alpha_minus(0) = 0")
    const = r_polynomials(spec).rm1(0.0) / am0
    d = n_dim - guard
    term_comm = -comm_op.entries[:d, 0]
    term_eta = ap0 * eta_op.entries[:d, 0]
    term_const = np.zeros(d, dtype=complex)
    term_const[0] = -const
    column = term_comm + term_eta + term_const
    scale = max(
        1.0,
        float(np.max(np.abs(term_comm))),
        float(np.max(np.abs(term_eta))),
        abs(const),
    )
    resid = float(np.max(np.abs(column))) / scale
    return make_report("ground_state", resid, tol, N=n_dim, G=guard)

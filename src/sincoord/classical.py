"""Classical sinusoidal dynamics: closed form, flow oracle, closure checks.

The coordinate eta(x) obeys a driven-oscillator closure under the double
Poisson bracket, so along any energy surface it moves on a single circular
frequency sqrt(R0(H0)) around the offset -R-1(H0)/R0(H0).  The closed form
built from that is checked here against a fixed-step RK4 integration of
Hamilton's equations that knows nothing about the closure.

Each RK4 stage makes one kernel call.  Stages 2-4 call the family's
`flow_partials`, which returns the two partials without forming H; the
accepted point calls `flow_terms`, which returns H with both partials, and
serves twice: its H feeds the energy-drift guard and its partials are the
next step's k1.  Both kernels are modes of one body, bound once per system
with its constants as locals.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainEscape,
    EnergyDrift,
    NonOscillatory,
    ParameterOutOfRange,
    SingularDerivative,
)
from .report import CheckReport, make_report
from .systems import (
    PoschlTeller,
    SystemSpec,
    classical_r_polynomials,
    r_polynomials,
    require_inside,
    require_size,
)


@dataclass(frozen=True)
class ClassicalState:
    """Phase-space point; x must lie strictly inside the system's domain."""

    x: float
    p: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled eta(x(t)) along a numerically integrated flow."""

    times: np.ndarray
    eta_values: np.ndarray
    energy_drift: float = 0.0


def _h_and_h_h_eta(spec: SystemSpec, x: float, p: float) -> tuple[float, float]:
    """H and {H, {H, eta}}, from one `flow_terms` and one `second_partials`
    call."""
    h, dhdx, dhdp = spec.flow_terms(x, p)
    d2p2, d2pdx = spec.second_partials(x, p)
    deta, d2eta = spec.deta_dx(x), spec.d2eta_dx2(x)
    return h, -dhdx * d2p2 * deta + dhdp * d2pdx * deta + dhdp * dhdp * d2eta


def _initial_terms(spec: SystemSpec, state: ClassicalState) -> tuple[float, float, float]:
    """`flow_terms` at the initial state.

    Raises DomainEscape unless the state lies inside the domain and
    ParameterOutOfRange unless its energy is finite; an overflow or a
    division by zero, which a state next to a wall can cause, counts as an
    infinite energy.
    """
    require_inside(spec, state.x, DomainEscape)
    try:
        terms = spec.flow_terms(state.x, state.p)
    except ArithmeticError:
        terms = (math.inf, math.nan, math.nan)
    if not math.isfinite(terms[0]):
        raise ParameterOutOfRange(
            f"the energy at the initial state x={state.x}, p={state.p} "
            f"is not finite (H0={terms[0]})"
        )
    return terms


def _orbit(spec: SystemSpec, state: ClassicalState) -> tuple[float, float, float, float]:
    """The constants of the state's sinusoid, from one `_initial_terms` call:
    omega = sqrt(R0(H0)), the offset R-1(H0)/R0(H0), the initial bracket
    {H, eta} = -dH/dp * eta'(x0) and eta(x0).

    Raises NonOscillatory if R0(H0) <= 0 and ParameterOutOfRange if R0(H0)
    overflows, besides the refusals of `_initial_terms`.
    """
    h0, _, dhdp = _initial_terms(spec, state)
    closure = classical_r_polynomials(spec)
    r0v = closure.r0(h0)
    if r0v <= 0.0:
        raise NonOscillatory(f"R0(H0)={r0v} <= 0 at energy {h0}")
    if r0v == math.inf:
        raise ParameterOutOfRange(f"R0(H0) overflows at the initial energy H0={h0}")
    bracket0 = -dhdp * spec.deta_dx(state.x)
    return math.sqrt(r0v), closure.rm1(h0) / r0v, bracket0, float(spec.eta(state.x))


def closed_form_eta(spec: SystemSpec, state: ClassicalState, t):
    """eta(x(t)) from the single-frequency closed form, with the constants
    of the state's orbit (`_orbit` refuses an R0(H0) <= 0 or overflowing)."""
    omega, ratio, bracket0, eta0 = _orbit(spec, state)
    ts = np.asarray(t, dtype=float)
    values = (
        -bracket0 * np.sin(omega * ts) / omega
        - ratio
        + (eta0 + ratio) * np.cos(omega * ts)
    )
    if ts.ndim == 0:
        return float(values)
    return values


def period(spec: SystemSpec, state: ClassicalState) -> float:
    """2 pi / sqrt(R0(H0)): the oscillation period at this state's energy."""
    return 2.0 * math.pi / _orbit(spec, state)[0]


# Largest number of RK4 steps taken; past it the flow is refused rather than
# allocated.  The time grid and the positions take 16 bytes per step, so the
# cap bounds them at 1 GiB.
_MAX_STEPS = 1 << 26


def flow_oracle(
    spec: SystemSpec, state: ClassicalState, t_end: float, dt: float
) -> Trajectory:
    """Fixed-step RK4 integration of dx/dt = dH/dp, dp/dt = -dH/dx.

    Takes round(t_end / dt) steps, so the flow ends at that many times dt;
    a span that rounds to no step (t_end <= dt / 2) raises
    ParameterOutOfRange.  Raises DomainEscape, naming the time t and the
    step dt, if a step takes the position out of the open domain, and
    EnergyDrift if the conserved energy moves by more than
    1e-6 relative or a stage of a step overflows, divides by zero or takes
    the sine of an infinite position (after a partial overflowed to inf).
    """
    if not 0.0 < dt < math.inf:
        raise ParameterOutOfRange(f"dt must be positive and finite, got {dt}")
    if not 0.0 < t_end < math.inf:
        raise ParameterOutOfRange(f"t_end must be positive and finite, got {t_end}")
    ratio = t_end / dt
    if not ratio <= _MAX_STEPS:
        raise ParameterOutOfRange(
            f"the flow needs {ratio:.6g} steps of dt={dt}, "
            f"more than the {_MAX_STEPS} allowed"
        )
    steps = round(ratio)
    if steps == 0:
        raise ParameterOutOfRange(
            f"the span {t_end} is at most half a step of dt={dt}, "
            "so the flow would take no step"
        )
    times = np.arange(steps + 1) * dt
    x, p = state.x, state.p
    xs = array("d", [x])
    terms, partials = spec.flow_terms, spec.flow_partials
    lo, hi = spec.domain
    e0, dhdx, dhdp = _initial_terms(spec, state)
    guard = 1e-6 * max(1.0, abs(e0))
    half, sixth = 0.5 * dt, dt / 6.0
    max_drift = 0.0
    try:
        for k in range(steps):
            # k_i = (dH/dp, -dH/dx) at stage i.  The minus signs move into
            # the p updates; negation is exact, so they round as before.
            dx2, dp2 = partials(x + half * dhdp, p - half * dhdx)
            dx3, dp3 = partials(x + half * dp2, p - half * dx2)
            dx4, dp4 = partials(x + dt * dp3, p - dt * dx3)
            x += sixth * (dhdp + 2.0 * dp2 + 2.0 * dp3 + dp4)
            p -= sixth * (dhdx + 2.0 * dx2 + 2.0 * dx3 + dx4)
            if not lo < x < hi:
                raise DomainEscape(
                    f"x={x} lies outside the open domain ({lo}, {hi}) "
                    f"at t={times[k + 1]}, after a step of dt={dt}"
                )
            energy, dhdx, dhdp = terms(x, p)
            drift = abs(energy - e0)
            if drift > guard:
                raise EnergyDrift(
                    f"energy moved by {drift} (guard {guard}) at t={times[k + 1]}"
                )
            if drift > max_drift:
                max_drift = drift
            xs.append(x)
    except (ArithmeticError, ValueError) as exc:
        raise EnergyDrift(
            f"H or its partials are not finite in the step to t={times[k + 1]} ({exc})"
        ) from None
    return Trajectory(times=times, eta_values=spec.eta(xs), energy_drift=max_drift)


def sample_states(spec: SystemSpec, count: int, seed: int = 42) -> list[ClassicalState]:
    """Seeded phase-space samples from the family's box inside the domain."""
    if count < 0:
        raise ParameterOutOfRange(f"need a state count of at least 0, got {count}")
    require_size("state count", count)
    if seed < 0:
        raise ParameterOutOfRange(f"need a seed of at least 0, got {seed}")
    rng = np.random.default_rng(seed)
    (x_lo, x_hi), (p_lo, p_hi) = spec.sample_box
    xs = rng.uniform(x_lo, x_hi, count)
    ps = rng.uniform(p_lo, p_hi, count)
    return [ClassicalState(float(x), float(p)) for x, p in zip(xs, ps)]


def _require_states(states: list[ClassicalState]) -> None:
    if not states:
        raise ParameterOutOfRange("a check over no phase-space states has no verdict")


# Periods of each state's orbit that the flow check follows by default.
_PERIODS = 3.0


def check_closed_vs_flow(
    spec: SystemSpec,
    states: list[ClassicalState],
    dt: float = 1e-3,
    t_end: float | None = None,
    trajectories: list | None = None,
) -> list[CheckReport]:
    """Closed form against the RK4 oracle over three periods, or up to
    `t_end` when it is given; the report then names the span the flow
    integrated, round(t_end / dt) * dt.

    Returns two reports: the trajectory deviation and the energy drift of
    the oracle itself, relative to max(1, |H0|) and held to 1e-8.  When
    `trajectories` is a list, each state's (oracle Trajectory, closed-form
    values) pair is appended to it.
    """
    _require_states(states)
    worst_dev = 0.0
    worst_drift = 0.0
    for state in states:
        span = _PERIODS * period(spec, state) if t_end is None else t_end
        traj = flow_oracle(spec, state, span, dt)
        closed = closed_form_eta(spec, state, traj.times)
        worst_dev = np.maximum(worst_dev, np.max(np.abs(closed - traj.eta_values)))
        h0 = abs(_initial_terms(spec, state)[0])
        worst_drift = np.maximum(worst_drift, traj.energy_drift / max(1.0, h0))
        if trajectories is not None:
            trajectories.append((traj, closed))
    if t_end is None:
        extent = {"dt": dt, "periods": _PERIODS}
    else:
        extent = {"t_end": float(traj.times[-1])}
    return [
        make_report(
            "classical_closed_vs_flow", worst_dev, 1e-6, states=len(states), **extent
        ),
        make_report(
            "classical_energy_drift", worst_drift, 1e-8, states=len(states)
        ),
    ]


def check_poisson_closure(
    spec: SystemSpec, states: list[ClassicalState]
) -> CheckReport:
    """{H, {H, eta}} = -eta R0(H) - R-1(H) at the given phase-space points.

    Raises DomainEscape for a state outside the domain and
    ParameterOutOfRange, naming the state, where H or its partials
    overflow or divide by zero (next to a wall or at large |p|).
    """
    _require_states(states)
    closure = classical_r_polynomials(spec)
    worst = 0.0
    for state in states:
        require_inside(spec, state.x, DomainEscape)
        try:
            h0, lhs = _h_and_h_h_eta(spec, state.x, state.p)
        except ArithmeticError as exc:
            raise ParameterOutOfRange(
                f"H or its partials are not finite at the state x={state.x}, "
                f"p={state.p} ({exc})"
            ) from None
        rhs = -float(spec.eta(state.x)) * closure.r0(h0) - closure.rm1(h0)
        worst = np.maximum(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return make_report("poisson_closure", worst, 1e-6, states=len(states))


def reconstruct_potential(coord, r00: float, rm10: float, c: float, r1: float):
    """Potential from the coordinate map and closure constants:
    V(x) = (r00 eta^2 / 2 + rm10 eta + c) / (d eta/dx)^2 - r1 / 8.

    `coord` supplies eta(x) and deta_dx(x).  The potential takes a point
    or an array of them and raises SingularDerivative, naming the first
    point where the derivative vanishes.
    """

    def potential(x):
        d = coord.deta_dx(x)
        zero = np.flatnonzero(np.equal(d, 0.0))
        if zero.size:
            raise SingularDerivative(f"d eta/dx = 0 at x={np.ravel(x)[zero[0]]}")
        e = coord.eta(x)
        return (0.5 * r00 * e * e + rm10 * e + c) / (d * d) - r1 / 8.0

    return potential


def pt_reference_potential(g: float, h: float, x):
    """The trigonometric well with ground-state energy shifted to zero."""
    xs = np.asarray(x, dtype=float)
    return (
        0.5 * g * (g - 1.0) / np.sin(xs) ** 2
        + 0.5 * h * (h - 1.0) / np.cos(xs) ** 2
        - 0.5 * (g + h) ** 2
    )


def check_potential_reconstruction(g: float, h: float) -> CheckReport:
    """Rebuild the trigonometric-well potential with couplings g, h from the
    closure constants.

    r00, rm10, r1 come from the spectral model; the integration constant is
    fixed at a single interior point, then the reconstruction is compared
    pointwise against the reference potential at 50 points.
    """
    spec = PoschlTeller(g, h)
    model = r_polynomials(spec)
    r00 = model.r0(0.0)
    rm10 = model.rm1(0.0)
    r1 = model.r1(0.0)
    x_fit = 0.7
    eta_fit = float(spec.eta(x_fit))
    deta_fit = float(spec.deta_dx(x_fit))
    v_fit = float(pt_reference_potential(g, h, x_fit))
    const = (v_fit + r1 / 8.0) * deta_fit**2 - 0.5 * r00 * eta_fit**2 - rm10 * eta_fit
    potential = reconstruct_potential(spec, r00, rm10, const, r1)
    xs = np.linspace(0.15, 0.5 * math.pi - 0.15, 50)
    worst = np.max(np.abs(potential(xs) - pt_reference_potential(g, h, xs)))
    return make_report(
        "potential_reconstruction", worst, 1e-10, points=len(xs), c=const
    )


_CSV_BLOCK_ROWS = 500


def write_trajectory_csv(
    path: str, times: np.ndarray, eta_closed: np.ndarray, eta_numeric: np.ndarray
) -> None:
    """Four-column trajectory export: t, eta_closed, eta_numeric, abs_err.

    Each value is written as the bytes of '%.17g' % value: its 17 digits
    are the exact nearest integer to |value| 10^(16-E), and CPython's
    conversion takes the few values whose rounding that cannot decide (see
    `_g17`).  Rows are formatted a block at a time, so the table and the
    text in memory stay one block long whatever the length of the
    trajectory.
    """
    # imported here, so that only an export pays for loading the formatter
    from ._g17 import BlockFormatter

    text = BlockFormatter(4, _CSV_BLOCK_ROWS)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,eta_closed,eta_numeric,abs_err\n")
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            closed, numeric = eta_closed[rows], eta_numeric[rows]
            block = np.column_stack(
                (times[rows], closed, numeric, np.abs(closed - numeric))
            )
            handle.write(text.format(block))

"""Classical sinusoidal dynamics: closed form, flow oracle, closure checks.

The coordinate eta(x) obeys a driven-oscillator closure under the double
Poisson bracket, so along any energy surface it moves on a single circular
frequency sqrt(R0(H0)) around the offset -R-1(H0)/R0(H0).  The closed form
built from that is checked here against a fixed-step RK4 integration of
Hamilton's equations that knows nothing about the closure.

The RK4 loop is compiled per system (`compile_flow`) from one template
with the family's flow statements written into it: stages 2-4 run the
statements that form the two partials without H, and the accepted point
runs them with the energy statements, whose H feeds the energy-drift guard
while the partials are the next step's k1.  No stage makes a call of its
own.  `terms`, which returns H with its first and second partials from one
pass, is compiled from the same statements, so each family's H and partials
are written once.
"""

from __future__ import annotations

import linecache
import math
import numbers
import textwrap
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainEscape, EnergyDrift, NonOscillatory, ParameterOutOfRange
from .report import CheckReport, make_report
from .systems import (
    PoschlTeller,
    SystemSpec,
    classical_r_polynomials,
    r_polynomials,
    require_inside,
    require_real,
    require_samples,
    require_size,
)


@dataclass(frozen=True)
class ClassicalState:
    """Phase-space point of two real numbers; x must lie strictly inside the
    system's domain (a NaN or infinite coordinate is refused where it is used)."""

    x: float
    p: float

    def __post_init__(self) -> None:
        for name, value in (("x", self.x), ("p", self.p)):
            if not isinstance(value, numbers.Real):
                raise ParameterOutOfRange(
                    f"state coordinate {name} must be a real number, got {name}={value!r}"
                )


@dataclass(frozen=True)
class Trajectory:
    """Sampled eta(x(t)) along a numerically integrated flow."""

    times: np.ndarray
    eta_values: np.ndarray
    energy_drift: float = 0.0


def _state_terms(spec: SystemSpec, state) -> tuple[float, float, float, float, float]:
    """H, dH/dx, dH/dp, d2H/dp2 and d2H/dpdx at a phase-space state, from one
    `terms` call; every state of this module enters here.

    Raises ParameterOutOfRange unless `state` is a ClassicalState,
    DomainEscape unless its x lies inside the domain and ParameterOutOfRange
    unless its energy is finite; an overflow or a division by zero, which a
    state next to a wall can cause, counts as an infinite energy.
    """
    if not isinstance(state, ClassicalState):
        raise ParameterOutOfRange(
            f"a phase-space state must be a ClassicalState, got {state!r}"
        )
    require_inside(spec, state.x, DomainEscape)
    try:
        terms = spec.flow.terms(state.x, state.p)
    except ArithmeticError:
        terms = (math.inf,)  # refused below
    if not math.isfinite(terms[0]):
        raise ParameterOutOfRange(
            f"the energy at the initial state x={state.x}, p={state.p} "
            f"is not finite (H0={terms[0]})"
        )
    return terms


def _h_h_eta(spec: SystemSpec, x: float, terms: tuple) -> float:
    """{H, {H, eta}} at x from the state's `_state_terms`.  The term in eta''
    is left out where eta'' is exactly 0 (do), so that an overflowing
    (dH/dp)^2 does not make it inf * 0."""
    _, dhdx, dhdp, d2p2, d2pdx = terms
    deta, d2eta = spec.deta_dx(x), spec.d2eta_dx2(x)
    lhs = -dhdx * d2p2 * deta + dhdp * d2pdx * deta
    if d2eta != 0.0:
        lhs = lhs + dhdp * dhdp * d2eta
    return lhs


def _orbit(spec: SystemSpec, state: ClassicalState) -> tuple[float, float, float, float, float]:
    """The constants of the state's sinusoid, from one `_state_terms`
    call: omega = sqrt(R0(H0)), the offset R-1(H0)/R0(H0), the initial
    bracket {H, eta} = -dH/dp * eta'(x0), eta(x0), and the energy H0.

    Raises NonOscillatory if R0(H0) <= 0 and ParameterOutOfRange if R0(H0)
    overflows, besides the refusals of `_state_terms`.
    """
    h0, _, dhdp, _, _ = _state_terms(spec, state)
    r0, rm1 = classical_r_polynomials(spec)
    r0v = r0(h0)
    if r0v <= 0.0:
        raise NonOscillatory(f"R0(H0)={r0v} <= 0 at energy {h0}")
    if r0v == math.inf:
        raise ParameterOutOfRange(f"R0(H0) overflows at the initial energy H0={h0}")
    bracket0 = -dhdp * spec.deta_dx(state.x)
    return math.sqrt(r0v), rm1(h0) / r0v, bracket0, float(spec.eta(state.x)), h0


def closed_form_eta(spec: SystemSpec, state: ClassicalState, t):
    """eta(x(t)) on the single-frequency closed form of the state's orbit: a
    float for one time t, an array for a sequence.  t passes
    `require_samples` (each time `require_real`) before `_orbit` forms the
    orbit or refuses the state."""
    ts = require_samples("t", t)
    return _closed_form(_orbit(spec, state), ts if np.ndim(t) else ts[0])


def _closed_form(orbit: tuple[float, float, float, float, float], t):
    """eta at the times t on the sinusoid with the constants `orbit`."""
    omega, ratio, bracket0, eta0, _ = orbit
    ts = np.asarray(t, dtype=float)
    values = (
        -bracket0 * np.sin(omega * ts) / omega
        - ratio
        + (eta0 + ratio) * np.cos(omega * ts)
    )
    if ts.ndim == 0:
        return float(values)
    return values


# The flow compiled from a family's statements.  Each family writes its
# Hamiltonian once, as three blocks of statements over the phase-space point
# X, P and its own constants: the flow block sets KX = dH/dx and KP = dH/dp,
# the energy block after it sets E = H, and the second block sets
# D2P2 = d2H/dp2 and D2PDX = d2H/dpdx from the flow block's names (never
# from the energy block's).  `terms` runs the three in that order.  The
# template pastes the flow block into RK4 stages 2-4 and, with the energy
# block, into the accepted point, whose H feeds the energy-drift guard and
# whose partials are the next step's first stage.  A step that ends at a
# position that is not finite got there through a partial that overflowed,
# and is refused as such.  The names of the family's `flow_locals` (its
# constants and math functions) lead every signature, so they are locals of
# each function; no value is formatted into the source, and every system of
# a family compiles to the same code.
_FLOW_SOURCE = """\
def terms(%(names)s, X, P):
%(flow)s
%(energy)s
%(second)s
    return (E, KX, KP, D2P2, D2PDX)


def flow_loop(%(names)s, x, p, hx, hp, e0, guard, dt, steps, lo, hi, times, append):
    half, sixth = 0.5 * dt, dt / 6.0
    max_drift = 0.0
    for step in range(steps):
        # k_i = (dH/dp, -dH/dx) at stage i.  The minus signs move into the p
        # updates; negation is exact, so they round as in the textbook form.
        X, P = x + half * hp, p - half * hx
%(stage)s
        hx2, hp2 = KX, KP
        X, P = x + half * hp2, p - half * hx2
%(stage)s
        hx3, hp3 = KX, KP
        X, P = x + dt * hp3, p - dt * hx3
%(stage)s
        x += sixth * (hp + 2.0 * hp2 + 2.0 * hp3 + KP)
        p -= sixth * (hx + 2.0 * hx2 + 2.0 * hx3 + KX)
        if not lo < x < hi:
            if not isfinite(x):
                raise ArithmeticError(f"position x={x}")
            raise DomainEscape(
                f"x={x} lies outside the open domain ({lo}, {hi}) "
                f"at t={times[step + 1]}, after a step of dt={dt}"
            )
        X, P = x, p
%(stage)s
%(stage_energy)s
        hx, hp = KX, KP
        drift = abs(E - e0)
        if drift > guard:
            raise EnergyDrift(
                f"energy moved by {drift} (guard {guard}) at t={times[step + 1]}"
            )
        if drift > max_drift:
            max_drift = drift
        append(x)
    return max_drift
"""


class CompiledFlow(NamedTuple):
    """A system's flow functions, with its constants bound.

    `terms(x, p)` returns (H, dH/dx, dH/dp, d2H/dp2, d2H/dpdx).
    `loop(x, p, dH/dx, dH/dp, H0, guard, dt, steps, lo, hi, times, append)`
    takes the RK4 steps from the state and the partials there, hands each
    accepted position to `append` and returns the largest energy drift.  It
    raises DomainEscape or EnergyDrift as `flow_oracle` describes, and lets
    the ArithmeticError or ValueError of a stage, or of a step to a position
    that is not finite, through.
    """

    terms: Callable[[float, float], tuple[float, float, float, float, float]]
    loop: Callable[..., float]


def _block(statements: str, indent: int) -> str:
    return textwrap.indent(textwrap.dedent(statements).strip(), " " * indent)


def compile_flow(spec: SystemSpec) -> CompiledFlow:
    """The functions of `_FLOW_SOURCE` with the family's statements pasted
    in, compiled and bound to the system's `flow_locals`.

    The source is registered with `linecache` as "<sincoord flow TAG>", so a
    traceback from inside it shows the statement that raised.  A system
    compiles once, on first use: `flow` is a cached property of the family.
    """
    bound = spec.flow_locals()
    source = _FLOW_SOURCE % {
        "names": ", ".join(bound),
        "flow": _block(spec.flow_statements, 4),
        "energy": _block(spec.energy_statements, 4),
        "second": _block(spec.second_statements, 4),
        "stage": _block(spec.flow_statements, 8),
        "stage_energy": _block(spec.energy_statements, 8),
    }
    filename = f"<sincoord flow {spec.tag}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {
        "DomainEscape": DomainEscape, "EnergyDrift": EnergyDrift, "isfinite": math.isfinite
    }
    exec(compile(source, filename, "exec"), namespace)
    values = tuple(bound.values())
    return CompiledFlow(
        *(partial(namespace[name], *values) for name in ("terms", "flow_loop"))
    )


# Largest number of RK4 steps taken; past it the flow is refused rather than
# allocated.  The time grid and the positions take 16 bytes per step, so the
# cap bounds them at 1 GiB.
_MAX_STEPS = 1 << 26


def flow_oracle(
    spec: SystemSpec, state: ClassicalState, t_end: float, dt: float
) -> Trajectory:
    """Fixed-step RK4 integration of dx/dt = dH/dp, dp/dt = -dH/dx.

    Takes round(t_end / dt) steps, so the flow ends at that many times dt.
    Raises ParameterOutOfRange unless dt and t_end are positive and finite
    (`require_real`), for a span that rounds to no step (t_end <= dt / 2),
    then as `_state_terms` does, before any step; DomainEscape, naming the
    time t and the step dt, if a step takes the position out of the domain;
    and EnergyDrift if the conserved energy moves by more than 1e-6 relative,
    a stage of a step overflows, divides by zero or takes the sine of an
    infinite position, or a step ends at a position that is not finite (in
    each case after a partial overflowed to inf).
    The steps are taken by the system's compiled `flow.loop`.
    """
    dt = require_real("dt", dt, 0.0)
    t_end = require_real("t_end", t_end, 0.0)
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
    e0, hx, hp, _, _ = _state_terms(spec, state)
    times = np.arange(steps + 1) * dt
    xs = array("d", [state.x])
    guard = 1e-6 * max(1.0, abs(e0))
    lo, hi = spec.domain
    try:
        max_drift = spec.flow.loop(
            state.x, state.p, hx, hp, e0, guard, dt, steps, lo, hi, times, xs.append
        )
    except (ArithmeticError, ValueError) as exc:
        # xs holds the positions up to the step that raised
        raise EnergyDrift(
            f"H or its partials are not finite in the step to t={times[len(xs)]} ({exc})"
        ) from None
    return Trajectory(times=times, eta_values=spec.eta(xs), energy_drift=max_drift)


def sample_states(spec: SystemSpec, count: int, seed: int = 42) -> list[ClassicalState]:
    """Seeded phase-space samples from the family's box inside the domain."""
    require_size("state count", count)
    require_size("seed", seed, cap=math.inf)
    rng = np.random.default_rng(seed)
    (x_lo, x_hi), (p_lo, p_hi) = spec.sample_box
    xs = rng.uniform(x_lo, x_hi, count)
    ps = rng.uniform(p_lo, p_hi, count)
    return [ClassicalState(float(x), float(p)) for x, p in zip(xs, ps)]


def _require_states(states) -> list[ClassicalState]:
    """The states, any iterable of them, as a list; refuses none."""
    try:
        states = list(states)
    except TypeError:
        raise ParameterOutOfRange(f"states must be an iterable, got {states!r}") from None
    if not states:
        raise ParameterOutOfRange("a check over no phase-space states has no verdict")
    return states


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

    Each state's orbit is formed before its flow, so a state is refused as
    `closed_form_eta` refuses it, with or without `t_end`, before any RK4
    step; dt and t_end are then refused as `flow_oracle` refuses them.

    Returns two reports: the trajectory deviation and the energy drift of
    the oracle itself, relative to max(1, |H0|) and held to 1e-8.  When
    `trajectories` is a list, each state's (oracle Trajectory, closed-form
    values) pair is appended to it.
    """
    states = _require_states(states)
    drifts, ends = [], []

    def deviations():
        # make_report reduces each state's deviation before the next flow
        # starts, so the check's memory does not grow with the state count
        for state in states:
            # the state's terms are formed once for the orbit (the period
            # 2 pi / omega, the closed form and H0), and once more by `flow_oracle`
            orbit = _orbit(spec, state)
            span = _PERIODS * (2.0 * math.pi / orbit[0]) if t_end is None else t_end
            traj = flow_oracle(spec, state, span, dt)
            closed = _closed_form(orbit, traj.times)
            drifts.append((traj.energy_drift, max(1.0, abs(orbit[-1]))))
            ends.append(float(traj.times[-1]))
            if trajectories is not None:
                trajectories.append((traj, closed))
            yield closed - traj.eta_values, 1.0

    flow = make_report("classical_closed_vs_flow", deviations(), 1e-6, states=len(states))
    if t_end is None:
        flow.details.update(dt=float(dt), periods=_PERIODS)
    else:
        flow.details["t_end"] = ends[-1]
    return [flow, make_report("classical_energy_drift", drifts, 1e-8, states=len(states))]


def check_poisson_closure(
    spec: SystemSpec, states: list[ClassicalState]
) -> CheckReport:
    """{H, {H, eta}} = -eta R0(H) - R-1(H) at the given phase-space points.

    Refuses each state as `_state_terms` does (naming it where H is not
    finite, next to a wall or at large |p|); a finite H whose partials are
    not finite ends as NonFiniteResidual.
    """
    states = _require_states(states)
    r0, rm1 = classical_r_polynomials(spec)
    comparisons = []
    for state in states:
        terms = _state_terms(spec, state)
        h0, lhs = terms[0], _h_h_eta(spec, state.x, terms)
        rhs = -float(spec.eta(state.x)) * r0(h0) - rm1(h0)
        comparisons.append((lhs - rhs, max(1.0, abs(lhs), abs(rhs))))
    return make_report("poisson_closure", comparisons, 1e-6, states=len(states))


def check_potential_reconstruction(g: float, h: float) -> CheckReport:
    """Rebuild the trigonometric well with couplings g, h from the closure
    constants r00 = R0(0), rm10 = R-1(0), r1 = R1(0) of its closure
    polynomials, V(x) = (r00 eta^2 / 2 + rm10 eta + c) / (d eta/dx)^2
    - r1 / 8 with c fixed at x = 0.7, and compare it at 50 points of
    [0.15, pi/2 - 0.15], where |d eta/dx| >= 2 sin 0.3, with the well
    g(g-1) / (2 sin^2 x) + h(h-1) / (2 cos^2 x) - (g+h)^2 / 2, its
    ground-state energy at zero.
    """
    spec = PoschlTeller(g, h)
    g, h = spec.g, spec.h
    r00, r1, rm10 = (r(0.0) for r in r_polynomials(spec))

    def well(x):
        return (
            0.5 * g * (g - 1.0) / np.sin(x) ** 2
            + 0.5 * h * (h - 1.0) / np.cos(x) ** 2
            - 0.5 * (g + h) ** 2
        )

    x_fit = 0.7
    eta_fit = float(spec.eta(x_fit))
    deta_fit = float(spec.deta_dx(x_fit))
    v_fit = float(well(x_fit))
    const = (v_fit + r1 / 8.0) * deta_fit**2 - 0.5 * r00 * eta_fit**2 - rm10 * eta_fit
    xs = np.linspace(0.15, 0.5 * math.pi - 0.15, 50)
    d = spec.deta_dx(xs)
    e = spec.eta(xs)
    rebuilt = (0.5 * r00 * e * e + rm10 * e + const) / (d * d) - r1 / 8.0
    comparison = (rebuilt - well(xs), 1.0)
    return make_report("potential_reconstruction", [comparison], 1e-10, points=len(xs), c=const)


_CSV_BLOCK_ROWS = 1000


def write_trajectory_csv(
    path: str, times: np.ndarray, eta_closed: np.ndarray, eta_numeric: np.ndarray
) -> None:
    """Four-column trajectory export: t, eta_closed, eta_numeric, abs_err.

    Each value is written as the bytes of '%.17g' % value: its 17 digits
    are the exact nearest integer to |value| 10^(16-E), and CPython's
    conversion takes the few values whose rounding that cannot decide (see
    `_g17`).  Rows are formatted _CSV_BLOCK_ROWS at a time, so the table
    and the text in memory stay one block long whatever the length of the
    trajectory; the formatter's tables are built on the first export of a
    process and shared by every later one.
    """
    # imported here, so that only an export pays for loading the formatter
    from ._g17 import format_block

    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,eta_closed,eta_numeric,abs_err\n")
        for start in range(0, len(times), _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            closed, numeric = eta_closed[rows], eta_numeric[rows]
            block = np.column_stack(
                (times[rows], closed, numeric, np.abs(closed - numeric))
            )
            handle.write(format_block(block))

"""Classical closed form, RK4 flow oracle, closure, potential rebuild."""

import ast
import cmath
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import traceback
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import sincoord as sc
from sincoord import cli
from sincoord._g17 import _RANGE, format_block
from sincoord.classical import _CSV_BLOCK_ROWS, ClassicalState

from conftest import empty_caches

PT11 = sc.PoschlTeller(1.0, 1.0)
PT12 = sc.PoschlTeller(1.0, 2.0)
DO1 = sc.DeformedOscillator(1.0)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)
AW0 = sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=0.5)
AW2 = sc.AskeyWilson(0.5, -0.6, 0.3, 0.0, q=0.55)


def _reference_terms(spec):
    """H, (dH/dx, dH/dp) and the second partials (d2H/dp2, d2H/dpdx) as
    separate scalar functions, in the operation order the compiled
    `flow.terms` must keep: pt's H in its tan form and its partials in
    sin/cos form, aw's potential as two real pairs of factors."""
    if isinstance(spec, sc.PoschlTeller):
        g, h = spec.g, spec.h

        def energy(x, p):
            u = g / math.tan(x) - h * math.tan(x)
            return 0.5 * p * p + 0.5 * u * u

        def partials(x, p):
            sx, cx = math.sin(x), math.cos(x)
            u = g * cx / sx - h * sx / cx
            du = -g / (sx * sx) - h / (cx * cx)
            return (u * du, p)

        def second(x, p):
            return (1.0, 0.0)

    elif isinstance(spec, sc.DeformedOscillator):
        a = spec.a

        def energy(x, p):
            return math.hypot(a, x) * math.cosh(p) - a

        def partials(x, p):
            r = math.hypot(a, x)
            return (x * math.cosh(p) / r, r * math.sinh(p))

        def second(x, p):
            r = math.hypot(a, x)
            return (r * math.cosh(p), x * math.sinh(p) / r)

    else:
        gam = math.log(spec.q)

        def pair(a, b):
            a, b = Fraction(a), Fraction(b)
            consts = (1 + a * b, (1 - a * b) ** 2, (1 - a) * (1 - b), (1 + a) * (1 + b))
            return tuple(float(v) for v in consts)

        u12, m12, e12, f12 = pair(spec.a1, spec.a2)
        u34, m34, e34, f34 = pair(spec.a3, spec.a4)
        k = float(
            (1 - Fraction(spec.a1) * Fraction(spec.a2))
            * (1 - Fraction(spec.a3) * Fraction(spec.a4))
            / 4
        )

        def pairs(x):
            s, c = math.sin(x), math.cos(x)
            ss = s * s
            if c > 0.0:
                t = ss / (1.0 + c)
                re12, re34 = e12 - u12 * t, e34 - u34 * t
            else:
                t = ss / (1.0 - c)
                re12, re34 = u12 * t - f12, u34 * t - f34
            return s, c, ss, re12, re34, re12 * re12 + m12 * ss, re34 * re34 + m34 * ss

        def energy(x, p):
            _, _, ss, re12, re34, n12, n34 = pairs(x)
            q4 = 0.25 / ss
            w = math.sqrt(n12 * n34) * q4
            return w * math.cosh(gam * p) - (k - re12 * re34 * q4)

        def modulus(x):
            """|V| and d|V|/dx."""
            s, c, ss, re12, re34, n12, n34 = pairs(x)
            r = math.sqrt(n12 * n34)
            h12, h34 = m12 * c - u12 * re12, m34 * c - u34 * re34
            wx = (ss * (h12 * n34 + h34 * n12) - 2.0 * c * n12 * n34) * (0.25 / ss / s) / r
            return r * (0.25 / ss), wx

        def partials(x, p):
            s, c, ss, re12, re34, _, _ = pairs(x)
            w, wx = modulus(x)
            vx = (ss * (u12 * re34 + u34 * re12) + 2.0 * c * (re12 * re34)) * (0.25 / ss / s)
            gp = gam * p
            return (wx * math.cosh(gp) - vx, gam * w * math.sinh(gp))

        def second(x, p):
            w, wx = modulus(x)
            return (gam * gam * w * math.cosh(gam * p), gam * wx * math.sinh(gam * p))

    return energy, partials, second


def _complex_terms(spec, x, p, real=math, cplx=cmath):
    """The five values of aw's `flow.terms` from one complex factor per
    parameter, z = exp(ix): the form the paired real terms replaced, kept as
    an independent cross-check.  `real` and `cplx` supply log, cosh, sinh
    and exp: math and cmath in double precision, or mpmath."""
    z = cplx.exp(1j * x)
    value = 1.0 + 0j
    log_deriv = 4.0 * z / (1.0 - z * z)
    for aj in spec.params:
        value *= 1.0 - aj * z
        log_deriv -= aj / (1.0 - aj * z)
    value /= (1.0 - z * z) ** 2
    deriv = 1j * z * value * log_deriv
    w = abs(value)
    wx = (value.conjugate() * deriv).real / w
    gam = real.log(spec.q)
    ch, sh = real.cosh(gam * p), real.sinh(gam * p)
    return (
        w * ch - value.real,
        wx * ch - deriv.real,
        gam * w * sh,
        gam * gam * w * ch,
        gam * wx * sh,
    )


def _aw_accuracy_points(count, seed):
    """Seeded aw systems with q in (0.05, 0.97) and |a_i| <= 0.99, with x
    at 1e-4 from either wall for two thirds of them and p in the sample box."""
    rng = np.random.default_rng(seed)
    lo, hi = 1e-4, math.pi - 1e-4
    p_lo, p_hi = sc.AskeyWilson.sample_box[1]
    points = []
    while len(points) < count:
        q = rng.uniform(0.05, 0.97)
        params = rng.uniform(-0.99, 0.99, 4)
        if np.prod(params) >= q:
            continue
        x = (lo, hi, rng.uniform(lo, hi))[len(points) % 3]
        spec = sc.AskeyWilson(*params.tolist(), q=q)
        points.append((spec, float(x), float(rng.uniform(p_lo, p_hi))))
    return points


def _count_flow_calls(spec, monkeypatch, *names):
    """Record the arguments of every call of each named function of the
    compiled `spec.flow` ("terms" or "loop"), wrapped in
    a copy of it put in the instance `__dict__` where the compiled flow
    sits, in the returned dict of lists keyed by name."""
    calls = {}
    wrapped = {}
    for name in names:

        def counted(*args, call=getattr(spec.flow, name), record=calls.setdefault(name, [])):
            record.append(args)
            return call(*args)

        wrapped[name] = counted
    monkeypatch.setitem(vars(spec), "flow", spec.flow._replace(**wrapped))
    return calls


def _instrumented(spec, flow_line="", energy_line="", **extra):
    """A copy of `spec` whose flow is compiled with `flow_line` appended to
    its family's flow statements and `energy_line` to its energy
    statements, and with the `extra` values among its flow locals; the
    family itself is left as it was."""
    family, copy = type(spec), dataclasses.replace(spec)
    flow_locals = family.flow_locals
    with pytest.MonkeyPatch.context() as patch:
        for block, line in (("flow", flow_line), ("energy", energy_line)):
            name = f"{block}_statements"
            patch.setattr(family, name, textwrap.dedent(getattr(family, name)) + line + "\n")
        patch.setattr(family, "flow_locals", lambda self: {**flow_locals(self), **extra})
        copy.flow  # compiled here, while the lines are in place
    return copy


def _reference_flow(spec, state, t_end, dt):
    """The scalar RK4 loop with five separate evaluations per step: four
    partials and the energy behind the drift guard.  An error in a stage's
    partials ends it with the EnergyDrift of `flow_oracle`."""
    energy, partials, _ = _reference_terms(spec)
    lo, hi = spec.domain
    steps = max(1, int(round(t_end / dt)))
    times = np.arange(steps + 1) * dt
    xs = np.empty(steps + 1, dtype=float)
    x, p = state.x, state.p
    e0 = energy(x, p)
    guard = 1e-6 * max(1.0, abs(e0))
    xs[0] = x
    max_drift = 0.0

    def rhs(xx, pp):
        dhdx, dhdp = partials(xx, pp)
        return dhdp, -dhdx

    for k in range(steps):
        try:
            k1x, k1p = rhs(x, p)
            k2x, k2p = rhs(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
            k3x, k3p = rhs(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
            k4x, k4p = rhs(x + dt * k3x, p + dt * k3p)
        except (ArithmeticError, ValueError) as exc:
            raise sc.EnergyDrift(
                f"H or its partials are not finite in the step to t={times[k + 1]} ({exc})"
            ) from None
        x += dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not math.isfinite(x):
            raise sc.EnergyDrift(
                f"H or its partials are not finite in the step to t={times[k + 1]} "
                f"(position x={x})"
            )
        if not lo < x < hi:
            raise sc.DomainEscape(
                f"x={x} lies outside the open domain ({lo}, {hi}) "
                f"at t={times[k + 1]}, after a step of dt={dt}"
            )
        drift = abs(energy(x, p) - e0)
        if drift > guard:
            raise sc.EnergyDrift(
                f"energy moved by {drift} (guard {guard}) at t={times[k + 1]}"
            )
        max_drift = max(max_drift, drift)
        xs[k + 1] = x
    return times, spec.eta(xs), max_drift


class TestClosedForm:
    @pytest.mark.parametrize("spec,x0", [(PT11, 0.8), (DO1, 0.5), (AW1, 1.3)])
    def test_time_zero_returns_initial_coordinate(self, spec, x0):
        state = ClassicalState(x0, 0.7)
        value = sc.closed_form_eta(spec, state, 0.0)
        assert value == pytest.approx(float(spec.eta(x0)), abs=1e-15)

    def test_do_quarter_period_zero_crossing(self):
        state = ClassicalState(0.5, 0.0)
        assert abs(sc.closed_form_eta(DO1, state, math.pi / 2)) < 1e-15

    def test_do_matches_direct_sinusoid(self):
        a = 1.0
        state = ClassicalState(0.5, 0.3)
        ts = np.linspace(0.0, 12.0, 25)
        mine = sc.closed_form_eta(DO1, state, ts)
        ref = state.x * np.cos(ts) + math.hypot(a, state.x) * math.sinh(
            state.p
        ) * np.sin(ts)
        assert np.max(np.abs(mine - ref)) < 1e-14

    def test_pt_matches_printed_specialisation(self):
        g, h = 1.0, 2.0
        state = ClassicalState(0.9, 0.6)
        h0 = PT12.flow.terms(state.x, state.p)[0]
        hp0 = h0 + 0.5 * (g + h) ** 2
        omega = 2.0 * math.sqrt(2.0 * hp0)
        offset = (g**2 - h**2) / (2.0 * hp0)
        ts = np.linspace(0.0, 4.0, 17)
        ref = (
            (math.cos(2 * state.x) + offset) * np.cos(omega * ts)
            - state.p * math.sin(2 * state.x) * np.sin(omega * ts) / math.sqrt(2 * hp0)
            - offset
        )
        mine = sc.closed_form_eta(PT12, state, ts)
        assert np.max(np.abs(mine - ref)) < 1e-13

    def test_rejects_state_outside_domain(self):
        with pytest.raises(sc.DomainEscape):
            sc.closed_form_eta(PT11, ClassicalState(2.0, 0.0), 1.0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1", "got t='1'"),
            (0.5 + 1j, "got t=(0.5+1j)"),
            (Decimal("0.5"), "got t=Decimal('0.5')"),
            (10**400, f"got t={10**400}"),
            (math.nan, "got t=nan"),
            ([0.1, math.inf], "got t=inf"),
            (np.zeros((2, 2)), "t samples must be a number or a flat sequence"),
        ],
        ids=["str", "complex", "Decimal", "10**400", "nan", "inf-sample", "2-D"],
    )
    def test_a_time_that_is_not_a_finite_real_is_refused_first(self, bad, message):
        # t is checked before the orbit, so a state outside the domain is
        # not what is reported
        for state in (ClassicalState(0.5, 0.3), ClassicalState(-1.0, 0.0)):
            with pytest.raises(sc.ParameterOutOfRange, match=re.escape(message)):
                sc.closed_form_eta(PT11, state, bad)

    def test_a_float_an_int_and_an_array_keep_their_type_and_bits(self):
        state = ClassicalState(0.5, 0.3)
        omega, ratio, bracket0, eta0, _ = sc.classical._orbit(DO1, state)
        for t in (0.7, 3, np.linspace(0.0, 5.0, 11)):
            ts = np.asarray(t, dtype=float)
            values = (
                -bracket0 * np.sin(omega * ts) / omega
                - ratio
                + (eta0 + ratio) * np.cos(omega * ts)
            )
            expected = float(values) if ts.ndim == 0 else values
            got = sc.closed_form_eta(DO1, state, t)
            assert type(got) is type(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


class TestFlowOracle:
    def test_pt_example_trajectory(self):
        state = ClassicalState(math.pi / 4, 1.0)
        traj = sc.flow_oracle(PT11, state, 0.8, 1e-3)
        closed = sc.closed_form_eta(PT11, state, traj.times)
        assert np.max(np.abs(closed - traj.eta_values)) < 1e-6

    def test_do_energy_conservation(self):
        traj = sc.flow_oracle(DO1, ClassicalState(0.5, 0.3), 10.0, 1e-3)
        assert traj.energy_drift < 1e-8
        assert traj.times[0] == 0.0
        assert len(traj.times) == len(traj.eta_values)

    def test_fourth_order_convergence(self):
        state = ClassicalState(0.5, 0.3)
        errors = []
        for dt in (0.02, 0.01):
            traj = sc.flow_oracle(DO1, state, 6.0, dt)
            closed = sc.closed_form_eta(DO1, state, traj.times)
            errors.append(np.max(np.abs(closed - traj.eta_values)))
        order = math.log2(errors[0] / errors[1])
        assert 3.5 < order < 4.5

    @pytest.mark.parametrize("spec", [PT11, DO1, AW1])
    def test_closed_vs_flow_over_one_period(self, spec):
        for state in sc.sample_states(spec, 2, seed=3):
            t_end = _one_period(spec, state)
            traj = sc.flow_oracle(spec, state, t_end, 1e-3)
            closed = sc.closed_form_eta(spec, state, traj.times)
            assert np.max(np.abs(closed - traj.eta_values)) < 1e-6

    @pytest.mark.parametrize(
        "spec,state",
        [(PT11, ClassicalState(0.8, 0.7)), (DO1, ClassicalState(0.5, 0.3)),
         (AW1, ClassicalState(2.2, 0.5))],
        ids=["pt", "do", "aw"],
    )
    def test_h_formed_once_per_accepted_step(self, spec, state):
        # the flow statements run at three stages and at the accepted point
        # of every step, whose partials are the next step's first stage;
        # the energy statements at the accepted point only; both once more
        # at the initial state
        ticks = []
        counted = _instrumented(
            spec, flow_line="tick('flow')", energy_line="tick('energy')", tick=ticks.append
        )
        traj = sc.flow_oracle(counted, state, 0.5, 1e-3)
        steps = len(traj.times) - 1
        assert ticks.count("flow") == 4 * steps + 1
        assert ticks.count("energy") == steps + 1
        # and counting moved no value
        plain = sc.flow_oracle(spec, state, 0.5, 1e-3)
        assert np.array_equal(traj.eta_values, plain.eta_values)
        assert traj.energy_drift == plain.energy_drift

    def test_domain_escape_with_coarse_step(self):
        # a huge step overshoots straight through the repulsive wall
        with pytest.raises(sc.DomainEscape):
            sc.flow_oracle(PT11, ClassicalState(0.3, -2.0), 5.0, 0.9)

    def test_energy_drift_detected_with_unstable_step(self):
        with pytest.raises((sc.EnergyDrift, sc.DomainEscape)):
            sc.flow_oracle(DO1, ClassicalState(1.0, 1.0), 60.0, 1.7)

    @pytest.mark.parametrize(
        "spec,state",
        [
            (DO1, ClassicalState(0.0, 800.0)),
            (AW1, ClassicalState(1.5, 2000.0)),
            (PT11, ClassicalState(0.8, 1e200)),
            (PT11, ClassicalState(0.8, math.nan)),
            (PT12, ClassicalState(1e-300, 0.0)),  # sin(x)^2 underflows to 0
            (AW1, ClassicalState(1e-300, 0.0)),
        ],
        ids=["do-overflow", "aw-overflow", "pt-overflow", "pt-nan", "pt-wall",
             "aw-wall"],
    )
    def test_non_finite_initial_energy_is_refused(self, spec, state):
        for call in (
            lambda: sc.flow_oracle(spec, state, 1.0, 1e-3),
            lambda: sc.closed_form_eta(spec, state, 0.5),
        ):
            with pytest.raises(sc.ParameterOutOfRange, match="initial state"):
                call()

    def test_overflow_within_a_step_is_energy_drift(self):
        # H0 = cosh(300) - 1 is finite, but the first stage sends p to ~1e126
        with pytest.raises(sc.EnergyDrift, match="t=0.001 "):
            sc.flow_oracle(DO1, ClassicalState(0.0, 300.0), 1.0, 1e-3)

    @pytest.mark.parametrize("spec", [PT11, AW1], ids=["pt", "aw"])
    def test_infinite_partial_near_the_wall_is_energy_drift(self, spec):
        # H is finite at x = 1e-150 but dH/dx overflows, so a stage moves x
        # to infinity, where the sine or tangent is a domain error
        with pytest.raises(sc.EnergyDrift, match="t=0.001 "):
            sc.flow_oracle(spec, ClassicalState(1e-150, 0.1), 0.01, 1e-3)

    def test_state_on_the_wall_is_outside(self):
        with pytest.raises(sc.DomainEscape):
            sc.closed_form_eta(PT11, ClassicalState(0.0, 1.0), 0.5)

    def test_overflowing_r0_is_refused_by_the_closed_form(self):
        # H0 = 3.15e307 is finite, but R0(H0) = 4 (g + h)^2 + 8 H0 overflows
        spec, state = sc.PoschlTeller(6.69e153, 1.0), ClassicalState(0.7, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sc.ParameterOutOfRange) as raised:
                sc.closed_form_eta(spec, state, 0.5)
        assert str(raised.value) == (
            "R0(H0) overflows at the initial energy H0=3.1542827489577394e+307"
        )

    def test_zero_r0_at_the_floor_of_the_well_is_non_oscillatory(self):
        # (g + h)^2 underflows, so R0(H0) = 4 (g + h)^2 + 8 H0 = 0 at H0 = 0
        spec, state = sc.PoschlTeller(1e-200, 1e-200), ClassicalState(math.pi / 4, 0.0)
        message = "R0(H0)=0.0 <= 0 at energy 0.0"
        for call in (
            lambda: sc.closed_form_eta(spec, state, 0.5),
            lambda: sc.check_closed_vs_flow(spec, [state]),
        ):
            with pytest.raises(sc.NonOscillatory, match=f"^{re.escape(message)}$"):
                call()

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            sc.flow_oracle(DO1, ClassicalState(0.0, 0.0), 1.0, 0.0)
        with pytest.raises(sc.ParameterOutOfRange):
            sc.flow_oracle(DO1, ClassicalState(0.0, 0.0), -1.0, 1e-3)

    @pytest.mark.parametrize("t_end", [1e-9, 4e-4, 5e-4])
    def test_refuses_a_span_of_at_most_half_a_step(self, t_end):
        with pytest.raises(sc.ParameterOutOfRange, match="half a step of dt=0.001"):
            sc.flow_oracle(DO1, ClassicalState(0.5, 0.3), t_end, 1e-3)

    def test_flow_ends_at_the_rounded_step_count(self):
        for t_end, steps in ((6e-4, 1), (2.4e-3, 2), (2.6e-3, 3)):
            traj = sc.flow_oracle(DO1, ClassicalState(0.5, 0.3), t_end, 1e-3)
            assert len(traj.times) == steps + 1
            assert traj.times[-1] == steps * 1e-3

    @pytest.mark.parametrize("t_end, dt", [(1.0, 1e-300), (1e300, 1e-300)])
    def test_refuses_a_step_count_beyond_the_cap_before_allocating(self, t_end, dt):
        tracemalloc.start()
        try:
            with pytest.raises(sc.ParameterOutOfRange, match="steps .*allowed"):
                sc.flow_oracle(DO1, ClassicalState(0.5, 0.3), t_end, dt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestFlowMatchesReference:
    """The compiled loop, with k1 taken from the previous step's energy
    evaluation and the constants bound once, must leave every value of the
    five-evaluation loop unchanged."""

    @pytest.mark.parametrize(
        "spec,x,p,t_end,dt",
        [
            (PT11, 0.8, 0.7, 4.0, 1e-3),
            (PT11, 0.6, -1.1, 4.0, 1e-3),
            (sc.PoschlTeller(2.0, 3.0), 0.95, 1.2, 4.0, 1e-3),
            (DO1, 0.5, 0.3, 4.0, 1e-3),
            (sc.DeformedOscillator(1.3), -1.4, 0.9, 4.0, 1e-3),
            (DO1, 1, 1, 4.0, 1e-3),
            (AW1, 1.3, 0.7, 4.0, 1e-3),
            (AW1, 2.2, 0.5, 4.0, 1e-3),
            (AW2, 0.9, -0.8, 4.0, 1e-3),
            (AW0, 1.6, 0.4, 4.0, 1e-3),
            # aw on each side of pi/2, where a pair's real part changes form
            (AW1, 1.5, 0.6, 4.0, 1e-3),
            (AW1, 1.65, -0.6, 4.0, 1e-3),
            (AW2, 1.55, 0.3, 4.0, 1e-3),
            (AW2, 1.6, -0.2, 4.0, 1e-3),
            # 1e-4 from each wall, with a step fine enough to stay inside
            (PT11, 1e-4, 0.3, 1e-7, 1e-10),
            (PT11, 0.5 * math.pi - 1e-4, 0.3, 1e-7, 1e-10),
            (AW1, 1e-4, 0.3, 1e-11, 1e-14),
            (AW1, math.pi - 1e-4, 0.3, 1e-11, 1e-14),
        ],
    )
    def test_bit_identical(self, spec, x, p, t_end, dt):
        state = ClassicalState(x, p)
        times, eta_values, drift = _reference_flow(spec, state, t_end, dt)
        traj = sc.flow_oracle(spec, state, t_end, dt)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.eta_values, eta_values)
        assert traj.energy_drift == drift

    @pytest.mark.parametrize(
        "spec,state,t_end,dt,error",
        [
            (PT11, ClassicalState(0.3, -2.0), 5.0, 0.9, sc.DomainEscape),
            (DO1, ClassicalState(1.0, 1.0), 60.0, 1.7, sc.EnergyDrift),
            (PT11, ClassicalState(1e-4, 0.3), 1.0, 1e-3, sc.DomainEscape),
            (PT11, ClassicalState(0.5 * math.pi - 1e-4, 0.3), 1.0, 1e-3, sc.DomainEscape),
            (AW1, ClassicalState(1e-4, 0.3), 1.0, 1e-3, sc.EnergyDrift),
            (AW1, ClassicalState(math.pi - 1e-4, 0.3), 1.0, 1e-3, sc.EnergyDrift),
            # the flows of tools/compare_reports.py whose error is raised in
            # an RK4 stage
            (PT11, ClassicalState(1e-150, 0.1), 1.0, 1e-3, sc.EnergyDrift),
            (sc.AskeyWilson(0.3, -0.2, 0.4, 0.1, q=0.6), ClassicalState(1e-130, 0.1),
             1.0, 1e-3, sc.EnergyDrift),
            # the same aw system at a state whose R0(H0) is finite, so that
            # the flow check too reaches the stage that raises
            (sc.AskeyWilson(0.3, -0.2, 0.4, 0.1, q=0.6), ClassicalState(1e-60, 0.1),
             1.0, 1e-3, sc.EnergyDrift),
            (DO1, ClassicalState(0.5, 700.0), 1.0, 1e-3, sc.EnergyDrift),
            # a partial overflows to inf inside a stage and the step ends at
            # a position that is not finite: nan, then -inf
            (DO1, ClassicalState(0.0, 700.0), 1.0, 1e-3, sc.EnergyDrift),
            (DO1, ClassicalState(1e308, 0.1), 1.0, 1e-3, sc.EnergyDrift),
        ],
        ids=["domain-escape", "energy-drift", "pt-low-wall", "pt-high-wall",
             "aw-low-wall", "aw-high-wall", "pt-stage", "aw-stage", "aw-stage-finite-r0",
             "do-stage", "do-nan-position", "do-infinite-position"],
    )
    def test_same_error(self, spec, state, t_end, dt, error):
        with pytest.raises(error) as expected:
            _reference_flow(spec, state, t_end, dt)
        with pytest.raises(error) as raised:
            sc.flow_oracle(spec, state, t_end, dt)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("spec", [PT12, DO1, AW1, AW2, AW0])
    def test_hamiltonian_and_brackets(self, spec):
        energy, partials, second = _reference_terms(spec)
        states = sc.sample_states(spec, 20, seed=9)
        if spec.tag == "aw":
            # cos x <= 0 past pi/2, where the real part of a pair takes its
            # second form; next to each wall and on both sides of pi/2
            states += [ClassicalState(x, 0.6) for x in (1e-4, 1.5, 1.6, 2.9, math.pi - 1e-4)]
        for state in states:
            x, p = state.x, state.p
            assert sc.classical._state_terms(spec, state) == spec.flow.terms(x, p)
            assert spec.flow.terms(x, p) == (energy(x, p), *partials(x, p), *second(x, p))
            assert sc.classical._orbit(spec, state)[2] == -partials(x, p)[1] * spec.deta_dx(x)


def _kernel_points(spec, count, seed):
    """Seeded (x, p) points for comparing a family's kernels: x across the
    domain (on both sides of pi/2 for aw), 1e-4 inside each wall and 0.3
    past it, as an RK4 stage may ask, with |p| <= 5; then points where a
    kernel divides by zero, overflows or is handed inf or nan."""
    rng = np.random.default_rng(seed)
    lo, hi = spec.domain if spec.tag != "do" else (-30.0, 30.0)
    xs = [*rng.uniform(lo, hi, count), lo + 1e-4, hi - 1e-4, lo - 0.3, hi + 0.3]
    if spec.tag == "aw":
        xs += [1.5, 1.6]
    points = [(float(x), float(p)) for x, p in zip(xs, rng.uniform(-5.0, 5.0, len(xs)))]
    return points + [(0.0, 0.3), (1e-170, 0.3), (0.5, 800.0), (math.inf, 0.3),
                     (math.nan, 0.3), (0.5, math.nan)]


def _kernel_outcome(kernel, x, p):
    """The kernel's values as hex strings (bit for bit, NaN and the sign of
    zero included), or the type and message of the error it raised."""
    try:
        return tuple(map(float.hex, kernel(x, p)))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _stage_outcome(spec, recorded, x, p):
    """What RK4 stage 2 of `spec`'s compiled loop gives at (x, p), as
    `_kernel_outcome` does: the partials that a line appended to its flow
    statements put in `recorded`, or the error of the stage.  With a first
    stage of zero, stage 2 is at (x, p) itself.  What follows it may raise,
    or leave even an infinite domain at a NaN position, once it has
    recorded."""
    recorded.clear()
    try:
        spec.flow.loop(x, p, 0.0, 0.0, 0.0, math.inf, 1e-3, 1, -math.inf, math.inf,
                       np.arange(2) * 1e-3, lambda _: None)
    except (ArithmeticError, ValueError, sc.DomainEscape) as exc:
        if not recorded:
            return type(exc), str(exc)
    return tuple(map(float.hex, recorded[0]))


class TestCompiledFlow:
    @pytest.mark.parametrize(
        "spec", [PT11, PT12, DO1, sc.DeformedOscillator(1e-3), AW1, AW2, AW0,
                 sc.AskeyWilson(0.99, -0.98, 0.97, 0.5, q=0.9)],
        ids=["pt11", "pt12", "do1", "do-small", "aw1", "aw2", "aw0", "aw-near-one"],
    )
    def test_stages_match_flow_terms_bit_for_bit(self, spec):
        # the loop's stages run the flow statements without the energy
        # block, which must neither move the partials nor raise where they
        # do not
        recorded = []
        stages = _instrumented(spec, flow_line="record((KX, KP))", record=recorded.append)
        errors = 0
        for x, p in _kernel_points(spec, 200, seed=17):
            terms = _kernel_outcome(spec.flow.terms, x, p)
            if isinstance(terms[0], str):
                terms = terms[1:3]
            else:
                errors += 1
            assert _stage_outcome(stages, recorded, x, p) == terms, (x, p)
        assert errors > 0  # the error paths were compared too

    def test_compiled_once_per_system(self, monkeypatch):
        compiled = []
        compile_flow = sc.classical.compile_flow
        monkeypatch.setattr(
            sc.classical, "compile_flow", lambda spec: compiled.append(spec) or compile_flow(spec)
        )
        spec = dataclasses.replace(AW1)
        states = sc.sample_states(spec, 3, seed=4)
        sc.check_closed_vs_flow(spec, states, t_end=0.05)
        sc.check_poisson_closure(spec, states)
        assert compiled == [spec]
        assert spec.flow is spec.flow
        # kept on the instance, not on the class or the module: an equal
        # system compiles its own
        other = dataclasses.replace(spec)
        assert other.flow is not spec.flow and compiled == [spec, other]
        assert spec == other and "flow" not in repr(spec)

    def test_nothing_is_compiled_at_import(self):
        probe = (
            "import linecache, sincoord.cli\n"
            "print([name for name in linecache.cache if name.startswith('<sincoord')])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(sc.__path__[0])},
        ).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize(
        "first, second",
        [(PT11, sc.PoschlTeller(2.5, 0.7)), (DO1, sc.DeformedOscillator(3.25)),
         (AW1, sc.AskeyWilson(0.5, -0.6, 0.3, 0.0, q=0.55))],
        ids=["pt", "do", "aw"],
    )
    def test_systems_of_a_family_compile_to_the_same_code(self, first, second):
        # no parameter is formatted into the source: it is bound as a value
        assert first.flow_locals() != second.flow_locals()
        for name in ("terms", "loop"):
            one = getattr(first.flow, name).func.__code__
            two = getattr(second.flow, name).func.__code__
            assert one.co_code == two.co_code and one.co_consts == two.co_consts

    @pytest.mark.parametrize(
        "spec, x, p, line",
        [(PT11, 0.0, 0.3, "v = g * cx / sx - h * sx / cx"),
         (DO1, 0.5, 800.0, "c = cosh(P)"),
         (AW1, 1.5, 1e4, "ch = cosh(gp)")],
        ids=["pt", "do", "aw"],
    )
    def test_traceback_shows_the_statement(self, spec, x, p, line):
        with pytest.raises(ArithmeticError) as raised:
            spec.flow.terms(x, p)
        text = "".join(traceback.format_exception(raised.value))
        assert f'File "<sincoord flow {spec.tag}>"' in text and line in text

    def test_traceback_from_a_stage_shows_the_statement(self):
        # flow_oracle turns the stage's error into EnergyDrift; the stage's
        # own traceback points into the loop
        with pytest.raises(sc.EnergyDrift) as raised:
            sc.flow_oracle(PT11, ClassicalState(1e-150, 0.1), 1.0, 1e-3)
        stage = raised.value.__context__
        frames = traceback.extract_tb(stage.__traceback__)
        assert (frames[-1].filename, frames[-1].name) == ("<sincoord flow pt>", "flow_loop")
        assert frames[-1].line == "sx, cx = sin(X), cos(X)"

    @pytest.mark.parametrize("spec", [PT11, DO1, AW1], ids=["pt", "do", "aw"])
    def test_second_block_reads_only_the_flow_block(self, spec):
        # `terms` runs the second block after the energy block: a name the
        # energy block assigned and the second block read would silently move
        # D2P2 or D2PDX away from what the flow block's values give
        def names(block, context):
            tree = ast.parse(textwrap.dedent(getattr(spec, f"{block}_statements")))
            return {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, context)}

        read = names("second", ast.Load)
        assert not names("energy", ast.Store) & read
        assert read <= names("flow", ast.Store) | set(spec.flow_locals()) | {"X", "P"}

    @pytest.mark.parametrize("spec", [PT11, DO1, AW1], ids=["pt", "do", "aw"])
    def test_statements_keep_off_the_template_names(self, spec):
        # a statement that assigned a name of the loop would change the flow
        template = sc.classical._FLOW_SOURCE % {
            "names": "unused", "flow": "    pass", "energy": "    pass",
            "second": "    pass", "stage": "        pass", "stage_energy": "        pass",
        }
        namespace = {}
        exec(compile(template, "<template>", "exec"), namespace)
        loop_names = set(namespace["flow_loop"].__code__.co_varnames)
        interface = {"X", "P", "KX", "KP", "E", "D2P2", "D2PDX"}
        for block in ("flow", "energy", "second"):
            statements = textwrap.dedent(getattr(spec, f"{block}_statements"))
            names = {node.id for node in ast.walk(ast.parse(statements))
                     if isinstance(node, ast.Name)}
            assert not (names & loop_names) - interface, block
        assert not set(spec.flow_locals()) & loop_names


class TestAskeyWilsonTerms:
    @pytest.mark.parametrize("spec", [AW1, AW2, AW0])
    def test_match_complex_factors(self, spec):
        for state in sc.sample_states(spec, 20, seed=9):
            x, p = state.x, state.p
            got = spec.flow.terms(x, p)
            for value, expected in zip(got, _complex_terms(spec, x, p)):
                assert abs(value - expected) <= 1e-14 * max(1.0, abs(expected))

    def test_match_mpmath_within_rounding(self):
        worst = 0.0
        for spec, x, p in _aw_accuracy_points(150, seed=2024):
            got = spec.flow.terms(x, p)
            with mpmath.workdps(40):
                exact = _complex_terms(spec, x, p, mpmath, mpmath)
                errors = [abs(v - e) / max(1, abs(e)) for v, e in zip(got, exact)]
            worst = max(worst, *map(float, errors))
        assert worst <= 2e-15


class TestOracleIndependence:
    """The flow oracle takes nothing from the closure side: a closure
    coefficient moved by 1e-3 relative must fail the classical suite."""

    @pytest.mark.parametrize("name", ["b1", "b3", "b4"])
    def test_planted_closure_defect_fails(self, name, monkeypatch, capsys):
        exact = getattr(sc.AskeyWilson, name).fget
        monkeypatch.setattr(
            sc.AskeyWilson, name, property(lambda self: exact(self) * (1.0 + 1e-3))
        )
        empty_caches()
        try:
            code = cli.main(
                ["classical", "--system", "aw", "--a=0.3,-0.2,0.4,0.1", "--q", "0.6",
                 "--x0=1.5", "--p0=0.3", "--format", "json"]
            )
        finally:
            monkeypatch.undo()
            empty_caches()
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert code == 1
        assert not checks["classical_closed_vs_flow"]["pass"]


def _one_period(spec, state):
    """2 pi / sqrt(R0(H0)) at the state's energy, once `closed_form_eta` has
    made the orbit's refusals."""
    sc.closed_form_eta(spec, state, 0.0)
    h0 = spec.flow.terms(state.x, state.p)[0]
    return 2.0 * math.pi / math.sqrt(sc.classical_r_polynomials(spec)[0](h0))


def _public_flow_check(spec, states, dt, t_end):
    """The flow check's residuals from the public `flow_oracle` and
    `closed_form_eta` and a period formed in the test, each forming the
    initial terms itself; the orbit's refusals come first, with or without
    `t_end`."""
    worst_dev = worst_drift = 0.0
    for state in states:
        period = _one_period(spec, state)
        span = 3.0 * period if t_end is None else t_end
        traj = sc.flow_oracle(spec, state, span, dt)
        closed = sc.closed_form_eta(spec, state, traj.times)
        worst_dev = max(worst_dev, np.max(np.abs(closed - traj.eta_values)))
        h0 = abs(spec.flow.terms(state.x, state.p)[0])
        worst_drift = max(worst_drift, traj.energy_drift / max(1.0, h0))
    return worst_dev, worst_drift


class TestClosedVsFlow:
    @pytest.mark.parametrize("spec", [PT12, DO1, AW1], ids=["pt", "do", "aw"])
    @pytest.mark.parametrize("t_end", [None, 0.5])
    def test_matches_the_public_functions(self, spec, t_end):
        states = sc.sample_states(spec, 2, seed=3)
        deviation, drift = sc.check_closed_vs_flow(spec, states, t_end=t_end)
        expected = _public_flow_check(spec, states, 1e-3, t_end)
        assert (deviation.max_residual, drift.max_residual) == expected

    @pytest.mark.parametrize(
        "spec, state, t_end, dt, state_at_fault",
        [
            # the orbit refuses the state before flow_oracle sees dt or t_end
            (PT11, ClassicalState(0.0, 1.0), None, 0.0, True),
            (PT11, ClassicalState(0.0, 1.0), 1.0, 0.0, True),
            (PT11, ClassicalState(0.0, 1.0), 1.0, 1e-3, True),
            (DO1, ClassicalState(0.0, 800.0), None, 1e-3, True),
            (DO1, ClassicalState(0.0, 800.0), 1e-9, 1e-3, True),
            (sc.PoschlTeller(6.69e153, 1.0), ClassicalState(0.7, 1.0), None, 1e-3, True),
            (sc.PoschlTeller(6.69e153, 1.0), ClassicalState(0.7, 1.0), 0.01, 1e-3, True),
            # R0(H0) = 0 at the floor of the well, where 10^6 steps would follow
            (sc.PoschlTeller(1e-200, 1e-200), ClassicalState(math.pi / 4, 0.0), 1000.0,
             1e-3, True),
            (sc.PoschlTeller(1.0, 1.0), ClassicalState(0.7, 0.3), 1e300, 1e-3, False),
        ],
        ids=["wall", "wall-bad-dt", "wall-tend", "overflow", "overflow-short",
             "r0-overflow", "r0-overflow-tend", "zero-r0-tend", "too-many-steps"],
    )
    def test_refusals_come_in_the_order_of_the_public_functions(
        self, spec, state, t_end, dt, state_at_fault, monkeypatch
    ):
        calls = _count_flow_calls(spec, monkeypatch, "loop")
        with pytest.raises(sc.SincoordError) as expected:
            _public_flow_check(spec, [state], dt, t_end)
        with pytest.raises(sc.SincoordError) as raised:
            sc.check_closed_vs_flow(spec, [state], dt=dt, t_end=t_end)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        # a state at fault is refused as it is without t_end; too-many-steps'
        # fault is its t_end.  No refusal comes after an RK4 step.
        if state_at_fault:
            with pytest.raises(sc.SincoordError) as untimed:
                sc.check_closed_vs_flow(spec, [state], dt=dt)
            assert (type(untimed.value), str(untimed.value)) == (
                type(raised.value), str(raised.value)
            )
        assert calls["loop"] == []

    def test_fixed_end_time_hands_back_its_trajectory(self):
        state = ClassicalState(0.5, 0.3)
        trajectories = []
        deviation, drift = sc.check_closed_vs_flow(
            DO1, [state], t_end=2.0, trajectories=trajectories
        )
        assert deviation.details == {"states": 1, "t_end": 2.0}
        assert drift.details == {"states": 1}
        (traj, closed), = trajectories
        assert len(traj.times) == 2001 and traj.times[-1] == pytest.approx(2.0)
        assert deviation.max_residual == np.max(np.abs(closed - traj.eta_values))
        h0 = DO1.flow.terms(state.x, state.p)[0]
        assert drift.max_residual == traj.energy_drift / max(1.0, abs(h0))

    def test_reports_the_span_the_flow_integrated(self, capsys):
        # 0.0015 / 0.001 rounds to 2 steps, so the last row is at t = 0.002
        argv = ["classical", "--system", "do", "--a", "1", "--x0", "0.5", "--p0", "0.3",
                "--tend", "0.0015", "--format", "json"]
        assert cli.main(argv) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["classical_closed_vs_flow"]["details"] == {"states": 1, "t_end": 0.002}

    def test_only_a_trajectory_export_keeps_trajectories(self, monkeypatch, tmp_path):
        handed = []
        run = cli.run

        def spy(spec, args, trajectories=None):
            handed.append(trajectories)
            return run(spec, args, trajectories)

        monkeypatch.setattr(cli, "run", spy)
        system = ["classical", "--system", "do", "--a", "1", "--tend", "0.1"]
        assert cli.main(system + ["--states", "2", "--format", "json"]) == 0
        export = ["--x0", "0.5", "--p0", "0.3", "--format", "csv", "--out"]
        assert cli.main(system + export + [str(tmp_path / "traj.csv")]) == 0
        assert handed[0] is None
        assert len(handed[1]) == 1


class TestNoStates:
    def test_empty_state_list_has_no_verdict(self):
        with pytest.raises(sc.ParameterOutOfRange):
            sc.check_closed_vs_flow(DO1, [])
        with pytest.raises(sc.ParameterOutOfRange):
            sc.check_poisson_closure(DO1, [])

    @pytest.mark.parametrize("count, seed", [(-3, 42), (5, -1)])
    def test_negative_count_or_seed_is_refused(self, count, seed):
        with pytest.raises(sc.ParameterOutOfRange):
            sc.sample_states(DO1, count, seed)

    @pytest.mark.parametrize("seed", [2.5, None, "3"])
    def test_non_integer_seed_is_refused(self, seed):
        with pytest.raises(sc.ParameterOutOfRange, match=f"seed must be an integer, got seed={seed!r}"):
            sc.sample_states(DO1, 3, seed)

    def test_non_iterable_states_are_refused(self):
        for check in (sc.check_closed_vs_flow, sc.check_poisson_closure):
            with pytest.raises(sc.ParameterOutOfRange, match="states must be an iterable"):
                check(DO1, None)

    @pytest.mark.parametrize("state", [None, 1, (0.5, 0.3)], ids=["None", "int", "tuple"])
    def test_a_state_that_is_not_a_classical_state_is_refused(self, state):
        message = f"a phase-space state must be a ClassicalState, got {state!r}"
        for call in (
            lambda: sc.check_poisson_closure(DO1, [ClassicalState(0.5, 0.3), state]),
            lambda: sc.check_closed_vs_flow(DO1, [state]),
            lambda: sc.check_closed_vs_flow(DO1, [state], t_end=1.0),
            lambda: sc.flow_oracle(DO1, state, 1.0, 1e-3),
            lambda: sc.closed_form_eta(DO1, state, 0.0),
        ):
            with pytest.raises(sc.ParameterOutOfRange, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("bad", [None, "0.5", b"0.5", 0.5j, [0.5]])
    @pytest.mark.parametrize("slot", ["x", "p"])
    def test_a_coordinate_that_is_not_a_real_number_is_refused(self, slot, bad):
        message = f"state coordinate {slot} must be a real number, got {slot}={bad!r}"
        with pytest.raises(sc.ParameterOutOfRange, match=f"^{re.escape(message)}$"):
            ClassicalState(**({"x": 0.5, "p": 0.3} | {slot: bad}))

    def test_an_iterator_of_states_is_taken_once(self):
        states = sc.sample_states(DO1, 2, seed=3)
        flow = sc.check_closed_vs_flow(DO1, iter(states), t_end=0.1)
        assert flow == sc.check_closed_vs_flow(DO1, states, t_end=0.1)
        closure = sc.check_poisson_closure(DO1, (state for state in states))
        assert closure == sc.check_poisson_closure(DO1, states)
        assert closure.details["states"] == 2


def _poisson_h_eta_fd(spec, x, p, step=1e-6):
    """{H, eta} with all derivatives replaced by central differences."""
    ham = lambda xx, pp: spec.flow.terms(xx, pp)[0]
    dhdp = (ham(x, p + step) - ham(x, p - step)) / (2 * step)
    deta = float(spec.eta(x + step) - spec.eta(x - step)) / (2 * step)
    return -dhdp * deta


def _poisson_h_h_eta_fd(spec, x, p, step=1e-6):
    """{H, {H, eta}} with the outer bracket done by central differences."""
    ham = lambda xx, pp: spec.flow.terms(xx, pp)[0]
    inner = lambda xx, pp: sc.classical._orbit(spec, ClassicalState(xx, pp))[2]
    dfdx = (inner(x + step, p) - inner(x - step, p)) / (2 * step)
    dfdp = (inner(x, p + step) - inner(x, p - step)) / (2 * step)
    dhdx = (ham(x + step, p) - ham(x - step, p)) / (2 * step)
    dhdp = (ham(x, p + step) - ham(x, p - step)) / (2 * step)
    return dhdx * dfdp - dhdp * dfdx


class TestPoissonClosure:
    def test_do_is_machine_exact(self):
        states = sc.sample_states(DO1, 50, seed=42)
        report = sc.check_poisson_closure(DO1, states)
        assert report.max_residual <= 1e-8

    @pytest.mark.parametrize("spec", [PT11, PT12, AW1, AW0])
    def test_within_tolerance(self, spec):
        states = sc.sample_states(spec, 50, seed=42)
        report = sc.check_poisson_closure(spec, states)
        assert report.passed and report.max_residual <= 1e-6

    def test_aw_zero_parameter_coefficients(self):
        # c1 = 1, c2 = 1/4, c3 = c4 = 0 when all four parameters vanish
        r0, rm1 = sc.classical_r_polynomials(AW0)
        gsq = AW0.log_q**2
        assert r0 == pytest.approx((0.25 * gsq, gsq, gsq))
        assert rm1 == pytest.approx((0.0, 0.0))

    @pytest.mark.parametrize(
        "spec, x, p",
        [
            (AW1, 1e-200, 0.3),  # division by zero next to the wall
            (AW1, 1.5, 1e4),  # cosh(p ln q) overflows
            (PT11, 1e-200, 0.3),
            (DO1, 0.5, 800.0),
        ],
    )
    def test_nonfinite_terms_are_refused_naming_the_state(self, spec, x, p):
        with pytest.raises(sc.ParameterOutOfRange, match=f"x={x}, p={p}"):
            sc.check_poisson_closure(spec, [ClassicalState(x, p)])

    @pytest.mark.parametrize("spec", [PT12, DO1, AW1])
    def test_analytic_brackets_match_finite_differences(self, spec):
        for state in sc.sample_states(spec, 10, seed=5):
            ana1 = sc.classical._orbit(spec, state)[2]
            fd1 = _poisson_h_eta_fd(spec, state.x, state.p)
            assert abs(ana1 - fd1) <= 1e-6 * max(1.0, abs(ana1))
            ana2 = sc.classical._h_h_eta(spec, state.x, sc.classical._state_terms(spec, state))
            fd2 = _poisson_h_h_eta_fd(spec, state.x, state.p)
            assert abs(ana2 - fd2) <= 1e-6 * max(1.0, abs(ana2))

    def test_one_flow_terms_evaluation_per_state(self, monkeypatch):
        # one `terms` call per state, giving H and both orders of partials,
        # and no flow; a separate H or second-partial evaluation would add a
        # second call
        spec = dataclasses.replace(AW1)
        names = ("terms", "loop")
        calls = _count_flow_calls(spec, monkeypatch, *names)
        states = sc.sample_states(spec, 50, seed=42)
        sc.check_poisson_closure(spec, states)
        assert [len(calls[name]) for name in names] == [len(states), 0]

    @pytest.mark.parametrize("t_end", [None, 0.05])
    def test_two_flow_terms_evaluations_per_flow_state(self, monkeypatch, t_end):
        # the flow check forms each state's H and partials once for the
        # orbit (2 pi / omega, closed form) and |H0|, and `flow_oracle` once for
        # the first RK4 step; a further evaluation at the initial point
        # would add a call
        spec = dataclasses.replace(AW1)
        names = ("terms", "loop")
        calls = _count_flow_calls(spec, monkeypatch, *names)
        states = sc.sample_states(spec, 2, seed=42)
        sc.check_closed_vs_flow(spec, states, t_end=t_end)
        assert [len(calls[name]) for name in names] == [2 * len(states), len(states)]
        assert [args[-2:] for args in calls["terms"]] == [
            (s.x, s.p) for s in states for _ in range(2)
        ]


def _per_point_reconstruction(g, h):
    """The potential check written as a per-point rebuilt potential and
    reference well, each point on its own: (worst residual, c)."""
    spec = sc.PoschlTeller(g, h)
    r00, r1, rm10 = (r(0.0) for r in sc.r_polynomials(spec))

    def well(x):
        return float(
            0.5 * g * (g - 1.0) / np.sin(x) ** 2
            + 0.5 * h * (h - 1.0) / np.cos(x) ** 2
            - 0.5 * (g + h) ** 2
        )

    def rebuilt(x):
        d, e = float(spec.deta_dx(x)), float(spec.eta(x))
        return (0.5 * r00 * e * e + rm10 * e + c) / (d * d) - r1 / 8.0

    e_fit, d_fit = float(spec.eta(0.7)), float(spec.deta_dx(0.7))
    c = (well(0.7) + r1 / 8.0) * d_fit**2 - 0.5 * r00 * e_fit**2 - rm10 * e_fit
    xs = np.linspace(0.15, 0.5 * math.pi - 0.15, 50).tolist()
    return max(abs(rebuilt(x) - well(x)) for x in xs), c


class TestReconstructPotential:
    def test_pt_reconstruction(self):
        for spec in (sc.PoschlTeller(2.0, 3.0), PT11, PT12):
            report = sc.check_potential_reconstruction(spec.g, spec.h)
            assert report.passed and report.max_residual <= 1e-10

    @pytest.mark.parametrize(
        "g, h",
        [(1e-300, 1.0), (1e-3, 1.0), (0.3, 0.5), (0.6, 4.0), (4.0, 0.6), (0.7, 1.3),
         (1.0, 1.0), (2.0, 3.0), (50.0, 0.7), (300.0, 300.0), (1e3, 1e-2), (1e10, 1e10),
         (1e150, 1.0)],
    )
    def test_array_form_matches_the_per_point_values(self, g, h):
        report = sc.check_potential_reconstruction(g, h)
        worst, c = _per_point_reconstruction(g, h)
        assert report.details["points"] == 50
        assert float(report.max_residual).hex() == float(worst).hex()
        assert float(report.details["c"]).hex() == float(c).hex()

    @pytest.mark.parametrize(
        "g, h, residual",
        [(100.0, 100.0, 1.2e-10), (300.0, 300.0, 7.0e-10), (1e3, 1e-2, 1.9e-9),
         (1e10, 1e10, 1.0e6), (1e150, 1.0, 4.8e285)],
    )
    def test_large_couplings_fail_on_the_absolute_tolerance(self, g, h, residual):
        # ROADMAP item 7: the tolerance is an absolute 1e-10 on a well of
        # size (g + h)^2
        report = sc.check_potential_reconstruction(g, h)
        assert not report.passed
        assert f"{report.max_residual:.1e}" == f"{residual:.1e}"

    def test_past_double_range_the_residual_has_no_verdict(self):
        # the rebuilt potential and the well both overflow to inf near the
        # walls, and their difference is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(sc.NonFiniteResidual, match="potential_reconstruction"):
                sc.check_potential_reconstruction(6e153, 1.0)


def _reference_csv(path, times, eta_closed, eta_numeric):
    """The per-row writer the block writer must match byte for byte."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,eta_closed,eta_numeric,abs_err\n")
        for t, c, n in zip(times, eta_closed, eta_numeric):
            handle.write(f"{t:.17g},{c:.17g},{n:.17g},{abs(c - n):.17g}\n")


def _assert_same_bytes(tmp_path, columns):
    sc.write_trajectory_csv(str(tmp_path / "block.csv"), *columns)
    _reference_csv(str(tmp_path / "row.csv"), *columns)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


def _export(spec, state, t_end):
    traj = sc.flow_oracle(spec, state, t_end, 1e-3)
    return traj.times, sc.closed_form_eta(spec, state, traj.times), traj.eta_values


class TestTrajectoryExport:
    @pytest.mark.parametrize(
        "spec,state",
        [
            (PT12, ClassicalState(0.9, 0.6)),
            (DO1, ClassicalState(0.5, 0.3)),
            (AW1, ClassicalState(1.3, 0.7)),
        ],
    )
    def test_matches_per_row_writer(self, tmp_path, spec, state):
        columns = _export(spec, state, 10.0)
        assert len(columns[0]) == 10001
        _assert_same_bytes(tmp_path, columns)

    @pytest.mark.parametrize("rows", [1, 999, 1000, 1001, 2345])
    def test_block_edges_and_special_values(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = [
            rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
            for _ in range(3)
        ]
        special = [-0.0, 0.0, 5e-324, np.inf, -np.inf, np.nan, 1.0, -1e308]
        columns[1][: len(special)] = special[:rows]
        _assert_same_bytes(tmp_path, columns)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_other_dtypes_are_written_as_their_doubles(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        columns = [(rng.normal(size=700) * 1e6).astype(dtype) for _ in range(3)]
        _assert_same_bytes(tmp_path, columns)

    def test_peak_memory_stays_below_one_mib(self, tmp_path):
        columns = _export(DO1, ClassicalState(0.5, 0.3), 10.0)
        tracemalloc.start()
        try:
            sc.write_trajectory_csv(str(tmp_path / "traj.csv"), *columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_peak_memory_stays_flat_with_trajectory_length(self, tmp_path):
        columns = _export(DO1, ClassicalState(0.5, 0.3), 100.0)
        assert len(columns[0]) == 100001
        tracemalloc.start()
        try:
            sc.write_trajectory_csv(str(tmp_path / "traj.csv"), *columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "system, x0, wide_eta",
        [
            (["--system", "do", "--a", "1"], "12", True),
            (["--system", "pt", "--g", "1.3", "--h", "2.1"], "0.8", False),
        ],
    )
    def test_cli_export_through_the_fixed_decades(
        self, monkeypatch, tmp_path, system, x0, wide_eta
    ):
        # t from 10 to 20, and do's eta near 12, are fixed notation with
        # the digits of decade 1 moved over the point
        handed = []
        write = cli.classical.write_trajectory_csv

        def spy(path, *columns):
            handed.append(columns)
            write(path, *columns)

        monkeypatch.setattr(cli.classical, "write_trajectory_csv", spy)
        out = tmp_path / "block.csv"
        argv = ["classical", *system, f"--x0={x0}", "--p0=0.3", "--tend", "20",
                "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        (columns,) = handed
        assert np.count_nonzero(columns[0] >= 10.0) == 10001
        assert np.any(np.abs(columns[1]) >= 10.0) == wide_eta
        _reference_csv(str(tmp_path / "row.csv"), *columns)
        assert out.read_bytes() == (tmp_path / "row.csv").read_bytes()

    def test_csv_columns(self, tmp_path):
        state = ClassicalState(0.5, 0.3)
        traj = sc.flow_oracle(DO1, state, 1.0, 1e-2)
        closed = sc.closed_form_eta(DO1, state, traj.times)
        path = tmp_path / "traj.csv"
        sc.write_trajectory_csv(str(path), traj.times, closed, traj.eta_values)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,eta_closed,eta_numeric,abs_err"
        assert len(lines) == len(traj.times) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == abs(float(first[1]) - float(first[2]))


def _assert_g17(values, rows=4096, columns=1):
    """The block formatter's text of `values`, `columns` to a row, against
    CPython's '%.17g' of each, a block of `rows` rows at a time."""
    for start in range(0, len(values), rows * columns):
        block = values[start : start + rows * columns]
        text = format_block(block.reshape(-1, columns))
        ends = ([","] * (columns - 1) + ["\n"]) * (len(block) // columns)
        expected = ["%.17g" % v + end for v, end in zip(block.tolist(), ends)]
        if text != "".join(expected):
            got = re.split(r"(?<=[,\n])", text)
            i = next(i for i, (g, e) in enumerate(zip(got, expected)) if g != e)
            raise AssertionError(
                f"{block[i]!r} ({block[i:i + 1].view(np.uint64)[0]:#x}) gave "
                f"{got[i]!r}, '%.17g' gives {expected[i]!r}"
            )


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def _text_layout(text):
    """(sign, notation class, significant digits) of a '%.17g' text; the
    classes are fixed notation at E -4..16, then scientific with 2 exponent
    digits (E >= 0, E < 0) and with 3 (E >= 0, E < 0)."""
    value = Decimal(text)
    sign, digits, _ = value.as_tuple()
    e = value.adjusted()
    if -4 <= e <= 16:
        notation = e
    else:
        notation = ("sci", abs(e) >= 100, e < 0)
    return sign, notation, len("".join(map(str, digits)).strip("0")) or 1


def _layout_values():
    """One double for each layout of a finite nonzero value's text: each
    sign, notation class and count of significant digits 1..17."""
    rng = np.random.default_rng(34)
    decades = [[e] for e in range(-4, 17)] + [
        range(17, 100), range(-5, -100, -1), range(100, 280), range(-100, -280, -1)
    ]
    values = []
    for decade in decades:
        for k in range(1, 18):
            mantissas = range(1, 10) if k == 1 else rng.integers(10 ** (k - 1), 10**k, 400)
            # the first k-digit decimal whose nearest double keeps k digits
            values.append(next(
                v for e in decade for m in mantissas
                for v in [float(f"{m}e{e - k + 1}")]
                if _text_layout("%.17g" % v)[2] == k
                and Decimal("%.17g" % v).adjusted() == e
            ))
    values = _signed(values)
    layouts = {_text_layout("%.17g" % v) for v in values.tolist()}
    assert len(layouts) == len(values) == 2 * 25 * 17
    return values


class TestG17Kernel:
    """The export's block formatter writes the bytes of '%.17g' for every
    double, through its exact path or through CPython's conversion."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(1971)
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        values = bits.view(np.float64)
        assert np.count_nonzero(values[np.isfinite(values)] < 0) > 4 * 10**5
        assert np.count_nonzero(np.abs(values) < np.finfo(float).tiny) > 200
        _assert_g17(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        neighbours = [np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
        _assert_g17(_signed(np.concatenate([powers, *neighbours])))

    def test_short_decimals(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=20000) * 10.0 ** rng.integers(-6, 12, 20000)
        digits = rng.integers(0, 16, 20000)
        _assert_g17(_signed([round(v, int(d)) for v, d in zip(x, digits)]))

    def test_millisecond_grid(self):
        _assert_g17(np.arange(200001) * 1e-3)

    def test_integers_near_two_to_the_sixty(self):
        _assert_g17(_signed(2.0**60 + 256.0 * np.arange(-4096, 4096)))

    def test_exact_ties(self):
        # 15 integer digits and three binary places: each value has 18
        # significant digits, the last a 5, so '%.17g' rounds half to even
        base = 1e14 + 12345.0 * np.arange(1000)
        values = (base[:, None] + np.array([0.125, 0.375, 0.625, 0.875])).ravel()
        for v in values[:8]:
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        _assert_g17(_signed(values))

    def test_odd_multiples_of_powers_of_two(self):
        # m 2^-j has j decimal places, so some of these are exact ties where
        # 10^(16-E) is not a double and the product is rounded
        powers = np.ldexp(1.0, np.arange(-1074, 1017))
        _assert_g17(_signed((powers[:, None] * np.arange(1, 100, 2)).ravel()))

    def test_edges_of_the_exact_range(self):
        edges = np.array(_RANGE)
        values = [edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
        _assert_g17(_signed(np.concatenate(values)))

    def test_zeros_and_non_finite_values(self):
        _assert_g17(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]))

    def test_the_text_does_not_depend_on_the_powers_already_computed(self):
        # the powers of ten are kept for the whole process, so a fresh one
        # formats its first block with none computed, then every one in
        # _RANGE, then the first block again with all of them computed
        probe = textwrap.dedent("""
            import numpy as np
            from sincoord._g17 import _POWERS, _RANGE, format_block
            first = np.random.default_rng(36).uniform(1.0, 10.0, 1000)
            powers = np.array([float(f"1e{k}") for k in range(-280, 281)])
            assert (powers[0], powers[-1]) == _RANGE
            near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
            for block in (first, np.concatenate(near + [-p for p in near]), first):
                known = np.count_nonzero(_POWERS[0])
                text = format_block(block.reshape(-1, 1))
                print(known, text == "".join("%.17g\\n" % v for v in block.tolist()))
        """)
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(sc.__path__[0])},
        )
        assert (result.returncode, result.stderr) == (0, "")
        known, same = zip(*(line.split() for line in result.stdout.splitlines()))
        assert same == ("True",) * 3
        assert known[0] == "0" and int(known[2]) > int(known[1])

    @pytest.mark.parametrize(
        "rows, columns",
        [
            pytest.param(rows, columns, id=name + (f"-{columns}-columns" if columns > 1 else ""))
            for columns in (1, 2, 3)
            for rows, name in ((1, "1"), (999, "999"), (_CSV_BLOCK_ROWS, "writer"))
        ],
    )
    def test_every_layout_at_the_first_and_last_row_of_a_block(self, rows, columns):
        # each value is the first value of one block and the last value of
        # the block before it
        values = _layout_values()
        if rows * columns > 1:
            filler = np.full((len(values), rows * columns - 2), 0.25)
            values = np.column_stack([values, filler, np.roll(values, -1)])
        _assert_g17(values.ravel(), rows, columns)

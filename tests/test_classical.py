"""Classical closed form, RK4 flow oracle, closure, potential rebuild."""

import cmath
import dataclasses
import json
import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import sincoord as sc
from sincoord import cli
from sincoord._g17 import _RANGE, BlockFormatter
from sincoord.classical import ClassicalState

from conftest import empty_caches

PT11 = sc.PoschlTeller(1.0, 1.0)
PT12 = sc.PoschlTeller(1.0, 2.0)
DO1 = sc.DeformedOscillator(1.0)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)
AW0 = sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=0.5)
AW2 = sc.AskeyWilson(0.5, -0.6, 0.3, 0.0, q=0.55)


def _reference_terms(spec):
    """H, (dH/dx, dH/dp) and the second partials (d2H/dp2, d2H/dpdx) as
    separate scalar functions, in the operation order `flow_terms` and
    `second_partials` must keep: pt's H in its tan form and its partials in
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
    """flow_terms and second_partials of aw from one complex factor per
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


def _count_kernel_calls(spec, monkeypatch, *names):
    """Record the arguments of every call of each named kernel of `spec`,
    wrapped in the instance `__dict__` where the bound kernel sits, in the
    returned dict of lists keyed by name."""
    calls = {}
    for name in names:

        def counted(*args, kernel=getattr(spec, name), record=calls.setdefault(name, [])):
            record.append(args)
            return kernel(*args)

        monkeypatch.setitem(vars(spec), name, counted)
    return calls


def _reference_flow(spec, state, t_end, dt):
    """The scalar RK4 loop with five separate evaluations per step: four
    partials and the energy behind the drift guard."""
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
        k1x, k1p = rhs(x, p)
        k2x, k2p = rhs(x + 0.5 * dt * k1x, p + 0.5 * dt * k1p)
        k3x, k3p = rhs(x + 0.5 * dt * k2x, p + 0.5 * dt * k2p)
        k4x, k4p = rhs(x + dt * k3x, p + dt * k3p)
        x += dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
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
        h0 = PT12.flow_terms(state.x, state.p)[0]
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
            t_end = sc.period(spec, state)
            traj = sc.flow_oracle(spec, state, t_end, 1e-3)
            closed = sc.closed_form_eta(spec, state, traj.times)
            assert np.max(np.abs(closed - traj.eta_values)) < 1e-6

    @pytest.mark.parametrize(
        "spec,state",
        [(PT11, ClassicalState(0.8, 0.7)), (DO1, ClassicalState(0.5, 0.3)),
         (AW1, ClassicalState(2.2, 0.5))],
        ids=["pt", "do", "aw"],
    )
    def test_one_kernel_call_per_stage(self, spec, state, monkeypatch):
        # three partials-only stages per step and H with the partials at the
        # accepted point, whose partials are the next step's first stage; one
        # more H at the initial state
        spec = dataclasses.replace(spec)
        calls = _count_kernel_calls(spec, monkeypatch, "flow_terms", "flow_partials")
        traj = sc.flow_oracle(spec, state, 0.5, 1e-3)
        steps = len(traj.times) - 1
        assert len(calls["flow_partials"]) == 3 * steps
        assert len(calls["flow_terms"]) == steps + 1

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
            lambda: sc.period(spec, state),
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
            sc.period(PT11, ClassicalState(0.0, 1.0))

    def test_overflowing_r0_is_refused_alike_by_period_and_closed_form(self):
        # H0 = 3.15e307 is finite, but R0(H0) = 4 (g + h)^2 + 8 H0 overflows
        spec, state = sc.PoschlTeller(6.69e153, 1.0), ClassicalState(0.7, 1.0)
        with pytest.raises(sc.ParameterOutOfRange, match="R0.H0. overflows") as expected:
            sc.period(spec, state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sc.ParameterOutOfRange) as raised:
                sc.closed_form_eta(spec, state, 0.5)
        assert str(raised.value) == str(expected.value)

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
    """One `flow_terms` call per stage, k1 taken from the previous step's
    energy evaluation and constants bound once must leave every value of the
    five-evaluation loop unchanged."""

    @pytest.mark.parametrize(
        "spec,x,p",
        [
            (PT11, 0.8, 0.7),
            (PT11, 0.6, -1.1),
            (sc.PoschlTeller(2.0, 3.0), 0.95, 1.2),
            (DO1, 0.5, 0.3),
            (sc.DeformedOscillator(1.3), -1.4, 0.9),
            (DO1, 1, 1),
            (AW1, 1.3, 0.7),
            (AW1, 2.2, 0.5),
            (AW2, 0.9, -0.8),
            (AW0, 1.6, 0.4),
        ],
    )
    def test_bit_identical(self, spec, x, p):
        state = ClassicalState(x, p)
        times, eta_values, drift = _reference_flow(spec, state, 4.0, 1e-3)
        traj = sc.flow_oracle(spec, state, 4.0, 1e-3)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.eta_values, eta_values)
        assert traj.energy_drift == drift

    @pytest.mark.parametrize(
        "spec,state,t_end,dt,error",
        [
            (PT11, ClassicalState(0.3, -2.0), 5.0, 0.9, sc.DomainEscape),
            (DO1, ClassicalState(1.0, 1.0), 60.0, 1.7, sc.EnergyDrift),
        ],
        ids=["domain-escape", "energy-drift"],
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
            assert sc.classical._initial_terms(spec, state)[0] == energy(x, p)
            assert spec.flow_terms(x, p) == (energy(x, p), *partials(x, p))
            assert spec.second_partials(x, p) == second(x, p)
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


class TestKernelModes:
    @pytest.mark.parametrize(
        "spec", [PT11, PT12, DO1, sc.DeformedOscillator(1e-3), AW1, AW2, AW0,
                 sc.AskeyWilson(0.99, -0.98, 0.97, 0.5, q=0.9)],
        ids=["pt11", "pt12", "do1", "do-small", "aw1", "aw2", "aw0", "aw-near-one"],
    )
    def test_partials_match_terms_bit_for_bit(self, spec):
        errors = 0
        for x, p in _kernel_points(spec, 200, seed=17):
            terms = _kernel_outcome(spec.flow_terms, x, p)
            if isinstance(terms[0], str):
                terms = terms[1:]
            else:
                errors += 1
            assert _kernel_outcome(spec.flow_partials, x, p) == terms, (x, p)
        assert errors > 0  # the error paths were compared too

    def test_kernels_are_bound_once_per_system(self):
        spec = dataclasses.replace(AW1)
        for name in ("flow_terms", "flow_partials", "second_partials"):
            assert getattr(spec, name) is getattr(spec, name)
        assert spec.flow_terms is not dataclasses.replace(spec).flow_terms
        assert spec == dataclasses.replace(spec) and "flow_terms" not in repr(spec)


class TestAskeyWilsonTerms:
    @pytest.mark.parametrize("spec", [AW1, AW2, AW0])
    def test_match_complex_factors(self, spec):
        for state in sc.sample_states(spec, 20, seed=9):
            x, p = state.x, state.p
            got = spec.flow_terms(x, p) + spec.second_partials(x, p)
            for value, expected in zip(got, _complex_terms(spec, x, p)):
                assert abs(value - expected) <= 1e-14 * max(1.0, abs(expected))

    def test_match_mpmath_within_rounding(self):
        worst = 0.0
        for spec, x, p in _aw_accuracy_points(150, seed=2024):
            got = spec.flow_terms(x, p) + spec.second_partials(x, p)
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


class TestClosedVsFlow:
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
        h0 = DO1.flow_terms(state.x, state.p)[0]
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


def _poisson_h_eta_fd(spec, x, p, step=1e-6):
    """{H, eta} with all derivatives replaced by central differences."""
    ham = lambda xx, pp: spec.flow_terms(xx, pp)[0]
    dhdp = (ham(x, p + step) - ham(x, p - step)) / (2 * step)
    deta = float(spec.eta(x + step) - spec.eta(x - step)) / (2 * step)
    return -dhdp * deta


def _poisson_h_h_eta_fd(spec, x, p, step=1e-6):
    """{H, {H, eta}} with the outer bracket done by central differences."""
    ham = lambda xx, pp: spec.flow_terms(xx, pp)[0]
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
        closure = sc.classical_r_polynomials(AW0)
        gsq = AW0.log_q**2
        assert closure.r0.coeffs == pytest.approx((0.25 * gsq, gsq, gsq))
        assert closure.rm1.coeffs == pytest.approx((0.0, 0.0))

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
            ana2 = sc.classical._h_and_h_h_eta(spec, state.x, state.p)[1]
            fd2 = _poisson_h_h_eta_fd(spec, state.x, state.p)
            assert abs(ana2 - fd2) <= 1e-6 * max(1.0, abs(ana2))

    def test_one_flow_terms_evaluation_per_state(self, monkeypatch):
        # one flow_terms and one second_partials call per state; a separate
        # H evaluation would add a third kernel call
        spec = dataclasses.replace(AW1)
        names = ("flow_terms", "flow_partials", "second_partials")
        calls = _count_kernel_calls(spec, monkeypatch, *names)
        states = sc.sample_states(spec, 50, seed=42)
        sc.check_poisson_closure(spec, states)
        assert [len(calls[name]) for name in names] == [len(states), 0, len(states)]


class TestReconstructPotential:
    def test_pt_reconstruction(self):
        for spec in (sc.PoschlTeller(2.0, 3.0), PT11, PT12):
            report = sc.check_potential_reconstruction(spec.g, spec.h)
            assert report.passed and report.max_residual <= 1e-10

    def test_flat_when_only_quantum_shift_remains(self):
        wf = sc.weight(PT11)
        potential = sc.reconstruct_potential(wf, 0.0, 0.0, 0.0, 4.0)
        for x in (0.3, 0.7, 1.2):
            assert potential(x) == -0.5

    def test_singular_derivative(self):
        class FlatMap:
            eta = staticmethod(lambda x: 1.0)
            deta_dx = staticmethod(lambda x: 0.0)

        potential = sc.reconstruct_potential(FlatMap(), 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(sc.SingularDerivative):
            potential(0.5)

    def test_array_form_matches_the_per_point_values(self):
        constants = (1.3, -0.4, 0.2, 4.0)
        r00, rm10, c, r1 = constants
        xs = np.linspace(0.15, 0.5 * math.pi - 0.15, 50)
        per_point = []
        for x in xs.tolist():
            d, e = float(PT12.deta_dx(x)), float(PT12.eta(x))
            per_point.append((0.5 * r00 * e * e + rm10 * e + c) / (d * d) - r1 / 8.0)
        values = sc.reconstruct_potential(PT12, *constants)(xs)
        assert values.tobytes() == np.array(per_point).tobytes()

    def test_array_with_a_singular_point_names_it(self):
        potential = sc.reconstruct_potential(PT11, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(sc.SingularDerivative, match=r"at x=0\.0$"):
            potential(np.array([0.3, 0.0, 0.7]))


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


def _assert_g17(values):
    """The block formatter's text of `values`, one per row, against CPython's
    '%.17g' of each, a block at a time."""
    rows = 4096
    formatter = BlockFormatter(1, rows)
    for start in range(0, len(values), rows):
        block = values[start : start + rows]
        text = formatter.format(block.reshape(-1, 1))
        expected = ["%.17g" % v for v in block.tolist()]
        if text != "\n".join(expected) + "\n":
            got = text.split("\n")
            i = next(i for i, (g, e) in enumerate(zip(got, expected)) if g != e)
            raise AssertionError(
                f"{block[i]!r} ({block[i:i + 1].view(np.uint64)[0]:#x}) gave "
                f"{got[i]!r}, '%.17g' gives {expected[i]!r}"
            )


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


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

"""Classical closed form, RK4 flow oracle, closure, potential rebuild."""

import math

import numpy as np
import pytest

import sincoord as sc
from sincoord.classical import ClassicalState

PT11 = sc.PoschlTeller(1.0, 1.0)
PT12 = sc.PoschlTeller(1.0, 2.0)
DO1 = sc.DeformedOscillator(1.0)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)
AW0 = sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=0.5)


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
        h0 = sc.hamiltonian(PT12, state.x, state.p)
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

    def test_domain_escape_with_coarse_step(self):
        # a huge step overshoots straight through the repulsive wall
        with pytest.raises(sc.DomainEscape):
            sc.flow_oracle(PT11, ClassicalState(0.3, -2.0), 5.0, 0.9)

    def test_energy_drift_detected_with_unstable_step(self):
        with pytest.raises((sc.EnergyDrift, sc.DomainEscape, OverflowError)):
            sc.flow_oracle(DO1, ClassicalState(1.0, 1.0), 60.0, 1.7)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            sc.flow_oracle(DO1, ClassicalState(0.0, 0.0), 1.0, 0.0)
        with pytest.raises(sc.ParameterOutOfRange):
            sc.flow_oracle(DO1, ClassicalState(0.0, 0.0), -1.0, 1e-3)


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
        h0 = sc.hamiltonian(DO1, state.x, state.p)
        assert drift.max_residual == traj.energy_drift / max(1.0, abs(h0))


class TestPoissonClosure:
    def test_do_is_machine_exact(self):
        states = sc.sample_states(DO1, 50, seed=42)
        report = sc.check_poisson_closure(DO1, states, tol=1e-8)
        assert report.passed

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

    @pytest.mark.parametrize("spec", [PT12, DO1, AW1])
    def test_analytic_brackets_match_finite_differences(self, spec):
        for state in sc.sample_states(spec, 10, seed=5):
            ana1 = sc.poisson_h_eta(spec, state.x, state.p)
            fd1 = sc.poisson_h_eta_fd(spec, state.x, state.p)
            assert abs(ana1 - fd1) <= 1e-6 * max(1.0, abs(ana1))
            ana2 = sc.poisson_h_h_eta(spec, state.x, state.p)
            fd2 = sc.poisson_h_h_eta_fd(spec, state.x, state.p)
            assert abs(ana2 - fd2) <= 1e-6 * max(1.0, abs(ana2))


class TestReconstructPotential:
    def test_pt_reconstruction(self):
        for spec in (sc.PoschlTeller(2.0, 3.0), PT11, PT12):
            report = sc.check_potential_reconstruction(spec)
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

    def test_rejects_other_systems(self):
        with pytest.raises(sc.UnsupportedSystem):
            sc.check_potential_reconstruction(DO1)


class TestTrajectoryExport:
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

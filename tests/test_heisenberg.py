"""Closed-form operator evolution against the elementwise phase oracle."""

import math

import numpy as np
import pytest

import sincoord as sc
from sincoord import heisenberg, operators

PT23 = sc.PoschlTeller(2.0, 3.0)
DO1 = sc.DeformedOscillator(1.0)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)

T_GRID = (0.0, 0.1, 0.37, 1.0, 2.5, 5.0)


def dense_heisenberg(spec, n_dim, guard, t_samples):
    """(max_vs_oracle, max_vs_decomposition) from dense N x N matrices."""
    eta = sc.dense(sc.build_basic(spec, n_dim, guard)[1])
    levels = sc.energies(spec, n_dim)
    gaps = levels[:, None] - levels[None, :]
    comm = gaps * eta
    model = sc.r_polynomials(spec)
    r0v, r1v, rm1v = model.r0(levels), model.r1(levels), model.rm1(levels)
    root = np.sqrt(r1v * r1v + 4.0 * r0v)
    ap, am = 0.5 * (r1v + root), 0.5 * (r1v - root)
    denom = ap - am
    ratio = np.diag((rm1v / r0v).astype(complex))
    a_plus = (comm - (eta + ratio) * am[None, :]) / denom[None, :]
    a_minus = (-comm + (eta + ratio) * ap[None, :]) / denom[None, :]
    d = n_dim - guard
    worst_oracle = worst_split = 0.0
    for t in t_samples:
        phase_p, phase_m = np.exp(1j * ap * t), np.exp(1j * am * t)
        osc = (phase_p - phase_m) / denom
        mix = (-am * phase_p + ap * phase_m) / denom
        exact = comm * osc[None, :] - ratio + (eta + ratio) * mix[None, :]
        oracle = eta * np.exp(1j * gaps * t)
        split = (
            a_plus * phase_p[None, :]
            + np.diag((-rm1v / r0v).astype(complex))
            + a_minus * phase_m[None, :]
        )
        scale = 1.0
        if spec.relative_residuals:
            scale = np.maximum(1.0, np.abs(oracle[:d, :d]).max(axis=0))[None, :]
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(exact - oracle)[:d, :d] / scale))
        )
        worst_split = max(
            worst_split, float(np.max(np.abs(exact - split)[:d, :d] / scale))
        )
    return worst_oracle, worst_split


class TestExactEvolution:
    @pytest.mark.parametrize("spec", [PT23, DO1, AW1])
    def test_reduces_to_coordinate_at_time_zero(self, spec):
        _, eta, _ = sc.build_basic(spec, 16, 4)
        evolved = sc.exact_evolution(spec, 16, 4, 0.0)
        d = 16 - 4
        assert np.max(np.abs(sc.dense(evolved)[:d, :d] - sc.dense(eta)[:d, :d])) < 1e-12

    def test_do_cos_sin_form(self):
        _, eta, comm = sc.build_basic(DO1, 20, 4)
        for t in (0.7, 2.3):
            evolved = sc.exact_evolution(DO1, 20, 4, t)
            expected = sc.dense(eta) * math.cos(t) + 1j * sc.dense(comm) * math.sin(t)
            d = 20 - 4
            assert (
                np.max(np.abs(sc.dense(evolved)[:d, :d] - expected[:d, :d])) < 1e-13
            )

    def test_rejects_nonfinite_time(self):
        with pytest.raises(ValueError):
            sc.exact_evolution(DO1, 10, 4, math.inf)


class TestOracleEvolution:
    def test_time_zero_is_coordinate(self):
        _, eta, _ = sc.build_basic(DO1, 12, 4)
        oracle = sc.oracle_evolution(DO1, 12, 4, 0.0)
        assert np.array_equal(sc.dense(oracle), sc.dense(eta))

    def test_diagonal_is_phase_free(self):
        for t in (0.3, 4.4):
            oracle = sc.oracle_evolution(AW1, 12, 4, t)
            ref = sc.oracle_evolution(AW1, 12, 4, 0.0)
            assert np.allclose(
                np.diag(sc.dense(oracle)), np.diag(sc.dense(ref)), atol=1e-15
            )

    def test_do_entry_at_pi(self):
        oracle = sc.oracle_evolution(DO1, 10, 4, math.pi)
        assert sc.dense(oracle)[2, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(7)
        levels = sc.energies(PT23, 12)
        _, eta, _ = sc.build_basic(PT23, 12, 4)
        for t1, t2 in rng.uniform(0.05, 3.0, size=(5, 2)):
            left = sc.dense(sc.oracle_evolution(PT23, 12, 4, t1)) * np.exp(
                1j * (levels[:, None] - levels[None, :]) * t2
            )
            right = sc.dense(sc.oracle_evolution(PT23, 12, 4, t1 + t2))
            assert np.max(np.abs(left - right)) < 1e-12 * max(
                1.0, float(np.max(np.abs(sc.dense(eta))))
            )


class TestCheckHeisenberg:
    def test_do(self):
        report = sc.check_heisenberg(DO1, 30, 4, (0.1, 1.0, 5.0))
        assert report.passed and report.max_residual <= 1e-12

    def test_pt(self):
        report = sc.check_heisenberg(PT23, 30, 4, (0.1, 1.0, 5.0))
        assert report.passed and report.max_residual <= 1e-10

    def test_aw(self):
        report = sc.check_heisenberg(AW1, 20, 4, (0.1, 0.5))
        assert report.passed and report.max_residual <= 1e-9

    def test_do_large_dimension_at_default_tolerance(self):
        # dense products of the diagonal H left 2.1e-12 of rounding here
        report = sc.check_heisenberg(sc.DeformedOscillator(1.1), 256, 4)
        assert report.tolerance == 1e-12
        assert report.passed

    @pytest.mark.parametrize("spec", [PT23, sc.DeformedOscillator(1.3), AW1])
    def test_equals_dense_evaluation(self, spec):
        # same floating-point operations on every band entry, so bit for bit
        report = sc.check_heisenberg(spec, 40, 4, T_GRID)
        oracle, split = dense_heisenberg(spec, 40, 4, T_GRID)
        assert report.details["max_vs_oracle"] == oracle
        assert report.details["max_vs_decomposition"] == split

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_time_is_refused_before_any_sample(self, bad, monkeypatch):
        evaluated = []
        phases = heisenberg._phases
        monkeypatch.setattr(
            heisenberg, "_phases", lambda *args: evaluated.append(args) or phases(*args)
        )
        message = f"t sample must be finite, got t={bad}"
        with pytest.raises(sc.ParameterOutOfRange, match=message):
            sc.check_heisenberg(DO1, 20, 4, (0.1, 1.0, bad, 2.0))
        assert evaluated == []
        for evolution in (sc.exact_evolution, sc.oracle_evolution):
            with pytest.raises(sc.ParameterOutOfRange, match="t sample must be finite"):
                evolution(DO1, 20, 4, bad)
        with pytest.raises(sc.ParameterOutOfRange, match="t sample must be finite"):
            sc.build_solution(DO1, 20, 4).evolve(bad)

    def test_single_time_entry_points_share_the_batched_kernels(self):
        # exact_evolution, oracle_evolution and evolve at one time give the
        # rows of the (T, 3, N) bands the check evaluates
        grid = np.array([0.37, 2.5])
        eta, comm, levels, ratio, ap, am = operators._closure_data(PT23, 20, 4)
        phases = heisenberg._phases(ap, am, grid)
        exact = heisenberg._closed_form(eta, comm, ratio, ap, am, *phases)
        oracle = heisenberg._phase_oracle(eta, operators._level_gaps(levels), grid)
        split = sc.build_solution(PT23, 20, 4).split_bands(*phases)
        for k, t in enumerate(grid.tolist()):
            assert np.array_equal(sc.exact_evolution(PT23, 20, 4, t), exact[k])
            assert np.array_equal(sc.oracle_evolution(PT23, 20, 4, t), oracle[k])
            evolved = sc.build_solution(PT23, 20, 4).evolve(t)
            assert np.array_equal(evolved, split[k])

    def test_rejects_empty_time_grid(self):
        with pytest.raises(sc.ParameterOutOfRange, match="need at least one t sample"):
            sc.check_heisenberg(DO1, 20, 4, ())

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([[0.1]], r"t samples must be a number or a flat sequence, got shape \(1, 1\)"),
            (["a"], r"t samples must be numbers, got \['a'\]"),
            ("a", "t samples must be numbers, got 'a'"),
            (None, "t samples must be numbers, got None"),
            ([0.1, None], r"t samples must be numbers, got \[0\.1, None\]"),
        ],
    )
    def test_malformed_time_grid_is_refused_naming_it(self, samples, message):
        with pytest.raises(sc.ParameterOutOfRange, match=message):
            sc.check_heisenberg(DO1, 20, 4, samples)

    def test_one_number_is_one_time_sample(self):
        report = sc.check_heisenberg(DO1, 20, 4, 0.5)
        assert report.details["t_samples"] == [0.5]
        assert report == sc.check_heisenberg(DO1, 20, 4, [0.5])

    def test_full_grid_all_systems(self):
        for spec, n_dim in ((DO1, 30), (PT23, 30), (AW1, 20)):
            assert sc.check_heisenberg(spec, n_dim, 4, T_GRID).passed


class TestSolutionDecomposition:
    @pytest.mark.parametrize("spec", [PT23, DO1, AW1])
    def test_parts_sum_to_coordinate_at_time_zero(self, spec):
        solution = sc.build_solution(spec, 16, 4)
        _, eta, _ = sc.build_basic(spec, 16, 4)
        d = 16 - 4
        value = solution.evolve(0.0)
        assert np.max(np.abs(sc.dense(value)[:d, :d] - sc.dense(eta)[:d, :d])) < 1e-12

    def test_constant_part_is_real_and_matches_diagonal(self):
        solution = sc.build_solution(AW1, 16, 4)
        assert np.all(np.isreal(solution.constant_part))
        rec = sc.recurrence(AW1)
        diag = [rec.B(n) for n in range(12)]
        assert np.allclose(solution.constant_part[:12], diag, atol=1e-13)

    def test_do_periodicity(self):
        for t in (0.4, 1.9):
            a = sc.exact_evolution(DO1, 20, 4, t)
            b = sc.exact_evolution(DO1, 20, 4, t + 2.0 * math.pi)
            d = 20 - 4
            assert np.max(np.abs(sc.dense(a)[:d, :d] - sc.dense(b)[:d, :d])) < 1e-12

    @pytest.mark.parametrize("spec", [PT23, DO1, AW1])
    def test_diagonal_is_time_independent(self, spec):
        rec = sc.recurrence(spec)
        expected = np.array([rec.B(n) for n in range(12)])
        for t in (0.37, 2.5):
            evolved = sc.exact_evolution(spec, 16, 4, t)
            diag = np.diag(sc.dense(evolved))[:12]
            assert np.max(np.abs(diag - expected)) < 1e-12

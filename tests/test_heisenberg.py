"""The exact operator evolution, the frequency split's sum of parts, against
the elementwise phase oracle."""

import dataclasses
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import sincoord as sc
from sincoord import heisenberg, operators

from conftest import empty_caches

PT23 = sc.PoschlTeller(2.0, 3.0)
DO1 = sc.DeformedOscillator(1.0)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)

T_GRID = (0.0, 0.1, 0.37, 1.0, 2.5, 5.0)

# the most the closed form and the split's sum of parts differ by: rounding
SPLIT_ROUNDING = 2e-15

# require_real's refusal of a t sample, up to the sample's repr
REFUSED_T = r"^t must be a real number in \(-inf, inf\), got t="


def dense_heisenberg(spec, n_dim, guard, t_samples):
    """max_residual, the split's sum of parts vs phase oracle, from dense
    N x N matrices; the parts are formed from [H, eta], eta, R and alpha_pm
    in `build_solution`'s order."""
    eta = sc.dense(sc.build_basic(spec, n_dim, guard)[1])
    levels = sc.energies(spec, n_dim)
    gaps = levels[:, None] - levels[None, :]
    comm = gaps * eta
    r0v, r1v, rm1v = (r(levels) for r in sc.r_polynomials(spec))
    root = np.sqrt(r1v * r1v + 4.0 * r0v)
    ap, am = 0.5 * (r1v + root), 0.5 * (r1v - root)
    ratio = rm1v / r0v
    shifted = eta + np.diag(ratio)
    inv = 1.0 / (ap - am)
    plus = (comm - shifted * am[None, :]) * inv[None, :]
    minus = (-comm + shifted * ap[None, :]) * inv[None, :]
    d = n_dim - guard
    worst = 0.0
    for t in t_samples:
        phase_p, phase_m = np.exp(1j * ap * t), np.exp(1j * am * t)
        exact = plus * phase_p[None, :] - np.diag(ratio) + minus * phase_m[None, :]
        oracle = eta * np.exp(1j * gaps * t)
        scale = 1.0
        if spec.relative_residuals:
            scale = np.maximum(1.0, np.abs(oracle[:d, :d]).max(axis=0))[None, :]
        worst = max(worst, float(np.max(np.abs(exact - oracle)[:d, :d] / scale)))
    return worst


def closed_form(spec, n_dim, guard, times):
    """(T, 3, N) bands of [H, eta] osc(H) - R(H) + (eta + R(H)) mix(H), the
    exact solution before its split by frequency, with R = R-1/R0 =
    -`constant_part` and every function of H multiplying from the right."""
    _, eta, comm = sc.build_basic(spec, n_dim, guard)
    solution = sc.build_solution(spec, n_dim, guard)
    ap, am, constant = solution.freq_plus, solution.freq_minus, solution.constant_part
    t = times[:, None]
    phase_p, phase_m = np.exp(1j * ap * t), np.exp(1j * am * t)
    denom = ap - am
    osc = (phase_p - phase_m) / denom
    mix = (-am * phase_p + ap * phase_m) / denom
    out = comm * osc[:, None, :]
    out[:, 1] += constant
    shifted = eta.copy()
    shifted[1] -= constant
    out += shifted * mix[:, None, :]
    return out


def split_deviation(spec, n_dim, guard, t_samples):
    """The closed form against the frequency split's sum of parts (`evolve`),
    over the check's window and column scale.  `build_solution` forms the
    parts from the closed form's own eta, [H, eta], alpha_pm and R, so this
    is an algebraic identity that holds to rounding whatever the family's
    formulas are, and `check_heisenberg` does not report it."""
    levels, eta, _ = sc.build_basic(spec, n_dim, guard)
    solution = sc.build_solution(spec, n_dim, guard)
    grid = np.asarray(t_samples, dtype=float)
    exact = closed_form(spec, n_dim, guard, grid)
    split = np.array([solution.evolve(t) for t in grid.tolist()])
    oracle = heisenberg._phase_oracle(eta, operators._level_gaps(levels), grid)
    comparison = operators._window(spec, exact - split, guard, oracle)
    return sc.make_report("split", [comparison], math.inf).max_residual


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
        assert report.max_residual == dense_heisenberg(spec, 40, 4, T_GRID)
        assert set(report.details) == {"N", "G", "t_samples"}

    @pytest.mark.parametrize(
        "bad",
        [
            math.inf,
            -math.inf,
            math.nan,
            0.5 + 3j,
            pytest.param(np.complex128(0.5), id="complex128"),
            pytest.param(Decimal("0.5"), id="Decimal"),
            pytest.param(10**400, id="10**400"),
        ],
    )
    def test_nonfinite_time_is_refused_before_any_sample(self, bad, monkeypatch):
        # a complex time is not truncated to its real part, nor a Decimal
        # converted, nor 10**400 left to overflow the float conversion
        evaluated = []
        kernels = (
            (heisenberg, "_evolved"), (operators, "_evolved"), (heisenberg, "_phase_oracle")
        )
        for module, name in kernels:
            kernel = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, kernel=kernel: evaluated.append(args) or kernel(*args)
            )
        message = REFUSED_T + re.escape(repr(bad)) + "$"
        with pytest.raises(sc.ParameterOutOfRange, match=message):
            sc.check_heisenberg(DO1, 20, 4, (0.1, 1.0, bad, 2.0))
        for evolution in (sc.exact_evolution, sc.oracle_evolution):
            with pytest.raises(sc.ParameterOutOfRange, match=message):
                evolution(DO1, 20, 4, bad)
        with pytest.raises(sc.ParameterOutOfRange, match=message):
            sc.build_solution(DO1, 20, 4).evolve(bad)
        assert evaluated == []

    def test_single_time_entry_points_share_the_batched_kernels(self):
        # exact_evolution and oracle_evolution at one time give the rows of
        # the (T, 3, N) bands the check evaluates
        grid = np.array([0.37, 2.5])
        levels, eta, _ = sc.build_basic(PT23, 20, 4)
        exact = operators._evolved(sc.build_solution(PT23, 20, 4), grid)
        oracle = heisenberg._phase_oracle(eta, operators._level_gaps(levels), grid)
        for k, t in enumerate(grid.tolist()):
            assert np.array_equal(sc.exact_evolution(PT23, 20, 4, t), exact[k])
            assert np.array_equal(sc.oracle_evolution(PT23, 20, 4, t), oracle[k])

    def test_rejects_empty_time_grid(self):
        with pytest.raises(sc.ParameterOutOfRange, match="need at least one t sample"):
            sc.check_heisenberg(DO1, 20, 4, ())

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([[0.1]], r"t samples must be a number or a flat sequence, got shape \(1, 1\)"),
            (["a"], REFUSED_T + "'a'$"),
            ("a", REFUSED_T + "'a'$"),
            (None, REFUSED_T + "None$"),
            ([0.1, None], REFUSED_T + "None$"),
            # numeric strings, which a float conversion would parse
            ("0.5", REFUSED_T + r"'0\.5'$"),
            (b"0.5", REFUSED_T + r"b'0\.5'$"),
            ([0.1, "0.5"], REFUSED_T + r"'0\.5'$"),
            (np.array([b"0.5"]), REFUSED_T + r"b'0\.5'$"),
            (np.array([0.1, "0.5"], dtype=object), REFUSED_T + r"'0\.5'$"),
        ],
    )
    def test_malformed_time_grid_is_refused_naming_it(self, samples, message):
        with pytest.raises(sc.ParameterOutOfRange, match=message):
            sc.check_heisenberg(DO1, 20, 4, samples)

    @pytest.mark.parametrize(
        "samples, t_samples, residual",
        [
            (0.5, [0.5], "0x1.1e3779b97f4a8p-53"),
            (2, [2.0], "0x1.01fe03f61bad0p-53"),
            (np.int64(2), [2.0], "0x1.01fe03f61bad0p-53"),
            (np.float32(0.37), [0.3700000047683716], "0x1.1e3779b97f4a8p-53"),
            (Fraction(3, 10), [0.3], "0x1.1e3779b97f4a8p-53"),
            (True, [1.0], "0x1.1e3779b97f4a8p-53"),
            (np.array([0.1, 2.5]), [0.1, 2.5], "0x1.1e3779b97f4a8p-53"),
        ],
    )
    def test_one_number_is_one_time_sample(self, samples, t_samples, residual):
        # each real number is checked at its float, so a report keeps the
        # bits of the float samples
        report = sc.check_heisenberg(PT23, 20, 4, samples)
        assert report.details["t_samples"] == t_samples
        assert report.max_residual.hex() == residual
        assert report == sc.check_heisenberg(PT23, 20, 4, t_samples)

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

    @pytest.mark.parametrize("spec", [PT23, DO1, AW1])
    def test_closed_form_equals_the_split_to_rounding(self, spec):
        assert split_deviation(spec, 40, 4, T_GRID) <= SPLIT_ROUNDING

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


THREE = [sc.PoschlTeller(1.3, 2.1), sc.DeformedOscillator(1.3), AW1]


class TestOneFormula:
    """The check evolves the ladder pair itself: the bands `build_ladder`
    hands to the ladder checks are the frequency parts the phase oracle
    holds the evolution to."""

    @pytest.mark.parametrize("spec", THREE, ids=["pt", "do", "aw"])
    def test_the_check_evolves_the_ladder_pair(self, spec, monkeypatch):
        handed = []

        def recording(solution, times):
            handed.append(solution)
            return operators._evolved(solution, times)

        monkeypatch.setattr(heisenberg, "_evolved", recording)
        n_dim = spec.heisenberg_n
        assert sc.check_heisenberg(spec, n_dim, 4).passed
        solution = sc.build_solution(spec, n_dim, 4)
        assert handed and all(seen is solution for seen in handed)
        pair = sc.build_ladder(spec, n_dim, 4)
        assert solution.a_plus is pair.a_plus and solution.a_minus is pair.a_minus

    @pytest.mark.parametrize("spec", THREE, ids=["pt", "do", "aw"])
    def test_a_planted_lowering_part_fails_the_check(self, spec, monkeypatch):
        # a_minus x (1 + 1e-6), as a formula defect in build_solution would leave it
        original = operators.build_solution

        def planted(*args):
            solution = original(*args)
            return dataclasses.replace(solution, a_minus=solution.a_minus * (1.0 + 1e-6))

        for module in (operators, heisenberg):
            monkeypatch.setattr(module, "build_solution", planted)
        report = sc.check_heisenberg(spec, spec.heisenberg_n, 4)
        assert report.max_residual > report.tolerance and not report.passed


def _defective(values):
    """values x (1 + 1e-6); an entry that is 0 (do's B_n, E_0), which no
    relative defect moves, becomes 1e-6."""
    return values * (1.0 + 1e-6) + (values == 0.0) * 1e-6


@pytest.fixture
def plant(monkeypatch):
    """plant(spec, source): a fresh copy of spec whose source, a recurrence
    coefficient ("A", "B", "C") or the energy ("E"), carries the defect at
    every n, with every cache emptied."""

    def planted_copy(spec, source):
        family = type(spec)
        if source == "E":
            energy = vars(family)["energy"]
            monkeypatch.setattr(family, "energy", lambda self, n: _defective(energy(self, n)))
        else:
            slot = "ABC".index(source)
            coefficients = vars(family)["recurrence_coefficients"]

            def recurrence_coefficients(self):
                fns = list(coefficients(self))
                fn = fns[slot]
                fns[slot] = lambda n: _defective(fn(n))
                return tuple(fns)

            monkeypatch.setattr(family, "recurrence_coefficients", recurrence_coefficients)
        empty_caches()
        return dataclasses.replace(spec)

    yield planted_copy
    empty_caches()


class TestPower:
    @pytest.mark.parametrize("source", "ABCE")
    @pytest.mark.parametrize(
        "spec", [sc.PoschlTeller(1.3, 2.1), sc.DeformedOscillator(1.3), AW1], ids=["pt", "do", "aw"]
    )
    def test_only_the_phase_oracle_sees_a_planted_defect(self, plant, spec, source):
        # the check at its defaults sees B and E; A and C scale each
        # off-diagonal entry, which both sides evolve alike (ROADMAP item 6)
        spec = plant(spec, source)
        report = sc.check_heisenberg(spec, spec.heisenberg_n, 4)
        if source in "BE":
            assert report.max_residual > 1e-9
        # the split reads the closed form's own sources, so no defect moves it
        grid = heisenberg.DEFAULT_T_GRID
        assert split_deviation(spec, spec.heisenberg_n, 4, grid) <= SPLIT_ROUNDING

"""Truncated-matrix structure and the ladder identities."""

import json

import numpy as np
import pytest

import sincoord as sc
from sincoord import cli, operators

from conftest import empty_caches

PT11 = sc.PoschlTeller(1.0, 1.0)
PT12 = sc.PoschlTeller(1.0, 2.0)
PT23 = sc.PoschlTeller(2.0, 3.0)
DO1 = sc.DeformedOscillator(1.0)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)

ALL = [PT11, PT23, DO1, AW1]


def dense_basic(spec, n_dim):
    """H, eta and [H, eta] as dense N x N matrices, filled entry by entry."""
    rec = sc.recurrence(spec)
    levels = sc.energies(spec, n_dim)
    eta = np.zeros((n_dim, n_dim), dtype=complex)
    for n in range(n_dim):
        eta[n, n] = rec.B(n)
        if n + 1 < n_dim:
            eta[n + 1, n] = rec.A(n)
        if n >= 1:
            eta[n - 1, n] = rec.C(n)
    ham = np.diag(levels)
    comm = (levels[:, None] - levels[None, :]) * eta
    return ham, eta, comm


def primed_pair(spec, n_dim, guard):
    """The primed pair a'_pm = a_pm (alpha_plus(H) - alpha_minus(H)), formed
    from the unit pair as `check_su11` forms it."""
    s = sc.build_solution(spec, n_dim, guard)
    scale = (s.freq_plus - s.freq_minus)[None, :]
    return sc.LadderPair(s.a_plus * scale, s.a_minus * scale)


class TestBandedStorage:
    SPECS = [PT11, sc.DeformedOscillator(1.3), AW1]

    @pytest.mark.parametrize("spec", SPECS)
    def test_basic_equals_dense_construction(self, spec):
        levels, *ops = sc.build_basic(spec, 12, 4)
        ham, *dense = dense_basic(spec, 12)
        assert levels.dtype == float and np.array_equal(np.diag(levels), ham)
        for op, matrix in zip(ops, dense):
            assert op.shape == (3, 12)
            assert np.array_equal(sc.dense(op), matrix)

    @pytest.mark.parametrize("spec", SPECS)
    def test_ladder_equals_dense_construction(self, spec):
        _, eta, comm = dense_basic(spec, 12)
        levels = sc.energies(spec, 12)
        r0v, r1v, rm1v = (r(levels) for r in sc.r_polynomials(spec))
        root = np.sqrt(r1v * r1v + 4.0 * r0v)
        ap, am = 0.5 * (r1v + root), 0.5 * (r1v - root)
        shifted = eta + np.diag((rm1v / r0v).astype(complex))
        plus = (comm - shifted * am[None, :]) / (ap - am)[None, :]
        minus = (-comm + shifted * ap[None, :]) / (ap - am)[None, :]
        pair = sc.build_ladder(spec, 12, 4)
        assert np.array_equal(sc.dense(pair.a_plus), plus)
        assert np.array_equal(sc.dense(pair.a_minus), minus)

    @pytest.mark.parametrize("spec", [PT11, AW1])
    def test_two_commutator_equals_dense_evaluation(self, spec):
        # absolute residuals for pt, per-column relative ones for aw
        _, eta, comm = dense_basic(spec, 30)
        levels = sc.energies(spec, 30)
        r0, r1, rm1 = sc.r_polynomials(spec)
        lhs = (levels[:, None] - levels[None, :]) * comm
        rhs = (
            eta * r0(levels)[None, :]
            + comm * r1(levels)[None, :]
            + np.diag(rm1(levels).astype(complex))
        )
        d = 26
        diff = np.abs(lhs[:d, :d] - rhs[:d, :d])
        if spec.relative_residuals:
            diff = diff / np.maximum(1.0, np.abs(lhs[:d, :d]).max(axis=0))[None, :]
        report = sc.check_two_commutator(spec, 30, 4)
        assert report.max_residual == float(np.max(diff))

    def test_slots_outside_the_matrix_hold_zero(self):
        for op in sc.build_basic(AW1, 8, 2)[1:]:
            assert op[0, 0] == 0.0 and op[2, -1] == 0.0

    def test_window_mask_covers_the_interior_block(self):
        for bands in (3, 5):
            rows = np.arange(9)[None, :] + np.arange(bands)[:, None] - bands // 2
            cols = np.broadcast_to(np.arange(9), (bands, 9))
            inside = (rows >= 0) & (rows < 6) & (cols < 6)
            assert np.array_equal(operators._window_mask(9, 3, bands), inside)

    def test_apply_matches_dense_product(self):
        rng = np.random.default_rng(3)
        _, eta, _ = sc.build_basic(AW1, 10, 4)
        vector = rng.normal(size=10) + 1j * rng.normal(size=10)
        assert np.max(np.abs(operators._band_apply(eta, vector) - sc.dense(eta) @ vector)) < 1e-14


# the systems whose ladder pair is pinned to the bits of its complex formula
REAL_BAND_SPECS = [
    sc.PoschlTeller(1.3, 2.1),
    sc.PoschlTeller(1e-8, 1.0),
    sc.PoschlTeller(1e150, 1.0),
    sc.DeformedOscillator(1.3),
    sc.DeformedOscillator(1e150),
    AW1,
    sc.AskeyWilson(1e-8, 0.0, 0.0, 0.0, q=0.5),
]


def complex_pair(spec, n_dim, guard):
    """The ladder pair of complex128 bands, divided by D = alpha_plus -
    alpha_minus as in `build_solution`'s docstring formula."""
    _, eta, comm = sc.build_basic(spec, n_dim, guard)
    solution = sc.build_solution(spec, n_dim, guard)
    ap, am = solution.freq_plus, solution.freq_minus
    shifted = eta.astype(complex)
    shifted[1] -= solution.constant_part
    comm = comm.astype(complex)
    denom = ap - am
    plus = (comm - shifted * am[None, :]) / denom[None, :]
    minus = (-comm + shifted * ap[None, :]) / denom[None, :]
    return plus, minus


class TestRealBands:
    """Every matrix element of eta, [H, eta] and the ladder pair is real, and
    so are their bands."""

    @pytest.mark.parametrize("spec", REAL_BAND_SPECS)
    def test_operators_are_float64(self, spec):
        levels, eta, comm = sc.build_basic(spec, 30, 4)
        solution = sc.build_solution(spec, 30, 4)
        bands = (eta, comm, *sc.build_ladder(spec, 30, 4), solution.a_plus, solution.a_minus)
        assert [b.dtype for b in (levels, *bands)] == [np.float64] * 7

    @pytest.mark.parametrize("n_dim", [6, 30, 512])
    @pytest.mark.parametrize("spec", REAL_BAND_SPECS)
    def test_pair_has_the_bits_of_the_complex_formula(self, spec, n_dim):
        # numpy divides complex bands by a real vector as a product with its
        # reciprocal; a true real division moves the last bit of some entries
        pair = sc.build_ladder(spec, n_dim, 4)
        for band, reference in zip(pair, complex_pair(spec, n_dim, 4)):
            assert not reference.imag.any()
            assert band.tobytes() == reference.real.tobytes()


class TestBuildBasic:
    def test_do_hamiltonian_diagonal(self):
        levels, _, _ = sc.build_basic(DO1, 4, 1)
        assert np.array_equal(levels, [0, 1, 2, 3])

    def test_commutator_diagonal_vanishes(self):
        for spec in ALL:
            _, _, comm = sc.build_basic(spec, 12, 4)
            assert np.max(np.abs(np.diag(sc.dense(comm)))) == 0.0

    def test_commutator_matches_dense_product(self):
        # the elementwise (E_m - E_n) eta_mn agrees with H eta - eta H
        for spec in ALL:
            levels, eta, comm = sc.build_basic(spec, 12, 4)
            ham = np.diag(levels)
            dense = ham @ sc.dense(eta) - sc.dense(eta) @ ham
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(sc.dense(comm) - dense)) <= 1e-14 * scale

    def test_pt_coordinate_entry(self):
        _, eta, _ = sc.build_basic(PT11, 6, 2)
        assert sc.dense(eta)[0, 1].real == pytest.approx(0.375, abs=1e-15)

    def test_coordinate_is_tridiagonal(self):
        # matrix elements vanish beyond nearest neighbours
        for spec in ALL:
            _, eta, _ = sc.build_basic(spec, 14, 4)
            m = sc.dense(eta).copy()
            for k in (-1, 0, 1):
                m -= np.diag(np.diag(m, k), k)
            assert np.max(np.abs(m)) == 0.0

    def test_dimension_guard_validation(self):
        with pytest.raises(ValueError):
            sc.build_basic(DO1, 5, 0)
        with pytest.raises(ValueError):
            sc.build_basic(DO1, 5, 5)
        with pytest.raises(ValueError):
            sc.build_basic(DO1, 3, 2)


LADDER_CHECKS = (
    sc.check_ladder_action,
    sc.check_two_commutator,
    sc.check_hermitian_conjugacy,
    sc.check_ground_state_condition,
)


def _su11(spec, n_dim, guard):
    """`check_su11` called like the generic ladder checks."""
    return sc.check_su11(spec.a, n_dim, guard)


class TestSharedBuilds:
    def test_returned_bands_are_read_only(self):
        levels, eta, comm = sc.build_basic(AW1, 12, 4)
        for array in (levels, eta, comm):
            with pytest.raises(ValueError):
                array[0] = 1.0
        solution = sc.build_solution(AW1, 12, 4)
        for array in (*operators._closure_vectors(AW1, 12, 4), solution.a_plus,
                      solution.a_minus, solution.constant_part, solution.freq_plus,
                      solution.freq_minus):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_one_build_per_system_and_size(self):
        empty_caches()
        for check in LADDER_CHECKS:
            check(DO1, 30, 4)
        sc.check_su11(DO1.a, 30, 4)
        assert operators.build_basic.cache_info().misses == 1
        assert operators._closure_vectors.cache_info().misses == 1
        assert operators.build_solution.cache_info().misses == 1

    def test_two_commutator_runs_where_the_ladder_is_refused(self):
        # R0(E_0) = 4 (g + h)^2 - 4 < 0: the ladder refuses the spectrum, and
        # the two-commutator identity, which demands no sign of R0, holds on it
        spec = sc.PoschlTeller(0.2, 0.3)
        empty_caches()
        before = sc.check_two_commutator(spec, 30, 4)
        with pytest.raises(sc.ComplexFrequencies):
            sc.check_ladder_action(spec, 30, 4)
        assert before.passed and sc.check_two_commutator(spec, 30, 4) == before
        assert operators._closure_vectors.cache_info().misses == 1

    @pytest.mark.parametrize("spec", ALL + [sc.DeformedOscillator(1.3)])
    def test_reports_do_not_depend_on_the_checks_run_before(self, spec):
        checks = LADDER_CHECKS
        if isinstance(spec, sc.DeformedOscillator):
            checks += (_su11,)
        alone = []
        for check in checks:
            empty_caches()
            alone.append(check(spec, 30, 4))
        for order in (checks, checks[::-1]):
            empty_caches()
            after = {check: check(spec, 30, 4) for check in order}
            assert [after[check] for check in checks] == alone


class TestBuildLadder:
    def test_do_primed_lowering_entry(self):
        pair = primed_pair(DO1, 10, 4)
        assert sc.dense(pair.a_minus)[0, 1].real == pytest.approx(2.0, abs=1e-13)

    def test_do_primed_equals_eta_plus_minus_commutator(self):
        _, eta, comm = sc.build_basic(DO1, 12, 4)
        pair = primed_pair(DO1, 12, 4)
        d = 12 - 4
        up = (sc.dense(eta) + sc.dense(comm))[:d, :d]
        down = (sc.dense(eta) - sc.dense(comm))[:d, :d]
        assert np.max(np.abs(sc.dense(pair.a_plus)[:d, :d] - up)) < 1e-13
        assert np.max(np.abs(sc.dense(pair.a_minus)[:d, :d] - down)) < 1e-13

    def test_pt_primed_half_lowering_entry(self):
        pair = primed_pair(PT11, 10, 4)
        assert (sc.dense(pair.a_minus)[0, 1] / 2).real == pytest.approx(3.0, abs=1e-12)

    def test_lowering_annihilates_ground_state(self):
        for spec in ALL:
            pair = sc.build_ladder(spec, 16, 4)
            assert np.max(np.abs(sc.dense(pair.a_minus)[:, 0])) < 1e-14

    def test_unit_times_frequency_gap_is_the_undivided_pair(self):
        # (comm -/+ (eta + R-1/R0) alpha_mp) with no division, entry by entry
        for spec in ALL:
            unit = sc.build_ladder(spec, 16, 4)
            _, eta, comm = dense_basic(spec, 16)
            levels = sc.energies(spec, 16)
            r0, _, rm1 = sc.r_polynomials(spec)
            shifted = eta + np.diag((rm1(levels) / r0(levels)).astype(complex))
            ap, am = np.array([sc.alpha_pm(spec, e) for e in levels]).T
            primed = (comm - shifted * am[None, :], -comm + shifted * ap[None, :])
            for mat_u, mat_p in zip(unit, primed):
                rebuilt = sc.dense(mat_u) * (ap - am)[None, :]
                scale = np.maximum(1.0, np.abs(rebuilt))
                assert np.max(np.abs(rebuilt - mat_p) / scale) < 1e-12

    def test_strict_one_entry_sparsity(self):
        for spec in ALL:
            pair = sc.build_ladder(spec, 20, 4)
            d = 20 - 4
            for n in range(d - 1):
                col = np.abs(sc.dense(pair.a_plus)[:d, n])
                col_scale = max(col.max(), 1e-300)
                nonzero = np.nonzero(col > 1e-12 * col_scale)[0]
                assert list(nonzero) == [n + 1]
                col = np.abs(sc.dense(pair.a_minus)[:d, n + 1])
                col_scale = max(col.max(), 1e-300)
                nonzero = np.nonzero(col > 1e-12 * col_scale)[0]
                assert list(nonzero) == [n]


class TestLadderAction:
    def test_do(self):
        report = sc.check_ladder_action(DO1, 30, 4)
        assert report.passed and report.max_residual <= 1e-12

    def test_pt(self):
        assert sc.check_ladder_action(PT23, 30, 4).max_residual <= 1e-10

    def test_aw(self):
        report = sc.check_ladder_action(AW1, 30, 4)
        assert report.passed

    def test_aw_columns_match_printed_coefficients(self):
        q, b4 = AW1.q, AW1.b4
        a1, a2, a3, a4 = AW1.params
        pairs = (a1 * a2, a1 * a3, a1 * a4, a2 * a3, a2 * a4, a3 * a4)
        pair = sc.build_ladder(AW1, 20, 4)
        for n in range(1, 14):
            low = 1.0 - q**n
            for p in pairs:
                low *= 1.0 - p * q ** (n - 1)
            low /= 2.0 * (1.0 - b4 * q ** (2 * n - 2)) * (1.0 - b4 * q ** (2 * n - 1))
            assert sc.dense(pair.a_minus)[n - 1, n].real == pytest.approx(low, rel=1e-11)
            up = (1.0 - b4 * q ** (n - 1)) / (
                2.0 * (1.0 - b4 * q ** (2 * n - 1)) * (1.0 - b4 * q ** (2 * n))
            )
            assert sc.dense(pair.a_plus)[n + 1, n].real == pytest.approx(up, rel=1e-11)


class TestTwoCommutator:
    def test_do_exact(self):
        report = sc.check_two_commutator(DO1, 30, 4)
        assert report.passed and report.max_residual <= 1e-13

    def test_pt_symmetric(self):
        assert sc.check_two_commutator(PT11, 30, 4).max_residual <= 1e-10

    def test_pt_asymmetric_constant_term(self):
        # alpha = 1/2, beta = 3/2 puts a constant -8 into the closure
        assert sc.r_polynomials(PT12)[2](0.0) == pytest.approx(-8.0)
        assert sc.check_two_commutator(PT12, 30, 4).max_residual <= 1e-10

    def test_aw(self):
        assert sc.check_two_commutator(AW1, 30, 4).max_residual <= 1e-10

    def test_pt_large_dimension_at_default_tolerance(self):
        # dense products of the diagonal H left 6.7e-10 of rounding here
        report = sc.check_two_commutator(PT11, 100, 4)
        assert report.tolerance == 1e-10
        assert report.passed


class TestWindowReduction:
    """`operators._window` and `make_report`: the one reduction of the banded
    checks, and the one reader of the family's residual mode."""

    @staticmethod
    def planted(monkeypatch, level, value):
        """Make `_closure_vectors` hand R-1 with `value` at `level`, the
        diagonal slot (level, level) of two_commutator's right-hand side."""
        closure_vectors = operators._closure_vectors

        def plant(*args):
            r0v, r1v, rm1v = closure_vectors(*args)
            rm1v = rm1v.copy()
            rm1v[level] = value
            return r0v, r1v, rm1v

        monkeypatch.setattr(operators, "_closure_vectors", plant)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec", [PT23, DO1, AW1])
    def test_non_finite_guard_band_slot_is_ignored(self, spec, value, monkeypatch):
        expected = sc.check_two_commutator(spec, 20, 4).max_residual
        self.planted(monkeypatch, 20 - 4, value)  # the first guard-band level
        assert sc.check_two_commutator(spec, 20, 4).max_residual == expected

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("spec", [PT23, DO1, AW1])
    def test_non_finite_window_slot_has_no_verdict(self, spec, value, monkeypatch):
        self.planted(monkeypatch, 20 - 4 - 1, value)  # the last window level
        with pytest.raises(sc.NonFiniteResidual, match="check two_commutator has no verdict"):
            sc.check_two_commutator(spec, 20, 4)

    def test_aw_divides_each_column_by_its_reference_scale(self):
        rng = np.random.default_rng(11)
        n_dim, guard = 12, 3
        deviation = rng.normal(size=(3, n_dim))
        reference = rng.normal(scale=4.0, size=(3, n_dim))
        reference[:, 1] = 0.25  # a column below the floor of 1
        reference[:, -guard:] = 1e300  # guard-band slots set no scale
        inside = operators._window_mask(n_dim, guard)
        expected = 0.0
        for n in range(n_dim):
            scale = max([1.0] + [abs(reference[i, n]) for i in range(3) if inside[i, n]])
            for i in range(3):
                if inside[i, n]:
                    expected = max(expected, abs(deviation[i, n]) / scale)
        comparison = operators._window(AW1, deviation, guard, reference)
        assert sc.make_report("aw", [comparison], 1.0).max_residual == expected

    @pytest.mark.parametrize("spec", [PT23, DO1])
    def test_absolute_families_keep_the_bits_of_the_absolute_residual(self, spec):
        rng = np.random.default_rng(12)
        n_dim, guard = 12, 3
        deviation = rng.normal(size=(3, n_dim))
        inside = operators._window_mask(n_dim, guard)
        comparison = operators._window(spec, deviation, guard, 1e3 * deviation)
        assert comparison[1] == 1.0
        report = sc.make_report("absolute", [comparison], 1.0)
        assert report.max_residual == np.max(np.abs(deviation[inside]))

    @pytest.mark.parametrize("comparisons", [[], iter([])], ids=["list", "generator"])
    def test_no_comparison_has_no_verdict(self, comparisons):
        with pytest.raises(sc.ParameterOutOfRange, match="check su11 has no comparison"):
            sc.make_report("su11", comparisons, 1e-12)


class TestOracleIndependence:
    """eta takes nothing from the closure side: B_n is formed from a1..a4,
    not from the b1, b3, b4 that R-1 is built from, so a closure
    coefficient moved by 1e-5 relative must fail the two-commutator check."""

    @pytest.mark.parametrize("name", ["b1", "b3", "b4"])
    def test_planted_closure_defect_fails(self, name, monkeypatch, capsys):
        exact = getattr(sc.AskeyWilson, name).fget
        monkeypatch.setattr(
            sc.AskeyWilson, name, property(lambda self: exact(self) * (1.0 + 1e-5))
        )
        empty_caches()
        try:
            code = cli.main(
                ["ladder", "--system", "aw", "--a=0.3,-0.2,0.4,0.1", "--q", "0.6",
                 "--format", "json"]
            )
        finally:
            monkeypatch.undo()
            empty_caches()
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert code == 1
        assert not checks["two_commutator"]["pass"]


class TestHermitianConjugacy:
    @pytest.mark.parametrize("spec", [DO1, PT11, PT23, AW1])
    def test_bridge(self, spec):
        report = sc.check_hermitian_conjugacy(spec, 30, 4)
        assert report.passed and report.max_residual <= 1e-8

    def test_first_index(self):
        h = sc.norms(DO1, 1)
        rec = sc.recurrence(DO1)
        pair = sc.build_ladder(DO1, 10, 4)
        up_hat = sc.dense(pair.a_plus)[1, 0].real * np.sqrt(h[1] / h[0])
        expected = rec.A(0) * np.sqrt(h[1] / h[0])
        assert up_hat == pytest.approx(expected, rel=1e-12)
        down_hat = sc.dense(pair.a_minus)[0, 1].real * np.sqrt(h[0] / h[1])
        assert up_hat == pytest.approx(down_hat, rel=1e-8)


def random_tridiagonal(rng, n_dim):
    """Seeded real bands, zero in the two slots outside the matrix."""
    bands = rng.normal(size=(3, n_dim))
    bands[0, 0] = bands[2, -1] = 0.0
    return bands


def five_band_entries(bands):
    """The dense matrix of five diagonals laid out as `_band_product` returns
    them; asserts that every slot outside the matrix holds zero."""
    n_dim = bands.shape[1]
    dense = np.zeros((n_dim, n_dim))
    for i in range(5):
        for col in range(n_dim):
            row = col + i - 2
            if 0 <= row < n_dim:
                dense[row, col] = bands[i, col]
            else:
                assert bands[i, col] == 0.0
    return dense


class TestSu11:
    # a on both sides of do's a < 1/2 shift and up to the largest admitted
    A_GRID = (0.001, 0.016, 0.4, 0.45, 0.5, 1.0, 1.3, 2.5, 4.0, 7.77, 90.0)

    @pytest.mark.parametrize("n_dim", [1, 2, 3, 7, 30])
    def test_band_product_matches_dense_product(self, n_dim):
        rng = np.random.default_rng(n_dim)
        x, y = random_tridiagonal(rng, n_dim), random_tridiagonal(rng, n_dim)
        dense_x, dense_y = sc.dense(x), sc.dense(y)
        product = five_band_entries(operators._band_product(x, y))
        # entries beyond the five diagonals are exact zeros on both sides
        bound = 8.0 * np.finfo(float).eps * (np.abs(dense_x) @ np.abs(dense_y))
        assert np.all(np.abs(product - dense_x @ dense_y) <= bound)

    @pytest.mark.parametrize("a", A_GRID)
    def test_residual_is_the_dense_products_bit_for_bit(self, a):
        # do's primed pair is exactly bidiagonal, so every entry of either
        # product has at most one nonzero term, whatever order sums them
        spec = sc.DeformedOscillator(a)
        for n_dim in (6, 8, 30, 64, 100, 200, 512):
            for guard in (g for g in (1, 4, 5) if n_dim >= g + 2):
                pair = primed_pair(spec, n_dim, guard)
                levels = sc.build_basic(spec, n_dim, guard)[0]
                up, down = sc.dense(pair.a_plus), sc.dense(pair.a_minus)
                bracket = down @ up - up @ down - 2.0 * np.diag(levels + a)
                d = n_dim - guard
                expected = np.max(np.abs(bracket[:d, :d]))
                assert sc.check_su11(a, n_dim, guard).max_residual == expected

    @pytest.mark.parametrize("a", [5e-324, 0.016, 1.0, 1.3, 8.98e307])
    @pytest.mark.parametrize("n_dim", [6, 30, 2049])
    def test_primed_pair_has_the_bits_of_the_undivided_formula(self, a, n_dim, monkeypatch):
        # for do alpha_plus - alpha_minus is exactly 2, so the unit pair times
        # it is bit for bit comm -/+ (eta + R-1/R0) alpha_mp, undivided
        spec = sc.DeformedOscillator(a)
        levels, eta, comm = sc.build_basic(spec, n_dim, 4)
        solution = sc.build_solution(spec, n_dim, 4)
        ap, am = solution.freq_plus, solution.freq_minus
        shifted = eta.copy()
        shifted[1] = shifted[1] - solution.constant_part
        up, down = comm - shifted * am[None, :], -comm + shifted * ap[None, :]
        with np.errstate(all="ignore"):
            bracket = operators._band_product(down, up)
            bracket -= operators._band_product(up, down)
            bracket[2] -= 2.0 * (levels + a)
            expected = [
                np.abs(operators._commutator_with_h(levels, up) - up),
                np.abs(operators._commutator_with_h(levels, down) + down),
                np.abs(bracket),
            ]
        products, compared = [], []
        band_product, window = operators._band_product, operators._window
        monkeypatch.setattr(
            operators, "_band_product", lambda x, y: products.append((x, y)) or band_product(x, y)
        )
        monkeypatch.setattr(
            operators, "_window", lambda s, v, g: compared.append(v) or window(s, v, g)
        )
        with np.errstate(all="ignore"):
            try:
                sc.check_su11(a, n_dim, 4)
            except sc.NonFiniteResidual:
                assert a == 8.98e307
        assert [(x.tobytes(), y.tobytes()) for x, y in products] == [
            (down.tobytes(), up.tobytes()), (up.tobytes(), down.tobytes())
        ]
        with np.errstate(all="ignore"):
            magnitudes = [np.abs(v) for v in compared]
        assert [v.tobytes() for v in magnitudes] == [v.tobytes() for v in expected]

    def test_do_relations(self):
        report = sc.check_su11(DO1.a, 30, 4)
        assert report.passed and report.max_residual <= 1e-12

    def test_do_relations_away_from_a_one(self):
        # dense products of the diagonal H left 1.5e-12 of rounding here
        report = sc.check_su11(1.3, 30, 4)
        assert report.tolerance == 1e-12
        assert report.passed

    def test_commutator_diagonal_value(self):
        pair = primed_pair(DO1, 12, 4)
        bracket = (
            sc.dense(pair.a_minus) @ sc.dense(pair.a_plus)
            - sc.dense(pair.a_plus) @ sc.dense(pair.a_minus)
        )
        assert bracket[3, 3].real == pytest.approx(8.0, abs=1e-13)

    def test_raising_commutator_entry(self):
        ham = np.diag(sc.build_basic(DO1, 12, 4)[0])
        pair = primed_pair(DO1, 12, 4)
        lhs = ham @ sc.dense(pair.a_plus) - sc.dense(pair.a_plus) @ ham
        assert lhs[6, 5] == pytest.approx(sc.dense(pair.a_plus)[6, 5])
        assert lhs[6, 5].real == pytest.approx(6.0, abs=1e-13)


class TestGroundStateCondition:
    def test_do(self):
        assert sc.check_ground_state_condition(DO1, 30, 4).max_residual <= 1e-13

    def test_pt_symmetric(self):
        report = sc.check_ground_state_condition(PT11, 30, 4)
        assert report.passed and report.max_residual <= 1e-10

    def test_pt_asymmetric_includes_constant(self):
        report = sc.check_ground_state_condition(PT12, 30, 4)
        assert report.passed and report.max_residual <= 1e-10

    def test_aw(self):
        assert sc.check_ground_state_condition(AW1, 30, 4).passed

    @pytest.mark.parametrize("g, h", [(0.5, 0.5), (0.25, 0.75)])
    def test_vanishing_lowering_frequency_is_refused(self, g, h, capsys):
        # R0(0) = 4 (g + h)^2 - 4 = 0, so alpha_minus(0) = 0 divides R-1(0)
        spec = sc.PoschlTeller(g, h)
        with pytest.raises(sc.VanishingFrequency, match=r"^alpha_minus\(0\) = 0$"):
            sc.check_ground_state_condition(spec, 30, 4)
        # the CLI's ladder suite refuses the system earlier, at ladder_action
        assert cli.main(["ladder", "--system", "pt", "--g", str(g), "--h", str(h)]) == 2
        assert capsys.readouterr().err == (
            "error: R0(E_n) must be positive on the truncated spectrum\n"
        )

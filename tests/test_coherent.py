"""Lowering-operator eigenstates: coefficients, eigenvalue property, 1F1."""

import mpmath
import numpy as np
import pytest

import sincoord as sc

PT11 = sc.PoschlTeller(1.0, 1.0)
DO1 = sc.DeformedOscillator(1.0)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)


class TestCoefficients:
    def test_zero_eigenvalue_collapses_to_ground_state(self):
        coeffs = sc.coherent_coeffs(DO1, 0.0, 8)
        assert coeffs[0] == 1.0
        assert np.all(coeffs[1:] == 0.0)

    @pytest.mark.parametrize("spec,lam", [(DO1, 0.3), (PT11, 0.2), (AW1, 0.2)])
    def test_recursion_consistency(self, spec, lam):
        coeffs = sc.coherent_coeffs(spec, lam, 40)
        rec = sc.recurrence(spec)
        for n in range(40):
            lhs = coeffs[n + 1] * rec.C(n + 1)
            rhs = lam * coeffs[n]
            assert abs(lhs - rhs) <= 1e-15 * max(abs(rhs), 1e-300)

    def test_do_reproduces_rising_factorial_display(self):
        a, lam = 1.0, 0.3
        coeffs = sc.coherent_coeffs(sc.DeformedOscillator(a), lam, 20)
        for n in range(21):
            poch = 1.0
            for k in range(n):
                poch *= 2.0 * a + k
            assert coeffs[n].real == pytest.approx(
                (2.0 * lam) ** n / poch, rel=1e-13, abs=1e-300
            )

    def test_aw_reproduces_q_factorial_display(self):
        lam, q = 0.2, AW1.q
        a1, a2, a3, a4 = AW1.params
        pairs = (a1 * a2, a1 * a3, a1 * a4, a2 * a3, a2 * a4, a3 * a4)
        coeffs = sc.coherent_coeffs(AW1, lam, 16)
        for n in range(17):
            expected = (2.0 * lam) ** n * float(mpmath.qp(AW1.b4, q, 2 * n))
            expected /= float(mpmath.qp(q, q, n))
            for p in pairs:
                expected /= float(mpmath.qp(p, q, n))
            assert coeffs[n].real == pytest.approx(expected, rel=1e-12)

    def test_complex_eigenvalue_supported(self):
        lam = complex(0.2, 0.1)
        coeffs = sc.coherent_coeffs(DO1, lam, 10)
        assert coeffs[1] == pytest.approx(lam / 1.0)  # C_1 = 1 at a = 1

    def test_tail_estimate_is_negligible_at_default_truncation(self):
        coeffs = sc.coherent_coeffs(DO1, 0.3, 60)
        xs = np.linspace(-10.0, 10.0, 33)
        top = np.max(np.abs(sc.eval_all(DO1, 60, xs)[60]))
        assert abs(coeffs[-1]) * top < 1e-12


class TestEigenvalueProperty:
    def test_zero_eigenvalue_residual_is_exactly_zero(self):
        report = sc.check_eigenvalue(DO1, 0.0, 30, 4)
        assert report.max_residual == 0.0

    @pytest.mark.parametrize(
        "spec,lam,tol",
        [(DO1, 0.3, 1e-12), (PT11, 0.2, 1e-10), (AW1, 0.2, 1e-9)],
    )
    def test_residual_small(self, spec, lam, tol):
        report = sc.check_eigenvalue(spec, lam, 60, 4)
        assert report.passed and report.max_residual <= tol

    def test_complex_lambda(self):
        report = sc.check_eigenvalue(DO1, complex(0.2, 0.15), 60, 4)
        assert report.passed

    @pytest.mark.parametrize("spec", [PT11, sc.DeformedOscillator(1.3), AW1])
    @pytest.mark.parametrize("lam", [None, complex(0.3, 0.2)])
    def test_equals_dense_evaluation(self, spec, lam):
        lam = spec.coherent_lambda if lam is None else lam
        coeffs = sc.coherent_coeffs(spec, lam, 36)
        lowering = sc.dense(sc.build_ladder(spec, 40, 4).a_minus)
        padded = np.zeros(40, dtype=complex)
        padded[:37] = coeffs
        residual = lowering @ padded - complex(lam) * padded
        dense = max(
            abs(residual[n]) / max(1.0, abs(complex(lam) * padded[n]))
            for n in range(32)
        )
        report = sc.check_eigenvalue(spec, lam, 36, 4)
        if isinstance(spec, sc.AskeyWilson):
            # the aw lowering operator has rounding-level entries off its
            # one exact band, and a BLAS product may add (and fuse) a row's
            # three terms in another order: each row moves by at most
            # ~2 eps of its largest term, which is below its scale
            assert abs(report.max_residual - dense) <= 4 * np.finfo(float).eps
        else:
            # one nonzero term per row: every summation order is exact
            assert report.max_residual == dense

    @pytest.mark.parametrize("lam", [complex("nan"), complex("inf"), 1j * np.inf])
    def test_nonfinite_eigenvalue_is_refused(self, lam):
        with pytest.raises(sc.ParameterOutOfRange):
            sc.coherent_coeffs(PT11, lam, 10)

    @pytest.mark.parametrize("truncation", [-1, -2])
    def test_negative_truncation_is_refused(self, truncation):
        with pytest.raises(sc.ParameterOutOfRange, match="truncation >= 0"):
            sc.coherent_coeffs(DO1, 0.3, truncation)

    @pytest.mark.parametrize("spec", [PT11, DO1, AW1])
    def test_overflowing_coefficients_are_refused(self, spec):
        with pytest.raises(sc.SeriesNotConverged):
            sc.check_eigenvalue(spec, 1e200, 60, 4)

    @pytest.mark.parametrize("truncation", [2, 4])
    def test_check_on_no_rows_is_refused(self, truncation):
        # rows 0 .. truncation - G - 1 are checked; none are left here
        with pytest.raises(sc.ParameterOutOfRange, match="guard band"):
            sc.check_eigenvalue(PT11, 0.2, truncation, 4)

    def test_one_row_outside_the_guard_band_is_checked(self):
        report = sc.check_eigenvalue(PT11, 0.2, 5, 4)
        assert report.passed and report.details["truncation"] == 5


class TestHypergeometricClosedForm:
    def test_zero_eigenvalue_gives_unity_everywhere(self):
        xs = np.linspace(-5.0, 5.0, 7)
        report = sc.check_mp_hypergeometric(1.0, 0.0, xs, 40)
        assert report.max_residual == 0.0

    def test_center_point(self):
        report = sc.check_mp_hypergeometric(1.0, 0.3, [0.0], 60)
        assert report.max_residual <= 1e-12

    def test_twenty_samples(self):
        xs = np.linspace(-5.0, 5.0, 20)
        report = sc.check_mp_hypergeometric(1.0, 0.3, xs, 60)
        assert report.passed and report.max_residual <= 1e-10

    def test_other_parameter_values(self):
        xs = np.linspace(-4.0, 4.0, 11)
        for a in (0.5, 2.0):
            report = sc.check_mp_hypergeometric(a, 0.25, xs, 60)
            assert report.passed

    def test_no_x_sample_is_refused(self):
        # a verdict on no sample would be a PASS at 0.0
        with pytest.raises(sc.ParameterOutOfRange, match="x sample"):
            sc.check_mp_hypergeometric(1.0, 0.3, [], 60)

    def test_negative_truncation_is_refused(self):
        with pytest.raises(sc.ParameterOutOfRange, match="truncation >= 0"):
            sc.check_mp_hypergeometric(1.0, 0.3, [0.0], truncation=-1)

    def test_undersized_truncation_is_detected(self):
        with pytest.raises(sc.SeriesNotConverged):
            sc.check_mp_hypergeometric(1.0, 0.9, np.linspace(-5, 5, 5), 4)

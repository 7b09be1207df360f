"""Lowering-operator eigenstates: coefficients, eigenvalue property, 1F1."""

import re
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import sincoord as sc
from sincoord.report import make_report
from sincoord.special import hyp1f1
from sincoord.systems import require_samples

PT11 = sc.PoschlTeller(1.0, 1.0)
DO1 = sc.DeformedOscillator(1.0)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)

# require_real's refusal of an x sample, up to the sample's repr
REFUSED_X = r"^x must be a real number in \(-inf, inf\), got x="


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

    @pytest.mark.parametrize(
        "lam",
        [complex(0.2, 0.15), Fraction(3, 10), np.float64(0.3), np.complex128(0.2 + 0.15j)],
        ids=["complex", "Fraction", "float64", "complex128"],
    )
    def test_complex_lambda(self, lam):
        # any number is taken as its complex value
        report = sc.check_eigenvalue(DO1, lam, 60, 4)
        assert report.passed
        assert report == sc.check_eigenvalue(DO1, complex(lam), 60, 4)
        assert np.array_equal(
            sc.coherent_coeffs(DO1, lam, 60), sc.coherent_coeffs(DO1, complex(lam), 60)
        )
        xs = np.linspace(-5.0, 5.0, 7)
        assert sc.check_mp_hypergeometric(1.0, lam, xs) == sc.check_mp_hypergeometric(
            1.0, complex(lam), xs
        )

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

    @pytest.mark.parametrize(
        "lam", [complex("nan"), complex("inf"), 1j * np.inf, pytest.param(10**400, id="10**400")]
    )
    def test_nonfinite_eigenvalue_is_refused(self, lam):
        # 10**400 before a conversion that would overflow
        message = f"^eigenvalue must be finite, got lambda={re.escape(str(lam))}$"
        for call in (
            lambda: sc.coherent_coeffs(PT11, lam, 10),
            lambda: sc.check_eigenvalue(DO1, lam, 10, 4),
            lambda: sc.check_mp_hypergeometric(1.0, lam, 0.5),
        ):
            with pytest.raises(sc.ParameterOutOfRange, match=message):
                call()

    @pytest.mark.parametrize(
        "lam",
        [
            "0.3",
            b"0.3",
            None,
            "abc",
            [0.3],
            object(),
            pytest.param(Decimal("0.3"), id="Decimal"),
            pytest.param(np.array(0.3), id="0-d array"),
        ],
    )
    def test_eigenvalue_that_is_not_a_number_is_refused(self, lam):
        message = f"eigenvalue must be a number, got lambda={re.escape(repr(lam))}$"
        for call in (
            lambda: sc.coherent_coeffs(DO1, lam, 10),
            lambda: sc.check_eigenvalue(DO1, lam, 10, 4),
            lambda: sc.check_mp_hypergeometric(1.0, lam, 0.5),
        ):
            with pytest.raises(sc.ParameterOutOfRange, match=message):
                call()

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
        with pytest.raises(sc.ParameterOutOfRange, match="need truncation >= 5"):
            sc.check_eigenvalue(PT11, 0.2, truncation, 4)

    def test_one_row_outside_the_guard_band_is_checked(self):
        report = sc.check_eigenvalue(PT11, 0.2, 5, 4)
        assert report.passed and report.details["truncation"] == 5

    @pytest.mark.parametrize(
        "truncation, guard, message",
        [(10.5, 4, "truncation must be an integer, got truncation=10.5"),
         (10, 4.5, "G must be an integer, got G=4.5")],
    )
    def test_non_integer_size_is_refused_naming_it(self, truncation, guard, message):
        with pytest.raises(sc.ParameterOutOfRange, match=message):
            sc.check_eigenvalue(DO1, 0.3, truncation, guard)


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

    @pytest.mark.parametrize(
        "x",
        [
            float("nan"),
            float("inf"),
            -float("inf"),
            0.1 + 2j,
            pytest.param(np.complex128(0.5), id="complex128"),
            pytest.param(Decimal("0.5"), id="Decimal"),
            pytest.param(10**400, id="10**400"),
        ],
    )
    def test_non_finite_x_sample_is_refused_naming_it(self, x, monkeypatch):
        # before the 1F1 series, which would not settle at such a point; a
        # complex x is not truncated to its real part
        formed = []
        monkeypatch.setattr("sincoord.coherent.coherent_coeffs", lambda *args: formed.append(args))
        with pytest.raises(sc.ParameterOutOfRange, match=REFUSED_X + re.escape(repr(x)) + "$"):
            sc.check_mp_hypergeometric(1.0, 0.3, [0.2, x], 60)
        assert formed == []

    def test_nested_samples_are_refused_naming_their_shape(self):
        with pytest.raises(sc.ParameterOutOfRange, match=r"got shape \(1, 2\)"):
            sc.check_mp_hypergeometric(1.0, 0.3, [[0.1, 0.2]], 60)

    def test_samples_that_are_not_numbers_are_refused(self):
        with pytest.raises(sc.ParameterOutOfRange, match=REFUSED_X + "'a'$"):
            sc.check_mp_hypergeometric(1.0, 0.3, ["a"], 60)

    @pytest.mark.parametrize("samples, shown", [(None, "None"), ([0.2, None], "None")])
    def test_none_samples_are_refused_as_not_numbers(self, samples, shown):
        # not as a NaN sample, which a float conversion would make of None
        with pytest.raises(sc.ParameterOutOfRange, match=REFUSED_X + shown + "$"):
            sc.check_mp_hypergeometric(1.0, 0.3, samples, 60)

    @pytest.mark.parametrize(
        "samples, shown",
        [
            (["0.2"], r"'0\.2'"),
            (b"0.2", r"b'0\.2'"),
            (np.array(["0.2"]), r"'0\.2'"),
            (np.array([0.1, b"0.2"], dtype=object), r"b'0\.2'"),
        ],
    )
    def test_numeric_strings_are_refused_as_not_numbers(self, samples, shown):
        # a float conversion would parse them
        with pytest.raises(sc.ParameterOutOfRange, match=REFUSED_X + shown + "$"):
            sc.check_mp_hypergeometric(1.0, 0.3, samples, 60)

    def test_non_integer_truncation_is_refused_naming_it(self):
        with pytest.raises(sc.ParameterOutOfRange, match="truncation=60.5"):
            sc.check_mp_hypergeometric(1.0, 0.3, [0.1], 60.5)

    def test_one_number_is_one_sample(self):
        report = sc.check_mp_hypergeometric(1.0, 0.3, 0.4, 60)
        assert report.passed and report.details["samples"] == 1

    def test_undersized_truncation_is_detected(self):
        with pytest.raises(sc.SeriesNotConverged):
            sc.check_mp_hypergeometric(1.0, 0.9, np.linspace(-5, 5, 5), 4)


def _full_length_check(a, lam, x_samples, truncation):
    """check_mp_hypergeometric as it summed before it stopped at the last
    nonzero coefficient: P_n to the truncation, every product c_n P_n and
    the sum of all of them."""
    spec = sc.DeformedOscillator(a)
    lam = complex(lam)
    xs = require_samples("x", x_samples)
    coeffs = sc.coherent_coeffs(spec, lam, truncation)
    with np.errstate(over="ignore", invalid="ignore"):
        polys = sc.eval_all(spec, truncation, xs)
        series = (coeffs[:, None] * polys).sum(axis=0)
    last_terms = np.abs(coeffs[truncation] * polys[truncation])
    scale = np.maximum(1.0, np.abs(series))
    if np.any(last_terms > 1e-14 * scale):
        raise sc.SeriesNotConverged(
            f"series tail {last_terms.max():.3e} above 1e-14 at truncation "
            f"{truncation}"
        )
    phase, z = np.exp(2j * lam), -4j * lam
    worst = 0.0
    for x, lhs in zip(xs.tolist(), series):
        rhs = phase * hyp1f1(complex(a, x), 2.0 * a, z)
        worst = np.maximum(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return make_report("coherent_1f1", worst, 1e-10, truncation=truncation)


def _outcome(check, *args):
    try:
        report = check(*args)
    except sc.SincoordError as error:
        return type(error), str(error)
    return report.max_residual.hex(), report.passed


def _last_nonzero(a, lam, truncation):
    coeffs = sc.coherent_coeffs(sc.DeformedOscillator(a), lam, truncation)
    return int(np.flatnonzero(coeffs)[-1])


def _bit_identity_cases():
    rng = np.random.default_rng(30)
    cases = [
        (1.0, 0.0, np.linspace(-5.0, 5.0, 7), 0),
        (1.0, 0.9, np.linspace(-5.0, 5.0, 5), 4),
        (0.05, complex(0.6, 0.6), np.linspace(-5.0, 5.0, 33), 6),
        (3.0, -0.8, np.array([0.4]), 2),
        (0.02, 0.3, np.linspace(-5.0, 5.0, 257), 700),
        (300.0, complex(0.2, -0.25), np.linspace(-5.0, 5.0, 20), 700),
    ]
    for _ in range(56):
        a = float(10.0 ** rng.uniform(np.log10(0.02), np.log10(300.0)))
        lam = complex(*rng.uniform(-1.0, 1.0, 2))
        xs = rng.uniform(-6.0, 6.0, int(rng.integers(1, 258)))
        cases.append((a, lam, xs, int(rng.integers(1, 701))))
    return cases


BIT_IDENTITY_CASES = _bit_identity_cases()


class TestSumUpToTheLastNonzeroCoefficient:
    """The 1F1 sum stops at K, the last n with c_n != 0.0, since a level
    past it adds 0.0 * P_n."""

    @pytest.mark.parametrize(
        "a, lam, xs, truncation", BIT_IDENTITY_CASES, ids=range(len(BIT_IDENTITY_CASES))
    )
    def test_same_bits_as_the_full_length_sum(self, a, lam, xs, truncation):
        expected = _outcome(_full_length_check, a, lam, xs, truncation)
        assert expected[0] is not sc.NonFiniteResidual
        assert _outcome(sc.check_mp_hypergeometric, a, lam, xs, truncation) == expected

    def test_cases_reach_past_the_last_nonzero_coefficient_and_refuse_a_tail(self):
        past = [case for case in BIT_IDENTITY_CASES if _last_nonzero(*case[:2], case[3]) < case[3]]
        refused = [
            case for case in BIT_IDENTITY_CASES
            if _outcome(_full_length_check, *case)[0] is sc.SeriesNotConverged
        ]
        assert len(past) >= 40 and len(refused) >= 4

    def test_polynomials_are_evaluated_up_to_the_last_nonzero_coefficient(self, monkeypatch):
        levels = []

        def recording_eval_all(spec, n_max, eta):
            levels.append(n_max)
            return sc.eval_all(spec, n_max, eta)

        monkeypatch.setattr("sincoord.coherent.eval_all", recording_eval_all)
        sc.check_mp_hypergeometric(1.3, 0.3, np.linspace(-5.0, 5.0, 20), 427)
        assert levels == [_last_nonzero(1.3, 0.3, 427)] and levels[0] < 427

    # the bound on the terms past K, relative to the series: 2.7e-301,
    # 9.9e-213 and 1.8e-253 at x = -5, 0.3, 5, while |P_n| reaches 3.8e4467,
    # 2.5e326 and 7.1e540 there
    @pytest.mark.parametrize(
        "a, truncation, bound", [(1e150, 60, 1e-300), (5e4, 211, 1e-211), (500.0, 4000, 1e-252)]
    )
    def test_terms_past_the_last_nonzero_coefficient_are_negligible(self, a, truncation, bound):
        """In 50 digits the terms past K sum to a negligible part of the
        series, although P_n leaves double range there, and the double sum
        up to K agrees with the 50-digit one."""
        spec = sc.DeformedOscillator(a)
        last = _last_nonzero(a, 0.3, truncation)
        assert last < truncation
        xs = np.array([-5.0, 0.3, 5.0])
        coeffs = sc.coherent_coeffs(spec, 0.3, truncation)
        double = (coeffs[: last + 1, None] * sc.eval_all(spec, last, xs)).sum(axis=0)
        with mpmath.workdps(50):
            lam, two_a = mpmath.mpf(0.3), 2 * mpmath.mpf(a)
            for x, series in zip(xs.tolist(), double.tolist()):
                x = mpmath.mpf(x)
                head = tail = mpmath.mpf(0)
                c_n, p_prev, p_n = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(1)
                for n in range(truncation + 1):
                    if n <= last:
                        head += c_n * p_n
                    else:
                        tail += c_n * p_n
                    # x P_n = (n + 1)/2 P_{n+1} + (n - 1 + 2a)/2 P_{n-1}
                    p_prev, p_n = p_n, (x * p_n - (n - 1 + two_a) / 2 * p_prev) / ((n + 1) / mpmath.mpf(2))
                    c_n = c_n * lam / ((n + two_a) / 2)
                assert abs(tail) < bound * abs(head + tail)
                assert abs(series - complex(head)) <= 1e-14 * max(1.0, abs(complex(head)))

"""Recurrence evaluation against independent oracles, weights, and norms."""

import cmath
import itertools
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import sincoord as sc
from sincoord import special
from sincoord.special import _LANCZOS_C as LANCZOS_C
from sincoord.special import gamma_abs_sq, hyp1f1, qpochhammer

PT11 = sc.PoschlTeller(1.0, 1.0)
PT23 = sc.PoschlTeller(2.0, 3.0)
DO1 = sc.DeformedOscillator(1.0)
AW0 = sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=0.5)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)


# ---------------------------------------------------------------------------
# oracles, independent of the recurrence path


def mp_poly_oracle(a, n, x):
    """Meixner-Pollaczek at phase pi/2 via its terminating 2F1 sum."""
    total = 0.0 + 0j
    term = 1.0 + 0j
    for k in range(n + 1):
        if k > 0:
            term *= (-n + k - 1) * (a + 1j * x + k - 1) * 2.0 / ((2 * a + k - 1) * k)
        total += term
    poch = 1.0
    for j in range(n):
        poch *= 2 * a + j
    value = poch / math.factorial(n) * (1j**n) * total
    assert abs(value.imag) < 1e-10 * max(1.0, abs(value))
    return value.real


def qpoch_fin(z, q, n):
    out = 1.0 + 0j
    for k in range(n):
        out *= 1.0 - z * q**k
    return out


def qpochhammer_loop(z, q):
    """The infinite (z; q) as one array update per k: the reference for the
    blocked product.  Inputs stay below numpy's 256 KiB temporary-elision
    threshold, past which `result * (...)` runs with its operands swapped
    and the fused multiply-add in numpy's complex product rounds differently.
    """
    zs = np.asarray(z, dtype=complex)
    cutoff = 1e-17 / (1.0 + np.abs(zs))
    result = np.ones_like(zs)
    qk = 1.0
    while abs(qk) >= cutoff.min(initial=math.inf):
        result = np.where(abs(qk) >= cutoff, result * (1.0 - zs * qk), result)
        qk *= q
    return result


def do_cutoff_scan(a, n_max):
    """The do cutoff L by one scalar weight evaluation per candidate."""
    target = math.log(1e-26)
    half = 12.0
    while half < 220.0:
        w = gamma_abs_sq(a, half)
        growth = 2.0 * (n_max * math.log(2.0 * half) - math.lgamma(n_max + 1))
        if w == 0.0 or math.log(w) + growth < target:
            break
        half += 2.0
    return half


def aw_diagonal_oracle(params, q, n):
    """Askey-Wilson B_n in multi-precision from the form of KLS (14.1.4) that
    singles out one parameter.  B_n does not depend on which nonzero a_i
    takes the slot; the largest in size takes it, where the 1/a-sized terms
    cancel least.  With all four 0 the weight is even about x = pi/2 and
    B_n = 0."""
    a, b, c, d = sorted(params, key=abs, reverse=True)
    if a == 0.0:
        return 0.0
    with mpmath.workdps(40):
        a, b, c, d = (mpmath.mpf(v) for v in (a, b, c, d))
        q = mpmath.mpf(q)
        b4 = a * b * c * d
        a_ks = (
            (1 - a * b * q**n) * (1 - a * c * q**n) * (1 - a * d * q**n)
            * (1 - b4 * q ** (n - 1))
        ) / (a * (1 - b4 * q ** (2 * n - 1)) * (1 - b4 * q ** (2 * n)))
        c_ks = (
            a * (1 - q**n) * (1 - b * c * q ** (n - 1)) * (1 - b * d * q ** (n - 1))
            * (1 - c * d * q ** (n - 1))
        ) / ((1 - b4 * q ** (2 * n - 2)) * (1 - b4 * q ** (2 * n - 1)))
        return float((a + 1 / a - a_ks - c_ks) / 2)


def aw_diagonal_sweep():
    """Seeded aw systems with |a_i| <= 0.99 and q from 1e-6 to 0.99, and the
    edges: one tiny parameter, all four 0, a pair of opposite parameters
    whose products underflow, and a_i near +-1 at small q."""
    rng = np.random.default_rng(20)
    cases = [
        ((1e-8, 0.0, 0.0, 0.0), 0.5),
        ((0.0, 0.0, 0.0, 0.0), 0.5),
        ((1e-300, -1e-300, 0.5, 0.5), 0.5),
        ((0.999, 0.5, -0.999, 0.1), 1e-5),
    ]
    while len(cases) < 54:
        params = tuple(rng.uniform(-0.99, 0.99, 4).tolist())
        q = float(10.0 ** rng.uniform(-6.0, math.log10(0.99)))
        if math.prod(params) < q:
            cases.append((params, q))
    return cases


def aw_density_oracle(spec, x):
    """The aw density at 40 digits from the complex products
    (c e^(i theta); q)_inf = prod_k (1 - c q^k e^(i theta)) and their moduli."""
    with mpmath.workdps(40):
        q = mpmath.mpf(spec.q)
        z = mpmath.expj(mpmath.mpf(x))

        def product(c):
            if spec.q <= 0.9:
                return mpmath.qp(c, q)
            # mpmath.qp raises NoConvergence at q 0.99: multiply the factors
            # until |c| q^k < 1e-30; the rest move the product by ~1e-28
            p, ck = mpmath.mpc(1), c
            for _ in range(math.ceil(math.log(1e-30) / math.log(spec.q))):
                p -= p * ck
                ck *= q
            return p

        moduli = {c: abs(product(mpmath.mpf(c) * z)) ** 2 for c in set(spec.params)}
        den = mpmath.fprod(moduli[c] for c in spec.params)
        return abs(product(z * z)) ** 2 / den


def aw_poly_oracle(spec, n, theta):
    """Askey-Wilson value from the terminating basic hypergeometric sum.

    The alternating q^(j-n) terms cancel heavily, so the sum runs in
    multi-precision arithmetic.
    """
    params = list(spec.params)
    slot = next(i for i, v in enumerate(params) if v != 0.0)
    with mpmath.workdps(40):
        a = mpmath.mpf(params.pop(slot))
        b, c, d = (mpmath.mpf(v) for v in params)
        q = mpmath.mpf(spec.q)
        b4 = a * b * c * d
        z = mpmath.exp(1j * mpmath.mpf(theta))
        pref = (
            mpmath.qp(a * b, q, n) * mpmath.qp(a * c, q, n) * mpmath.qp(a * d, q, n)
        ) / a**n
        total = mpmath.mpc(0)
        term = mpmath.mpc(1)
        for k in range(n + 1):
            if k > 0:
                j = k - 1
                term *= (1 - q ** (j - n)) * (1 - b4 * q ** (n - 1 + j))
                term *= (1 - a * z * q**j) * (1 - a / z * q**j)
                term /= (1 - a * b * q**j) * (1 - a * c * q**j) * (1 - a * d * q**j)
                term *= q / (1 - q ** (j + 1))
            total += term
        value = pref * total
        assert abs(value.imag) < 1e-20 * max(1, abs(value))
        return float(value.real)


def q_hermite_oracle(q, n, theta):
    """Continuous q-Hermite via its explicit q-binomial sum."""

    def qfac(m):
        return qpoch_fin(q, q, m).real

    total = 0.0 + 0j
    for k in range(n + 1):
        total += qfac(n) / (qfac(k) * qfac(n - k)) * cmath.exp(1j * (n - 2 * k) * theta)
    assert abs(total.imag) < 1e-12 * max(1.0, abs(total))
    return total.real


# ---------------------------------------------------------------------------
# recurrence coefficients and evaluation


class TestRecurrence:
    def test_do_first_row(self):
        rec = sc.recurrence(DO1)
        assert (rec.A(1), rec.B(1), rec.C(1)) == (1.0, 0.0, 1.0)

    @pytest.mark.parametrize("a", [3e-16, 0.3])
    def test_do_first_lowering_coefficient_is_exact(self, a):
        # C_1 = a; formed as 0.5 (n + 2a - 1) it cancels at n = 1
        rec = sc.recurrence(sc.DeformedOscillator(a))
        assert rec.C(1) == a and rec.C(np.array([1, 2]))[0] == a

    def test_do_diagonal_vanishes(self):
        rec = sc.recurrence(DO1)
        assert all(rec.B(n) == 0.0 for n in range(30))

    def test_pt_lowering_coefficient(self):
        assert sc.recurrence(PT11).C(1) == pytest.approx(0.375, abs=1e-15)

    def test_degree_zero_base_case(self):
        # eta * P0 = A0 P1 + B0 P0 must hold identically
        for spec in (PT11, PT23, DO1, AW1):
            rec = sc.recurrence(spec)
            for eta in (-0.4, 0.1, 0.8):
                p1 = sc.eval_all(spec, 1, eta)[1]
                assert eta == pytest.approx(rec.A(0) * p1 + rec.B(0), rel=1e-13)

    def test_c0_is_never_defined(self):
        for spec in (PT11, DO1, AW1):
            with pytest.raises(ValueError):
                sc.recurrence(spec).C(0)

    def test_raising_never_vanishes(self):
        for spec in (PT11, PT23, DO1, AW1):
            rec = sc.recurrence(spec)
            assert all(rec.A(n) != 0.0 for n in range(40))

    def test_aw_diagonal_does_not_depend_on_the_parameter_order(self):
        # B_n is symmetric in a1..a4, and so is its form: every ordering of
        # a tiny a1 among the others is held to one 40-digit evaluation,
        # absolutely, where |B_n| <= 0.21
        params, n = (1e-8, 0.2, -0.1, 0.3), np.arange(30)
        reference = np.array([aw_diagonal_oracle(params, 0.5, k) for k in n])
        for order in itertools.permutations(params):
            diagonal = sc.recurrence(sc.AskeyWilson(*order, q=0.5)).B(n)
            assert np.max(np.abs(diagonal - reference)) <= 1e-15, order

    @pytest.mark.parametrize("params, q", aw_diagonal_sweep())
    def test_aw_diagonal_against_multiprecision(self, params, q):
        # relative to |B_n|, which is as tiny as the a_i when every nonzero
        # a_i is tiny
        spec = sc.AskeyWilson(*params, q=q)
        n = np.arange(min(30, spec.level_cap + 1))
        diagonal = sc.recurrence(spec).B(n)
        reference = np.array([aw_diagonal_oracle(params, q, int(k)) for k in n])
        assert np.all(np.abs(diagonal - reference) <= 1e-12 * np.abs(reference))

    @pytest.mark.parametrize("slot", range(4))
    def test_aw_diagonal_closed_form_is_the_kls_form(self, slot):
        # identically in a1..a4, q and Q = q^n, whichever a_i takes the slot
        sympy = pytest.importorskip("sympy")
        params, (q, big_q) = sympy.symbols("a1:5"), sympy.symbols("q Q")
        e1 = sum(params)
        e3 = sum(x * y * z for x, y, z in itertools.combinations(params, 3))
        e4 = sympy.Mul(*params)
        closed = -big_q * (
            (e1 * q + e3) * (q + e4 * big_q**2) - big_q * (q + 1) * (e1 * e4 + e3 * q)
        ) / (2 * (q**2 - e4 * big_q**2) * (e4 * big_q**2 - 1))
        a = params[slot]
        b, c, d = (v for i, v in enumerate(params) if i != slot)
        a_ks = (
            (1 - a * b * big_q) * (1 - a * c * big_q) * (1 - a * d * big_q)
            * (1 - e4 * big_q / q)
        ) / (a * (1 - e4 * big_q**2 / q) * (1 - e4 * big_q**2))
        c_ks = (
            a * (1 - big_q) * (1 - b * c * big_q / q) * (1 - b * d * big_q / q)
            * (1 - c * d * big_q / q)
        ) / ((1 - e4 * big_q**2 / q**2) * (1 - e4 * big_q**2 / q))
        kls = (a + 1 / a - a_ks - c_ks) / 2
        assert sympy.cancel(sympy.together(closed - kls)) == 0

    def test_pt_balanced_couplings_give_symmetric_diagonal(self):
        rec = sc.recurrence(sc.PoschlTeller(0.3, 0.7))
        # g + h = 1 puts alpha + beta = 0; the n = 0 limit form must be finite
        assert math.isfinite(rec.B(0))
        assert rec.B(0) == pytest.approx((0.2 - (-0.2)) / 2.0, rel=1e-12)


class TestEvalPoly:
    def test_degree_zero_is_one(self):
        for spec in (PT11, DO1, AW1):
            assert sc.eval_all(spec, 0, 0.37)[0] == 1.0

    @pytest.mark.parametrize("n_max", [-1, -2])
    def test_negative_degree_is_refused(self, n_max):
        with pytest.raises(sc.ParameterOutOfRange, match="n_max >= 0"):
            sc.eval_all(DO1, n_max, 0.37)

    @pytest.mark.parametrize("n_max", [2.5, 3.0])
    def test_non_integer_degree_is_refused_naming_it(self, n_max):
        with pytest.raises(sc.ParameterOutOfRange, match=f"n_max must be an integer, got n_max={n_max}"):
            sc.eval_all(DO1, n_max, 0.37)

    def test_numpy_integer_degree_is_a_degree(self):
        assert np.array_equal(sc.eval_all(DO1, np.int64(3), 0.37), sc.eval_all(DO1, 3, 0.37))

    def test_do_linear_value(self):
        assert sc.eval_all(DO1, 1, 0.7)[1] == pytest.approx(1.4, abs=1e-15)

    @pytest.mark.parametrize("spec", [PT11, PT23, sc.PoschlTeller(1.0, 2.0)])
    def test_pt_matches_scipy_jacobi(self, spec):
        etas = np.linspace(-0.95, 0.95, 21)
        for n in range(9):
            mine = sc.eval_all(spec, n, etas)[n]
            ref = scipy.special.eval_jacobi(n, spec.alpha, spec.beta, etas)
            assert np.max(np.abs(mine - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_do_matches_terminating_2f1(self, a):
        spec = sc.DeformedOscillator(a)
        for n in range(9):
            for x in np.linspace(-4.0, 4.0, 9):
                ref = mp_poly_oracle(a, n, x)
                assert sc.eval_all(spec, n, x)[n] == pytest.approx(
                    ref, rel=1e-11, abs=1e-11
                )

    def test_aw_matches_terminating_4phi3(self):
        for n in range(7):
            for theta in np.linspace(0.3, 2.8, 7):
                ref = aw_poly_oracle(AW1, n, theta)
                mine = sc.eval_all(AW1, n, math.cos(theta))[n]
                assert mine == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_aw_zero_parameters_reduce_to_q_hermite(self):
        for n in range(8):
            for theta in np.linspace(0.3, 2.8, 7):
                ref = q_hermite_oracle(0.5, n, theta)
                mine = sc.eval_all(AW0, n, math.cos(theta))[n]
                assert mine == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_do_parity(self):
        xs = np.linspace(0.1, 6.0, 20)
        for n in range(9):
            even = sc.eval_all(DO1, n, xs)[n]
            odd = sc.eval_all(DO1, n, -xs)[n]
            assert np.max(np.abs(odd - (-1.0) ** n * even)) < 1e-12 * np.max(
                np.abs(even) + 1
            )

    @pytest.mark.parametrize("spec", [PT23, DO1, AW1])
    def test_exact_degree_by_finite_differences(self, spec):
        step = 0.25
        for n in range(1, 9):
            grid = np.arange(n + 2) * step - 0.5
            vals = sc.eval_all(spec, n, grid)[n]
            scale = np.max(np.abs(vals))
            top = np.diff(vals, n)  # proportional to the leading coefficient
            flat = np.diff(vals, n + 1)  # must vanish for exact degree n
            assert np.max(np.abs(flat)) < 1e-8 * scale
            assert np.max(np.abs(top)) > 1e-10 * scale


# ---------------------------------------------------------------------------
# special functions backing the weights


class TestSpecialFunctions:
    def test_gamma_against_scipy(self):
        for a in (0.3, 0.75, 1.0, 2.0):
            xs = np.linspace(0.0, 30.0, 61)
            mine = gamma_abs_sq(a, xs)
            ref = np.exp(2.0 * np.real(scipy.special.loggamma(a + 1j * xs)))
            assert np.max(np.abs(mine - ref) / ref) < 1e-12

    def test_gamma_closed_forms(self):
        # |Gamma(1/2 + ix)|^2 = pi / cosh(pi x), |Gamma(1 + ix)|^2 = pi x / sinh(pi x),
        # and |Gamma(ix)|^2 = pi / (x sinh(pi x)), the shifted form at a = 0
        xs = np.concatenate(([1e-3, -1e-3], np.linspace(-60.0, 60.0, 240)))
        sinh = np.sinh(math.pi * xs)
        bound = 128.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(xs))
        for a, ref in (
            (0.5, math.pi / np.cosh(math.pi * xs)),
            (1.0, math.pi * xs / sinh),
            (0.0, math.pi / (xs * sinh)),
        ):
            assert np.all(np.abs(gamma_abs_sq(a, xs) / ref - 1.0) < bound)
        assert gamma_abs_sq(1.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("a", [0.01, 0.1, 0.3, 0.45, 0.5, 0.6, 1.0, 2.0, 4.0])
    def test_gamma_against_mpmath(self, a):
        xs = np.concatenate(([0.0, 1e-3, -1e-3], np.linspace(-220.0, 220.0, 89)))
        got = gamma_abs_sq(a, xs)
        bound = 128.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(xs))
        with mpmath.workdps(40):
            for x, value, tol in zip(xs.tolist(), got.tolist(), bound.tolist()):
                ref = abs(mpmath.gamma(mpmath.mpc(a, x))) ** 2
                assert abs(mpmath.mpf(value) / ref - 1) < tol

    def test_gamma_domain(self):
        with pytest.raises(sc.ParameterOutOfRange, match="a > -1/2"):
            gamma_abs_sq(-0.5, 1.0)
        assert gamma_abs_sq(2.0, np.zeros((0, 3))).shape == (0, 3)

    def test_qpochhammer_against_mpmath(self):
        for z in (0.3, -0.8, complex(0.2, 0.6)):
            mine = qpochhammer(z, 0.5)
            ref = complex(mpmath.qp(z, 0.5))
            assert abs(mine - ref) < 1e-13 * abs(ref)

    def test_array_gamma_matches_scalar_lanczos_loop(self):
        def lanczos_loop(z):
            w = z - 1.0
            s = LANCZOS_C[0] + 0j
            for k in range(1, len(LANCZOS_C)):
                s += LANCZOS_C[k] / (w + k)
            t = w + 7.5
            return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * s

        for a in (0.1, 0.3, 0.75, 2.0):
            xs = np.linspace(-40.0, 40.0, 81)
            if a < 0.5:  # the shift |Gamma(a + 1 + ix)|^2 / (a^2 + x^2)
                ref = np.array([abs(lanczos_loop(complex(a + 1.0, x))) ** 2 for x in xs])
                ref /= a * a + xs * xs
            else:
                ref = np.array([abs(lanczos_loop(complex(a, x))) ** 2 for x in xs])
            # the loop's complex power t ** (w + 1/2) and the real
            # exp(... - 2 x atan2(x, Re t)) round arg(t) differently: an ulp
            # of it, up to pi eps, times Im w = x, squared in |Gamma|^2,
            # gives about 2 pi |x| eps
            bound = 16.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(xs))
            assert np.all(np.abs(gamma_abs_sq(a, xs) / ref - 1.0) < bound)

    def test_array_qpochhammer_matches_scalar_loop(self):
        def product_loop(z, q):
            result, qk, cutoff = 1.0 + 0j, 1.0, 1e-17 / (1.0 + abs(z))
            while abs(qk) >= cutoff:
                result *= 1.0 - z * qk
                qk *= q
            return result

        zs = np.array([0.3, -0.8, 0.2 + 0.6j, 2.0j, 0.99 * cmath.exp(0.4j), 5.0])
        for q in (0.3, -0.5, 0.9):
            ref = np.array([product_loop(z, q) for z in zs])
            assert np.max(np.abs(qpochhammer(zs, q) - ref) / np.abs(ref)) < 1e-14

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.6, 0.9, 0.99, 0.999])
    def test_blocked_qpochhammer_is_bit_identical_to_the_k_loop(self, q):
        rng = np.random.default_rng(11)
        # prod |1 - z q^k| <= exp(|z| / (1 - q)) stays finite at q = 0.999
        radius = min(1.0, 700.0 * (1.0 - q))
        for size in (2, 1041):
            zs = radius * rng.uniform(0.0, 1.0, size) * np.exp(
                1j * rng.uniform(-math.pi, math.pi, size)
            )
            zs[:2] = radius, -radius * 1j
            for z in (zs, zs * zs):
                assert np.array_equal(qpochhammer(z, q), qpochhammer_loop(z, q))
        grid = zs[:60]
        assert np.array_equal(
            qpochhammer(grid.reshape(3, 20), q), qpochhammer(grid, q).reshape(3, 20)
        )
        empty = qpochhammer(np.zeros(0, dtype=complex), q)
        assert empty.shape == (0,)

    @pytest.mark.parametrize("z", [complex("nan"), np.array([0.3, math.nan])])
    def test_qpochhammer_refuses_a_nan_argument(self, z):
        # a NaN floor once skipped every factor and gave (1+0j)
        with pytest.raises(sc.ParameterOutOfRange, match="finite z"):
            qpochhammer(z, 0.5)

    @pytest.mark.parametrize(
        "call",
        [
            "qpochhammer(complex('inf'), 0.5)",
            "q_product(0.5, 0.0, 1, lambda qks, out: None)",
            "q_product(0.5, -1e-17, 1, lambda qks, out: None)",
        ],
        ids=["infinite-z", "zero-floor", "negative-floor"],
    )
    def test_refusals_that_once_never_returned(self, call):
        # a floor of 0 or below (infinite z gives 0) once multiplied powers
        # forever; run apart, so a loop that never ends fails at the timeout
        code = (
            "import sincoord as sc\n"
            "from sincoord.special import q_product, qpochhammer\n"
            "try:\n"
            f"    {call}\n"
            "except sc.ParameterOutOfRange:\n"
            "    raise SystemExit(3)\n"
        )
        src = str(Path(sc.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, timeout=30
        )
        assert result.returncode == 3

    @pytest.mark.parametrize("floor", [math.nan, math.inf])
    def test_q_product_refuses_a_floor_that_is_not_positive_and_finite(self, floor):
        with pytest.raises(sc.ParameterOutOfRange, match="positive and finite"):
            special.q_product(0.5, floor, 1, lambda qks, out: None)

    def test_hyp1f1_against_mpmath(self):
        for a, b, z in (
            (complex(1, 0.5), 2.0, -1.2j),
            (complex(0.5, -2.0), 1.0, 0.9j),
        ):
            mine = hyp1f1(a, b, z)
            ref = complex(mpmath.hyp1f1(a, b, z))
            assert abs(mine - ref) < 1e-13 * max(1.0, abs(ref))

    @pytest.mark.parametrize(
        "a, b, z, shown",
        [
            # the terms overflow to inf, which meets the stopping test
            (complex(1e150, -5.0), 2e150, complex(0.0, -4e5),
             "a=(1e+150-5j), b=(2e+150+0j), z=-400000j"),
            # a NaN term never settles; the sum after 1000 terms is NaN
            (1.0, 2.0, complex(math.nan, 0.0), "a=(1+0j), b=(2+0j), z=(nan+0j)"),
        ],
    )
    def test_hyp1f1_refuses_a_sum_that_is_not_finite(self, a, b, z, shown):
        with pytest.raises(sc.SeriesNotConverged, match=f"^1F1 series is not finite at {re.escape(shown)}$"):
            hyp1f1(a, b, z)

    def test_hyp1f1_refuses_a_finite_sum_that_does_not_settle(self):
        # the terms of 1F1(1; 1; -700) = e^-700 peak near 1e302 and still
        # exceed 1e277 at the 1000th
        with pytest.raises(sc.SeriesNotConverged, match="did not settle within 1000 terms"):
            hyp1f1(1.0, 1.0, -700.0)


# ---------------------------------------------------------------------------
# weights and quadrature norms


class TestWeight:
    def test_pt_value(self):
        wf = sc.weight(PT11)
        assert wf.density(math.pi / 4) == pytest.approx(0.25, abs=1e-15)

    def test_do_value_at_origin(self):
        wf = sc.weight(DO1)
        assert wf.density(0.0) == pytest.approx(1.0, abs=1e-13)

    def test_pt_domain_enforced(self):
        wf = sc.weight(PT11)
        for x in (-0.1, 0.0, math.pi / 2, 2.0):
            with pytest.raises(sc.EvaluationDomain):
                wf.density(x)

    def test_aw_value_against_direct_product(self):
        wf = sc.weight(AW1)
        x = math.pi / 2
        z = cmath.exp(1j * x)
        num = abs(complex(mpmath.qp(z * z, 0.5))) ** 2
        den = 1.0
        for aj in AW1.params:
            den *= abs(complex(mpmath.qp(aj * z, 0.5))) ** 2
        assert wf.density(x) == pytest.approx(num / den, rel=1e-12)

    @pytest.mark.parametrize(
        "params, q",
        [
            ((0.999, 0.5, -0.999, 0.1), 0.5),
            ((-0.999, -0.9, 0.1, 0.0), 0.05),
            ((0.99, 0.99, -0.1, 0.3), 0.99),
            ((0.0, 0.0, 0.0, 0.0), 0.5),
            ((1e-8, 0.0, 0.0, 0.0), 0.9),
            ((0.8, -0.8, 0.8, -0.8), 0.6),
        ],
    )
    def test_aw_density_against_complex_products(self, params, q):
        # next to both walls, where sin^2 or cos^2 of x/2 is tiny, and inside
        spec = sc.AskeyWilson(*params, q=q)
        xs = [1e-6, 1e-3, 0.3, math.pi / 2, 2.9, math.pi - 1e-3, math.pi - 1e-6]
        got = spec.density(np.array(xs))
        for x, value in zip(xs, got):
            ref = aw_density_oracle(spec, x)
            assert abs(mpmath.mpf(value) / ref - 1) <= 1e-12
            assert abs(mpmath.mpf(spec.density(x)) / ref - 1) <= 1e-12

    def test_aw_density_positive(self):
        wf = sc.weight(AW1)
        xs = np.linspace(0.05, math.pi - 0.05, 40)
        assert np.all(wf.density(xs) > 0)

    def test_coordinate_maps(self):
        assert sc.weight(PT11).eta(0.3) == pytest.approx(math.cos(0.6))
        assert sc.weight(DO1).eta(1.7) == 1.7
        assert sc.weight(AW1).eta(0.3) == pytest.approx(math.cos(0.3))


NORM_SETTINGS = [
    sc.PoschlTeller(1.0, 1.0),
    sc.PoschlTeller(2.0, 3.0),
    sc.PoschlTeller(1.5, 1.0),
    sc.DeformedOscillator(0.5),
    sc.DeformedOscillator(1.0),
    sc.DeformedOscillator(2.0),
    AW0,
    AW1,
    sc.AskeyWilson(0.1, 0.2, 0.3, 0.4, q=0.5),
]


class TestNorms:
    @pytest.mark.parametrize("spec", NORM_SETTINGS)
    def test_positive(self, spec):
        h = sc.norms(spec, 12)
        assert np.all(h > 0)

    @pytest.mark.parametrize("spec", NORM_SETTINGS)
    def test_orthogonality(self, spec):
        gram = sc.gram_matrix(spec, 10)
        h = np.diag(gram)
        off = gram - np.diag(h)
        leak = np.abs(off) / np.sqrt(np.outer(h, h))
        assert np.max(leak) < 1e-8

    @pytest.mark.parametrize(
        "spec",
        [PT11, PT23, sc.PoschlTeller(0.3, 1.0), DO1, sc.DeformedOscillator(0.3), AW1],
    )
    def test_hermiticity_bridge(self, spec):
        h = sc.norms(spec, 21)
        rec = sc.recurrence(spec)
        for n in range(21):
            lhs = rec.A(n) * h[n + 1]
            rhs = rec.C(n + 1) * h[n]
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_pt_below_one_is_silent_and_exact(self):
        spec = sc.PoschlTeller(0.3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = sc.norms(spec, 21)
        assert np.max(np.abs(h / closed_form_norms(spec, 21) - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [sc.PoschlTeller(g, h) for g, h in ((0.1, 0.2), (0.3, 1.0), (1.0, 1.0), (4.0, 4.0))]
        + [sc.DeformedOscillator(a) for a in (0.3, 0.45, 1.0, 4.0)],
        ids=lambda spec: repr(spec),
    )
    def test_closed_form(self, spec):
        h = sc.norms(spec, 21)
        assert np.max(np.abs(h / closed_form_norms(spec, 21) - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "spec",
        [
            sc.PoschlTeller(1e6, 1e6),
            sc.DeformedOscillator(1e-4),
            sc.AskeyWilson(0.99999, 0.0, 0.0, 0.0, q=0.5),
        ],
    )
    def test_oversized_rule_is_refused(self, spec):
        with pytest.raises(sc.QuadratureNotConverged, match="nodes"):
            sc.norms(spec, 21)

    def test_aw_against_adaptive_quadrature(self):
        spec = sc.AskeyWilson(0.9, 0.2, -0.1, 0.3, q=0.5)
        h = sc.norms(spec, 6)
        wf = sc.weight(spec)

        def integrand(x):
            x = float(x)
            if not 0.0 < x < math.pi:
                return 0.0  # the density vanishes at the walls
            return wf.density(x) * sc.eval_all(spec, 6, math.cos(x))[6] ** 2

        with mpmath.workdps(20):
            ref = mpmath.quad(integrand, np.linspace(0.0, math.pi, 9).tolist())
        assert h[6] == pytest.approx(float(ref), rel=1e-12)


class TestDoCutoff:
    @pytest.mark.parametrize("n_max", [0, 21, 29, 33, 45, 100, 400])
    def test_same_nodes_as_the_scalar_scan(self, n_max):
        for a in np.linspace(0.1, 4.0, 40).tolist():
            x, _ = sc.DeformedOscillator(a).quadrature_nodes(n_max)
            step = min(0.1, a / 10.0)
            assert len(x) == 2 * math.ceil(do_cutoff_scan(a, n_max) / step) + 1

    def test_one_weight_evaluation(self, monkeypatch):
        calls = []
        gamma = special.gamma_abs_sq

        def counting(a, x):
            calls.append(np.size(x))
            return gamma(a, x)

        monkeypatch.setattr(special, "gamma_abs_sq", counting)
        DO1.quadrature_nodes(21)
        assert calls == [104]


def closed_form_norms(spec, n_max):
    """Norms from the families' closed forms, in multi-precision.

    pt: 2^(-(g+h)-1) times the Jacobi norm, because sin^2g cos^2h dx is
    2^(-(g+h)-1) (1 - eta)^alpha (1 + eta)^beta d eta.  do: the
    Meixner-Pollaczek norm 2 pi Gamma(n + 2a) / (2^(2a) n!).
    """
    out = []
    with mpmath.workdps(30):
        for n in range(n_max + 1):
            if isinstance(spec, sc.PoschlTeller):
                al, be = mpmath.mpf(spec.alpha), mpmath.mpf(spec.beta)
                jacobi = (
                    mpmath.power(2, al + be + 1)
                    * mpmath.gamma(n + al + 1)
                    * mpmath.gamma(n + be + 1)
                    / (2 * n + al + be + 1)
                    / (mpmath.gamma(n + al + be + 1) * mpmath.factorial(n))
                )
                value = mpmath.power(2, -spec.g - spec.h - 1) * jacobi
            else:
                a = mpmath.mpf(spec.a)
                value = (
                    2 * mpmath.pi * mpmath.gamma(n + 2 * a)
                    / (mpmath.power(2, 2 * a) * mpmath.factorial(n))
                )
            out.append(float(value))
    return np.array(out)


@st.composite
def small_coupling_systems(draw):
    value = st.floats(min_value=0.1, max_value=4.0)
    if draw(st.booleans()):
        return sc.PoschlTeller(draw(value), draw(value))
    return sc.DeformedOscillator(draw(value))


@settings(max_examples=25, deadline=None)
@given(small_coupling_systems())
def test_norms_match_closed_form_or_refuse(spec):
    try:
        h = sc.norms(spec, 21)
    except sc.QuadratureNotConverged:
        return
    assert np.max(np.abs(h / closed_form_norms(spec, 21) - 1.0)) < 1e-10

"""Spectra, closure polynomials, and frequency functions."""

import dataclasses
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sincoord as sc
from sincoord import systems
from sincoord.systems import frequency_pair

from conftest import exactly, symbolic_family

PT11 = sc.PoschlTeller(1.0, 1.0)
DO1 = sc.DeformedOscillator(1.0)
AW0 = sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=0.5)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)
AW2 = sc.AskeyWilson(0.1, 0.2, 0.3, 0.4, q=0.5)
# the 8 systems every suite of tools/compare_reports.py runs on
REFERENCE_SYSTEMS = (
    sc.PoschlTeller(1.0, 1.0), sc.PoschlTeller(2.0, 3.0), sc.PoschlTeller(0.7, 1.3),
    sc.DeformedOscillator(1.0), sc.DeformedOscillator(1.3), sc.DeformedOscillator(0.4),
    sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5), sc.AskeyWilson(0.3, -0.2, 0.4, 0.1, q=0.6),
)

# The largest g + h whose 4(g + h)^2, and the largest a whose 2a, is finite.
PT_TOP = 0.5 * math.sqrt(sys.float_info.max)
DO_TOP = 0.5 * sys.float_info.max


def _step(x: float, toward: float, ulps: int) -> float:
    """x moved `ulps` representable doubles toward `toward`."""
    for _ in range(ulps):
        x = math.nextafter(x, toward)
    return x


ULPS = st.integers(1, 64)


def inside(lo: float, hi: float):
    """Floats strictly inside (lo, hi), many a few ulps from an end."""
    bounded = math.isfinite(hi)
    parts = [
        st.floats(
            lo, hi if bounded else None, exclude_min=True, exclude_max=bounded,
            allow_infinity=False,
        ),
        ULPS.map(lambda k: _step(lo, hi, k)),
    ]
    if bounded:
        parts.append(ULPS.map(lambda k: _step(hi, lo, k)))
    return st.one_of(*parts)


def outside(lo: float, hi: float):
    """Floats outside (lo, hi): its ends, a few ulps past them, beyond, NaN."""
    parts = [
        st.just(lo),
        ULPS.map(lambda k: _step(lo, -math.inf, k)),
        st.floats(max_value=lo),
        st.just(math.nan),
    ]
    if math.isfinite(hi):
        parts += [
            st.just(hi),
            ULPS.map(lambda k: _step(hi, math.inf, k)),
            st.floats(min_value=hi),
        ]
    return st.one_of(*parts)


def assert_refused(message, build, spec, **fields):
    """Constructing from `fields`, and replacing them in a valid `spec`, both
    raise ParameterOutOfRange with `message`."""
    with pytest.raises(sc.ParameterOutOfRange, match=message):
        build(**fields)
    with pytest.raises(sc.ParameterOutOfRange, match=message):
        dataclasses.replace(spec, **fields)


def real_refusal(name: str, low: str, high: str) -> str:
    """The start of `require_real`'s refusal of `name` outside (low, high)."""
    return rf"^{name} must be a real number in \({low}, {high}\), got {name}="


AW_SLOTS = ("a1", "a2", "a3", "a4")


class TestValidate:
    def test_accepts_valid_specs(self):
        for spec in (PT11, DO1, AW0, AW1, AW2, sc.PoschlTeller(0.7, 1.3)):
            assert dataclasses.replace(spec) == spec

    def test_pt_rejects_nonpositive_couplings(self):
        with pytest.raises(sc.ParameterOutOfRange, match="g"):
            sc.PoschlTeller(-1.0, 1.0)
        with pytest.raises(sc.ParameterOutOfRange, match="h"):
            sc.PoschlTeller(1.0, 0.0)

    def test_do_rejects_nonpositive_a(self):
        with pytest.raises(sc.ParameterOutOfRange, match="a"):
            sc.DeformedOscillator(0.0)

    def test_aw_rejects_q_outside_unit_interval(self):
        with pytest.raises(sc.ParameterOutOfRange, match="q"):
            sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=1.5)

    def test_aw_rejects_large_parameter_product(self):
        # 0.9^4 = 0.6561 >= 0.5
        with pytest.raises(sc.ParameterOutOfRange, match="below q"):
            sc.AskeyWilson(0.9, 0.9, 0.9, 0.9, q=0.5)

    def test_aw_rejects_parameter_outside_open_interval(self):
        with pytest.raises(sc.ParameterOutOfRange, match="a2"):
            sc.AskeyWilson(0.1, 1.0, 0.0, 0.0, q=0.5)

    @settings(max_examples=200, deadline=None)
    @given(g=inside(0.0, PT_TOP / 2), h=inside(0.0, PT_TOP / 2), a=inside(0.0, DO_TOP))
    def test_pt_and_do_construct_inside(self, g, h, a):
        assert (sc.PoschlTeller(g, h).g, sc.DeformedOscillator(a).a) == (g, a)

    @settings(max_examples=200, deadline=None)
    @given(
        bad=outside(0.0, math.inf),
        good=inside(0.0, math.inf),
        slot=st.sampled_from(["g", "h"]),
    )
    def test_pt_refuses_outside(self, bad, good, slot):
        fields = {"g": good, "h": good, slot: bad}
        assert_refused(real_refusal(slot, "0", "inf"), sc.PoschlTeller, PT11, **fields)

    @settings(max_examples=100, deadline=None)
    @given(bad=outside(0.0, math.inf))
    def test_do_refuses_outside(self, bad):
        assert_refused(real_refusal("a", "0", "inf"), sc.DeformedOscillator, DO1, a=bad)

    def test_pt_and_do_construct_at_overflow_bound(self):
        assert sc.PoschlTeller(PT_TOP, 1e-300).g == PT_TOP
        assert sc.DeformedOscillator(DO_TOP).a == DO_TOP

    @settings(max_examples=100, deadline=None)
    @given(
        big=st.one_of(
            ULPS.map(lambda k: _step(PT_TOP, math.inf, k)),
            st.floats(min_value=PT_TOP, exclude_min=True),
        ),
        slot=st.sampled_from(["g", "h"]),
    )
    def test_pt_refuses_overflowing_coupling_sum(self, big, slot):
        fields = {"g": 1e-300, "h": 1e-300, slot: big}
        # an infinite coupling is refused on its own, ahead of the joint bound
        message = real_refusal(slot, "0", "inf") if big == math.inf else r"^g \+ h must be finite"
        assert_refused(message, sc.PoschlTeller, PT11, **fields)

    @settings(max_examples=100, deadline=None)
    @given(
        big=st.one_of(
            ULPS.map(lambda k: _step(DO_TOP, math.inf, k)),
            st.floats(min_value=DO_TOP, exclude_min=True),
        )
    )
    def test_do_refuses_overflowing_a(self, big):
        message = real_refusal("a", "0", "inf") if big == math.inf else "^a must be finite"
        assert_refused(message, sc.DeformedOscillator, DO1, a=big)

    @settings(max_examples=200, deadline=None)
    @given(q=inside(0.0, 1.0), params=st.tuples(*[inside(-1.0, 1.0)] * 4))
    def test_aw_constructs_inside(self, q, params):
        a1, a2, a3, a4 = params
        assume(a1 * a2 * a3 * a4 < q)
        assert sc.AskeyWilson(*params, q=q).params == params

    @settings(max_examples=200, deadline=None)
    @given(bad=outside(0.0, 1.0))
    def test_aw_refuses_q_outside(self, bad):
        assert_refused(real_refusal("q", "0", "1"), sc.AskeyWilson, AW1, a1=0.1, a2=0.2,
                       a3=-0.1, a4=0.3, q=bad)

    @settings(max_examples=200, deadline=None)
    @given(bad=outside(-1.0, 1.0), slot=st.sampled_from(AW_SLOTS))
    def test_aw_refuses_parameter_outside(self, bad, slot):
        fields = {"a1": 0.0, "a2": 0.0, "a3": 0.0, "a4": 0.0, "q": 0.5, slot: bad}
        assert_refused(real_refusal(slot, "-1", "1"), sc.AskeyWilson, AW1, **fields)

    @settings(max_examples=200, deadline=None)
    @given(q=inside(0.0, 0.9), ulps=ULPS, sign=st.sampled_from([1.0, -1.0]))
    def test_aw_parameter_product_at_q(self, q, ulps, sign):
        # a = (r, r, s r, s r) with r^4 a few ulps either side of q
        r = q**0.25
        above = _step(r, 1.0, ulps)
        below = _step(r, 0.0, ulps)
        params = lambda r: (r, r, sign * r, sign * r)
        assume(math.prod(params(below)) < q <= math.prod(params(above)))
        assert sc.AskeyWilson(*params(below), q=q).params == params(below)
        fields = dict(zip(AW_SLOTS, params(above)), q=q)
        assert_refused("must stay below q", sc.AskeyWilson, AW1, **fields)


class TestEnergy:
    def test_pt_level(self):
        assert sc.energies(PT11, 3)[2] == 16.0

    def test_do_levels_are_equispaced(self):
        assert sc.energies(DO1, 8)[7] == 7.0
        assert sc.energies(DO1, 5).tolist() == [0, 1, 2, 3, 4]

    def test_aw_level_one(self):
        assert sc.energies(AW0, 2)[1] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("spec", [PT11, DO1, AW0, AW1, AW2])
    def test_ground_level_is_exactly_zero(self, spec):
        assert sc.energies(spec, 1)[0] == 0.0

    @pytest.mark.parametrize("spec", [PT11, DO1, AW1, AW2])
    def test_strictly_increasing(self, spec):
        count = 26 if isinstance(spec, sc.AskeyWilson) else 41
        levels = sc.energies(spec, count)
        assert np.all(np.diff(levels) > 0)

    @pytest.mark.parametrize(
        "count, message",
        [
            (2.5, "count must be an integer, got count=2.5"),
            ("3", "count must be an integer, got count='3'"),
            (-1, "need count >= 0, got count=-1"),
        ],
    )
    def test_count_that_is_not_a_size_is_refused(self, count, message):
        with pytest.raises(sc.ParameterOutOfRange, match=f"^{re.escape(message)}$"):
            sc.energies(DO1, count)

    def test_count_is_not_held_to_the_size_cap(self):
        # `spectrum --nmax 524288` asks for 2^19 + 2 levels
        levels = sc.energies(DO1, 2**19 + 2)
        assert levels[-1] == 2**19 + 1

    def test_levels_past_the_first_overflow_are_not_formed(self):
        # forming all 10^6 aw levels before the refusal would take over
        # 100 MiB; a block of levels is formed at a time instead
        tracemalloc.start()
        try:
            with pytest.raises(sc.ParameterOutOfRange, match="E_1024 "):
                sc.energies(AW1, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("q,level", [(1e-300, 2), (1e-5, 62)])
    def test_overflowing_level_is_refused(self, q, level):
        spec = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=q)
        with pytest.raises(sc.ParameterOutOfRange, match=f"E_{level} .*q={q}"):
            sc.energies(spec, level + 1)
        sc.energies(spec, level)


class TestRPolynomials:
    def test_do_closure_is_trivial(self):
        r0, r1, rm1 = sc.r_polynomials(DO1)
        assert r0(3.7) == 1.0
        assert r1(3.7) == 0.0
        assert rm1(3.7) == 0.0

    def test_pt_r0_at_zero(self):
        # H' = 2 at E = 0 for g = h = 1
        r0, r1, rm1 = sc.r_polynomials(PT11)
        assert r0(0.0) == pytest.approx(12.0, abs=1e-14)
        assert r1(0.0) == 4.0
        assert rm1(0.0) == 0.0

    def test_pt_asymmetric_constant(self):
        rm1 = sc.r_polynomials(sc.PoschlTeller(1.0, 2.0))[2]
        # alpha = 1/2, beta = 3/2: 4 (1/4 - 9/4) = -8
        assert rm1(123.0) == pytest.approx(-8.0, abs=1e-14)

    def test_aw_r0_at_zero(self):
        r0 = sc.r_polynomials(AW0)[0]
        assert r0(0.0) == pytest.approx(0.125, abs=1e-15)

    def test_recurrence_diagonal_matches_spectral_ratio(self):
        # B_n = -R(-1)(E_n) / R0(E_n) ties the polynomial diagonal to the
        # closure data; a strong cross-check of both transcriptions.
        for spec in (sc.PoschlTeller(1.0, 2.0), AW1, AW2):
            r0, _, rm1 = sc.r_polynomials(spec)
            rec = sc.recurrence(spec)
            for n in range(12):
                e_n = sc.energies(spec, n + 1)[n]
                expected = -rm1(e_n) / r0(e_n)
                assert rec.B(n) == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestClosureStatementsSymbolically:
    """The three statements per level n that the operator identities reduce
    to, on the library's own `energy`, B_n and closure polynomials at
    symbolic parameters and level:
    up: (E_{n+1} - E_n)^2 - R1(E_n)(E_{n+1} - E_n) - R0(E_n) = 0,
    down: the same with E_{n-1}, and diag: B_n R0(E_n) + R-1(E_n) = 0."""

    @staticmethod
    def remainders(spec, n, below=True, rm1_factor=1.0, b_factor=1.0, power=None):
        """{statement: its remainder reduced exactly} at level n; `below`
        adds down, and a factor plants a defect on R-1 or on B_n."""
        energy, (r0, r1, rm1) = spec.energy, spec.closure_polynomials()
        b_coef = spec.recurrence_coefficients()[1]
        here = energy(n)
        statements = {"diag": b_factor * b_coef(n) * r0(here) + rm1_factor * rm1(here)}
        others = {"up": n + 1, "down": n - 1} if below else {"up": n + 1}
        for name, other in others.items():
            gap = energy(other) - here
            statements[name] = gap * gap - r1(here) * gap - r0(here)
        return {name: exactly(value, power) for name, value in statements.items()}

    @pytest.fixture
    def pt_do(self):
        """pt in (g, h), do in a, and the levels n = 0 and n = m + 1 for an
        integer m >= 0: pt's B_n takes max(n, 1), which orders no bare symbol."""
        sympy = pytest.importorskip("sympy")
        g, h, a = sympy.symbols("g h a", positive=True)
        m = sympy.Symbol("m", integer=True, nonnegative=True)
        specs = {
            "pt": symbolic_family(sc.PoschlTeller, g=g, h=h),
            "do": symbolic_family(sc.DeformedOscillator, a=a),
        }
        return specs, [(0, False), (m + 1, True)]

    @pytest.fixture
    def aw(self, monkeypatch):
        """aw in a1..a4 and q at a symbolic level n, with the powers of q**n
        in Q; its integer ratios (a rounding of floats) become the values."""
        sympy = pytest.importorskip("sympy")
        monkeypatch.setattr(systems, "_integer_ratios", lambda values: (list(values), 1))
        a1, a2, a3, a4 = sympy.symbols("a1:5")
        q = sympy.Symbol("q", positive=True)
        n = sympy.Symbol("n", integer=True)
        spec = symbolic_family(sc.AskeyWilson, a1=a1, a2=a2, a3=a3, a4=a4, q=q)
        return spec, n, (q**n, sympy.Symbol("Q"))

    @pytest.mark.parametrize("tag", ["pt", "do"])
    def test_pt_and_do_hold_at_every_level(self, tag, pt_do):
        specs, levels = pt_do
        for n, below in levels:
            remainders = self.remainders(specs[tag], n, below)
            assert remainders == dict.fromkeys(["diag", "up"] + ["down"] * below, 0), n

    def test_aw_holds_at_every_level(self, aw):
        spec, n, power = aw
        assert self.remainders(spec, n, power=power) == {"diag": 0, "up": 0, "down": 0}

    @pytest.mark.parametrize("planted", [{"rm1_factor": 1 + 1e-12}, {"b_factor": 1 + 1e-12}])
    def test_a_planted_pt_defect_is_seen(self, planted, pt_do):
        specs, levels = pt_do
        for n, below in levels:
            assert self.remainders(specs["pt"], n, below, **planted)["diag"] != 0, n

    def test_a_planted_aw_defect_is_seen(self, aw):
        spec, n, power = aw
        assert self.remainders(spec, n, rm1_factor=1 + 1e-12, power=power)["diag"] != 0


class TestAlphaPM:
    def test_do_is_plus_minus_one(self):
        for e in (0.0, 1.0, 17.5):
            assert sc.alpha_pm(DO1, e) == (1.0, -1.0)

    @pytest.mark.parametrize(
        "e, message",
        [
            (np.nan, "e points must be finite, got e=nan"),
            (np.inf, "e points must be finite, got e=inf"),
            (np.array([0.0, -np.inf]), "e points must be finite, got e=-inf"),
            ("3", "e points must be real numbers, got dtype <U1"),
            (1 + 2j, "e points must be real numbers, got dtype complex128"),
        ],
        ids=["nan", "inf", "array", "str", "complex"],
    )
    def test_energies_that_are_not_finite_real_numbers_are_refused(self, e, message):
        # not "the frequency pair at level E_0 overflows", nor a raw TypeError
        with pytest.raises(sc.ParameterOutOfRange, match=f"^{re.escape(message)}$"):
            sc.alpha_pm(PT11, e)

    def test_a_sequence_of_energies_is_their_array(self):
        # not "can't multiply sequence by non-int of type 'float'"
        levels = sc.energies(PT11, 4)
        for got, expected in zip(sc.alpha_pm(PT11, levels.tolist()), sc.alpha_pm(PT11, levels)):
            assert np.array_equal(got, expected)

    def test_pt_at_ground_energy(self):
        ap, am = sc.alpha_pm(PT11, 0.0)
        assert ap == pytest.approx(6.0, abs=1e-12)
        assert am == pytest.approx(-2.0, abs=1e-12)
        # cross-check: first gap
        assert sc.energies(PT11, 2)[1] - sc.energies(PT11, 1)[0] == pytest.approx(ap)

    def test_aw_at_ground_energy(self):
        ap, am = sc.alpha_pm(AW0, 0.0)
        assert ap == pytest.approx(0.5, abs=1e-14)
        assert am == pytest.approx(-0.25, abs=1e-14)

    def test_matches_printed_pt_form(self):
        g, h = 2.0, 3.0
        spec = sc.PoschlTeller(g, h)
        for e in np.linspace(0.0, sc.energies(spec, 41)[40], 100):
            hp = e + 0.5 * (g + h) ** 2
            ap, am = sc.alpha_pm(spec, e)
            assert ap == pytest.approx(2 + 2 * math.sqrt(2 * hp), rel=1e-12)
            assert am == pytest.approx(2 - 2 * math.sqrt(2 * hp), rel=1e-12)

    def test_matches_printed_aw_form(self):
        spec = AW1
        q, b4 = spec.q, spec.b4
        for e in np.linspace(0.0, sc.energies(spec, 26)[25], 100):
            hp = e + 0.5 * (1 + b4 / q)
            root = math.sqrt(hp * hp - b4 / q)
            ap, am = sc.alpha_pm(spec, e)
            assert ap == pytest.approx(
                (1 / q - 1) * ((1 - q) * hp + (1 + q) * root) / 2, rel=1e-12
            )
            assert am == pytest.approx(
                (1 / q - 1) * ((1 - q) * hp - (1 + q) * root) / 2, rel=1e-12
            )

    @pytest.mark.parametrize("spec", [PT11, sc.PoschlTeller(2, 3), DO1, AW1, AW2])
    def test_sum_and_product_identities(self, spec):
        r0, r1, _ = sc.r_polynomials(spec)
        top = 25 if isinstance(spec, sc.AskeyWilson) else 40
        for e in np.linspace(0.0, sc.energies(spec, top + 1)[top], 100):
            ap, am = sc.alpha_pm(spec, e)
            assert ap > am
            assert ap + am == pytest.approx(r1(e), rel=1e-12, abs=1e-12)
            scale = max(1.0, abs(r0(e)))
            assert abs(ap * am + r0(e)) / scale < 1e-12

    def test_positive_r0_gives_distinct_frequencies(self):
        # R1^2 + 4 R0 >= fl(4 R0) > 0, so its root is at least 4.4e-162,
        # and R1 + root and R1 - root never round to one double: the
        # frequencies are distinct wherever R0 > 0 and the pair is finite
        tiny = math.ulp(0.0)
        r0_grid = [tiny, 2 * tiny, 1e-320, 2.2e-308, 1e-300, 1e-200, 1e-162,
                   1e-100, 1e-20, 1.0, 1e20, 1e100, 1e200, 1e300, 1e308,
                   sys.float_info.max / 4]
        magnitudes = [0.0, tiny, 1e-300, 1e-200, 1e-162, 1e-160, 1.4e-154,
                      1.5e-154, 1e-100, 1e-20, 1.0, 1e20, 1e100, 1e153, 1e154]
        r1_grid = magnitudes + [-m for m in magnitudes[1:]]
        r0, r1 = (a.ravel() for a in np.meshgrid(r0_grid, r1_grid))
        rng = np.random.default_rng(0)
        r0 = np.concatenate([r0, 10.0 ** rng.uniform(-323.5, 308, 20_000)])
        r1 = np.concatenate(
            [r1, rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-320, 154, 20_000)]
        )
        for spec in REFERENCE_SYSTEMS:
            levels = sc.energies(spec, 64)
            poly0, poly1, _ = sc.r_polynomials(spec)
            r0 = np.concatenate([r0, poly0(levels)])
            r1 = np.concatenate([r1, poly1(levels)])
        with np.errstate(over="ignore"):
            finite = np.isfinite(r1 * r1 + 4.0 * r0)
        assert np.all(r0 > 0.0) and finite.sum() > 20_000
        ap, am = frequency_pair(r0[finite], r1[finite], r0[finite])
        assert np.all(ap - am > 0.0)

    def test_complex_frequencies_below_the_well(self):
        with pytest.raises(sc.ComplexFrequencies):
            sc.alpha_pm(PT11, -10.0)

    @pytest.mark.parametrize("spec", [PT11, DO1, AW1])
    def test_array_energies_match_scalar_calls(self, spec):
        levels = sc.energies(spec, 20)
        ap, am = sc.alpha_pm(spec, levels)
        assert [(float(p), float(m)) for p, m in zip(ap, am)] == [
            tuple(map(float, sc.alpha_pm(spec, e))) for e in levels.tolist()
        ]

    def test_array_refusal_names_the_first_bad_energy(self):
        with pytest.raises(sc.ComplexFrequencies) as scalar:
            sc.alpha_pm(PT11, -10.0)
        with pytest.raises(sc.ComplexFrequencies) as array:
            sc.alpha_pm(PT11, np.array([0.0, -10.0, -20.0]))
        assert str(array.value) == str(scalar.value)


class TestSpectrumClosure:
    @pytest.mark.parametrize(
        "spec,n_max",
        [
            (sc.PoschlTeller(1, 1), 40),
            (sc.PoschlTeller(2, 3), 40),
            (sc.PoschlTeller(0.7, 1.3), 40),
            (sc.DeformedOscillator(0.5), 40),
            (sc.DeformedOscillator(1.0), 40),
            (sc.DeformedOscillator(2.0), 40),
            (AW1, 25),
            (AW2, 25),
        ],
    )
    def test_closure_within_tolerance(self, spec, n_max):
        report = sc.check_spectrum_closure(spec, n_max)
        assert report.passed, report
        assert report.max_residual <= 1e-9

    def test_do_closure_is_exact(self):
        assert sc.check_spectrum_closure(DO1, 40).max_residual == 0.0

    def test_aw_cap_enforced(self):
        with pytest.raises(sc.ParameterOutOfRange, match="cap"):
            sc.check_spectrum_closure(AW1, 40)


# (function of one size, the size's name, its least value), with every
# other argument valid
SIZED = [
    (lambda spec, size: sc.eval_all(spec, size, 0.5), "n_max", 0),
    (sc.norms, "n_max", 0),
    (sc.gram_matrix, "n_max", 0),
    (lambda spec, size: sc.coherent_coeffs(spec, 0.3, size), "truncation", 0),
    (lambda spec, size: sc.check_eigenvalue(spec, 0.3, size, 4), "truncation", 5),
    (lambda spec, size: sc.check_eigenvalue(spec, 0.3, 20, size), "G", 1),
    (sc.check_spectrum_closure, "n_max", 1),
    (sc.sample_states, "state count", 0),
    (lambda spec, size: sc.build_basic(spec, size, 4), "N", 6),
    (lambda spec, size: sc.build_basic(spec, 30, size), "G", 1),
]
SIZED_IDS = [
    "eval_all", "norms", "gram_matrix", "coherent_coeffs", "check_eigenvalue",
    "check_eigenvalue-G", "check_spectrum_closure", "sample_states", "build_basic",
    "build_basic-G",
]


class TestRequireSize:
    @pytest.mark.parametrize("spec", [PT11, DO1, AW1], ids=["pt", "do", "aw"])
    @pytest.mark.parametrize("call, name, low", SIZED, ids=SIZED_IDS)
    def test_malformed_size_is_refused_naming_it(self, spec, call, name, low):
        cap = 2**19
        for size, message in [
            (None, f"{name} must be an integer, got {name}=None"),
            ("3", f"{name} must be an integer, got {name}='3'"),
            (2.5, f"{name} must be an integer, got {name}=2.5"),
            (low - 1, f"need {name} >= {low}, got {name}={low - 1}"),
            (cap + 1, f"{name}={cap + 1} exceeds the size cap {cap}"),
        ]:
            with pytest.raises(sc.ParameterOutOfRange, match=f"^{re.escape(message)}$"):
                call(spec, size)

    @pytest.mark.parametrize("spec", [PT11, DO1, AW1], ids=["pt", "do", "aw"])
    @pytest.mark.parametrize("call, name, low", SIZED, ids=SIZED_IDS)
    def test_least_size_is_accepted(self, spec, call, name, low):
        call(spec, low)


STATE = sc.ClassicalState(0.5, 0.3)


def _trajectory(traj):
    """A flow's times, eta values and drift, as Python values to compare."""
    return traj.times.tolist(), traj.eta_values.tolist(), traj.energy_drift


def _built(spec):
    """The system, with its spectrum closure and its first norms."""
    return spec, sc.check_spectrum_closure(spec, 5), sc.norms(spec, 5).tolist()


# (entry point, the real parameter's name, its open range, a float inside
# it, and the call with the parameter at a value and every other argument
# valid)
REAL = [
    ("PoschlTeller", "g", 0.0, math.inf, 1.0, lambda v: _built(sc.PoschlTeller(v, 1.0))),
    ("PoschlTeller", "h", 0.0, math.inf, 1.0, lambda v: _built(sc.PoschlTeller(1.0, v))),
    ("DeformedOscillator", "a", 0.0, math.inf, 1.0,
     lambda v: _built(sc.DeformedOscillator(v))),
    *(("AskeyWilson", name, low, 1.0, good,
       lambda v, name=name: _built(sc.AskeyWilson(**dataclasses.asdict(AW1) | {name: v})))
      for name, low, good in [("q", 0.0, 0.5), *((slot, -1.0, 0.0) for slot in AW_SLOTS)]),
    ("check_su11", "a", 0.0, math.inf, 1.0, lambda v: sc.check_su11(v, 30, 4)),
    ("check_potential_reconstruction", "g", 0.0, math.inf, 1.0,
     lambda v: sc.check_potential_reconstruction(v, 1.0)),
    ("check_potential_reconstruction", "h", 0.0, math.inf, 1.0,
     lambda v: sc.check_potential_reconstruction(1.0, v)),
    ("check_mp_hypergeometric", "a", 0.0, math.inf, 1.0,
     lambda v: sc.check_mp_hypergeometric(v, 0.3, [-1.0, 0.5], 20)),
    ("flow_oracle", "t_end", 0.0, math.inf, 1.0,
     lambda v: _trajectory(sc.flow_oracle(DO1, STATE, v, 1 / 64))),
    ("flow_oracle", "dt", 0.0, math.inf, 1 / 64,
     lambda v: _trajectory(sc.flow_oracle(DO1, STATE, 1.0, v))),
    ("check_closed_vs_flow", "dt", 0.0, math.inf, 1 / 64,
     lambda v: sc.check_closed_vs_flow(DO1, [STATE], dt=v)),
    ("check_closed_vs_flow", "t_end", 0.0, math.inf, 1.0,
     lambda v: sc.check_closed_vs_flow(DO1, [STATE], dt=1 / 64, t_end=v)),
]
REAL_IDS = [f"{entry}-{name}" for entry, name, *_ in REAL]


class TestRequireReal:
    @pytest.mark.parametrize("entry, name, low, high, good, call", REAL, ids=REAL_IDS)
    def test_a_value_that_is_not_a_real_inside_the_range_is_refused(
        self, entry, name, low, high, good, call
    ):
        bad_values = [None, "1", b"1", 1j, [1.0], math.nan, math.inf, -math.inf, low, high]
        if (entry, name) == ("check_closed_vs_flow", "t_end"):
            bad_values.remove(None)  # None asks for three periods
        for bad in bad_values:
            message = f"{name} must be a real number in ({low:g}, {high:g}), got {name}={bad!r}"
            with pytest.raises(sc.ParameterOutOfRange, match=f"^{re.escape(message)}$"):
                call(bad)

    @pytest.mark.parametrize("entry, name, low, high, good, call", REAL, ids=REAL_IDS)
    def test_each_real_type_gives_the_report_of_the_float(
        self, entry, name, low, high, good, call
    ):
        # every good value is exact in float32, which is tested at its own
        # precision: no overflow warning, which Tier-1 turns into an error
        same = [np.float64(good), np.float32(good), Fraction(good)]
        if good.is_integer():
            same += [int(good), np.int64(good)]
        expected = repr(call(good))
        for value in same:
            assert repr(call(value)) == expected, value

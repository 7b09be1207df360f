"""Spectra, closure polynomials, and frequency functions."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sincoord as sc

PT11 = sc.PoschlTeller(1.0, 1.0)
DO1 = sc.DeformedOscillator(1.0)
AW0 = sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=0.5)
AW1 = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)
AW2 = sc.AskeyWilson(0.1, 0.2, 0.3, 0.4, q=0.5)

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
        assert_refused(f"^{slot} must be positive", sc.PoschlTeller, PT11, **fields)

    @settings(max_examples=100, deadline=None)
    @given(bad=outside(0.0, math.inf))
    def test_do_refuses_outside(self, bad):
        assert_refused("^a must be positive", sc.DeformedOscillator, DO1, a=bad)

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
        assert_refused(r"^g \+ h must be finite", sc.PoschlTeller, PT11, **fields)

    @settings(max_examples=100, deadline=None)
    @given(
        big=st.one_of(
            ULPS.map(lambda k: _step(DO_TOP, math.inf, k)),
            st.floats(min_value=DO_TOP, exclude_min=True),
        )
    )
    def test_do_refuses_overflowing_a(self, big):
        assert_refused("^a must be finite", sc.DeformedOscillator, DO1, a=big)

    @settings(max_examples=200, deadline=None)
    @given(q=inside(0.0, 1.0), params=st.tuples(*[inside(-1.0, 1.0)] * 4))
    def test_aw_constructs_inside(self, q, params):
        a1, a2, a3, a4 = params
        assume(a1 * a2 * a3 * a4 < q)
        assert sc.AskeyWilson(*params, q=q).params == params

    @settings(max_examples=200, deadline=None)
    @given(bad=outside(0.0, 1.0))
    def test_aw_refuses_q_outside(self, bad):
        assert_refused("^q must lie in", sc.AskeyWilson, AW1, a1=0.1, a2=0.2,
                       a3=-0.1, a4=0.3, q=bad)

    @settings(max_examples=200, deadline=None)
    @given(bad=outside(-1.0, 1.0), slot=st.sampled_from(AW_SLOTS))
    def test_aw_refuses_parameter_outside(self, bad, slot):
        fields = {"a1": 0.0, "a2": 0.0, "a3": 0.0, "a4": 0.0, "q": 0.5, slot: bad}
        assert_refused(f"^{slot} must lie in", sc.AskeyWilson, AW1, **fields)

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
        model = sc.r_polynomials(DO1)
        assert model.r0(3.7) == 1.0
        assert model.r1(3.7) == 0.0
        assert model.rm1(3.7) == 0.0

    def test_pt_r0_at_zero(self):
        # H' = 2 at E = 0 for g = h = 1
        model = sc.r_polynomials(PT11)
        assert model.r0(0.0) == pytest.approx(12.0, abs=1e-14)
        assert model.r1(0.0) == 4.0
        assert model.rm1(0.0) == 0.0

    def test_pt_asymmetric_constant(self):
        model = sc.r_polynomials(sc.PoschlTeller(1.0, 2.0))
        # alpha = 1/2, beta = 3/2: 4 (1/4 - 9/4) = -8
        assert model.rm1(123.0) == pytest.approx(-8.0, abs=1e-14)

    def test_aw_r0_at_zero(self):
        model = sc.r_polynomials(AW0)
        assert model.r0(0.0) == pytest.approx(0.125, abs=1e-15)

    def test_recurrence_diagonal_matches_spectral_ratio(self):
        # B_n = -R(-1)(E_n) / R0(E_n) ties the polynomial diagonal to the
        # closure data; a strong cross-check of both transcriptions.
        for spec in (sc.PoschlTeller(1.0, 2.0), AW1, AW2):
            model = sc.r_polynomials(spec)
            rec = sc.recurrence(spec)
            for n in range(12):
                e_n = sc.energies(spec, n + 1)[n]
                expected = -model.rm1(e_n) / model.r0(e_n)
                assert rec.B(n) == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestAlphaPM:
    def test_do_is_plus_minus_one(self):
        for e in (0.0, 1.0, 17.5):
            assert sc.alpha_pm(DO1, e) == (1.0, -1.0)

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
        model = sc.r_polynomials(spec)
        top = 25 if isinstance(spec, sc.AskeyWilson) else 40
        for e in np.linspace(0.0, sc.energies(spec, top + 1)[top], 100):
            ap, am = sc.alpha_pm(spec, e)
            assert ap > am
            assert ap + am == pytest.approx(model.r1(e), rel=1e-12, abs=1e-12)
            scale = max(1.0, abs(model.r0(e)))
            assert abs(ap * am + model.r0(e)) / scale < 1e-12

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

"""Array forms of the levels, the recurrence and the time grid against the
per-level, per-n, per-sample and per-row loops they replaced.

The loops below are the scalar code the array forms replaced, kept as the
reference.  The arithmetic of every entry is unchanged, so the two must agree
bit for bit on seeded random pt, do and aw systems, refusals included.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

import sincoord as sc
from sincoord import heisenberg, operators, systems

SIZES = (2, 30, 215, 512)


def random_systems(seed: int, count: int = 4):
    """Seeded pt, do and aw systems, with the special cases pt g + h = 1
    (alpha + beta = 0, where B_0 takes its limit form), aw with a zero first
    parameter and the fully symmetric aw weight."""
    rng = np.random.default_rng(seed)
    specs = [sc.PoschlTeller(0.3, 0.7), sc.PoschlTeller(1.0, 1.0)]
    specs += [sc.PoschlTeller(*rng.uniform(0.3, 4.0, 2).tolist()) for _ in range(count)]
    specs += [sc.DeformedOscillator(a) for a in rng.uniform(0.2, 4.0, count).tolist()]
    specs += [
        sc.AskeyWilson(0.0, 0.2, -0.1, 0.3, q=0.5),
        sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=0.4),
    ]
    while len(specs) < 2 * count + 4 + count:
        a = rng.uniform(-0.8, 0.8, 4).tolist()
        q = float(rng.uniform(0.2, 0.9))
        if math.prod(a) < q:
            specs.append(sc.AskeyWilson(*a, q=q))
    return specs


SYSTEMS = random_systems(2024)


def family_size(spec, n_dim: int) -> int:
    """aw runs up to its double-precision level cap."""
    return min(n_dim, spec.level_cap)


# ---------------------------------------------------------------------------
# the scalar forms


def scalar_energy(spec, n: int) -> float:
    if isinstance(spec, sc.PoschlTeller):
        return 2.0 * n * (n + spec.g + spec.h)
    if isinstance(spec, sc.DeformedOscillator):
        return float(n)
    q = spec.q
    return (q ** -n - 1.0) * (1.0 - spec.b4 * q ** (n - 1)) / 2.0


def scalar_levels(spec, count: int) -> np.ndarray:
    """The per-level loop, refusing the first level that overflows."""
    out = []
    for n in range(count):
        try:
            level = scalar_energy(spec, n)
        except OverflowError:
            level = math.inf
        if level == math.inf:
            raise sc.ParameterOutOfRange(
                f"level E_{n} overflows double precision for {spec}"
            )
        out.append(level)
    return np.array(out, dtype=float)


def scalar_coefficients(spec):
    """A_n, B_n, C_n as functions of one int n."""
    if isinstance(spec, sc.PoschlTeller):
        al, be = spec.alpha, spec.beta

        def a_coef(n):
            s = 2.0 * n + al + be
            return 2.0 * (n + 1) * (n + al + be + 1) / ((s + 1) * (s + 2))

        def b_coef(n):
            if n == 0:
                return (be - al) / (al + be + 2.0)
            s = 2.0 * n + al + be
            return (be * be - al * al) / (s * (s + 2.0))

        def c_coef(n):
            s = 2.0 * n + al + be
            return 2.0 * (n + al) * (n + be) / (s * (s + 1.0))

        return a_coef, b_coef, c_coef
    if isinstance(spec, sc.DeformedOscillator):
        a = spec.a
        return (
            lambda n: 0.5 * (n + 1),
            lambda n: 0.0,
            lambda n: 0.5 * ((n - 1) + 2.0 * a),
        )
    q, b4 = spec.q, spec.b4
    a1, a2, a3, a4 = spec.params
    pair_products = (a1 * a2, a1 * a3, a1 * a4, a2 * a3, a2 * a4, a3 * a4)

    def a_coef(n):
        return (1.0 - b4 * q ** (n - 1)) / (
            2.0 * (1.0 - b4 * q ** (2 * n - 1)) * (1.0 - b4 * q ** (2 * n))
        )

    def c_coef(n):
        num = 1.0 - q**n
        for p in pair_products:
            num *= 1.0 - p * q ** (n - 1)
        return num / (
            2.0 * (1.0 - b4 * q ** (2 * n - 2)) * (1.0 - b4 * q ** (2 * n - 1))
        )

    f1, f2, f3, f4 = (Fraction(v) for v in spec.params)
    e1 = float(f1 + f2 + f3 + f4)
    e3 = float(f1 * f2 * (f3 + f4) + f3 * f4 * (f1 + f2))
    e4 = float(f1 * f2 * f3 * f4)

    def b_coef(n):
        big_q = q**n
        e4_q2 = e4 * big_q * big_q
        return (
            -0.5
            * big_q
            * ((e1 * q + e3) * (q + e4_q2) - big_q * (q + 1.0) * (e1 * e4 + e3 * q))
            / ((q * q - e4_q2) * (e4_q2 - 1.0))
        )

    return a_coef, b_coef, c_coef


def scalar_lists(spec, n_dim: int):
    """The per-n lists: A_0 .. A_{N-1}, B_0 .. B_{N-1}, C_1 .. C_{N-1}."""
    a_coef, b_coef, c_coef = scalar_coefficients(spec)
    return (
        np.array([a_coef(n) for n in range(n_dim)], dtype=float),
        np.array([b_coef(n) for n in range(n_dim)], dtype=float),
        np.array([c_coef(n) for n in range(1, n_dim)], dtype=float),
    )


def scalar_eval_all(spec, n_max: int, eta) -> np.ndarray:
    a_coef, b_coef, c_coef = scalar_coefficients(spec)
    out = np.empty((n_max + 1,) + np.shape(eta), dtype=float)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = (eta - b_coef(0)) / a_coef(0)
    for n in range(1, n_max):
        out[n + 1] = ((eta - b_coef(n)) * out[n] - c_coef(n) * out[n - 1]) / a_coef(n)
    return out


def _plus_diagonal(bands, values):
    out = bands.copy()
    out[1] = out[1] + values
    return out


def per_sample_heisenberg(spec, n_dim: int, guard: int, t_samples):
    """(max_vs_oracle, max_vs_decomposition) one time sample at a time."""
    levels, eta, comm = sc.build_basic(spec, n_dim, guard)
    solution = sc.build_solution(spec, n_dim, guard)
    ratio, ap, am = -solution.constant_part, solution.freq_plus, solution.freq_minus
    mask = operators._window_mask(n_dim, guard)
    gaps = operators._level_gaps(levels)
    worst_oracle = worst_split = 0.0
    for t in (float(t) for t in t_samples):
        denom = ap - am
        phase_p = np.exp(1j * ap * t)
        phase_m = np.exp(1j * am * t)
        osc = (phase_p - phase_m) / denom
        mix = (-am * phase_p + ap * phase_m) / denom
        exact = (
            _plus_diagonal(comm * osc[None, :], -ratio)
            + _plus_diagonal(eta, ratio) * mix[None, :]
        )
        oracle = eta * np.exp(1j * gaps * t)
        up = solution.a_plus * np.exp(1j * ap * t)[None, :]
        down = solution.a_minus * np.exp(1j * am * t)[None, :]
        split = _plus_diagonal(up, -ratio) + down
        col_scale = 1.0
        if spec.relative_residuals:
            col_scale = np.max(np.abs(oracle), axis=0, where=mask, initial=1.0)
        window_max = lambda v: float(np.max(v, where=mask, initial=0.0))
        worst_oracle = np.maximum(
            worst_oracle, window_max(np.abs(exact - oracle) / col_scale)
        )
        worst_split = np.maximum(
            worst_split, window_max(np.abs(exact - split) / col_scale)
        )
    return float(worst_oracle), float(worst_split)


def per_row_coefficients(spec, lam: complex, truncation: int) -> np.ndarray:
    _, _, c_coef = scalar_coefficients(spec)
    coeffs = np.zeros(truncation + 1, dtype=complex)
    coeffs[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, truncation + 1):
            coeffs[n] = lam * coeffs[n - 1] / c_coef(n)
    return coeffs


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@dataclass(frozen=True)
class Refusal:
    error: type
    message: str


def outcome(fn, *args):
    """The result of fn, or the refusal it raised."""
    try:
        return fn(*args)
    except sc.SincoordError as exc:
        return Refusal(type(exc), str(exc))


# ---------------------------------------------------------------------------
# comparisons


@pytest.mark.parametrize("n_dim", SIZES)
@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_levels_match_per_level_loop(spec, n_dim):
    new, ref = outcome(sc.energies, spec, n_dim), outcome(scalar_levels, spec, n_dim)
    if isinstance(ref, Refusal):
        assert new == ref
    else:
        assert same_bits(new, ref)


@pytest.mark.parametrize(
    "spec",
    [SYSTEMS[2], SYSTEMS[6], sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.95)],
    ids=lambda s: s.tag,
)
def test_levels_formed_in_several_blocks_match_per_level_loop(spec):
    count = 2 * systems._LEVEL_BLOCK + 5
    assert same_bits(sc.energies(spec, count), scalar_levels(spec, count))


@pytest.mark.parametrize("n_dim", SIZES)
@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_coefficients_match_per_n_lists(spec, n_dim):
    rec = sc.recurrence(spec)
    n = np.arange(n_dim)
    up, diag, down = scalar_lists(spec, n_dim)
    assert same_bits(rec.A(n), up)
    assert same_bits(rec.B(n), diag)
    assert same_bits(rec.C(n[1:]), down)
    # a single level still gives the scalar form's value
    assert rec.A(n_dim - 1) == up[-1] and rec.B(n_dim - 1) == diag[-1]


@pytest.mark.parametrize("n_dim", SIZES[1:])
@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_basic_bands_match_per_n_lists(spec, n_dim):
    n_dim = family_size(spec, n_dim)
    ham, eta, comm = sc.build_basic(spec, n_dim, 4)
    levels = scalar_levels(spec, n_dim)
    up, diag, down = scalar_lists(spec, n_dim)
    assert same_bits(ham, levels)
    assert same_bits(eta[2, :-1].real, up[:-1])
    assert same_bits(eta[1].real, diag)
    assert same_bits(eta[0, 1:].real, down)
    assert same_bits(comm, operators._commutator_with_h(levels, eta))


@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_eval_all_matches_scalar_coefficients(spec):
    n_max = family_size(spec, 30)
    eta = np.linspace(-0.9, 0.9, 7)
    assert same_bits(sc.eval_all(spec, n_max, eta), scalar_eval_all(spec, n_max, eta))
    assert same_bits(sc.eval_all(spec, 2, 0.3), scalar_eval_all(spec, 2, 0.3))


def coherent_samples(spec) -> np.ndarray:
    """20 coordinate values inside the family's range of eta, as many as
    `coherent_1f1` sums the series at."""
    if isinstance(spec, sc.DeformedOscillator):
        return np.linspace(-5.0, 5.0, 20)
    return np.linspace(-0.95, 0.95, 20)


@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_eval_all_matches_scalar_coefficients_at_the_coherent_tail(spec):
    # the shape of `coherent_1f1` at the largest truncation of the benchmark
    eta = coherent_samples(spec)
    assert same_bits(sc.eval_all(spec, 427, eta), scalar_eval_all(spec, 427, eta))


@pytest.mark.parametrize("n_max", (0, 1))
@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_eval_all_of_degree_at_most_one_matches_scalar_coefficients(spec, n_max):
    eta = np.float64(0.3)  # 0-d
    assert same_bits(sc.eval_all(spec, n_max, eta), scalar_eval_all(spec, n_max, eta))


@pytest.mark.parametrize("n_dim", SIZES[1:])
@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_heisenberg_matches_per_sample_loop(spec, n_dim):
    n_dim = family_size(spec, n_dim)
    rng = np.random.default_rng(n_dim)
    # the long grid spans three blocks
    long_grid = rng.uniform(0.0, 6.0, 2 * (heisenberg._BLOCK_ENTRIES // n_dim) + 1)
    for grid in (heisenberg.DEFAULT_T_GRID, long_grid):
        ref = outcome(per_sample_heisenberg, spec, n_dim, 4, grid)
        report = outcome(sc.check_heisenberg, spec, n_dim, 4, grid)
        if isinstance(ref, Refusal):
            assert report == ref
            continue
        details = report.details
        assert (details["max_vs_oracle"], details["max_vs_decomposition"]) == ref


@pytest.mark.parametrize("truncation", SIZES)
@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_coherent_coefficients_match_per_row_loop(spec, truncation):
    truncation = family_size(spec, truncation)
    ref = per_row_coefficients(spec, spec.coherent_lambda, truncation)
    coeffs = outcome(sc.coherent_coeffs, spec, spec.coherent_lambda, truncation)
    if isinstance(coeffs, Refusal):
        assert coeffs.error is sc.SeriesNotConverged
        assert not np.all(np.isfinite(ref))
    else:
        assert same_bits(coeffs, ref)


@pytest.mark.parametrize("spec", SYSTEMS, ids=lambda s: s.tag)
def test_coherent_coefficients_at_a_complex_lambda_match_per_row_loop(spec):
    lam = 0.25 + 0.1j
    coeffs = sc.coherent_coeffs(spec, lam, 427)
    assert same_bits(coeffs, per_row_coefficients(spec, lam, 427))


def _pow_mismatch():
    """A (q, k) where numpy's power and Python's float pow disagree."""
    rng = np.random.default_rng(11)
    exponents = np.arange(-40, 40)
    for q in rng.uniform(0.3, 0.9, 200).tolist():
        vectorised = np.power(q, exponents.astype(float))
        for k, value in zip(exponents.tolist(), vectorised.tolist()):
            if value != q**k:
                return q, k
    return None


def test_aw_powers_come_from_python_pow():
    found = _pow_mismatch()
    if found is None:
        pytest.skip("numpy's power matches Python's float pow on this machine")
    q, k = found
    spec = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=q)
    n_dim = abs(k) + 3
    exponents = np.arange(-n_dim, 2 * n_dim)
    assert same_bits(spec._q_pow(exponents), [q**j for j in exponents.tolist()])
    assert same_bits(sc.energies(spec, n_dim), scalar_levels(spec, n_dim))
    rec = sc.recurrence(spec)
    n = np.arange(n_dim)
    up, diag, down = scalar_lists(spec, n_dim)
    assert same_bits(rec.A(n), up)
    assert same_bits(rec.B(n), diag)
    assert same_bits(rec.C(n[1:]), down)


# a1..a4 at the edges of their bits (subnormal, tiny, -0.0, just below +-1),
# and with full mantissas, where a constant rounded twice would differ
EXACT_CONSTANT_EDGES = [
    sc.AskeyWilson(0.7076604676433873, -0.9235005608951805, 0.45471778393128925,
                   -0.6422018712069331, q=0.5),
    sc.AskeyWilson(5e-324, 0.5, -0.5, 0.1, q=0.5),
    sc.AskeyWilson(-5e-324, 5e-324, 1e-300, -1e-300, q=0.5),
    sc.AskeyWilson(-0.0, 0.2, -0.1, 0.3, q=0.6),
    sc.AskeyWilson(0.9999999999999999, -0.9999999999999999, 0.999, 0.0, q=0.9),
    sc.AskeyWilson(2.2250738585072014e-308, 1 / 3, -0.999, 0.5, q=0.05),
]


@pytest.mark.parametrize("spec", EXACT_CONSTANT_EDGES, ids=lambda s: repr(s.params))
def test_aw_exact_constants_round_as_fractions_do(spec):
    # e1, e3 and e4 (through B_n) and the flow's pair constants are exact
    # rationals of a1..a4 rounded once, as float(Fraction(...)) rounds them
    n = range(30)
    b_coef, scalar_b = spec.recurrence_coefficients()[1], scalar_coefficients(spec)[1]
    assert same_bits([b_coef(k) for k in n], [scalar_b(k) for k in n])
    a1, a2, a3, a4 = (Fraction(v) for v in spec.params)
    expected = {"k": (1 - a1 * a2) * (1 - a3 * a4) / 4}
    for pair, a, b in (("12", a1, a2), ("34", a3, a4)):
        expected |= {"u" + pair: 1 + a * b, "m" + pair: (1 - a * b) ** 2,
                     "e" + pair: (1 - a) * (1 - b), "f" + pair: (1 + a) * (1 + b)}
    constants = spec.flow_locals()
    assert {k: constants[k].hex() for k in expected} == {
        k: float(v).hex() for k, v in expected.items()
    }

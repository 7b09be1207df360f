"""Shape invariance: the same family at a shifted parameter point as an
oracle for the levels and the recurrence at the first.

Each family is shape invariant under a parameter shift lambda -> lambda +
delta with a constant kappa: pt (g, h) -> (g + 1, h + 1) with kappa 1, do
a -> a + 1/2 with kappa 1, aw a_i -> q^{1/2} a_i with kappa 1/q (ROADMAP
item 29).  Two statements follow, each read from the library's `energy` and
`recurrence_coefficients` at both points and from nothing else:

* the spectrum, E_n(lambda) = E_1(lambda) + kappa E_{n-1}(lambda + delta);
* the forward shift of P_n, which carries P_n at lambda to P_{n-1} at
  lambda + delta (KLS 9.8, 9.7 and 14.1):
  - pt, in eta = cos 2x: dP_n/deta = ((n + g + h) / 2) P_{n-1}(eta; g + 1, h + 1);
  - do: P_n(x + i/2) - P_n(x - i/2) = 2i P_{n-1}(x; a + 1/2);
  - aw, with eta(z) = (z + 1/z) / 2: P_n(eta(q^{1/2} z)) - P_n(eta(q^{-1/2} z))
    = -q^{-n/2} (1 - q^n) (1 - a1 a2 a3 a4 q^{n-1}) (z - 1/z) P_{n-1}(eta(z); q^{1/2} a_i).

The forward shift fixes the normalisation of every P_n, so it sees a
defect in A_n or C_n, including the product-preserving A_n (1 + e), C_{n+1}
/ (1 + e) that no operator check sees (ROADMAP item 6).  The P_n come from
the three-term recurrence run here at complex points, since `eval_all`
takes real points only; pt's dP_n/deta from the recurrence differentiated.

The systems are seeded draws from the sweep's ordinary boxes (pt g, h in
[0.6, 4], do a in [0.1, 90], aw a_i in (-0.9, 0.9) and q in (0.05, 0.95))
with each box's corners and the reference systems, at n = 1 .. 30.  Over
800 such draws the spectrum statement read at most 2.0e-15 and the forward
shift 1.3e-12 (pt; aw 3.1e-13, do 1.9e-15), both growing with n; the box
corners read less.  A planted x (1 + 1e-6) reads 5e-8 or more.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import sincoord as sc

from conftest import empty_caches

N_MAX = 30
SPECTRUM_TOLERANCE = 1e-14
SHIFT_TOLERANCE = 1e-11

REFERENCE = [sc.PoschlTeller(1.3, 2.1), sc.DeformedOscillator(1.3),
             sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)]


def ordinary_systems(seed=29, per_family=8):
    rng = np.random.default_rng(seed)
    specs = list(REFERENCE)
    specs += [sc.PoschlTeller(g, h) for g, h in itertools.product((0.6, 4.0), repeat=2)]
    specs += [sc.PoschlTeller(*rng.uniform(0.6, 4.0, 2).tolist()) for _ in range(per_family)]
    specs += [sc.DeformedOscillator(a) for a in (0.1, 90.0)]
    specs += [sc.DeformedOscillator(a) for a in rng.uniform(0.1, 90.0, per_family).tolist()]
    for q in (0.05, 0.95):
        for signs in itertools.product((0.899, -0.899), repeat=4):
            if math.prod(signs) < q:
                specs.append(sc.AskeyWilson(*signs, q=q))
    drawn = 0
    while drawn < per_family:
        a = rng.uniform(-0.9, 0.9, 4).tolist()
        q = float(rng.uniform(0.05, 0.95))
        if math.prod(a) < q:
            specs.append(sc.AskeyWilson(*a, q=q))
            drawn += 1
    return specs


SYSTEMS = ordinary_systems()


def shifted(spec):
    """The family at lambda + delta, and kappa."""
    if isinstance(spec, sc.PoschlTeller):
        return sc.PoschlTeller(spec.g + 1.0, spec.h + 1.0), 1.0
    if isinstance(spec, sc.DeformedOscillator):
        return sc.DeformedOscillator(spec.a + 0.5), 1.0
    root = math.sqrt(spec.q)
    return sc.AskeyWilson(*(root * a for a in spec.params), q=spec.q), 1.0 / spec.q


def recurrence_values(spec, n_max, points):
    """P_0 .. P_{n_max} and their derivatives at complex points, from the
    family's recurrence coefficients: P_{n+1} = ((x - B_n) P_n - C_n P_{n-1}) / A_n."""
    a_coef, b_coef, c_coef = spec.recurrence_coefficients()
    degrees = np.arange(n_max)
    a, b = np.broadcast_to(a_coef(degrees), n_max), np.broadcast_to(b_coef(degrees), n_max)
    c = np.concatenate(([0.0], np.broadcast_to(c_coef(degrees[1:]), n_max - 1)))
    x = np.asarray(points, dtype=complex)
    values, slopes = [np.ones_like(x)], [np.zeros_like(x)]
    for n in range(n_max):
        below, slope_below = (values[n - 1], slopes[n - 1]) if n else (0.0, 0.0)
        values.append(((x - b[n]) * values[n] - c[n] * below) / a[n])
        slopes.append((values[n] + (x - b[n]) * slopes[n] - c[n] * slope_below) / a[n])
    return np.array(values), np.array(slopes)


def spectrum_residual(spec):
    """max over n of |E_n - E_1 - kappa E_{n-1}(lambda + delta)| / |E_n|."""
    up, kappa = shifted(spec)
    n = np.arange(1, N_MAX + 1)
    levels = spec.energy(n)
    return float(np.max(np.abs(levels - spec.energy(1) - kappa * up.energy(n - 1)) / levels))


def shift_sides(spec):
    """The two sides of the forward shift for n = 1 .. N_MAX at nine points,
    shape (N_MAX, 9) each."""
    up, _ = shifted(spec)
    n = np.arange(1, N_MAX + 1)[:, None]
    lowered = lambda points: recurrence_values(up, N_MAX - 1, points)[0]
    if isinstance(spec, sc.PoschlTeller):
        eta = np.cos(2.0 * np.linspace(0.1, 1.45, 9))
        slopes = recurrence_values(spec, N_MAX, eta)[1][1:]
        return slopes, (n + spec.g + spec.h) / 2.0 * lowered(eta)
    if isinstance(spec, sc.DeformedOscillator):
        x = np.linspace(-2.0, 2.0, 9)
        values = lambda points: recurrence_values(spec, N_MAX, points)[0][1:]
        return values(x + 0.5j) - values(x - 0.5j), 2j * lowered(x)
    q, root = spec.q, math.sqrt(spec.q)
    z = np.exp(1j * np.linspace(0.15, 3.0, 9))
    eta = lambda w: (w + 1.0 / w) / 2.0
    values = lambda points: recurrence_values(spec, N_MAX, points)[0][1:]
    factor = -(q ** (-n / 2.0)) * (1.0 - q**n) * (1.0 - math.prod(spec.params) * q ** (n - 1))
    return values(eta(root * z)) - values(eta(z / root)), factor * (z - 1.0 / z) * lowered(eta(z))


def shift_residual(spec):
    """max over n of the largest |lhs - rhs| over the points, relative to
    the larger side's largest magnitude at that n."""
    lhs, rhs = shift_sides(spec)
    scale = np.maximum(np.max(np.abs(lhs), axis=1), np.max(np.abs(rhs), axis=1))
    return float(np.max(np.max(np.abs(lhs - rhs), axis=1) / scale))


@pytest.mark.parametrize("spec", SYSTEMS, ids=str)
def test_spectrum_is_shape_invariant(spec):
    assert spectrum_residual(spec) <= SPECTRUM_TOLERANCE


@pytest.mark.parametrize("spec", SYSTEMS, ids=str)
def test_forward_shift_lowers_the_degree_at_the_shifted_point(spec):
    assert shift_residual(spec) <= SHIFT_TOLERANCE


PLANTS = {
    "A": (1.0 + 1e-6, 1.0),
    "C": (1.0, 1.0 + 1e-6),
    # A_n (1 + e) with C_{n+1} / (1 + e): every product A_n C_{n+1} kept
    "A and C, product kept": (1.0 + 1e-6, 1.0 / (1.0 + 1e-6)),
}


@pytest.fixture
def planted(monkeypatch):
    """planted(spec, a_factor, c_factor): a fresh copy of spec whose family
    scales A_n and C_n at every n and every parameter point."""

    def plant(spec, a_factor, c_factor):
        family = type(spec)
        coefficients = vars(family)["recurrence_coefficients"]

        def recurrence_coefficients(self):
            a_coef, b_coef, c_coef = coefficients(self)
            return (lambda n: a_coef(n) * a_factor, b_coef, lambda n: c_coef(n) * c_factor)

        monkeypatch.setattr(family, "recurrence_coefficients", recurrence_coefficients)
        empty_caches()
        return dataclasses.replace(spec)

    yield plant
    empty_caches()


@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("spec", REFERENCE, ids=["pt", "do", "aw"])
def test_a_planted_normalisation_defect_fails_the_forward_shift(planted, spec, plant):
    assert shift_residual(planted(spec, *PLANTS[plant])) > SHIFT_TOLERANCE

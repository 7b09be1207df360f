"""The three solvable families, each described in one place.

Each system carries a "sinusoidal" coordinate eta(x) whose nested commutator
with the Hamiltonian closes on eta and [H, eta] with coefficients that are
low-degree polynomials in H.  Only the spectrum, the coordinate map and
those coefficient polynomials differ between the families, so each family is
one frozen dataclass of its parameters that carries everything the other
modules need to know about it:

* its parameter ranges, checked once on construction (`__post_init__`
  raises ParameterOutOfRange, also from `dataclasses.replace`), so no
  instance lies outside them and each is a float; the spectrum `energy(n)`;
* `closure_polynomials()` (R0, R1, R-1) and
  `classical_closure()` (R0, R-1 of the double Poisson bracket);
* `recurrence_coefficients()`: A_n, B_n, C_n of the eigenpolynomials;
* the coordinate map: `domain`, `eta`, `deta_dx`, `d2eta_dx2`;
* the ground-state `density` and its `quadrature_nodes`, a trapezoid-type
  rule in the family's own variable;
* the classical Hamiltonian, written once as three blocks of statements
  over X, P and the names of `flow_locals()`: `flow_statements` (dH/dx,
  dH/dp), `energy_statements` (H) and `second_statements` (d2H/dp2,
  d2H/dpdx); aw's complex potential is written in real arithmetic as a
  product of two pairs of factors.  `classical.compile_flow` turns them
  into `flow.terms` (H with its first and second partials) and the RK4
  `flow.loop`, on first use of `flow`, once per system;
* the phase-space `sample_box`;
* per-check default `tolerances` and `relative_residuals`, the residual
  mode (per-column relative rather than absolute) of the matrix checks;
* the CLI `tag` and the suite defaults `level_cap`, `heisenberg_n` and
  `coherent_lambda` (the parameter dict is the dataclass's own fields).

`energy(n)` and the A, B, C functions take an int level index or an int
array of them, with the expression written once for both, so a caller gets
every level of a truncation from one call; the array and the scalar forms
round alike.  aw takes each power q^k from Python's float pow, one call per
exponent (`AskeyWilson._q_pow`): numpy's vectorised power differs from it in
the last bit for some (q, k).

The other modules are written once against these members.  This module also
owns the closure polynomials as data and the two frequency functions
alpha_pm(E) built from them.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar, Union

import numpy as np

from . import special
from .errors import (
    ComplexFrequencies,
    EvaluationDomain,
    ParameterOutOfRange,
    QuadratureNotConverged,
)
from .report import CheckReport, make_report


class HPoly(tuple):
    """Polynomial in the Hamiltonian: the tuple of its coefficients in
    increasing degree, evaluated by Horner's rule from 0.0."""

    __slots__ = ()

    def __call__(self, energy):
        acc = 0.0
        for c in reversed(self):
            acc = acc * energy + c
        return acc


class _CompiledFlow:
    """The classical `flow` of a family (`classical.CompiledFlow`: `terms`
    and `loop`), compiled from its flow statements by
    `classical.compile_flow` on first use and kept on the instance (outside
    the dataclass fields), so that a system compiles it once however many
    states it flows."""

    @cached_property
    def flow(self):
        from .classical import compile_flow  # classical imports this module

        return compile_flow(self)


@dataclass(frozen=True)
class PoschlTeller(_CompiledFlow):
    """Trigonometric Poschl-Teller well on (0, pi/2) with couplings g, h > 0."""

    g: float
    h: float

    tag: ClassVar[str] = "pt"
    domain: ClassVar[tuple[float, float]] = (0.0, 0.5 * math.pi)
    sample_box: ClassVar[tuple[tuple[float, float], ...]] = ((0.35, 1.2), (-1.2, 1.2))
    tolerances: ClassVar[dict[str, float]] = {
        "ladder_action": 1e-10,
        "two_commutator": 1e-10,
        "ground_state": 1e-10,
        "heisenberg_evolution": 1e-10,
    }
    relative_residuals: ClassVar[bool] = False
    level_cap: ClassVar[float] = math.inf
    heisenberg_n: ClassVar[int] = 30
    coherent_lambda: ClassVar[complex] = 0.2

    @property
    def alpha(self) -> float:
        return self.g - 0.5

    @property
    def beta(self) -> float:
        return self.h - 0.5

    def __post_init__(self) -> None:
        _require_fields(self, ("g", "h"), 0.0)
        top = 0.5 * math.sqrt(sys.float_info.max)  # 4(g + h)^2 overflows above it
        if not self.g + self.h <= top:
            raise ParameterOutOfRange(
                f"g + h must be finite and at most {top:.6g}, got g={self.g}, h={self.h}"
            )

    def energy(self, n):
        return 2.0 * n * (n + self.g + self.h)

    def closure_polynomials(self) -> tuple[HPoly, HPoly, HPoly]:
        shift = 0.5 * (self.g + self.h) ** 2  # H' = H + shift
        return (
            HPoly((8.0 * shift - 4.0, 8.0)),
            HPoly((4.0,)),
            HPoly((4.0 * (self.alpha**2 - self.beta**2),)),
        )

    def classical_closure(self) -> tuple[HPoly, HPoly]:
        g, h = self.g, self.h
        return HPoly((4.0 * (g + h) ** 2, 8.0)), HPoly((4.0 * (g**2 - h**2),))

    def recurrence_coefficients(self):
        """Jacobi polynomials P^(alpha, beta) in eta = cos 2x."""
        al, be = self.alpha, self.beta

        def a_coef(n):
            s = 2.0 * n + al + be
            return 2.0 * (n + 1) * (n + al + be + 1) / ((s + 1) * (s + 2))

        def b_coef(n):
            # n = 0 takes the limit form: the generic one is 0/0 there when
            # al + be = 0, so it is formed at n >= 1 only
            s = 2.0 * np.maximum(n, 1) + al + be
            generic = (be * be - al * al) / (s * (s + 2.0))
            return np.where(n == 0, (be - al) / (al + be + 2.0), generic)[()]

        def c_coef(n):
            s = 2.0 * n + al + be
            return 2.0 * (n + al) * (n + be) / (s * (s + 1.0))

        return a_coef, b_coef, c_coef

    def eta(self, x):
        return np.cos(2.0 * np.asarray(x, dtype=float))

    def deta_dx(self, x):
        return -2.0 * np.sin(2.0 * np.asarray(x, dtype=float))

    def d2eta_dx2(self, x):
        return -4.0 * np.cos(2.0 * np.asarray(x, dtype=float))

    def density(self, x):
        xs = np.asarray(x, dtype=float)
        require_inside(self, xs)
        return np.sin(xs) ** (2.0 * self.g) * np.cos(xs) ** (2.0 * self.h)

    def quadrature_nodes(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Tanh-sinh nodes and weights on (0, pi/2) (Takahasi & Mori 1974).

        x = (pi/4)(1 + tanh((pi/2) sinh t)) turns the endpoint powers
        x^(2g), (pi/2 - x)^(2h) into double-exponential decay in t, so the
        trapezoid sum in t converges exponentially for every g, h > 0.  The
        step shrinks with the degree of P_n^2 and with the peak width
        1/sqrt(g + h) of the density, so that even the rule at twice the
        step is at rounding level.  At |t| = 3.1 the outer nodes sit about
        1e-15 from the walls, still inside them in double precision.
        """
        step = 1.0 / math.ceil(24.0 + 2.0 * n_max + 8.0 * math.sqrt(self.g + self.h))
        reach = math.floor(3.1 / step)
        t = _grid(step, -reach, reach)
        u = 0.5 * math.pi * np.sinh(t)
        x = 0.5 * math.pi / (1.0 + np.exp(-2.0 * u))
        return x, step * (0.125 * math.pi**2) * np.cosh(t) / np.cosh(u) ** 2

    # H in its tan form, the partials in sin/cos, so that the stages skip
    # the tangent
    flow_statements: ClassVar[str] = """
        sx, cx = sin(X), cos(X)
        v = g * cx / sx - h * sx / cx
        dv = -g / (sx * sx) - h / (cx * cx)
        KX, KP = v * dv, P
    """
    energy_statements: ClassVar[str] = """
        t = tan(X)
        u = g / t - h * t
        E = 0.5 * P * P + 0.5 * u * u
    """
    second_statements: ClassVar[str] = """
        D2P2, D2PDX = 1.0, 0.0
    """

    def flow_locals(self) -> dict[str, object]:
        return {"g": self.g, "h": self.h, "sin": math.sin, "cos": math.cos, "tan": math.tan}


@dataclass(frozen=True)
class DeformedOscillator(_CompiledFlow):
    """Shift-operator deformation of the harmonic oscillator, parameter a > 0.

    Its spectrum is exactly equi-spaced and its eigenpolynomials are the
    Meixner-Pollaczek family at phase pi/2.
    """

    a: float

    tag: ClassVar[str] = "do"
    domain: ClassVar[tuple[float, float]] = (-math.inf, math.inf)
    sample_box: ClassVar[tuple[tuple[float, float], ...]] = ((-1.5, 1.5), (-1.0, 1.0))
    tolerances: ClassVar[dict[str, float]] = {
        "ladder_action": 1e-10,
        "two_commutator": 1e-13,
        "ground_state": 1e-13,
        "heisenberg_evolution": 1e-12,
    }
    relative_residuals: ClassVar[bool] = False
    level_cap: ClassVar[float] = math.inf
    heisenberg_n: ClassVar[int] = 30
    coherent_lambda: ClassVar[complex] = 0.3

    def __post_init__(self) -> None:
        _require_fields(self, ("a",), 0.0)
        top = 0.5 * sys.float_info.max  # the coefficient 2a overflows above it
        if not self.a <= top:
            raise ParameterOutOfRange(f"a must be finite and at most {top:.6g}, got a={self.a}")

    def energy(self, n):
        return 1.0 * n

    def closure_polynomials(self) -> tuple[HPoly, HPoly, HPoly]:
        return HPoly((1.0,)), HPoly((0.0,)), HPoly((0.0,))

    def classical_closure(self) -> tuple[HPoly, HPoly]:
        return HPoly((1.0,)), HPoly((0.0,))

    def recurrence_coefficients(self):
        """Meixner-Pollaczek polynomials at phase pi/2 in eta = x."""
        a = self.a
        return (
            lambda n: 0.5 * (n + 1),
            lambda n: 0.0 * n,
            lambda n: 0.5 * ((n - 1) + 2.0 * a),  # exact at n = 1
        )

    def eta(self, x):
        return np.asarray(x, dtype=float) + 0.0

    def deta_dx(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def d2eta_dx2(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def density(self, x):
        xs = np.asarray(x, dtype=float)
        require_inside(self, xs)
        return special.gamma_abs_sq(self.a, xs)

    def quadrature_nodes(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid nodes and weights on [-L, L] (Trefethen & Weideman 2014).

        The weight alone decays like exp(-pi |x|), but P_n^2 grows like
        (2x)^(2n) / n!^2, so the cutoff L has to beat the product of the two.
        The density is analytic in the strip |Im x| < a (the first poles of
        Gamma(a +- ix)), so the trapezoid error falls like exp(-2 pi a / step);
        step min(0.1, a/10) keeps even the rule at twice the step within
        about 1e-11.  L is the first of the candidates 12, 14, ..., 218 where
        the weight times the polynomial growth is below 1e-26, else 220; the
        weight is evaluated at all candidates in one array call.
        """
        target = math.log(1e-26)
        poly_growth = lambda L: 2.0 * (n_max * math.log(2.0 * L) - math.lgamma(n_max + 1))
        halves = np.arange(12.0, 220.0, 2.0)
        weights = special.gamma_abs_sq(self.a, halves)
        for half, w in zip(halves.tolist(), weights.tolist()):
            if w == 0.0 or math.log(w) + poly_growth(half) < target:
                break
        else:
            half = 220.0
        step = min(0.1, self.a / 10.0)
        if step == 0.0 or half / step == math.inf:
            # a below about 1e-307 leaves a step too small to count the nodes
            raise QuadratureNotConverged(
                f"the quadrature rule of step {step!r} on [-{half}, {half}] needs "
                f"more than the {_MAX_NODES} nodes allowed"
            )
        reach = math.ceil(half / step)
        x = _grid(step, -reach, reach)
        return x, np.full(x.shape, step)

    # H = sqrt(a^2 + x^2) cosh p - a
    flow_statements: ClassVar[str] = """
        r = hypot(a, X)
        c = cosh(P)
        KX, KP = X * c / r, r * sinh(P)
    """
    energy_statements: ClassVar[str] = """
        E = r * c - a
    """
    second_statements: ClassVar[str] = """
        D2P2, D2PDX = r * c, X * sinh(P) / r
    """

    def flow_locals(self) -> dict[str, object]:
        return {"a": self.a, "hypot": math.hypot, "cosh": math.cosh, "sinh": math.sinh}


@dataclass(frozen=True)
class AskeyWilson(_CompiledFlow):
    """Askey-Wilson system: four parameters a1..a4 on top of the base q."""

    a1: float
    a2: float
    a3: float
    a4: float
    q: float

    tag: ClassVar[str] = "aw"
    domain: ClassVar[tuple[float, float]] = (0.0, math.pi)
    sample_box: ClassVar[tuple[tuple[float, float], ...]] = ((0.7, 2.4), (-0.9, 0.9))
    tolerances: ClassVar[dict[str, float]] = {
        "ladder_action": 1e-9,
        "two_commutator": 1e-10,
        "ground_state": 1e-10,
        "heisenberg_evolution": 1e-9,
    }
    relative_residuals: ClassVar[bool] = True
    # phases grow like E_n * t; 20 levels keeps them inside the
    # double-precision budget of the 1e-9 criterion
    heisenberg_n: ClassVar[int] = 20
    coherent_lambda: ClassVar[complex] = 0.2

    # Constants of the parameters, computed on first use and kept on the
    # instance (outside the dataclass fields, the report's `params`).
    @cached_property
    def params(self) -> tuple[float, float, float, float]:
        return (self.a1, self.a2, self.a3, self.a4)

    @property
    def b1(self) -> float:
        return self.a1 + self.a2 + self.a3 + self.a4

    @property
    def b3(self) -> float:
        a1, a2, a3, a4 = self.params
        return a1 * a2 * a3 + a1 * a2 * a4 + a1 * a3 * a4 + a2 * a3 * a4

    @property
    def b4(self) -> float:
        return self.a1 * self.a2 * self.a3 * self.a4

    @cached_property
    def log_q(self) -> float:
        return math.log(self.q)

    @property
    def level_cap(self) -> int:
        """Largest level index checked for the spectrum.

        q**-n grows exponentially; 25 levels at q = 0.3 mark the headroom we
        allow in double precision, and smaller q gets proportionally fewer.
        """
        if self.q >= 0.3:
            return 25
        return max(1, int(25.0 * math.log(1.0 / 0.3) / math.log(1.0 / self.q)))

    def __post_init__(self) -> None:
        _require_fields(self, ("q",), 0.0, 1.0)
        _require_fields(self, ("a1", "a2", "a3", "a4"), -1.0, 1.0)
        if not self.b4 < self.q:
            raise ParameterOutOfRange(
                f"a1*a2*a3*a4 = {self.b4} must stay below q = {self.q}"
            )

    def _q_pow(self, k):
        """q ** k for an int exponent k or an int array of them; inf where
        the power overflows.

        Each power comes from Python's float pow, one call per exponent:
        numpy's vectorised power differs from it in the last bit for some
        (q, k), and the levels and coefficients must not depend on whether
        one level or an array of them was asked for.
        """
        ks, q = np.asarray(k), self.q
        powers = []
        for j in ks.ravel().tolist():
            try:
                powers.append(q ** j)
            except OverflowError:  # q ** -n at small q
                powers.append(math.inf)
        if ks.ndim == 0:
            return powers[0]
        return np.array(powers).reshape(ks.shape)

    def energy(self, n):
        qp = self._q_pow
        return (qp(-n) - 1.0) * (1.0 - self.b4 * qp(n - 1)) / 2.0

    def closure_polynomials(self) -> tuple[HPoly, HPoly, HPoly]:
        q, b1, b3, b4 = self.q, self.b1, self.b3, self.b4
        kappa = q * (1.0 / q - 1.0) ** 2
        shift = 0.5 * (1.0 + b4 / q)  # H' = H + shift
        r0 = HPoly(
            (
                kappa * (shift**2 - (1.0 + 1.0 / q) ** 2 * b4 / 4.0),
                2.0 * kappa * shift,
                kappa,
            )
        )
        r1 = HPoly((kappa * shift, kappa))
        rm1 = HPoly(
            (
                -kappa * (1.0 - b4 / q**2) * (b1 - b3) / 8.0,
                -kappa * (b1 + b3 / q) / 4.0,
            )
        )
        return r0, r1, rm1

    def classical_closure(self) -> tuple[HPoly, HPoly]:
        gsq, b1, b3, b4 = self.log_q**2, self.b1, self.b3, self.b4
        c1 = 1.0 + b4
        c2 = (1.0 - b4) ** 2 / 4.0
        c3 = (b1 + b3) / 4.0
        c4 = (1.0 - b4) * (b1 - b3) / 8.0
        return HPoly((gsq * c2, gsq * c1, gsq)), HPoly((-gsq * c4, -gsq * c3))

    def recurrence_coefficients(self):
        """Askey-Wilson polynomials in eta = cos x.

        B_n is the form of KLS (14.1.4) written symmetric in a1..a4, with no
        parameter singled out and no 1/a: with Q = q^n and e1, e3, e4 the
        elementary symmetric functions of a1..a4,
        2 B_n = -Q [(e1 q + e3)(q + e4 Q^2) - Q (q + 1)(e1 e4 + e3 q)]
                / ((q^2 - e4 Q^2)(e4 Q^2 - 1)).
        e1, e3 and e4 are exact integer ratios over one common denominator
        of the parameters (`_integer_ratios`), each rounded once, and never
        taken from b1, b3, b4: the closure polynomials are built from those,
        and the checks must not share a number with them.
        """
        qp, b4, q = self._q_pow, self.b4, self.q
        a1, a2, a3, a4 = self.params
        pair_products = (a1 * a2, a1 * a3, a1 * a4, a2 * a3, a2 * a4, a3 * a4)
        (n1, n2, n3, n4), d = _integer_ratios(self.params)
        e1 = (n1 + n2 + n3 + n4) / d
        e3 = (n1 * n2 * (n3 + n4) + n3 * n4 * (n1 + n2)) / d**3
        e4 = n1 * n2 * n3 * n4 / d**4

        def a_coef(n):
            return (1.0 - b4 * qp(n - 1)) / (
                2.0 * (1.0 - b4 * qp(2 * n - 1)) * (1.0 - b4 * qp(2 * n))
            )

        def c_coef(n):
            num = 1.0 - qp(n)
            q_down = qp(n - 1)
            for p in pair_products:
                num = num * (1.0 - p * q_down)
            return num / (
                2.0 * (1.0 - b4 * qp(2 * n - 2)) * (1.0 - b4 * qp(2 * n - 1))
            )

        def b_coef(n):
            big_q = qp(n)
            e4_q2 = e4 * big_q * big_q
            return (
                -0.5
                * big_q
                * ((e1 * q + e3) * (q + e4_q2) - big_q * (q + 1.0) * (e1 * e4 + e3 * q))
                / ((q * q - e4_q2) * (e4_q2 - 1.0))
            )

        return a_coef, b_coef, c_coef

    def eta(self, x):
        return np.cos(np.asarray(x, dtype=float))

    def deta_dx(self, x):
        return -np.sin(np.asarray(x, dtype=float))

    def d2eta_dx2(self, x):
        return -np.cos(np.asarray(x, dtype=float))

    def density(self, x):
        """|(e^(2ix); q)_inf|^2 / prod_j |(a_j e^(ix); q)_inf|^2, in real
        arithmetic.

        For real c, |1 - c q^k e^(i theta)|^2 = (1 - |c| q^k)^2 + 4 |c| q^k t
        with t = sin^2(theta / 2) for c >= 0 and cos^2(theta / 2) for c < 0.
        Both terms are non-negative, so no factor cancels.  The numerator
        has c = 1 and theta = 2x, so t = sin^2 x; a zero a_j has no factor.
        A block of factors is one matrix product of the columns
        ((1 - |c| q^k)^2, |c| q^k) with the rows (1, 4t).  The ratio of the
        numerator's factor to the product of the a_j factors is formed for
        each k, in place, and multiplied over k in blocks by
        `special.q_product` until q^k < 5e-18, where every factor is one to
        double precision.
        """
        xs = np.asarray(x, dtype=float)
        require_inside(self, xs)
        flat = xs.ravel()
        ones = np.ones_like(flat)
        num_rows = np.stack((ones, 4.0 * np.sin(flat) ** 2))
        sin_rows = np.stack((ones, 4.0 * np.sin(0.5 * flat) ** 2))
        cos_rows = np.stack((ones, 4.0 * np.cos(0.5 * flat) ** 2))
        terms = [(abs(a), sin_rows if a > 0 else cos_rows) for a in self.params if a]
        scratch = None

        def factors(rq, rows, out):
            np.matmul(np.hstack(((1.0 - rq) ** 2, rq)), rows, out=out)

        def fill(qks, out):
            nonlocal scratch
            if scratch is None:  # the first block is the largest
                scratch = np.empty_like(out)
            den = scratch[: len(qks)]
            den.fill(1.0)
            for r, rows in terms:
                factors(r * qks, rows, out)
                den *= out
            factors(qks, num_rows, out)
            out /= den

        rho = special.q_product(self.q, 5e-18, flat.size, fill)
        return float(rho[0]) if xs.ndim == 0 else rho.reshape(xs.shape)

    def quadrature_nodes(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Periodic trapezoid nodes k pi / m, 0 < k < m, and weights pi / m.

        The density is even and 2 pi-periodic in x and vanishes at 0 and pi,
        so these nodes are the 2m-point trapezoid rule over a full period,
        whose error falls like exp(-(m - 2 n_max) d) (Trefethen & Weideman
        2014).  2 n_max is the top frequency of P_n^2, and d = -ln max|a_i|
        is the half-width of the strip where the density is analytic: its
        nearest poles sit where a_i e^(+-ix) = 1.  The theta-function
        numerator adds a term in 1/sqrt(ln 1/q).  m is sized so that the
        rule on every other node is already at rounding level.
        """
        top = max(abs(v) for v in self.params)
        strip = 36.0 / -math.log(top) if top > 0.0 else 0.0
        m = 2 * math.ceil(n_max + 0.5 * strip + 13.0 / math.sqrt(-self.log_q))
        x = _grid(math.pi / m, 1, m - 1)
        return x, np.full(x.shape, math.pi / m)

    # H = |V| cosh(p ln q) - Re V with
    # V = (1 - a1 z)(1 - a2 z)(1 - a3 z)(1 - a4 z) / (1 - z^2)^2, z = exp(ix).
    # With c = cos x and s = sin x, a pair of factors is
    # P = (1 - a z)(1 - b z) / z = (1 + ab) c - (a + b) + i (ab - 1) s, and
    # (1 - z^2)^2 = -4 s^2 z^2, so V = -P12 P34 / (4 s^2).  Re P is formed as
    # (1 - a)(1 - b) - (1 + ab) s^2 / (1 + c) for c > 0 and as
    # (1 + ab) s^2 / (1 - c) - (1 + a)(1 + b) otherwise, which does not cancel
    # near the walls when a, b are close to +-1.  The derivatives of |V| and
    # Re V follow from the product rule over the two pairs; the stages never
    # form Re V, and the second partials come from the same pair terms.
    flow_statements: ClassVar[str] = """
        s, c = sin(X), cos(X)
        ss = s * s
        if c > 0.0:
            t = ss / (1.0 + c)  # 1 - c
            re12, re34 = e12 - u12 * t, e34 - u34 * t
        else:
            t = ss / (1.0 - c)  # 1 + c
            re12, re34 = u12 * t - f12, u34 * t - f34
        # |P|^2 and its derivative over 2 s, per pair
        n12, n34 = re12 * re12 + m12 * ss, re34 * re34 + m34 * ss
        h12, h34 = m12 * c - u12 * re12, m34 * c - u34 * re34
        r = sqrt(n12 * n34)
        q4 = 0.25 / ss
        q4s = q4 / s
        w = r * q4  # |V|
        wx = (ss * (h12 * n34 + h34 * n12) - 2.0 * c * n12 * n34) * q4s / r
        gp = gam * P
        ch = cosh(gp)
        prod = re12 * re34
        vx = (ss * (u12 * re34 + u34 * re12) + 2.0 * c * prod) * q4s
        KX, KP = wx * ch - vx, gam * w * sinh(gp)
    """
    energy_statements: ClassVar[str] = """
        v = k - prod * q4  # Re V
        E = w * ch - v
    """
    second_statements: ClassVar[str] = """
        D2P2, D2PDX = gam * gam * w * ch, gam * wx * sinh(gp)
    """

    def flow_locals(self) -> dict[str, object]:
        """ln q, the math functions and the constants of the factor pairs
        (a1, a2) and (a3, a4) of V: for each pair (a, b), u = 1 + ab,
        m = (1 - ab)^2, e = (1 - a)(1 - b) and f = (1 + a)(1 + b); then
        k = (1 - a1 a2)(1 - a3 a4) / 4.

        Each constant is an exact integer ratio over one common denominator
        of the parameters (`_integer_ratios`), rounded once.  They are taken
        from a1..a4 and never from b1, b3, b4: the closure polynomials are
        built from those, and the flow oracle must not share a number with
        what it checks.
        """
        (n1, n2, n3, n4), d = _integer_ratios(self.params)
        d2 = d * d
        consts = {}
        for pair, a, b in (("12", n1, n2), ("34", n3, n4)):
            consts |= {
                "u" + pair: (d2 + a * b) / d2,
                "m" + pair: (d2 - a * b) ** 2 / (d2 * d2),
                "e" + pair: (d - a) * (d - b) / d2,
                "f" + pair: (d + a) * (d + b) / d2,
            }
        consts["k"] = (d2 - n1 * n2) * (d2 - n3 * n4) / (4 * d2 * d2)
        return {
            **consts,
            "gam": self.log_q,
            "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
            "cosh": math.cosh, "sinh": math.sinh,
        }


SystemSpec = Union[PoschlTeller, DeformedOscillator, AskeyWilson]

# Largest quadrature rule built; past it the rule is refused rather than
# allocated.
_MAX_NODES = 1 << 16

# Largest matrix dimension, spectrum length, coherent truncation and count
# of classical states; past it a request is refused before anything is
# allocated.  The heisenberg suite, the largest per level, takes about 630
# bytes a level, so the cap holds it near 330 MiB.
_MAX_SIZE = 1 << 19

# Results kept by each spec-keyed cache: an invocation asks about one system.
_CACHE_SIZE = 4


def _integer_ratios(values) -> tuple[list[int], int]:
    """Integer numerators of the floats `values` over one common
    denominator: the least common multiple of their `as_integer_ratio()`
    denominators, a power of two.

    A constant formed from the numerators in integer arithmetic is exact,
    and one int / int division rounds it correctly (CPython rounds a true
    division of ints to the nearest float), as `float(Fraction(...))` does.
    """
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _grid(step: float, first: int, last: int) -> np.ndarray:
    """The points step * k for k = first .. last."""
    nodes = last - first + 1
    if nodes > _MAX_NODES:
        # a Decimal: the count of do's rule at an a near 4e-306 is past float range
        from decimal import Decimal

        raise QuadratureNotConverged(
            f"the quadrature rule of step {step:.6g} needs {Decimal(nodes):.6g} nodes, "
            f"more than the {_MAX_NODES} allowed"
        )
    return step * np.arange(first, last + 1)


def require_size(name: str, value: int, low: int = 0, cap: float = _MAX_SIZE) -> None:
    """Raise ParameterOutOfRange unless the requested size `value` is an
    integer (a Python or numpy int) of at least `low` and within the `cap`;
    every size is checked here before any arithmetic on it."""
    try:
        operator.index(value)
    except TypeError:
        raise ParameterOutOfRange(f"{name} must be an integer, got {name}={value!r}") from None
    if value < low:
        raise ParameterOutOfRange(f"need {name} >= {low}, got {name}={value}")
    if value > cap:
        raise ParameterOutOfRange(f"{name}={value} exceeds the size cap {cap}")


def require_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """`value` as a float; raise ParameterOutOfRange, naming `name`, unless it
    is a finite real number (`numbers.Real`: not None, str, bytes, complex or
    an array) strictly inside (low, high).  Every real parameter is checked here."""
    if isinstance(value, numbers.Rational):  # exactly, so 10**400 is never converted
        finite = abs(value) <= sys.float_info.max
    else:  # at its own precision: a float32 is not compared with a bound cast to it
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    number = float(value) if finite else math.nan
    if not low < number < high:
        raise ParameterOutOfRange(
            f"{name} must be a real number in ({low:g}, {high:g}), got {name}={value!r}"
        )
    return number


def _require_fields(spec: SystemSpec, names, low: float, high: float = math.inf) -> None:
    """`require_real` on the fields `names` of a family, each kept as its float."""
    for name in names:
        object.__setattr__(spec, name, require_real(name, getattr(spec, name), low, high))


def require_samples(name: str, samples) -> np.ndarray:
    """The samples as a float vector: one number or a flat, non-empty
    sequence, each sample checked by `require_real`, so the first that is not
    a finite real number (NaN, inf, complex, str, None, `Decimal`) raises
    ParameterOutOfRange naming `name` and that sample."""
    raw = np.atleast_1d(np.asarray(samples, dtype=object))
    if raw.ndim != 1:
        raise ParameterOutOfRange(
            f"{name} samples must be a number or a flat sequence, got shape {raw.shape}"
        )
    if raw.size == 0:
        raise ParameterOutOfRange(f"need at least one {name} sample")
    return np.array([require_real(name, value) for value in raw.tolist()])


def _require_points(name: str, points) -> np.ndarray:
    """`points`, of any shape, as a float array; raise ParameterOutOfRange,
    naming `name`, for a dtype other than bool, integer or float, or for the
    first value that is not finite: one array test, as quadrature nodes pass here."""
    array = np.asarray(points)
    if array.dtype.kind not in "biuf":
        raise ParameterOutOfRange(f"{name} points must be real numbers, got dtype {array.dtype}")
    values = array.astype(float, copy=False)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ParameterOutOfRange(f"{name} points must be finite, got {name}={bad[0]}")
    return values


def require_inside(spec: SystemSpec, x, error: type[Exception] = EvaluationDomain) -> None:
    """Raise `error` unless x, a float or an array, lies strictly inside the
    open domain of the coordinate (NaN never does)."""
    lo, hi = spec.domain
    if not np.all((lo < x) & (x < hi)):
        raise error(f"x={x} lies outside the open domain ({lo}, {hi})")


# Levels formed per array call of `energy`: a request far past the level
# that overflows is refused without forming the levels beyond it.
_LEVEL_BLOCK = 4096


def energies(spec: SystemSpec, count: int) -> np.ndarray:
    """Levels 0 .. count-1 as a float array, from array calls of the
    family's `energy` (one up to 4096 levels); refuses the first level that
    overflows (aw's q ** -n at small q).  `count` is a size without the
    cap, as `check_spectrum_closure` asks for n_max + 2 levels."""
    require_size("count", count, cap=math.inf)
    levels = np.empty(count)
    for start in range(0, count, _LEVEL_BLOCK):
        block = spec.energy(np.arange(start, min(count, start + _LEVEL_BLOCK)))
        overflow = np.flatnonzero(block == math.inf)
        if overflow.size:
            level = start + int(overflow[0])
            raise ParameterOutOfRange(
                f"level E_{level} overflows double precision for {spec}"
            )
        levels[start : start + _LEVEL_BLOCK] = block
    return levels


@lru_cache(maxsize=_CACHE_SIZE)
def r_polynomials(spec: SystemSpec) -> tuple[HPoly, HPoly, HPoly]:
    """The closure coefficient polynomials (R0, R1, R-1)."""
    return spec.closure_polynomials()


@lru_cache(maxsize=_CACHE_SIZE)
def classical_r_polynomials(spec: SystemSpec) -> tuple[HPoly, HPoly]:
    """(R0, R-1) of the classical double Poisson bracket."""
    return spec.classical_closure()


def alpha_pm(spec: SystemSpec, e):
    """The two frequencies at energy e: roots of x^2 - R1(e) x - R0(e).

    e is a float, an array or a sequence of finite real energies
    (`_require_points`).  Returns (alpha_plus, alpha_minus) with alpha_plus
    > alpha_minus; by construction their sum is R1(e) and their product is
    -R0(e).
    """
    e = _require_points("e", e)
    r0, r1, _ = r_polynomials(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        r0v, r1v = r0(e), r1(e)
    return frequency_pair(r0v, r1v, e, levels=False)


def frequency_pair(r0v, r1v, e, levels=True):
    """(alpha_plus, alpha_minus) from R0(e) and R1(e), for callers that
    already hold those values; see `alpha_pm`.  The first energy whose pair
    overflows (aw at small q) is refused, named as level E_k when the
    energies are the levels from E_0 on and by its value otherwise."""
    with np.errstate(over="ignore", invalid="ignore"):
        disc = r1v * r1v + 4.0 * r0v
    bad = np.flatnonzero(~(np.isfinite(disc) & (disc >= 0.0)))
    if bad.size:
        first, value = bad[0], np.ravel(disc)[bad[0]]
        if value < 0.0:
            raise ComplexFrequencies(
                f"discriminant {value} < 0 at energy {np.ravel(e)[first]}: "
                "no real frequency pair"
            )
        where = f"level E_{first}" if levels else f"energy {np.ravel(e)[first]}"
        raise ParameterOutOfRange(f"the frequency pair at {where} overflows")
    root = np.sqrt(disc)
    return (0.5 * (r1v + root), 0.5 * (r1v - root))


def check_spectrum_closure(spec: SystemSpec, n_max: int) -> CheckReport:
    """Verify E_{n+1} - E_n = alpha_plus(E_n) and E_{n-1} - E_n = alpha_minus(E_n).

    Residuals are relative to max(1, |target level|).  n_max must stay
    within the family's double-precision `level_cap`.
    """
    require_size("n_max", n_max, 1)
    if n_max > spec.level_cap:
        raise ParameterOutOfRange(
            f"n_max={n_max} exceeds the double-precision cap {spec.level_cap} "
            f"of {spec}"
        )
    levels = energies(spec, n_max + 2)
    # E_{n+1}, E_n for n = 0 .. n_max; E_{n-1} for n = 1 .. n_max
    up, here, down = levels[1:], levels[:-1], levels[:n_max]
    r0, r1, _ = r_polynomials(spec)
    with np.errstate(over="ignore", invalid="ignore"):  # refused by frequency_pair
        r0v, r1v = r0(here), r1(here)
    ap, am = frequency_pair(r0v, r1v, here)
    plus = (up - here - ap, np.maximum(1.0, np.abs(up)))
    minus = (down - here[1:] - am[1:], np.maximum(1.0, np.abs(down)))
    max_plus, max_minus = (float(np.max(np.abs(d) / s)) for d, s in (plus, minus))
    return make_report(
        "spectrum_closure", [plus, minus], 1e-9,
        n_max=n_max, max_plus=max_plus, max_minus=max_minus,
    )

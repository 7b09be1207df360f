"""The documented-box sweep: random CLI invocations over the README's
ranges, in which every FAIL and every refusal has an owner.

A fixed numpy seed draws 40 systems per family.  Half of each family's
draws come from the box where ordinary use lies (pt g, h in [0.6, 4]; do a
in [0.1, 90] and real lambda in [0, 6]; aw a_i in (-0.9, 0.9) and q in
(0.05, 0.95)), half from the whole documented range: pt g, h log-uniform
with g + h <= sqrt(M) / 2, do a log-uniform in (0, M / 2] (M the largest
double), aw a_i uniform in (-1, 1) with q uniform in (0, 1) or log-uniform
in [1e-300, 1), and |lambda| log-uniform in [1e-300, 1e300] at a uniform
phase.  q within 1e-4 of 1, where aw's `ladder` takes seconds to minutes
before it refuses the quadrature, is drawn about once in 40,000 aw systems.
Each system runs `spectrum`, `ladder`, `heisenberg` and `coherent`
at their defaults (`coherent` with the drawn lambda) and `classical
--states 1 --tend 3`, whose span bounds the RK4 cost however long the
orbit's period (aw's grows without bound as q -> 1).

Every run must end in exit 0, 1 or 2, without a traceback or a warning,
and with stderr exactly one `error:` line when it exits 2 and empty
otherwise.  Every exit 1 or 2 must fall inside an owner: a region stated
in the inputs, the checks it may FAIL and the refusals it may raise, and
the ROADMAP item (or the README's list of refusals) that owns it.  A FAIL
or refusal that no owner names fails the test.  An item that mends its
region shrinks or deletes its owner here.
"""

import io
import json
import math
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple

import numpy as np

import sincoord as sc
from sincoord import cli

from conftest import empty_caches

BIG = sys.float_info.max
SYSTEMS_PER_FAMILY = 40
SUITES = ("spectrum", "ladder", "heisenberg", "coherent", "classical")
SUITE_FLAGS = {"classical": ("--states", "1", "--tend", "3")}
# the matrix dimension each operator suite builds at its defaults
SUITE_N = {"ladder": lambda spec: 30, "heisenberg": lambda spec: spec.heisenberg_n,
           "coherent": lambda spec: 64}
# a step that leaves the domain, or whose H or partials are not finite
FLOW_REFUSALS = ("x=", "H or its partials are not finite")
QUADRATURE_REFUSALS = (
    "norms moved by", "quadrature produced", "the quadrature rule of step",
)


class Owner(NamedTuple):
    owner: str
    family: str
    suites: tuple
    region: Callable  # (spec, lam) -> bool, on the inputs only
    checks: tuple = ()  # checks the region may FAIL
    refusals: tuple = ()  # prefixes of the refusals it may raise


def _r0_not_positive(suite):
    """R0(E_n) <= 0 at a level of the suite's matrix (pt: g + h <= 1)."""

    def region(spec, lam):
        try:
            levels = sc.energies(spec, SUITE_N[suite](spec))
        except sc.ParameterOutOfRange:  # a level overflows: refused before R0
            return False
        with np.errstate(all="ignore"):
            return bool(np.any(~(sc.r_polynomials(spec)[0](levels) > 0.0)))

    return region


def _coefficients_overflow(spec, lam):
    """Some c_n = lam^n / (C_1 ... C_n) of the default truncation 60 leaves
    the double range, summed in logarithms."""
    if lam == 0.0:
        return False
    lowering = np.abs(sc.recurrence(spec).table("C", 61))  # C_1 .. C_60
    with np.errstate(divide="ignore"):
        logs = np.arange(1, 61) * math.log(abs(lam)) - np.cumsum(np.log(lowering))
    return bool(np.max(logs) > math.log(BIG))


OWNERS = (
    Owner("item 7: absolute tolerances on pt's large couplings",
          "pt", ("ladder",), lambda s, lam: s.g + s.h >= 200.0,
          checks=("two_commutator",)),
    Owner("item 12: pt's quadrature norms out of reach",
          "pt", ("ladder",), lambda s, lam: s.g + s.h >= 500.0,
          refusals=QUADRATURE_REFUSALS),
    Owner("item 13: pt's classical verdicts are the RK4 step's",
          "pt", ("classical",), lambda s, lam: True, refusals=FLOW_REFUSALS),
    Owner("item 12: do's quadrature rule below a 0.016 and norms from a 92",
          "do", ("ladder",), lambda s, lam: not 0.016 <= s.a < 92.0,
          refusals=QUADRATURE_REFUSALS),
    Owner("item 7: do's classical deviations are absolute at a large a",
          "do", ("classical",), lambda s, lam: s.a >= 1e9,
          checks=("classical_closed_vs_flow",)),
    Owner("item 18: do's float 1F1 reference at |lambda| >= 2.3",
          "do", ("coherent",), lambda s, lam: abs(lam) >= 2.3,
          checks=("coherent_1f1",), refusals=("1F1 series",)),
    Owner("item 1: aw's closure floor at small q",
          "aw", ("spectrum",), lambda s, lam: s.q < 1e-3,
          checks=("spectrum_closure",)),
    Owner("README: an aw system at small q whose levels, closure polynomials "
          "or frequency pair overflow",
          "aw", SUITES[:4], lambda s, lam: s.q < 0.01,
          refusals=("level E_", "R0, R1 or R-1 at level", "the frequency pair at level")),
    Owner("item 19: aw's Heisenberg phases outgrow the tolerance at small q",
          "aw", ("heisenberg",), lambda s, lam: s.q < 0.4,
          checks=("heisenberg_evolution",)),
    Owner("item 7: aw's classical flow at small q",
          "aw", ("classical",), lambda s, lam: s.q < 0.1, refusals=FLOW_REFUSALS),
    *(
        # the energy drift is the RK4 oracle's own error, in every family
        Owner("item 13: the classical oracle's energy drift is its own error",
              family, ("classical",), lambda s, lam: True,
              checks=("classical_energy_drift",), refusals=("energy moved by",))
        for family in ("pt", "do", "aw")
    ),
    *(
        Owner("item 5: R0(E_n) <= 0 on the truncated spectrum",
              family, (suite,), _r0_not_positive(suite),
              refusals=("R0(E_n) must be positive",))
        for family in ("pt", "aw")
        for suite in ("ladder", "heisenberg", "coherent")
    ),
    *(
        Owner("README: a --lambda whose coherent-state coefficients overflow",
              family, ("coherent",), _coefficients_overflow,
              refusals=("coefficient c_",))
        for family in ("pt", "do", "aw")
    ),
)


def _log_uniform(rng, low, high):
    return float(10.0 ** rng.uniform(math.log10(low), math.log10(high)))


def _pt(rng, core):
    if core:
        g, h = rng.uniform(0.6, 4.0, 2)
        return sc.PoschlTeller(float(g), float(h))
    while True:
        g, h = (_log_uniform(rng, 5e-324, math.sqrt(BIG) / 2) for _ in "gh")
        if g + h <= math.sqrt(BIG) / 2:
            return sc.PoschlTeller(g, h)


def _do(rng, core):
    return sc.DeformedOscillator(
        _log_uniform(rng, 0.1, 90.0) if core else _log_uniform(rng, 5e-324, BIG / 2)
    )


def _aw(rng, core):
    while True:
        if core:
            a, q = rng.uniform(-0.9, 0.9, 4), float(rng.uniform(0.05, 0.95))
        else:
            a = rng.uniform(-1.0, 1.0, 4)
            q = float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else _log_uniform(rng, 1e-300, 1.0)
        if 0.0 < q < 1.0 and float(np.prod(a)) < q:
            return sc.AskeyWilson(*map(float, a), q=q)


def _lambda(rng, core):
    if core:
        return complex(rng.uniform(0.0, 6.0))
    return _log_uniform(rng, 1e-300, 1e300) * complex(np.exp(1j * rng.uniform(0.0, 2 * math.pi)))


def _system_flags(spec):
    if isinstance(spec, sc.PoschlTeller):
        return ["--system", "pt", "--g", repr(spec.g), "--h", repr(spec.h)]
    if isinstance(spec, sc.DeformedOscillator):
        return ["--system", "do", "--a", repr(spec.a)]
    return ["--system", "aw", "--a=" + ",".join(map(repr, spec.params)), "--q", repr(spec.q)]


def _draws():
    rng = np.random.default_rng(20)
    for family, draw in (("pt", _pt), ("do", _do), ("aw", _aw)):
        for k in range(SYSTEMS_PER_FAMILY):
            core = k % 2 == 0
            yield family, draw(rng, core), _lambda(rng, core)


def _run(argv):
    """(exit code, stdout, stderr) of one in-process invocation from cold
    caches, which must record no warning; an exception other than
    SystemExit would be a traceback and propagates."""
    empty_caches()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(
        record=True
    ) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert caught == [], (argv, [str(w.message) for w in caught])
    return code, out.getvalue(), err.getvalue()


def _unowned(family, suite, spec, lam, code, out, err):
    """What of a run's FAILs and refusal no owner names, as text."""
    owners = [
        o for o in OWNERS
        if o.family == family and suite in o.suites and o.region(spec, lam)
    ]
    if code == 1:
        failing = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        return [name for name in failing if not any(name in o.checks for o in owners)]
    message = err.splitlines()[-1].removeprefix("error: ")
    return [] if any(message.startswith(o.refusals) for o in owners) else [message]


def test_every_fail_and_refusal_in_the_documented_box_has_an_owner():
    unowned, outcomes = [], {0: 0, 1: 0, 2: 0}
    for family, spec, lam in _draws():
        flags = _system_flags(spec)
        for suite in SUITES:
            argv = [suite, *flags, *SUITE_FLAGS.get(suite, ()), "--format", "json"]
            if suite == "coherent":
                argv.append(f"--lambda={lam.real!r}{lam.imag:+.17g}j")
            code, out, err = _run(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            else:
                assert err == "", (argv, err)
            outcomes[code] += 1
            if code:
                missing = _unowned(family, suite, spec, lam, code, out, err)
                if missing:
                    unowned.append(f"{' '.join(argv)}: {missing}")
    assert unowned == [], "\n".join(unowned)
    # every exit code occurs: the draw is not refused wholesale, as a
    # malformed argv would be
    assert all(outcomes.values()), outcomes

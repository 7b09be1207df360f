"""Metamorphic relations: two parametrisations of one physical system must
get the same verdicts.

pt's well V = g(g-1)/sin^2 x + h(h-1)/cos^2 x is mirrored by x -> pi/2 - x,
which swaps g and h and sends eta = cos 2x to -eta.  aw's polynomials are
symmetric in a1 .. a4, and flipping the sign of every a_i sends eta =
cos theta to -eta.  Each pair of invocations must give the same exit code,
the same checks with the same verdicts, and residuals within a factor 4
(plus 1e-15) of each other.  `classical` samples states that are not
mirrored between the two sides, so it runs on explicit mirrored states: a
phase-space point (x, p) maps to (pi/2 - x, -p) under pt's swap, to
(pi - x, -p) under aw's sign flip and to (-x, -p) under do's x -> -x.
"""

import json
import math

import pytest

import sincoord as sc
from sincoord import cli

from conftest import empty_caches

SUITES = ("spectrum", "ladder", "heisenberg", "coherent")
PT_PAIRS = ((0.7, 1.9), (1.3, 2.1), (2.5, 3.9), (0.6, 4.0), (1.0, 3.0))
AW_A = (0.1, 0.2, -0.1, 0.3)
AW_IMAGES = {
    "cycled": lambda a: (a[1], a[2], a[3], a[0]),
    "reversed": lambda a: a[::-1],
    "negated": lambda a: tuple(-x for x in a),
}
AW_Q = (0.5, 0.6)


def pt_args(g, h):
    return ("--system", "pt", "--g", repr(g), "--h", repr(h))


def aw_args(a, q):
    return ("--system", "aw", "--a=" + ",".join(map(repr, a)), "--q", repr(q))


def state_args(x, p):
    return (f"--x0={x!r}", f"--p0={p!r}")


CLASSICAL_MIRRORS = [
    *((pt_args(g, h) + state_args(x, p), pt_args(h, g) + state_args(math.pi / 2 - x, -p))
      for g, h in ((1.3, 2.1), (0.8, 3.5))
      for x, p in ((0.7, 0.3), (0.4, -0.9))),
    (aw_args(AW_A, 0.5) + state_args(1.2, 0.3),
     aw_args(AW_IMAGES["negated"](AW_A), 0.5) + state_args(math.pi - 1.2, -0.3)),
    *((("--system", "do", "--a", "1.3") + state_args(x, p),
       ("--system", "do", "--a", "1.3") + state_args(-x, -p))
      for x, p in ((0.5, 0.3), (-1.7, 1.1))),
]


def run(suite, system, capsys):
    """Exit code and JSON report of one CLI invocation (None on exit 2)."""
    code = cli.main([suite, *system, "--format", "json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if code != 2 else None)


def disagreements(first, second):
    """Where two (exit code, report) results break the relation."""
    (code_a, report_a), (code_b, report_b) = first, second
    if code_a != code_b:
        return [f"exit codes {code_a} and {code_b}"]
    if report_a is None:
        return []
    checks_a = {c["name"]: c for c in report_a["checks"]}
    checks_b = {c["name"]: c for c in report_b["checks"]}
    if checks_a.keys() != checks_b.keys():
        return [f"checks {sorted(checks_a)} and {sorted(checks_b)}"]
    found = []
    for name, a in checks_a.items():
        b = checks_b[name]
        if a["pass"] != b["pass"]:
            found.append(f"{name}: verdicts {a['pass']} and {b['pass']}")
        lo, hi = sorted((a["max_residual"], b["max_residual"]))
        if hi > 4.0 * lo + 1e-15:
            found.append(f"{name}: residuals {lo:.3e} and {hi:.3e}")
    return found


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("g, h", PT_PAIRS)
def test_pt_swap_of_g_and_h(suite, g, h, capsys):
    first = run(suite, pt_args(g, h), capsys)
    second = run(suite, pt_args(h, g), capsys)
    assert disagreements(first, second) == []


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("q", AW_Q)
@pytest.mark.parametrize("image", sorted(AW_IMAGES))
def test_aw_parameter_symmetries(suite, q, image, capsys):
    first = run(suite, aw_args(AW_A, q), capsys)
    second = run(suite, aw_args(AW_IMAGES[image](AW_A), q), capsys)
    assert disagreements(first, second) == []


@pytest.mark.parametrize(
    "system, mirror", CLASSICAL_MIRRORS,
    ids=["pt-1.3-2.1-a", "pt-1.3-2.1-b", "pt-0.8-3.5-a", "pt-0.8-3.5-b", "aw-negated",
         "do-a", "do-b"],
)
def test_classical_mirror_states(system, mirror, capsys):
    # RK4 commutes with each map, so the flows mirror each other to rounding
    first = run("classical", system, capsys)
    second = run("classical", mirror, capsys)
    assert {"classical_closed_vs_flow", "classical_energy_drift", "poisson_closure"} <= {
        c["name"] for c in first[1]["checks"]
    }
    assert disagreements(first, second) == []


def test_defect_that_depends_on_parameter_order_breaks_the_swap(
    monkeypatch, capsys
):
    # B_n scaled by 1 + 1e-6 for g > h only: each side alone is a plausible
    # system, and only the comparison of the two exposes the defect
    original = sc.PoschlTeller.recurrence_coefficients

    def planted(self):
        a_coef, b_coef, c_coef = original(self)
        if self.g > self.h:
            return a_coef, (lambda n: b_coef(n) * (1.0 + 1e-6)), c_coef
        return a_coef, b_coef, c_coef

    monkeypatch.setattr(sc.PoschlTeller, "recurrence_coefficients", planted)
    empty_caches()
    try:
        first = run("ladder", pt_args(1.3, 2.1), capsys)
        second = run("ladder", pt_args(2.1, 1.3), capsys)
    finally:
        monkeypatch.undo()
        empty_caches()
    assert disagreements(first, second) != []

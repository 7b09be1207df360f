"""Known outcomes: the invocations that fail a check or are refused today.

Each row is one CLI invocation with the ROADMAP item that owns it, its exit
code, and either its failing checks with their residuals to two
significant digits or the prefix of its refusal.  An exit-0 row pins the
residual of a check that passes on no evidence.  Every row runs with the
CLI's own tolerances; none is set or loosened here.  A change that moves a
row changes it here, says so in CHANGES.md and updates the owning item.
`tools/compare_reports.py` reads the invocations from the `ROWS` literal
and runs them as one group of its corpus.
"""

import json

import pytest

from sincoord import cli

from conftest import empty_caches

# (ROADMAP item, argv, exit code, {check: residual} or refusal prefix)
ROWS = (
    # item 1: closure and quadrature floors
    (1, "spectrum --system aw --a=0,0,0,0 --q 1e-20", 1, {"spectrum_closure": 5.0e19}),
    (1, "spectrum --system aw --a=0,0,0,0 --q 1e-12", 1, {"spectrum_closure": 5.4e6}),
    (1, "spectrum --system aw --a=0.999,0.5,-0.999,0.1 --q 1e-5", 1,
     {"spectrum_closure": 1.2e-7}),
    (1, "ladder --system pt --g 1e-8 --h 1", 1,
     {"ladder_action": 4.7e-9, "ground_state": 2.2e-9}),
    # item 5: no positive R0 on the truncated spectrum
    (5, "ladder --system pt --g 0.3 --h 0.5", 2,
     "R0(E_n) must be positive on the truncated spectrum"),
    (5, "ladder --system aw --a=-0.238,0.759,-0.528,0.182 --q 0.085", 2,
     "R0(E_n) must be positive on the truncated spectrum"),
    # item 7: rounding floors held to absolute tolerances
    (7, "heisenberg --system aw --a=0.1,0.2,-0.1,0.3 --q 0.5 --n 30", 1,
     {"heisenberg_evolution": 3.7e-9}),
    (7, "ladder --system pt --g 1 --h 1 --n 300", 1, {"two_commutator": 1.2e-10}),
    (7, "ladder --system pt --g 1.3 --h 2.1 --n 100", 1, {"two_commutator": 1.1e-9}),
    (7, "ladder --system pt --g 1.3 --h 2.1 --n 300", 1, {"two_commutator": 2.1e-8}),
    (7, "ladder --system pt --g 300 --h 300", 1, {"two_commutator": 1.2e-10}),
    (7, "ladder --system pt --g 1e4 --h 1", 1, {"two_commutator": 2.3e-10}),
    (7, "ladder --system do --a 1.3 --n 100", 1, {"su11": 1.4e-12}),
    (7, "heisenberg --system pt --g 1e150 --h 1", 0, {"heisenberg_evolution": 1.0e-148}),
    (7, "classical --system do --a 0.7 --x0=1e+200 --p0=-0.3 --tend 0.05", 1,
     {"classical_closed_vs_flow": 6.8e184}),
    (7, "classical --system aw --a=0,0,0,0 --q 1e-8 --states=1", 1,
     {"classical_energy_drift": 6.9e-8}),
    # item 12: quadrature norms out of reach
    (12, "ladder --system pt --g 500 --h 500", 2,
     "norms moved by 7.868e-03 relative under node doubling"),
    (12, "ladder --system pt --g 1000 --h 1000", 2, "quadrature produced a nonpositive norm"),
    (12, "ladder --system do --a 92", 2, "quadrature produced a non-finite norm"),
    (12, "ladder --system aw --a=0.1,0.2,-0.1,0.3 --q 0.998", 2,
     "quadrature produced a non-finite norm"),
    # item 13: the RK4 integrator's own error decides the verdict
    (13, "classical --system pt --g 0.6 --h 3.5", 1,
     {"classical_closed_vs_flow": 1.7e-6, "classical_energy_drift": 4.7e-7}),
    (13, "classical --system pt --g 3.5 --h 0.6", 2, "energy moved by 2.8"),
    (13, "all --system pt --g 1e-8 --h 1", 2,
     "x=-0.0010108879027266448 lies outside the open domain (0.0, 1.5707963267948966) "
     "at t=0.861"),
)


def _two_digits(value):
    return f"{value:.1e}"


@pytest.mark.parametrize(
    "item, argv, code, expected", ROWS, ids=[f"item{row[0]}-{row[1]}" for row in ROWS]
)
def test_known_outcome(item, argv, code, expected, capsys):
    empty_caches()
    got = cli.main([*argv.split(), "--format", "json"])
    out, err = capsys.readouterr()
    assert got == code, f"item {item}"
    if isinstance(expected, str):
        assert err.startswith(f"error: {expected}"), f"item {item}: {err}"
        return
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    failing = {name for name, c in checks.items() if not c["pass"]}
    assert failing == (set(expected) if code == 1 else set()), f"item {item}"
    residuals = {name: _two_digits(checks[name]["max_residual"]) for name in expected}
    assert residuals == {name: _two_digits(v) for name, v in expected.items()}, f"item {item}"


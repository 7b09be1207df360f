"""Acceptance suite: every headline identity at its pinned tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` or `-v` to
see them) and asserts the pinned tolerance.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sincoord as sc
from sincoord.operators import Normalization

PT_SETS = [sc.PoschlTeller(1.0, 1.0), sc.PoschlTeller(2.0, 3.0)]
PT_ALL = PT_SETS + [sc.PoschlTeller(0.7, 1.3)]
DO_SETS = [sc.DeformedOscillator(a) for a in (0.5, 1.0, 2.0)]
AW_SETS = [
    sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5),
    sc.AskeyWilson(0.1, 0.2, 0.3, 0.4, q=0.5),
]
ALL_SYSTEMS = PT_SETS + DO_SETS + AW_SETS


def report_line(criterion: str, worst: float, tol: float) -> None:
    verdict = "PASS" if worst <= tol else "FAIL"
    print(f"[{verdict}] {criterion}: max_residual={worst:.3e} tolerance={tol:.1e}")
    assert worst <= tol


def test_criterion_01_spectrum_closure():
    worst = 0.0
    for spec in PT_ALL + DO_SETS:
        worst = max(worst, sc.check_spectrum_closure(spec, 40).max_residual)
    for spec in AW_SETS:
        worst = max(worst, sc.check_spectrum_closure(spec, 25).max_residual)
    report_line("1 spectrum closure", worst, 1e-9)


def test_criterion_02_ladder_identities():
    worst = 0.0
    for spec in PT_SETS + DO_SETS:
        worst = max(worst, sc.check_ladder_action(spec, 30, 4).max_residual)
    report_line("2a ladder action (pt, do)", worst, 1e-10)

    worst_aw = max(
        sc.check_ladder_action(spec, 30, 4).max_residual for spec in AW_SETS
    )
    report_line("2b ladder action (aw, relative)", worst_aw, 1e-9)

    # pinned single matrix elements
    pt_pair = sc.build_ladder(sc.PoschlTeller(1, 1), 10, 4, Normalization.PRIMED)
    dev_pt = abs(sc.dense(pt_pair.a_minus)[0, 1] / 2.0 - 3.0)
    do_pair = sc.build_ladder(sc.DeformedOscillator(1.0), 10, 4, Normalization.PRIMED)
    dev_do = abs(sc.dense(do_pair.a_minus)[0, 1] - 2.0)
    report_line("2c pinned lowering entries", max(dev_pt, dev_do), 1e-12)

    # Askey-Wilson columns against the printed coefficient expressions
    spec = AW_SETS[0]
    q, b4 = spec.q, spec.b4
    a1, a2, a3, a4 = spec.params
    products = (a1 * a2, a1 * a3, a1 * a4, a2 * a3, a2 * a4, a3 * a4)
    pair = sc.build_ladder(spec, 30, 4)
    worst_cols = 0.0
    for n in range(1, 25):
        low = 1.0 - q**n
        for p in products:
            low *= 1.0 - p * q ** (n - 1)
        low /= 2.0 * (1.0 - b4 * q ** (2 * n - 2)) * (1.0 - b4 * q ** (2 * n - 1))
        up = (1.0 - b4 * q ** (n - 1)) / (
            2.0 * (1.0 - b4 * q ** (2 * n - 1)) * (1.0 - b4 * q ** (2 * n))
        )
        worst_cols = max(
            worst_cols,
            abs(sc.dense(pair.a_minus)[n - 1, n].real - low) / abs(low),
            abs(sc.dense(pair.a_plus)[n + 1, n].real - up) / abs(up),
        )
    report_line("2d aw columns vs printed coefficients", worst_cols, 1e-9)


def test_criterion_03_two_commutator():
    worst = max(
        sc.check_two_commutator(spec, 30, 4).max_residual for spec in ALL_SYSTEMS
    )
    report_line("3a two-commutator closure", worst, 1e-10)
    worst_do = max(
        sc.check_two_commutator(spec, 30, 4).max_residual for spec in DO_SETS
    )
    report_line("3b deformed oscillator exact closure", worst_do, 1e-13)


def test_criterion_04_heisenberg_solution():
    grid = (0.0, 0.1, 0.37, 1.0, 2.5, 5.0)
    worst = 0.0
    for spec in PT_SETS + DO_SETS:
        report = sc.check_heisenberg(spec, 30, 4, grid)
        worst = max(worst, report.max_residual)
    report_line("4a evolution vs oracle and split (pt, do)", worst, 1e-10)

    worst_aw = max(
        sc.check_heisenberg(spec, 20, 4, grid).max_residual for spec in AW_SETS
    )
    report_line("4b evolution vs oracle and split (aw, relative)", worst_aw, 1e-9)

    # the deformed oscillator evolves as eta cos t + i [H, eta] sin t
    spec = sc.DeformedOscillator(1.0)
    _, eta, comm = sc.build_basic(spec, 30, 4)
    worst_do = 0.0
    for t in grid:
        evolved = sc.exact_evolution(spec, 30, 4, t)
        expected = sc.dense(eta) * math.cos(t) + 1j * sc.dense(comm) * math.sin(t)
        d = 30 - 4
        worst_do = max(
            worst_do, float(np.max(np.abs(sc.dense(evolved)[:d, :d] - expected[:d, :d])))
        )
    report_line("4c oscillator cos/sin form", worst_do, 1e-12)


def test_criterion_05_hermitian_conjugacy():
    # small couplings: an endpoint singularity of the pt density, a narrow
    # analyticity strip of the do density
    small = [sc.PoschlTeller(0.3, 1.0), sc.DeformedOscillator(0.3)]
    worst = max(
        sc.check_hermitian_conjugacy(spec, 30, 4).max_residual
        for spec in ALL_SYSTEMS + small
    )
    report_line("5 hermitian conjugacy via quadrature norms", worst, 1e-8)


def test_criterion_06_su11():
    worst = max(sc.check_su11(spec.a, 30, 4).max_residual for spec in DO_SETS)
    report_line("6 su(1,1) relations", worst, 1e-12)


def test_criterion_07_ground_state_condition():
    worst = max(
        sc.check_ground_state_condition(spec, 30, 4).max_residual
        for spec in ALL_SYSTEMS
    )
    report_line("7 ground-state condition", worst, 1e-10)


def test_criterion_08_classical():
    worst_dev = 0.0
    worst_drift = 0.0
    for spec in (PT_SETS[0], DO_SETS[1], AW_SETS[0]):
        states = sc.sample_states(spec, 5, seed=42)
        dev, drift = sc.check_closed_vs_flow(spec, states, dt=1e-3)
        worst_dev = max(worst_dev, dev.max_residual)
        worst_drift = max(worst_drift, drift.max_residual)
    report_line("8a closed form vs flow oracle, 3 periods", worst_dev, 1e-6)
    report_line("8b flow-oracle energy conservation", worst_drift, 1e-8)

    state = sc.ClassicalState(0.5, 0.3)
    errors = []
    for dt in (0.02, 0.01):
        traj = sc.flow_oracle(DO_SETS[1], state, 6.0, dt)
        closed = sc.closed_form_eta(DO_SETS[1], state, traj.times)
        errors.append(float(np.max(np.abs(closed - traj.eta_values))))
    order = math.log2(errors[0] / errors[1])
    print(f"[{'PASS' if 3.5 < order < 4.5 else 'FAIL'}] 8c integrator order: {order:.3f}")
    assert 3.5 < order < 4.5

    worst_poisson = 0.0
    for spec in (PT_SETS[0], sc.PoschlTeller(1.0, 2.0), DO_SETS[1]) + tuple(AW_SETS):
        states = sc.sample_states(spec, 50, seed=42)
        worst_poisson = max(
            worst_poisson, sc.check_poisson_closure(spec, states).max_residual
        )
    report_line("8d double Poisson bracket closure, 50 states", worst_poisson, 1e-6)


def test_criterion_09_potential_reconstruction():
    worst = max(
        sc.check_potential_reconstruction(spec.g, spec.h).max_residual
        for spec in PT_SETS
    )
    report_line("9 potential reconstruction", worst, 1e-10)


def test_criterion_10_coherent_states():
    worst = max(
        sc.check_eigenvalue(spec, lam, 60, 4).max_residual
        for spec, lam in (
            (DO_SETS[1], 0.3),
            (PT_SETS[0], 0.2),
            (AW_SETS[0], 0.2),
        )
    )
    report_line("10a lowering-operator eigenvalue", worst, 1e-10)

    xs = np.linspace(-5.0, 5.0, 20)
    report = sc.check_mp_hypergeometric(1.0, 0.3, xs, 60)
    report_line("10b oscillator 1F1 closed form, 20 samples", report.max_residual, 1e-10)

    coeffs = sc.coherent_coeffs(DO_SETS[1], 0.0, 12)
    exact = float(coeffs[0] == 1.0 and np.all(coeffs[1:] == 0.0))
    print(f"[{'PASS' if exact else 'FAIL'}] 10c zero eigenvalue collapses to the ground state")
    assert exact


def test_criterion_11_cli_determinism(tmp_path):
    # the directory the package is imported from, so that `python -m
    # sincoord` runs the same code without an install
    src = str(Path(sc.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def invoke(*args):
        return subprocess.run(
            [sys.executable, "-m", "sincoord", *args],
            capture_output=True,
            text=True,
            timeout=600,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )

    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for path in paths:
        result = invoke(
            "classical", "--system", "do", "--a", "1", "--seed", "42",
            "--format", "json", "--out", str(path),
        )
        assert result.returncode == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    failing = invoke(
        "ladder", "--system", "pt", "--g", "1", "--h", "1", "--tol", "1e-30",
        "--format", "json", "--out", str(tmp_path / "fail.json"),
    )
    fails_with_one = failing.returncode == 1
    document = json.loads((tmp_path / "fail.json").read_text())
    file_written = any(not check["pass"] for check in document["checks"])

    ok = identical and fails_with_one and file_written
    print(f"[{'PASS' if ok else 'FAIL'}] 11 cli determinism and exit status")
    assert identical, "repeated runs must be byte-identical"
    assert fails_with_one, "a failing check must exit 1"
    assert file_written, "the report file must still be written on failure"

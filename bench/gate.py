"""Correctness gate: does a returned report answer what was asked?

The expectations below are the CLI's documented defaults, written out here
rather than read from the package, so that a change which buys speed with
fewer levels, a coarser oracle, a larger `dt` or a looser tolerance fails
the gate instead of reporting a faster verdict.
"""

from __future__ import annotations

import json
import math

from workloads import FLOW_T_END, Invocation

GUARD = 4
DT = 1e-3
T_SAMPLES = [0.0, 0.1, 0.37, 1.0, 2.5, 5.0]
LADDER_N = 30
HEISENBERG_N = {"pt": 30, "do": 30, "aw": 20}
COHERENT_N = 64
N_TOP_LIMIT = 20
CLOSURE_STATES = 50
POTENTIAL_POINTS = 50
HYP1F1_SAMPLES = 20

# Seed default tolerance per check: one value, or one per family.
TOLERANCE = {
    "ladder_action": {"pt": 1e-10, "do": 1e-10, "aw": 1e-9},
    "two_commutator": {"pt": 1e-10, "do": 1e-13, "aw": 1e-10},
    "hermitian_conjugacy": 1e-8,
    "ground_state": {"pt": 1e-10, "do": 1e-13, "aw": 1e-10},
    "su11": 1e-12,
    "heisenberg_evolution": {"pt": 1e-10, "do": 1e-12, "aw": 1e-9},
    "coherent_eigenvalue": 1e-10,
    "coherent_1f1": 1e-10,
    "classical_closed_vs_flow": 1e-6,
    "classical_energy_drift": 1e-8,
    "poisson_closure": 1e-6,
    "potential_reconstruction": 1e-10,
}


class GateError(Exception):
    """The report does not match the request."""


def tolerance(name: str, family: str) -> float:
    value = TOLERANCE[name]
    return value[family] if isinstance(value, dict) else value


def expected_checks(inv: Invocation) -> dict[str, dict]:
    """Check name -> the work-size fields its `details` must carry."""
    fam = inv.family
    if inv.suite == "ladder":
        n = inv.n if inv.n is not None else LADDER_N
        size = {"N": n, "G": GUARD}
        checks = {
            "ladder_action": size,
            "two_commutator": size,
            "hermitian_conjugacy": {**size, "n_top": min(N_TOP_LIMIT, n - GUARD - 2)},
            "ground_state": size,
        }
        if fam == "do":
            checks["su11"] = size
        return checks
    if inv.suite == "heisenberg":
        n = inv.n if inv.n is not None else HEISENBERG_N[fam]
        return {"heisenberg_evolution": {"N": n, "G": GUARD, "t_samples": T_SAMPLES}}
    if inv.suite == "coherent":
        truncation = (inv.n if inv.n is not None else COHERENT_N) - GUARD
        checks = {"coherent_eigenvalue": {"truncation": truncation, "G": GUARD}}
        if fam == "do":
            checks["coherent_1f1"] = {
                "truncation": truncation, "samples": HYP1F1_SAMPLES,
            }
        return checks
    if inv.suite == "classical":
        checks = {
            "classical_closed_vs_flow": {"states": 1, "dt": DT, "periods": 3.0},
            "classical_energy_drift": {"states": 1},
            "poisson_closure": {"states": CLOSURE_STATES},
        }
        if fam == "pt":
            checks["potential_reconstruction"] = {"points": POTENTIAL_POINTS}
        return checks
    raise ValueError(f"no expectations for suite {inv.suite!r}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _check_exit(exit_code: int, verdicts: list[bool]) -> None:
    want = 0 if all(verdicts) else 1
    _require(exit_code == want, f"exit {exit_code} but verdicts imply {want}")


def check_json(inv: Invocation, exit_code: int, stdout: str) -> tuple[int, int]:
    """Validate a JSON report; return its number of checks and of FAILs."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        raise GateError(f"unparsable report: {exc}") from None
    _require(doc.get("system") == inv.family, f"system {doc.get('system')!r}")
    _require(doc.get("G") == GUARD, f"G={doc.get('G')}")
    want_n = inv.n if inv.n is not None else 0
    _require(doc.get("N") == want_n, f"N={doc.get('N')}, asked {want_n}")
    want = expected_checks(inv)
    checks = doc.get("checks", [])
    names = sorted(c.get("name") for c in checks)
    _require(names == sorted(want), f"checks {names}, expected {sorted(want)}")
    for check in checks:
        name = check["name"]
        tol = tolerance(name, inv.family)
        _require(check["tolerance"] == tol, f"{name} tolerance {check['tolerance']} != {tol}")
        for key, value in want[name].items():
            got = check["details"].get(key)
            _require(got == value, f"{name} {key}={got!r}, expected {value!r}")
        residual = check["max_residual"]
        _require(
            check["pass"] == (residual <= tol),
            f"{name} verdict {check['pass']} contradicts {residual} vs {tol}",
        )
    verdicts = [c["pass"] for c in checks]
    _check_exit(exit_code, verdicts)
    return len(verdicts), verdicts.count(False)


def _parse_table(text: str) -> tuple[str, list[tuple[str, float, bool]]]:
    lines = text.strip().splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("system="), "no text table")
    rows = []
    for line in lines[2:]:
        parts = line.split()
        _require(len(parts) == 4 and parts[3] in ("PASS", "FAIL"), f"bad row {line!r}")
        rows.append((parts[0], float(parts[2]), parts[3] == "PASS"))
    return lines[0].split()[0].removeprefix("system="), rows


def check_export(
    inv: Invocation, exit_code: int, stdout: str, trajectory: str
) -> tuple[int, int]:
    """Validate the text table and the trajectory CSV of an export; return
    the number of checks in the table and of FAILs."""
    system, rows = _parse_table(stdout)
    _require(system == inv.family, f"system {system!r}")
    want = expected_checks(inv)
    names = sorted(name for name, _, _ in rows)
    _require(names == sorted(want), f"checks {names}, expected {sorted(want)}")
    for name, tol, _ in rows:
        want_tol = tolerance(name, inv.family)
        _require(tol == want_tol, f"{name} tolerance {tol} != {want_tol}")
    verdicts = [passed for _, _, passed in rows]
    _check_exit(exit_code, verdicts)

    lines = trajectory.splitlines()
    _require(lines and lines[0] == "t,eta_closed,eta_numeric,abs_err", "no CSV header")
    steps = round(FLOW_T_END / DT)
    _require(len(lines) == steps + 2, f"{len(lines) - 1} trajectory rows, expected {steps + 1}")
    t1 = float(lines[2].split(",")[0])
    t_end = float(lines[-1].split(",")[0])
    _require(math.isclose(t1, DT, rel_tol=1e-9), f"trajectory step {t1}, expected {DT}")
    _require(math.isclose(t_end, FLOW_T_END, rel_tol=1e-9), f"trajectory ends at {t_end}")
    return len(verdicts), verdicts.count(False)

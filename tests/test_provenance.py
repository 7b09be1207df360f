"""Provenance: the formula sources each check reads, held apart.

A check is only worth its verdict if its two sides come from different
sources; a simplification that makes a check compare an expression with
itself is a regression however much code it deletes.  Each library check
runs once, on a fresh instance and from empty caches (an equal spec would
hit the `lru_cache`s and record nothing), with every family member and
`systems.alpha_pm` wrapped to record its name; `systems.frequency_pair`,
which forms the same pair from R0 and R1 values a caller already holds, is
recorded as `alpha_pm` too.  The map of names is pinned
below: a change that drops a source from a check fails here and has to say
why.  The README's check table shows the same map in its "compares" column.
"""

import ast
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

import sincoord as sc
from sincoord import systems
from sincoord.classical import ClassicalState

from conftest import empty_caches

MEMBERS = (
    "energy", "closure_polynomials", "classical_closure", "recurrence_coefficients",
    "eta", "deta_dx", "d2eta_dx2", "density", "quadrature_nodes", "flow_locals",
)
FAMILIES = (sc.PoschlTeller, sc.DeformedOscillator, sc.AskeyWilson)

SYSTEMS = {
    "pt": (sc.PoschlTeller(1.0, 2.0), ClassicalState(0.8, 0.7)),
    "do": (sc.DeformedOscillator(1.0), ClassicalState(0.5, 0.3)),
    "aw": (sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5), ClassicalState(2.2, 0.5)),
}

# each check with small sizes; the family-only checks build their own system
CHECKS = {
    "spectrum_closure": lambda spec, state: sc.check_spectrum_closure(spec, 12),
    "ladder_action": lambda spec, state: sc.check_ladder_action(spec, 16, 4),
    "two_commutator": lambda spec, state: sc.check_two_commutator(spec, 16, 4),
    "hermitian_conjugacy": lambda spec, state: sc.check_hermitian_conjugacy(spec, 16, 4),
    "ground_state": lambda spec, state: sc.check_ground_state_condition(spec, 16, 4),
    "heisenberg_evolution": lambda spec, state: sc.check_heisenberg(spec, 16, 4, [0.0, 0.5]),
    "classical_closed_vs_flow": lambda spec, state: sc.check_closed_vs_flow(
        spec, [state], t_end=0.05
    ),
    "poisson_closure": lambda spec, state: sc.check_poisson_closure(spec, [state]),
    "coherent_eigenvalue": lambda spec, state: sc.check_eigenvalue(
        spec, spec.coherent_lambda, 60, 4
    ),
}
FAMILY_CHECKS = {
    "su11": ("do", lambda spec, state: sc.check_su11(spec.a, 16, 4)),
    "coherent_1f1": ("do", lambda spec, state: sc.check_mp_hypergeometric(
        spec.a, spec.coherent_lambda, np.linspace(-5.0, 5.0, 5), 60
    )),
    "potential_reconstruction": ("pt", lambda spec, state: (
        sc.check_potential_reconstruction(spec.g, spec.h)
    )),
}

OPERATOR_SOURCES = {"energy", "closure_polynomials", "recurrence_coefficients"}
# the checks that read the frequency split of `operators.build_solution`
SPLIT_SOURCES = OPERATOR_SOURCES | {"alpha_pm"}
FLOW_SOURCES = {"classical_closure", "eta", "deta_dx", "flow_locals"}

# the same map for every family
PROVENANCE = {
    "spectrum_closure": {"energy", "closure_polynomials", "alpha_pm"},
    "ladder_action": SPLIT_SOURCES,
    "two_commutator": OPERATOR_SOURCES,
    "heisenberg_evolution": SPLIT_SOURCES,
    "ground_state": SPLIT_SOURCES,
    "hermitian_conjugacy": SPLIT_SOURCES | {"density", "eta", "quadrature_nodes"},
    "classical_closed_vs_flow": FLOW_SOURCES,
    "poisson_closure": FLOW_SOURCES | {"d2eta_dx2"},
    "coherent_eigenvalue": SPLIT_SOURCES,
    "su11": SPLIT_SOURCES,
    # the 1F1 side is `special.hyp1f1`, which reads no family member
    "coherent_1f1": {"recurrence_coefficients"},
    # the reference well is written out in the check
    "potential_reconstruction": {"closure_polynomials", "eta", "deta_dx"},
}


@pytest.fixture
def recorded(monkeypatch):
    """The set of source names read since it was last cleared."""
    seen = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            seen.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for family in FAMILIES:
        for name in MEMBERS:
            monkeypatch.setattr(family, name, recording(name, vars(family)[name]))
    # rebind every module's imported name, so a caller that imported
    # alpha_pm or frequency_pair by name is seen too
    for original in (systems.alpha_pm, systems.frequency_pair):
        traced = recording("alpha_pm", original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "sincoord":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, traced)
    yield seen
    empty_caches()


def _sources(seen, family, check):
    spec, state = SYSTEMS[family]
    fresh = dataclasses.replace(spec)
    empty_caches()
    seen.clear()
    check(fresh, state)
    return set(seen)


@pytest.mark.parametrize("family", SYSTEMS)
def test_each_check_reads_its_pinned_sources(recorded, family):
    read = {name: _sources(recorded, family, check) for name, check in CHECKS.items()}
    read |= {
        name: _sources(recorded, family, check)
        for name, (owner, check) in FAMILY_CHECKS.items()
        if owner == family
    }
    assert read == {name: PROVENANCE[name] for name in read}


def _readme_compares() -> dict[str, set[str]]:
    """{check: names} from the "compares" column of README.md's check table."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    ).splitlines()
    header = next(
        i for i, line in enumerate(lines) if line.startswith("| check ") and "compares" in line
    )
    rows = {}
    for line in lines[header + 2 :]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = {name.strip() for name in cells[-1].split(",")}
    return rows


def test_readme_compares_column_is_the_map():
    rows = _readme_compares()
    # the energy drift is the second report of the flow check's run
    assert rows.pop("classical_energy_drift") == PROVENANCE["classical_closed_vs_flow"]
    assert rows == PROVENANCE


def test_the_residual_mode_is_read_in_one_place():
    """`relative_residuals` is read by one function of the package (the
    window helper of the banded checks); the class attributes that declare
    it are not reads."""
    reads = []
    for path in sorted((Path(sc.__file__).parent).glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                reads += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Attribute) and node.attr == "relative_residuals"
                ]
    assert len(set(reads)) == 1, reads

"""Tests of the benchmark itself (not collected by the package's test suite).

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

import speed
from gate import GateError, check_export, check_json
from metrics import Record, tail_percentile
from spans import Span, self_times
from workloads import PROBE, WORKLOADS, Invocation, blocks

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _argv(workload: str, seed: int, count: int = 3) -> list[tuple[str, ...]]:
    gen = blocks(workload, seed, "trajectory.csv")
    return [
        inv.argv for block in itertools.islice(gen, count) for round_ in block for inv in round_
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_argv(workload):
    assert _argv(workload, 7) == _argv(workload, 7)
    assert _argv(workload, 7) != _argv(workload, 8)


def _run_cli(argv) -> tuple[int, str]:
    from sincoord import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


LADDER = Invocation(
    ("ladder", "--system", "pt", "--g", "1.5", "--h", "2.5", "--format", "json"),
    "ladder", "pt",
)
CLASSICAL = Invocation(
    ("classical", "--system", "pt", "--g", "1.5", "--h", "2.5",
     "--x0=0.7", "--p0=0.3", "--format", "json"),
    "classical", "pt",
)


@pytest.fixture(scope="module")
def ladder_doc():
    code, text = _run_cli(LADDER.argv)
    assert code == 0
    return json.loads(text)


@pytest.fixture(scope="module")
def classical_doc():
    code, text = _run_cli(CLASSICAL.argv)
    assert code == 0
    return json.loads(text)


def test_gate_accepts_genuine_reports(ladder_doc, classical_doc):
    assert check_json(LADDER, 0, json.dumps(ladder_doc)) == (4, 0)
    assert check_json(CLASSICAL, 0, json.dumps(classical_doc)) == (4, 0)


def _doctored(doc, name, change):
    doc = copy.deepcopy(doc)
    check = next(c for c in doc["checks"] if c["name"] == name)
    change(doc, check)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "inv_name, name, change",
    [
        ("ladder", "two_commutator", lambda d, c: d["checks"].remove(c)),
        ("ladder", "ladder_action", lambda d, c: c["details"].update(N=20)),
        ("ladder", "hermitian_conjugacy", lambda d, c: c["details"].update(n_top=10)),
        ("ladder", "ground_state", lambda d, c: c.update(tolerance=1e-6)),
        ("classical", "classical_closed_vs_flow", lambda d, c: c["details"].update(dt=2e-3)),
        ("classical", "classical_closed_vs_flow", lambda d, c: c["details"].update(periods=1.0)),
        ("classical", "poisson_closure", lambda d, c: c["details"].update(states=5)),
    ],
    ids=["check-removed", "smaller-N", "fewer-levels", "looser-tolerance",
         "larger-dt", "fewer-periods", "fewer-states"],
)
def test_gate_rejects_doctored_reports(ladder_doc, classical_doc, inv_name, name, change):
    inv, doc = (LADDER, ladder_doc) if inv_name == "ladder" else (CLASSICAL, classical_doc)
    with pytest.raises(GateError):
        check_json(inv, 0, _doctored(doc, name, change))


def test_gate_rejects_wrong_exit_code(ladder_doc):
    with pytest.raises(GateError):
        check_json(LADDER, 1, json.dumps(ladder_doc))


def test_gate_checks_trajectory_export(tmp_path):
    out = tmp_path / "trajectory.csv"
    inv = Invocation(
        ("classical", "--system", "do", "--a", "1.0", "--x0=0.5", "--p0=0.3",
         "--tend", "10.0", "--format", "csv", "--out", str(out)),
        "classical", "do", form="export", out_path=str(out),
    )
    code, table = _run_cli(inv.argv)
    trajectory = out.read_text()
    assert check_export(inv, code, table, trajectory) == (3, 0)
    coarser = trajectory.splitlines()[::2]  # as if dt were doubled
    with pytest.raises(GateError):
        check_export(inv, code, table, "\n".join(coarser))
    looser = table.replace("1.0e-06", "1.0e-05")
    with pytest.raises(GateError):
        check_export(inv, code, looser, trajectory)


@pytest.mark.parametrize(
    "n, percentile, rank",
    [(10, None, None), (11, 9, 1), (20, 50, 10), (45, 77, 35), (100, 90, 90), (2000, 99, 1980)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, rank):
    values = [float(i) for i in range(1, n + 1)]
    got = tail_percentile(values[::-1])
    if percentile is None:
        assert got is None
    else:
        assert got == (percentile, float(rank))
        assert sum(v > got[1] for v in values) >= 10


def test_self_time_subtracts_nested_children():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 0),
        Span("operators.build_ladder", 1.0, 4.0, 0, 0),
        Span("operators.build_basic", 2.0, 3.0, 1, 0),
        Span("heisenberg.exact", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.mark.parametrize("kind", sorted(speed.REFERENCE_S))
def test_scaler_uses_the_mean_of_the_probes_around_a_call(monkeypatch, kind):
    probes = iter([0.002, 0.004, 0.001])
    monkeypatch.setattr(speed, "probe", lambda _kind: next(probes))
    scaler = speed.Scaler(kind)
    first = Record("pt", 0, 1.5, 0, 0, None, scale=scaler.next_scale())
    second = Record("pt", 0, 1.5, 0, 0, None, scale=scaler.next_scale())
    reference = speed.REFERENCE_S[kind]
    assert first.seconds == pytest.approx(1.5 * reference / 0.003)
    assert second.seconds == pytest.approx(1.5 * reference / 0.0025)


def test_every_workload_has_a_probe():
    assert {PROBE[w] for w in WORKLOADS} <= set(speed.KERNELS)

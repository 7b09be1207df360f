"""Command-line surface: suites, report formats, exit codes."""

import argparse
import collections
import dataclasses
import enum
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sincoord import cli
from sincoord.report import CheckReport

# the directory the package is imported from, so that `python -m sincoord`
# runs the same code without an install
SRC = str(Path(cli.__file__).resolve().parents[1])

# Address space of a process whose request is refused: 1.5 GiB, so a request
# that allocated before its refusal ends in MemoryError, not in the machine
# running out of memory.
REFUSAL_ADDRESS_SPACE = 3 << 29


def run_cli(*args, preexec_fn=None):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "sincoord", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=preexec_fn,
    )


def _limit_address_space():
    limit = (REFUSAL_ADDRESS_SPACE, REFUSAL_ADDRESS_SPACE)
    resource.setrlimit(resource.RLIMIT_AS, limit)


class TestSubcommands:
    def test_spectrum_pt(self):
        result = run_cli("spectrum", "--system", "pt", "--g", "1", "--h", "1")
        assert result.returncode == 0
        assert "spectrum_closure" in result.stdout
        assert "PASS" in result.stdout

    def test_spectrum_aw(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "spectrum", "--system", "aw", "--q", "0.5",
            "--a", "0.1,0.2,-0.1,0.3", "--nmax", "25",
            "--format", "json", "--out", str(out),
        )
        assert result.returncode == 0
        document = json.loads(out.read_text())
        assert document["system"] == "aw"
        assert document["checks"][0]["name"] == "spectrum_closure"
        assert document["checks"][0]["max_residual"] <= 1e-9

    def test_ladder_pt(self):
        result = run_cli(
            "ladder", "--system", "pt", "--g", "1", "--h", "1", "--n", "30"
        )
        assert result.returncode == 0
        for name in ("ladder_action", "two_commutator", "hermitian_conjugacy"):
            assert name in result.stdout

    def test_ladder_do_includes_su11(self):
        result = run_cli("ladder", "--system", "do", "--a", "1")
        assert result.returncode == 0
        assert "su11" in result.stdout

    @pytest.mark.parametrize(
        "a, code, su11",
        [("1.3", 1, "3.724e-10 1.0e-12 FAIL"), ("1", 0, "0.000e+00 1.0e-12 PASS")],
        ids=["a1.3-rounding-floor", "a1"],
    )
    def test_ladder_do_checks_su11_past_2048(self, a, code, su11):
        # su11 once refused N > 2048 with exit 2; at a 1.3 the rounding floor
        # of [a'-, a'+] grows with N and is past its 1e-12 here
        result = run_cli("ladder", "--system", "do", "--a", a, "--n", "2049")
        assert result.returncode == code
        lines = [line.split() for line in result.stdout.splitlines()]
        assert ["su11", *su11.split()] in lines
        assert result.stderr == ""

    def test_ladder_pt_coupling_below_one(self):
        # an endpoint singularity of the density the norms must integrate
        result = run_cli("ladder", "--system", "pt", "--g", "0.3", "--h", "1")
        assert result.returncode == 0
        assert "hermitian_conjugacy" in result.stdout
        assert result.stderr == ""

    @pytest.mark.parametrize(
        "params", ["--a=1e-8,0.2,-0.1,0.3", "--a=1e-300,-1e-300,0.5,0.5"]
    )
    def test_ladder_aw_with_a_tiny_first_parameter(self, params):
        result = run_cli("ladder", "--system", "aw", params, "--q", "0.5")
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.parametrize("suite", ["ladder", "heisenberg", "coherent"])
    def test_aw_with_every_nonzero_parameter_tiny(self, suite, capsys):
        # B_n = 5e-9 q^n here: a form with 1/a-sized terms loses every digit
        code = cli.main([suite, "--system", "aw", "--a=1e-8,0,0,0", "--q", "0.5"])
        assert code == 0, capsys.readouterr().out

    def test_heisenberg_aw(self):
        result = run_cli(
            "heisenberg", "--system", "aw", "--q", "0.5", "--a", "0.1,0.2,-0.1,0.3"
        )
        assert result.returncode == 0

    def test_coherent_do(self):
        result = run_cli("coherent", "--system", "do", "--a", "1")
        assert result.returncode == 0
        assert "coherent_eigenvalue" in result.stdout
        assert "coherent_1f1" in result.stdout

    def test_classical_trajectory_csv(self, tmp_path):
        out = tmp_path / "trajectory.csv"
        result = run_cli(
            "classical", "--system", "do", "--a", "1",
            "--x0", "0.5", "--p0", "0.3", "--tend", "10",
            "--format", "csv", "--out", str(out),
        )
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,eta_closed,eta_numeric,abs_err"
        assert len(lines) == 10002  # header + 10001 samples at dt = 1e-3

    def test_classical_csv_without_out_writes_the_check_rows(self):
        # the trajectory is written only to an --out file
        result = run_cli(
            "classical", "--system", "do", "--a", "1",
            "--x0", "0.5", "--p0", "0.3", "--tend", "1", "--format", "csv",
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "name,max_residual,tolerance,pass"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "classical_closed_vs_flow", "classical_energy_drift", "poisson_closure"
        ]

    def test_all_suite_do(self):
        result = run_cli("all", "--system", "do", "--a", "1", "--n", "20")
        assert result.returncode == 0


class TestExitCodes:
    def test_failing_check_exits_one_and_writes_file(self, tmp_path):
        out = tmp_path / "failing.json"
        result = run_cli(
            "ladder", "--system", "pt", "--g", "1", "--h", "1",
            "--tol", "1e-30", "--format", "json", "--out", str(out),
        )
        assert result.returncode == 1
        document = json.loads(out.read_text())
        assert any(not check["pass"] for check in document["checks"])

    def test_bad_parameter_exits_two(self):
        result = run_cli("spectrum", "--system", "aw", "--q", "1.5", "--a", "0,0,0,0")
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_flow_escape_names_the_step(self, capsys):
        # an RK4 step of dt 1e-3 crosses the weak g wall at x = 0
        code = cli.main(["classical", "--system", "pt", "--g", "1e-8", "--h", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: x=-0.0010108879027266448 lies outside the open domain")
        assert err.endswith(" at t=0.861, after a step of dt=0.001\n")

    @pytest.mark.parametrize(
        "x0, p0, t, x", [("0", "700", "0.001", "nan"), ("1e308", "0.1", "0.404", "-inf")]
    )
    def test_flow_to_a_nonfinite_position_is_a_nonfinite_step(self, x0, p0, t, x, capsys):
        # a partial overflows to inf inside a stage: the step is refused as
        # not finite, not as leaving do's open domain (-inf, inf)
        code = cli.main(["classical", "--system", "do", "--a", "1", f"--x0={x0}", f"--p0={p0}"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: H or its partials are not finite in the step to t={t} (position x={x})\n"
        )

    def test_missing_parameters_exit_two(self):
        result = run_cli("spectrum", "--system", "pt")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--system", "pt", "--g", "1"], "pt needs --g and --h"),
            (["--system", "do"], "do needs --a with a single value"),
            (["--system", "do", "--a", "1,2"], "do needs --a with a single value"),
            (["--system", "aw", "--q", "0.5"], "aw needs --q and --a a1,a2,a3,a4"),
            ([], "--system is required (as a flag or config-file key)"),
            (["--system", "do", "--a", "1", "--x0", "0.5"],
             "x0 and p0 must be given together"),
        ],
        ids=["pt", "do", "do-two-values", "aw", "no-system", "x0-alone"],
    )
    def test_configuration_errors_name_what_is_missing(self, argv, message, capsys):
        assert cli.main(["classical", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_zero_r0_at_the_floor_of_the_well_is_refused(self, capsys):
        # (g + h)^2 underflows, so R0(H0) = 8 H0 = 0 at the bottom of the well
        argv = ["classical", "--system", "pt", "--g", "1e-200", "--h", "1e-200",
                "--x0=0.7853981633974483", "--p0=0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: R0(H0)=0.0 <= 0 at energy 0.0\n"
        # an orbit is refused before its flow, so aw's overflowing R0(H0) is
        # what is named with --tend as without it, not the flow's first stage
        argv = ["classical", "--system", "aw", "--a=0.3,-0.2,0.4,0.1", "--q", "0.6",
                "--x0=1e-130", "--p0=0.1"]
        for tend in ([], ["--tend", "1"]):
            assert cli.main(argv + tend) == 2
            assert capsys.readouterr().err == (
                "error: R0(H0) overflows at the initial energy H0=2.269479867536158e+259\n"
            )

    def test_aw_norms_just_below_density_overflow_pass(self):
        # q 0.998 and above overflow the density and exit 2
        result = run_cli(
            "ladder", "--system", "aw", "--a", "0.1,0.2,-0.1,0.3", "--q", "0.997"
        )
        assert result.returncode == 0
        assert "hermitian_conjugacy" in result.stdout
        assert result.stderr == ""

    @pytest.mark.parametrize("a", ["0.016", "0.45", "0.5", "90"])
    def test_do_norms_at_the_edges_of_the_density_pass(self, a):
        # 0.016 has the largest rule admitted (65,001 nodes); 0.45 and 0.5
        # lie either side of the a < 1/2 shift in |Gamma(a + ix)|^2
        result = run_cli("ladder", "--system", "do", "--a", a)
        assert result.returncode == 0
        assert "hermitian_conjugacy" in result.stdout
        assert result.stderr == ""

    @pytest.mark.parametrize(
        "a, message",
        [
            ("0.015",
             "the quadrature rule of step 0.0015 needs 69335 nodes, more than the 65536 allowed"),
            # h_21 leaves double range, though the density does not
            ("92", "quadrature produced a non-finite norm"),
        ],
    )
    def test_do_norms_past_the_edges_exit_two(self, a, message):
        result = run_cli("ladder", "--system", "do", "--a", a)
        assert result.returncode == 2
        assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("suite", ["ladder", "all"])
    @pytest.mark.parametrize(
        "a, rule",
        [
            # a / 10 underflows the step to 0, or half / step overflows
            ("5e-324", "of step 0.0 on [-52.0, 52.0] needs more than the 65536 nodes"),
            ("2.5e-323", "of step 0.0 on [-52.0, 52.0] needs more than the 65536 nodes"),
            ("1e-310", "of step 1e-311 on [-52.0, 52.0] needs more than the 65536 nodes"),
            ("2.2e-308", "of step 2.2e-309 on [-52.0, 52.0] needs more than the 65536 nodes"),
            # the node count is finite, and counted, also past the range of a float
            ("1e-305", "of step 1e-306 needs 1.04000e+308 nodes"),
            ("4e-306", "of step 4e-307 needs 2.60000e+308 nodes"),
        ],
    )
    def test_do_norms_at_tiny_a_refuse_the_rule(self, suite, a, rule, capsys):
        code = cli.main([suite, "--system", "do", "--a", a])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: the quadrature rule {rule}")
        assert err.endswith("allowed\n") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "system",
        [
            ("--system", "do", "--a", "1e-305"),
            ("--system", "pt", "--g", "1e150", "--h", "1"),
            ("--system", "aw", "--a=0.9999999999999999,0.5,-0.5,0.1", "--q", "0.5"),
        ],
    )
    def test_a_refused_node_count_reads_in_six_digits(self, system):
        result = run_cli("ladder", *system)
        assert result.returncode == 2
        assert result.stderr.startswith("error: the quadrature rule of step ")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
        count = re.search(r"needs (\S+) nodes", result.stderr).group(1)
        assert re.search(r"\d{7}", count) is None, count

    def test_wrong_parameter_count_exits_two(self):
        result = run_cli("spectrum", "--system", "aw", "--q", "0.5", "--a", "0.1,0.2")
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("ladder", "--system", "pt", "--g", "1", "--h", "1", "--guard", "0"),
            ("heisenberg", "--system", "pt", "--g", "1", "--h", "1", "--t", "nan"),
            ("classical", "--system", "do", "--a", "1", "--x0", "0.5", "--p0", "0.1",
             "--tend", "-1"),
            ("heisenberg", "--system", "do", "--a", "1", "--t="),
            ("coherent", "--system", "pt", "--g", "1", "--h", "1", "--lambda", "nan"),
            ("coherent", "--system", "pt", "--g", "1", "--h", "1", "--lambda", "inf"),
            ("coherent", "--system", "do", "--a", "1", "--lambda", "1e200"),
            ("coherent", "--system", "aw", "--q", "0.5", "--a", "0.1,0.2,-0.1,0.3",
             "--lambda", "1e200"),
            ("classical", "--system", "do", "--a", "1", "--x0=0", "--p0=800"),
            ("classical", "--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", "0.5",
             "--x0=1.5", "--p0=2000"),
            ("classical", "--system", "pt", "--g", "1", "--h", "1", "--x0=0.8",
             "--p0=1e200"),
            ("classical", "--system", "pt", "--g", "1", "--h", "1", "--x0=0.8",
             "--p0=nan"),
            ("classical", "--system", "do", "--a", "1", "--x0=0", "--p0=300"),
            ("classical", "--system", "pt", "--g", "1", "--h", "1", "--x0=0",
             "--p0=1"),
            ("coherent", "--system", "pt", "--g", "1", "--h", "1", "--n", "8"),
            ("coherent", "--system", "aw", "--q", "0.5", "--a", "0.1,0.2,-0.1,0.3",
             "--n", "8"),
            ("classical", "--system", "do", "--a", "1", "--states", "0"),
            ("classical", "--system", "do", "--a", "1", "--states", "-3"),
            ("classical", "--system", "do", "--a", "1", "--seed", "-1"),
            ("ladder", "--system", "aw", "--a", "0.1,0.2,-0.1,0.3", "--q", "0.998"),
            ("ladder", "--system", "aw", "--a", "0.1,0.2,-0.1,0.3", "--q", "0.999"),
            ("ladder", "--system", "do", "--a", "1", "--n", "5", "--guard", "4"),
            ("classical", "--system", "do", "--a", "1", "--dt", "0"),
            ("classical", "--system", "do", "--a", "1", "--x0", "0.5", "--p0", "0.3",
             "--dt", "1e-300", "--tend", "1"),
            ("ladder", "--system", "pt", "--g", "inf", "--h", "1"),
            ("heisenberg", "--system", "pt", "--g", "inf", "--h", "1"),
            ("heisenberg", "--system", "do", "--a", "inf"),
            ("spectrum", "--system", "pt", "--g", "1", "--h", "1e308"),
            ("coherent", "--system", "do", "--a", "1e150", "--lambda", "1e5"),
            *(
                (suite, "--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", q)
                for suite, q in (
                    ("spectrum", "1e-300"),
                    ("ladder", "1e-300"),
                    ("heisenberg", "1e-300"),
                    ("coherent", "1e-300"),
                    ("coherent", "1e-5"),
                )
            ),
            ("ladder", "--system", "do", "--a", "1", "--n", "100000000"),
            ("heisenberg", "--system", "do", "--a", "1", "--n", "100000000"),
            ("spectrum", "--system", "pt", "--g", "1", "--h", "1", "--nmax",
             "1000000000"),
            ("classical", "--system", "do", "--a", "1", "--states", "1000000000"),
            ("coherent", "--system", "do", "--a", "1", "--n", "100000000"),
            ("classical", "--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", "0.5",
             "--x0=1.5", "--p0=0.3", "--tend", "1e-9", "--format", "csv",
             "--out", os.devnull),
            ("classical", "--system", "pt", "--g", "1e4", "--h", "1e4", "--x0=0.7",
             "--p0=0.1"),
        ],
        ids=[
            "guard-zero", "time-nan", "negative-tend", "empty-time-grid",
            "lambda-nan", "lambda-inf", "lambda-overflow-do", "lambda-overflow-aw",
            "energy-overflow-do", "energy-overflow-aw", "energy-overflow-pt",
            "energy-nan-pt", "step-overflow-do", "state-on-wall-pt",
            "no-eigenvalue-rows-pt", "no-eigenvalue-rows-aw",
            "no-states", "negative-states", "negative-seed",
            "density-overflow-q0.998", "density-overflow-q0.999",
            "dimension-below-guard-plus-two", "zero-dt", "steps-beyond-cap",
            "infinite-g-ladder", "infinite-g-heisenberg", "infinite-a-heisenberg",
            "overflowing-h-spectrum", "overflowing-1f1-coherent-do",
            "level-overflow-aw-spectrum", "level-overflow-aw-ladder",
            "level-overflow-aw-heisenberg", "level-overflow-aw-coherent",
            "level-overflow-aw-coherent-q1e-5",
            "dimension-beyond-cap-ladder", "dimension-beyond-cap-heisenberg",
            "levels-beyond-cap-spectrum", "states-beyond-cap-classical",
            "truncation-beyond-cap-coherent",
            "span-below-half-step-export", "three-periods-below-half-step",
        ],
    )
    def test_out_of_range_request_exits_two_without_traceback(self, args):
        result = run_cli(*args, preexec_fn=_limit_address_space)
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    def test_overflowing_1f1_sum_is_refused_naming_its_arguments(self, capsys):
        # the row overflowing-1f1-coherent-do above: the float 1F1 series of
        # the first x sample overflows to inf instead of settling
        code = cli.main(["coherent", "--system", "do", "--a", "1e150", "--lambda", "1e5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 1F1 series is not finite at a=(1e+150-5j), b=(2e+150+0j), "
            "z=-400000j\n"
        )

    @pytest.mark.parametrize(
        "args, residuals",
        [
            (("--a", "1e150"), {"coherent_eigenvalue": "2.7e-302", "coherent_1f1": "0.0e+00"}),
            (("--a", "50000", "--n", "215"), {}),
            (("--a", "500", "--n", "4004"), {}),
        ],
        ids=["a1e150", "a50000-n215", "a500-n4004"],
    )
    def test_do_series_past_its_last_nonzero_coefficient_has_a_verdict(
        self, args, residuals, capsys
    ):
        """Past the last nonzero coefficient P_n overflows, and a level there
        adds only 0.0 * P_n: the 1F1 sum stops before it, so the check reaches
        a verdict instead of a NaN residual."""
        code = cli.main(["coherent", "--system", "do", *args, "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert all(c["pass"] for c in checks.values())
        assert checks["coherent_1f1"]["max_residual"] <= 1e-14
        for name, residual in residuals.items():
            assert f"{checks[name]['max_residual']:.1e}" == residual

    @pytest.mark.parametrize(
        "args",
        [
            ("spectrum", "--system", "pt", "--g", "1", "--h", "1", "--n", "3"),
            ("spectrum", "--system", "do", "--a", "1", "--dt", "0"),
        ],
        ids=["n-below-guard", "zero-dt"],
    )
    def test_suite_ignores_flags_it_does_not_use(self, args):
        result = run_cli(*args)
        assert result.returncode == 0
        assert "spectrum_closure" in result.stdout
        assert result.stderr == ""

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "x"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        result = run_cli("spectrum", "--system", "do", "--a", "1", "--tol", tol)
        assert result.returncode == 2
        assert result.stderr.startswith("usage: sincoord")
        assert (
            f"argument --tol: expected a finite number >= 0, got {tol!r}"
            in result.stderr
        )
        assert result.stdout == ""

    def test_zero_tolerance_is_valid(self, capsys):
        assert cli.main(["spectrum", "--system", "do", "--a", "1", "--tol", "0"]) == 0
        assert "0.0e+00  PASS" in capsys.readouterr().out


SWEEP_VALUES = ("1e-300", "1e-8", "1", "1e150", "1e308", "inf")
# aw at small q, where the levels stay finite but R0(E) ~ E^2 or R1^2 can
# overflow on the truncated spectrum; q near 1 is left out, since a
# classical check there takes seconds
AW_SWEEP_Q = ("1e-300", "1e-8", "1e-5", "1e-3", "0.05", "0.5")
AW_SWEEP_A = ("0,0,0,0", "0.999,0.5,-0.999,0.1", "1e-300,-1e-300,0.5,0.5")


@pytest.mark.parametrize(
    "suite", ["spectrum", "ladder", "heisenberg", "classical", "coherent"]
)
@pytest.mark.parametrize(
    "system",
    [("pt", "--g", v, "--h", "1") for v in SWEEP_VALUES]
    + [("pt", "--g", "1", "--h", v) for v in SWEEP_VALUES]
    + [("do", "--a", v) for v in SWEEP_VALUES]
    + [
        ("aw", f"--a={a}", "--q", q, "--states=1")
        for q in AW_SWEEP_Q for a in AW_SWEEP_A
    ],
    ids=lambda system: "-".join(system),
)
def test_extreme_parameters_end_in_a_documented_outcome(system, suite, capsys):
    """Tiny, huge and infinite pt and do parameters, and aw at small q, exit
    0, 1 or 2 without a traceback or a numpy warning, and only an exit 2
    writes to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([suite, "--system", *system])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert caught == []
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["ladder", "--system", "pt", "--g", "6.5e-129", "--h", "5.7e-62"],
        ["coherent", "--system", "do", "--a", "2.35e285", "--lambda=1.5e125-4.2e125j"],
        ["spectrum", "--system", "aw", "--a=-0.78,-0.11,-0.78,0.087", "--q", "3.8e-126"],
        ["heisenberg", "--system", "pt", "--g", "1", "--h", "1", "--t", "1e308"],
    ],
    ids=lambda argv: argv[0],
)
def test_floating_point_faults_end_in_one_error_line(argv, capsys):
    """An overflow or invalid operation inside the suite is refused by a
    typed error, and no numpy warning comes ahead of its one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and caught == [] and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("a", ["1e169", "1e200", "1e300"])
def test_do_classical_at_a_huge_a_reaches_a_verdict(a, capsys):
    """do's eta'' is exactly 0, so {H, {H, eta}} has no (dH/dp)^2 eta'' term
    to form as inf * 0 where (dH/dp)^2 overflows: poisson_closure passes,
    and the absolute flow deviation fails (ROADMAP item 7)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["classical", "--system", "do", "--a", a, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1 and caught == [] and captured.err == ""
    checks = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    assert [name for name, c in checks.items() if not c["pass"]] == ["classical_closed_vs_flow"]
    assert checks["poisson_closure"]["max_residual"] <= 6.7e-16


@pytest.mark.parametrize(
    "argv, level",
    [
        (["heisenberg", "--system", "aw", "--a=0,0,0,0", "--q", "1e-8"], 19),
        (["ladder", "--system", "aw", "--a=0,0,0,0", "--q", "1e-8"], 19),
        (["coherent", "--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", "1e-3"], 51),
        (["ladder", "--system", "aw", "--a=0,0,0,0", "--q", "1e-5", "--n", "31"], 30),
    ],
    ids=["heisenberg", "ladder", "coherent", "frequency-pair"],
)
def test_closure_overflow_on_finite_levels_is_refused(argv, level, capsys):
    """The first level where R0, R1, R-1 or the frequency pair overflows is
    named before anything is built from it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and caught == [] and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"at level E_{level} " in captured.err
    assert "overflows" in captured.err


@pytest.mark.parametrize("a", ["1e-16", "1e-17", "1e-300"])
def test_coherent_do_at_tiny_a_passes(a, capsys):
    # C_1 = a is formed exactly, so the 1F1 comparison keeps its digits
    assert cli.main(["coherent", "--system", "do", "--a", a]) == 0
    assert capsys.readouterr().err == ""


class TestDeterminism:
    def test_json_reports_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            result = run_cli(
                "classical", "--system", "pt", "--g", "2", "--h", "3",
                "--seed", "42", "--format", "json", "--out", str(path),
            )
            assert result.returncode == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stdout_json_matches_file_json(self, tmp_path):
        out = tmp_path / "report.json"
        in_file = run_cli(
            "spectrum", "--system", "do", "--a", "1",
            "--format", "json", "--out", str(out),
        )
        on_stdout = run_cli("spectrum", "--system", "do", "--a", "1", "--format", "json")
        assert in_file.returncode == 0 and on_stdout.returncode == 0
        assert out.read_text() == on_stdout.stdout


def config_args(form, path):
    """`--config PATH` or `--config=PATH`."""
    return ("--config", str(path)) if form == "space" else (f"--config={path}",)


class TestConfigFile:
    @pytest.mark.parametrize("form", ["space", "equals"])
    def test_key_value_defaults(self, tmp_path, form):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "system = pt\n"
            "g = 2\n"
            "h = 3\n"
            "# a comment line\n"
            "nmax = 30\n"
        )
        result = run_cli("spectrum", *config_args(form, config))
        assert result.returncode == 0
        assert "g=2" in result.stdout and "h=3" in result.stdout

    @pytest.mark.parametrize("form", ["space", "equals"])
    def test_flags_override_config(self, tmp_path, form):
        config = tmp_path / "sweep.cfg"
        config.write_text("system = pt\ng = 2\nh = 3\n")
        result = run_cli("spectrum", *config_args(form, config), "--g", "1")
        assert result.returncode == 0
        assert "g=1" in result.stdout

    @pytest.mark.parametrize("form", ["space", "equals"])
    def test_file_values_apply_when_flags_are_complete(self, tmp_path, form):
        config = tmp_path / "sweep.cfg"
        config.write_text("tol = 1e-30\n")
        result = run_cli(
            "spectrum", "--system", "pt", "--g", "1", "--h", "1",
            *config_args(form, config),
        )
        assert result.returncode == 0
        assert "1.0e-30" in result.stdout

    @pytest.mark.parametrize("line", ["bogus = 1", "sys = pt", "config = x", "g 1"])
    def test_unknown_key_exits_two(self, tmp_path, line):
        # keys are exact long flag names: no abbreviation, and no --config
        config = tmp_path / "sweep.cfg"
        config.write_text(f"# header\n{line}\n")
        result = run_cli(
            "spectrum", "--system", "do", "--a", "1", "--config", str(config)
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {config}:2: " + (
            "expected key = value\n" if "=" not in line
            else f"unknown key {line.split()[0]!r}\n"
        )
        assert result.stdout == ""

    def test_file_that_is_not_utf8_exits_two(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_bytes(b"system = do\na = 1\xff\n")
        result = run_cli("spectrum", "--config", str(config))
        assert result.returncode == 2
        assert result.stderr.startswith("error: cannot read config file:")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "line, flag, value",
        [("system = xx", "--system", "xx"), ("format = xml", "--format", "xml")],
    )
    def test_file_value_outside_choices_exits_two_before_any_check(
        self, tmp_path, line, flag, value
    ):
        config = tmp_path / "sweep.cfg"
        config.write_text(f"{line}\n")
        result = run_cli(
            "spectrum", "--system", "do", "--a", "1", "--config", str(config)
        )
        assert result.returncode == 2
        assert f"argument {flag}: invalid choice: '{value}'" in result.stderr
        assert result.stdout == ""

    def test_lambda_key_reaches_coherent(self, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("system = do\na = 1\nlambda = 0.1+0.05j\n")
        result = run_cli("coherent", "--config", str(config), "--format", "json")
        assert result.returncode == 0
        details = json.loads(result.stdout)["checks"][0]["details"]
        assert (details["lam_real"], details["lam_imag"]) == (0.1, 0.05)

    def test_config_values_do_not_outlive_their_run(self, tmp_path, capsys):
        # main reuses one parser, so a config file's values must stay in
        # that run's namespace
        config = tmp_path / "sweep.cfg"
        config.write_text("format = json\n")
        plain = ("spectrum", "--system", "do", "--a", "1")
        assert cli.main([*plain, "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["system"] == "do"
        assert cli.main(list(plain)) == 0
        assert capsys.readouterr().out.startswith("system=do a=1\n")


class TestParser:
    def test_no_suite_exits_two_with_usage(self):
        result = run_cli()
        assert result.returncode == 2
        assert result.stderr.startswith("usage: sincoord")

    def test_unknown_suite_exits_two_with_usage(self):
        result = run_cli("bogus", "--system", "do", "--a", "1")
        assert result.returncode == 2
        assert result.stderr.startswith("usage: sincoord")
        assert "invalid choice: 'bogus'" in result.stderr

    def test_suite_help_exits_zero(self):
        result = run_cli("ladder", "--help")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: sincoord")

    def test_flags_may_precede_the_suite(self, capsys):
        assert cli.main(["--system", "do", "--a", "1", "spectrum"]) == 0
        before = capsys.readouterr().out
        assert cli.main(["spectrum", "--system", "do", "--a", "1"]) == 0
        assert capsys.readouterr().out == before

    def test_one_argument_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser()
        assert len(built) == 1
        built.clear()
        assert cli.main(["spectrum", "--system", "do", "--a", "1"]) == 0
        assert built == []


def test_startup_imports_neither_fractions_decimal_nor_the_formatter():
    # aw's exact constants are integer ratios, so a start pays for neither,
    # and only an export builds the trajectory formatter's tables
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    names = "{'fractions', 'decimal', 'sincoord._g17'}"
    code = f"import sys, sincoord.cli; print(sorted({names} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


class Flag(enum.IntFlag):
    ON = 1


class Count(enum.IntEnum):
    TWO = 2


class Name(str, enum.Enum):
    X = "x"


def _reference_render_json(obj, indent=0):
    """The dict-first renderer quoting with `json.dumps` that
    `cli._render_json` replaced, kept as the reference for its bytes."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_reference_render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_reference_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    return json.dumps(str(obj))


class TestReportDocument:
    @pytest.mark.parametrize(
        "details",
        [
            {"x": np.float64(0.1), "n": np.int64(7), "ok": np.bool_(True), "no": np.bool_(False)},
            {"pair": (1, 2.5), "nested": ((), [(-1,)]), "empty": {}, "none": []},
            {"zero": -0.0, "tiny": 5e-324, "huge": 1e308, "inf": math.inf, "nan": math.nan},
            {"quote": 'say "hi"', "slash": "a\\b/c", "control": "\t\n\x00\x1f\x7f",
             "text": "\u00e9\u4e2d\U0001f600", "key \"\u00e9\\": None},
            {1: True, 2.5: False, (3, 4): 10**30, None: [None, object]},
            {"flag": Flag.ON, "count": Count.TWO, "name": Name.X,
             "ordered": collections.OrderedDict(a=1.5), "user": collections.UserDict(a=1.5)},
        ],
        ids=["numpy", "sequences", "floats", "strings", "odd-keys", "subclasses"],
    )
    def test_renders_the_bytes_of_the_recursive_renderer(self, details):
        import sincoord as sc

        spec = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)
        args = cli.build_parser().parse_args(["heisenberg", "--n", "20"])
        report = CheckReport("check", 1e-12, 1e-9, True, details)
        document = cli._report_document(spec, args, [report, report])
        assert cli._render_json(document) == _reference_render_json(document)
        assert document["params"] == dataclasses.asdict(spec)

    def test_empty_report_list_renders_valid_json(self):
        import sincoord as sc

        args = cli.build_parser().parse_args(["spectrum"])
        text = cli._render_json(
            cli._report_document(sc.DeformedOscillator(1.0), args, [])
        )
        document = json.loads(text)
        assert document["checks"] == []

    @pytest.mark.parametrize("residual", [float("nan"), float("inf")])
    def test_non_finite_residual_has_no_verdict(self, residual):
        import sincoord as sc

        with pytest.raises(sc.NonFiniteResidual, match="check su11 has no verdict"):
            sc.make_report("su11", [(residual, 1.0)], 1e-12)


def _readme_cli_examples():
    """The `sincoord ...` lines of README.md's first sh block that has any,
    with their backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        lines = block.replace("\\\n", " ").splitlines()
        examples = [line.split() for line in lines if line.startswith("sincoord ")]
        if examples:
            return examples
    raise AssertionError("README.md has no sh block of sincoord examples")


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    examples = _readme_cli_examples()
    assert len(examples) == 5
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert cli.main(argv[1:]) == 0, argv
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
    assert capsys.readouterr().err == ""

"""Command-line runner for the verification suites.

Every suite assembles one system from flags, runs the named checks,
emits a machine-readable report, and exits 0 only if everything passed
(1 on any failing check, 2 on configuration errors, out-of-range requests
and non-finite residuals).  The parsed flags are read directly, and each
value is checked once: by the parser (types and choices), by the family
dataclass, or by the library function that uses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import classical, coherent, heisenberg, operators, systems
from .errors import ConfigError, SincoordError
from .report import CheckReport, make_report
from .systems import AskeyWilson, DeformedOscillator, PoschlTeller, SystemSpec

SUITES = ("spectrum", "ladder", "heisenberg", "classical", "coherent", "all")


def run(
    spec: SystemSpec, args: argparse.Namespace, trajectories: list | None = None
) -> list[CheckReport]:
    """Run the suite `args.suite` (or `all`) over `spec` with the parsed flags.

    When `trajectories` is a list, the classical suite appends each flow
    state's (oracle Trajectory, closed-form values) pair to it.
    """
    suite, guard = args.suite, args.guard
    reports: list[CheckReport] = []

    def n_or(default: int) -> int:
        return args.n if args.n is not None else default

    if suite in ("spectrum", "all"):
        n_max = args.nmax if args.nmax is not None else min(40, spec.level_cap)
        reports.append(systems.check_spectrum_closure(spec, n_max))

    if suite in ("ladder", "all"):
        n = n_or(30)
        reports.append(operators.check_ladder_action(spec, n, guard))
        reports.append(operators.check_two_commutator(spec, n, guard))
        reports.append(operators.check_hermitian_conjugacy(spec, n, guard))
        reports.append(operators.check_ground_state_condition(spec, n, guard))
        if isinstance(spec, DeformedOscillator):
            reports.append(operators.check_su11(spec.a, n, guard))

    if suite in ("heisenberg", "all"):
        n = n_or(spec.heisenberg_n)
        reports.append(heisenberg.check_heisenberg(spec, n, guard, args.t))

    if suite in ("classical", "all"):
        if args.x0 is not None or args.p0 is not None:
            if args.x0 is None or args.p0 is None:
                raise ConfigError("x0 and p0 must be given together")
            states = [classical.ClassicalState(args.x0, args.p0)]
        else:
            states = classical.sample_states(spec, args.states, args.seed)
        reports.extend(
            classical.check_closed_vs_flow(
                spec, states, dt=args.dt, t_end=args.tend, trajectories=trajectories
            )
        )
        closure_states = classical.sample_states(spec, 50, args.seed)
        reports.append(classical.check_poisson_closure(spec, closure_states))
        if isinstance(spec, PoschlTeller):
            reports.append(classical.check_potential_reconstruction(spec.g, spec.h))

    if suite in ("coherent", "all"):
        truncation = n_or(64) - guard
        lam = args.lam if args.lam is not None else spec.coherent_lambda
        reports.append(coherent.check_eigenvalue(spec, lam, truncation, guard))
        if isinstance(spec, DeformedOscillator):
            xs = np.linspace(-5.0, 5.0, 20)
            reports.append(coherent.check_mp_hypergeometric(spec.a, lam, xs, truncation))

    if args.tol is not None:
        reports = [
            make_report(r.name, [(r.max_residual, 1.0)], args.tol, **r.details)
            for r in reports
        ]
    return reports


# ---------------------------------------------------------------------------
# report emission


def _fmt_float(value: float) -> str:
    return format(float(value), ".17g")


# json.dumps's quoting of a str (ASCII, with escapes), without its call
_quote = json.encoder.encode_basestring_ascii


def _render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed 17-significant-digit floats.

    Floats, a report's most common values, are tested first; no float is
    also a dict, list, tuple or int, so no value's branch depends on the
    order.
    """
    if isinstance(obj, float):
        return _fmt_float(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{_quote(str(k))}: {_render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    return _quote(str(obj))


def _params(spec: SystemSpec) -> dict:
    """The system's parameters: its dataclass fields, by name."""
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}


def _report_document(
    spec: SystemSpec, args: argparse.Namespace, reports: list[CheckReport]
) -> dict:
    return {
        "system": spec.tag,
        "params": _params(spec),
        "N": args.n if args.n is not None else 0,
        "G": args.guard,
        "checks": [
            {
                "name": r.name,
                "max_residual": r.max_residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "details": r.details,
            }
            for r in reports
        ],
    }


def emit_report(
    spec: SystemSpec, args: argparse.Namespace, reports: list[CheckReport]
) -> None:
    """Write the report document in `args.format` (json, csv or a text
    table) to `args.out`, or to stdout when no path is given."""
    if args.format == "json":
        text = _render_json(_report_document(spec, args, reports)) + "\n"
    elif args.format == "csv":
        rows = [
            f"{r.name},{_fmt_float(r.max_residual)},"
            f"{_fmt_float(r.tolerance)},{str(r.passed).lower()}"
            for r in reports
        ]
        text = "\n".join(["name,max_residual,tolerance,pass", *rows]) + "\n"
    else:
        text = format_text_table(spec, reports)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def format_text_table(spec: SystemSpec, reports: list[CheckReport]) -> str:
    head = f"system={spec.tag}"
    for key, value in _params(spec).items():
        head += f" {key}={value:g}"
    lines = [head, f"{'check':<28}{'max_residual':>14}{'tolerance':>12}  status"]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<28}{r.max_residual:>14.3e}{r.tolerance:>12.1e}  {status}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a complex number: {exc}")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sincoord",
        description="run closed-form identity checks for the solvable systems",
    )
    parser.add_argument("suite", choices=SUITES)
    # required-ness is checked after parsing so a --config file can supply it
    parser.add_argument("--system", choices=("pt", "do", "aw"), default=None)
    parser.add_argument("--g", type=float, help="pt coupling g")
    parser.add_argument("--h", type=float, help="pt coupling h")
    parser.add_argument(
        "--a", type=_csv_floats,
        help="do parameter a, or aw parameters a1,a2,a3,a4",
    )
    parser.add_argument("--q", type=float, help="aw base q")
    parser.add_argument("--n", type=int, default=None, help="matrix dimension")
    parser.add_argument("--guard", type=int, default=4, help="guard band size")
    parser.add_argument("--nmax", type=int, default=None, help="spectrum levels")
    parser.add_argument(
        "--t", type=_csv_floats, default=heisenberg.DEFAULT_T_GRID, help="time samples"
    )
    parser.add_argument("--lambda", dest="lam", type=_parse_complex, default=None)
    parser.add_argument("--dt", type=float, default=1e-3)
    parser.add_argument("--tend", type=float, default=None)
    parser.add_argument("--x0", type=float, default=None)
    parser.add_argument("--p0", type=float, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--states", type=int, default=5)
    parser.add_argument("--tol", type=_tolerance, default=None, help="tolerance override")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--out", default=None, help="report (or trajectory) path")
    parser.add_argument("--config", default=None, help="key = value defaults file")
    return parser


# built once per process: building takes about ten times as long as parsing
_PARSER = build_parser()


def _config_tokens(path: str) -> list[str]:
    """Each `key = value` line of a config file as the token `--key=value`.

    A key must be the exact long name of a flag other than --config, so the
    parser gives each value the type and choice checks of its flag.
    """
    keys = {
        option[2:] for option in _PARSER._option_string_actions
        if option.startswith("--")
    } - {"config", "help"}
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in keys:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                tokens.append(f"--{key}={value.strip()}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file: {path}: {exc}")
    return tokens


def _build_spec(args: argparse.Namespace) -> SystemSpec:
    if args.system is None:
        raise ConfigError("--system is required (as a flag or config-file key)")
    if args.system == "pt":
        if args.g is None or args.h is None:
            raise ConfigError("pt needs --g and --h")
        return PoschlTeller(args.g, args.h)
    if args.system == "do":
        if args.a is None or len(args.a) != 1:
            raise ConfigError("do needs --a with a single value")
        return DeformedOscillator(args.a[0])
    if args.a is None or len(args.a) != 4 or args.q is None:
        raise ConfigError("aw needs --q and --a a1,a2,a3,a4")
    return AskeyWilson(*args.a, q=args.q)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _PARSER.parse_args(argv)
        if args.config is not None:
            # the file's tokens go first: the parser keeps a flag's last
            # value, so explicit flags win
            args = _PARSER.parse_args(_config_tokens(args.config) + list(argv))
        spec = _build_spec(args)
        # only a trajectory export, which replaces the csv report, keeps one
        export = (
            args.suite == "classical" and args.format == "csv"
            and args.x0 is not None and args.out is not None
        )
        trajectories = [] if export else None
        # a floating-point fault ends in a typed refusal: no warning precedes it
        with np.errstate(all="ignore"):
            reports = run(spec, args, trajectories)
            if export:
                traj, closed = trajectories[0]
                classical.write_trajectory_csv(
                    args.out, traj.times, closed, traj.eta_values
                )
        if not export:
            emit_report(spec, args, reports)
        if args.out is not None:
            sys.stdout.write(format_text_table(spec, reports))
        return 0 if all(r.passed for r in reports) else 1
    except (SincoordError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

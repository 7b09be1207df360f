"""Command-line runner for the verification suites.

Every suite assembles one system from flags, runs the named checks,
emits a machine-readable report, and exits 0 only if everything passed
(1 on any failing check, 2 on configuration errors).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import classical, coherent, heisenberg, operators, systems
from .errors import ConfigError, SincoordError
from .report import CheckReport
from .systems import AskeyWilson, DeformedOscillator, PoschlTeller, SystemSpec

SUITES = ("spectrum", "ladder", "heisenberg", "classical", "coherent", "all")


@dataclasses.dataclass
class RunConfig:
    """Everything one suite invocation needs."""

    system: SystemSpec
    n_dim: int | None = None
    guard: int = 4
    t_samples: tuple[float, ...] = heisenberg.DEFAULT_T_GRID
    lam: complex | None = None
    classical_dt: float = 1e-3
    seed: int = 42
    n_states: int = 5
    n_max: int | None = None
    tol: float | None = None
    x0: float | None = None
    p0: float | None = None
    t_end: float | None = None

    def __post_init__(self):
        if self.n_dim is not None and self.n_dim < self.guard + 2:
            raise ConfigError(f"need N >= G + 2, got N={self.n_dim}, G={self.guard}")
        if self.classical_dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.classical_dt}")


def _default_n(spec: SystemSpec, suite: str) -> int:
    if suite == "coherent":
        return 64
    if suite == "heisenberg":
        return spec.heisenberg_n
    return 30


def run(
    config: RunConfig, suite: str, trajectories: list | None = None
) -> list[CheckReport]:
    """Run one suite (or `all`) over the configured system.

    When `trajectories` is a list, the classical suite appends each flow
    state's (oracle Trajectory, closed-form values) pair to it.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}")
    spec = config.system
    guard = config.guard
    reports: list[CheckReport] = []

    def n_for(kind: str) -> int:
        return config.n_dim if config.n_dim is not None else _default_n(spec, kind)

    if suite in ("spectrum", "all"):
        n_max = config.n_max if config.n_max is not None else min(40, spec.level_cap)
        reports.append(systems.check_spectrum_closure(spec, n_max))

    if suite in ("ladder", "all"):
        n = n_for("ladder")
        reports.append(operators.check_ladder_action(spec, n, guard))
        reports.append(operators.check_two_commutator(spec, n, guard))
        reports.append(operators.check_hermitian_conjugacy(spec, n, guard))
        reports.append(operators.check_ground_state_condition(spec, n, guard))
        if isinstance(spec, DeformedOscillator):
            reports.append(operators.check_su11(spec, n, guard))

    if suite in ("heisenberg", "all"):
        n = n_for("heisenberg")
        reports.append(
            heisenberg.check_heisenberg(spec, n, guard, config.t_samples)
        )

    if suite in ("classical", "all"):
        if config.x0 is not None or config.p0 is not None:
            if config.x0 is None or config.p0 is None:
                raise ConfigError("x0 and p0 must be given together")
            states = [classical.ClassicalState(config.x0, config.p0)]
        else:
            states = classical.sample_states(spec, config.n_states, config.seed)
        reports.extend(
            classical.check_closed_vs_flow(
                spec, states, dt=config.classical_dt, t_end=config.t_end,
                trajectories=trajectories,
            )
        )
        closure_states = classical.sample_states(spec, 50, config.seed)
        reports.append(classical.check_poisson_closure(spec, closure_states))
        if isinstance(spec, PoschlTeller):
            reports.append(classical.check_potential_reconstruction(spec))

    if suite in ("coherent", "all"):
        n = n_for("coherent")
        truncation = n - guard
        lam = config.lam if config.lam is not None else spec.coherent_lambda
        reports.append(coherent.check_eigenvalue(spec, lam, truncation, guard))
        if isinstance(spec, DeformedOscillator):
            xs = np.linspace(-5.0, 5.0, 20)
            reports.append(
                coherent.check_mp_hypergeometric(spec.a, lam, xs, truncation)
            )

    if config.tol is not None:
        reports = [
            CheckReport(
                r.name, r.max_residual, config.tol,
                r.max_residual <= config.tol, r.details,
            )
            for r in reports
        ]
    return reports


# ---------------------------------------------------------------------------
# report emission


def _fmt_float(value: float) -> str:
    return format(float(value), ".17g")


def _render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {_render_json(v, indent + 1)}"
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
    if isinstance(obj, float):
        return _fmt_float(obj)
    return json.dumps(str(obj))


def _report_document(config: RunConfig, reports: list[CheckReport]) -> dict:
    return {
        "system": config.system.tag,
        "params": dataclasses.asdict(config.system),
        "N": config.n_dim if config.n_dim is not None else 0,
        "G": config.guard,
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
    config: RunConfig, reports: list[CheckReport], fmt: str, path: str | None
) -> None:
    """Write the report document as json, csv, or a text table."""
    if fmt == "json":
        text = _render_json(_report_document(config, reports)) + "\n"
    elif fmt == "csv":
        lines = ["name,max_residual,tolerance,pass"]
        for r in reports:
            lines.append(
                f"{r.name},{_fmt_float(r.max_residual)},"
                f"{_fmt_float(r.tolerance)},{str(r.passed).lower()}"
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "text":
        text = format_text_table(config, reports)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def format_text_table(config: RunConfig, reports: list[CheckReport]) -> str:
    head = f"system={config.system.tag}"
    for key, value in dataclasses.asdict(config.system).items():
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
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="text")
    parser.add_argument("--out", default=None, help="report (or trajectory) path")
    parser.add_argument("--config", default=None, help="key = value defaults file")
    return parser


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """Each `key = value` line of a config file as the token `--key=value`.

    A key must be the exact long name of a flag other than --config, so the
    parser gives each value the type and choice checks of its flag.
    """
    keys = {
        option[2:] for option in parser._option_string_actions
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
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            # the file's tokens go first: the parser keeps a flag's last
            # value, so explicit flags win
            args = parser.parse_args(_config_tokens(parser, args.config) + list(argv))
        spec = _build_spec(args)
        config = RunConfig(
            system=spec,
            n_dim=args.n,
            guard=args.guard,
            t_samples=tuple(args.t),
            lam=args.lam,
            classical_dt=args.dt,
            seed=args.seed,
            n_states=args.states,
            n_max=args.nmax,
            tol=args.tol,
            x0=args.x0,
            p0=args.p0,
            t_end=args.tend,
        )
        trajectories: list = []
        reports = run(config, args.suite, trajectories)
        if (
            args.suite == "classical"
            and args.out is not None
            and args.format == "csv"
            and args.x0 is not None
            and args.p0 is not None
        ):
            # trajectory export replaces the csv report file
            traj, closed = trajectories[0]
            classical.write_trajectory_csv(
                args.out, traj.times, closed, traj.eta_values
            )
            sys.stdout.write(format_text_table(config, reports))
        elif args.out is not None:
            emit_report(config, reports, args.format, args.out)
            sys.stdout.write(format_text_table(config, reports))
        else:
            emit_report(config, reports, args.format, None)
        return 0 if all(r.passed for r in reports) else 1
    except (SincoordError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

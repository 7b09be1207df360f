"""Compare the CLI's output under two source trees, byte for byte.

    python tools/compare_reports.py OLD_TREE NEW_TREE

Each tree is a checkout holding `src/sincoord`.  One fresh interpreter per
tree runs every invocation of the corpus through `sincoord.cli.main`, with
every `lru_cache` in the package emptied and the warning registries reset
before each invocation.  Module constants persist across the corpus, as in
any one process: the parser, the export formatter's tables and any powers
of ten it has already computed.  Stdout, stderr, the exit code and the
bytes of the `--out` file are compared; every invocation where one differs
is printed.  Exits 0 when none differs, 1 when one does and 2 when a tree
cannot be run.

The corpus is the 8 reference systems x 6 suites x 5 variants, a
`--tend 10` trajectory export per system (two for aw, from either side of
x = pi/2), two `--tend 20` exports (do and pt) whose t, and do's eta,
reach the fixed-notation decade 1, four aw and four do `ladder` runs at
the edges of their ground-state densities, four aw runs at the edges of
its diagonal recurrence coefficient B_n, nine aw runs (`ladder`, `coherent` and
`classical --states 1`) at parameter bits that stretch its exact integer-ratio
constants, two do `ladder` runs past N 2048, `heisenberg`
and `coherent` at N 512 for one system per family, JSON `ladder` at N 512
for pt and do and at N 64 for aw, two do `coherent` runs
at the tail sizes of the benchmark's `matrix` workload (one with a complex
lambda), three do `coherent` runs whose coefficients underflow to 0.0 where
P_n overflows, the README's exit-2 examples, two do `ladder` runs at an a so
small that the quadrature step underflows, a flow that leaves pt's domain,
one flow per family whose error is raised in an RK4 stage, two do flows
whose step ends at a position that is not finite, five runs with a
floating-point fault inside the suite (four refused, among them the
README's `--t 1e308`, and do's `classical` at a 1e200, which reaches a
verdict), seven refusals of a real parameter outside its open range, a
pt state whose R0(H0) is 0 and an aw `ladder` whose level E_39 overflows,
and the known outcomes of tests/test_known_outcomes.py (runs that fail a
check or are refused), read from its `ROWS`.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SYSTEMS = (
    ("--system", "pt", "--g", "1", "--h", "1"),
    ("--system", "pt", "--g", "2", "--h", "3"),
    ("--system", "pt", "--g", "0.7", "--h", "1.3"),
    ("--system", "do", "--a", "1"),
    ("--system", "do", "--a", "1.3"),
    ("--system", "do", "--a", "0.4"),
    ("--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", "0.5"),
    ("--system", "aw", "--a=0.3,-0.2,0.4,0.1", "--q", "0.6"),
)
SUITES = ("spectrum", "ladder", "heisenberg", "classical", "coherent", "all")
VARIANTS = (
    ("--format", "json"),
    ("--n", "64"),
    ("--tol", "1e-12"),
    ("--format", "text"),
    ("--format", "csv", "--out", "report.csv"),
)
# initial positions inside each family's domain; aw's second lies past pi/2,
# where cos x <= 0 and its flow kernel forms the pairs' real parts the other way
EXPORT_X0 = {"pt": ("0.7",), "do": ("0.5",), "aw": ("1.2", "2.2")}
# t from 10 to 20, and do's eta near 12, are fixed notation with the digits
# of decade 1 moved over the point in the export's rows
FIXED_DECADE_EXPORTS = tuple(
    ("classical", *system, f"--x0={x0}", "--p0=0.3", "--tend", "20",
     "--format", "csv", "--out", "trajectory.csv")
    for system, x0 in ((("--system", "do", "--a", "1"), "12"),
                       (("--system", "pt", "--g", "1.3", "--h", "2.1"), "0.8"))
)
# aw's density is a product of factors |1 - c q^k e^(i theta)|^2: these put
# a_i near +-1, q small, q near 1, and q 0.997, just below the 0.998 that
# EXIT_2 holds as refused
DENSITY_EDGES = (
    ("ladder", "--system", "aw", "--a=0.999,0.5,-0.999,0.1", "--q", "0.5"),
    ("ladder", "--system", "aw", "--a=-0.999,-0.9,0.1,0", "--q", "0.05"),
    ("ladder", "--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", "0.99"),
    ("ladder", "--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", "0.997"),
)
# aw's B_n with every nonzero a_i tiny, where it is tiny itself, and with a
# pair of opposite a_i whose products underflow
B_N_EDGES = (
    *((suite, "--system", "aw", "--a=1e-8,0,0,0", "--q", "0.5")
      for suite in ("ladder", "heisenberg", "coherent")),
    ("ladder", "--system", "aw", "--a=1e-300,-1e-300,0.5,0.5", "--q", "0.5"),
)
# aw's exact constants (e1, e3, e4 of B_n and the flow's pair constants) are
# integer ratios over the common denominator of a1..a4: a subnormal a_i
# (denominator 2^1074), a -0.0 a_i and the largest a_i below 1, with the
# residuals' 17 digits
EXACT_CONSTANT_EDGES = tuple(
    (*suite, "--system", "aw", a, "--q", "0.5", "--format", "json")
    for a in ("--a=5e-324,0.5,-0.5,0.1", "--a=-0.0,0.2,-0.1,0.3",
              "--a=0.9999999999999999,0.5,-0.5,0.1")
    for suite in (("ladder",), ("coherent",), ("classical", "--states", "1"))
)
# do's density is |Gamma(a + ix)|^2: a 0.016 has the largest rule admitted,
# 0.45 and 0.5 lie either side of the a < 1/2 shift, and 90 is below the
# 92 at which EXIT_2 holds h_21 as leaving double range
DO_DENSITY_EDGES = tuple(
    ("ladder", "--system", "do", "--a", a) for a in ("0.016", "0.45", "0.5", "90")
)
# su(1,1)'s [a'-, a'+] on five diagonals past the 2048 at which its dense
# product was refused: a 1 passes, and a 1.3 fails on a rounding floor
SU11_LARGE_N = tuple(
    ("ladder", "--system", "do", "--a", a, "--n", "2049") for a in ("1", "1.3")
)
# the banded operators at the largest N of the benchmark's `matrix` workload,
# and do's coherent series and 1F1 sum at the N 304-431 that set its tail
MATRIX_N = tuple(
    (suite, *system, "--n", "512", "--format", "json")
    for system in (SYSTEMS[1], SYSTEMS[4], SYSTEMS[6])
    for suite in ("heisenberg", "coherent")
) + (
    ("coherent", "--system", "do", "--a", "3.7", "--n", "431", "--lambda", "0.25+0.1j",
     "--format", "json"),
    ("coherent", "--system", "do", "--a", "0.7", "--n", "304", "--format", "json"),
)
# the ladder pair's 17 digits (`ladder_action`, `hermitian_conjugacy`) at
# the `matrix` sizes: N 512 for pt and do, N 64 for aw
LADDER_MATRIX_N = tuple(
    ("ladder", *system, "--n", n, "--format", "json")
    for system, n in ((SYSTEMS[1], "512"), (SYSTEMS[4], "512"), (SYSTEMS[6], "64"))
)
# do's coherent coefficients underflow to 0.0 where P_n overflows: the 1F1
# sum stops at the last nonzero coefficient, before 0.0 * inf would be NaN
COHERENT_PAST_LAST_COEFFICIENT = (
    ("coherent", "--system", "do", "--a", "1e150"),
    ("coherent", "--system", "do", "--a", "50000", "--n", "215"),
    ("coherent", "--system", "do", "--a", "500", "--n", "4004"),
)
EXIT_2 = (
    ("ladder", "--system", "pt", "--g", "1", "--h", "1", "--guard", "0"),
    ("heisenberg", "--system", "pt", "--g", "1", "--h", "1", "--t", "nan"),
    ("heisenberg", "--system", "do", "--a", "1", "--t="),
    ("classical", "--system", "do", "--a", "1", "--x0", "0.5", "--p0", "0.3",
     "--tend", "-1"),
    ("coherent", "--system", "pt", "--g", "1", "--h", "1", "--lambda", "nan"),
    ("coherent", "--system", "do", "--a", "1", "--lambda", "1e200"),
    ("coherent", "--system", "pt", "--g", "1", "--h", "1", "--n", "8"),
    ("classical", "--system", "do", "--a", "1", "--x0", "0", "--p0", "800"),
    ("classical", "--system", "do", "--a", "1", "--states", "0"),
    ("classical", "--system", "do", "--a", "1", "--seed", "-1"),
    ("classical", "--system", "do", "--a", "1", "--x0", "0.5", "--p0", "0.3",
     "--dt", "1e-300", "--tend", "1"),
    ("classical", "--system", "do", "--a", "1", "--x0", "0.5", "--p0", "0.3",
     "--tend", "1e-9"),
    ("classical", "--system", "pt", "--g", "1e4", "--h", "1e4", "--x0=0.7",
     "--p0=0.1"),
    ("ladder", "--system", "aw", "--a", "0.1,0.2,-0.1,0.3", "--q", "0.998"),
    ("heisenberg", "--system", "aw", "--a=0,0,0,0", "--q", "1e-8"),
    ("ladder", "--system", "pt", "--g", "inf", "--h", "1"),
    ("coherent", "--system", "do", "--a", "1e150", "--lambda", "1e5"),
    ("ladder", "--system", "do", "--a", "1", "--n", "5"),
    ("classical", "--system", "do", "--a", "1", "--dt", "0"),
    ("ladder", "--system", "do", "--a", "1", "--n", "100000000"),
    ("classical", "--system", "pt", "--g", "1e-8", "--h", "1"),
    ("ladder", "--system", "do", "--a", "0.015"),
    ("ladder", "--system", "do", "--a", "92"),
    # a / 10 underflows the rule's step to 0, or half / step overflows
    ("ladder", "--system", "do", "--a", "5e-324"),
    ("ladder", "--system", "do", "--a", "1e-310"),
    # the error of these three is raised in an RK4 stage, not at the accepted point
    ("classical", "--system", "pt", "--g", "1", "--h", "1", "--x0=1e-150",
     "--p0=0.1", "--tend", "1"),
    ("classical", "--system", "aw", "--a=0.3,-0.2,0.4,0.1", "--q", "0.6",
     "--x0=1e-130", "--p0=0.1", "--tend", "1"),
    ("classical", "--system", "do", "--a", "1", "--x0=0.5", "--p0=700", "--tend", "1"),
    # a partial overflows in a stage and the step ends at x = nan, then -inf
    ("classical", "--system", "do", "--a", "1", "--x0=0", "--p0=700"),
    ("classical", "--system", "do", "--a", "1", "--x0=1e308", "--p0=0.1"),
)
# a floating-point fault inside the suite (an overflow or an invalid
# operation) ends in a typed refusal or a verdict, with no numpy warning
# ahead of it; do's classical suite at a 1e200 leaves out the eta'' term
# (eta'' is 0) whose (dH/dp)^2 overflows, and reaches a verdict
FLOATING_POINT_FAULTS = (
    ("ladder", "--system", "pt", "--g", "6.5e-129", "--h", "5.7e-62"),
    ("classical", "--system", "do", "--a", "1e200"),
    ("coherent", "--system", "do", "--a", "2.35e285", "--lambda=1.5e125-4.2e125j"),
    ("spectrum", "--system", "aw", "--a=-0.78,-0.11,-0.78,0.087", "--q", "3.8e-126"),
    ("heisenberg", "--system", "pt", "--g", "1", "--h", "1", "--t", "1e308"),
)

# a real parameter that is 0, NaN, one of its bounds or infinite is refused by
# name, with its open range
REAL_PARAMETER_REFUSALS = (
    ("spectrum", "--system", "pt", "--g", "0", "--h", "1"),
    ("spectrum", "--system", "pt", "--g", "nan", "--h", "1"),
    ("spectrum", "--system", "do", "--a", "0"),
    ("spectrum", "--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", "1"),
    ("spectrum", "--system", "aw", "--a=1,0,0,0", "--q", "0.5"),
    ("classical", "--system", "do", "--a", "1", "--tend", "inf"),
    ("classical", "--system", "do", "--a", "1", "--dt", "nan"),
)

# R0(H0) = 0 at the floor of a pt well whose (g + h)^2 underflows, and an aw
# level that itself overflows double precision
ORBIT_AND_LEVEL_REFUSALS = (
    ("classical", "--system", "pt", "--g", "1e-200", "--h", "1e-200",
     "--x0=0.7853981633974483", "--p0=0"),
    ("ladder", "--system", "aw", "--a=0,0,0,0", "--q", "1e-8", "--n", "64"),
)


def known_outcomes() -> tuple[tuple[str, ...], ...]:
    """The invocations of tests/test_known_outcomes.py, in the order of its
    `ROWS`, read from the literal without importing the test module."""
    path = Path(__file__).resolve().parent.parent / "tests" / "test_known_outcomes.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ROWS":
            return tuple(tuple(row[1].split()) for row in ast.literal_eval(node.value))
    raise RuntimeError(f"{path} assigns no ROWS")


# Address space of a worker: a request that allocated before its refusal
# ends in MemoryError instead of exhausting the machine.
ADDRESS_SPACE = 4 << 30


def default_corpus() -> list[list[str]]:
    corpus = [
        [suite, *system, *variant]
        for system in SYSTEMS
        for suite in SUITES
        for variant in VARIANTS
    ]
    corpus += [
        ["classical", *system, "--x0", x0, "--p0", "0.3",
         "--tend", "10", "--format", "csv", "--out", "trajectory.csv"]
        for system in SYSTEMS
        for x0 in EXPORT_X0[system[1]]
    ]
    edges = (
        FIXED_DECADE_EXPORTS + DENSITY_EDGES + B_N_EDGES + EXACT_CONSTANT_EDGES
        + DO_DENSITY_EDGES + SU11_LARGE_N + MATRIX_N + LADDER_MATRIX_N + COHERENT_PAST_LAST_COEFFICIENT
        + EXIT_2 + FLOATING_POINT_FAULTS + REAL_PARAMETER_REFUSALS
        + ORBIT_AND_LEVEL_REFUSALS + known_outcomes()
    )
    return corpus + [list(argv) for argv in edges]


def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def worker(src: str, corpus_path: str, results_path: str) -> None:
    """Run the corpus under `src`, writing one JSON result per line."""
    import warnings

    sys.path.insert(0, src)
    from sincoord import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"sincoord was imported from {cli.__file__}, not {src}")
    caches = [
        value
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "sincoord"
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]
    filters = list(warnings.filters)
    corpus = json.loads(Path(corpus_path).read_text(encoding="utf-8"))
    with open(results_path, "w", encoding="utf-8") as results:
        for argv in corpus:
            for cache in caches:
                cache.cache_clear()
            # changing the filters empties every module's once-per-location record
            warnings.resetwarnings()
            warnings.filters[:] = filters
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback is an outcome to compare
                    code = f"traceback: {type(exc).__name__}: {exc}"
            path, digest = _out_path(argv), None
            if path is not None and os.path.exists(path):
                digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
                os.remove(path)
            result = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      "out": digest}
            results.write(json.dumps(result) + "\n")


def _limit_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _start(tree: str, workdir: str) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["COLUMNS"] = "80"
    src = str(Path(tree).resolve() / "src")
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", src,
         "corpus.json", "results.jsonl"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, cwd=workdir, env=env, preexec_fn=_limit_address_space,
    )


def compare(old: str, new: str, corpus: list[list[str]]) -> list[str]:
    """Run `corpus` under both trees; one line per differing invocation.

    Raises RuntimeError when a tree's worker fails."""
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        workdirs = [Path(scratch, "old"), Path(scratch, "new")]
        procs = []
        for tree, workdir in zip((old, new), workdirs):
            workdir.mkdir()
            (workdir / "corpus.json").write_text(json.dumps(corpus), encoding="utf-8")
            procs.append(_start(tree, str(workdir)))
        for tree, proc, workdir in zip((old, new), procs, workdirs):
            stderr = proc.communicate()[1]
            if proc.returncode != 0:
                raise RuntimeError(f"{tree}: worker exited {proc.returncode}\n{stderr}")
            lines = (workdir / "results.jsonl").read_text(encoding="utf-8").splitlines()
            runs.append([json.loads(line) for line in lines])
    diffs = []
    for argv, before, after in zip(corpus, *runs):
        fields = [k for k in ("code", "stdout", "stderr", "out") if before[k] != after[k]]
        if fields:
            diffs.append(f"{' '.join(argv)}: {', '.join(fields)} differ")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    args = parser.parse_args(argv)
    corpus = default_corpus()
    try:
        diffs = compare(args.old_tree, args.new_tree, corpus)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in diffs:
        print(line)
    print(f"{len(diffs)} of {len(corpus)} invocations differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(*sys.argv[2:5])
    else:
        sys.exit(main())

"""The names the benchmark in `bench/` reads from the package still exist.

`bench/` wraps the functions listed in `spans.TARGETS`, reads the cache
counters of the functions named in `run.CACHED` and times a fresh
interpreter running the `SetupTimer` probe (which builds the CLI parser); a
change that renames or drops one of them breaks the benchmark, so it is
pinned here.  The gate's `TOLERANCE` table is also the reference for the
tolerance every check reports at the defaults.
"""

import ast
import importlib
from pathlib import Path

import pytest

import sincoord as sc
from sincoord import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_constant(filename: str, name: str) -> ast.expr:
    """The expression assigned to `name` in a bench script, read with `ast`:
    importing `run.py` sets BLAS environment variables."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    raise AssertionError(f"bench/{filename} defines no {name}")


def _span_targets() -> list[tuple[str, str]]:
    """(module, attribute) of each `spans.TARGETS` entry."""
    entries = _bench_constant("spans.py", "TARGETS").elts
    return [(e.elts[0].value, e.elts[1].value) for e in entries]


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(f"sincoord.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name, attr", _span_targets())
def test_span_target_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


@pytest.mark.parametrize(
    "name", ast.literal_eval(_bench_constant("run.py", "CACHED"))
)
def test_cached_name_is_an_lru_cache(name):
    module_name, _, attr = name.partition(".")
    cached = _resolve(module_name, attr)
    assert callable(cached.cache_info) and callable(cached.cache_clear)


def test_setup_probe_runs():
    """The code `SetupTimer` hands to `python -c` still runs."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    probes = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("import sincoord")
    ]
    assert probes == ["import sincoord.cli as c; c.build_parser()"]
    exec(probes[0], {})


# `spectrum_closure` is not gated by the benchmark
SPECTRUM_TOLERANCE = 1e-9
REFERENCE_SYSTEMS = (
    sc.PoschlTeller(1.0, 1.0),
    sc.DeformedOscillator(1.0),
    sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5),
)


def test_every_check_reports_the_gate_tolerance():
    table = ast.literal_eval(_bench_constant("gate.py", "TOLERANCE"))
    table["spectrum_closure"] = SPECTRUM_TOLERANCE
    args = cli.build_parser().parse_args(["all", "--states", "1"])
    seen = set()
    for spec in REFERENCE_SYSTEMS:
        for report in cli.run(spec, args):
            expected = table[report.name]
            if isinstance(expected, dict):
                expected = expected[spec.tag]
            assert report.tolerance == expected, (spec.tag, report.name)
            seen.add(report.name)
    assert seen == set(table)

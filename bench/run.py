"""Verification benchmark: time to a verdict per system family.

    python3 bench/run.py --workload {ladder-norms,matrix,flow} --seed N \
        --seconds S --trace {0,1}

Drives the public CLI entry point `sincoord.cli.main(argv)` in this process,
one invocation after another (a closed loop with one client), over the
seeded blocks of rounds of invocations that take about `--seconds` at the
seed (`workloads.BLOCK_SECONDS`): the same work in every run.
Every returned report goes through the correctness gate (`gate.py`), and
the wall times are scaled to a reference machine speed (`speed.py`).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs the same rounds
twice, untraced and then traced (`spans.py`), prints the per-layer metrics
and the tracing overhead, and writes the spans to `bench/out/`.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the loop has a single client,
# and a single thread keeps timings steady on a shared two-core machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from gate import GateError, check_export, check_json  # noqa: E402
from metrics import Record, end_to_end, per_layer  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 11
# so that the tail percentile has ten samples beyond it inside the slowest
# family's third of a round-robin workload
MIN_INVOCATIONS = 42
CACHED = ("polynomials.recurrence", "polynomials.weight",
          "systems.r_polynomials", "systems.classical_r_polynomials")


class SetupTimer:
    """Times a fresh interpreter importing the CLI and building its parser,
    which every shell call of `sincoord` pays.  Each time is scaled by the
    Python probes just before and after it (imports are interpreter work)."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self.env.get("PYTHONPATH")])
        )
        self.walls, self.scaled = [], []

    def measure(self) -> None:
        scaler = speed.Scaler("python")
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import sincoord.cli as c; c.build_parser()"],
            env=self.env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60,
        )
        self.walls.append(time.perf_counter() - start)
        self.scaled.append(self.walls[-1] * scaler.next_scale())


class Harness:
    """Runs invocations in this process and keeps the cache record."""

    def __init__(self):
        import sincoord  # noqa: F401  (loads every module the tracer patches)
        from sincoord import cli

        self.cli = cli
        # every lru_cache in the package, found before a tracer rebinds names
        self.caches = {
            f"{k.removeprefix('sincoord.')}.{name}": value
            for k, module in sys.modules.items() if k.startswith("sincoord.")
            for name, value in vars(module).items()
            if callable(getattr(value, "cache_clear", None))
        }
        self.cache_totals = {name: {"hits": 0, "misses": 0} for name in CACHED}

    def start_cold(self) -> None:
        """Fold the cache counters into the run totals, then empty every
        lru_cache in the package, as a fresh `sincoord` process starts."""
        for name in CACHED:
            info = self.caches[name].cache_info()
            self.cache_totals[name]["hits"] += info.hits
            self.cache_totals[name]["misses"] += info.misses
        for cached in self.caches.values():
            cached.cache_clear()

    def invoke(self, inv, round_index: int) -> Record:
        if inv.out_path is not None:
            Path(inv.out_path).unlink(missing_ok=True)
        self.start_cold()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        code, failure = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(inv.argv))
            except SystemExit as exc:
                failure = f"system_exit:{exc.code}"
            except Exception as exc:  # a traceback is a failed invocation, not a crash of the run
                failure = f"traceback:{type(exc).__name__}: {exc}"
            finally:
                wall_s = time.perf_counter() - start
        checks = failed = 0
        if failure is None and code == 2:
            failure = "exit2:" + (err.getvalue().strip().splitlines() or [""])[-1]
        elif failure is None:
            try:
                if inv.form == "json":
                    checks, failed = check_json(inv, code, out.getvalue())
                else:
                    trajectory = Path(inv.out_path).read_text(encoding="utf-8")
                    checks, failed = check_export(inv, code, out.getvalue(), trajectory)
            except (GateError, OSError, KeyError, TypeError, ValueError) as exc:
                failure = f"gate:{exc}"
        return Record(inv.family, round_index, wall_s, checks, failed, failure)


def run_blocks(harness, blocks, probe_kind, tracer=None, setup=None):
    """Invoke the rounds of every block in turn, probing the machine speed
    after every invocation.  With a SetupTimer, time SETUP_REPEATS fresh
    interpreters spread evenly between the invocations, so that set-up is
    measured across the same spells of machine speed as the rest of the
    run.  Returns the records, the rounds run and the probes."""
    total = sum(len(round_) for block in blocks for round_ in block)
    setup_after = {(2 * k + 1) * total // (2 * SETUP_REPEATS) for k in range(SETUP_REPEATS)}
    records, used = [], []
    scaler = speed.Scaler(probe_kind)
    for block in blocks:
        for round_ in block:
            for inv in round_:
                if tracer is not None:
                    tracer.invocation = len(records)
                records.append(harness.invoke(inv, len(used)))
                records[-1].scale = scaler.next_scale()
                if setup is not None and len(records) - 1 in setup_after:
                    setup.measure()
                    scaler.restart()
            used.append(round_)
    return records, used, scaler.probes


def environment(harness, args) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cache_info": harness.cache_totals,
        "caches": "emptied before every invocation (cold, as a fresh process)",
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sincoord" / "cli.py").is_file():
        print(f"error: no sincoord sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics(args.trace)
    OUT.mkdir(exist_ok=True)
    out_path = str(OUT / "trajectory.csv")
    harness = Harness()
    blocks = workloads.blocks(args.workload, args.seed, out_path)
    probe_kind = workloads.PROBE[args.workload]

    def next_blocks(seconds: float) -> list:
        count = workloads.block_count(args.workload, seconds, MIN_INVOCATIONS)
        return list(itertools.islice(blocks, count))

    record = {}

    if args.trace == 0:
        setup = SetupTimer()
        records, _, probes = run_blocks(
            harness, next_blocks(args.seconds), probe_kind, setup=setup
        )
        metrics, detail = end_to_end(records)
        metrics["setup_s"] = statistics.median(setup.scaled)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail["unscaled"]["setup_s"] = statistics.median(setup.walls)
        record.update(detail, untraced_wall_s=sum(r.wall_s for r in records))
        all_records = records
    else:
        untraced, used, probes = run_blocks(
            harness, next_blocks(args.seconds / 2), probe_kind
        )
        tracer = Tracer()
        tracer.install()
        try:
            # the same rounds again, as one block
            traced, _, traced_probes = run_blocks(harness, [used], probe_kind, tracer)
        finally:
            tracer.uninstall()
        probes += traced_probes
        untraced_wall = sum(r.wall_s for r in untraced)
        traced_wall = sum(r.wall_s for r in traced)
        # spans hold unscaled times; their ratios (share.*) need no scaling
        metrics, layer_self = per_layer(tracer.spans, len(traced), traced_wall)
        metrics["trace.overhead_s"] = (
            sum(r.seconds for r in traced) - sum(r.seconds for r in untraced)
        ) / len(traced)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.dump(str(spans_path))
        record.update(
            invocations=len(traced),
            untraced_wall_s=untraced_wall,
            traced_wall_s=traced_wall,
            layer_self_s=layer_self,  # share.* = these over traced_wall_s
            spans=len(tracer.spans),
            spans_file=str(spans_path.relative_to(ROOT)),
        )
        all_records = untraced + traced
    Path(out_path).unlink(missing_ok=True)

    missing = set(units) ^ set(metrics)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 3
    record["environment"] = environment(harness, args)
    record["speed_probe_s"] = {
        "kind": probe_kind,
        "reference": speed.REFERENCE_S[probe_kind],
        "median": statistics.median(probes), "min": min(probes), "max": max(probes),
    }
    failures = [r.failure for r in all_records if r.failure]
    record["failure_examples"] = failures[:5]
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>14.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not any(f.startswith("gate:") for f in failures),
        "attempted": len(all_records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

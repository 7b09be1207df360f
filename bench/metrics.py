"""Turning invocation records and spans into the named metrics."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass

from spans import Span, self_times

TAIL_BEYOND = 10


@dataclass
class Record:
    """Outcome of one invocation."""

    family: str
    round: int
    wall_s: float
    checks: int  # checks in a report that passed the gate, else 0
    failed_checks: int  # of those, the ones whose verdict is FAIL
    failure: str | None  # why the invocation gave no valid verdict
    scale: float = 1.0  # to the reference machine speed (speed.py)

    @property
    def seconds(self) -> float:
        return self.wall_s * self.scale


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: percentile P is the value at rank
    ceil(P n / 100) of the sorted samples.  Returns (P, value), or None when
    fewer than eleven samples leave no such percentile.
    """
    n = len(values)
    ordered = sorted(values)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def end_to_end(records: list[Record]) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics measured by the workload loop, and the detail
    (tail percentile, counts) that goes with them."""
    checks = sum(r.checks for r in records)
    ok = [r for r in records if r.failure is None]
    metrics = {"checks_per_s": checks / sum(r.seconds for r in records)}
    for fam in ("pt", "do", "aw"):
        times = [r.seconds for r in records if r.family == fam]
        metrics[f"invocation_s_p50.{fam}"] = statistics.median(times)
    tail = tail_percentile([r.seconds for r in records])
    if tail is not None:
        metrics["invocation_s_tail"] = tail[1]
    metrics["checks_pass_frac"] = (
        1.0 - sum(r.failed_checks for r in records) / checks if checks else 0.0
    )
    detail = {
        "invocations": len(records),
        "rounds": len({r.round for r in records}),
        "unscaled": {
            "checks_per_s": checks / sum(r.wall_s for r in records),
        } | {
            f"invocation_s_p50.{fam}": statistics.median(
                r.wall_s for r in records if r.family == fam
            )
            for fam in ("pt", "do", "aw")
        },
        "invocations_by_family": {
            fam: sum(r.family == fam for r in records) for fam in ("pt", "do", "aw")
        },
        "tail_percentile": tail[0] if tail else None,
        "tail_samples": len(records),
        "checks": checks,
        "ops_failed_frac": 1.0 - len(ok) / len(records),
        "checks_failed_frac": 1.0 - metrics["checks_pass_frac"],
        "failures": dict(Counter(r.failure.split(":")[0] for r in records if r.failure)),
    }
    return metrics, detail


LAYER_SHARES = {
    "share.polynomials_special": ("polynomials", "special"),
    "share.operators_heisenberg": ("operators", "heisenberg"),
    "share.classical": ("classical",),
}


def per_layer(
    spans: list[Span], invocations: int, traced_wall: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the spans of one traced pass, and each layer's
    total self time (the numerators of the `share.*` metrics).

    Times and counts are per invocation; inclusive times (`*_s` named after
    a function) cover the function and everything it calls, `self_s` is a
    layer's own time with its callees into other spans removed.
    """
    total: Counter = Counter()
    calls: Counter = Counter()
    work: Counter = Counter()
    errors: Counter = Counter()
    layer_self: Counter = Counter()
    for span, self_s in zip(spans, self_times(spans)):
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        work[span.name] += span.work
        if span.error:
            errors[f"{span.name}:{span.error}"] += 1
        layer_self[span.name.split(".")[0]] += self_s

    per = 1.0 / invocations
    t = lambda name: total[name] * per
    c = lambda name: calls[name] * per
    norms_calls = calls["polynomials.norms"]
    gram_calls = calls["polynomials.gram"]
    flow_steps = work["classical.flow"]
    out = {
        "polynomials.norms_s": t("polynomials.norms"),
        "polynomials.gram_s": t("polynomials.gram"),
        "polynomials.gram_calls": c("polynomials.gram"),
        # every uncached norms call runs the Gram matrix twice (node doubling)
        "polynomials.norms_cache_hit_ratio": (
            (norms_calls - gram_calls / 2) / norms_calls if norms_calls else 0.0
        ),
        "polynomials.quad_errors": errors["polynomials.norms:QuadratureNotConverged"] * per,
        "polynomials.self_s": layer_self["polynomials"] * per,
        "special.gamma_abs_sq_s": t("special.gamma_abs_sq"),
        "special.gamma_points": work["special.gamma_abs_sq"] * per,
        "special.qpochhammer_s": t("special.qpochhammer"),
        "special.qpochhammer_calls": c("special.qpochhammer"),
        "special.hyp1f1_s": t("special.hyp1f1"),
        "special.hyp1f1_calls": c("special.hyp1f1"),
        "operators.build_basic_s": t("operators.build_basic"),
        "operators.build_basic_calls": c("operators.build_basic"),
        "operators.build_basic_n3": work["operators.build_basic"] * per,
        "operators.build_ladder_s": t("operators.build_ladder"),
        "operators.build_ladder_calls": c("operators.build_ladder"),
        "operators.checks_s": t("operators.check"),
        "heisenberg.exact_s": t("heisenberg.exact"),
        "heisenberg.oracle_s": t("heisenberg.oracle"),
        "heisenberg.split_s": t("heisenberg.split"),
        "heisenberg.self_s": layer_self["heisenberg"] * per,
        "classical.flow_s": t("classical.flow"),
        "classical.flow_calls": c("classical.flow"),
        "classical.flow_steps": flow_steps * per,
        "classical.step_us": (
            total["classical.flow"] / flow_steps * 1e6 if flow_steps else 0.0
        ),
        "classical.closure_s": t("classical.closure"),
        "classical.flow_errors": sum(
            errors[f"classical.flow:{kind}"] for kind in ("EnergyDrift", "DomainEscape")
        ) * per,
        "coherent.coeffs_s": t("coherent.coeffs"),
        "coherent.eigen_s": t("coherent.eigen"),
        "coherent.hyp1f1_check_s": t("coherent.hyp1f1_check"),
        "systems.self_s": layer_self["systems"] * per,
        "cli.self_s": layer_self["cli"] * per,
        "cli.emit_s": t("cli.emit"),
    }
    for metric, layers in LAYER_SHARES.items():
        out[metric] = sum(layer_self[layer] for layer in layers) / traced_wall
    return out, dict(layer_self)

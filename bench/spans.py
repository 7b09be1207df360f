"""Spans around the package's public functions, recorded from outside.

`Tracer.install` wraps each target function and rebinds every name in every
`sincoord` module that refers to it (`heisenberg` imports `build_basic` by
name, for example, so patching `operators` alone would miss its calls).
Each call records a span: name, start, end, parent span, invocation id, and
a work count where one is defined.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _n_cubed(args, kwargs, result) -> float:
    n = kwargs.get("n_dim", args[1] if len(args) > 1 else 0)
    return float(n) ** 3


def _points(args, kwargs, result) -> float:
    return float(np.size(kwargs.get("x", args[1] if len(args) > 1 else 0)))


def _steps(args, kwargs, result) -> float:
    return float(len(result.times) - 1)


# (module, attribute, span name, work count).  Each span name starts with the
# layer it belongs to.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("cli", "run", "cli.run", None),
    ("cli", "emit_report", "cli.emit", None),
    ("cli", "format_text_table", "cli.emit", None),
    ("systems", "energies", "systems.energies", None),
    ("systems", "r_polynomials", "systems.r_polynomials", None),
    ("systems", "classical_r_polynomials", "systems.classical_r_polynomials", None),
    ("systems", "alpha_pm", "systems.alpha_pm", None),
    ("polynomials", "norms", "polynomials.norms", None),
    ("polynomials", "gram_matrix", "polynomials.gram", None),
    ("special", "gamma_abs_sq", "special.gamma_abs_sq", _points),
    ("special", "qpochhammer", "special.qpochhammer", None),
    ("special", "hyp1f1", "special.hyp1f1", None),
    ("operators", "build_basic", "operators.build_basic", _n_cubed),
    ("operators", "build_ladder", "operators.build_ladder", None),
    ("operators", "check_ladder_action", "operators.check", None),
    ("operators", "check_two_commutator", "operators.check", None),
    ("operators", "check_hermitian_conjugacy", "operators.check", None),
    ("operators", "check_ground_state_condition", "operators.check", None),
    ("operators", "check_su11", "operators.check", None),
    ("heisenberg", "check_heisenberg", "heisenberg.check", None),
    ("heisenberg", "build_solution", "heisenberg.build_solution", None),
    ("heisenberg", "exact_evolution", "heisenberg.exact", None),
    ("heisenberg", "oracle_evolution", "heisenberg.oracle", None),
    ("heisenberg", "HeisenbergSolution.evolve", "heisenberg.split", None),
    ("classical", "flow_oracle", "classical.flow", _steps),
    ("classical", "check_closed_vs_flow", "classical.check_flow", None),
    ("classical", "check_poisson_closure", "classical.closure", None),
    ("classical", "check_potential_reconstruction", "classical.potential", None),
    ("classical", "closed_form_eta", "classical.closed_form", None),
    ("classical", "write_trajectory_csv", "classical.write_csv", None),
    ("coherent", "coherent_coeffs", "coherent.coeffs", None),
    ("coherent", "check_eigenvalue", "coherent.eigen", None),
    ("coherent", "check_mp_hypergeometric", "coherent.hyp1f1_check", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    invocation: int
    work: float = 0.0
    error: str | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    invocation: int = 0
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.invocation)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; `uninstall` restores the originals."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "sincoord"]
        for module_name, attr, name, work in TARGETS:
            owner = importlib.import_module(f"sincoord.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            traced = self.wrap(name, original, work)
            if path:  # a method: patch the class that defines it
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, []), key=lambda i: spans[i].start):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out

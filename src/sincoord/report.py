"""Uniform result record for every identity check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonFiniteResidual


@dataclass
class CheckReport:
    """Outcome of one named check: a worst residual against a tolerance."""

    name: str
    max_residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


def make_report(name: str, residual, tolerance, **details) -> CheckReport:
    """Raises NonFiniteResidual for a NaN or infinite residual: it has no verdict."""
    residual = float(residual)
    if not math.isfinite(residual):
        raise NonFiniteResidual(f"check {name} has no verdict: its residual is {residual}")
    tolerance = float(tolerance)
    return CheckReport(
        name=name,
        max_residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        details=details,
    )

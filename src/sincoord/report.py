"""Uniform result record for every identity check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteResidual, ParameterOutOfRange


@dataclass
class CheckReport:
    """Outcome of one named check: a worst residual against a tolerance."""

    name: str
    max_residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


def make_report(name: str, comparisons, tolerance, **details) -> CheckReport:
    """The verdict on `comparisons`, (deviation, scale) pairs: a deviation
    array and the scale it is relative to, which broadcasts against it and
    is 1.0 where the comparison is absolute.  The residual is the largest
    |deviation| / scale over all of them.  Raises NonFiniteResidual for a
    NaN or infinite residual and ParameterOutOfRange for no comparison at
    all: neither has a verdict."""
    worst = [np.max(np.abs(d) / s, initial=0.0) for d, s in comparisons]
    if not worst:
        raise ParameterOutOfRange(f"check {name} has no comparison, so no verdict")
    residual = float(np.max(worst))
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

"""Scaling wall times to a reference machine speed.

On a shared two-vCPU virtual machine the speed of the same code moves in
spells that last from seconds to half a minute, and it moves by different
amounts for different kinds of work: in a fast spell interpreted Python runs
in about 0.6 of its usual time, while LAPACK and BLAS calls on matrices of a
few hundred rows run in about 0.8.  So after every invocation the loop times
a fixed probe that uses no sincoord code, and multiplies the invocation's
wall time by the probe's reference time over the mean of the probes just
before and after it.  The result is in seconds at the speed where the probe
takes its reference time.

There are two probes, and each workload uses the one that matches the work
of its dominant layer (`workloads.PROBE`):

* "python": a loop of float arithmetic and `math` calls, like the RK4 flow
  oracle.  Scaled by it, the per-invocation spread of a fixed `classical`
  check fell from 0.23 to 0.17 (standard deviation of log time), while a
  `do ladder`, bound by its 2,400-row eigensolve, rose from 0.11 to 0.26.
* "native": `eigvalsh` of a fixed 256 x 256 symmetric matrix, like the
  Gauss-Legendre and operator layers.  Scaled by it, a `heisenberg` at
  N = 512 fell from 0.11 to 0.10 and a `pt ladder` from 0.18 to 0.11.

A change to sincoord does not run inside a probe, so its gain or loss
passes through the scaling in full.  Unscaled times stay in the run record.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = {"python": 0.001, "native": 0.005}
_SYMMETRIC = np.cos(np.add.outer(np.arange(256.0), np.arange(256.0)) ** 1.5 / 97.0)


def _python_kernel() -> float:
    x, p = 0.7, 0.3
    for _ in range(3000):
        s, c = math.sin(x), math.cos(x)
        x, p = x + 1e-4 * p, p - 1e-4 * (s * c + 1e-3 * math.hypot(x, p))
    return x


def _native_kernel() -> float:
    return float(np.linalg.eigvalsh(_SYMMETRIC)[0])


KERNELS = {"python": _python_kernel, "native": _native_kernel}


def probe(kind: str) -> float:
    """Faster of two timings of the fixed kernel of `kind`, in seconds."""
    kernel = KERNELS[kind]
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Scaler:
    """Probes between consecutive timed calls; each call is scaled by the
    mean of the probes on either side of it."""

    def __init__(self, kind: str):
        self.kind = kind
        KERNELS[kind]()  # warms the interpreter and the LAPACK workspace
        self.probes = [probe(kind)]

    def restart(self) -> None:
        """Probe again after untimed work, so that the next call is scaled
        by the probes just around it."""
        self.probes.append(probe(self.kind))

    def next_scale(self) -> float:
        """Probe now; the factor for the call that ran since the last probe."""
        self.restart()
        return REFERENCE_S[self.kind] / (0.5 * (self.probes[-2] + self.probes[-1]))

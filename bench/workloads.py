"""Seeded workload generators: each yields rounds of CLI invocations.

Rounds come in blocks, and a run is a fixed number of whole blocks, so
every run measures whole stratified samples.  Within a block each family's
parameter points are drawn by Latin hypercube sampling over its box: every
coordinate is split into as many equal strata as the block has points, and
each stratum is used once.  The cost of a check depends mostly on one or
two parameters (the deformed-oscillator `a` sets the quadrature cutoff, the
Askey-Wilson `q` sets the classical period), so stratifying keeps the mix of
cheap and expensive points the same from seed to seed.

Parameter boxes.  They lie inside the documented ranges (pt g, h > 0;
do a > 0; aw |a_i| < 1 with a1 a2 a3 a4 < q < 1) and leave out the corners
where an invocation ends without a verdict (exit 2), so that no operation
of a timed run fails:

* pt: g, h in [0.6, 4].  Below about 0.45, `ladder` exits with "norms moved
  by ..." (Gauss-Legendre norms do not converge) or with R0(E_n) <= 0.
* do: a in [0.6, 4].  Below about 0.45, `ladder` exits with "norms moved".
* aw: q in [0.5, 0.7], a1..a4 in (-0.8, 0.8) with a1 a2 a3 a4 < 0.4 q.
  Smaller q, or a product close to q, gives R0(E_n) <= 0 on the truncated
  spectrum and every suite exits 2; an a_i near +-1 makes `ladder` exit
  with "norms moved", and two or three a_i above 0.75 in size make
  `classical` trip the RK4 EnergyDrift guard.  The
  classical period grows like 1 / |ln q|, so a 3-period RK4 check costs
  without bound as q -> 1 (about 60 s at q = 0.97); 0.7 keeps every
  invocation within seconds.
* classical states: the boxes `classical.sample_states` draws from, with
  the position kept to [0.6, 0.97] for pt and to [0.8, 2.3] for aw, around
  the middle of the well: a state nearer a wall of a steep well (large g or
  h, or large a_i) trips the RK4 oracle's EnergyDrift guard at dt = 1e-3
  and exits 2.

The upper ends are finite where the documentation gives none.  Points that
end in a FAIL verdict (do `su11` at some a, do `heisenberg` at N >= 256,
some pt `classical_energy_drift`) are kept: they are verdicts, and they
show in `checks_pass_frac`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

WORKLOADS = ("ladder-norms", "matrix", "flow")
# The speed probe (speed.py) that matches each workload's dominant layer:
# LAPACK eigensolves and dense products, or interpreted RK4 steps.
PROBE = {"ladder-norms": "native", "matrix": "native", "flow": "python"}
FAMILIES = ("pt", "do", "aw")

PARAM_MIN, PARAM_MAX = 0.6, 4.0  # the pt g, h and do a boxes
AW_Q_MIN, AW_Q_MAX = 0.5, 0.7
AW_A_MAX, AW_B4_SHARE = 0.8, 0.4
# 128 * 2**(k/4): heisenberg on the even rungs, coherent on the odd ones, so
# pt and do have an odd number of (suite, N) sizes per round and each median
# falls inside one size's cluster of times rather than in a gap between two
MATRIX_N_LADDER = (128, 152, 181, 215, 256, 304, 362, 431, 512)
AW_COHERENT_RUNG = 1
FLOW_T_END = 10.0

# Phase-space boxes of classical.sample_states, (x lo, x hi, |p| max), with
# the pt and aw positions narrowed (see above).
STATE_BOX = {"pt": (0.6, 0.97, 1.2), "do": (-1.5, 1.5, 1.0), "aw": (0.8, 2.3, 0.9)}

# Rounds per block of stratified points.  A ladder-norms or flow block is a
# whole run, so that the run's median sits in the middle stratum of the
# parameter that sets the cost; a matrix block is one round over all sizes.
BLOCK = {"ladder-norms": 15, "flow": 6}
EXPORTS_PER_CHECK = 3
# Wall time of one block at the seed on a two-vCPU x86-64 virtual machine;
# a run of S seconds runs S / BLOCK_SECONDS whole blocks, so that every run
# of a workload does the same work whatever the machine's speed at the time.
BLOCK_SECONDS = {"ladder-norms": 33.0, "matrix": 3.6, "flow": 32.0}


@dataclass(frozen=True)
class Invocation:
    """One CLI call and what it asked for, which the correctness gate checks.

    `n` is the requested --n (None for the CLI default) and `form` is "json"
    for a JSON report on stdout or "export" for the trajectory CSV export.
    """

    argv: tuple[str, ...]
    suite: str
    family: str
    n: int | None = None
    form: str = "json"
    out_path: str | None = None


def _lhs(rng: np.random.Generator, k: int, dims: int) -> np.ndarray:
    """k points in [0, 1)^dims, one per stratum in every coordinate."""
    strata = np.array([rng.permutation(k) for _ in range(dims)]).T
    return (strata + rng.random((k, dims))) / k


def _scale(u: float, lo: float, hi: float) -> float:
    """Map u in [0, 1) onto (lo, hi]."""
    return float(hi - (hi - lo) * u)


def _system_args(rng: np.random.Generator, family: str, u: np.ndarray) -> list[str]:
    """CLI flags for one family, from the stratified coordinates u."""
    if family == "pt":
        g, h = _scale(u[0], PARAM_MIN, PARAM_MAX), _scale(u[1], PARAM_MIN, PARAM_MAX)
        return ["--system", "pt", "--g", repr(g), "--h", repr(h)]
    if family == "do":
        return ["--system", "do", "--a", repr(_scale(u[0], PARAM_MIN, PARAM_MAX))]
    q = _scale(u[0], AW_Q_MIN, AW_Q_MAX)
    while True:
        a = rng.uniform(-AW_A_MAX, AW_A_MAX, 4)
        if float(np.prod(a)) < AW_B4_SHARE * q:
            break
    # "--a=..." keeps a leading negative value from parsing as a flag
    values = ",".join(repr(float(v)) for v in a)
    return ["--system", "aw", f"--a={values}", "--q", repr(q)]


def _state_args(family: str, u: np.ndarray) -> list[str]:
    lo, hi, p_max = STATE_BOX[family]
    x = lo + (hi - lo) * float(u[0])
    p = -p_max + 2.0 * p_max * float(u[1])
    return [f"--x0={x!r}", f"--p0={p!r}"]


def _points(rng: np.random.Generator, k: int, dims: int) -> dict[str, np.ndarray]:
    return {fam: _lhs(rng, k, dims) for fam in FAMILIES}


def _ladder_block(rng: np.random.Generator) -> list[list[Invocation]]:
    """Rounds of one default-size `ladder` call per family."""
    block = BLOCK["ladder-norms"]
    pts = _points(rng, block, 2)
    return [
        [
            Invocation(
                ("ladder", *_system_args(rng, fam, pts[fam][i]), "--format", "json"),
                "ladder", fam,
            )
            for fam in FAMILIES
        ]
        for i in range(block)
    ]


def _matrix_block(rng: np.random.Generator) -> list[list[Invocation]]:
    """One round: every rung of the ladder once per family."""
    rungs = len(MATRIX_N_LADDER)
    pts = _points(rng, rungs, 2)
    round_: list[Invocation] = []
    for i, rung in enumerate(rng.permutation(rungs)):
        for fam in FAMILIES:
            suite = "heisenberg" if rung % 2 == 0 else "coherent"
            n = MATRIX_N_LADDER[rung]
            if fam == "aw":
                # aw runs at the CLI defaults: its phases outgrow double
                # precision at the pt/do sizes.  That leaves it two sizes,
                # so one coherent to eight heisenberg calls puts its median
                # inside the heisenberg cluster, not between the two.
                suite = "coherent" if rung == AW_COHERENT_RUNG else "heisenberg"
                n = None
            size = [] if n is None else ["--n", str(n)]
            argv = (suite, *_system_args(rng, fam, pts[fam][i]), *size, "--format", "json")
            round_.append(Invocation(argv, suite, fam, n=n))
    return [round_]


def _flow_block(rng: np.random.Generator, out_path: str) -> list[list[Invocation]]:
    """Rounds of, per family, one JSON report and three trajectory exports.

    The two forms cost different amounts (3 periods against 2 x 10 time
    units of RK4), so a 1:1 mix would put each family's median in the gap
    between them, where it jumps from seed to seed.  At 1:3 the median sits
    inside the export cluster, and so does the tail percentile, which the
    slow aw JSON checks would otherwise push to the cluster's upper edge.
    """
    size = BLOCK["flow"]
    checks = _points(rng, size, 4)
    exports = _points(rng, EXPORTS_PER_CHECK * size, 4)

    def flags(fam: str, u: np.ndarray) -> list[str]:
        return _system_args(rng, fam, u[:2]) + _state_args(fam, u[2:])

    block = []
    for i in range(size):
        round_: list[Invocation] = []
        for fam in FAMILIES:
            round_.append(
                Invocation(
                    ("classical", *flags(fam, checks[fam][i]), "--format", "json"),
                    "classical", fam,
                )
            )
            for j in range(EXPORTS_PER_CHECK * i, EXPORTS_PER_CHECK * (i + 1)):
                argv = (
                    "classical", *flags(fam, exports[fam][j]), "--tend", repr(FLOW_T_END),
                    "--format", "csv", "--out", out_path,
                )
                round_.append(
                    Invocation(argv, "classical", fam, form="export", out_path=out_path)
                )
        block.append(round_)
    return block


def block_size(workload: str) -> int:
    """Invocations in one block of `workload`."""
    per_round = {
        "ladder-norms": len(FAMILIES) * BLOCK["ladder-norms"],
        "matrix": len(FAMILIES) * len(MATRIX_N_LADDER),
        "flow": len(FAMILIES) * (1 + EXPORTS_PER_CHECK) * BLOCK["flow"],
    }
    return per_round[workload]


def block_count(workload: str, seconds: float, min_invocations: int) -> int:
    """Whole blocks for a run of about `seconds`, and at least
    `min_invocations` invocations."""
    return max(
        math.ceil(seconds / BLOCK_SECONDS[workload]),
        math.ceil(min_invocations / block_size(workload)),
    )


def blocks(workload: str, seed: int, out_path: str) -> Iterator[list[list[Invocation]]]:
    """Endless blocks of rounds of invocations for `workload`, fixed by `seed`.

    A run is made of whole blocks, so that it measures a union of
    stratified samples.  `out_path` is where the flow workload's
    trajectory exports are written.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng(seed)
    while True:
        if workload == "ladder-norms":
            yield _ladder_block(rng)
        elif workload == "matrix":
            yield _matrix_block(rng)
        else:
            yield _flow_block(rng, out_path)

"""Operators are stored in the shape of their nonzeros, so the checks need
O(N) memory.

One dense 2048 x 2048 complex matrix is 64 MiB; the traced peak of the
banded checks at that size stays far below 8 MiB, so any N x N temporary
reintroduced on these paths fails here.  That includes su(1,1)'s
[a'-, a'+], formed on five diagonals, which peaked at 256 MiB as a dense
product.  The same limit holds the blocked q-Pochhammer product and the
blocked aw density at q = 0.999, whose ~40,000 factors over 1,041 nodes
would take 660 MiB and 310 MiB as one array, the q-Pochhammer powers of one
entry at q = 0.99999, and do's density on its largest admitted rule, whose
eight Lanczos terms over 65,001 nodes take 4 MiB as one (8, M) array.  A
long Heisenberg time grid runs in blocks of bounded size: 200 samples at
N 2048 in one (T, 3, N) batch would peak near 170 MiB.  A size beyond the
shared cap is refused before anything of that size is allocated; su11 has
no cap of its own.
"""

import math
import tracemalloc

import numpy as np
import pytest

import sincoord as sc
from sincoord.special import qpochhammer
from sincoord.systems import _MAX_SIZE, require_size

from conftest import empty_caches

DO1 = sc.DeformedOscillator(1.0)
PT11 = sc.PoschlTeller(1.0, 1.0)
LIMIT = 8 * 2**20


@pytest.mark.parametrize(
    "check",
    [
        lambda: sc.check_heisenberg(DO1, 2048, 4),
        lambda: sc.check_eigenvalue(DO1, 0.3, 2044, 4),
        lambda: sc.check_ladder_action(DO1, 2048, 4),
        lambda: sc.check_two_commutator(DO1, 2048, 4),
        lambda: sc.check_ground_state_condition(DO1, 2048, 4),
        lambda: sc.check_heisenberg(DO1, 2048, 4, t_samples=np.linspace(0, 5, 200)),
        lambda: sc.check_su11(1.3, 2048, 4),
    ],
    ids=[
        "heisenberg", "coherent", "ladder_action", "two_commutator", "ground_state",
        "heisenberg_long_grid", "su11",
    ],
)
def test_peak_memory_is_linear_in_n(check):
    tracemalloc.start()
    try:
        check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LIMIT


@pytest.mark.parametrize(
    "check, limit_mib",
    [
        (lambda: sc.check_su11(1.3, 65536, 4), 34),
        (lambda: sc.check_ladder_action(DO1, 65536, 4), 21),
        (lambda: sc.check_two_commutator(DO1, 65536, 4), 15),
        (lambda: sc.check_eigenvalue(DO1, 0.3, 65532, 4), 18),
    ],
    ids=["su11", "ladder_action", "two_commutator", "coherent_eigenvalue"],
)
def test_real_operators_take_real_memory(check, limit_mib):
    """Cold, at N 65,536, the float64 bands of eta, [H, eta] and the ladder
    pair peak at 25.0, 17.5, 12.5 and 15.5 MiB; stored as complex128 they
    peaked at 45.0, 28.0, 20.0 and 24.6 MiB, above each limit."""
    empty_caches()
    tracemalloc.start()
    try:
        check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


@pytest.mark.parametrize(
    "request_",
    [
        lambda: sc.check_ladder_action(DO1, 10**8, 4),
        lambda: sc.check_heisenberg(DO1, 10**8, 4),
        lambda: sc.check_su11(1.3, 10**8, 4),
        lambda: sc.check_spectrum_closure(PT11, 10**9),
        lambda: sc.check_eigenvalue(DO1, 0.3, 10**8, 4),
        lambda: sc.sample_states(DO1, 10**9),
        # one past the cap: a request that slipped through would stay small
        lambda: sc.coherent_coeffs(DO1, 0.3, _MAX_SIZE + 1),
        lambda: sc.check_mp_hypergeometric(1.0, 0.3, [0.0], _MAX_SIZE + 1),
        lambda: sc.eval_all(DO1, _MAX_SIZE + 1, 0.3),
    ],
    ids=[
        "ladder", "heisenberg", "su11", "spectrum", "coherent", "states",
        "coherent_coeffs", "coherent_1f1", "eval_all",
    ],
)
def test_size_beyond_cap_is_refused_before_allocation(request_):
    tracemalloc.start()
    try:
        with pytest.raises(sc.ParameterOutOfRange, match="exceeds the size cap"):
            request_()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_size_cap_admits_its_own_value():
    require_size("N", _MAX_SIZE)
    with pytest.raises(sc.ParameterOutOfRange):
        require_size("N", _MAX_SIZE + 1)


def test_qpochhammer_factors_are_blocked():
    z = 0.7 * np.exp(1j * math.pi * np.arange(1, 1042) / 1042)
    tracemalloc.start()
    try:
        qpochhammer(z, 0.999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LIMIT


def test_qpochhammer_powers_are_blocked():
    # about 3.9e6 powers q^k >= 1e-17: listed before the first block, they
    # took a peak of 155 MiB
    tracemalloc.start()
    try:
        qpochhammer(np.array([0.7 + 0.1j]), 0.99999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LIMIT


def test_aw_density_factors_are_blocked():
    spec = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.999)
    x = math.pi * np.arange(1, 1042) / 1042
    tracemalloc.start()
    try:
        # the density over- and underflows at this q; only its memory counts
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            spec.density(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LIMIT


def test_do_density_terms_are_blocked():
    # the rule of `ladder --system do --a 0.016`, the largest admitted
    spec = sc.DeformedOscillator(0.016)
    x, _ = spec.quadrature_nodes(21)
    assert len(x) == 65001
    tracemalloc.start()
    try:
        spec.density(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # blocked, the peak is the 0.5 MiB result and one block's terms, about
    # 1.2 MiB; unblocked it is 8.9 MiB, and 7.4 MiB with the (8, M) terms
    # divided in place, which LIMIT alone would let pass
    assert peak < LIMIT // 4


def test_spec_keyed_caches_keep_memory_flat():
    """Every cache keyed by a system keeps a few results, so checks over 500
    distinct systems leave no more memory behind than a few of them do."""
    specs = [sc.PoschlTeller(1.0 + k / 1000.0, 1.0) for k in range(520)]

    def check(spec):
        sc.check_ladder_action(spec, 30, 4)
        sc.check_hermitian_conjugacy(spec, 30, 4)

    for spec in specs[:20]:
        check(spec)
    tracemalloc.start()
    try:
        for spec in specs[20:]:
            check(spec)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # unbounded caches keep about 3 KB per system, 1.5 MB over these 500
    assert retained < 2**17

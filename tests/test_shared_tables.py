"""Tables shared within one invocation: recurrence coefficients, ladder
pairs and coherent series are each formed once and handed out read-only,
with the bits of a fresh call."""

import numpy as np
import pytest

import sincoord as sc
from sincoord import cli, coherent, operators

from conftest import empty_caches

TABLE_SYSTEMS = [
    sc.PoschlTeller(1.3, 2.1),
    sc.PoschlTeller(1e-8, 1.0),
    sc.DeformedOscillator(0.016),
    sc.DeformedOscillator(1.7),
    sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5),
    sc.AskeyWilson(0.0, 0.0, 0.0, 0.0, q=0.9),
    sc.AskeyWilson(1e-8, 0.0, 0.0, 0.0, q=0.9),
]
COUNTS = (1, 2, 21, 30, 512)
AW_LADDER = ["ladder", "--system", "aw", "--a=0.1,0.2,-0.1,0.3", "--q", "0.5"]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", TABLE_SYSTEMS, ids=repr)
@pytest.mark.parametrize("order", [COUNTS, COUNTS[::-1]], ids=["rising", "falling"])
def test_table_slices_have_the_bits_of_a_fresh_call(spec, order):
    empty_caches()
    rec = sc.recurrence(spec)
    for count in order:
        n = np.arange(count)
        assert _same_bits(rec.table("A", count), rec.A(n))
        assert _same_bits(rec.table("B", count), rec.B(n))
        # C starts at n = 1: count entries run up to index count
        assert _same_bits(rec.table("C", count + 1), rec.C(n + 1))


def test_tables_of_no_entries_are_empty():
    empty_caches()
    rec = sc.recurrence(sc.PoschlTeller(1.3, 2.1))
    for name in "ABC":
        assert rec.table(name, 0).size == 0
    assert rec.table("C", 1).size == 0


def test_coefficients_keep_separate_tables():
    # the lowering series asks for C only; B is never formed for it
    empty_caches()
    spec = sc.AskeyWilson(0.1, 0.2, -0.1, 0.3, q=0.5)
    sc.coherent_coeffs(spec, 0.2, 16)
    assert set(sc.recurrence(spec)._tables) == {"C"}


@pytest.mark.parametrize("spec", TABLE_SYSTEMS[::2], ids=repr)
def test_every_cached_array_is_read_only(spec):
    empty_caches()
    rec = sc.recurrence(spec)
    arrays = [rec.table(name, 12) for name in "ABC"]
    arrays += list(sc.build_ladder(spec, 12, 4))
    arrays.append(sc.coherent_coeffs(spec, 0.2, 8))
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_ladder_pair_is_shared_however_its_arguments_are_passed():
    # the pair is read off the cached frequency split: its arrays are the
    # split's own, not copies
    empty_caches()
    spec = sc.PoschlTeller(1.3, 2.1)
    solution = sc.build_solution(spec, 12, 4)
    assert sc.build_solution(spec, 12, 4) is solution
    assert sc.build_solution(sc.PoschlTeller(1.3, 2.1), 12, 4) is solution
    assert sc.build_solution(spec, 13, 4) is not solution
    pair = sc.build_ladder(sc.PoschlTeller(1.3, 2.1), 12, 4)
    assert pair.a_plus is solution.a_plus and pair.a_minus is solution.a_minus
    assert operators.build_solution.cache_info().misses == 2


def test_coherent_series_is_shared_across_number_types():
    empty_caches()
    spec = sc.DeformedOscillator(1.7)
    coeffs = sc.coherent_coeffs(spec, 0.3, 20)
    assert sc.coherent_coeffs(spec, 0.3 + 0j, 20) is coeffs
    assert sc.coherent_coeffs(spec, np.float64(0.3), 20) is coeffs


def test_aw_ladder_forms_each_power_table_once(monkeypatch, capsys):
    """energies (2 calls) and eta's C, B, A (4, 1 and 3 calls) are every
    `_q_pow` call of a cold aw `ladder`; the ladder-action check and the
    quadrature norms slice the tables (25 calls when each formed its own)."""
    calls = []
    q_pow = sc.AskeyWilson._q_pow

    def counted(self, k):
        calls.append(np.size(k))
        return q_pow(self, k)

    monkeypatch.setattr(sc.AskeyWilson, "_q_pow", counted)
    empty_caches()
    assert cli.main(AW_LADDER) == 0
    capsys.readouterr()
    assert len(calls) == 10


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (["ladder", "--system", "pt", "--g", "1.3", "--h", "2.1"], 1),
        (["ladder", "--system", "do", "--a", "1.7"], 1),
        (AW_LADDER, 1),
        (["all", "--system", "pt", "--g", "1.3", "--h", "2.1"], 2),
    ],
)
def test_one_ladder_pair_per_size(argv, pairs, capsys):
    # do's su(1,1) check scales the same pair by alpha_plus - alpha_minus;
    # `all` at pt's defaults runs `heisenberg` at the ladder's N 30, so it
    # shares that pair, and `coherent` builds the one at N 64
    empty_caches()
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert operators.build_solution.cache_info().misses == pairs


def test_one_coherent_series_per_do_coherent(capsys):
    empty_caches()
    assert cli.main(["coherent", "--system", "do", "--a", "1.7"]) == 0
    capsys.readouterr()
    info = coherent._series.cache_info()
    assert (info.misses, info.hits) == (1, 1)

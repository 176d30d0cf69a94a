"""Simulated distributed SSE: equivalence, ledger exactness, invariants."""

import math

import numpy as np
import pytest

from negflow.comm import InfeasiblePartitionError, dace_volume, omen_volume
from negflow.device import synthesize
from negflow.distsim import (
    ELECTRON_G,
    ELECTRON_SIGMA,
    PHONON_D,
    PHONON_PI,
    MessageLedger,
    _chunks,
    compare_ledger_with_model,
    run_omen_scheme,
    run_tiled_scheme,
)
from negflow.gf import GreensTensor
from negflow.params import SimParams, default_grid
from negflow.sse import SseVariant, preprocess_D, sse_pi, sse_sigma

EVEN = SimParams(n_kz=2, n_qz=2, n_E=4, n_w=1, n_A=4, n_B=2, n_orb=2, bnum=2)
RICH = SimParams(n_kz=2, n_qz=2, n_E=16, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4)


def _instance(seed, params):
    rng = np.random.default_rng(seed)

    def rand(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    grid = default_grid(params)
    dev, nmap = synthesize(params, seed=seed)
    g = GreensTensor(rand(params.electron_shape), rand(params.electron_shape))
    d = GreensTensor(rand(params.phonon_shape), rand(params.phonon_shape))
    return grid, dev, nmap, g, d


def _reference(params, grid, dev, nmap, g, d):
    dc = preprocess_D(d, nmap)
    sigma = sse_sigma(SseVariant.REFERENCE, g, dc, dev.dH, nmap, grid)
    pi = sse_pi(g, dev.dH, nmap, grid, params.n_qz)
    return sigma, pi


def _rel_dev(got, ref):
    scale = max(np.max(np.abs(ref.lesser)), np.max(np.abs(ref.greater)), 1e-300)
    return max(np.max(np.abs(got.lesser - ref.lesser)), np.max(np.abs(got.greater - ref.greater))) / scale


def test_chunks_partition_totals():
    for total, parts in [(8, 4), (10, 3), (5, 7), (1, 1)]:
        chunks = _chunks(total, parts)
        covered = [i for c in chunks for i in c]
        assert covered == list(range(total))  # disjoint union in order


def test_omen_single_rank_is_bitwise_reference():
    grid, dev, nmap, g, d = _instance(0, EVEN)
    ref_sigma, ref_pi = _reference(EVEN, grid, dev, nmap, g, d)
    sigma, pi, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, EVEN, 1)
    assert np.array_equal(sigma.lesser, ref_sigma.lesser)
    assert np.array_equal(sigma.greater, ref_sigma.greater)
    assert np.array_equal(pi.lesser, ref_pi.lesser)
    # broadcast/reduce degenerate to self-messages
    assert all(e.src == e.dst for e in ledger.entries)


def test_omen_matches_reference_and_closed_form():
    grid, dev, nmap, g, d = _instance(1, EVEN)
    ref_sigma, ref_pi = _reference(EVEN, grid, dev, nmap, g, d)
    sigma, pi, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, EVEN, 4)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10
    expected = 64 * (EVEN.n_kz * EVEN.n_E / 4) * EVEN.n_qz * EVEN.n_w * EVEN.n_A * EVEN.n_orb**2
    for rank in range(4):
        assert ledger.bytes_received(rank, ELECTRON_G) == expected
    rows = compare_ledger_with_model(ledger, omen_volume(EVEN, 4))
    assert max(r["rel_delta"] for r in rows) == 0.0


def test_tiled_single_tile_is_bitwise_reference():
    grid, dev, nmap, g, d = _instance(2, EVEN)
    ref_sigma, ref_pi = _reference(EVEN, grid, dev, nmap, g, d)
    sigma, pi, ledger = run_tiled_scheme(g, d, dev.dH, nmap, grid, EVEN, 1, 1)
    assert np.array_equal(sigma.lesser, ref_sigma.lesser)
    assert np.array_equal(pi.lesser, ref_pi.lesser)
    assert sum(e.bytes for e in ledger.entries if e.src != e.dst) == 0


def test_tiled_matches_reference_and_closed_form():
    grid, dev, nmap, g, d = _instance(3, EVEN)
    ref_sigma, ref_pi = _reference(EVEN, grid, dev, nmap, g, d)
    sigma, pi, ledger = run_tiled_scheme(g, d, dev.dH, nmap, grid, EVEN, 2, 2)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10
    rows = compare_ledger_with_model(ledger, dace_volume(EVEN, 2, 2))
    assert max(r["rel_delta"] for r in rows) == 0.0


def test_tiled_halo_extent_matches_propagation_model():
    # received electron columns = (s_E + 2 N_w) energies x (s_A + N_B) atoms,
    # the unique-access counts of the memlet propagation
    grid, dev, nmap, g, d = _instance(4, RICH)
    _, _, ledger = run_tiled_scheme(g, d, dev.dH, nmap, grid, RICH, 2, 2)
    s_e, s_a = RICH.n_E // 2, RICH.n_A // 2
    expected_cols = RICH.n_kz * (s_e + 2 * RICH.n_w)
    expected_bytes = 32 * expected_cols * (s_a + RICH.n_B) * RICH.n_orb**2
    for rank in range(4):
        assert ledger.bytes_received(rank, ELECTRON_G) == expected_bytes


@pytest.mark.parametrize("params, t_e, t_a", [(RICH, 2, 2), (RICH, 4, 2), (RICH.replace(n_E=24, n_qz=1), 2, 2)])
def test_tiled_total_below_omen(params, t_e, t_a):
    # every tested configuration with n_qz * n_w >= 2
    assert params.n_qz * params.n_w >= 2
    grid, dev, nmap, g, d = _instance(5, params)
    processes = t_e * t_a
    _, _, omen_ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, params, processes)
    _, _, tiled_ledger = run_tiled_scheme(g, d, dev.dH, nmap, grid, params, t_e, t_a)
    assert tiled_ledger.total_bytes() < omen_ledger.total_bytes()


def test_determinism_bitwise():
    grid, dev, nmap, g, d = _instance(6, EVEN)
    first = run_omen_scheme(g, d, dev.dH, nmap, grid, EVEN, 4)
    second = run_omen_scheme(g, d, dev.dH, nmap, grid, EVEN, 4)
    assert first[2].entries == second[2].entries
    assert np.array_equal(first[0].lesser, second[0].lesser)
    assert np.array_equal(first[1].greater, second[1].greater)
    t1 = run_tiled_scheme(g, d, dev.dH, nmap, grid, EVEN, 2, 2)
    t2 = run_tiled_scheme(g, d, dev.dH, nmap, grid, EVEN, 2, 2)
    assert t1[2].entries == t2[2].entries
    assert np.array_equal(t1[0].lesser, t2[0].lesser)


def test_conservation_per_round_and_tag():
    grid, dev, nmap, g, d = _instance(7, EVEN)
    _, _, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, EVEN, 4)
    for round_ in ledger.rounds():
        for tag in ledger.tags():
            entries = [e for e in ledger.entries if e.round == round_ and e.tag == tag]
            sent = sum(e.bytes for e in entries)
            received = sum(e.bytes for e in entries)
            assert sent == received  # every message has exactly one src and one dst


def test_entry_bytes_are_pair_multiples():
    grid, dev, nmap, g, d = _instance(8, EVEN)
    for ledger in (
        run_omen_scheme(g, d, dev.dH, nmap, grid, EVEN, 3)[2],
        run_tiled_scheme(g, d, dev.dH, nmap, grid, EVEN, 2, 2)[2],
    ):
        assert all(e.bytes % 32 == 0 for e in ledger.entries)
        assert set(ledger.tags()) <= {ELECTRON_G, ELECTRON_SIGMA, PHONON_D, PHONON_PI}


def test_uneven_division_stays_close_to_model():
    params = RICH.replace(n_E=21, n_w=2)  # ceil tiles: 11 vs 10.5 energies
    grid, dev, nmap, g, d = _instance(9, params)
    ref_sigma, ref_pi = _reference(params, grid, dev, nmap, g, d)
    sigma, pi, ledger = run_tiled_scheme(g, d, dev.dH, nmap, grid, params, 2, 2)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10
    rows = compare_ledger_with_model(ledger, dace_volume(params, 2, 2))
    assert max(r["rel_delta"] for r in rows) <= 0.05


def test_omen_uneven_points_still_reference():
    params = EVEN.replace(n_E=5, n_w=1)  # 10 points over 4 ranks, uneven
    grid, dev, nmap, g, d = _instance(10, params)
    ref_sigma, ref_pi = _reference(params, grid, dev, nmap, g, d)
    sigma, pi, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, params, 4)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10
    # aggregate electron bytes stay exact even when per-rank counts differ
    total = ledger.total_bytes(ELECTRON_G)
    assert total == 64 * params.n_kz * params.n_E * params.n_qz * params.n_w * params.n_A * params.n_orb**2


def test_bytes_the_model_puts_at_zero_read_an_infinite_delta():
    plan = omen_volume(EVEN, 2)  # the omen scheme never returns Sigma
    ledger = MessageLedger()
    ledger.add(0, 1, 0, ELECTRON_SIGMA, 32)
    rows = {(r["rank"], r["tag"]): r["rel_delta"] for r in compare_ledger_with_model(ledger, plan)}
    assert rows[(1, ELECTRON_SIGMA)] == math.inf
    assert rows[(0, ELECTRON_SIGMA)] == 0.0  # received Sigma is not what the model counts


def test_infeasible_tiling_raises():
    grid, dev, nmap, g, d = _instance(11, EVEN)
    with pytest.raises(InfeasiblePartitionError):
        run_tiled_scheme(g, d, dev.dH, nmap, grid, EVEN, EVEN.n_E + 1, 1)


def test_ledger_csv_and_summary():
    grid, dev, nmap, g, d = _instance(12, EVEN)
    _, _, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, EVEN, 2)
    text = ledger.to_csv()
    assert text.splitlines()[0] == "round,src,dst,tag,bytes"
    assert len(text.splitlines()) == len(ledger.entries) + 1
    summary = ledger.summary()
    assert summary["messages"] == len(ledger.entries)
    assert summary["total_bytes"] == ledger.total_bytes()
    assert set(summary["by_tag"]) == set(ledger.tags())


def test_rank_state_ownership_partition():
    from negflow.distsim import RankState, _PointLayout

    layout = _PointLayout(3, 5, 4)
    states = [RankState(rank=r, points=tuple(layout.points(r))) for r in range(4)]
    union = np.zeros((3, 5), dtype=int)
    for state in states:
        union += state.point_mask(3, 5).astype(int)
    assert np.all(union == 1)  # full cover, pairwise disjoint
    tiles = [
        RankState(rank=r, e_range=(lo, hi), a_range=(0, 4))
        for r, (lo, hi) in enumerate([(0, 3), (3, 5)])
    ]
    union = np.zeros((3, 5), dtype=int)
    for state in tiles:
        union += state.point_mask(3, 5).astype(int)
    assert np.all(union == 1)

"""Simulated distributed SSE: equivalence, ledger exactness, invariants."""

import hashlib
import math

import numpy as np
import pytest

from negflow import distsim
from negflow.cli import PRESETS
from negflow.comm import InfeasiblePartitionError, dace_volume, omen_volume
from negflow.device import synthesize
from negflow.flops import FlopCounter
from negflow.distsim import (
    ELECTRON_G,
    ELECTRON_SIGMA,
    PHONON_D,
    PHONON_PI,
    MessageLedger,
    _chunks,
    _owners,
    _rank,
    compare_ledger_with_model,
    run_omen_scheme,
    run_tiled_scheme,
)
from negflow.gf import GreensTensor
from negflow.params import SimParams, default_grid
from negflow.sse import DEFAULT_VARIANT, SseVariant, preprocess_D, sse_pi, sse_sigma

EVEN = SimParams(n_kz=2, n_qz=2, n_E=4, n_w=1, n_A=4, n_B=2, n_orb=2, bnum=2)
RICH = SimParams(n_kz=2, n_qz=2, n_E=16, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4)
# the shape of the distsim-p8 benchmark workload (P=8 omen, 2 x 4 tiled)
P8 = SimParams(n_kz=3, n_qz=2, n_E=16, n_w=4, n_A=32, n_B=4, n_orb=2, bnum=4)


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
    """Single-node oracle from other code than the ranks run: straightforward Sigma, unhoisted Pi."""
    dc = preprocess_D(d, nmap)
    sigma = sse_sigma(SseVariant.REFERENCE, g, dc, dev.dH, nmap, grid)
    pi = sse_pi(g, dev.dH, nmap, grid, params.n_qz, hoist_invariant=False)
    return sigma, pi


def _single_node(params, grid, dev, nmap, g, d):
    """The ranks' own arrangement on the full arrays: default Sigma, default Pi."""
    dc = preprocess_D(d, nmap)
    sigma = sse_sigma(DEFAULT_VARIANT, g, dc, dev.dH, nmap, grid)
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
    # the owner grid agrees with chunk membership at every (outer, inner) point
    for n_outer, n_inner, parts in [(2, 4, 4), (2, 5, 3), (1, 5, 7), (5, 1, 7), (1, 1, 1)]:
        owner = _owners(n_outer, n_inner, parts)
        chunks = _chunks(n_outer * n_inner, parts)
        assert owner.shape == (n_outer, n_inner)
        for flat in range(n_outer * n_inner):
            rank = next(r for r, chunk in enumerate(chunks) if flat in chunk)
            assert owner[divmod(flat, n_inner)] == rank


def test_omen_single_rank_is_bitwise_reference():
    grid, dev, nmap, g, d = _instance(0, EVEN)
    own_sigma, own_pi = _single_node(EVEN, grid, dev, nmap, g, d)
    sigma, pi, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, EVEN, 1)
    assert np.array_equal(sigma.lesser, own_sigma.lesser)
    assert np.array_equal(sigma.greater, own_sigma.greater)
    assert np.array_equal(pi.lesser, own_pi.lesser)
    assert np.array_equal(pi.greater, own_pi.greater)
    ref_sigma, ref_pi = _reference(EVEN, grid, dev, nmap, g, d)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10
    # broadcast/reduce degenerate to self-messages
    assert all(e.src == e.dst for e in ledger.entries)


# even partitions at every neighbor count n_B = 1..5, odd ones included
_CLOSED_FORM_PARAMS = [EVEN] + [RICH.replace(n_B=n_b) for n_b in range(1, 6)]


def test_omen_matches_reference_and_closed_form():
    for params in _CLOSED_FORM_PARAMS:
        grid, dev, nmap, g, d = _instance(1, params)
        ref_sigma, ref_pi = _reference(params, grid, dev, nmap, g, d)
        sigma, pi, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, params, 4)
        assert _rel_dev(sigma, ref_sigma) <= 1e-10
        assert _rel_dev(pi, ref_pi) <= 1e-10
        expected = 64 * (params.n_kz * params.n_E / 4) * params.n_qz * params.n_w * params.n_A * params.n_orb**2
        for rank in range(4):
            assert ledger.bytes_received(rank, ELECTRON_G) == expected
        rows = compare_ledger_with_model(ledger, omen_volume(params, 4))
        assert [r["rel_delta"] for r in rows] == [0.0] * len(rows), params.n_B


def test_tiled_single_tile_is_bitwise_reference():
    grid, dev, nmap, g, d = _instance(2, EVEN)
    own_sigma, own_pi = _single_node(EVEN, grid, dev, nmap, g, d)
    sigma, pi, ledger = run_tiled_scheme(g, d, dev.dH, nmap, grid, EVEN, 1, 1)
    assert np.array_equal(sigma.lesser, own_sigma.lesser)
    assert np.array_equal(sigma.greater, own_sigma.greater)
    assert np.array_equal(pi.lesser, own_pi.lesser)
    assert np.array_equal(pi.greater, own_pi.greater)
    ref_sigma, ref_pi = _reference(EVEN, grid, dev, nmap, g, d)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10
    assert sum(e.bytes for e in ledger.entries if e.src != e.dst) == 0


def test_tiled_matches_reference_and_closed_form():
    for params in _CLOSED_FORM_PARAMS:
        grid, dev, nmap, g, d = _instance(3, params)
        ref_sigma, ref_pi = _reference(params, grid, dev, nmap, g, d)
        sigma, pi, ledger = run_tiled_scheme(g, d, dev.dH, nmap, grid, params, 2, 2)
        assert _rel_dev(sigma, ref_sigma) <= 1e-10
        assert _rel_dev(pi, ref_pi) <= 1e-10
        rows = compare_ledger_with_model(ledger, dace_volume(params, 2, 2))
        assert [r["rel_delta"] for r in rows] == [0.0] * len(rows), params.n_B


_SWEEP = [(RICH, "omen", (p,)) for p in range(1, 9)]
_SWEEP += [(RICH, "tiled", (t_e, t_a)) for t_e in range(1, 9) for t_a in range(1, 9) if t_e * t_a <= 8]
_SWEEP += [(EVEN.replace(n_E=5), "omen", (8,)), (EVEN.replace(n_E=5), "tiled", (4, 2))]
_SWEEP += [(RICH.replace(n_B=3), scheme, part) for scheme, part in [("omen", (3,)), ("tiled", (2, 2)), ("tiled", (1, 4))]]


@pytest.mark.parametrize("params, scheme, partition", _SWEEP)
def test_every_partition_reproduces_the_reference(params, scheme, partition):
    # EVEN with n_E=5 at P=8: 10 points in ceil chunks of 2 leave omen ranks 5-7 idle
    grid, dev, nmap, g, d = _instance(13, params)
    ref_sigma, ref_pi = _reference(params, grid, dev, nmap, g, d)
    run = run_omen_scheme if scheme == "omen" else run_tiled_scheme
    sigma, pi, _ = run(g, d, dev.dH, nmap, grid, params, *partition)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10


def _record_rank_inputs(monkeypatch):
    """Replace distsim's kernels by wrappers that record each call's G shape and nonzero (k,E) points."""
    calls = []

    def recording(kernel, name):
        def wrapper(*args, **kwargs):
            g = args[1] if name == "sigma" else args[0]
            calls.append((name, g.lesser.shape, np.any(g.lesser != 0, axis=(2, 3, 4))))
            return kernel(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(distsim, "sse_sigma", recording(distsim.sse_sigma, "sigma"))
    monkeypatch.setattr(distsim, "sse_pi_chains", recording(distsim.sse_pi_chains, "pi"))
    return calls


def _tiled_received(params, grid, e_range):
    """(k,E) points a tiled rank owning the energies ``e_range`` reads: every k, its energies +- the largest offset."""
    out = np.zeros((params.n_kz, params.n_E), dtype=bool)
    out[:, max(0, e_range[0] - grid.max_offset) : e_range[1] + grid.max_offset] = True
    return out


def _assert_g_nonzero_exactly_where_received(calls, received):
    """Each rank's recorded (Sigma, Pi) calls hold nonzero G exactly at its ``received`` points, on their hull."""
    for i, (_, _, nonzero) in enumerate(calls):
        got = received[i // 2]
        hull = np.flatnonzero(got.any(axis=0))
        assert np.array_equal(nonzero, got[:, hull[0] : hull[-1] + 1])


@pytest.mark.parametrize("t_e, t_a", [(2, 2), (4, 2)])
def test_tiled_ranks_see_only_their_halo_slice(monkeypatch, t_e, t_a):
    grid, dev, nmap, g, d = _instance(14, RICH)
    calls = _record_rank_inputs(monkeypatch)
    run_tiled_scheme(g, d, dev.dH, nmap, grid, RICH, t_e, t_a)
    s_e, s_a = -(-RICH.n_E // t_e), -(-RICH.n_A // t_a)
    halo_a = nmap.max_reach
    assert [name for name, _, _ in calls] == ["sigma", "pi"] * (t_e * t_a)
    for _, (n_kz, n_e, n_a, _, _), _ in calls:
        assert n_kz == RICH.n_kz
        assert n_e <= s_e + 2 * grid.max_offset
        assert n_a <= s_a + 2 * halo_a
        assert (n_e, n_a) != (RICH.n_E, RICH.n_A)
    e_tiles = _chunks(RICH.n_E, t_e)
    received = [_tiled_received(RICH, grid, (tile.start, tile.stop)) for tile in e_tiles for _ in range(t_a)]
    _assert_g_nonzero_exactly_where_received(calls, received)


def _shifted(params, k, i_e, q, off):
    """The two (k,E) points an omen point reads in round (q, offset): E -+ offset at k -+ q, k wrapping."""
    return ((k - q) % params.n_kz, i_e - off), ((k + q) % params.n_kz, i_e + off)


def _received_points(params, grid, owned):
    """(k,E) points an omen rank owning the flat points ``owned`` reads: its own and every in-grid shift."""
    out = np.zeros((params.n_kz, params.n_E), dtype=bool)
    for k, i_e in (divmod(flat, params.n_E) for flat in owned):
        out[k, i_e] = True
        for q in range(params.n_qz):
            for off in grid.offsets:
                for k_s, e_s in _shifted(params, k, i_e, q, off):
                    if 0 <= e_s < params.n_E:
                        out[k_s, e_s] = True
    return out


@pytest.mark.parametrize("processes", [3, 4, 8])
def test_omen_ranks_see_only_the_energy_hull_of_their_points(monkeypatch, processes):
    # Each rank holds nonzero G exactly at the points it receives, on their
    # energy hull.  P=3 chunks span two k rows, which leaves a gap (E=8) in
    # a hull as wide as the grid; at P=4 and 8 a rank owns part of one k row
    # and its hull (owned energies plus the largest offset each side) is
    # narrower than the grid.
    grid, dev, nmap, g, d = _instance(15, RICH)
    calls = _record_rank_inputs(monkeypatch)
    run_omen_scheme(g, d, dev.dH, nmap, grid, RICH, processes)
    assert [name for name, _, _ in calls] == ["sigma", "pi"] * processes
    total = RICH.n_kz * RICH.n_E
    share = -(-total // processes)
    received = [_received_points(RICH, grid, range(r * share, min((r + 1) * share, total))) for r in range(processes)]
    _assert_g_nonzero_exactly_where_received(calls, received)
    for _, (n_kz, n_e, n_a, _, _), _ in calls:
        assert (n_kz, n_a) == (RICH.n_kz, RICH.n_A)
        if RICH.n_E % share == 0:
            assert n_e <= share + 2 * grid.max_offset < RICH.n_E


def test_omen_ranks_form_their_factors_only_at_the_rows_their_points_read(monkeypatch):
    # At P=8 each omen rank owns 6 of the 48 (k, E) points, on an energy hull of 10 to 16 energies at
    # every k.  Its Sigma stage 1 forms dH G only at the rows ((k - q) mod n_kz, E - off) its points
    # read, and its Pi forms m2 and runs its trace GEMM at its own points only: 128 and 48 rows over
    # the 8 ranks, where a whole hull is 312.
    grid, dev, nmap, g, d = _instance(17, P8)
    ref_sigma, ref_pi = _reference(P8, grid, dev, nmap, g, d)
    counter = FlopCounter()
    for name in ("sse_sigma", "sse_pi_chains"):
        kernel = getattr(distsim, name)
        monkeypatch.setattr(distsim, name, lambda *args, _kernel=kernel, **kwargs: _kernel(*args, counter=counter, **kwargs))
    sigma, pi, _ = run_omen_scheme(g, d, dev.dH, nmap, grid, P8, 8)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10
    row = 2 * P8.n_A * P8.n_B * 3 * P8.n_orb**3  # one row of a dH G stage: both tensors, every pair, 3 directions
    assert counter.stages == {"sigma.dhg": 128 * row, "sigma.accumulate": 128 * row * P8.n_qz * P8.n_w,
                              "pi.m2": 48 * row, "pi.trace": 48 * row * P8.n_qz * P8.n_w}
    sigma, pi, _ = run_tiled_scheme(g, d, dev.dH, nmap, grid, P8, 2, 4)
    assert _rel_dev(sigma, ref_sigma) <= 1e-10
    assert _rel_dev(pi, ref_pi) <= 1e-10


@pytest.mark.parametrize("scheme, partition", [("omen", (1,)), ("omen", (2,)), ("omen", (4,)), ("omen", (8,)),
                                               ("tiled", (2, 4)), ("tiled", (4, 2))],
                         ids=["omen-1", "omen-2", "omen-4", "omen-8", "tiled-2x4", "tiled-4x2"])
def test_ranks_sum_to_one_single_node_pi_pass(monkeypatch, scheme, partition):
    # A rank's Pi forms m2 and runs its trace GEMM only at its owned (k, E) points and atoms, and the
    # ranks' owned points times atoms partition the grid, so their summed Pi tally is one single-node pass
    grid, dev, nmap, g, d = _instance(18, P8)
    single = FlopCounter()
    sse_pi(g, dev.dH, nmap, grid, P8.n_qz, counter=single)
    counter = FlopCounter()
    kernel = distsim.sse_pi_chains
    monkeypatch.setattr(distsim, "sse_pi_chains", lambda *args, **kwargs: kernel(*args, counter=counter, **kwargs))
    run = run_omen_scheme if scheme == "omen" else run_tiled_scheme
    run(g, d, dev.dH, nmap, grid, P8, *partition)
    assert counter.stages == single.stages


def test_idle_ranks_run_no_kernel(monkeypatch):
    params = EVEN.replace(n_E=5)  # 10 points in ceil chunks of 2: omen ranks 5-7 own nothing
    grid, dev, nmap, g, d = _instance(16, params)
    calls = _record_rank_inputs(monkeypatch)
    _, _, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, params, 8)
    assert [name for name, _, _ in calls] == ["sigma", "pi"] * 5
    assert [ledger.bytes_received(rank, ELECTRON_G) for rank in range(5, 8)] == [0, 0, 0]
    # tiny at 1 x 5: 8 atoms in ceil tiles of 2 leave the trailing atom tile empty
    params = PRESETS["tiny"]
    grid, dev, nmap, g, d = _instance(16, params)
    calls.clear()
    run_tiled_scheme(g, d, dev.dH, nmap, grid, params, 1, 5)
    assert [name for name, _, _ in calls] == ["sigma", "pi"] * 4


def test_tiled_slice_one_atom_short_of_the_halo_raises():
    # a rank's compute halo is the neighbor map's reach; one atom fewer drops a neighbor the tile reads
    for params in (RICH, RICH.replace(n_B=3)):
        grid, dev, nmap, g, d = _instance(17, params)
        dc = preprocess_D(d, nmap)
        halo_a = nmap.max_reach
        e_range, a_range = (0, params.n_E // 2), (params.n_A // 4, params.n_A // 2)
        owned = np.zeros((params.n_kz, params.n_E), dtype=bool)
        owned[:, slice(*e_range)] = True
        args = (g, dc, dev.dH, nmap, grid, params.n_qz, owned, _tiled_received(params, grid, e_range), a_range)
        _rank(*args, halo_a)
        with pytest.raises(ValueError, match="neighbor index"):
            _rank(*args, halo_a - 1)


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


@pytest.mark.parametrize(
    "scheme, partition",
    [("omen", (3,)), ("omen", (4,)), ("omen", (8,)), ("tiled", (2, 2)), ("tiled", (4, 2))],
    ids=["omen-3", "omen-4", "omen-8", "tiled-2x2", "tiled-4x2"],
)
def test_messages_come_from_and_go_to_the_owners(scheme, partition):
    # Owners are recomputed here from ceil chunks of the flattened grids: point
    # ``flat`` of ``total`` belongs to rank flat // ceil(total / P).
    grid, dev, nmap, g, d = _instance(7, RICH)
    processes = math.prod(partition)
    run = run_omen_scheme if scheme == "omen" else run_tiled_scheme
    _, _, ledger = run(g, d, dev.dH, nmap, grid, RICH, *partition)

    def owner(outer, inner, n_outer, n_inner):
        return (outer * n_inner + inner) // -(-(n_outer * n_inner) // processes)

    def electron_source(dst, k_s, e_s):
        # an off-grid point travels as a zero block from the receiver itself
        return owner(k_s, e_s, RICH.n_kz, RICH.n_E) if 0 <= e_s < RICH.n_E else dst

    def pairs(tag):
        return [(e.src, e.dst) for e in ledger.entries if e.tag == tag]

    roots = [owner(q, w, RICH.n_qz, RICH.n_w) for q in range(RICH.n_qz) for w in range(RICH.n_w)]
    assert len(set(roots)) > 1  # a single root would not tell the rounds apart
    ranks = range(processes)
    if scheme == "omen":
        # round by round: D broadcast from the round's root, Pi reduced to it
        assert pairs(PHONON_D) == [(root, dst) for root in roots for dst in ranks]
        assert pairs(PHONON_PI) == [(src, root) for root in roots for src in ranks]
        total = RICH.n_kz * RICH.n_E
        share = -(-total // processes)
        for dst in ranks:
            points = [divmod(flat, RICH.n_E) for flat in range(dst * share, min((dst + 1) * share, total))]
            sources = [
                electron_source(dst, k_s, e_s)
                for q in range(RICH.n_qz)
                for off in grid.offsets
                for k, i_e in points
                for k_s, e_s in _shifted(RICH, k, i_e, q, off)
            ]
            assert [e.src for e in ledger.entries if e.tag == ELECTRON_G and e.dst == dst] == sources
    else:
        # rank by rank over every round: D from the round's root, Pi back to it
        assert pairs(PHONON_D) == [(root, dst) for dst in ranks for root in roots]
        assert pairs(PHONON_PI) == [(src, root) for src in ranks for root in roots]
        t_a = partition[1]
        e_tiles = _chunks(RICH.n_E, partition[0])
        for dst in ranks:
            tile = e_tiles[dst // t_a]
            halo = range(tile.start - grid.max_offset, tile.stop + grid.max_offset)
            sources = [electron_source(dst, k, e_s) for k in range(RICH.n_kz) for e_s in halo]
            assert [e.src for e in ledger.entries if e.tag == ELECTRON_G and e.dst == dst] == sources
            assert [e.dst for e in ledger.entries if e.tag == ELECTRON_SIGMA and e.src == dst] == sources


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


# sha256 of ledger.to_csv() for seed-1 instances, recorded while the ledger still held one LedgerEntry per
# message: the distsim-p8 benchmark partitions (P=8 omen, 2 x 4 tiled) and tiny at P=4 and 2 x 2 tiles
LEDGER_CSV_SHA256 = {
    ("p8", "omen"): "a3fc22ea156bd72c3183dafcd6e3f080f38382ad9b4bf682df3d5ac07c5ee946",
    ("p8", "tiled"): "dc018bf8229a355c807b8cc47b8d4555a1003f24a551f407ba2082aee87407c3",
    ("tiny", "omen"): "7b5c38f9535188e77c92589d5c5631ac0c8c80c8643f0031ec5a11cf298f169d",
    ("tiny", "tiled"): "428c1b1f3550d8982c67f933cfa193ba70d33806a76b91ed146ff226147a30a6",
}
LEDGER_RUNS = {
    ("p8", "omen"): (P8, run_omen_scheme, (8,)),
    ("p8", "tiled"): (P8, run_tiled_scheme, (2, 4)),
    ("tiny", "omen"): (PRESETS["tiny"], run_omen_scheme, (4,)),
    ("tiny", "tiled"): (PRESETS["tiny"], run_tiled_scheme, (2, 2)),
}


def _ledger(key):
    params, run, partition = LEDGER_RUNS[key]
    grid, dev, nmap, g, d = _instance(1, params)
    return run(g, d, dev.dH, nmap, grid, params, *partition)[2]


@pytest.mark.parametrize("key", list(LEDGER_RUNS), ids="-".join)
def test_ledger_csv_is_pinned(key):
    assert hashlib.sha256(_ledger(key).to_csv().encode()).hexdigest() == LEDGER_CSV_SHA256[key]


@pytest.mark.parametrize("key", list(LEDGER_RUNS), ids="-".join)
def test_byte_queries_sum_the_entries(key):
    ledger = _ledger(key)
    entries = ledger.entries
    processes = 1 + max(max(e.src, e.dst) for e in entries)
    for tag in (None, ELECTRON_G, ELECTRON_SIGMA, PHONON_D, PHONON_PI, "no_such_tag"):
        def of(tag_):
            return tag is None or tag_ == tag

        assert ledger.total_bytes(tag) == sum(e.bytes for e in entries if of(e.tag))
        for rank in (None, *range(processes)):
            assert ledger.bytes_sent(rank, tag) == sum(e.bytes for e in entries if rank in (None, e.src) and of(e.tag))
            assert ledger.bytes_received(rank, tag) == sum(
                e.bytes for e in entries if rank in (None, e.dst) and of(e.tag)
            )
    assert all(type(v) is int for e in entries for v in (e.round, e.src, e.dst, e.bytes))
    assert type(ledger.total_bytes()) is int


def test_added_entries_come_back_in_order():
    ledger = MessageLedger()
    ledger.add(0, 1, 0, ELECTRON_SIGMA, 32)
    ledger.add(2, 0, 3, "custom", 64.0)
    ledger.add(1, 3, 1, ELECTRON_SIGMA, 96)
    assert [(e.round, e.src, e.dst, e.tag, e.bytes) for e in ledger.entries] == [
        (0, 1, 0, ELECTRON_SIGMA, 32), (2, 0, 3, "custom", 64), (1, 3, 1, ELECTRON_SIGMA, 96)]
    assert ledger.tags() == ["custom", ELECTRON_SIGMA]
    assert ledger.summary() == {"messages": 3, "total_bytes": 192, "by_tag": {"custom": 64, ELECTRON_SIGMA: 128}}
    assert ledger.to_csv() == "round,src,dst,tag,bytes\r\n0,1,0,electron_Sigma,32\r\n2,0,3,custom,64\r\n1,3,1,electron_Sigma,96\r\n"
    assert MessageLedger().summary() == {"messages": 0, "total_bytes": 0, "by_tag": {}}

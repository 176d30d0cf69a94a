"""Scattering self-energy kernels: oracles, variant equivalence, properties."""

import itertools
import tracemalloc

import numpy as np
import pytest

from negflow.device import NeighborMap, build_neighbor_map, synthesize
from negflow.distsim import run_omen_scheme, run_tiled_scheme
from negflow.flops import FlopCounter, sse_flops_dace
from negflow.gf import SOLVERS, GreensTensor, gf_phase
from negflow.params import EnergyGrid, SimParams, default_grid
from negflow import sse
from negflow.sse import (
    DIVERGENCE_PASSES,
    SseVariant,
    _dhg_transient,
    _pad_energy,
    _shift_plan,
    pi_from_chains,
    preprocess_D,
    seeded_self_energies,
    self_consistent_loop,
    shifted_grid,
    sse_pi,
    sse_pi_chains,
    sse_sigma,
    to_atom_major,
    to_grid_major,
)

TINY = SimParams(n_kz=3, n_qz=2, n_E=4, n_w=2, n_A=4, n_B=2, n_orb=2, bnum=2)


def _rand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _instance(seed, params=TINY):
    rng = np.random.default_rng(seed)
    grid = default_grid(params)
    _, nmap = synthesize(params, seed=seed)
    g = GreensTensor(_rand(rng, params.electron_shape), _rand(rng, params.electron_shape))
    d = GreensTensor(_rand(rng, params.phonon_shape), _rand(rng, params.phonon_shape))
    dh = _rand(rng, (params.n_A, params.n_B, 3, params.n_orb, params.n_orb))
    return params, grid, nmap, g, d, dh


def _oracle_sigma(params, grid, nmap, g_arr, dc_arr, dh):
    """Brute-force loop nest over the full 8-D space, term by term."""
    out = np.zeros_like(g_arr)
    n_kz, n_e = params.n_kz, params.n_E
    for k, e_i, q, w in itertools.product(
        range(n_kz), range(n_e), range(params.n_qz), range(params.n_w)
    ):
        off, weight = grid.frequency_map[w]
        e_s = e_i - off
        if not 0 <= e_s < n_e:
            continue
        k_s = (k - q) % n_kz
        for a in range(params.n_A):
            for s in range(params.n_B):
                b = int(nmap.idx[a, s])
                for i in range(3):
                    for j in range(3):
                        dhg = g_arr[k_s, e_s, b] @ dh[a, s, i]
                        dhd = dh[a, s, j] * dc_arr[q, w, a, s, i, j]
                        out[k, e_i, a] += weight * (dhg @ dhd)
    return 1j * out


def _oracle_pi(params, grid, nmap, g, dh):
    chains = {
        "lesser": np.zeros((params.n_qz, params.n_w, params.n_A, params.n_B, 3, 3), complex),
        "greater": np.zeros((params.n_qz, params.n_w, params.n_A, params.n_B, 3, 3), complex),
    }
    w_e = grid.energy_weight
    pairs = {"greater": (g.greater, g.lesser), "lesser": (g.lesser, g.greater)}
    for q, w in itertools.product(range(params.n_qz), range(params.n_w)):
        off = grid.frequency_map[w][0]
        for a in range(params.n_A):
            for s in range(params.n_B):
                b = int(nmap.idx[a, s])
                for name, (g1, g2) in pairs.items():
                    for i in range(3):
                        for j in range(3):
                            acc = 0.0
                            for k, e_i in itertools.product(range(params.n_kz), range(params.n_E)):
                                e_s = e_i + off
                                if not 0 <= e_s < params.n_E:
                                    continue
                                k_s = (k + q) % params.n_kz
                                acc += np.trace(dh[a, s, i] @ g1[k_s, e_s, a] @ dh[a, s, j] @ g2[k, e_i, b])
                            chains[name][q, w, a, s, i, j] = w_e * acc
    out = {}
    for name, ch in chains.items():
        arr = np.empty((params.n_qz, params.n_w, params.n_A, params.n_B + 1, 3, 3), complex)
        arr[:, :, :, 0] = -1j * ch.sum(axis=3)
        arr[:, :, :, 1:] = 1j * ch
        out[name] = arr
    return out["lesser"], out["greater"]


def test_shifted_grid_semantics():
    arr = np.arange(12, dtype=complex).reshape(3, 4)[..., None]
    out = shifted_grid(arr, q_shift=1, e_shift=1)
    for k in range(3):
        for e in range(4):
            expected = arr[(k - 1) % 3, e - 1] if e - 1 >= 0 else 0
            assert out[k, e] == expected
    # out-of-range shifts are all zero
    assert np.all(shifted_grid(arr, 0, 4) == 0)
    assert np.all(shifted_grid(arr, 0, -4) == 0)
    neg = shifted_grid(arr, -1, -1)
    assert neg[0, 0] == arr[1, 1]


def test_shift_plan_matches_shifted_grid():
    rng = np.random.default_rng(15)
    n_kz, n_e = 3, 5
    arr = _rand(rng, (n_kz, n_e, 2, 2))
    q_shifts = tuple(range(-n_kz, 2 * n_kz))
    e_shifts = tuple(range(-(n_e - 1), n_e))
    before, n_pad, index = _shift_plan(n_kz, n_e, e_shifts, q_shifts)
    windows = np.take(_pad_energy(arr, before, n_pad).reshape(-1, 2, 2), index, axis=0)
    for (i_q, q), (w, e_shift) in itertools.product(enumerate(q_shifts), enumerate(e_shifts)):
        assert np.array_equal(windows[i_q, w], shifted_grid(arr, q, e_shift)), (q, e_shift)


def test_preprocess_cancellation_and_selection():
    params, _, nmap, _, d, _ = _instance(0)
    uniform = GreensTensor(np.ones(params.phonon_shape, complex), np.ones(params.phonon_shape, complex))
    combined = preprocess_D(uniform, nmap)
    assert np.all(combined.lesser == 0) and np.all(combined.greater == 0)

    only_aa = np.zeros(params.phonon_shape, complex)
    a0 = 1
    only_aa[:, :, a0, 0] = 2.5
    dc = preprocess_D(GreensTensor(only_aa, np.zeros_like(only_aa)), nmap)
    # pairs (a0, s): only the -D_aa term survives
    assert np.all(dc.lesser[:, :, a0] == -2.5)
    # pairs (a1, s) with neighbor b = a0: only -D_bb survives
    for a1 in range(params.n_A):
        for s in range(params.n_B):
            if a1 != a0 and int(nmap.idx[a1, s]) == a0:
                assert np.all(dc.lesser[:, :, a1, s] == -2.5)


def test_preprocess_matches_direct_recomputation():
    params, _, nmap, _, d, _ = _instance(1)
    dc = preprocess_D(d, nmap)
    rev = nmap.reverse_slot_table()
    for q, w, a, s in itertools.product(
        range(params.n_qz), range(params.n_w), range(params.n_A), range(params.n_B)
    ):
        b = int(nmap.idx[a, s])
        expected = (
            d.lesser[q, w, b, 1 + rev[a, s]]
            - d.lesser[q, w, b, 0]
            - d.lesser[q, w, a, 0]
            + d.lesser[q, w, a, 1 + s]
        )
        assert np.array_equal(dc.lesser[q, w, a, s], expected)


def test_preprocess_missing_neighbor_slot():
    # hand-built one-way neighbor relation: 2 -> 1 but 1 -/-> 2
    nmap = NeighborMap(idx=np.array([[1], [0], [1]], dtype=np.int64))
    shape = (1, 1, 3, 2, 3, 3)
    d = GreensTensor(np.ones(shape, complex), np.ones(shape, complex))
    with pytest.raises(ValueError, match="missing neighbor slot"):
        preprocess_D(d, nmap)
    with pytest.raises(ValueError, match="missing neighbor slot"):
        preprocess_D(
            GreensTensor(np.ones((1, 1, 3, 1, 3, 3), complex), np.ones((1, 1, 3, 1, 3, 3), complex)),
            NeighborMap(idx=np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int64)),
        )


def test_sigma_rejects_what_is_not_the_preprocessed_d():
    # n_orb == n_B, so the electron tensor has the (n_A, n_B) slot shape of the preprocessed D;
    # the raw D has n_B + 1 slots
    params, grid, nmap, g, d, dh = _instance(15)
    assert params.n_orb == params.n_B
    for wrong, variant in itertools.product((g, d), SseVariant):
        with pytest.raises(ValueError, match="sse_sigma expects the preprocessed phonon tensor"):
            sse_sigma(variant, g, wrong, dh, nmap, grid)


def test_sigma_zero_phonon_input():
    params, grid, nmap, g, _, dh = _instance(2)
    zero = GreensTensor(
        np.zeros((params.n_qz, params.n_w, params.n_A, params.n_B, 3, 3), complex),
        np.zeros((params.n_qz, params.n_w, params.n_A, params.n_B, 3, 3), complex),
    )
    out = sse_sigma(SseVariant.REFERENCE, g, zero, dh, nmap, grid)
    assert np.all(out.lesser == 0) and np.all(out.greater == 0)


def test_sigma_scalar_instance_hand_oracle():
    params = SimParams(n_kz=1, n_qz=1, n_E=1, n_w=1, n_A=2, n_B=1, n_orb=1, bnum=1)
    nmap = build_neighbor_map(2, 1)
    weight = 0.37
    grid = EnergyGrid(values=(0.0,), frequency_map=((0, weight),), energy_weight=1.0)
    rng = np.random.default_rng(9)
    g = GreensTensor(_rand(rng, params.electron_shape), _rand(rng, params.electron_shape))
    dh = _rand(rng, (2, 1, 3, 1, 1))
    dc = GreensTensor(_rand(rng, (1, 1, 2, 1, 3, 3)), _rand(rng, (1, 1, 2, 1, 3, 3)))
    out = sse_sigma(SseVariant.REFERENCE, g, dc, dh, nmap, grid)
    for a in range(2):
        b = int(nmap.idx[a, 0])
        expected = 0.0
        for i in range(3):
            for j in range(3):
                expected += (
                    g.lesser[0, 0, b, 0, 0]
                    * dh[a, 0, i, 0, 0]
                    * dh[a, 0, j, 0, 0]
                    * dc.lesser[0, 0, a, 0, i, j]
                )
        expected = 1j * weight * expected
        assert abs(out.lesser[0, 0, a, 0, 0] - expected) <= 1e-13 * abs(expected)


def test_sigma_reference_matches_loop_oracle():
    params, grid, nmap, g, d, dh = _instance(3)
    dc = preprocess_D(d, nmap)
    out = sse_sigma(SseVariant.REFERENCE, g, dc, dh, nmap, grid)
    for side, g_arr, dc_arr in (("lesser", g.lesser, dc.lesser), ("greater", g.greater, dc.greater)):
        oracle = _oracle_sigma(params, grid, nmap, g_arr, dc_arr, dh)
        got = getattr(out, side)
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("variant", list(SseVariant))
def test_variant_equivalence(variant):
    params, grid, nmap, g, d, dh = _instance(4)
    dc = preprocess_D(d, nmap)
    ref = sse_sigma(SseVariant.REFERENCE, g, dc, dh, nmap, grid)
    out = sse_sigma(variant, g, dc, dh, nmap, grid)
    for side in ("lesser", "greater"):
        scale = np.max(np.abs(getattr(ref, side)))
        assert np.max(np.abs(getattr(out, side) - getattr(ref, side))) <= 1e-10 * scale


@pytest.mark.parametrize("variant", list(SseVariant))
def test_sigma_atom_range_restricts_the_produced_atoms(variant):
    params, grid, nmap, g, d, dh = _instance(30, TINY.replace(n_A=6))
    dc = preprocess_D(d, nmap)
    lo, hi = 2, 5
    c_full, c_part = FlopCounter(), FlopCounter()
    full = sse_sigma(variant, g, dc, dh, nmap, grid, counter=c_full)
    part = sse_sigma(variant, g, dc, dh, nmap, grid, counter=c_part, atom_range=(lo, hi))
    for side in ("lesser", "greater"):
        assert np.array_equal(getattr(part, side)[:, :, lo:hi], getattr(full, side)[:, :, lo:hi])
        assert not np.any(getattr(part, side)[:, :, :lo]) and not np.any(getattr(part, side)[:, :, hi:])
    assert set(c_part.stages) == set(c_full.stages)
    for stage, full_count in c_full.stages.items():
        assert c_part.stages[stage] * params.n_A == full_count * (hi - lo), stage


# Shape of the point-mask tests: offsets 1 and 2 on six energies, so masks near either edge read off the grid.
MASKED = TINY.replace(n_E=6, n_A=6)


def _point_masks(params):
    """(k_z, E) masks of the masked-kernel tests: random ones, every point, no point, one point, the energy
    edges, and the first and last momentum rows, whose k -+ q shifts wrap."""
    shape = (params.n_kz, params.n_E)
    rng = np.random.default_rng(50)
    masks = {"random-sparse": rng.random(shape) < 0.3, "random-dense": rng.random(shape) < 0.7,
             "every-point": np.ones(shape, dtype=bool)}
    for name, index in (("no-point", ()), ("one-point", (1, 2)), ("lowest-energy", (slice(None), 0)),
                        ("highest-energy", (slice(None), -1)), ("both-edges", (slice(None), [0, -1])),
                        ("first-momentum", 0), ("last-momentum", -1)):
        masks[name] = np.zeros(shape, dtype=bool)
        if index != ():
            masks[name][index] = True
    return masks


@pytest.mark.parametrize("variant", list(SseVariant))
def test_sigma_point_mask_zeroes_the_points_outside_it(variant):
    # the default arrangement also tallies exactly the rows the masked points read, and under the mask of
    # every point returns the unmasked call's bits
    params, grid, nmap, g, d, dh = _instance(33, MASKED)
    dc = preprocess_D(d, nmap)
    for atom_range in (None, (1, 4)):
        ref = sse_sigma(SseVariant.REFERENCE, g, dc, dh, nmap, grid, atom_range=atom_range)
        unmasked = sse_sigma(variant, g, dc, dh, nmap, grid, atom_range=atom_range)
        lo, hi = atom_range or (0, params.n_A)
        for name, mask in _point_masks(params).items():
            counter = FlopCounter()
            out = sse_sigma(variant, g, dc, dh, nmap, grid, counter=counter, atom_range=atom_range, point_mask=mask)
            if name == "every-point":
                assert np.array_equal(out.data, unmasked.data), atom_range
            for side in ("lesser", "greater"):
                want = np.where(mask[:, :, None, None, None], getattr(ref, side), 0)
                got = getattr(out, side)
                assert not np.any(got[~mask]), (name, atom_range, side)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(getattr(ref, side))), (name, atom_range, side)
            if variant is sse.DEFAULT_VARIANT:
                rows = _stage_cmuladds(params, hi - lo, _masked_rows(params, grid, mask)["sigma"])
                assert counter.stages == {"sigma.dhg": 2 * rows,
                                          "sigma.accumulate": 2 * rows * params.n_qz * params.n_w}, (name, atom_range)


def _atom_slice(g, dc, dh, nmap, lo, hi):
    """G, Dc and dH of atoms [lo, hi) with the neighbor map re-indexed into the slice."""
    sl = slice(lo, hi)
    return (
        GreensTensor(g.lesser[:, :, sl], g.greater[:, :, sl]),
        GreensTensor(dc.lesser[:, :, sl], dc.greater[:, :, sl]),
        dh[sl],
        NeighborMap(idx=nmap.idx[sl] - lo),
    )


@pytest.mark.parametrize("variant", list(SseVariant))
def test_sigma_neighbor_outside_g_raises(variant):
    # TINY's chain: atom a neighbors a +- 1, so in the slice [1, 4) local atom 0
    # (atom 1) reads local -1 (atom 0), and in [0, 3) local atom 2 reads local 3
    params, grid, nmap, g, d, dh = _instance(31)
    dc = preprocess_D(d, nmap)
    g_s, dc_s, dh_s, nmap_s = _atom_slice(g, dc, dh, nmap, 1, 4)
    with pytest.raises(ValueError, match="neighbor index -1"):
        sse_sigma(variant, g_s, dc_s, dh_s, nmap_s, grid, atom_range=(0, 2))
    inside = sse_sigma(variant, g_s, dc_s, dh_s, nmap_s, grid, atom_range=(1, 3))
    full = sse_sigma(variant, g, dc, dh, nmap, grid)
    assert np.array_equal(inside.lesser[:, :, 1:3], full.lesser[:, :, 2:4])
    g_s, dc_s, dh_s, nmap_s = _atom_slice(g, dc, dh, nmap, 0, 3)
    with pytest.raises(ValueError, match="neighbor index 3"):
        sse_sigma(variant, g_s, dc_s, dh_s, nmap_s, grid, atom_range=(2, 3))
    with pytest.raises(ValueError, match="atom range"):
        sse_sigma(variant, g_s, dc_s, dh_s, nmap_s, grid, atom_range=(0, 4))


@pytest.mark.parametrize("hoist", [None, True, False])
def test_pi_neighbor_outside_g_raises(hoist):
    params, grid, nmap, g, d, dh = _instance(32)
    dc = preprocess_D(d, nmap)
    g_s, _, dh_s, nmap_s = _atom_slice(g, dc, dh, nmap, 1, 4)
    with pytest.raises(ValueError, match="neighbor index -1"):
        sse_pi_chains(g_s, dh_s, nmap_s, grid, params.n_qz, hoist_invariant=hoist, atom_range=(0, 2))
    inside = sse_pi_chains(g_s, dh_s, nmap_s, grid, params.n_qz, hoist_invariant=hoist, atom_range=(1, 3))
    full = sse_pi_chains(g, dh, nmap, grid, params.n_qz, hoist_invariant=hoist)
    assert np.array_equal(inside.lesser[:, :, 1:3], full.lesser[:, :, 2:4])
    assert np.array_equal(inside.greater[:, :, 1:3], full.greater[:, :, 2:4])
    g_s, _, dh_s, nmap_s = _atom_slice(g, dc, dh, nmap, 0, 3)
    with pytest.raises(ValueError, match="neighbor index 3"):
        sse_pi_chains(g_s, dh_s, nmap_s, grid, params.n_qz, hoist_invariant=hoist, atom_range=(2, 3))


# Edge shapes of the default kernels: parameters, frequency offsets (None: the
# default grid) and a hand-built neighbor table (None: the synthesized chain).
EDGE_SHAPES = {
    # several q_z and omega, and the largest offset one short of the grid
    "wide-offsets": (SimParams(n_kz=3, n_qz=3, n_E=5, n_w=3, n_A=4, n_B=2, n_orb=2, bnum=2), (1, 3, 4), None),
    "offsets-0-and-last": (SimParams(n_kz=3, n_qz=2, n_E=5, n_w=2, n_A=4, n_B=2, n_orb=2, bnum=2), (0, 4), None),
    "single-momentum": (TINY.replace(n_kz=1, n_qz=1), None, None),
    "one-orbital": (TINY.replace(n_orb=1), None, None),
    "one-neighbor": (TINY.replace(n_B=1), None, None),
    "repeated-neighbor": (TINY, None, [[1, 1], [0, 0], [3, 3], [2, 2]]),
}


def _edge_instance(shape):
    params, offsets, table = EDGE_SHAPES[shape]
    _, grid, nmap, g, d, dh = _instance(16, params)
    if offsets is not None:
        grid = EnergyGrid(values=tuple(np.linspace(-1.0, 1.0, params.n_E)),
                          frequency_map=tuple((off, 0.3 - 0.1 * w) for w, off in enumerate(offsets)), energy_weight=0.5)
    if table is not None:
        nmap = NeighborMap(idx=np.array(table, dtype=np.int64))
    return params, grid, nmap, g, d, dh


def _stage_cmuladds(params, n_atoms, points=None):
    """Closed form of one dH G stage over ``n_atoms`` atoms, ``points`` (k_z, E) rows (all by default) and one tensor.

    n_atoms n_B 3 points n_orb^3.
    """
    points = params.n_kz * params.n_E if points is None else points
    return n_atoms * params.n_B * 3 * points * params.n_orb**3


def _masked_rows(params, grid, mask):
    """The (k_z, E) rows a masked default-kernel call runs its GEMMs at: Sigma's stages, and Pi's m2 and trace.

    Sigma reads ((k - q) mod n_kz, E - off) of each masked point; Pi forms m2
    at the masked points and its trace GEMM runs over them.  A mask of every
    point (or none) forms every row.
    """
    n_kz, n_e = params.n_kz, params.n_E
    if mask is None or mask.all():
        return {"sigma": n_kz * n_e, "pi": n_kz * n_e}
    owned = list(zip(*np.nonzero(mask)))
    momenta, offsets = range(params.n_qz), grid.offsets
    read = {((k - q) % n_kz, e - off) for k, e in owned for q in momenta for off in offsets if 0 <= e - off < n_e}
    return {"sigma": len(read), "pi": len(owned)}


def _pi_stages(params, n_atoms, points=None):
    """Closed form of the default Pi's tally over both tensors: m2 is one dH G stage, the trace n_qz n_w of them."""
    m2 = 2 * _stage_cmuladds(params, n_atoms, points)
    return {"pi.m2": m2, "pi.trace": m2 * params.n_qz * params.n_w}


@pytest.mark.parametrize("shape", list(EDGE_SHAPES))
def test_batched_fused_matches_reference_at_wide_offsets(shape):
    params, grid, nmap, g, d, dh = _edge_instance(shape)
    dc = preprocess_D(d, nmap)
    for atom_range in (None, (1, 3)):
        ref = sse_sigma(SseVariant.REFERENCE, g, dc, dh, nmap, grid, atom_range=atom_range)
        counter = FlopCounter()
        out = sse_sigma(SseVariant.BATCHED_FUSED, g, dc, dh, nmap, grid, counter=counter, atom_range=atom_range)
        for side in ("lesser", "greater"):
            scale = np.max(np.abs(getattr(ref, side)))
            assert np.max(np.abs(getattr(out, side) - getattr(ref, side))) <= 1e-12 * scale, (atom_range, side)
        common = _stage_cmuladds(params, params.n_A if atom_range is None else atom_range[1] - atom_range[0])
        assert counter.stages == {"sigma.dhg": 2 * common, "sigma.accumulate": 2 * common * params.n_qz * params.n_w}


def _spy_chunks(monkeypatch):
    """Record ``(complex entries per unit, units, chunk length)`` of every default-kernel chunking decision."""
    seen = []
    chunk = sse._chunk

    def spy(unit_entries, n_units):
        seen.append((unit_entries, n_units, chunk(unit_entries, n_units)))
        return seen[-1][2]

    monkeypatch.setattr(sse, "_chunk", spy)
    return seen


# The shape of the distsim-p8 benchmark workload, where chunks hold several units.
P8 = SimParams(n_kz=3, n_qz=2, n_E=16, n_w=4, n_A=32, n_B=4, n_orb=2, bnum=4)


def test_default_kernels_transient_memory_is_bounded():
    # At this shape one atom of either default kernel holds more than half of sse.BUDGET, so both run
    # one atom per chunk (pinned by the next test), and each call holds at most
    #     2 W + 3 A  bytes
    # above its outputs (tracemalloc peak less what the call still holds), with, in slabs of
    # n_kz n_E n_orb^2 complex,
    #     W = 3 n_w slabs: three omega windows of one G block, 12 slabs here,
    #     A = 3 n_B slabs: one atom's dH G factor over all its neighbors, 12 slabs here.
    # A Pi atom holds its m2 twice (2 A: as formed and as the trace GEMM reads it), and in the region
    # of the first its G1 (1 slab) and its n_qz n_w-slab window; with its D and index that is about
    # 27.4 of the bound's 60 slabs.  A Sigma atom holds about 26.  One atom per chunk fits; batching
    # over the n_A atoms does not.
    params = SimParams(n_kz=3, n_qz=2, n_E=32, n_w=4, n_A=8, n_B=4, n_orb=4, bnum=2)
    _, grid, nmap, g, d, dh = _instance(40, params)
    dc = preprocess_D(d, nmap)
    slab = params.n_kz * params.n_E * params.n_orb**2 * np.dtype(np.complex128).itemsize
    bound = 2 * 3 * params.n_w * slab + 3 * 3 * params.n_B * slab
    calls = {
        "sigma": lambda: sse_sigma(sse.DEFAULT_VARIANT, g, dc, dh, nmap, grid),
        "pi": lambda: sse_pi_chains(g, dh, nmap, grid, params.n_qz),
    }
    for name, call in calls.items():
        call()  # fills the cached gather plans
        tracemalloc.start()
        try:
            out = call()  # noqa: F841 -- the outputs stay held while the memory is read
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= bound, (name, peak - held, bound)


def test_default_kernel_chunk_lengths(monkeypatch):
    # one atom per chunk at the shape of the 2 W + 3 A bound above; several (Pi 10, Sigma 11) on
    # distsim-p8's small blocks
    memory_shape = SimParams(n_kz=3, n_qz=2, n_E=32, n_w=4, n_A=8, n_B=4, n_orb=4, bnum=2)
    seen = _spy_chunks(monkeypatch)
    for params, fits in ((memory_shape, lambda length: length == 1), (P8, lambda length: length >= 4)):
        _, grid, nmap, g, d, dh = _instance(44, params)
        seen.clear()
        sse_sigma(sse.DEFAULT_VARIANT, g, preprocess_D(d, nmap), dh, nmap, grid)
        sse_pi_chains(g, dh, nmap, grid, params.n_qz)
        assert len(seen) == 2 and all(fits(length) for _, _, length in seen), (params, seen)


def test_default_kernels_transient_memory_at_a_chunked_shape():
    # At the distsim-p8 shape several atoms fit sse.BUDGET (pinned above), masked or not; a chunk's
    # length times its per-atom bytes is at most BUDGET, so each call holds at most
    #     BUDGET + SLACK  bytes
    # above its outputs.  SLACK covers what does not scale with the chunk: the call's gather plans and
    # dH layouts (about 25 KiB here) and the buffers numpy's broadcast ufunc loops allocate, at most
    # 8192 entries per operand (about 135 KiB for Sigma's Xi weighting, 35 KiB for the index of a
    # masked call's row gather).  The largest call, masked Sigma, measured 193 KiB above BUDGET with
    # numpy 2.4; SLACK = 224 KiB adds 31 KiB of margin, so a unit under-counted by a quarter fails.
    params, grid, nmap, g, d, dh = _instance(43, P8)
    dc = preprocess_D(d, nmap)
    mask = np.zeros((params.n_kz, params.n_E), dtype=bool)
    mask[:, 4:12] = True
    calls = {
        "sigma": lambda: sse_sigma(sse.DEFAULT_VARIANT, g, dc, dh, nmap, grid),
        "sigma-masked": lambda: sse_sigma(sse.DEFAULT_VARIANT, g, dc, dh, nmap, grid, point_mask=mask),
        "pi": lambda: sse_pi_chains(g, dh, nmap, grid, params.n_qz),
        "pi-masked": lambda: sse_pi_chains(g, dh, nmap, grid, params.n_qz, point_mask=mask),
    }
    bound = sse.BUDGET + 224 * 1024
    for name, call in calls.items():
        call()  # fills the cached gather plans
        tracemalloc.start()
        try:
            out = call()  # noqa: F841 -- the outputs stay held while the memory is read
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= bound, (name, peak - held, bound)


@pytest.mark.parametrize("ranged", [False, True])
def test_chunk_boundaries_are_value_neutral(monkeypatch, ranged):
    # The default kernels at one atom per chunk, at 5 atoms (dividing neither the 32 atoms nor the
    # ranged 26, so the last chunk is short) and at every atom in one chunk; ranged, with the atom
    # range and (k_z, E) point mask of a tiled distsim rank.
    params, grid, nmap, g, d, dh = _instance(42, P8)
    dc = preprocess_D(d, nmap)
    atom_range = mask = None
    if ranged:
        atom_range, mask = (3, 29), np.zeros((params.n_kz, params.n_E), dtype=bool)
        mask[:, 5:13] = True
    n_atoms = params.n_A if atom_range is None else atom_range[1] - atom_range[0]
    kernels = {
        "sigma": (n_atoms, lambda counter: sse_sigma(
            sse.DEFAULT_VARIANT, g, dc, dh, nmap, grid, counter=counter, atom_range=atom_range, point_mask=mask)),
        "pi": (n_atoms, lambda counter: sse_pi_chains(
            g, dh, nmap, grid, params.n_qz, counter=counter, point_mask=mask, atom_range=atom_range)),
    }
    rows = _masked_rows(params, grid, mask)
    sigma_rows = _stage_cmuladds(params, n_atoms, rows["sigma"])
    closed = {"sigma.dhg": 2 * sigma_rows, "sigma.accumulate": 2 * sigma_rows * params.n_qz * params.n_w,
              **_pi_stages(params, n_atoms, rows["pi"])}
    seen = _spy_chunks(monkeypatch)
    units, outs = {}, {}
    for chunking in ("one", "tail", "all"):
        counter = FlopCounter()
        for name, (n_units, call) in kernels.items():
            length = {"one": 1, "tail": 5, "all": n_units}[chunking]
            assert n_units % 5
            monkeypatch.setattr(sse, "BUDGET", length * 16 * units.get(name, 1))
            seen.clear()
            out = call(counter)
            ((units[name], _, got),) = seen
            assert got == length, (name, chunking, got)
            outs[chunking, name] = (out.lesser, out.greater)
        assert counter.stages == closed, chunking
        if not ranged:
            assert counter.flops() == sse_flops_dace(params)
    for (chunking, name), pair in outs.items():
        for got, want in zip(pair, outs["one", name]):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (chunking, name)


def test_fissioned_holds_one_dhg_transient_at_a_time():
    # FISSIONED's largest allocation is its stage-1 transient, n_qz n_w copies of dH G for every
    # (atom, neighbor); one tensor's transient is released before the other tensor's is built.
    params = SimParams(n_kz=3, n_qz=2, n_E=8, n_w=4, n_A=4, n_B=2, n_orb=2, bnum=2)
    _, grid, nmap, g, d, dh = _instance(41, params)
    dc = preprocess_D(d, nmap)
    transient = (params.n_qz * params.n_w * params.n_A * params.n_B * 3 * params.n_kz * params.n_E
                 * params.n_orb**2 * np.dtype(np.complex128).itemsize)
    sse_sigma(SseVariant.FISSIONED, g, dc, dh, nmap, grid)  # fills the cached shift plans
    tracemalloc.start()
    try:
        out = sse_sigma(SseVariant.FISSIONED, g, dc, dh, nmap, grid)  # noqa: F841 -- held while the memory is read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 1.5 * transient, (peak - held, transient)


def test_fissioned_intermediate_matches_redundancy_removed():
    params, grid, nmap, g, d, dh = _instance(5)
    atoms, n_qw = range(params.n_A), params.n_qz * params.n_w

    def transient(variant, g_arr):
        return _dhg_transient(variant, g_arr, dh, nmap, atoms, n_qw, FlopCounter())

    fissioned = transient(SseVariant.FISSIONED, g.lesser)
    removed = transient(SseVariant.REDUNDANCY_REMOVED, g.lesser)
    assert (len(fissioned), len(removed)) == (n_qw, 1)
    # the dims removed by the transformation were constant copies
    for copy in fissioned:
        assert np.array_equal(copy, removed[0])
    # the copy built by tall GEMMs on the atom-major G matches the one contracted per point
    transformed = transient(SseVariant.LAYOUT_TRANSFORMED, to_atom_major(g.lesser))
    assert transformed.shape == removed.shape
    assert np.max(np.abs(transformed - removed)) <= 1e-14 * np.max(np.abs(removed))


def test_layout_roundtrip_bitwise():
    params, _, _, g, _, _ = _instance(6)
    assert np.array_equal(to_grid_major(to_atom_major(g.lesser)), g.lesser)
    am = to_atom_major(g.lesser)
    assert am.shape == (params.n_A, params.n_kz, params.n_E, params.n_orb, params.n_orb)
    assert np.array_equal(am[2], g.lesser[:, :, 2])


def test_sigma_linearity_superposition():
    params, grid, nmap, g, d, dh = _instance(8)
    rng = np.random.default_rng(42)
    g2 = GreensTensor(_rand(rng, params.electron_shape), _rand(rng, params.electron_shape))
    d1 = preprocess_D(d, nmap)
    d2 = GreensTensor(_rand(rng, d1.lesser.shape), _rand(rng, d1.greater.shape))

    def run(gg, dd):
        return sse_sigma(SseVariant.REFERENCE, gg, dd, dh, nmap, grid)

    # linear in G
    g_sum = GreensTensor(g.lesser + g2.lesser, g.greater + g2.greater)
    lhs = run(g_sum, d1)
    rhs_l = run(g, d1).lesser + run(g2, d1).lesser
    assert np.max(np.abs(lhs.lesser - rhs_l)) <= 1e-12 * np.max(np.abs(rhs_l))
    # linear in D
    d_sum = GreensTensor(d1.lesser + d2.lesser, d1.greater + d2.greater)
    lhs = run(g, d_sum)
    rhs_l = run(g, d1).lesser + run(g, d2).lesser
    assert np.max(np.abs(lhs.lesser - rhs_l)) <= 1e-12 * np.max(np.abs(rhs_l))


def test_pi_zero_electron_input():
    params, grid, nmap, _, _, dh = _instance(9)
    zero = GreensTensor(
        np.zeros(params.electron_shape, complex), np.zeros(params.electron_shape, complex)
    )
    out = sse_pi(zero, dh, nmap, grid, params.n_qz)
    assert np.all(out.lesser == 0) and np.all(out.greater == 0)


def test_pi_single_point_signs():
    params = SimParams(n_kz=1, n_qz=1, n_E=1, n_w=1, n_A=2, n_B=1, n_orb=1, bnum=1)
    nmap = build_neighbor_map(2, 1)
    w_e = 0.21
    grid = EnergyGrid(values=(0.0,), frequency_map=((0, 1.0),), energy_weight=w_e)
    rng = np.random.default_rng(10)
    g = GreensTensor(_rand(rng, params.electron_shape), _rand(rng, params.electron_shape))
    dh = _rand(rng, (2, 1, 3, 1, 1))
    out = sse_pi(g, dh, nmap, grid, 1)
    for a in range(2):
        b = int(nmap.idx[a, 0])
        chain = np.zeros((3, 3), complex)
        for i in range(3):
            for j in range(3):
                chain[i, j] = w_e * (
                    dh[a, 0, i, 0, 0] * g.greater[0, 0, a, 0, 0] * dh[a, 0, j, 0, 0] * g.lesser[0, 0, b, 0, 0]
                )
        assert np.allclose(out.greater[0, 0, a, 0], -1j * chain, atol=1e-14)
        assert np.allclose(out.greater[0, 0, a, 1], +1j * chain, atol=1e-14)


def test_pi_matches_loop_oracle():
    params, grid, nmap, g, _, dh = _instance(11)
    out = sse_pi(g, dh, nmap, grid, params.n_qz)
    oracle_l, oracle_g = _oracle_pi(params, grid, nmap, g, dh)
    assert np.max(np.abs(out.lesser - oracle_l)) <= 1e-12 * np.max(np.abs(oracle_l))
    assert np.max(np.abs(out.greater - oracle_g)) <= 1e-12 * np.max(np.abs(oracle_g))


def test_pi_hoisting_is_value_neutral():
    params, grid, nmap, g, _, dh = _instance(12)
    hoisted = sse_pi(g, dh, nmap, grid, params.n_qz, hoist_invariant=True)
    plain = sse_pi(g, dh, nmap, grid, params.n_qz, hoist_invariant=False)
    assert np.array_equal(hoisted.lesser, plain.lesser)
    assert np.array_equal(hoisted.greater, plain.greater)


@pytest.mark.parametrize(
    "seed, shape",
    [pytest.param(seed, None, id=str(seed)) for seed in range(4)]
    + [pytest.param(4, shape, id=shape) for shape in EDGE_SHAPES],
)
def test_default_pi_matches_unhoisted(seed, shape):
    if shape is None:
        params, grid, nmap, g, _, dh = _instance(20 + seed, TINY.replace(n_qz=3, n_E=5, n_w=3))
    else:
        params, grid, nmap, g, _, dh = _edge_instance(shape)
    rng = np.random.default_rng(seed)
    mask = rng.random((params.n_kz, params.n_E)) < 0.6
    for kwargs in ({}, {"point_mask": mask}, {"atom_range": (1, 3)}, {"point_mask": mask, "atom_range": (2, 4)}):
        plain = sse_pi_chains(g, dh, nmap, grid, params.n_qz, hoist_invariant=False, **kwargs)
        counter = FlopCounter()
        default = sse_pi_chains(g, dh, nmap, grid, params.n_qz, counter=counter, **kwargs)
        for want, got in ((plain.lesser, default.lesser), (plain.greater, default.greater)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), kwargs
        lo, hi = kwargs.get("atom_range", (0, params.n_A))
        rows = _masked_rows(params, grid, kwargs.get("point_mask"))
        assert counter.stages == _pi_stages(params, hi - lo, rows["pi"]), kwargs


def test_default_pi_point_masks_match_unhoisted():
    # and tallies m2 and the trace at exactly the masked rows; under the mask of every point it
    # returns the unmasked call's bits
    params, grid, nmap, g, _, dh = _instance(35, MASKED)
    for atom_range in (None, (1, 4)):
        lo, hi = atom_range or (0, params.n_A)
        unmasked = sse_pi_chains(g, dh, nmap, grid, params.n_qz, atom_range=atom_range)
        for name, mask in _point_masks(params).items():
            plain = sse_pi_chains(g, dh, nmap, grid, params.n_qz, hoist_invariant=False, point_mask=mask, atom_range=atom_range)
            counter = FlopCounter()
            default = sse_pi_chains(g, dh, nmap, grid, params.n_qz, counter=counter, point_mask=mask, atom_range=atom_range)
            if name == "every-point":
                assert np.array_equal(default.data, unmasked.data), atom_range
            for want, got in ((plain.lesser, default.lesser), (plain.greater, default.greater)):
                scale = max(np.max(np.abs(want)), 1e-300)
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (name, atom_range)
            if not mask.any():
                assert not np.any(default.data), (name, atom_range)
            rows = _masked_rows(params, grid, mask)
            assert counter.stages == _pi_stages(params, hi - lo, rows["pi"]), (name, atom_range)


def test_reference_dhg_counter_is_qw_multiple_of_batched():
    params, grid, nmap, g, d, dh = _instance(13, TINY.replace(n_qz=2, n_w=1))
    dc = preprocess_D(d, nmap)
    c_ref = FlopCounter()
    sse_sigma(SseVariant.REFERENCE, g, dc, dh, nmap, grid, counter=c_ref)
    c_bf = FlopCounter()
    sse_sigma(SseVariant.BATCHED_FUSED, g, dc, dh, nmap, grid, counter=c_bf)
    ratio = c_ref.cmuladds("sigma.dhg") / c_bf.cmuladds("sigma.dhg")
    assert ratio == params.n_qz * params.n_w == 2


def test_self_consistent_zero_coupling_fixed_point():
    params = TINY.replace(n_E=3, n_w=1)
    dev, nmap = synthesize(params, seed=1, coupling=0.0)
    result = self_consistent_loop(dev, nmap, params, max_iter=10, tol=1e-12)
    assert result.converged
    assert result.iterations == 2
    assert result.deltas == [0.0]


def test_self_consistent_iteration_cap():
    params = TINY.replace(n_E=3, n_w=1)
    dev, nmap = synthesize(params, seed=1, coupling=0.1)
    result = self_consistent_loop(dev, nmap, params, max_iter=1, tol=1e-12)
    assert not result.converged
    assert result.iterations == 1
    assert result.deltas == []


@pytest.mark.parametrize("solver", SOLVERS)
def test_self_consistent_growth_stops_as_diverged(solver):
    # the tiny preset at seed 1 with a 0.1 seed blows up at eta=1e-3
    params = SimParams(n_kz=3, n_qz=2, n_E=8, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4)
    dev, nmap = synthesize(params, seed=1, coupling=0.05)
    sigma0, pi0 = seeded_self_energies(params, 0.1)
    result = self_consistent_loop(
        dev, nmap, params, max_iter=10, tol=1e-8, solver=solver, initial_sigma=sigma0, initial_pi=pi0
    )
    assert result.diverged and not result.converged
    assert result.iterations == DIVERGENCE_PASSES + 2
    tail = result.abs_deltas[-DIVERGENCE_PASSES - 1:]
    assert all(a < b for a, b in zip(tail, tail[1:]))
    assert all(d > 1 for d in result.deltas[-DIVERGENCE_PASSES:])


def test_self_consistent_non_finite_iterate_stops_as_diverged(monkeypatch):
    params = TINY.replace(n_E=3, n_w=1)
    dev, nmap = synthesize(params, seed=1)

    def overflowed(*args, **kwargs):
        g_e, g_ph = GreensTensor.zeros(params.electron_shape), GreensTensor.zeros(params.phonon_shape)
        g_e.lesser[0, 0, 0, 0, 0] = np.inf
        return g_e, g_ph

    monkeypatch.setattr(sse, "gf_phase", overflowed)
    result = self_consistent_loop(dev, nmap, params, max_iter=10, tol=1e-12)
    assert result.diverged and not result.converged
    assert result.iterations == 1


def test_self_consistent_monotone_relaxation_fixture():
    # Regression fixture observed on this synthesized instance (seeded start,
    # small coupling); recorded behavior, not a theorem.
    params = SimParams(n_kz=2, n_qz=2, n_E=6, n_w=2, n_A=4, n_B=2, n_orb=2, bnum=2, eta=0.05)
    dev, nmap = synthesize(params, seed=3, coupling=0.05)
    sigma0, pi0 = seeded_self_energies(params, 0.1)
    result = self_consistent_loop(
        dev, nmap, params, max_iter=12, tol=1e-10, initial_sigma=sigma0, initial_pi=pi0
    )
    assert result.converged
    assert len(result.abs_deltas) >= 3
    assert all(a > b for a, b in zip(result.abs_deltas, result.abs_deltas[1:]))


def test_pi_from_chains_shapes_and_signs():
    rng = np.random.default_rng(14)
    chains_l = _rand(rng, (1, 1, 2, 2, 3, 3))
    chains_g = _rand(rng, (1, 1, 2, 2, 3, 3))
    out = pi_from_chains(GreensTensor(chains_l, chains_g))
    assert out.lesser.shape == (1, 1, 2, 3, 3, 3)
    assert np.allclose(out.lesser[0, 0, 0, 0], -1j * chains_l[0, 0, 0].sum(axis=0))
    assert np.allclose(out.lesser[0, 0, 0, 2], 1j * chains_l[0, 0, 0, 1])


def test_every_producer_returns_one_stacked_pair():
    # each pair is one C-ordered complex128 [2, ...] array whose lesser and greater are its two views
    params = TINY
    grid = default_grid(params)
    dev, nmap = synthesize(params, seed=2)
    rng = np.random.default_rng(2)
    x, y = _rand(rng, params.electron_shape), _rand(rng, params.electron_shape)
    g = GreensTensor(x, y)
    d = GreensTensor(_rand(rng, params.phonon_shape), _rand(rng, params.phonon_shape))
    chain_shape = (params.n_qz, params.n_w, params.n_A, params.n_B, 3, 3)

    def stacked(pair, shape):
        data = pair.data
        assert data.dtype == np.complex128 and data.shape == (2, *shape) and data.flags.c_contiguous
        assert pair.lesser.base is data and pair.greater.base is data
        assert np.shares_memory(pair.lesser, data[0]) and np.shares_memory(pair.greater, data[1])

    # the constructor copies its inputs once and aliases neither
    stacked(g, params.electron_shape)
    assert not np.shares_memory(g.data, x) and not np.shares_memory(g.data, y)
    assert np.array_equal(g.lesser, x) and np.array_equal(g.greater, y)
    with pytest.raises(ValueError, match="mismatch"):
        GreensTensor(x, y[:, :1])

    sigma0, pi0 = seeded_self_energies(params, 0.1)
    stacked(sigma0, params.electron_shape)
    stacked(pi0, params.phonon_shape)
    for solver in SOLVERS:
        g_e, g_ph = gf_phase(dev, sigma0, pi0, params, grid, nmap, solver=solver)
        stacked(g_e, params.electron_shape)
        stacked(g_ph, params.phonon_shape)
    dc = preprocess_D(d, nmap)
    stacked(dc, chain_shape)
    for variant in SseVariant:
        stacked(sse_sigma(variant, g, dc, dev.dH, nmap, grid), params.electron_shape)
    for hoist in (None, False, True):
        stacked(sse_pi_chains(g, dev.dH, nmap, grid, params.n_qz, hoist_invariant=hoist), chain_shape)
    stacked(sse_pi(g, dev.dH, nmap, grid, params.n_qz), params.phonon_shape)
    for sigma, pi, _ in (
        run_omen_scheme(g, d, dev.dH, nmap, grid, params, 2),
        run_tiled_scheme(g, d, dev.dH, nmap, grid, params, 2, 2),
    ):
        stacked(sigma, params.electron_shape)
        stacked(pi, params.phonon_shape)
    result = self_consistent_loop(dev, nmap, params, max_iter=2, initial_sigma=sigma0, initial_pi=pi0)
    for pair, shape in ((result.g_electron, params.electron_shape), (result.g_phonon, params.phonon_shape),
                        (result.sigma, params.electron_shape), (result.pi, params.phonon_shape)):
        stacked(pair, shape)

"""Synthetic device generation: invariants, determinism and the banded storage."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from negflow import device
from negflow.device import (
    DeviceMatrices,
    atom_block_index,
    build_neighbor_map,
    coupling_mask,
    from_band,
    half_bandwidth,
    hermitian_check,
    synthesize,
    to_band,
)
from negflow.params import SimParams

TINY = SimParams(n_kz=3, n_qz=2, n_E=8, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4)
SMALL = SimParams(n_kz=3, n_qz=2, n_E=8, n_w=2, n_A=32, n_B=4, n_orb=2, bnum=4)
DESK32 = SimParams(n_kz=3, n_qz=2, n_E=64, n_w=8, n_A=32, n_B=4, n_orb=4, bnum=4, eta=0.05)
GF_LONG = SimParams(n_kz=3, n_qz=1, n_E=32, n_w=2, n_A=128, n_B=2, n_orb=4, bnum=16, eta=0.05)


def test_synthesize_deterministic():
    d1, n1 = synthesize(TINY, seed=42)
    d2, n2 = synthesize(TINY, seed=42)
    assert np.array_equal(n1.idx, n2.idx)
    for a, b in ((d1.H, d2.H), (d1.S, d2.S), (d1.Phi, d2.Phi)):
        assert np.array_equal(from_band(a), from_band(b))
    assert np.array_equal(d1.dH, d2.dH)


def test_synthesize_satisfies_invariants():
    dev, nmap = synthesize(TINY.replace(n_A=8, n_B=2), seed=42)
    assert hermitian_check(dev) <= 1e-14
    # overlap matrices are Hermitian positive definite with margin
    for s in from_band(dev.S):
        assert np.min(np.linalg.eigvalsh(s)) >= 0.5
    # spectrum bracketed by the default [-1, 1] grid
    for h in from_band(dev.H):
        assert np.max(np.abs(np.linalg.eigvalsh(h))) <= 0.8 + 1e-12


def test_rejects_too_many_neighbors():
    with pytest.raises(ValueError, match="n_B must be < n_A"):
        synthesize(TINY.replace(n_A=8, n_B=8), seed=0)


def test_odd_neighbors_need_even_atoms():
    with pytest.raises(ValueError, match="even atom count"):
        build_neighbor_map(5, 3)
    nmap = build_neighbor_map(6, 3)  # even n_A works
    assert nmap.idx.shape == (6, 3)


def test_neighbor_map_bounds_and_locality():
    nmap = build_neighbor_map(16, 4)
    a = np.arange(16)[:, None]
    assert np.all(nmap.idx >= 0)
    assert np.all(nmap.idx < 16)
    assert np.all(nmap.idx != a)
    # exhaustive scan over the generated map
    assert np.max(np.abs(nmap.idx - a)) <= 4


def test_neighbor_map_reverse_closed():
    for n_a, n_b in [(2, 1), (6, 3), (8, 2), (16, 4), (9, 4), (12, 5)]:
        nmap = build_neighbor_map(n_a, n_b)
        table = nmap.reverse_slot_table()  # raises if any reverse edge is missing
        for a in range(n_a):
            for s in range(n_b):
                b = int(nmap.idx[a, s])
                assert table[a, s] == list(nmap.idx[b]).index(a)  # the first slot of b that lists a


def test_block_sparsity_matches_neighbor_mask():
    params = TINY.replace(n_A=8, n_B=4, bnum=4)
    dev, nmap = synthesize(params, seed=7)
    mask = coupling_mask(nmap, params.bnum)
    orb = params.n_orb
    for h in from_band(dev.H):
        for a in range(params.n_A):
            for b in range(params.n_A):
                block = h[a * orb : (a + 1) * orb, b * orb : (b + 1) * orb]
                if mask[a, b]:
                    assert np.any(block != 0)
                else:
                    assert np.all(block == 0)


def test_block_partition_is_tridiagonal():
    params = TINY.replace(n_A=8, n_B=6, bnum=4)  # reach beyond one block
    _, nmap = synthesize(params, seed=1)
    mask = coupling_mask(nmap, params.bnum)
    blk = atom_block_index(params.n_A, params.bnum)
    far = np.abs(blk[:, None] - blk[None, :]) > 1
    assert not np.any(mask & far)


def test_hermitian_check_detects_perturbation():
    dev, _ = synthesize(TINY, seed=0)
    h = from_band(dev.H)
    h[0, 0, 1] += 1.0
    broken = DeviceMatrices(H=to_band(h), S=dev.S, Phi=dev.Phi, dH=dev.dH)
    assert hermitian_check(broken) >= 0.5


def test_hermitian_check_detects_a_perturbed_overlap():
    dev, _ = synthesize(TINY, seed=0)
    assert hermitian_check(dev) <= 1e-14
    s = from_band(dev.S)
    s[1, 2, 0] += 1.0
    assert hermitian_check(dataclasses.replace(dev, S=to_band(s))) >= 0.5


def test_hermitian_check_identity_is_zero():
    n = TINY.n_A * TINY.n_orb
    m = TINY.n_A * TINY.n_3D
    eye_dev = DeviceMatrices(
        H=to_band(np.eye(n, dtype=complex)[None]),
        S=to_band(np.eye(n, dtype=complex)[None]),
        Phi=to_band(np.eye(m, dtype=complex)[None]),
        dH=np.zeros((TINY.n_A, TINY.n_B, 3, TINY.n_orb, TINY.n_orb), complex),
    )
    assert hermitian_check(eye_dev) == 0.0


def test_zero_coupling_scale():
    dev, _ = synthesize(TINY, seed=4, coupling=0.0)
    assert np.all(dev.dH == 0)


def _drawn_stacks(params, seed):
    """H, S and Phi as full [momenta, n, n] stacks, drawn as ``synthesize`` draws them: same masks, same order."""
    rng = np.random.default_rng(seed)
    mask = coupling_mask(build_neighbor_map(params.n_A, params.n_B), params.bnum)
    n_e = params.n_A * params.n_orb
    e_mask, e_decay = device._expand_mask(mask, params.n_orb), device._decay_profile(params.n_A, params.n_orb)
    h, s = np.empty((2, params.n_kz, n_e, n_e), complex)
    for k in range(params.n_kz):
        h[k] = device._random_coupling(rng, e_mask, e_decay, 0.8)
        s[k] = np.eye(n_e) + device._random_coupling(rng, e_mask, None, 0.4)
    ph_mask, ph_decay = device._expand_mask(mask, params.n_3D), device._decay_profile(params.n_A, params.n_3D)
    omega_min = 2.0 / max(params.n_E - 1, 1)
    phi = np.stack([device._random_coupling(rng, ph_mask, ph_decay, 0.5 * omega_min**2) for _ in range(params.n_qz)])
    return {"H": h, "S": s, "Phi": phi}


@pytest.mark.parametrize("params", [TINY, SMALL, DESK32, GF_LONG, TINY.replace(n_B=3)],
                         ids=["tiny", "small", "desk-32", "gf-long", "odd-n_B"])
def test_rebuilt_matrices_equal_the_drawn_ones(params):
    # synthesize cuts each momentum to its band as it draws it; the band holds every nonzero of the draw, so the
    # rebuilt matrices are the drawn ones bit for bit, and the band is the one a scan of the whole stack gives
    dev, _ = synthesize(params, seed=3)
    for name, full in _drawn_stacks(params, seed=3).items():
        band = getattr(dev, name)
        assert band.shape[-1] == 2 * half_bandwidth(full) + 1
        assert np.array_equal(from_band(band), full)
        assert np.array_equal(to_band(full), band)


def test_gf_long_device_stores_bands_only():
    # H, S and Phi take n (2w + 1) complex128 entries per momentum: w = 7 rows for H and S (an atom of 4 orbitals
    # and one neighbor atom either side) and 5 for Phi (atoms of 3 rows), 0.77 MiB in all against 26.2 MiB of
    # n x n stacks.  synthesize holds one momentum's draw at a time, so its tracemalloc peak is at most
    #     BOUND = 5 draws  of n^2 complex128 (4 MiB at n = 512)
    # whatever n_kz is: it measured 4.28 draws at 3 momenta and 4.45 at 6 with numpy 2.4 (10.10 and 16.10 when
    # the stacks were held whole); the slack, 0.55 draws, covers the bands themselves, which grow with n_kz.
    params = GF_LONG
    n_e, n_ph = params.n_A * params.n_orb, params.n_A * params.n_3D
    dev, _ = synthesize(params, seed=1)
    assert (dev.H.shape, dev.S.shape, dev.Phi.shape) == ((3, n_e, 15), (3, n_e, 15), (1, n_ph, 11))
    stored = dev.H.nbytes + dev.S.nbytes + dev.Phi.nbytes
    assert stored == (2 * params.n_kz * n_e * 15 + params.n_qz * n_ph * 11) * 16 == 804864
    draw = n_e * n_e * 16
    for n_kz in (params.n_kz, 2 * params.n_kz):
        gc.collect()
        tracemalloc.start()
        try:
            synthesize(params.replace(n_kz=n_kz), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * draw, (n_kz, peak / draw)


def test_a_device_holds_copies_of_valid_bands():
    dev, _ = synthesize(TINY, seed=2)
    band = np.array(dev.H)
    own = DeviceMatrices(H=band, S=dev.S, Phi=dev.Phi, dH=dev.dH)
    band[:] = 0.0  # the caller's array, still writable, is not the device's
    assert np.array_equal(own.H, dev.H) and not own.H.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        own.S[0, 0, 0] = 1.0
    outside = np.array(dev.H)
    outside[0, 0, 0] = 1.0  # row 0, column -w: outside the matrix
    for bad in (outside, dev.H[..., 1:], from_band(dev.H)[0]):
        with pytest.raises(ValueError, match=r"^H must be bands \[momenta, n, 2w \+ 1\]"):
            DeviceMatrices(H=bad, S=dev.S, Phi=dev.Phi, dH=dev.dH)

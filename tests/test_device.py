"""Synthetic device generation: invariants and determinism."""

import numpy as np
import pytest

from negflow.device import (
    DeviceMatrices,
    atom_block_index,
    build_neighbor_map,
    coupling_mask,
    hermitian_check,
    synthesize,
)
from negflow.params import SimParams

TINY = SimParams(n_kz=3, n_qz=2, n_E=8, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4)


def test_synthesize_deterministic():
    d1, n1 = synthesize(TINY, seed=42)
    d2, n2 = synthesize(TINY, seed=42)
    assert np.array_equal(n1.idx, n2.idx)
    for a, b in ((d1.H, d2.H), (d1.S, d2.S), (d1.Phi, d2.Phi), (d1.dH, d2.dH)):
        assert np.array_equal(a, b)


def test_synthesize_satisfies_invariants():
    dev, nmap = synthesize(TINY.replace(n_A=8, n_B=2), seed=42)
    assert hermitian_check(dev) <= 1e-14
    # overlap matrices are Hermitian positive definite with margin
    for s in dev.S:
        assert np.min(np.linalg.eigvalsh(s)) >= 0.5
    # spectrum bracketed by the default [-1, 1] grid
    for h in dev.H:
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
    for h in dev.H:
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
    h = dev.H.copy()
    h[0, 0, 1] += 1.0
    broken = DeviceMatrices(H=h, S=dev.S, Phi=dev.Phi, dH=dev.dH)
    assert hermitian_check(broken) >= 0.5


def test_hermitian_check_identity_is_zero():
    n = TINY.n_A * TINY.n_orb
    m = TINY.n_A * TINY.n_3D
    eye_dev = DeviceMatrices(
        H=np.eye(n, dtype=complex)[None],
        S=np.eye(n, dtype=complex)[None],
        Phi=np.eye(m, dtype=complex)[None],
        dH=np.zeros((TINY.n_A, TINY.n_B, 3, TINY.n_orb, TINY.n_orb), complex),
    )
    assert hermitian_check(eye_dev) == 0.0


def test_zero_coupling_scale():
    dev, _ = synthesize(TINY, seed=4, coupling=0.0)
    assert np.all(dev.dH == 0)

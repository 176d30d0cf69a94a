"""Green's function solvers: dense oracle, RGF equivalence, phase assembly."""

import dataclasses
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from negflow import device
from negflow.device import DeviceMatrices, build_neighbor_map, from_band, synthesize, to_band
from negflow import gf
from negflow.gf import (
    SOLVERS,
    GreensTensor,
    SingularSystemError,
    add_slots,
    gf_phase,
    pick_slots,
    place_slots,
    point_system,
    retarded_from_lesser_greater,
    slot_index,
    solve_phonon_point,
    solve_point_dense,
    solve_point_dense_diag,
    solve_point_rgf,
)
from negflow.params import SimParams, default_grid
from negflow.sse import seeded_self_energies, self_consistent_loop, sse_pi

TINY = SimParams(n_kz=3, n_qz=2, n_E=4, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4)
GF_LONG = SimParams(n_kz=3, n_qz=1, n_E=32, n_w=2, n_A=128, n_B=2, n_orb=4, bnum=16, eta=0.05)
DESK32_WIDE = SimParams(n_kz=3, n_qz=3, n_E=64, n_w=32, n_A=32, n_B=4, n_orb=4, bnum=4, eta=0.05)


def _free_device(params, n=None):
    n = n if n is not None else params.n_A * params.n_orb
    m = params.n_A * params.n_3D
    return DeviceMatrices(
        H=to_band(np.zeros((params.n_kz, n, n), complex)),
        S=to_band(np.tile(np.eye(n, dtype=complex), (params.n_kz, 1, 1))),
        Phi=to_band(np.zeros((params.n_qz, m, m), complex)),
        dH=np.zeros((params.n_A, params.n_B, 3, params.n_orb, params.n_orb), complex),
    )


def _rand_sigma(rng, n):
    return np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _rand_diag_atom_blocks(rng, n_a, m):
    """Atom blocks [n_A, m, m] whose block-diagonal matrix is ``_rand_sigma``'s."""
    blocks = np.zeros((n_a, m, m), complex)
    diag = np.arange(m)
    blocks[:, diag, diag] = (rng.standard_normal(n_a * m) + 1j * rng.standard_normal(n_a * m)).reshape(n_a, m)
    return blocks


def _rand_atom_blocks(rng, n_a, m, scale=1.0):
    return scale * (rng.standard_normal((n_a, m, m)) + 1j * rng.standard_normal((n_a, m, m)))


def _rel(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def _block_diag(blocks):
    """Atom blocks [..., n_A, m, m] -> their block-diagonal matrices."""
    return place_slots(blocks[..., None, :, :], slot_index(np.arange(blocks.shape[-3])[:, None]))


def _diag_blocks(matrix, n_a):
    """Matrices [..., n_A m, n_A m] -> their atom-diagonal blocks [..., n_A, m, m]."""
    return pick_slots(matrix, slot_index(np.arange(n_a)[:, None]))[..., 0, :, :]


def _phonon_matrix(slots, nmap):
    """Slot layout [..., n_A, n_B+1, m, m] -> full matrices (a duplicate slot: the last one wins)."""
    return place_slots(slots, slot_index(nmap.partners))


def _scans(dev, *names):
    """Every momentum's row extents of the named matrices of ``dev``, as the RGF plan scans their bands."""
    return {name: [gf._extents(band) for band in getattr(dev, name)] for name in names}


def _bands(bands, bnum, atom, depth=0):
    """One momentum's RGF bands, cut from the device's bands under ``bnum`` blocks to their corner in whole atoms of
    ``atom`` rows."""
    corner = gf._coupling_corner([gf._extents(band) for band in bands], bnum, atom, depth)
    return [gf._tridiagonal_band(band, bnum, corner) for band in bands]


def _rgf_electron(dev, sr, sl, sg, energy, kz, eta, bnum):
    """Diagonal blocks [bnum, e, e] of G^R, G^< and G^> of one electron point, through the loop's RGF path.

    Sigma^R goes in by its atom blocks.  The source passes each diagonal block of the band as one block, so the
    whole blocks of G^<> come back out, not only the atom-diagonal ones the loop keeps.
    """
    n_a, o = sr.shape[0], sr.shape[-1]
    s, h = _bands((dev.S[kz], dev.H[kz]), bnum, o)
    a = point_system(energy, s, h, sr[:, None], slot_index(np.arange(n_a)[:, None], bnum), eta)

    def blocks(atom_blocks):
        return _block_diag(atom_blocks.reshape(bnum, -1, o, o))[:, None]

    whole = slot_index(np.arange(bnum)[:, None], bnum)
    b_r, b_lg = solve_point_rgf(a[None], np.stack((blocks(sl), blocks(sg)))[:, None], whole, [f"kz={kz}, E={energy:g}"])
    return b_r[0], b_lg[0, 0, :, 0], b_lg[1, 0, :, 0]


def _phonon_system(dev, pr, omega, qz, eta, nmap, bnum=None):
    """The system of one phonon point through the loop's assembly: the full matrix, or the band under ``bnum``."""
    index = slot_index(nmap.partners, bnum)
    phi = from_band(dev.Phi[qz]) if bnum is None else _bands((dev.Phi[qz],), bnum, dev.n_3D, index.depth)[0]
    return point_system(omega**2, None, phi, pr, index, eta)


def _phonon_inverse(dev, pr, omega, qz, eta, nmap):
    """D^R as the inverse of the full omega^2 I - Phi - Pi^R + i eta I, with Pi^R from its slots ``pr``."""
    m = dev.Phi.shape[-2]
    phi = from_band(dev.Phi[qz])
    return np.linalg.inv(omega**2 * np.eye(m) - phi - _phonon_matrix(pr, nmap) + 1j * eta * np.eye(m))


def test_free_particle_point():
    dev = _free_device(TINY)
    n = TINY.n_A * TINY.n_orb
    zero = np.zeros((n, n), complex)
    g_r, g_l, g_g = solve_point_dense(dev, zero, zero, zero, energy=1.0, kz=0, eta=1e-3)
    expected = np.eye(n) / (1.0 + 1e-3j)
    assert np.allclose(g_r, expected, atol=1e-14)
    assert np.all(g_l == 0) and np.all(g_g == 0)


def test_dense_matches_explicit_inverse():
    params = TINY.replace(n_A=4, bnum=2)
    dev, _ = synthesize(params, seed=12)
    n = params.n_A * params.n_orb
    rng = np.random.default_rng(1)
    sr = np.zeros((n, n), complex)
    sl, sg = _rand_sigma(rng, n), _rand_sigma(rng, n)
    g_r, g_l, g_g = solve_point_dense(dev, sr, sl, sg, energy=0.3, kz=0, eta=params.eta)
    a = 0.3 * from_band(dev.S[0]) - from_band(dev.H[0]) + 1e-3j * np.eye(n)
    inverse = np.linalg.inv(a)
    assert np.linalg.norm(g_r - inverse) / np.linalg.norm(inverse) <= 1e-10
    residual = np.linalg.norm(a @ g_r - np.eye(n)) / np.linalg.norm(np.eye(n))
    assert residual <= 1e-10
    # advanced function is the plain transpose, by construction
    assert np.allclose(g_l, g_r @ sl @ g_r.T, atol=1e-13)
    assert np.allclose(g_g, g_r @ sg @ g_r.T, atol=1e-13)


def test_dense_raises_on_singular_system():
    dev = _free_device(TINY)
    n = TINY.n_A * TINY.n_orb
    # sigma_r chosen to cancel the system matrix exactly
    sr = 1.0 * from_band(dev.S[0]) - from_band(dev.H[0]) + 1e-3j * np.eye(n)
    zero = np.zeros((n, n), complex)
    with pytest.raises(SingularSystemError):
        solve_point_dense(dev, sr, zero, zero, energy=1.0, kz=0, eta=1e-3)


def test_retarded_from_lesser_greater():
    shape = (1, 1, 2, 2, 2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    same = GreensTensor(lesser=x.copy(), greater=x.copy())
    assert np.all(retarded_from_lesser_greater(same) == 0)
    doubled = GreensTensor(lesser=np.zeros(shape, complex), greater=2 * x)
    assert np.allclose(retarded_from_lesser_greater(doubled), x)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    se = GreensTensor(lesser=y, greater=x)
    assert np.array_equal(retarded_from_lesser_greater(se), (x - y) / 2.0)
    with pytest.raises(ValueError, match="mismatch"):
        GreensTensor(lesser=x, greater=x[:, :, :1])


def test_rgf_single_block_equals_dense():
    params = TINY.replace(n_A=4, bnum=1)
    dev, _ = synthesize(params, seed=5)
    rng = np.random.default_rng(2)
    sr = np.zeros((params.n_A, params.n_orb, params.n_orb), complex)
    sl, sg = (_rand_diag_atom_blocks(rng, params.n_A, params.n_orb) for _ in range(2))
    g_r, g_l, g_g = solve_point_dense(
        dev, *(_block_diag(x) for x in (sr, sl, sg)), 0.1, 0, params.eta
    )
    b_r, b_l, b_g = _rgf_electron(dev, sr, sl, sg, 0.1, 0, params.eta, bnum=1)
    assert np.allclose(b_r[0], g_r, atol=1e-12)
    assert np.allclose(b_l[0], g_l, atol=1e-12)
    assert np.allclose(b_g[0], g_g, atol=1e-12)


@pytest.mark.parametrize("seed, n_b", [
    *(pytest.param(seed, 2, id=str(seed)) for seed in range(6)),
    # reach 2 spans both atoms of a block: the coupling corner is the whole block
    *(pytest.param(seed, 4, id=f"reach-equals-block-{seed}") for seed in range(6)),
])
def test_rgf_matches_dense_blocks(seed, n_b):
    params = TINY.replace(n_A=8, n_B=n_b, bnum=4)
    dev, _ = synthesize(params, seed=seed)
    n = params.n_A * params.n_orb
    rng = np.random.default_rng(100 + seed)
    sr = _rand_atom_blocks(rng, params.n_A, 2, scale=0.1)
    sl, sg = (_rand_diag_atom_blocks(rng, params.n_A, params.n_orb) for _ in range(2))
    energy = float(rng.uniform(-0.9, 0.9))
    g_r, g_l, g_g = solve_point_dense(
        dev, *(_block_diag(x) for x in (sr, sl, sg)), energy, 0, params.eta
    )
    b_r, b_l, b_g = _rgf_electron(dev, sr, sl, sg, energy, 0, params.eta, params.bnum)
    step = n // params.bnum
    for i in range(params.bnum):
        sl_ = slice(i * step, (i + 1) * step)
        for big, dense in ((b_r[i], g_r[sl_, sl_]), (b_l[i], g_l[sl_, sl_]), (b_g[i], g_g[sl_, sl_])):
            rel = np.linalg.norm(big - dense) / max(np.linalg.norm(dense), 1e-300)
            assert rel <= 1e-8


def test_rgf_decoupled_blocks_are_local_inverses():
    params = TINY.replace(n_A=4, n_B=1, bnum=2, n_orb=2)
    dev, _ = synthesize(params, seed=8)
    h = from_band(dev.H)
    n = params.n_A * params.n_orb
    half = n // 2
    h[:, :half, half:] = 0.0
    h[:, half:, :half] = 0.0
    dev = DeviceMatrices(H=to_band(h), S=to_band(np.tile(np.eye(n, dtype=complex), (params.n_kz, 1, 1))),
                         Phi=dev.Phi, dH=dev.dH)
    zero = np.zeros((params.n_A, params.n_orb, params.n_orb), complex)
    b_r, _, _ = _rgf_electron(dev, zero, zero, zero, 0.4, 0, params.eta, 2)
    for i, sl_ in enumerate((slice(0, half), slice(half, n))):
        local = np.linalg.inv(0.4 * np.eye(half) - h[0][sl_, sl_] + 1e-3j * np.eye(half))
        assert np.allclose(b_r[i], local, atol=1e-11)


def test_phonon_point_free_and_zero_pi():
    params = TINY.replace(n_A=4, bnum=2)
    dev, nmap = synthesize(params, seed=3)
    m = params.n_A * params.n_3D
    free = DeviceMatrices(H=dev.H, S=dev.S, Phi=np.zeros_like(dev.Phi), dH=dev.dH)
    zero = np.zeros((m, m), complex)
    a = _phonon_system(free, np.zeros((params.n_A, params.n_B + 1, 3, 3), complex), 1.0, 0, 1e-3, nmap)
    d_r, (d_l, d_g) = solve_phonon_point(a, np.stack((zero, zero)), nmap, "omega=1")
    assert np.allclose(d_r, np.eye(m) / (1.0 + 1e-3j), atol=1e-14)
    assert np.all(d_l == 0) and np.all(d_g == 0)


def test_phonon_point_matches_inverse_oracle():
    params = TINY.replace(n_A=4, bnum=2)
    dev, nmap = synthesize(params, seed=3)
    m = params.n_A * params.n_3D
    rng = np.random.default_rng(4)
    pl, pg = _rand_sigma(rng, m), _rand_sigma(rng, m)
    pr = _rand_atom_blocks(rng, params.n_A * (params.n_B + 1), 3, scale=0.1).reshape(params.n_A, -1, 3, 3)
    omega = 0.8
    a = _phonon_system(dev, pr, omega, 0, params.eta, nmap)
    d_r, (d_l, d_g) = solve_phonon_point(a, np.stack((pl, pg)), nmap, "omega=0.8")
    inverse = _phonon_inverse(dev, pr, omega, 0, params.eta, nmap)
    assert np.linalg.norm(d_r - inverse) / np.linalg.norm(inverse) <= 1e-10
    full_l = d_r @ pl @ d_r.T
    for a_i in range(params.n_A):
        assert np.allclose(d_l[a_i, 0], full_l[a_i * 3 : a_i * 3 + 3, a_i * 3 : a_i * 3 + 3])
        for s in range(params.n_B):
            b = int(nmap.idx[a_i, s])
            assert np.allclose(d_l[a_i, 1 + s], full_l[a_i * 3 : a_i * 3 + 3, b * 3 : b * 3 + 3])
    assert np.allclose(d_g[0, 0], (d_r @ pg @ d_r.T)[0:3, 0:3])


def test_gf_phase_zero_self_energies():
    params = TINY.replace(n_A=4, bnum=2)
    dev, nmap = synthesize(params, seed=6)
    grid = default_grid(params)
    sigma = GreensTensor.zeros(params.electron_shape)
    pi = GreensTensor.zeros(params.phonon_shape)
    g_e, g_ph = gf_phase(dev, sigma, pi, params, grid, nmap)
    assert np.all(g_e.lesser == 0) and np.all(g_e.greater == 0)
    assert np.all(g_ph.lesser == 0) and np.all(g_ph.greater == 0)
    assert g_e.all_finite() and g_ph.all_finite()
    # every exact zero is +0.0 on both solvers, so a zero state has one digest
    zero = np.zeros(params.electron_shape, complex).tobytes(), np.zeros(params.phonon_shape, complex).tobytes()
    for solver in SOLVERS:
        g_e, g_ph = gf_phase(dev, sigma, pi, params, grid, nmap, solver=solver)
        assert (g_e.lesser.tobytes(), g_ph.lesser.tobytes()) == zero
        assert (g_e.greater.tobytes(), g_ph.greater.tobytes()) == zero


def test_gf_phase_singleton_grid_matches_point_solve():
    params = SimParams(n_kz=1, n_qz=1, n_E=1, n_w=1, n_A=4, n_B=2, n_orb=2, bnum=2)
    dev, nmap = synthesize(params, seed=6)
    grid = default_grid(params)
    rng = np.random.default_rng(5)
    shape = params.electron_shape
    sigma = GreensTensor(
        lesser=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        greater=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
    )
    pi = GreensTensor.zeros(params.phonon_shape)
    g_e, _ = gf_phase(dev, sigma, pi, params, grid, nmap, solver="dense")
    sig_r = _block_diag(retarded_from_lesser_greater(sigma)[0, 0])
    _, g_l, g_g = solve_point_dense(
        dev,
        sig_r,
        _block_diag(sigma.lesser[0, 0]),
        _block_diag(sigma.greater[0, 0]),
        grid.values[0], 0, params.eta,
    )
    # the loop's dense path forms only the diagonal blocks, so the full-matrix oracle agrees to round-off
    assert _rel(g_e.lesser[0, 0], _diag_blocks(g_l, params.n_A)) <= 1e-12
    assert _rel(g_e.greater[0, 0], _diag_blocks(g_g, params.n_A)) <= 1e-12


@pytest.mark.parametrize("solver", SOLVERS)
def test_gf_phase_matches_the_independent_assemblies(solver):
    params = SimParams(n_kz=2, n_qz=1, n_E=2, n_w=2, n_A=8, n_B=4, n_orb=2, bnum=4, eta=0.05)
    dev, nmap = synthesize(params, seed=9)
    grid = default_grid(params)
    rng = np.random.default_rng(9)
    sigma, pi = (GreensTensor(*(0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                                for _ in range(2))) for shape in (params.electron_shape, params.phonon_shape))
    g_e, g_ph = gf_phase(dev, sigma, pi, params, grid, nmap, solver=solver)
    sig_r, pi_r = retarded_from_lesser_greater(sigma), retarded_from_lesser_greater(pi)
    for kz, i_e in np.ndindex(params.n_kz, params.n_E):
        _, g_l, g_g = solve_point_dense(dev, *(_block_diag(x[kz, i_e]) for x in (sig_r, sigma.lesser, sigma.greater)),
                                        grid.values[i_e], kz, params.eta)
        assert _rel(g_e.lesser[kz, i_e], _diag_blocks(g_l, params.n_A)) <= 1e-10
        assert _rel(g_e.greater[kz, i_e], _diag_blocks(g_g, params.n_A)) <= 1e-10
    for qz, i_w in np.ndindex(params.n_qz, params.n_w):
        d_r = _phonon_inverse(dev, pi_r[qz, i_w], grid.frequency_value(i_w), qz, params.eta, nmap)
        want = pick_slots(d_r @ _phonon_matrix(pi.data[:, qz, i_w], nmap) @ d_r.T, slot_index(nmap.partners))
        assert _rel(g_ph.data[:, qz, i_w], want) <= 1e-10


def test_gf_phase_reports_failing_point():
    params = TINY.replace(n_A=4, bnum=2)
    dev = _free_device(params)
    _, nmap = synthesize(params, seed=6)
    grid = default_grid(params)
    shape = params.electron_shape
    # retarded self-energy (greater - lesser)/2 cancels E*S + i*eta at every
    # point; the failing point indices must surface in the error message
    blocks = np.zeros(shape, complex)
    for i_e, e_val in enumerate(grid.values):
        blocks[:, i_e] = (e_val + 1j * params.eta) * np.eye(params.n_orb)
    sigma = GreensTensor(lesser=np.zeros(shape, complex), greater=2 * blocks)
    with pytest.raises(SingularSystemError, match=r"^electron point \(kz=0, iE=0, E=-1\): singular system") as err:
        gf_phase(dev, sigma, GreensTensor.zeros(params.phonon_shape), params, grid, nmap)
    assert str(err.value).count("point") == 1  # the point is named once


def test_rgf_singular_leading_block():
    params = TINY.replace(n_A=4, n_orb=1, bnum=2)
    n = 4
    dev = DeviceMatrices(
        H=to_band(np.zeros((params.n_kz, n, n), complex)),
        S=to_band(np.tile(np.eye(n, dtype=complex), (params.n_kz, 1, 1))),
        Phi=to_band(np.zeros((params.n_qz, 12, 12), complex)),
        dH=np.zeros((4, 2, 3, 1, 1), complex),
    )
    zero = np.zeros((4, 1, 1), complex)
    sr = np.array([0.5 + 1e-3j] * 2 + [0.0] * 2).reshape(4, 1, 1)  # cancels block 0 of E*S + i*eta exactly
    with pytest.raises(SingularSystemError, match="forward pass"):
        _rgf_electron(dev, sr, zero, zero, 0.5, 0, 1e-3, 2)


def test_gf_phase_rgf_solver_matches_dense():
    params = TINY.replace(n_kz=2, n_E=3, n_A=8, bnum=4)
    dev, nmap = synthesize(params, seed=13)
    grid = default_grid(params)
    rng = np.random.default_rng(13)
    shape = params.electron_shape
    sigma = GreensTensor(
        lesser=0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)),
        greater=0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)),
    )
    slots = params.phonon_shape
    pi = GreensTensor(*(0.1 * (rng.standard_normal(slots) + 1j * rng.standard_normal(slots)) for _ in range(2)))
    dense = gf_phase(dev, sigma, pi, params, grid, nmap, solver="dense")
    rgf = gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    # Pi's neighbor slots make every D^<> slot nonzero, the cross-block ones included
    assert np.all(np.abs(dense[1].data) > 0)
    for a, b in zip(dense, rgf):
        scale = max(np.max(np.abs(a.lesser)), np.max(np.abs(a.greater)), 1e-300)
        assert np.max(np.abs(a.lesser - b.lesser)) <= 1e-10 * scale
        assert np.max(np.abs(a.greater - b.greater)) <= 1e-10 * scale
    with pytest.raises(ValueError, match="unknown solver"):
        gf_phase(dev, sigma, pi, params, grid, nmap, solver="magma")


def test_rgf_near_singular_leading_block_fails_the_residual_check():
    # cond ~ 1e15: np.linalg.solve returns a wrong inverse without raising,
    # so only the block's solve residual can catch it
    rng = np.random.default_rng(0)

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        return q

    params = TINY.replace(n_kz=1, n_A=4, bnum=2)
    dev = _free_device(params)
    _, nmap = synthesize(params, seed=6)
    grid = default_grid(params)
    energy, eta = grid.values[0], params.eta
    sr = np.zeros((params.n_A, 2, 2), complex)
    sr[0] = (energy + 1j * eta) * np.eye(2) - unitary() @ np.diag([1.0, 1e-15]) @ unitary().conj().T
    leading = (energy + 1j * eta) * np.eye(4) - _block_diag(sr[:2])
    assert np.linalg.cond(leading) > 1e14
    wrong = np.linalg.solve(leading, np.eye(4))
    assert np.linalg.norm(leading @ wrong - np.eye(4)) / 2 > 1e-8
    # Sigma^R = (Sigma^> - Sigma^<)/2 puts sr at the first point, (kz=0, iE=0)
    greater = np.zeros(params.electron_shape, complex)
    greater[0, 0] = 2 * sr
    sigma = GreensTensor(lesser=np.zeros_like(greater), greater=greater)
    point = re.escape(f"electron point (kz=0, iE=0, E={energy:g})")
    with pytest.raises(SingularSystemError, match=rf"^RGF forward pass, block 0 \({point}\): solve residual"):
        gf_phase(dev, sigma, GreensTensor.zeros(params.phonon_shape), params, grid, nmap, solver="rgf")


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "n_a, n_orb, bnum", [(8, 2, 4), (4, 2, 1), (8, 1, 2), (4, 4, 2)], ids=["base", "bnum1", "orb1", "orb4"]
)
def test_dense_diagonal_blocks_match_the_full_oracle(seed, n_a, n_orb, bnum):
    params = TINY.replace(n_kz=1, n_A=n_a, n_orb=n_orb, bnum=bnum)
    dev, _ = synthesize(params, seed=seed)
    rng = np.random.default_rng(200 + seed)
    sr, sl, sg = (_rand_atom_blocks(rng, n_a, n_orb, scale=0.1) for _ in range(3))
    energy = float(rng.uniform(-0.9, 0.9))
    _, g_l, g_g = solve_point_dense(dev, *(_block_diag(x) for x in (sr, sl, sg)), energy, 0, params.eta)
    a = point_system(energy, from_band(dev.S[0]), from_band(dev.H[0]), sr[:, None], slot_index(np.arange(n_a)[:, None]),
                     params.eta)
    less, grt = solve_point_dense_diag(a, np.stack((sl, sg)), f"E={energy:g}")
    assert _rel(less, _diag_blocks(g_l, n_a)) <= 1e-12
    assert _rel(grt, _diag_blocks(g_g, n_a)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_phonon_slot_products_match_the_full_formula(seed):
    params = TINY.replace(n_A=8, n_B=4, bnum=2)
    dev, nmap = synthesize(params, seed=seed)
    rng = np.random.default_rng(300 + seed)
    slots = (params.n_A, params.n_B + 1, params.n_3D, params.n_3D)
    pr, pl, pg = (0.1 * (rng.standard_normal(slots) + 1j * rng.standard_normal(slots)) for _ in range(3))
    pl, pg = _phonon_matrix(pl, nmap), _phonon_matrix(pg, nmap)
    d_r, (d_l, d_g) = solve_phonon_point(_phonon_system(dev, pr, 0.7, 0, params.eta, nmap), np.stack((pl, pg)),
                                         nmap, "omega=0.7")
    assert _rel(d_r, _phonon_inverse(dev, pr, 0.7, 0, params.eta, nmap)) <= 1e-10
    assert _rel(d_l, pick_slots(d_r @ pl @ d_r.T, slot_index(nmap.partners))) <= 1e-12
    assert _rel(d_g, pick_slots(d_r @ pg @ d_r.T, slot_index(nmap.partners))) <= 1e-12


def test_block_helpers_match_explicit_block_loops():
    n_a, m = 6, 3
    nmap = build_neighbor_map(n_a, 3)  # each chain end lists one neighbor three times
    rng = np.random.default_rng(9)
    blocks = _rand_atom_blocks(rng, n_a, m)
    matrix = _rand_atom_blocks(rng, 1, n_a * m)[0]
    full = np.zeros((n_a * m, n_a * m), complex)
    for a in range(n_a):
        full[a * m:(a + 1) * m, a * m:(a + 1) * m] = blocks[a]
    assert np.array_equal(_block_diag(blocks), full)
    assert np.array_equal(_diag_blocks(matrix, n_a),
                          np.stack([matrix[a * m:(a + 1) * m, a * m:(a + 1) * m] for a in range(n_a)]))
    # leading dimensions are batched over
    assert np.array_equal(_diag_blocks(np.stack((matrix, full)), n_a)[1], blocks)
    index = slot_index(nmap.partners)
    picked = pick_slots(matrix, index)
    slots = _rand_atom_blocks(rng, n_a * (nmap.n_B + 1), m).reshape(n_a, nmap.n_B + 1, m, m)
    banded = np.zeros_like(matrix)
    for a in range(n_a):
        for s, b in enumerate([a, *nmap.idx[a]]):
            assert np.array_equal(picked[a, s], matrix[a * m:(a + 1) * m, b * m:(b + 1) * m])
            banded[a * m:(a + 1) * m, b * m:(b + 1) * m] = slots[a, s]  # a repeated neighbor keeps its last slot
    assert np.array_equal(place_slots(slots, index), banded)
    target = matrix.copy()
    assert add_slots(target, slots, index) is target
    assert np.array_equal(target, matrix + banded)


def _first_pass_pi(params, seed=1, scale=0.01):
    """Device and the Pi that ``sse_pi`` makes from a random G pair of entries about ``scale``.

    Its lesser and greater parts differ, so Pi^R = (Pi^> - Pi^<) / 2 is not
    zero (a G from seeded self-energies has G^< = -G^>, hence Pi^< = Pi^>).
    """
    dev, nmap = synthesize(params, seed=seed)
    grid = default_grid(params)
    rng = np.random.default_rng(seed)

    def rand():
        return scale * (rng.standard_normal(params.electron_shape) + 1j * rng.standard_normal(params.electron_shape))

    return dev, nmap, grid, sse_pi(GreensTensor(rand(), rand()), dev.dH, nmap, grid, params.n_qz)


@pytest.mark.parametrize(
    "params",
    [GF_LONG, DESK32_WIDE, TINY.replace(n_A=8, n_B=4, bnum=4, eta=0.05)],
    ids=["gf-long", "desk32-wide", "reach-equals-block"],  # reach 1, 2 and 2 against 8, 8 and 2 atoms per block
)
def test_phonon_rgf_slots_match_the_dense_solve(params):
    dev, nmap, grid, pi = _first_pass_pi(params)
    index = slot_index(nmap.partners, params.bnum)
    # the cases the band scatter and gather must get right are all present:
    # slots that cross a block boundary, both ways
    assert np.any(index.col < 0) and np.any(index.col >= params.n_A // params.bnum)
    for row in (0, params.n_A - 1):  # chain ends list their first neighbor twice, and Pi's two slots differ there
        assert nmap.idx[row, 0] == nmap.idx[row, 1]
        assert np.max(np.abs(pi.data[:, :, :, row, 1] - pi.data[:, :, :, row, 2])) > 0
    assert np.max(np.abs(pi.greater - pi.lesser)) > 0  # a nonzero Pi^R enters the band
    pi_r = retarded_from_lesser_greater(pi)
    worst = 0.0
    for qz in range(params.n_qz):
        for i_w in range(params.n_w):
            omega, pi_lg = grid.frequency_value(i_w), pi.data[:, qz, i_w]
            d_r = _phonon_inverse(dev, pi_r[qz, i_w], omega, qz, params.eta, nmap)
            dense = pick_slots(d_r @ _phonon_matrix(pi_lg, nmap) @ d_r.T, slot_index(nmap.partners))
            a = _phonon_system(dev, pi_r[qz, i_w], omega, qz, params.eta, nmap, params.bnum)
            rgf = solve_point_rgf(a[None], pi_lg[:, None], index, [f"qz={qz}, iw={i_w}"])[1][:, 0]
            worst = max(worst, np.max(np.abs(rgf - dense)) / np.max(np.abs(dense)))
    assert worst <= 1e-10


def test_phonon_rgf_single_block_equals_dense():
    params = TINY.replace(n_A=8, n_B=4, bnum=1)
    dev, nmap = synthesize(params, seed=4)
    rng = np.random.default_rng(40)
    slots = (params.n_A, params.n_B + 1, params.n_3D, params.n_3D)
    pr, pl, pg = (0.1 * (rng.standard_normal(slots) + 1j * rng.standard_normal(slots)) for _ in range(3))
    d_r = _phonon_inverse(dev, pr, 0.7, 0, params.eta, nmap)
    d_lg = pick_slots(d_r @ _phonon_matrix(np.stack((pl, pg)), nmap) @ d_r.T, slot_index(nmap.partners))
    a = _phonon_system(dev, pr, 0.7, 0, params.eta, nmap, bnum=1)
    b_r, b_lg = solve_point_rgf(a[None], np.stack((pl, pg))[:, None], slot_index(nmap.partners, 1), ["omega=0.7"])
    assert _rel(b_r[0, 0], d_r) <= 1e-12
    assert _rel(b_lg[:, 0], d_lg) <= 1e-12


def _band_of(matrix, bnum, corner):
    """Block rows [..., bnum, e, c + e + c] of ``matrix`` by an explicit column loop: row i's columns from c before
    its diagonal block to c after it, zero outside the matrix."""
    n = matrix.shape[-1]
    edge = n // bnum
    band = np.zeros((*matrix.shape[:-2], bnum, edge, edge + 2 * corner), complex)
    for i in range(bnum):
        for col in range(edge + 2 * corner):
            j = i * edge - corner + col
            if 0 <= j < n:
                band[..., i, :, col] = matrix[..., i * edge:(i + 1) * edge, j]
    return band


# the last three are tiny's chain ends with n_B = 2 and 3 and gf-long's rows 0 and 127, which list one neighbor
# two or three times
@pytest.mark.parametrize("n_a, n_b, bnum", [(8, 4, 2), (12, 3, 3), (16, 4, 4), (6, 2, 1), (8, 4, 4),
                                            (8, 2, 4), (8, 3, 4), (128, 2, 16)])
def test_band_scatter_and_gather_match_the_full_matrix_blocks(n_a, n_b, bnum):
    nmap = build_neighbor_map(n_a, n_b)
    index = slot_index(nmap.partners, bnum)
    m, edge = 3, n_a * 3 // bnum
    rng = np.random.default_rng(n_a + n_b)
    slots = _rand_atom_blocks(rng, 2 * n_a * (n_b + 1), m).reshape(2, n_a, n_b + 1, m, m)
    full = np.zeros((2, n_a * m, n_a * m), complex)
    for a in range(n_a):
        for s, b in enumerate([a, *nmap.idx[a]]):
            full[:, a * m:(a + 1) * m, b * m:(b + 1) * m] = slots[:, a, s]  # duplicate slots differ: the last wins
    # placing writes what an add onto zeros adds, bit for bit, in the full matrix and (below) in every band
    whole = slot_index(nmap.partners)
    assert np.array_equal(place_slots(slots, whole), full)
    assert np.array_equal(add_slots(np.zeros_like(full), slots, whole), full)
    # the smallest corner that holds the slots (the neighbor reach, none at bnum = 1), and whole coupling blocks
    reach = nmap.max_reach if bnum > 1 else 0
    for corner in (reach * m, edge):
        want = _band_of(full, bnum, corner)
        band = add_slots(np.zeros_like(want), slots, index)
        assert np.array_equal(band, want)
        assert np.array_equal(place_slots(slots, index, want.shape), want)
        # the corners hold every slot across a block boundary: the side columns are zero outside them
        assert not np.any(want[..., corner:, :corner]) and not np.any(want[..., :edge - corner, edge + corner:])
        # adding in place onto a band adds the same blocks
        base = _rand_atom_blocks(rng, 2 * bnum, edge + 2 * corner)[..., :edge, :].reshape(band.shape)
        target = base.copy()
        assert add_slots(target, slots, index) is target
        assert np.array_equal(target, base + want)
        # the gather reads exactly the blocks the slots keep
        matrix = _rand_atom_blocks(rng, 1, n_a * m)[0]
        picked = pick_slots(_band_of(matrix, bnum, corner), index)
        for a in range(n_a):
            for s, b in enumerate([a, *nmap.idx[a]]):
                assert np.array_equal(picked[a, s], matrix[a * m:(a + 1) * m, b * m:(b + 1) * m])
    if reach:  # a corner one atom short of the reach has no block for the deepest slots
        with pytest.raises(ValueError, match="does not hold every slot"):
            add_slots(_band_of(full, bnum, (reach - 1) * m), slots, index)


def _spy_solves(monkeypatch):
    """Record the contexts of every solve: each dense or singular-block ``_solve_system`` and each RGF recursion."""
    solves = []
    for name in ("_solve_system", "_rgf_pass"):
        def spy(*args, _real=getattr(gf, name)):
            solves.append(args[-1])
            return _real(*args)
        monkeypatch.setattr(gf, name, spy)
    return solves


@pytest.mark.parametrize("name", ["S", "H", "Phi"])
def test_rgf_refuses_a_coupling_beyond_one_block(monkeypatch, name):
    # atoms 0 and 5 lie in blocks 0 and 2 of 4, which no band of 4 blocks couples: RGF refuses before any solve
    # (its band would drop the coupling, and G would differ from the dense solve's), and dense takes it
    params = TINY.replace(n_kz=1, n_qz=1, n_A=8, n_B=2, bnum=4, eta=0.05)
    dev, nmap = synthesize(params, seed=3)
    mat = from_band(getattr(dev, name))
    atom = mat.shape[-1] // params.n_A
    mat[:, :atom, 5 * atom:6 * atom] = mat[:, 5 * atom:6 * atom, :atom] = 0.01
    dev = dataclasses.replace(dev, **{name: to_band(mat)})  # a wider band holds the far coupling
    assert np.array_equal(from_band(getattr(dev, name)), mat)
    grid = default_grid(params)
    sigma, pi = seeded_self_energies(params, 0.1)
    assert all(x.all_finite() for x in gf_phase(dev, sigma, pi, params, grid, nmap, solver="dense"))
    solves = _spy_solves(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{name} couples atoms 0 and 5, 2 blocks apart: .*not block-tridiagonal"):
        gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    assert solves == []


def test_rgf_refuses_a_neighbor_reach_beyond_one_block(monkeypatch):
    params = TINY.replace(n_A=8, n_B=4, bnum=8)  # reach 2 > one atom per block: Pi is not block-tridiagonal
    dev, nmap = synthesize(params, seed=2)
    assert nmap.max_reach > params.n_A // params.bnum
    grid = default_grid(params)
    sigma, pi = GreensTensor.zeros(params.electron_shape), GreensTensor.zeros(params.phonon_shape)
    solves = _spy_solves(monkeypatch)
    with pytest.raises(ValueError, match="not block-tridiagonal"):
        gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    assert solves == []


@pytest.mark.parametrize("smallest", [0.0, 1e-15], ids=["singular", "near-singular"])
def test_gf_phase_reports_a_singular_phonon_block(smallest):
    params = TINY.replace(n_kz=1, n_E=3, n_qz=1, n_w=1, n_A=4, n_B=2, bnum=2)
    dev = _free_device(params)
    _, nmap = synthesize(params, seed=6)
    grid = default_grid(params)
    omega = grid.frequency_value(0)
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    # Pi^R = (Pi^> - Pi^<)/2 in atom 0's self slot leaves block 0 of omega^2 - Pi^R + i eta with singular values
    # (1, 1, smallest) on atom 0, so the first RGF block solve fails at the phonon point
    greater = np.zeros(params.phonon_shape, complex)
    greater[0, 0, 0, 0] = 2 * ((omega**2 + 1j * params.eta) * np.eye(3) - u @ np.diag([1.0, 1.0, smallest]) @ u.T)
    pi = GreensTensor(lesser=np.zeros_like(greater), greater=greater)
    sigma = GreensTensor.zeros(params.electron_shape)
    point = re.escape(f"phonon point (qz=0, iw=0, omega={omega:g})")
    with pytest.raises(SingularSystemError, match=rf"^RGF forward pass, block 0 \({point}\): ") as err:
        gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    assert str(err.value).count("point") == 1  # the point is named once


def test_gf_phase_reads_each_momentum_once(monkeypatch):
    calls = {"_tridiagonal_band": 0, "slot_index": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(gf, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(gf, name, counted)
    index_builds = []
    for n_e in (4, 8):
        params = TINY.replace(n_E=n_e)
        dev, nmap = synthesize(params, seed=1)
        sigma, pi = seeded_self_energies(params, 0.1)
        calls.update(dict.fromkeys(calls, 0))
        gf_phase(dev, sigma, pi, params, default_grid(params), nmap, solver="rgf")
        # S[k_z] and H[k_z] once per k_z, Phi[q_z] once per q_z, whatever the number of energies
        assert calls["_tridiagonal_band"] == 2 * params.n_kz + params.n_qz
        index_builds.append(calls["slot_index"])
    assert index_builds[0] == index_builds[1]


DESK32 = SimParams(n_kz=3, n_qz=2, n_E=64, n_w=8, n_A=32, n_B=4, n_orb=4, bnum=4, eta=0.05)


def _spy_chunks(monkeypatch):
    """Record the contexts of every chunk ``gf_phase`` passes to ``solve_point_rgf``."""
    chunks, solve = [], gf.solve_point_rgf

    def spy(a, self_lg, index, context):
        chunks.append(list(context))
        return solve(a, self_lg, index, context)

    monkeypatch.setattr(gf, "solve_point_rgf", spy)
    return chunks


@pytest.mark.parametrize("params", [GF_LONG, DESK32], ids=["gf-long", "desk-32"])
def test_rgf_corner_is_the_coupling_reach(params):
    # couplings reach nmap.max_reach atoms across a block boundary: reach * n_orb rows and columns for
    # electrons, reach * 3 for phonons, of blocks of n_A / bnum atoms
    dev, nmap = synthesize(params.replace(n_kz=1, n_qz=1, n_E=2, n_w=2), seed=1)
    reach, per_block = nmap.max_reach, params.n_A // params.bnum
    assert reach < per_block
    scans = _scans(dev, "S", "H", "Phi")
    for atom in (1, params.n_orb):  # the rows the couplings reach are whole atoms already
        assert gf._coupling_corner([scans["S"][0], scans["H"][0]], params.bnum, atom) == reach * params.n_orb
    index = slot_index(nmap.partners, params.bnum)
    assert gf._coupling_corner(scans["Phi"], params.bnum, params.n_3D, index.depth) == reach * params.n_3D
    # a band whose coupling blocks are full needs the whole block, and one without couplings none (atoms of one row)
    rng = np.random.default_rng(1)
    full = _rand_atom_blocks(rng, 1, 20)[0]
    block = np.arange(20) // 5
    full[np.abs(block[:, None] - block) > 1] = 0  # block-tridiagonal, as the RGF plan checks before any corner
    assert gf._coupling_corner([gf._extents(to_band(full))], 4, 1) == 5
    assert gf._coupling_corner([scans["H"][0]], 1, params.n_orb) == 0


@pytest.mark.parametrize(
    "params, electron_blocks, phonon_blocks",
    [(GF_LONG, 64, 32), (DESK32, 16, 8), (DESK32.replace(n_orb=12, n_E=32), 16, 8), (TINY, 4, 4)],
    ids=["gf-long", "desk-32", "orb-12", "tiny"],
)
def test_rgf_blocks_are_the_thinnest_the_couplings_allow(params, electron_blocks, phonon_blocks):
    # sub-blocks of the fewest atoms that cover the reach (1 atom on gf-long, 2 elsewhere) and hold at least 8 rows:
    # gf-long 2 atoms of 4 orbitals and 4 atoms of 3 phonon rows; desk-32 2 and 4; orb-12 2 atoms of 12 orbitals;
    # tiny's 2-atom blocks (4 and 6 rows) have no smaller divisor of 8 rows or more, so they are not cut
    dev, nmap = synthesize(params.replace(n_kz=1, n_qz=1, n_E=2, n_w=2), seed=1)
    assert gf._rgf_blocks(_scans(dev, "S", "H"), params.n_A, params.bnum) == electron_blocks
    assert gf._rgf_blocks(_scans(dev, "Phi"), params.n_A, params.bnum, nmap.max_reach) == phonon_blocks


def test_rgf_blocks_cover_a_coupling_inside_a_block():
    # 4 orbitals make 2 atoms the thinnest block of 8 rows, but H couples atoms 1 and 4 of the first 8-atom block:
    # the recursion runs over blocks of 4 atoms, the smallest divisor of 8 that covers the 3-atom reach
    params = SimParams(n_kz=2, n_qz=1, n_E=4, n_w=2, n_A=16, n_B=2, n_orb=4, bnum=2, eta=0.05)
    dev, nmap = synthesize(params, seed=5)
    assert gf._rgf_blocks(_scans(dev, "S", "H"), params.n_A, params.bnum) == 8
    rng = np.random.default_rng(8)
    coupling = 0.05 * (rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4)))
    h = from_band(dev.H)
    h[:, 4:8, 16:20], h[:, 16:20, 4:8] = coupling, coupling.conj().swapaxes(-1, -2)
    dev = dataclasses.replace(dev, H=to_band(h))
    assert gf._rgf_blocks(_scans(dev, "S", "H"), params.n_A, params.bnum) == 4
    sigma, pi = seeded_self_energies(params, 0.1)
    grid = default_grid(params)
    dense = gf_phase(dev, sigma, pi, params, grid, nmap, solver="dense")
    rgf = gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    for a, b in zip(dense, rgf):
        assert _rel(b.data, a.data) <= 1e-10


def test_rgf_corner_covers_the_source_couplings():
    # Pi's slots across a block boundary set the corner alone, in whole atoms of 3 rows: 4 atoms per block
    n_a, bnum, atom = 12, 3, 3
    zero = np.zeros((n_a * atom, n_a * atom), complex)
    partners = np.repeat(np.arange(n_a)[:, None], 2, axis=1)
    partners[4, 1] = 2  # atom 4 (block 1's first) to atom 2 (block 0's third): 2 atoms deep into block (1, 0)
    empty = gf._extents(to_band(zero))
    assert gf._coupling_corner([empty], bnum, atom, slot_index(partners, bnum).depth) == 2 * atom
    own = slot_index(np.arange(n_a)[:, None], bnum)
    assert gf._coupling_corner([empty], bnum, atom, own.depth) == 0  # slots inside their blocks need none
    # block (1, 0) nonzero at its row 0 and column m - 4 needs a corner of 4 rows (atoms of one row); whole atoms of
    # 3 rows round it to 2 atoms
    mat = zero.copy()
    mat[12, 12 - 4] = 1e-3
    assert gf._coupling_corner([gf._extents(to_band(mat))], bnum, 1) == 4
    assert gf._coupling_corner([gf._extents(to_band(mat))], bnum, atom, own.depth) == 2 * atom


def _loop_extents(mat):
    """Every row's first and last nonzero column, by a loop over every nonzero; (n, -1) for a zero row."""
    n = mat.shape[-1]
    extents = np.array([[n] * n, [-1] * n])
    for i, j in zip(*np.nonzero(mat)):
        extents[:, i] = min(extents[0, i], j), max(extents[1, i], j)
    return extents


def _loop_depth(pairs, size):
    """The deepest (row, column) pair into a coupling block's corner, blocks of ``size``: 0 inside a block."""
    depth = 0
    for i, j in pairs:
        if j // size == i // size + 1:
            depth = max(depth, size - i % size, j % size + 1)
        elif j // size == i // size - 1:
            depth = max(depth, i % size + 1, size - j % size)
    return depth


def _loop_blocks(stacks, n_a, bnum, reach):
    """The RGF sub-block count by a loop over every nonzero: the atom reach sets the thinnest divisor of a block."""
    per_block = n_a // bnum
    for mats in stacks.values():
        atom = mats[0].shape[-1] // n_a
        for mat in mats:
            reach = max([reach, *(abs(i // atom - j // atom) for i, j in zip(*np.nonzero(mat)))])
    thin = [r for r in range(1, per_block) if per_block % r == 0 and r >= reach and r * atom >= gf.RGF_MIN_EDGE]
    return n_a // (thin[0] if thin else per_block)


def _loop_refusal(stacks, n_a, bnum):
    """The refusal of a coupling more than one block apart, by a loop over every nonzero, or None.

    Each atom's leftmost and rightmost partner at any momentum are listed, the leftmost ones first in atom order,
    and the first of the pairs the most blocks apart is named.
    """
    per_block = n_a // bnum
    for name, mats in stacks.items():
        atom = mats[0].shape[-1] // n_a
        left, right = {}, {}
        for mat in mats:
            for i, j in zip(*np.nonzero(mat)):
                a, b = i // atom, j // atom
                left[a], right[a] = min(left.get(a, b), b), max(right.get(a, b), b)
        pairs = [(a, left[a]) for a in sorted(left)] + [(a, right[a]) for a in sorted(right)]
        apart = [abs(a // per_block - b // per_block) for a, b in pairs]
        if max(apart, default=0) > 1:
            a, b = sorted(pairs[apart.index(max(apart))])
            return f"{name} couples atoms {a} and {b}, {max(apart)} blocks apart: {name} is not block-tridiagonal " \
                   f"under {bnum} blocks"
    return None


@pytest.mark.parametrize("seed", range(24))
def test_rgf_scan_matches_a_loop_over_every_nonzero(seed):
    # random sparse block-tridiagonal S and H at two momenta, with zero rows and nonzeros at any row and column of an
    # atom, under bnum 1-4 blocks of atoms of 1-3 rows, and Pi slots on both sides of a block boundary: the one scan
    # per matrix gives the sub-block count and each momentum's corner that a loop over every nonzero gives
    rng = np.random.default_rng(seed)
    bnum, atom, per_block = 1 + seed % 4, 1 + seed // 4 % 3, int(rng.choice([2, 4, 6, 8, 12]))
    n_a = bnum * per_block
    n = n_a * atom
    row, block = np.arange(n), np.arange(n) // (n // bnum)
    width = int(rng.integers(0, n // bnum + 1))  # how far from the diagonal nonzeros lie, in rows

    def sparse():
        keep = (np.abs(row[:, None] - row) <= width) & (np.abs(block[:, None] - block) <= 1)
        keep &= rng.random((n, n)) < 0.3
        mat = np.where(keep, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0)
        mat[rng.random(n) < 0.2] = 0  # zero rows
        return mat

    stacks = {"S": [sparse(), sparse()], "H": [sparse(), sparse()]}
    atoms = np.arange(n_a)
    reach = int(rng.integers(1, per_block + 1))
    partners = np.stack((atoms, atoms - rng.integers(0, reach + 1, n_a), atoms + rng.integers(0, reach + 1, n_a)), 1)
    partners = np.clip(partners, 0, n_a - 1)
    if bnum > 1:  # block 1's first atom to block 0's last, and back
        partners[per_block, 1], partners[per_block - 1, 2] = per_block - 1, per_block
    for mats in stacks.values():
        for mat in mats:
            assert np.array_equal(gf._extents(to_band(mat)), _loop_extents(mat))
    scans = {name: [gf._extents(to_band(mat)) for mat in mats] for name, mats in stacks.items()}
    reach = int(np.max(np.abs(partners - atoms[:, None])))
    blocks = gf._rgf_blocks(scans, n_a, bnum, reach)
    assert blocks == _loop_blocks(stacks, n_a, bnum, reach)
    index = slot_index(partners, blocks)
    for k in range(2):
        mats = [stacks[name][k] for name in ("S", "H")]
        rows = _loop_depth((pair for mat in mats for pair in zip(*np.nonzero(mat))), n // blocks)
        slots = _loop_depth(((a, b) for a, b in zip(np.repeat(atoms, 3), partners.ravel())), n_a // blocks)
        want = max(-(-rows // atom), slots) * atom
        assert gf._coupling_corner([scans["S"][k], scans["H"][k]], blocks, atom, index.depth) == want
    if bnum >= 3:  # couplings two blocks apart, from any row of block 0 to any column of block 2, and back
        far = stacks[str(rng.choice(["S", "H"]))][int(rng.integers(2))]
        for _ in range(int(rng.integers(1, 4))):
            i, j = int(rng.integers(n // bnum)), int(rng.integers(2 * n // bnum, 3 * n // bnum))
            far[i, j] = far[j, i] = 1.0
        want = _loop_refusal(stacks, n_a, bnum)
        assert want is not None
        scans = {name: [gf._extents(to_band(mat)) for mat in mats] for name, mats in stacks.items()}
        with pytest.raises(ValueError) as err:
            gf._rgf_blocks(scans, n_a, bnum, reach)
        assert str(err.value) == want


def test_rgf_single_block_phase_matches_dense():
    # 4 atoms of 2 orbitals (3 phonon rows) have no divisor of 8 rows or more short of the whole device, so the
    # one block is not cut and both recursions run on it without a coupling corner
    params = TINY.replace(n_A=4, n_B=2, n_orb=2, bnum=1, eta=0.05)
    dev, nmap, grid, pi = _first_pass_pi(params)
    assert gf._rgf_blocks(_scans(dev, "S", "H"), params.n_A, 1) == 1
    assert gf._rgf_blocks(_scans(dev, "Phi"), params.n_A, 1, nmap.max_reach) == 1
    sigma, _ = seeded_self_energies(params, 0.1)
    dense = gf_phase(dev, sigma, pi, params, grid, nmap, solver="dense")
    rgf = gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    for a, b in zip(dense, rgf):
        assert _rel(b.data, a.data) <= 1e-10


@pytest.mark.parametrize("budget", [None, 2], ids=["default-budget", "two-point-budget"])
def test_rgf_chunks_match_the_dense_references(monkeypatch, budget):
    # n_E = n_w = 45 points per momentum: 38 + 7 electrons and 28 + 17 phonons under the default budget, and
    # 2 + ... + 1 of both under a budget of two points of the larger (phonon) kind; a chunk that started or
    # ended one point off would solve the wrong energies or write them to the wrong slice
    params = DESK32.replace(n_kz=2, n_qz=1, n_E=45, n_w=45)
    dev, nmap, grid, pi = _first_pass_pi(params)
    if budget is not None:
        # desk-32's recursion runs over 8 phonon blocks of 12 rows with a corner of 6 (and 16 electron blocks of
        # 8 rows with a corner of 8, 80 KiB a point): a phonon point holds its band and source band, 108 KiB
        phonon_point = 3 * 16 * 8 * 12 * (12 + 2 * 6)
        monkeypatch.setattr(gf, "RGF_BUDGET", budget * phonon_point)
    rng = np.random.default_rng(21)
    sigma = GreensTensor(*(0.1 * (rng.standard_normal(params.electron_shape)
                                  + 1j * rng.standard_normal(params.electron_shape)) for _ in range(2)))
    chunks = _spy_chunks(monkeypatch)
    g_e, g_ph = gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    for kind in ("electron", "phonon"):
        lengths = [len(c) for c in chunks if c[0].startswith(kind)]
        assert max(lengths) > 1 and len(set(lengths)) > 1  # several points per chunk, and a shorter last one
    assert [c for chunk in chunks for c in chunk] == [
        *(f"electron point (kz={kz}, iE={i_e}, E={grid.values[i_e]:g})" for kz, i_e in np.ndindex(2, params.n_E)),
        *(f"phonon point (qz=0, iw={i_w}, omega={grid.frequency_value(i_w):g})" for i_w in range(params.n_w)),
    ]
    assert np.max(np.abs(pi.greater - pi.lesser)) > 0  # a nonzero Pi^R enters the band
    sig_r, pi_r = retarded_from_lesser_greater(sigma), retarded_from_lesser_greater(pi)
    for kz, i_e in np.ndindex(params.n_kz, params.n_E):
        _, g_l, g_g = solve_point_dense(dev, *(_block_diag(x[kz, i_e]) for x in (sig_r, sigma.lesser, sigma.greater)),
                                        grid.values[i_e], kz, params.eta)
        assert _rel(g_e.lesser[kz, i_e], _diag_blocks(g_l, params.n_A)) <= 1e-10
        assert _rel(g_e.greater[kz, i_e], _diag_blocks(g_g, params.n_A)) <= 1e-10
    for i_w in range(params.n_w):
        d_r = _phonon_inverse(dev, pi_r[0, i_w], grid.frequency_value(i_w), 0, params.eta, nmap)
        want = pick_slots(d_r @ _phonon_matrix(pi.data[:, 0, i_w], nmap) @ d_r.T, slot_index(nmap.partners))
        assert _rel(g_ph.data[:, 0, i_w], want) <= 1e-10


@pytest.mark.parametrize(
    "smallest, kz, i_e, failure",
    [(None, 1, 3, "singular system"), (1e-15, 0, 2, "solve residual")],
    ids=["singular", "near-singular"],
)
def test_rgf_reports_a_failing_point_mid_chunk(monkeypatch, smallest, kz, i_e, failure):
    # H couples only the last atom of block 0 to the first of block 1, so the corner is one atom (2 < 8) and
    # block 1's Schur complement stays atom-block-diagonal: Sigma^R on its last atom decides whether it is
    # singular (smallest None: that atom's block is exactly zero) or nearly so (singular values 1 and 1e-15)
    params = TINY.replace(n_kz=2, n_E=6, n_A=8, n_B=2, n_orb=2, bnum=2)
    dev = _free_device(params)
    _, nmap = synthesize(params, seed=6)
    rng = np.random.default_rng(5)
    coupling = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = from_band(dev.H)
    h[:, 6:8, 8:10], h[:, 8:10, 6:8] = coupling, coupling.conj().T
    dev = dataclasses.replace(dev, H=to_band(h))
    grid = default_grid(params)
    energy = grid.values[i_e]
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    system = np.zeros((2, 2)) if smallest is None else u @ np.diag([1.0, smallest]) @ u.conj().T
    greater = np.zeros(params.electron_shape, complex)
    greater[kz, i_e, 7] = 2 * ((energy + 1j * params.eta) * np.eye(2) - system)  # Sigma^R = (Sigma^> - Sigma^<)/2
    sigma = GreensTensor(lesser=np.zeros_like(greater), greater=greater)
    chunks = _spy_chunks(monkeypatch)
    point = f"electron point (kz={kz}, iE={i_e}, E={energy:g})"
    with pytest.raises(SingularSystemError, match=rf"^RGF forward pass, block 1 \({re.escape(point)}\): {failure}") as err:
        gf_phase(dev, sigma, GreensTensor.zeros(params.phonon_shape), params, grid, nmap, solver="rgf")
    assert str(err.value).count("point") == 1 and str(err.value).count("block") == 1
    assert chunks[-1][0] != point != chunks[-1][-1] and point in chunks[-1]  # the point sat mid-chunk


def test_rgf_derives_each_momentums_corner_once(monkeypatch):
    # 25 energies per k_z in chunks of 12 + 12 + 1 at gf-long's blocks: one corner per momentum, not per chunk
    params = GF_LONG.replace(n_kz=2, n_E=25)
    dev, nmap = synthesize(params, seed=1)
    sigma, pi = seeded_self_energies(params, 0.1)
    corners, derive = [], gf._coupling_corner

    def spy(*args):
        corners.append(derive(*args))
        return corners[-1]

    monkeypatch.setattr(gf, "_coupling_corner", spy)
    chunks = _spy_chunks(monkeypatch)
    gf_phase(dev, sigma, pi, params, default_grid(params), nmap, solver="rgf")
    assert len(chunks) > params.n_kz + params.n_qz
    assert corners == [4, 4, 3]  # reach * n_orb for each k_z, reach * 3 for the q_z


GF_LONG_BLOCKS = GF_LONG.replace(n_kz=1)  # gf-long's 16 blocks of 8 atoms, 32 energies and one momentum of each kind


def test_rgf_chunks_hold_three_gf_long_energies(monkeypatch):
    # a gf-long electron point holds its band [64, 8, 4 + 8 + 4] and its source, the diagonal blocks [2, 64, 8, 8],
    # 0.26 MB, so the budget takes twelve of gf-long's 32 energies (three while the recursion ran over bnum's
    # 16 blocks of 32 rows, 0.85 MB a point; two with full bands and placed sources of 1.31 MB)
    assert gf.RGF_BUDGET == 3 << 20
    params = GF_LONG_BLOCKS
    dev, nmap = synthesize(params, seed=1)
    sigma, pi = seeded_self_energies(params, 0.1)
    chunks = _spy_chunks(monkeypatch)
    gf_phase(dev, sigma, pi, params, default_grid(params), nmap, solver="rgf")
    lengths = [len(c) for c in chunks if c[0].startswith("electron")]
    assert sum(lengths) == params.n_E and min(lengths[:-1]) >= 3
    assert lengths == [12, 12, 8]


@pytest.mark.parametrize("params", [GF_LONG_BLOCKS, TINY.replace(eta=0.05)], ids=["gf-long", "tiny"])
def test_rgf_sources_carry_corners_only_for_slots_across_block_boundaries(monkeypatch, params):
    # Sigma's atom blocks never cross a block boundary, so an electron chunk's source is its diagonal blocks alone;
    # Pi's neighbor slots do, so a phonon chunk's source is a band of the system's own corner
    passes, recurse = [], gf._rgf_pass

    def spy(a, q, contexts):
        passes.append((contexts[0].split()[0], a.shape, q.shape))
        return recurse(a, q, contexts)

    monkeypatch.setattr(gf, "_rgf_pass", spy)
    dev, nmap = synthesize(params, seed=1)
    sigma, pi = seeded_self_energies(params, 0.1)
    gf_phase(dev, sigma, pi, params, default_grid(params), nmap, solver="rgf")
    kinds = [kind for kind, _, _ in passes]
    assert "electron" in kinds and "phonon" in kinds
    for kind, band, source in passes:
        n_points, blocks, m, width = band
        if kind == "electron":
            assert width > m and source == (2, n_points, blocks, m, m)
        else:
            assert width > m and source == (2, *band)


def test_rgf_gf_phase_transient_memory_at_gf_long_blocks():
    # One RGF gf_phase holds at most
    #     RGF_BUDGET + SLACK  bytes
    # above its outputs (tracemalloc peak less what the call still holds), over all 32 of gf-long's energies, in
    # chunks of 12, 12 and 8.  A chunk (0.26 MB a point over 64 blocks of 8 rows) fits RGF_BUDGET; SLACK covers
    # what does not scale with the budget, and what does but stays small: the chunk's Sigma^R while its system is
    # assembled (0.39 MB at 12 points), the G^<> slots picked out of the source (0.79 MB at 12 points), the
    # products of g_i (Q_i + inflow) g_i^T and of the backward update, and the block solves.  The momentum's S and H
    # bands belong to the device's plan, built by the first call.  It measured 3.94 MB with numpy 2.4, and
    # 4.20 MB, past the bound, with sources built by an add onto zeros, which gathers a copy of them first (hence
    # place_slots writes); SLACK = 1 MiB.
    params = GF_LONG_BLOCKS
    dev, nmap = synthesize(params, seed=1)
    sigma, pi = seeded_self_energies(params, 0.1)
    grid = default_grid(params)
    gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    tracemalloc.start()
    try:
        out = gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")  # noqa: F841 -- held while read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= gf.RGF_BUDGET + (1 << 20), peak - held


def test_rgf_builds_one_plan_per_device(monkeypatch):
    # a 3-iteration loop and one more phase on the same device scan its matrices, cut its blocks, derive its corners
    # and cut its bands as often as one phase does: one scan of each S[k_z], H[k_z] and Phi[q_z], 2 block cuts, a
    # corner per momentum, S and H bands per k_z, Phi per q_z
    params = TINY.replace(eta=0.05)
    dev, nmap = synthesize(params, seed=1)
    sigma, pi = seeded_self_energies(params, 0.1)
    grid = default_grid(params)
    calls = dict.fromkeys(("_extents", "_rgf_blocks", "_coupling_corner", "_tridiagonal_band"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(gf, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(gf, name, counted)
    once = {"_extents": 2 * params.n_kz + params.n_qz, "_rgf_blocks": 2, "_coupling_corner": params.n_kz + params.n_qz,
            "_tridiagonal_band": 2 * params.n_kz + params.n_qz}
    result = self_consistent_loop(dev, nmap, params, grid, max_iter=3, tol=-1.0, solver="rgf",
                                  initial_sigma=sigma, initial_pi=pi)
    assert result.iterations == 3 and not result.diverged
    g_e, _ = gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
    assert calls == once
    # an edited device is a new device with a plan of its own, and the device itself cannot be edited
    h = from_band(dev.H)
    h[:, 0, 0] += 0.1
    edited = dataclasses.replace(dev, H=to_band(h))
    assert np.array_equal(from_band(edited.H), h)
    g_edited, _ = gf_phase(edited, sigma, pi, params, grid, nmap, solver="rgf")
    assert calls == {name: 2 * count for name, count in once.items()}
    assert not np.allclose(g_edited.data, g_e.data)
    for name in ("H", "S", "Phi"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(dev, name)[0, 0, 0] = 1.0
    # the plan goes with its device
    gone = weakref.ref(edited)
    del edited
    gc.collect()
    assert gone() is None


def test_a_device_is_not_changed_through_the_arrays_it_was_built_from():
    # the device copies its bands on construction: after its first RGF phase, writing into the full matrices it
    # was built from, or into the bands passed in, changes neither the device nor a second phase
    params = TINY.replace(eta=0.05)
    synthesized, nmap = synthesize(params, seed=1)
    full = {name: from_band(getattr(synthesized, name)) for name in ("H", "S", "Phi")}
    bands = {name: to_band(mat) for name, mat in full.items()}
    dev = DeviceMatrices(**bands, dH=synthesized.dH)
    kept = {name: getattr(dev, name).tobytes() for name in bands}
    sigma, pi = seeded_self_energies(params, 0.1)
    grid = default_grid(params)

    def phases():
        return [x.data.tobytes() for solver in SOLVERS for x in gf_phase(dev, sigma, pi, params, grid, nmap, solver)]

    first = phases()  # the RGF phase builds the device's plan
    for name in bands:
        full[name] += 1.0
        bands[name][:, :, bands[name].shape[-1] // 2] += 1.0  # the diagonal
    assert {name: getattr(dev, name).tobytes() for name in bands} == kept
    assert phases() == first


def test_rgf_never_rebuilds_a_full_matrix(monkeypatch):
    # a 3-iteration RGF loop, its plan included, runs on the device's bands alone: it never rebuilds a matrix, and
    # every window it cuts from a band is narrower than the matrix; the dense phase rebuilds one momentum's S, H or
    # Phi at a time, each once
    params = TINY.replace(eta=0.05)
    dev, nmap = synthesize(params, seed=1)
    sigma, pi = seeded_self_energies(params, 0.1)
    grid = default_grid(params)
    rebuilt, windows = [], []
    for module in (device, gf):
        def spy(band, _real=module.from_band):
            rebuilt.append(band.shape)
            return _real(band)

        def window_spy(band, starts, width, _real=module.band_window):
            windows.append((band.shape[-2], width))
            return _real(band, starts, width)
        monkeypatch.setattr(module, "from_band", spy)
        monkeypatch.setattr(module, "band_window", window_spy)
    result = self_consistent_loop(dev, nmap, params, grid, max_iter=3, tol=-1.0, solver="rgf",
                                  initial_sigma=sigma, initial_pi=pi)
    assert result.iterations == 3 and not result.diverged
    assert rebuilt == []
    assert len(windows) == 2 * params.n_kz + params.n_qz and all(width < n for n, width in windows)
    gf_phase(dev, sigma, pi, params, grid, nmap, solver="dense")
    assert rebuilt == [dev.S.shape[1:], dev.H.shape[1:]] * params.n_kz + [dev.Phi.shape[1:]] * params.n_qz


@pytest.mark.parametrize("n, bnum, width", [(24, 4, 6), (24, 3, 0), (36, 3, 12), (16, 1, 15), (30, 5, 4)])
def test_rgf_bands_cut_from_the_diagonal_band_match_the_full_matrix(n, bnum, width):
    # block-tridiagonal matrices whose nonzeros lie up to ``width`` rows off the diagonal, cut at every corner up
    # to the whole block: the cut from the diagonal band is the explicit column loop's cut of the full matrix
    rng = np.random.default_rng(n + bnum + width)
    rows, block = np.arange(n), np.arange(n) // (n // bnum)
    keep = (np.abs(rows[:, None] - rows) <= width) & (np.abs(block[:, None] - block) <= 1)
    matrix = np.where(keep, _rand_atom_blocks(rng, 1, n)[0], 0)
    band = to_band(matrix)
    assert band.shape == (n, 2 * min(width, 2 * n // bnum - 1) + 1)
    for corner in range(n // bnum + 1):
        assert np.array_equal(gf._tridiagonal_band(band, bnum, corner), _band_of(matrix, bnum, corner))


def _blockwise_failures(params, failures):
    """Sigma^> whose Sigma^R = (Sigma^> - Sigma^<)/2 leaves atom a's block of the system at point iE as given.

    ``failures`` maps (iE, atom) to that block; on a device with H = 0 and S = I the RGF blocks are
    independent, so each block solve sees exactly its atoms' blocks.
    """
    grid = default_grid(params)
    greater = np.zeros(params.electron_shape, complex)
    for (i_e, atom), system in failures.items():
        greater[0, i_e, atom] = 2 * ((grid.values[i_e] + 1j * params.eta) * np.eye(params.n_orb) - system)
    return grid, GreensTensor(lesser=np.zeros_like(greater), greater=greater)


def test_rgf_names_the_first_failing_block_before_a_later_singular_one(monkeypatch):
    # 8 atoms of 2 orbitals in 4 RGF blocks of 2 atoms: block 1's residual fails at iE=2 (singular values 1 and
    # 1e-15 on atom 3), and block 2 is exactly singular at iE=0 (atom 4's block zero); the check of every block
    # is one check after the sweep, and the singular block raises at once, yet block 1 is named
    params = TINY.replace(n_kz=1, n_E=4, n_qz=1, n_A=8, n_B=2, n_orb=2, bnum=4, eta=0.05)
    dev = _free_device(params)
    _, nmap = synthesize(params, seed=6)
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    grid, sigma = _blockwise_failures(params, {(2, 3): u @ np.diag([1.0, 1e-15]) @ u.conj().T,
                                               (0, 4): np.zeros((2, 2))})
    assert gf._rgf_blocks(_scans(dev, "S", "H"), params.n_A, params.bnum) == 4
    chunks = _spy_chunks(monkeypatch)
    point = re.escape(f"electron point (kz=0, iE=2, E={grid.values[2]:g})")
    with pytest.raises(SingularSystemError, match=rf"^RGF forward pass, block 1 \({point}\): solve residual .* too large") as err:
        gf_phase(dev, sigma, GreensTensor.zeros(params.phonon_shape), params, grid, nmap, solver="rgf")
    assert len(chunks) == 1 and len(chunks[0]) == params.n_E  # both points in one chunk
    assert str(err.value).count("point") == 1 and str(err.value).count("block") == 1
    # block 2's singular point alone raises as a singular system
    grid, sigma = _blockwise_failures(params, {(0, 4): np.zeros((2, 2))})
    point = re.escape(f"electron point (kz=0, iE=0, E={grid.values[0]:g})")
    with pytest.raises(SingularSystemError, match=rf"^RGF forward pass, block 2 \({point}\): singular system"):
        gf_phase(dev, sigma, GreensTensor.zeros(params.phonon_shape), params, grid, nmap, solver="rgf")


def test_rgf_names_the_first_block_and_point_of_a_nan_in_sigma():
    # NaN in Sigma^< at iE=3 on atom 5 (block 2) and at iE=1 on atom 7 (block 3): block 2 fails first, at iE=3
    params = TINY.replace(n_kz=1, n_E=4, n_qz=1, n_A=8, n_B=2, n_orb=2, bnum=4, eta=0.05)
    dev = _free_device(params)
    _, nmap = synthesize(params, seed=6)
    grid = default_grid(params)
    sigma, _ = seeded_self_energies(params, 0.1)
    sigma.lesser[0, 3, 5, 0, 0] = sigma.lesser[0, 1, 7, 1, 1] = np.nan
    point = re.escape(f"electron point (kz=0, iE=3, E={grid.values[3]:g})")
    with pytest.raises(SingularSystemError, match=rf"^RGF forward pass, block 2 \({point}\): ") as err:
        gf_phase(dev, sigma, GreensTensor.zeros(params.phonon_shape), params, grid, nmap, solver="rgf")
    assert str(err.value).count("point") == 1 and str(err.value).count("block") == 1

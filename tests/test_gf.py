"""Green's function solvers: dense oracle, RGF equivalence, phase assembly."""

import numpy as np
import pytest

from negflow.device import DeviceMatrices, build_neighbor_map, synthesize
from negflow.gf import (
    SOLVERS,
    GreensTensor,
    SingularSystemError,
    assemble_phonon_matrix,
    block_diag_from_atoms,
    extract_atom_diag,
    extract_phonon_slots,
    gf_phase,
    retarded_from_lesser_greater,
    solve_phonon_point,
    solve_point_dense,
    solve_point_dense_diag,
    solve_point_rgf,
)
from negflow.params import SimParams, default_grid

TINY = SimParams(n_kz=3, n_qz=2, n_E=4, n_w=2, n_A=8, n_B=2, n_orb=2, bnum=4)


def _free_device(params, n=None):
    n = n if n is not None else params.n_A * params.n_orb
    m = params.n_A * params.n_3D
    return DeviceMatrices(
        H=np.zeros((params.n_kz, n, n), complex),
        S=np.tile(np.eye(n, dtype=complex), (params.n_kz, 1, 1)),
        Phi=np.zeros((params.n_qz, m, m), complex),
        dH=np.zeros((params.n_A, params.n_B, 3, params.n_orb, params.n_orb), complex),
        bnum=params.bnum,
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
    a = 0.3 * dev.S[0] - dev.H[0] + 1e-3j * np.eye(n)
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
    sr = 1.0 * dev.S[0] - dev.H[0] + 1e-3j * np.eye(n)
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
        dev, *(block_diag_from_atoms(x) for x in (sr, sl, sg)), 0.1, 0, params.eta
    )
    b_r, b_l, b_g = solve_point_rgf(dev, sr, sl, sg, 0.1, 0, params.eta, bnum=1)
    assert np.allclose(b_r[0], g_r, atol=1e-12)
    assert np.allclose(b_l[0], g_l, atol=1e-12)
    assert np.allclose(b_g[0], g_g, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_rgf_matches_dense_blocks(seed):
    params = TINY.replace(n_A=8, n_B=2, bnum=4)
    dev, _ = synthesize(params, seed=seed)
    n = params.n_A * params.n_orb
    rng = np.random.default_rng(100 + seed)
    sr = _rand_atom_blocks(rng, params.n_A, 2, scale=0.1)
    sl, sg = (_rand_diag_atom_blocks(rng, params.n_A, params.n_orb) for _ in range(2))
    energy = float(rng.uniform(-0.9, 0.9))
    g_r, g_l, g_g = solve_point_dense(
        dev, *(block_diag_from_atoms(x) for x in (sr, sl, sg)), energy, 0, params.eta
    )
    b_r, b_l, b_g = solve_point_rgf(dev, sr, sl, sg, energy, 0, params.eta, params.bnum)
    step = n // params.bnum
    for i in range(params.bnum):
        sl_ = slice(i * step, (i + 1) * step)
        for big, dense in ((b_r[i], g_r[sl_, sl_]), (b_l[i], g_l[sl_, sl_]), (b_g[i], g_g[sl_, sl_])):
            rel = np.linalg.norm(big - dense) / max(np.linalg.norm(dense), 1e-300)
            assert rel <= 1e-8


def test_rgf_decoupled_blocks_are_local_inverses():
    params = TINY.replace(n_A=4, n_B=1, bnum=2, n_orb=2)
    dev, _ = synthesize(params, seed=8)
    h = dev.H.copy()
    n = params.n_A * params.n_orb
    half = n // 2
    h[:, :half, half:] = 0.0
    h[:, half:, :half] = 0.0
    dev = DeviceMatrices(H=h, S=np.tile(np.eye(n, dtype=complex), (params.n_kz, 1, 1)),
                         Phi=dev.Phi, dH=dev.dH, bnum=2)
    zero = np.zeros((params.n_A, params.n_orb, params.n_orb), complex)
    b_r, _, _ = solve_point_rgf(dev, zero, zero, zero, 0.4, 0, params.eta, 2)
    for i, sl_ in enumerate((slice(0, half), slice(half, n))):
        local = np.linalg.inv(0.4 * np.eye(half) - h[0][sl_, sl_] + 1e-3j * np.eye(half))
        assert np.allclose(b_r[i], local, atol=1e-11)


def test_phonon_point_free_and_zero_pi():
    params = TINY.replace(n_A=4, bnum=2)
    dev, nmap = synthesize(params, seed=3)
    m = params.n_A * params.n_3D
    free = DeviceMatrices(H=dev.H, S=dev.S, Phi=np.zeros_like(dev.Phi), dH=dev.dH, bnum=dev.bnum)
    zero = np.zeros((m, m), complex)
    d_r, d_l, d_g = solve_phonon_point(free, zero, zero, zero, omega=1.0, qz=0, eta=1e-3, nmap=nmap)
    assert np.allclose(d_r, np.eye(m) / (1.0 + 1e-3j), atol=1e-14)
    assert np.all(d_l == 0) and np.all(d_g == 0)


def test_phonon_point_matches_inverse_oracle():
    params = TINY.replace(n_A=4, bnum=2)
    dev, nmap = synthesize(params, seed=3)
    m = params.n_A * params.n_3D
    rng = np.random.default_rng(4)
    pr = np.zeros((m, m), complex)
    pl, pg = _rand_sigma(rng, m), _rand_sigma(rng, m)
    omega = 0.8
    d_r, d_l, d_g = solve_phonon_point(dev, pr, pl, pg, omega, 0, params.eta, nmap)
    a = omega**2 * np.eye(m) - dev.Phi[0] + 1e-3j * np.eye(m)
    inverse = np.linalg.inv(a)
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
    sigma = GreensTensor.zeros_electron(params)
    pi = GreensTensor.zeros_phonon(params)
    g_e, g_ph = gf_phase(dev, sigma, pi, params, grid, nmap)
    assert np.all(g_e.lesser == 0) and np.all(g_e.greater == 0)
    assert np.all(g_ph.lesser == 0) and np.all(g_ph.greater == 0)
    assert g_e.all_finite() and g_ph.all_finite()
    # every exact zero is +0.0 on both solvers, so a zero state has one digest
    zero = GreensTensor.zeros_electron(params).lesser.tobytes(), GreensTensor.zeros_phonon(params).lesser.tobytes()
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
    pi = GreensTensor.zeros_phonon(params)
    g_e, _ = gf_phase(dev, sigma, pi, params, grid, nmap, solver="dense")
    sig_r = block_diag_from_atoms(retarded_from_lesser_greater(sigma)[0, 0])
    _, g_l, g_g = solve_point_dense(
        dev,
        sig_r,
        block_diag_from_atoms(sigma.lesser[0, 0]),
        block_diag_from_atoms(sigma.greater[0, 0]),
        grid.values[0], 0, params.eta,
    )
    # the loop's dense path forms only the diagonal blocks, so the full-matrix oracle agrees to round-off
    assert _rel(g_e.lesser[0, 0], extract_atom_diag(g_l, params.n_A, params.n_orb)) <= 1e-12
    assert _rel(g_e.greater[0, 0], extract_atom_diag(g_g, params.n_A, params.n_orb)) <= 1e-12


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
    with pytest.raises(SingularSystemError, match=r"electron point \(kz=0, iE=0\)"):
        gf_phase(dev, sigma, GreensTensor.zeros_phonon(params), params, grid, nmap)


def test_rgf_singular_leading_block():
    params = TINY.replace(n_A=4, n_orb=1, bnum=2)
    n = 4
    dev = DeviceMatrices(
        H=np.zeros((params.n_kz, n, n), complex),
        S=np.tile(np.eye(n, dtype=complex), (params.n_kz, 1, 1)),
        Phi=np.zeros((params.n_qz, 12, 12), complex),
        dH=np.zeros((4, 2, 3, 1, 1), complex),
        bnum=2,
    )
    zero = np.zeros((4, 1, 1), complex)
    sr = np.array([0.5 + 1e-3j] * 2 + [0.0] * 2).reshape(4, 1, 1)  # cancels block 0 of E*S + i*eta exactly
    with pytest.raises(SingularSystemError, match="forward pass"):
        solve_point_rgf(dev, sr, zero, zero, 0.5, 0, 1e-3, 2)


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
    pi = GreensTensor.zeros_phonon(params)
    dense = gf_phase(dev, sigma, pi, params, grid, nmap, solver="dense")
    rgf = gf_phase(dev, sigma, pi, params, grid, nmap, solver="rgf")
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
    energy, eta = 0.5, 1e-3
    sr = np.zeros((params.n_A, 2, 2), complex)
    sr[0] = (energy + 1j * eta) * np.eye(2) - unitary() @ np.diag([1.0, 1e-15]) @ unitary().conj().T
    leading = (energy + 1j * eta) * np.eye(4) - block_diag_from_atoms(sr[:2])
    assert np.linalg.cond(leading) > 1e14
    wrong = np.linalg.solve(leading, np.eye(4))
    assert np.linalg.norm(leading @ wrong - np.eye(4)) / 2 > 1e-8
    zero = np.zeros_like(sr)
    with pytest.raises(SingularSystemError, match=r"block 0 \(kz=0, E=0\.5\): solve residual"):
        solve_point_rgf(dev, sr, zero, zero, energy, 0, eta, params.bnum)


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
    _, g_l, g_g = solve_point_dense(dev, *(block_diag_from_atoms(x) for x in (sr, sl, sg)), energy, 0, params.eta)
    less, grt = solve_point_dense_diag(dev, sr, sl, sg, energy, 0, params.eta)
    assert _rel(less, extract_atom_diag(g_l, n_a, n_orb)) <= 1e-12
    assert _rel(grt, extract_atom_diag(g_g, n_a, n_orb)) <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_phonon_slot_products_match_the_full_formula(seed):
    params = TINY.replace(n_A=8, n_B=4, bnum=2)
    dev, nmap = synthesize(params, seed=seed)
    rng = np.random.default_rng(300 + seed)
    slots = (params.n_A, params.n_B + 1, params.n_3D, params.n_3D)
    pr, pl, pg = (assemble_phonon_matrix(0.1 * (rng.standard_normal(slots) + 1j * rng.standard_normal(slots)), nmap)
                  for _ in range(3))
    d_r, d_l, d_g = solve_phonon_point(dev, pr, pl, pg, 0.7, 0, params.eta, nmap)
    assert _rel(d_l, extract_phonon_slots(d_r @ pl @ d_r.T, nmap, params.n_3D)) <= 1e-12
    assert _rel(d_g, extract_phonon_slots(d_r @ pg @ d_r.T, nmap, params.n_3D)) <= 1e-12


def test_block_helpers_match_explicit_block_loops():
    n_a, m = 6, 3
    nmap = build_neighbor_map(n_a, 3)
    rng = np.random.default_rng(9)
    blocks = _rand_atom_blocks(rng, n_a, m)
    matrix = _rand_atom_blocks(rng, 1, n_a * m)[0]
    full = np.zeros((n_a * m, n_a * m), complex)
    for a in range(n_a):
        full[a * m:(a + 1) * m, a * m:(a + 1) * m] = blocks[a]
    assert np.array_equal(block_diag_from_atoms(blocks), full)
    assert np.array_equal(extract_atom_diag(matrix, n_a, m),
                          np.stack([matrix[a * m:(a + 1) * m, a * m:(a + 1) * m] for a in range(n_a)]))
    # leading dimensions are batched over
    assert np.array_equal(extract_atom_diag(np.stack((matrix, full)), n_a, m)[1], blocks)
    slots = extract_phonon_slots(matrix, nmap, m)
    banded = np.zeros_like(matrix)
    for a in range(n_a):
        for s, b in enumerate([a, *nmap.idx[a]]):
            assert np.array_equal(slots[a, s], matrix[a * m:(a + 1) * m, b * m:(b + 1) * m])
            banded[a * m:(a + 1) * m, b * m:(b + 1) * m] = slots[a, s]
    assert np.array_equal(assemble_phonon_matrix(slots, nmap), banded)

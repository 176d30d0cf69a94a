"""Green's function solvers: dense oracle, RGF equivalence, phase assembly."""

import numpy as np
import pytest

from negflow.device import DeviceMatrices, synthesize
from negflow.gf import (
    GreensTensor,
    SingularSystemError,
    block_diag_from_atoms,
    extract_atom_diag,
    gf_phase,
    retarded_from_lesser_greater,
    solve_phonon_point,
    solve_point_dense,
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
    n = params.n_A * params.n_orb
    rng = np.random.default_rng(2)
    sr = np.zeros((n, n), complex)
    sl, sg = _rand_sigma(rng, n), _rand_sigma(rng, n)
    g_r, g_l, g_g = solve_point_dense(dev, sr, sl, sg, 0.1, 0, params.eta)
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
    sr = block_diag_from_atoms(
        0.1 * (rng.standard_normal((params.n_A, 2, 2)) + 1j * rng.standard_normal((params.n_A, 2, 2)))
    )
    sl, sg = _rand_sigma(rng, n), _rand_sigma(rng, n)
    energy = float(rng.uniform(-0.9, 0.9))
    g_r, g_l, g_g = solve_point_dense(dev, sr, sl, sg, energy, 0, params.eta)
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
    zero = np.zeros((n, n), complex)
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
    g_e, _ = gf_phase(dev, sigma, pi, params, grid, nmap)
    sig_r = block_diag_from_atoms(retarded_from_lesser_greater(sigma)[0, 0])
    _, g_l, g_g = solve_point_dense(
        dev,
        sig_r,
        block_diag_from_atoms(sigma.lesser[0, 0]),
        block_diag_from_atoms(sigma.greater[0, 0]),
        grid.values[0], 0, params.eta,
    )
    assert np.array_equal(g_e.lesser[0, 0], extract_atom_diag(g_l, params.n_A, params.n_orb))
    assert np.array_equal(g_e.greater[0, 0], extract_atom_diag(g_g, params.n_A, params.n_orb))


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
    zero = np.zeros((n, n), complex)
    sr = np.diag([0.5 + 1e-3j] * 2 + [0.0] * 2)  # cancels block 0 of E*S + i*eta exactly
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

"""Acceptance suite: one criterion per test group, stated tolerances, budgets.

Each criterion prints a PASS/FAIL line (run with ``pytest -s`` to see them
inline).  Criterion 3 pins each reported tiled-scheme row to the fixed tiling
T_E = N_kz, T_A = P / N_kz that produces it, and checks that the exhaustive
optimizer never reports more traffic than that tiling; at some process counts
the optimizer's minimum lies well below the reported row (see the README's
known-deviations section).
"""

import time

import numpy as np
import pytest

from negflow.comm import dace_volume, omen_volume, optimize_tiles
from negflow.device import build_neighbor_map, synthesize
from negflow.distsim import compare_ledger_with_model, run_omen_scheme, run_tiled_scheme
from negflow.flops import sse_flops_dace, sse_flops_omen
from negflow.gf import GreensTensor, block_diag_from_atoms, solve_point_dense, solve_point_rgf
from negflow.params import SimParams, default_grid
from negflow.sse import SseVariant, preprocess_D, sse_pi, sse_sigma

FULLSCALE = SimParams(n_kz=3, n_qz=3, n_E=706, n_w=70, n_A=4864, n_B=34, n_orb=12, bnum=19)

TABLE2_OMEN = {3: 24.41, 5: 67.80, 7: 132.89, 9: 219.67, 11: 328.15}
TABLE2_DACE = {3: 12.38, 5: 34.19, 7: 66.85, 9: 110.36, 11: 164.71}
TABLE3_OMEN = {(3, 768): 32.11, (5, 1280): 89.18, (7, 1792): 174.80, (9, 2304): 288.95, (11, 2816): 431.65}
TABLE4_OMEN = {224: 108.24, 448: 117.75, 896: 136.76, 1792: 174.80, 2688: 212.84}
TABLE3_DACE = {(3, 768): 0.54, (5, 1280): 1.22, (7, 1792): 2.17, (9, 2304): 3.38, (11, 2816): 4.86}
TABLE4_DACE = {224: 0.95, 448: 1.13, 896: 1.48, 1792: 2.17, 2688: 2.87}


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")


def _rand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_1_flop_table():
    """Analytic flop table for N_kz = N_qz in {3,5,7,9,11}, within 1.5%."""
    start = time.perf_counter()
    for n_kz, expected in TABLE2_OMEN.items():
        params = FULLSCALE.replace(n_kz=n_kz, n_qz=n_kz)
        assert sse_flops_omen(params) / 1e15 == pytest.approx(expected, rel=1.5e-2)
    for n_kz, expected in TABLE2_DACE.items():
        params = FULLSCALE.replace(n_kz=n_kz, n_qz=n_kz)
        assert sse_flops_dace(params) / 1e15 == pytest.approx(expected, rel=1.5e-2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 (flop table)", True, f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_volume_tables_fixed_scheme():
    """Momentum-energy scheme totals for both tables, within 0.5%."""
    start = time.perf_counter()
    for (n_kz, processes), expected in TABLE3_OMEN.items():
        params = FULLSCALE.replace(n_kz=n_kz, n_qz=n_kz)
        assert omen_volume(params, processes).total_tib == pytest.approx(expected, rel=5e-3)
    strong = FULLSCALE.replace(n_kz=7, n_qz=7)
    for processes, expected in TABLE4_OMEN.items():
        assert omen_volume(strong, processes).total_tib == pytest.approx(expected, rel=5e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("2 (fixed-scheme volume tables)", True, f"{elapsed * 1e3:.0f} ms")


def _check_tiled_row(label, params, processes, expected, optimizer_rel=None):
    """Pin a reported tiled-scheme row to its fixed tiling; bound the optimizer by it.

    (a) the fixed tiling T_E = N_kz, T_A = P / N_kz is within 1.5% of the
    reported row; (b) the optimizer's pick is a factorization of P whose total
    is not above that tiling's; with ``optimizer_rel``, also (c) the
    optimizer's total is within that relative tolerance of the row.
    """
    assert processes % params.n_kz == 0
    plan = optimize_tiles(params, processes)
    fixed = dace_volume(params, params.n_kz, processes // params.n_kz)
    deviation = (plan.total_tib - expected) / expected
    fixed_deviation = (fixed.total_tib - expected) / expected
    fixed_ok = abs(fixed_deviation) <= 1.5e-2
    bounded = plan.t_e * plan.t_a == processes and plan.total_bytes <= fixed.total_bytes
    near_row = optimizer_rel is None or abs(deviation) <= optimizer_rel
    _report(
        f"3 [{label} P={processes}]", fixed_ok and bounded and near_row,
        f"optimizer (T_E={plan.t_e}, T_A={plan.t_a}) {plan.total_tib:.4f} TiB ({deviation:+.1%}), "
        f"fixed (T_E={fixed.t_e}, T_A={fixed.t_a}) {fixed.total_tib:.4f} TiB ({fixed_deviation:+.1%}) "
        f"vs reported {expected}",
    )
    assert fixed_ok, f"fixed tiling total {fixed.total_tib:.4f} TiB vs reported {expected} ({fixed_deviation:+.1%})"
    assert bounded, (
        f"optimizer (T_E={plan.t_e}, T_A={plan.t_a}) reports {plan.total_tib:.4f} TiB, "
        f"more than the fixed tiling's {fixed.total_tib:.4f} TiB or not a factorization of P={processes}"
    )
    assert near_row, f"optimizer total {plan.total_tib:.4f} TiB vs reported {expected} ({deviation:+.1%})"


@pytest.mark.parametrize("n_kz, processes", sorted(TABLE3_DACE))
def test_criterion_3_weak_scaling_optimizer(n_kz, processes):
    """Weak-scaling rows: fixed tiling within 1.5%, optimizer within 10% and not above it."""
    params = FULLSCALE.replace(n_kz=n_kz, n_qz=n_kz)
    _check_tiled_row("weak", params, processes, TABLE3_DACE[(n_kz, processes)], optimizer_rel=0.10)


@pytest.mark.parametrize("processes", sorted(TABLE4_DACE))
def test_criterion_3_strong_scaling_optimizer(processes):
    """Strong-scaling rows: fixed tiling within 1.5%, optimizer not above it.

    The reported rows follow the fixed tiling T_E=7, T_A=P/7, not the
    minimum over T_E * T_A = P.  At P=224 and P=448 the optimizer finds
    tilings 31% and 17% cheaper than the reported rows, so its total is
    bounded by the fixed tiling rather than compared with the row.
    """
    params = FULLSCALE.replace(n_kz=7, n_qz=7)
    _check_tiled_row("strong", params, processes, TABLE4_DACE[processes])


def test_criterion_4_memlet_propagation_property():
    """Unique-access model equals exhaustive enumeration for extents <= 16."""
    import sympy

    from negflow.dataflow import ArrayDecl, MapScope, Memlet, SymRange, propagate_memlet

    start = time.perf_counter()
    n_sym = sympy.Symbol("N", integer=True, positive=True)
    k = sympy.Symbol("k", integer=True, nonnegative=True)
    q = sympy.Symbol("q", integer=True, nonnegative=True)
    memlet = Memlet("G", (k - q,))
    decl = ArrayDecl("G", (n_sym,))
    expected_min = {length: sympy.Min(n_sym, length) for length in range(1, 32)}
    checked = 0
    for n in range(1, 17):
        for s_k in range(1, n + 1):
            for s_q in range(1, n + 1):
                scope = MapScope("m", (k, q), (SymRange(0, s_k), SymRange(0, s_q)))
                prop = propagate_memlet(scope, memlet, decl)
                symbolic = expected_min[s_k + s_q - 1]
                assert prop.unique_accesses == symbolic or sympy.simplify(prop.unique_accesses - symbolic) == 0
                enum = {(kk - qq) % n for kk in range(s_k) for qq in range(s_q)}
                assert int(prop.unique_accesses.xreplace({n_sym: n})) == len(enum)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("4 (memlet propagation)", True, f"{checked} patterns in {elapsed:.1f} s")


def test_criterion_5_variant_equivalence():
    """All kernel variants within 1e-10 of the reference on 50 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    instances = 0
    worst = 0.0
    while instances < 50:
        n_kz = int(rng.integers(1, 5))
        n_qz = int(rng.integers(1, n_kz + 1))
        n_e = int(rng.integers(2, 5))
        n_w = int(rng.integers(1, min(4, n_e)))
        n_a = int(rng.choice([2, 4]))
        n_b = int(rng.integers(1, min(3, n_a)))
        n_orb = int(rng.integers(1, 4))
        if n_a % 2 == 1 and n_b % 2 == 1:
            continue
        params = SimParams(n_kz=n_kz, n_qz=n_qz, n_E=n_e, n_w=n_w, n_A=n_a, n_B=n_b, n_orb=n_orb, bnum=1)
        grid = default_grid(params)
        nmap = build_neighbor_map(n_a, n_b)
        g = GreensTensor(_rand(rng, params.electron_shape), _rand(rng, params.electron_shape))
        d = GreensTensor(_rand(rng, params.phonon_shape), _rand(rng, params.phonon_shape))
        dh = _rand(rng, (n_a, n_b, 3, n_orb, n_orb))
        dc = preprocess_D(d, nmap)
        ref = sse_sigma(SseVariant.REFERENCE, g, dc, dh, nmap, grid)
        scale = max(np.max(np.abs(ref.lesser)), np.max(np.abs(ref.greater)), 1e-300)
        for variant in (
            SseVariant.FISSIONED,
            SseVariant.REDUNDANCY_REMOVED,
            SseVariant.LAYOUT_TRANSFORMED,
            SseVariant.BATCHED_FUSED,
        ):
            out = sse_sigma(variant, g, dc, dh, nmap, grid)
            dev = max(np.max(np.abs(out.lesser - ref.lesser)), np.max(np.abs(out.greater - ref.greater))) / scale
            worst = max(worst, dev)
            assert dev <= 1e-10, (variant, instances, dev)
        instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("5 (variant equivalence)", True, f"50 instances, worst dev {worst:.2e}, {elapsed:.1f} s")


def test_criterion_6_rgf_against_dense_oracle():
    """RGF diagonal blocks within 1e-8 of the dense inverse, 20 seeds."""
    start = time.perf_counter()
    configs = [
        SimParams(n_kz=1, n_qz=1, n_E=2, n_w=1, n_A=8, n_B=2, n_orb=2, bnum=4),
        SimParams(n_kz=1, n_qz=1, n_E=2, n_w=1, n_A=8, n_B=4, n_orb=2, bnum=2),
        SimParams(n_kz=1, n_qz=1, n_E=2, n_w=1, n_A=16, n_B=2, n_orb=2, bnum=8),
        SimParams(n_kz=1, n_qz=1, n_E=2, n_w=1, n_A=16, n_B=4, n_orb=4, bnum=4),
        SimParams(n_kz=1, n_qz=1, n_E=2, n_w=1, n_A=4, n_B=2, n_orb=2, bnum=2),
    ]
    worst = 0.0
    seeds = 0
    for seed in range(20):
        params = configs[seed % len(configs)]
        assert params.n_A * params.n_orb <= 64
        dev, _ = synthesize(params, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        n = params.n_A * params.n_orb
        atom_diag = np.zeros((params.n_A, params.n_orb, params.n_orb), complex)
        sigma_r = atom_diag.copy()
        sigma_l, sigma_g = atom_diag.copy(), atom_diag.copy()
        orb = np.arange(params.n_orb)
        sigma_l[:, orb, orb] = _rand(rng, (n,)).reshape(params.n_A, params.n_orb)
        sigma_g[:, orb, orb] = _rand(rng, (n,)).reshape(params.n_A, params.n_orb)
        energy = float(rng.uniform(-0.9, 0.9))
        g_r, g_l, g_g = solve_point_dense(
            dev, *(block_diag_from_atoms(x) for x in (sigma_r, sigma_l, sigma_g)), energy, 0, params.eta
        )
        b_r, b_l, b_g = solve_point_rgf(dev, sigma_r, sigma_l, sigma_g, energy, 0, params.eta, params.bnum)
        step = n // params.bnum
        for i in range(params.bnum):
            span = slice(i * step, (i + 1) * step)
            for block, dense in ((b_r[i], g_r[span, span]), (b_l[i], g_l[span, span]), (b_g[i], g_g[span, span])):
                rel = np.linalg.norm(block - dense) / max(np.linalg.norm(dense), 1e-300)
                worst = max(worst, rel)
                assert rel <= 1e-8, (seed, i, rel)
        seeds += 1
    elapsed = time.perf_counter() - start
    assert seeds >= 20
    assert elapsed < 30.0
    _report("6 (RGF vs dense oracle)", True, f"{seeds} seeds, worst rel {worst:.2e}, {elapsed:.1f} s")


def test_criterion_7_distributed_equivalence_and_ledgers():
    """Both schemes reproduce the single-node reference; ledgers exact on even configs."""
    start = time.perf_counter()
    params = SimParams(n_kz=2, n_qz=2, n_E=4, n_w=1, n_A=4, n_B=2, n_orb=2, bnum=2)
    rng = np.random.default_rng(7)
    grid = default_grid(params)
    dev, nmap = synthesize(params, seed=7)
    g = GreensTensor(_rand(rng, params.electron_shape), _rand(rng, params.electron_shape))
    d = GreensTensor(_rand(rng, params.phonon_shape), _rand(rng, params.phonon_shape))
    dc = preprocess_D(d, nmap)
    ref_sigma = sse_sigma(SseVariant.REFERENCE, g, dc, dev.dH, nmap, grid)
    ref_pi = sse_pi(g, dev.dH, nmap, grid, params.n_qz)

    def dev_of(got, ref):
        scale = max(np.max(np.abs(ref.lesser)), np.max(np.abs(ref.greater)), 1e-300)
        return max(np.max(np.abs(got.lesser - ref.lesser)), np.max(np.abs(got.greater - ref.greater))) / scale

    worst = 0.0
    for processes in (1, 2, 4, 8):
        sigma, pi, ledger = run_omen_scheme(g, d, dev.dH, nmap, grid, params, processes)
        worst = max(worst, dev_of(sigma, ref_sigma), dev_of(pi, ref_pi))
        assert worst <= 1e-10
        rows = compare_ledger_with_model(ledger, omen_volume(params, processes))
        assert max(r["rel_delta"] for r in rows) == 0.0
    for t_e, t_a in ((1, 1), (2, 2), (1, 4), (2, 1)):
        sigma, pi, ledger = run_tiled_scheme(g, d, dev.dH, nmap, grid, params, t_e, t_a)
        worst = max(worst, dev_of(sigma, ref_sigma), dev_of(pi, ref_pi))
        assert worst <= 1e-10
        rows = compare_ledger_with_model(ledger, dace_volume(params, t_e, t_a))
        assert max(r["rel_delta"] for r in rows) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("7 (distributed equivalence + ledgers)", True, f"worst dev {worst:.2e}, {elapsed:.1f} s")


def test_criterion_8_full_scale_substitution():
    """Supercomputer results are out of desk-scale reach; analytic commands
    never allocate full-scale tensors, and criteria 4-7 stand in for them."""
    start = time.perf_counter()
    footprint = 2 * 16 * np.prod(FULLSCALE.electron_shape, dtype=np.int64)
    assert footprint > 2**34  # a full-scale Green's tensor pair exceeds 16 GiB
    # the table reproductions above run on closed forms alone, quickly
    omen_volume(FULLSCALE, 768)
    optimize_tiles(FULLSCALE, 768)
    sse_flops_omen(FULLSCALE)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        "8 (full-scale substitution)", True,
        "no supercomputer runtimes asserted; property criteria 4-7 substitute",
    )
